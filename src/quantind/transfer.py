"""Exponent-transfer maps between members of an orthogonal-symplectic pair.

Given an exact bound lambda on the real parts of the leading exponents on
one side, these maps return the weak matrix-coefficient bound on the other
side, together with the closed-form specializations at the boundary of the
admissible region.  Preconditions are exact rational tests with no slack.
"""

from __future__ import annotations

from fractions import Fraction

from .lpn import lpn
from .vectors import (
    DomainError,
    ExponentVector,
    Orthogonal,
    Symplectic,
    rho_shift,
    strictly_dominated,
)


def bound_O_to_Sp(p: int, q: int, n: int, lam: ExponentVector) -> ExponentVector:
    """Bound on theta(p,q;2n)(pi) exponents from a bound lambda on pi.

    Requires lambda + 2 rho(O(p,q)) - n*1 < 0; returns
    L(p,n)(lambda + 2 rho(O(p,q)) - n*1) - ((q-p)/2)*1.
    """
    g = Orthogonal(p, q)
    if p < 1:
        raise DomainError("need p >= 1")
    shifted = rho_shift(lam, g, n, 2)
    if not strictly_dominated(shifted):
        raise DomainError("not in semistable range for this transfer")
    return lpn(shifted, p, n).output.shift(Fraction(p - q, 2))


def bound_Sp_to_O(n: int, p: int, q: int, lam: ExponentVector) -> ExponentVector:
    """Bound on theta(2n;p,q)(pi) exponents from a bound lambda on pi.

    Requires lambda + 2 rho(Sp(2n)) - ((p+q)/2)*1 < 0; returns
    L(n,p)(lambda + 2 rho(Sp(2n)) - ((p+q)/2)*1).  No (q-p)/2 shift in this
    direction.
    """
    g = Symplectic(n)
    Orthogonal(p, q)
    if p < 1:
        raise DomainError("need p >= 1")
    shifted = rho_shift(lam, g, Fraction(p + q, 2), 2)
    if not strictly_dominated(shifted):
        raise DomainError("not in semistable range for this transfer")
    return lpn(shifted, n, p).output


def ss_bound_O_to_Sp(p: int, q: int, n: int) -> ExponentVector:
    """Closed-form bound at the boundary exponent of the O(p,q) -> Sp(2n) range.

    (-(p+q)/2, -(p+q-2)/2, ..., -(q-p+2)/2, then n-p copies of -(q-p)/2) when
    n >= p; truncated to (-(p+q)/2, ..., -(p+q-2n+2)/2) when n < p.
    """
    Orthogonal(p, q)
    if p < 1 or n < 1:
        raise DomainError("need p >= 1 and n >= 1")
    head = [Fraction(-(p + q) + 2 * k, 2) for k in range(min(p, n))]
    if n >= p:
        head += [Fraction(-(q - p), 2)] * (n - p)
    return ExponentVector(head)


def ss_bound_Sp_to_O(n: int, p: int, q: int) -> ExponentVector:
    """Closed-form bound at the boundary exponent of the Sp(2n) -> O(p,q) range.

    (-n, -n+1, ..., -1, 0, ..., 0) of length p when p > n; truncated to
    (-n, ..., -n+p-1) when p <= n.
    """
    Symplectic(n)
    Orthogonal(p, q)
    if p < 1:
        raise DomainError("need p >= 1")
    return ExponentVector(-n + k for k in range(p)) if p <= n else ExponentVector(
        list(range(-n, 0)) + [0] * (p - n)
    )


def odd_case_bound(p: int, q: int, n: int) -> ExponentVector:
    """Relaxed odd-parity bound for O(p,q) -> Sp(2n) with p+q <= 2n+1 odd.

    (-(p+q-1)/2, -(p+q-3)/2, ..., -(q-p+1)/2, then n-p copies of -(q-p)/2).
    """
    Orthogonal(p, q)
    if p < 1 or n < 1:
        raise DomainError("need p >= 1 and n >= 1")
    if (p + q) % 2 == 0:
        raise DomainError("p+q must be odd")
    if p + q > 2 * n + 1:
        raise DomainError("requires p+q <= 2n+1")
    head = [Fraction(-(p + q - 1) + 2 * k, 2) for k in range(p)]
    head += [Fraction(-(q - p), 2)] * (n - p)
    return ExponentVector(head)
