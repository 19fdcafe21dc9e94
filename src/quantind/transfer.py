"""Exponent-transfer maps between members of an orthogonal-symplectic pair.

Given an exact bound lambda on the real parts of the leading exponents on
one side, these maps return the weak matrix-coefficient bound on the other
side, together with the closed-form specializations at the boundary of the
admissible region.  Preconditions are exact rational tests with no slack, in
Fractions; each bound is built once from L(p,n)'s integer row sums D mu.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lpn import _greedy
from .vectors import (
    DomainError,
    ExponentVector,
    Orthogonal,
    Symplectic,
    _size,
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
    D, mu = _row_sums(rho_shift(lam, g, n, 2), p, n)
    E = math.lcm(D, 2)  # entry i is (-D mu_i (E/D) + (p-q) E/2) / E
    m, h = E // D, (g.p - g.q) * (E // 2)
    return ExponentVector._from_ints(E, [h - v * m for v in mu])


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
    D, mu = _row_sums(rho_shift(lam, g, Fraction(p + q, 2), 2), n, p)
    return ExponentVector._from_ints(D, [-v for v in mu])


def _row_sums(shifted: ExponentVector, p: int, n: int) -> tuple[int, list[int]]:
    """D and the row sums D*mu of L(p,n)(shifted), once shifted < 0 holds."""
    if not strictly_dominated(shifted):
        raise DomainError("not in semistable range for this transfer")
    D, xs = shifted.scaled()
    return D, _greedy(D, xs, p, n)[-1]


def ss_bound_O_to_Sp(p: int, q: int, n: int) -> ExponentVector:
    """Closed-form bound at the boundary exponent of the O(p,q) -> Sp(2n) range.

    (-(p+q)/2, -(p+q-2)/2, ..., -(q-p+2)/2, then n-p copies of -(q-p)/2) when
    n >= p; truncated to (-(p+q)/2, ..., -(p+q-2n+2)/2) when n < p.
    """
    Orthogonal(p, q)
    n = _size(n)
    if p < 1 or n < 1:
        raise DomainError("need p >= 1 and n >= 1")
    return ExponentVector(Fraction(2 * min(k, p) - p - q, 2) for k in range(n))


def ss_bound_Sp_to_O(n: int, p: int, q: int) -> ExponentVector:
    """Closed-form bound at the boundary exponent of the Sp(2n) -> O(p,q) range.

    (-n, -n+1, ..., -1, 0, ..., 0) of length p when p > n; truncated to
    (-n, ..., -n+p-1) when p <= n.
    """
    Symplectic(n)
    Orthogonal(p, q)
    if p < 1:
        raise DomainError("need p >= 1")
    return ExponentVector(min(k - n, 0) for k in range(p))


def odd_case_bound(p: int, q: int, n: int) -> ExponentVector:
    """Relaxed odd-parity bound for O(p,q) -> Sp(2n) with p+q <= 2n+1 odd.

    (-(p+q-1)/2, -(p+q-3)/2, ..., -(q-p+1)/2, then n-p copies of -(q-p)/2).
    """
    Orthogonal(p, q)
    n = _size(n)
    if p < 1 or n < 1:
        raise DomainError("need p >= 1 and n >= 1")
    _check_odd(p, q, n)
    return ExponentVector(Fraction(2 * k - p - q + 1 if k < p else p - q, 2) for k in range(n))


def _check_odd(p: int, q: int, n: int) -> None:
    """The odd-parity sizes: p+q odd and p+q <= 2n+1, else DomainError."""
    if (p + q) % 2 == 0:
        raise DomainError("p+q must be odd")
    if p + q > 2 * n + 1:
        raise DomainError("requires p+q <= 2n+1")
