"""Torus matrix coefficients of the oscillator representation and the H kernel.

The closed form evaluated here follows from the Schroedinger-model action
(w(a) f)(x) = prod a_i^{1/2} f(a x) paired against monomials times the
Gaussian: each coordinate contributes a Gaussian moment times an explicit
power of a_i.  Only absolute values matter downstream, so no cover cocycle
is modelled.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .vectors import DomainError


def gaussian_moment(m: int) -> float:
    """Integral of u^m exp(-u^2/2) over the real line.

    Zero for odd m; (m-1)!! * sqrt(2*pi) for even m (exact double factorial,
    floated only at the end).
    """
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    if m % 2 == 1:
        return 0.0
    df = 1
    for k in range(m - 1, 0, -2):
        df *= k
    return df * math.sqrt(2.0 * math.pi)


def _check_torus(a: Sequence[float]) -> tuple[float, ...]:
    a = tuple(float(x) for x in a)
    if not a or any(x <= 0 for x in a):
        raise DomainError("torus entries must be strictly positive")
    if not all(map(math.isfinite, a)):
        raise DomainError("torus entries must be finite")
    return a


def _check_index(alpha: Sequence[int], dim: int, name: str) -> tuple[int, ...]:
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != dim:
        raise DomainError(f"{name} must have length {dim}")
    if any(x < 0 for x in alpha):
        raise DomainError(f"{name} entries must be nonnegative")
    return alpha


def oscillator_coefficient(
    a: Sequence[float], alpha: Sequence[int], beta: Sequence[int]
) -> float:
    """(w(a) x^alpha mu, x^beta mu) on the diagonal torus, coordinatewise

        c_{alpha_i, beta_i} * a_i^{alpha_i + 1/2} * (1 + a_i^2)^{-(alpha_i+beta_i+1)/2}

    with c the Gaussian moment of order alpha_i + beta_i.  Summed in log
    space, with (1 + a_i^2)^{1/2} as hypot(1, a_i), so no a_i^2 can overflow.
    """
    a = _check_torus(a)
    alpha = _check_index(alpha, len(a), "alpha")
    beta = _check_index(beta, len(a), "beta")
    log_out = 0.0
    for ai, al, be in zip(a, alpha, beta):
        c = gaussian_moment(al + be)
        if c == 0.0:
            return 0.0
        log_out += (
            math.log(c)
            + (al + 0.5) * math.log(ai)
            - (al + be + 1) * math.log(math.hypot(1.0, ai))
        )
    return math.exp(log_out)


def _normed_hermite(u: float, n: int) -> float:
    """He_n(u) / (n! sqrt(2 pi))^{1/2} by the recurrence, in the order of
    numpy's `_normed_hermite_e_n`."""
    c0, c1 = 0.0, 1 / math.sqrt(math.sqrt(2 * math.pi))
    if n == 0:
        return c1
    for nd in range(n, 1, -1):
        c0, c1 = -c1 * math.sqrt((nd - 1) / nd), c0 + c1 * u * math.sqrt(1 / nd)
    return c0 + c1 * u


def _newton_step(u: float, n: int) -> float:
    return _normed_hermite(u, n) / (_normed_hermite(u, n - 1) * math.sqrt(n))


@functools.cache
def _hermite_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Hermite nodes and weights for the weight exp(-u^2/2), built as
    numpy's `hermegauss` builds them, in plain Python.

    Each positive root of He_n, largest first, is bracketed by a scan down
    from sqrt(4n + 2), above every root, in steps 1 / sqrt(n), under a third
    of the least gap between roots; Newton on the orthonormal recurrence,
    bisecting wherever it would leave the bracket, converges to it.  Then
    come hermegauss's finishing steps in its order: one more Newton step,
    weights 1 / fm^2 with fm the degree n - 1 values over their largest, and
    the rescaling to sum sqrt(2 pi).  The negative roots mirror the positive
    ones exactly, and the recurrence is exactly odd or even in u, so
    hermegauss's symmetrisation would change nothing.
    """
    n, roots = order, []
    hi, gap = math.sqrt(4 * n + 2), 1 / math.sqrt(n)
    for _ in range(n // 2):
        lo = hi - gap
        while _normed_hermite(lo, n) * _normed_hermite(hi, n) > 0:
            lo, hi = lo - gap, lo
        below = _normed_hermite(lo, n)  # nonzero, of He_n's sign below the root
        u = (lo + hi) / 2
        for _ in range(100):
            lo, hi = (u, hi) if _normed_hermite(u, n) * below > 0 else (lo, u)
            new = u - _newton_step(u, n)
            new = new if lo <= new <= hi else (lo + hi) / 2
            if abs(new - u) <= 1e-15 * u:
                break
            u = new
        roots.append(new)
        hi = lo
    roots = [u - _newton_step(u, n) for u in reversed(roots)]
    nodes = [-u for u in reversed(roots)] + [0.0] * (n % 2) + roots
    fm = [_normed_hermite(u, n - 1) for u in nodes]
    top = max(map(abs, fm))
    w = [(f / top) * (f / top) for f in fm]
    if not min(w):  # (fm / top)^2 underflows from order 390 on
        raise OverflowError(f"Gauss-Hermite weights of order {n} exceed the double range")
    w = [1 / x for x in w]
    scale = math.sqrt(2 * math.pi) / math.fsum(w)
    return tuple(nodes), tuple(x * scale for x in w)


def oscillator_coefficient_quadrature(
    a: Sequence[float], alpha: Sequence[int], beta: Sequence[int]
) -> float:
    """Direct numerical integration of the coefficient, coordinate by coordinate.

    Each coordinate integrates a_i^{1/2} (a_i x)^{alpha_i} x^{beta_i}
    exp(-(a_i^2+1) x^2 / 2); with x = u / s_i, s_i = (1 + a_i^2)^{1/2}, the
    weight is exp(-u^2/2) and the rest a polynomial of degree
    alpha_i + beta_i in u, which Gauss-Hermite with
    floor((alpha_i+beta_i)/2) + 1 nodes integrates exactly; each order's
    rule is computed once (`_hermite_rule`).  The moment is summed from the
    nodes with `math.fsum`, independently of `gaussian_moment`.
    """
    a = _check_torus(a)
    alpha = _check_index(alpha, len(a), "alpha")
    beta = _check_index(beta, len(a), "beta")
    out = 1.0
    for ai, al, be in zip(a, alpha, beta):
        u, w = _hermite_rule((al + be) // 2 + 1)
        s = math.hypot(1.0, ai)
        terms = (wk * ((ai * x) ** al * x**be) for wk, x in zip(w, (uk / s for uk in u)))
        out *= math.fsum(terms) * math.sqrt(ai) / s
    return out


def oscillator_bound(a: Sequence[float]) -> float:
    """prod (a_i + 1/a_i)^{-1/2}, the uniform torus decay envelope."""
    a = _check_torus(a)
    out = 1.0
    for ai in a:
        out *= (ai + 1.0 / ai) ** -0.5
    return out


def h_kernel(a: Sequence[float], b: Sequence[float]) -> float:
    """H(a, b) = prod_{i<=p} prod_{j<=n} (b_i^2 + b_i^-2 + a_j^2 + a_j^-2)^{-1/2}."""
    a = _check_torus(a)
    b = _check_torus(b)
    out = 1.0
    for bi in b:
        for aj in a:
            out /= math.hypot(bi, 1.0 / bi, aj, 1.0 / aj)
    return out


def dual_pair_bound(a: Sequence[float], b: Sequence[float], p: int, q: int) -> float:
    """Matrix-coefficient envelope for the dual pair (O(p,q), Sp(2n)).

    H(a, b) with the extra prod_j (a_j + 1/a_j)^{-(q-p)/2} factor carried by
    the q - p extra rows of the orthogonal form.
    """
    if not (0 <= p <= q):
        raise DomainError("need 0 <= p <= q")
    if len(b) != p:
        raise DomainError(f"b must have length p={p}")
    a = _check_torus(a)
    out = h_kernel(a, b) if p > 0 else 1.0
    ex = Fraction(q - p, 2)
    for aj in a:
        out *= (aj + 1.0 / aj) ** -float(ex)
    return out
