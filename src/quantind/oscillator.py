"""Torus matrix coefficients of the oscillator representation and the H kernel.

The closed form evaluated here follows from the Schroedinger-model action
(w(a) f)(x) = prod a_i^{1/2} f(a x) paired against monomials times the
Gaussian: each coordinate contributes a Gaussian moment times an explicit
power of a_i.  Only absolute values matter downstream, so no cover cocycle
is modelled.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence

from .vectors import DomainError, _normal, _normal_exp, _size


def gaussian_moment(m: int) -> float:
    """Integral of u^m exp(-u^2/2) over the real line.

    Zero for odd m; (m-1)!! * sqrt(2*pi) for even m (exact double factorial,
    floated only at the end); OverflowError from m = 302 on, where it lies
    above the double range.
    """
    m = _size(m)
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    if m % 2 == 1:
        return 0.0
    dfact = math.prod(range(m - 1, 0, -2))
    value = dfact * math.sqrt(2.0 * math.pi) if dfact <= sys.float_info.max else math.inf
    return _normal(value, f"the moment of order {m}")


def _check_torus(a: Sequence[float]) -> tuple[float, ...]:
    a = tuple(float(x) for x in a)
    if not a or any(x <= 0 for x in a):
        raise DomainError("torus entries must be strictly positive")
    if not all(map(math.isfinite, a)):
        raise DomainError("torus entries must be finite")
    return a


def _check_index(alpha: Sequence[int], dim: int, name: str) -> tuple[int, ...]:
    alpha = tuple(map(_size, alpha))
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
    space, with (1 + a_i^2)^{1/2} as hypot(1, a_i), so no a_i^2 can overflow,
    and log c as the log of the exact double factorial plus log sqrt(2 pi),
    so no (m-1)!! past the double range is floated.
    Exactly 0.0 when an alpha_i + beta_i is odd; OverflowError where the
    value lies outside the normal double range, at either end.
    """
    a = _check_torus(a)
    alpha = _check_index(alpha, len(a), "alpha")
    beta = _check_index(beta, len(a), "beta")
    log_out = len(a) * math.log(2.0 * math.pi) / 2  # each moment's sqrt(2 pi)
    for ai, al, be in zip(a, alpha, beta):
        m = al + be
        if m % 2 == 1:
            return 0.0
        log_out += (
            math.log(math.prod(range(m - 1, 0, -2)))
            + (al + 0.5) * math.log(ai)
            - (m + 1) * math.log(math.hypot(1.0, ai))
        )
    return _normal_exp(log_out, f"the coefficient e^{log_out:.6g}")


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


def _roots_below(hi: float, n: int):
    """The roots of He_n below hi, largest first, each bracketed by steps 1 /
    sqrt(n) down (under a third of any gap), then Newton in it, plus one step."""
    gap = 1 / math.sqrt(n)
    while True:
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
        yield new - _newton_step(new, n)
        hi = lo


@functools.cache
def _hermite_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Hermite nodes and weights for the weight exp(-u^2/2), built as
    numpy's `hermegauss` builds them, in plain Python: the roots below
    sqrt(4n + 2), mirrored exactly (the recurrence is exactly odd or even in
    u), weights 1 / fm^2 with fm the degree n - 1 values over their largest,
    rescaled to sum sqrt(2 pi).  From order 371 on a (fm / top)^2 underflows
    or a 1 / w or their sum overflows (from 718 on, the recurrence itself):
    OverflowError, raised before the build where the extreme nodes decide
    it.  |fm| peaks at the outermost root and is least at the innermost
    (u = 0 for odd n); a ratio past 2^512 overflows its 1 / w.
    """
    error = OverflowError(f"Gauss-Hermite weights of order {n} exceed the double range")
    outer = next(_roots_below(math.sqrt(4 * n + 2), n))
    inner = next(_roots_below(2 / math.sqrt(n), n)) if n % 2 == 0 else 0.0
    fm_in, fm_out = (abs(_normed_hermite(u, n - 1)) for u in (inner, outer))
    if not fm_out <= fm_in * 2.0**512 * (1 + 1e-6):  # nan too; margin: even n's inner root
        raise error
    roots = list(itertools.islice(_roots_below(math.sqrt(4 * n + 2), n), n // 2))
    nodes = [-u for u in roots] + [0.0] * (n % 2) + roots[::-1]
    fm = [_normed_hermite(u, n - 1) for u in nodes]
    top = max(map(abs, fm))
    w = [(f / top) * (f / top) for f in fm]
    try:  # a (fm / top)^2 underflows to 0, or a 1 / w (scale 0) or their sum overflows
        w = [1 / x for x in w]
        if not (scale := math.sqrt(2 * math.pi) / math.fsum(w)) > 0:  # 0 or nan
            raise error
    except (ZeroDivisionError, OverflowError):
        raise error from None
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
    nodes with `math.fsum`, independently of `gaussian_moment`; the factors
    and their product are frexp mantissas times powers of two up to one
    `ldexp`.  OverflowError where a term or the value passes the double
    range, or where every alpha_i + beta_i is even and the value lies below
    the normal range; otherwise an odd order gives 0.
    """
    a = _check_torus(a)
    alpha = _check_index(alpha, len(a), "alpha")
    beta = _check_index(beta, len(a), "beta")
    rules = [_hermite_rule((al + be) // 2 + 1) for al, be in zip(alpha, beta)]
    out, exp2 = 1.0, 0  # the product is out * 2**exp2, out a frexp mantissa
    try:  # a power, fsum or ldexp past the double range; inf - inf in fsum
        for ai, al, be, (u, w) in zip(a, alpha, beta, rules):
            s = math.hypot(1.0, ai)
            terms = (wk * ((ai * x) ** al * x**be) for wk, x in zip(w, (uk / s for uk in u)))
            (f, ef), (r, er), (t, et) = map(math.frexp, (math.fsum(terms), math.sqrt(ai), s))
            out, eo = math.frexp(out * (f * r / t))
            exp2 += ef + er - et + eo
        out = math.ldexp(out, exp2)
    except (OverflowError, ValueError):
        out = math.inf
    if not math.isfinite(out):  # inf, or nan from inf * 0, though the value may be normal or 0
        raise OverflowError("the quadrature coefficient or a term of it is above the double range")
    if all((al + be) % 2 == 0 for al, be in zip(alpha, beta)):
        _normal(out, "the quadrature coefficient")
    return out


def oscillator_bound(a: Sequence[float]) -> float:
    """prod (a_i + 1/a_i)^{-1/2}, the uniform torus decay envelope;
    OverflowError where it lies below the normal double range."""
    return _normal(
        math.prod((ai + 1.0 / ai) ** -0.5 for ai in _check_torus(a)), "the torus bound"
    )


def h_kernel(a: Sequence[float], b: Sequence[float]) -> float:
    """H(a, b) = prod_{i<=p} prod_{j<=n} (b_i^2 + b_i^-2 + a_j^2 + a_j^-2)^{-1/2};
    OverflowError where it lies below the normal double range."""
    a = _check_torus(a)
    b = _check_torus(b)
    out = 1.0
    for bi in b:
        for aj in a:
            out /= math.hypot(bi, 1.0 / bi, aj, 1.0 / aj)
    return _normal(out, "H(a, b)")


def dual_pair_bound(a: Sequence[float], b: Sequence[float], p: int, q: int) -> float:
    """Matrix-coefficient envelope for the dual pair (O(p,q), Sp(2n)).

    H(a, b) with the extra prod_j (a_j + 1/a_j)^{-(q-p)/2} factor carried by
    the q - p extra rows of the orthogonal form.  OverflowError where it
    lies below the normal double range.
    """
    if not (0 <= p <= q):
        raise DomainError("need 0 <= p <= q")
    if len(b) != p:
        raise DomainError(f"b must have length p={p}")
    a = _check_torus(a)
    out = h_kernel(a, b) if p > 0 else 1.0
    for aj in a:
        out *= (aj + 1.0 / aj) ** ((p - q) / 2)
    return _normal(out, "the dual-pair bound")
