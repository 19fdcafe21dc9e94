"""Numerical evaluation of the twisted integrals and decay-rate verification.

The integral

    L(a, lambda) = int_{b_1 >= ... >= b_p >= 1}
                   prod_i [ prod_k (a_k^2 + b_i^2)^{-1/2} ] b_i^{lambda_i} db

is computed after the simplex-to-orthant substitution r_i = b_i / b_{i+1}
followed by t_i = log r_i, which turns the domain into [0, inf)^p.  The
integrand is then bounded by exp(sum_j m_j t_j) with margins

    m_j = sum_{i<=j} (lambda_i - n + 1) < 0,

which yields the convergence criterion and an analytic truncation tail
bound.  p = 1 is one scalar `quad`; p >= 2 is the same integral in
s_i = log b_i, an iterated one-dimensional integral evaluated in log space
on Gauss-Legendre panels, for any p.  Exponents lambda are exact
rationals; evaluation is floating point.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .lpn import lpn
from .vectors import DomainError, ExponentVector, strictly_dominated

TAIL_FRACTION = 1e-9  # truncation tail target relative to the running value
MAX_PANELS = 100_000  # bounds the memory of the p >= 2 recursion


@dataclass(frozen=True)
class RaySpec:
    """A probe path a(t) = (e^{t s_1}, ..., e^{t s_n}) inside the positive chamber."""

    direction: tuple[float, ...]
    t_values: tuple[float, ...]

    def __init__(self, direction: Sequence[float], t_values: Sequence[float]):
        d = tuple(float(x) for x in direction)
        t = tuple(float(x) for x in t_values)
        if not all(map(math.isfinite, d + t)):
            raise DomainError("direction and t_values must be finite")
        if not d or any(x < 0 for x in d) or all(x == 0 for x in d):
            raise DomainError("direction must be nonnegative and nonzero")
        if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
            raise DomainError("direction must be non-increasing")
        if any(x < 0 for x in t) or any(
            t[i] >= t[i + 1] for i in range(len(t) - 1)
        ):
            raise DomainError("t_values must be nonnegative and increasing")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "t_values", t)

    def point(self, t: float) -> tuple[float, ...]:
        return tuple(math.exp(t * s) for s in self.direction)


@dataclass(frozen=True)
class IntegralEstimate:
    """The value of L(a, lambda) and its error figure.

    value: always a positive normal double; where L lies below that range
    `evaluate` raises OverflowError instead.
    abs_error: the rule's own error estimate plus the tail bound beyond
    truncation_T; T makes that tail part at most TAIL_FRACTION = 1e-9 of L.
    For p = 1 the rule is `quad` on [0, T].  For p >= 2 it is the gap
    between two Gauss-Legendre orders on s_1 <= p T, a region that holds the
    t-space box [0, T]^p, plus a rounding term.
    node_count: the number of integrand (factor g_i for p >= 2) evaluations.
    """

    value: float
    abs_error: float
    truncation_T: float
    node_count: int


@dataclass
class RayCheck:
    direction: tuple[float, ...]
    max_ratio: float
    trend_slope: float
    bounded: bool
    ratios: tuple[float, ...] = field(default_factory=tuple)


@dataclass
class Gr2Report:
    lam: ExponentVector
    mu_bound: ExponentVector  # L(p,n)(lambda), a nonpositive vector
    delta: float
    rays: list[RayCheck]

    @property
    def ok(self) -> bool:
        return all(r.bounded for r in self.rays)


def converges(lam: ExponentVector, p: int | None, n: int) -> bool:
    """Exact convergence test: all prefix sums of lambda - (n-1)*1 are negative."""
    if p is not None and p != len(lam):
        raise DomainError(f"lambda has length {len(lam)}, expected p={p}")
    if n < 1:
        raise DomainError("n must be >= 1")
    return strictly_dominated(lam.shift(1 - n))


def _margins(lam: ExponentVector, n: int) -> list[float]:
    return [
        float(s) - j * (n - 1)
        for j, s in enumerate(lam.prefix_sums(), start=1)
    ]


def _tail_bound(margins: Sequence[float], T: float) -> float:
    """Mass of exp(sum m_j t_j) outside [0, T]^p, summed over escape directions."""
    return sum(math.exp(m * T) for m in margins) / math.prod(abs(m) for m in margins)


def evaluate(a: Sequence[float], lam: ExponentVector) -> IntegralEstimate:
    """Numerically evaluate L(a, lambda) with an error figure.

    p = 1: adaptive `quad` on [0, T]; p >= 2: `_iterated` on s_1 <= p T,
    whose excluded part {s_1 > p T} lies in the union of the {t_j > T}.  T
    makes the tail bound at most TAIL_FRACTION of L: log f has slope at
    least m_j in each t_j (its hypot factors shrink as t grows), so
    L >= f(t0) / prod |m_j| for any t0, and the tail bound is at most
    p exp(-min |m_j| T) / prod |m_j|.  At t0 = (0, ..., 0, c),
    log f(t0) = m_p c - p sum_k log hypot(a_k e^{-c}, 1), with c the best of
    0 and the log a_k.  Raises OverflowError where L lies below the normal
    double range, DomainError where the grid would exceed MAX_PANELS.
    """
    a = tuple(float(x) for x in a)
    if not a or any(x < 1.0 for x in a):
        raise DomainError("a entries must be >= 1")
    if not all(map(math.isfinite, a)):
        raise DomainError("a entries must be finite")
    n = len(a)
    p = len(lam)
    if not converges(lam, p, n):
        raise DomainError("integral diverges: lambda - (n-1)*1 is not < 0")
    margins = _margins(lam, n)
    log_f0 = max(
        margins[-1] * c
        - p * sum(math.log(math.hypot(x * math.exp(-c), 1.0)) for x in a)
        for c in [0.0] + [math.log(x) for x in a]
    )
    T = (math.log(p / TAIL_FRACTION) - log_f0) / min(abs(m) for m in margins)
    if p == 1:
        value, error, nodes = _quad_box(a, margins[0], T)
    else:
        value, error, nodes = _iterated(a, lam.shift(1 - n).floats(), p * T)
    error += _tail_bound(margins, T)
    if not value >= sys.float_info.min:
        raise OverflowError(
            f"L(a, lambda) = {value:.3g} is below the normal double range"
        )
    return IntegralEstimate(value, error, T, nodes)


def _quad_box(a, m: float, T: float) -> tuple[float, float, int]:
    """p = 1 on [0, T] with scalar `quad`, cheaper here than the panel
    recursion.  f(t) = e^{m t} / prod_k hypot(a_k e^{-t}, 1) with
    m = lambda + 1 - n: every factor is finite, so no step overflows."""
    from scipy.integrate import quad  # here, so the exact layers load no scipy
    count = 0

    def integrand(t: float) -> float:
        nonlocal count
        count += 1
        e = math.exp(-t)
        out = math.exp(m * t)
        for ak in a:
            out /= math.hypot(ak * e, 1.0)
        return out

    # epsabs is the smallest normal double: the value may lie far below 1e-13
    value, err = quad(
        integrand, 0.0, T, epsabs=sys.float_info.min, epsrel=1e-10, limit=200
    )
    return value, err, count


@functools.cache
def _panel_rule(q: int):
    """Gauss-Legendre nodes x and weights w on [-1, 1], and the matrix
    C[j, k] = int_{-1}^{x_j} l_k of the Lagrange basis l_k at the nodes."""
    from numpy.polynomial import legendre as leg
    x, w = leg.leggauss(q)
    # l_k in Legendre form: its coefficient of P_n is w_k (n + 1/2) P_n(x_k)
    coef = leg.legvander(x, q - 1).T * [[n + 0.5] for n in range(q)] * w
    return x, w, leg.legval(x, leg.legint(coef, lbnd=-1)).T


def _iterated(a, rates, S: float) -> tuple[float, float, int]:
    """p >= 2 as an iterated one-dimensional integral on s in [0, S].

    In s_i = t_i + ... + t_p = log b_i the integrand is prod_i g_i(s_i),
    g_i(s) = e^{(lambda_i + 1) s} prod_k (a_k^2 + e^{2s})^{-1/2}, on
    S >= s_1 >= ... >= s_p >= 0: F_p(s) = int_0^s g_p,
    F_i(s) = int_0^s g_i F_{i+1}, L = F_1(S); rates[i] = lambda_i + 1 - n is
    the slope of log g_i beyond the last kink max log a_k.  With F_i at the
    nodes of Gauss-Legendre panels from `_panel_rule`'s matrix, this is
    Gauss collocation for F_i' = g_i F_{i+1}, of order 2q at panel ends.
    Each g_i is analytic in |Im s| < pi/2, so on panels no wider than their
    distance to its edge the error falls geometrically in q (Trefethen,
    SIAM Review 2008): the error figure is |I_20 - I_10| plus the rounding
    of the per-level log totals.  Panels are 1 / max(1, steepest slope of
    log g_i) wide up to the kink, which keeps the collocation asymptotic,
    and as wide as their distance from it beyond, where the g_i are nearly
    exponentials: the count grows like log S.  A growing inner F (some
    r_i > 0, i >= 2) caps the width, and more than MAX_PANELS panels are
    refused.  log F_i is carried with logaddexp, so no level underflows.
    """
    import numpy as np
    log_a = np.log(a)
    kink = float(log_a.max())
    h0 = 1.0 / max(1.0, max(max(abs(r), abs(r + len(a))) for r in rates))
    growth = sum(max(r, 0.0) for r in rates[1:])
    cap = 4.0 / growth if growth else math.inf
    panels = min(kink, S) / h0 + max(S - kink, 0.0) / cap
    if panels > MAX_PANELS:
        raise DomainError(f"the integral needs about {panels:.3g} panels")
    edges = list(h0 * np.arange(min(kink, S) // h0 + 1))
    while edges[-1] < S:
        edges.append(min(S, edges[-1] + min(cap, max(h0, edges[-1] - kink))))
    half = np.diff(edges)[:, None] / 2.0
    mid = np.asarray(edges[:-1])[:, None] + half
    logs = []
    for q in (10, 20):
        x, w, C = _panel_rule(q)
        s = mid + half * x
        d = s[..., None] - log_a  # sum_k log(a_k^2 + e^{2s}) / 2 - n s:
        log_hyp = np.maximum(-d, 0.0) + 0.5 * np.log1p(np.exp(-2.0 * abs(d)))
        log_hyp = log_hyp.sum(axis=-1)
        log_F = np.zeros_like(s)  # log(F_{i+1} / F_{i+1}(S)), 0 for i = p
        logs.append([])  # log(F_i(S) / F_{i+1}(S)), one per level
        for r in reversed(rates):
            lh = r * s - log_hyp + log_F
            top = lh.max(axis=1, keepdims=True)
            h = np.exp(lh - top) * half
            log_tot = np.log(h @ w) + top[:, 0]
            cum = np.logaddexp.accumulate(np.concatenate(([-np.inf], log_tot)))
            with np.errstate(divide="ignore"):  # a node with F = 0 adds nothing
                local = np.log(np.maximum(h @ C.T, 0.0)) + top
            log_F = np.logaddexp(cum[:-1, None], local) - cum[-1]
            logs[-1].append(float(cum[-1]))
    log_10, log_20 = sum(logs[0]), sum(logs[1])
    value = math.exp(log_20)
    # plus rounding: each level's log total x is good to about eps |x|
    rounding = 8.0 * sys.float_info.epsilon * sum(1.0 + abs(x) for x in logs[1])
    error = value * (abs(math.expm1(min(log_10 - log_20, 709.0))) + rounding)
    return value, error, len(rates) * 30 * len(mid)


def _ray_logs(ray: RaySpec, lam: ExponentVector):
    """The t-values of a ray and log L(a(t), lambda) at each, as arrays."""
    if len(ray.t_values) < 3:
        raise DomainError("need at least 3 t_values")
    import numpy as np  # here, so that the exact layers never load it
    ts = np.asarray(ray.t_values)
    return ts, np.array([math.log(evaluate(ray.point(t), lam).value) for t in ts])


def fit_decay(ray: RaySpec, lam: ExponentVector) -> float:
    """Empirical decay rate of log L(a(t), lambda) along a ray.

    The sequence of local slopes is accelerated with one Aitken
    delta-squared step, which removes the leading geometric finite-window
    correction; with fewer than four samples, or if the acceleration is
    ill-conditioned, the raw tail slope is returned.  `evaluate` raises
    DomainError for a divergent lambda and OverflowError where L lies below
    the normal double range.
    """
    ts, logs = _ray_logs(ray, lam)
    slopes = (logs[1:] - logs[:-1]) / (ts[1:] - ts[:-1])
    if len(slopes) < 3:
        return float(slopes[-1])
    s0, s1, s2 = slopes[-3], slopes[-2], slopes[-1]
    denom = (s2 - s1) - (s1 - s0)
    if denom == 0.0:
        return float(s2)
    return float(s2 - (s2 - s1) ** 2 / denom)


def check_gr2(
    lam: ExponentVector,
    p: int | None,
    n: int,
    rays: Sequence[RaySpec],
    delta: float = 0.05,
) -> Gr2Report:
    """Bounded-ratio surrogate for the weak bound L(a(t), lambda) <~ a(t)^mu.

    mu = L(p,n)(lambda).  Along each ray the ratio of the integral to
    exp((1-delta) (mu . s) t) must stay bounded with a non-increasing trend.
    The trend is fitted to log L - (1-delta) (mu . s) t, and the ratios are
    its exp; the report carries the per-ray maxima and fitted trend slopes.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must be in (0, 1)")
    if not rays:
        raise DomainError("need at least one ray")
    import numpy as np  # here, so that the exact layers never load it
    result = lpn(lam, p, n)
    mu_bound = result.output
    rate_coeffs = mu_bound.floats()
    checks: list[RayCheck] = []
    for ray in rays:
        if len(ray.direction) != n:
            raise DomainError("ray dimension must equal n")
        rate = sum(m * s for m, s in zip(rate_coeffs, ray.direction))
        ts, logs = _ray_logs(ray, lam)
        log_ratios = logs - (1.0 - delta) * rate * ts
        # trend of the tail half, at least three points: the surrogate asks
        # for eventual non-increase, and the pre-asymptotic rise is harmless
        k = max(3, len(ts) // 2)
        trend = float(np.polyfit(ts[-k:], log_ratios[-k:], 1)[0])
        ratios = tuple(math.exp(x) for x in log_ratios)  # OverflowError, not inf
        checks.append(
            RayCheck(
                direction=ray.direction,
                max_ratio=max(ratios),
                trend_slope=trend,
                bounded=trend <= 1e-3,
                ratios=ratios,
            )
        )
    return Gr2Report(lam=lam, mu_bound=mu_bound, delta=delta, rays=checks)
