"""Numerical evaluation of the twisted integrals and decay-rate verification.

The integral

    L(a, lambda) = int_{b_1 >= ... >= b_p >= 1}
                   prod_i [ prod_k (a_k^2 + b_i^2)^{-1/2} ] b_i^{lambda_i} db

is computed after the simplex-to-orthant substitution r_i = b_i / b_{i+1}
followed by t_i = log r_i, which turns the domain into [0, inf)^p.  The
integrand is then bounded by exp(sum_j m_j t_j) with margins

    m_j = sum_{i<=j} (lambda_i - n + 1) < 0,

which yields the convergence criterion, an analytic truncation tail bound
and the sampling rates of the p >= 4 estimator.  For p >= 2 the
integrand is evaluated in log space on arrays of points.  Exponents lambda
are exact rationals; evaluation is floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .lpn import lpn
from .vectors import DomainError, ExponentVector, strictly_dominated

TAIL_FRACTION = 1e-9  # truncation tail target relative to the running value
SEED = 20240901  # seeds the scrambles of the p >= 4 RQMC replicates
RQMC_REPLICATES = 8
RQMC_LOG2_POINTS = 17  # 2^17 Sobol' points per replicate
MAX_P = 5


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
    total = 0.0
    for j, mj in enumerate(margins):
        term = math.exp(mj * T) / abs(mj)
        for k, mk in enumerate(margins):
            if k != j:
                term /= abs(mk)
        total += term
    return total


def evaluate(a: Sequence[float], lam: ExponentVector) -> IntegralEstimate:
    """Numerically evaluate L(a, lambda) with an error figure.

    p = 1: adaptive `quad` on [0, T]; p = 2, 3: `cubature` (Gauss-Kronrod
    21) on [0, T]^p.  Both grow T until the analytic tail bound is below
    TAIL_FRACTION of the value, and `abs_error` is the rule's own estimate
    plus that tail bound.  p = 4, 5: randomised quasi-Monte Carlo over
    [0, inf)^p (no truncation), and `abs_error` is three standard errors of
    the replicate means, a statistical estimate rather than a bound.
    `node_count` is the number of integrand evaluations.
    """
    a = tuple(float(x) for x in a)
    if not a or any(x < 1.0 for x in a):
        raise DomainError("a entries must be >= 1")
    if not all(map(math.isfinite, a)):
        raise DomainError("a entries must be finite")
    n = len(a)
    p = len(lam)
    if p > MAX_P:
        raise DomainError(f"p <= {MAX_P} supported, got {p}")
    if not converges(lam, p, n):
        raise DomainError("integral diverges: lambda - (n-1)*1 is not < 0")
    margins = _margins(lam, n)
    lam_f = lam.floats()
    if p >= 4:
        return _rqmc(a, lam_f, margins)
    integrate_box = _quad_box if p == 1 else _cubature_box
    # initial T put every per-direction tail term under an absolute floor
    T = max(
        (math.log(1.0 / (abs(m) * 1e-16)) - sum(math.log(abs(x)) for x in margins))
        / abs(m)
        for m in margins
    )
    T = max(T, 10.0)
    nodes = 0
    while True:
        value, rule_err, count = integrate_box(a, lam_f, T)
        nodes += count
        tail = _tail_bound(margins, T)
        if not (value > 0.0 and tail > TAIL_FRACTION * value):
            return IntegralEstimate(
                value=value,
                abs_error=rule_err + tail,
                truncation_T=T,
                node_count=nodes,
            )
        # The value only grows with T, so a T whose tail meets this value's
        # target meets the final one: p >= 2 extends T that far before the
        # next (costly) integration.  p = 1 keeps single steps, because its
        # scalar integrand squares e^t and a larger T would overflow it.
        T *= 1.5
        while p >= 2 and _tail_bound(margins, T) > TAIL_FRACTION * value:
            T *= 1.5


def _quad_box(a, lam_f, T: float) -> tuple[float, float, int]:
    """p = 1 on [0, T] with scalar `quad`, about ten times cheaper here than
    the array integrand through `cubature`."""
    from scipy.integrate import quad  # here, so the exact layers load no scipy
    count = 0
    lam1 = lam_f[0] + 1.0

    def integrand(t: float) -> float:
        nonlocal count
        count += 1
        b2 = math.exp(2.0 * t)
        out = 1.0
        for ak in a:
            out *= (ak * ak + b2) ** -0.5
        return out * math.exp(lam1 * t)

    value, err = quad(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-10, limit=200)
    return value, err, count


def _log_integrand(a, lam_f):
    """The log of the t-space integrand, for points t of shape (N, p).

    With s_i = t_i + ... + t_p (so b_i = e^{s_i}, and the Jacobian adds one
    to each exponent), log f = sum_i (lambda_i + 1) s_i
    - 1/2 sum_{i,k} log(a_k^2 + b_i^2); logaddexp keeps a^2 and b^2 in
    log form, so no square can overflow.
    """
    import numpy as np
    log_a2 = 2.0 * np.log(a)
    lam1 = np.asarray(lam_f) + 1.0

    def log_f(t):
        s = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
        sq = np.logaddexp(log_a2, 2.0 * s[:, :, None])
        return s @ lam1 - 0.5 * sq.sum(axis=(1, 2))

    return log_f


def _cubature_box(a, lam_f, T: float) -> tuple[float, float, int]:
    """p = 2, 3 on [0, T]^p; the rule's error is reported even unconverged."""
    import numpy as np
    from scipy.integrate import cubature
    log_f = _log_integrand(a, lam_f)
    count = 0

    def integrand(t):
        nonlocal count
        count += len(t)
        return np.exp(log_f(t))

    # atol is the smallest normal double: below it the integrand is
    # subnormal, rtol cannot be met, and the rule would subdivide to its
    # limit (40 M evaluations at a = (e^180, e^180), lambda = (-1, -2))
    p = len(lam_f)
    res = cubature(
        integrand, [0.0] * p, [T] * p, rtol=1e-10, atol=sys.float_info.min
    )
    return float(res.estimate), float(res.error), count


def _rqmc(a, lam_f, margins) -> IntegralEstimate:
    """p = 4, 5: RQMC_REPLICATES scrambled Sobol' sequences (Owen 1998).

    Points are mapped to [0, inf)^p by t_j = -log(1 - u_j) / c_j with
    c_j = |m_j|; the integrand is at most exp(sum m_j t_j), so every weight
    f / density is at most prod 1/c_j and the variance is finite.
    """
    import numpy as np
    from scipy.stats import qmc  # slow to import: only this branch needs it
    log_f = _log_integrand(a, lam_f)
    c = np.abs(np.asarray(margins))
    rng = np.random.default_rng(SEED)
    means = []
    for _ in range(RQMC_REPLICATES):
        u = qmc.Sobol(len(c), rng=rng).random_base2(RQMC_LOG2_POINTS)
        t = -np.log1p(-u) / c
        means.append(float(np.mean(np.exp(log_f(t) + t @ c))))
    means = np.asarray(means) / float(np.prod(c))
    return IntegralEstimate(
        value=float(means.mean()),
        abs_error=3.0 * float(means.std(ddof=1)) / math.sqrt(RQMC_REPLICATES),
        truncation_T=math.inf,
        node_count=RQMC_REPLICATES << RQMC_LOG2_POINTS,
    )


def fit_decay(ray: RaySpec, lam: ExponentVector) -> float:
    """Empirical decay rate of log L(a(t), lambda) along a ray.

    The sequence of local slopes is accelerated with one Aitken
    delta-squared step, which removes the leading geometric finite-window
    correction; with fewer than four samples, or if the acceleration is
    ill-conditioned, the raw tail slope is returned.
    """
    if len(ray.t_values) < 3:
        raise DomainError("need at least 3 t_values")
    n = len(ray.direction)
    if not converges(lam, None, n):
        raise DomainError("integral diverges for this lambda")
    import numpy as np  # here, so that the exact layers never load it
    ts = np.asarray(ray.t_values)
    logs = np.array(
        [math.log(evaluate(ray.point(t), lam).value) for t in ts]
    )
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
    exp((1-delta) (mu . s) t) must stay bounded with a non-increasing trend;
    the report carries the per-ray maxima and fitted trend slopes.
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
        if len(ray.t_values) < 3:
            raise DomainError("need at least 3 t_values")
        rate = sum(m * s for m, s in zip(rate_coeffs, ray.direction))
        ts = np.asarray(ray.t_values)
        ratios = []
        for t in ts:
            val = evaluate(ray.point(t), lam).value
            # raises OverflowError, not ZeroDivisionError, where the
            # scale leaves the double range
            ratios.append(val * math.exp(-(1.0 - delta) * rate * t))
        ratios_arr = np.asarray(ratios)
        # trend of the tail half, at least three points: the surrogate asks
        # for eventual non-increase, and the pre-asymptotic rise is harmless
        k = max(3, len(ts) // 2)
        trend = float(np.polyfit(ts[-k:], np.log(ratios_arr[-k:]), 1)[0])
        bounded = bool(np.all(np.isfinite(ratios_arr))) and trend <= 1e-3
        checks.append(
            RayCheck(
                direction=ray.direction,
                max_ratio=float(ratios_arr.max()),
                trend_slope=trend,
                bounded=bounded,
                ratios=tuple(float(r) for r in ratios_arr),
            )
        )
    return Gr2Report(lam=lam, mu_bound=mu_bound, delta=delta, rays=checks)
