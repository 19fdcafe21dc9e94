"""Numerical evaluation of the twisted integrals and decay-rate verification.

The integral

    L(a, lambda) = int_{b_1 >= ... >= b_p >= 1}
                   prod_i [ prod_k (a_k^2 + b_i^2)^{-1/2} ] b_i^{lambda_i} db

is computed after the simplex-to-orthant substitution r_i = b_i / b_{i+1}
followed by t_i = log r_i, which turns the domain into [0, inf)^p.  The
integrand is then bounded by exp(sum_j m_j t_j) with margins

    m_j = sum_{i<=j} (lambda_i - n + 1) < 0,

which yields both the convergence criterion and an analytic truncation tail
bound.  Exponents lambda are exact rationals; evaluation is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import nquad, quad

from .lpn import lpn
from .vectors import DomainError, ExponentVector

TAIL_FRACTION = 1e-9  # truncation tail target relative to the running value
MC_SAMPLES = 1_000_000
MC_SEED = 20240901
MAX_P = 5


@dataclass(frozen=True)
class RaySpec:
    """A probe path a(t) = (e^{t s_1}, ..., e^{t s_n}) inside the positive chamber."""

    direction: tuple[float, ...]
    t_values: tuple[float, ...]

    def __init__(self, direction: Sequence[float], t_values: Sequence[float]):
        d = tuple(float(x) for x in direction)
        t = tuple(float(x) for x in t_values)
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
    return all(
        s - j * (n - 1) < 0 for j, s in enumerate(lam.prefix_sums(), start=1)
    )


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
    """Numerically evaluate L(a, lambda) with a certified truncation bound."""
    a = tuple(float(x) for x in a)
    if not a or any(x < 1.0 for x in a):
        raise DomainError("a entries must be >= 1")
    n = len(a)
    p = len(lam)
    if p > MAX_P:
        raise DomainError(f"p <= {MAX_P} supported, got {p}")
    if not converges(lam, p, n):
        raise DomainError("integral diverges: lambda - (n-1)*1 is not < 0")
    margins = _margins(lam, n)
    lam_f = lam.floats()
    counter = [0]

    def integrand(*t: float) -> float:
        counter[0] += 1
        # b_i = exp(t_i + t_{i+1} + ... + t_p); extra b_i factor from db -> dt
        acc = 0.0
        out = 1.0
        for i in range(p - 1, -1, -1):
            acc += t[i]
            b2 = math.exp(2.0 * acc)
            for ak in a:
                out *= (ak * ak + b2) ** -0.5
            out *= math.exp((lam_f[i] + 1.0) * acc)
        return out

    # initial T put every per-direction tail term under an absolute floor
    T = max(
        (math.log(1.0 / (abs(m) * 1e-16)) - sum(math.log(abs(x)) for x in margins))
        / abs(m)
        for m in margins
    )
    T = max(T, 10.0)
    while True:
        value, quad_err = _integrate_box(integrand, p, T)
        tail = _tail_bound(margins, T)
        if value > 0.0 and tail > TAIL_FRACTION * value:
            T *= 1.5
            continue
        return IntegralEstimate(
            value=value,
            abs_error=quad_err + tail,
            truncation_T=T,
            node_count=counter[0],
        )


def _integrate_box(integrand, p: int, T: float) -> tuple[float, float]:
    if p <= 3:
        opts = {"epsabs": 1e-13, "epsrel": 1e-10, "limit": 200}
        if p == 1:
            return quad(integrand, 0.0, T, **opts)
        return nquad(integrand, [(0.0, T)] * p, opts=opts)
    # importance-sampled Monte Carlo, density prod c * exp(-c t_i) on [0,T]^p
    rng = np.random.default_rng(MC_SEED)
    c = 1.0
    norm = 1.0 - math.exp(-c * T)
    u = rng.random((MC_SAMPLES, p))
    t = -np.log(1.0 - u * norm) / c
    weights = np.exp(c * t.sum(axis=1)) * (norm / c) ** p
    vals = np.fromiter(
        (integrand(*row) for row in t), dtype=float, count=MC_SAMPLES
    )
    contrib = vals * weights
    # pairwise (numpy) summation keeps repeated runs bit-identical
    est = float(np.sum(contrib) / MC_SAMPLES)
    err = float(np.std(contrib) / math.sqrt(MC_SAMPLES)) * 3.0
    return est, err


def fit_decay(
    ray: RaySpec, lam: ExponentVector, method: str = "aitken"
) -> float:
    """Empirical decay rate of log L(a(t), lambda) along a ray.

    method="lsq" is the plain least-squares slope over the ray's samples.
    method="aitken" (default) accelerates the sequence of local slopes with
    one Aitken delta-squared step, which removes the leading geometric
    finite-window correction; it needs at least four samples and falls back
    to the raw tail slope if the acceleration is ill-conditioned.
    """
    if len(ray.t_values) < 3:
        raise DomainError("need at least 3 t_values")
    n = len(ray.direction)
    if not converges(lam, None, n):
        raise DomainError("integral diverges for this lambda")
    ts = np.asarray(ray.t_values)
    logs = np.array(
        [math.log(evaluate(ray.point(t), lam).value) for t in ts]
    )
    if method == "lsq":
        return float(np.polyfit(ts, logs, 1)[0])
    if method != "aitken":
        raise DomainError(f"unknown method {method!r}")
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
    result = lpn(lam, p, n)
    mu_bound = result.output
    rate_coeffs = mu_bound.floats()
    checks: list[RayCheck] = []
    for ray in rays:
        if len(ray.direction) != n:
            raise DomainError("ray dimension must equal n")
        rate = sum(m * s for m, s in zip(rate_coeffs, ray.direction))
        ts = np.asarray(ray.t_values)
        ratios = []
        for t in ts:
            val = evaluate(ray.point(t), lam).value
            ratios.append(val / math.exp((1.0 - delta) * rate * t))
        ratios_arr = np.asarray(ratios)
        # trend of the tail half: the surrogate asks for eventual
        # non-increase, and the pre-asymptotic rise at small t is harmless
        k = max(3, len(ts) // 2) if len(ts) > 3 else len(ts)
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
