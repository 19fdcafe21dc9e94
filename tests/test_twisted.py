import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

from quantind import (
    DomainError,
    ExponentVector,
    RaySpec,
    check_gr2,
    converges,
    evaluate,
    fit_decay,
)


def ev(*entries):
    return ExponentVector(entries)


def test_converges_scalar():
    assert converges(ev(F(-1, 2)), 1, 1)
    assert not converges(ev(0), 1, 1)
    assert not converges(ev(F(1, 4)), 1, 1)


def test_converges_multivariate():
    # prefix sums 1, -3 against margins j*(n-1) = 2, 4
    assert converges(ev(1, -4), 2, 3)
    assert not converges(ev(2, -4), 2, 3)
    assert converges(ev(-3, -3), 2, 1)


def test_rayspec_validation():
    with pytest.raises(DomainError):
        RaySpec([0.5, 1.0], [1.0, 2.0])  # increasing direction
    with pytest.raises(DomainError):
        RaySpec([0.0, 0.0], [1.0, 2.0])  # zero direction
    with pytest.raises(DomainError):
        RaySpec([1.0], [2.0, 1.0])  # t not increasing
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            RaySpec([bad], [1.0, 2.0])
        with pytest.raises(DomainError, match="finite"):
            RaySpec([1.0], [1.0, bad])
    ray = RaySpec([1.0, 0.0], [0.0, 1.0])
    assert ray.point(1.0) == (math.e, 1.0)


def test_pinned_scalar_value():
    # independent oracle: direct quadrature in the b variable
    oracle, _ = quad(lambda b: (1 + b * b) ** -0.5 * b**-2.0, 1.0, np.inf)
    assert oracle == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-10)
    est = evaluate([1.0], ev(-2))
    assert est.value == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-9)
    assert est.abs_error < 1e-8


def test_p2_long_ray_matches_closed_inner_integral():
    # a = (A, A), A = e^100, lambda = (-1, -2): the b_1 integral is
    # (2 A^2)^-1 log(1 + A^2 / b_2^2); the b_2 integral is done in
    # u = log b_2 with A^-4 = e^{-4 L} taken out, split at the kink u = L
    L = 100.0

    def g(u):
        return (
            math.log1p(math.exp(2.0 * (L - u)))
            * math.exp(-u)
            / (2.0 * (1.0 + math.exp(2.0 * (u - L))))
        )

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    ref = math.exp(-4.0 * L) * (quad(g, 0.0, L, **opts)[0]
                                + quad(g, L, L + 100.0, **opts)[0])
    est = evaluate([math.exp(L)] * 2, ev(-1, -2))
    assert est.value == pytest.approx(ref, rel=1e-11)
    assert abs(est.value - ref) <= est.abs_error + 1e-11 * ref


# Values from bench/references.json (cubature, Genz-Malik, rtol as given).
PINNED = [
    ((6.0, 1.0), (F(-5, 2), -3, -3), 1.8231912432209e-05, 1e-8),
    ((2.0, 2.0), (-3, -3, -3, -3), 1.2977437787185684e-06, 1e-8),
    ((2.5, 1.5), (-3, -3, -3, -3, -3), 2.0926951805207986e-08, 1e-7),
]


@pytest.mark.parametrize("a,lam,ref,rtol", PINNED, ids=["p3", "p4", "p5"])
def test_pinned_higher_dim_values(a, lam, ref, rtol):
    est = evaluate(a, ev(*lam))
    assert abs(est.value - ref) <= est.abs_error + rtol * ref
    assert est.abs_error < 1e-3 * ref


def test_rqmc_is_repeatable():
    a, lam, _, _ = PINNED[1]
    first = evaluate(a, ev(*lam))
    assert first.node_count == 8 * 2**17 and first.truncation_T == math.inf
    assert evaluate(a, ev(*lam)) == first


def test_evaluate_rejects_divergent():
    with pytest.raises(DomainError):
        evaluate([2.0], ev(0))
    with pytest.raises(DomainError):
        evaluate([0.5], ev(-2))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            evaluate([bad], ev(-2))


def test_truncation_soundness():
    est = evaluate([1.5], ev(-2))
    # re-evaluating with a larger domain cannot move the value past abs_error;
    # probe by integrating the b-space integrand far beyond est.truncation_T
    far, far_err = quad(
        lambda b: (1.5**2 + b * b) ** -0.5 * b**-2.0, 1.0, np.inf
    )
    assert abs(far - est.value) <= est.abs_error + far_err + 1e-12


def test_monotone_in_a():
    vals = [evaluate([a], ev(F(-3, 2))).value for a in (1.0, 2.0, 4.0, 8.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    vals2 = [
        evaluate([a, 1.0], ev(-1, -2)).value for a in (1.0, 2.0, 4.0)
    ]
    assert all(x > y for x, y in zip(vals2, vals2[1:]))


def test_single_variable_scaling_identity():
    # L(a, lambda) = a^lambda * int_{b >= 1/a} (1+b^2)^{-1/2} b^lambda db,
    # compared in logs because a^lambda underflows at a = e^600.  The b
    # integral is taken in v = log b and scaled by e^K, its integrand's
    # value at the lower end v = -log a.
    lam = -1.5
    opts = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 200}
    for a in (2.0, 5.0, 20.0, math.exp(600.0)):
        log_a = math.log(a)
        K = -(lam + 1.0) * log_a

        def g(v):
            return math.exp(lam * v - K) / math.hypot(math.exp(-v), 1.0)

        inner = quad(g, -log_a, 0.0, **opts)[0] + quad(g, 0.0, np.inf, **opts)[0]
        rhs = lam * log_a + K + math.log(inner)
        lhs = math.log(evaluate([a], ev(F(-3, 2))).value)
        assert lhs == pytest.approx(rhs, abs=1e-6)


@pytest.mark.parametrize("L", [400.0, 600.0])
def test_p1_long_ray_matches_asymptotics(L):
    # lambda = -1/2, n = 1: L(a) = a^{-1/2} (Gamma(1/4)^2 / (2 sqrt(pi))
    # - int_0^{1/a} (1+b^2)^{-1/2} b^{-1/2} db), and the integral dropped
    # here is about 2 a^{-1/2}, far below a double's precision
    ref = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(math.pi)) * math.exp(-L / 2)
    est = evaluate([math.exp(L)], ev(F(-1, 2)))
    assert abs(est.value - ref) <= est.abs_error < 1e-9 * ref


ERROR_FIGURE_CASES = {
    "p1-a1": ((1.0,), (-2,)),
    "p1-e100": ((math.exp(100.0),), (F(-1, 2),)),
    "p1-e400": ((math.exp(400.0),), (F(-1, 2),)),
    "p2-e100": ((math.exp(100.0),) * 2, (-1, -2)),
    "p3-a22": ((2.0, 2.0), (-3, -3, -3)),
    "p3-a3-2-15": ((3.0, 2.0, 1.5), (-2, -2, -3)),
}


@pytest.mark.parametrize(
    "a,lam", ERROR_FIGURE_CASES.values(), ids=ERROR_FIGURE_CASES.keys()
)
def test_error_figure_within_tolerance(a, lam):
    # the tail part of abs_error is at most TAIL_FRACTION = 1e-9 of L by
    # the choice of T, and the rule's part is held to rtol 1e-10
    est = evaluate(a, ev(*lam))
    assert 0.0 < est.value
    assert est.abs_error <= 2e-9 * est.value


def test_scalar_boundedness_windows():
    # a^{1/2} * L(a) bounded above and below for lam = -1/2
    vals = [
        math.sqrt(a) * evaluate([a], ev(F(-1, 2))).value
        for a in np.exp(np.linspace(2.0, 6.0, 9))
    ]
    assert max(vals) / min(vals) < 3.0
    # a * L(a) bounded for lam = -3/2
    vals = [
        a * evaluate([a], ev(F(-3, 2))).value
        for a in np.exp(np.linspace(2.0, 6.0, 9))
    ]
    assert max(vals) / min(vals) < 3.0


def test_fit_decay_scalar():
    ray = RaySpec([1.0], np.linspace(1.0, 6.0, 11))
    assert fit_decay(ray, ev(F(-1, 2))) == pytest.approx(-0.5, abs=0.05)
    assert fit_decay(ray, ev(F(-5, 2))) == pytest.approx(-1.0, abs=0.05)
    long_ray = RaySpec([1.0], [100.0 + 75.0 * i for i in range(5)])
    assert fit_decay(long_ray, ev(F(-1, 2))) == pytest.approx(-0.5, abs=1e-3)


def test_fit_decay_diagonal_upper_bound():
    # mu = (2,1) so the diagonal decay must be at least (mu_1+mu_2)(1-delta)
    ray = RaySpec([1.0, 1.0], np.linspace(1.0, 4.0, 7))
    slope = fit_decay(ray, ev(-1, -2))
    assert slope <= -(2 + 1) * (1 - 0.05)


def test_check_gr2_basic():
    rays = [RaySpec([1.0, 0.0], np.linspace(1.0, 6.0, 11))]
    report = check_gr2(ev(-1, -2), 2, 2, rays, delta=0.05)
    assert report.mu_bound == ev(-2, -1)
    assert report.ok
    # weaker delta must also pass
    assert check_gr2(ev(-1, -2), 2, 2, rays, delta=0.5).ok


def test_check_gr2_small_case():
    rays = [RaySpec([1.0, 0.0], np.linspace(1.0, 4.0, 5))]
    report = check_gr2(ev(F(-1, 2)), 1, 2, rays, delta=0.05)
    assert report.mu_bound == ev(F(-1, 2), 0)
    assert report.ok


def test_check_gr2_rejects_bad_delta():
    rays = [RaySpec([1.0], [1.0, 2.0, 3.0])]
    with pytest.raises(DomainError):
        check_gr2(ev(-1), 1, 1, rays, delta=0.0)


def test_check_gr2_needs_a_ray():
    # with no ray there is no check, so no verdict
    with pytest.raises(DomainError, match="at least one ray"):
        check_gr2(ev(-1), 1, 1, [])


@pytest.mark.parametrize("ts", [[], [2.0], [1.0, 2.0]])
def test_check_gr2_needs_three_t_values(ts):
    # a trend fitted to fewer than three points says nothing
    with pytest.raises(DomainError, match="at least 3 t_values"):
        check_gr2(ev(-1), 1, 1, [RaySpec([1.0], ts)])
