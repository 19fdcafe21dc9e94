import hashlib
import itertools
import math
import random
import re
import sys
import types
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
    lpn,
    twisted,
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


def test_converges_rejects_bad_input():
    with pytest.raises(DomainError, match=r"^lambda has length 2, expected p=3$"):
        converges(ev(1, 1), 3, 0)
    with pytest.raises(DomainError, match=r"^n must be >= 1$"):
        converges(ev(1, 1), 2, 0)
    # sizes are exact integers: n = 1.5 used to fail in the rational check
    # as "exact rational required, got -0.5"
    for size in (True, False, 1.5, 2.0, F(3, 2)):
        with pytest.raises(DomainError, match="^size must be an integer, got "):
            converges(ev(-1, -1), 2, size)
        with pytest.raises(DomainError, match="^size must be an integer, got "):
            converges(ev(-1, -1), size, 2)
    assert converges(ev(1, -4), F(2), F(3))
    assert not converges(ev(2, -4), F(2), F(3))


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
    # a point off the ray, or past the double range, is refused by name
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="t must be finite and nonnegative"):
            ray.point(bad)
    with pytest.raises(OverflowError, match=r"^a\(t\) is above the double range"):
        RaySpec([1.0], [1000.0]).point(1000.0)
    # a ray whose log a = t s is no double is refused when it is evaluated
    with pytest.raises(DomainError, match="t \\* s overflows"):
        fit_decay(RaySpec([1e300], [1e10, 2e10, 3e10]), ev(F(-1, 2)))


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
    assert est.abs_error <= 1e-12 * ref


@pytest.mark.parametrize("a,c,p", [
    ((2.0, 2.0), -3, 4),
    ((2.5, 1.5), -3, 5),
    ((3.0,), -2, 6),
    ((2.0, 1.0), -3, 8),
    ((2.0, 1.0), -3, 16),  # the panel scales carried through 16 levels
])
def test_equal_exponents_identity(a, c, p):
    # with lambda = (c, ..., c) the integrand is symmetric in b, so the
    # chamber b_1 >= ... >= b_p >= 1 carries 1/p! of the mass: L = L_1^p / p!
    L1, _ = quad(
        lambda b: b**c / math.prod(math.hypot(ak, b) for ak in a),
        1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    ref = L1**p / math.factorial(p)
    est = evaluate(a, ev(*[c] * p))
    assert abs(est.value - ref) <= est.abs_error


def near_divergent_reference(eps):
    """L(a = 2, lambda = (-eps, -2)) with the slow tail done in closed form.

    L = int_0^inf g_2(u) G(u) du with g_2(u) = e^{-u} / sqrt(4 + e^{2u}) and
    G(u) = int_u^inf e^{-eps s} (1 + 4 e^{-2s})^{-1/2} ds
         = e^{-eps u} / eps + int_u^inf e^{-eps s} ((1 + 4 e^{-2s})^{-1/2} - 1) ds,
    whose last integrand decays like e^{-2s}.
    """
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}

    def rest(s):  # expm1 and log1p: no cancellation in (1 + x)^{-1/2} - 1
        x = 4.0 * math.exp(-2.0 * s)
        return math.exp(-eps * s) * math.expm1(-0.5 * math.log1p(x))

    def outer(u):
        G = math.exp(-eps * u) / eps + quad(rest, u, np.inf, **opts)[0]
        return math.exp(-2.0 * u) / math.hypot(2.0 * math.exp(-u), 1.0) * G

    return quad(outer, 0.0, np.inf, **opts)[0]


@pytest.mark.parametrize("k,pinned", [(1000, 308.7481725859), (10**6, None)])
def test_near_divergent_value_within_its_error(k, pinned):
    # margin -1/k: the mass reaches s_1 ~ 10 k, yet the grid ends at
    # S = log 2 + W and the closed-form tail carries the rest
    ref = near_divergent_reference(1.0 / k)
    assert pinned is None or ref == pytest.approx(pinned, rel=1e-12)
    est = evaluate([2.0], ev(F(-1, k), -2))
    assert abs(est.value - ref) <= est.abs_error <= 1e-12 * ref
    assert est.node_count < 10_000


def test_grid_too_large_is_refused_before_it_is_built():
    # lambda_2 + 1 - n > 0 makes the inner F grow, which caps the panel
    # width at 2 / 3 from 0 up to log a_1 + W, about 1e5 away
    with pytest.raises(DomainError, match=r"^the integral needs about 1.5e\+05 panels$"):
        twisted._log_estimate([[1e5, 5e4]], ev(-1, 2))


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
    # integrating the b-space integrand to infinity cannot move the value
    # past abs_error
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
    assert abs(est.value - ref) <= est.abs_error < 1e-12 * ref


def split_log_space_reference(a, lam):
    """L(a, lambda) for p = 1 by `quad` in u = log b, split at the knots
    u = log a_k and scaled by e^K, the integrand's largest knot value."""
    def log_g(u):
        return (lam + 1.0) * u - sum(
            u + math.log(math.hypot(ak * math.exp(-u), 1.0)) for ak in a
        )

    knots = sorted({0.0, *(math.log(ak) for ak in a)})
    K = max(map(log_g, knots))
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    return math.exp(K) * sum(
        quad(lambda u: math.exp(log_g(u) - K), lo, hi, **opts)[0]
        for lo, hi in zip(knots, knots[1:] + [np.inf])
    )


@pytest.mark.parametrize("log_a", [(30, 2), (60, 10, 0), (40, 39.5), (20, 20, 5)])
@pytest.mark.parametrize("lam", [F(-1, 2), F(-3, 2), F(-5, 2)])
def test_p1_several_knots_match_split_quad(log_a, lam):
    # far-apart, close and repeated knots: the panels are graded toward each
    a = [math.exp(x) for x in log_a]
    ref = split_log_space_reference(a, float(lam))
    est = evaluate(a, ev(lam))
    assert abs(est.value - ref) <= est.abs_error + 1e-12 * ref
    assert est.abs_error <= 1e-12 * est.value


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
    # the tail part of abs_error is eps / 2 of L by the choice of W, and
    # a rounding term per summand of the tail sum (see `evaluate`); the
    # rule's part is the gap between two Gauss-Legendre orders
    est = evaluate(a, ev(*lam))
    assert 0.0 < est.value
    assert est.abs_error <= 1e-12 * est.value


# L_1 = int_1^inf b^lambda (a^2 + b^2)^{-n/2} db at a = e^{log a}, as
# float.hex, keyed by (n, log a, lambda).  Printed by `python
# tools/references.py --table EQUAL_LAMBDA_L1`: tanh-sinh quadrature in
# mpmath at 40 digits, split at a where a > 1
EQUAL_LAMBDA_L1 = {
    (1, 0, -1): "0x1.c34366179d427p-1", (1, 0, -2): "0x1.a827999fcef32p-2",
    (1, 3, -1): "0x1.78a181190782cp-3", (1, 3, -2): "0x1.840e0dec249eap-5",
    (3, 0, -1): "0x1.64e5febea6169p-3", (3, 0, -2): "0x1.f0ed99bed9b2ep-4",
    (3, 3, -1): "0x1.5cbee7a130fbbp-12", (3, 3, -2): "0x1.d3ffdad2c26b9p-14",
}


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n,log_a,lam", EQUAL_LAMBDA_L1)
def test_equal_lambda_values_match_mpmath(p, n, log_a, lam):
    # equal lambda_i make the integrand symmetric in b, so L = L_1^p / p!
    ref = float.fromhex(EQUAL_LAMBDA_L1[n, log_a, lam]) ** p / math.factorial(p)
    est = evaluate([math.exp(log_a)] * n, ev(*[lam] * p))
    err = abs(est.value - ref)
    assert err <= 1e-13 * ref and err <= est.abs_error


def test_grid_run_on_past_S_moves_log_L_by_at_most_its_bound(monkeypatch):
    # past S = max log a_k + W the tail is taken in closed form with h = 1,
    # which moves L by at most p n e^{-2W} / 2 = eps / 2.  The same rows with
    # the grid run on to S + 10 (W is log(p n / eps) / 2, so eps e^-20 puts
    # it 10 further) move log L by no more than that bound plus the
    # rounding term: the error figure with the 10-point rule's levels
    # replaced by the 20-point ones, which zeroes the rule's part
    iterated = twisted._iterated
    monkeypatch.setattr(twisted, "_iterated", lambda *args: [
        [(v20, v20) for _, v20 in row] for row in iterated(*args)])
    far = types.SimpleNamespace(float_info=types.SimpleNamespace(
        epsilon=sys.float_info.epsilon * math.exp(-20), min=sys.float_info.min))
    rng = random.Random(22)
    checked = 0
    while checked < 1000:
        p, n = rng.randint(1, 4), rng.randint(1, 3)
        lam = [F(rng.randint(-12, 4), rng.randint(1, 4)) for _ in range(p)]
        margins = [float(m) for m in itertools.accumulate(x - n + 1 for x in lam)]
        if max(margins) >= 0:
            continue
        log_a = [[rng.uniform(0.0, 6.0) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        logs, bounds, _ = twisted._log_estimate(log_a, ExponentVector(lam))
        with monkeypatch.context() as m:
            m.setattr(twisted, "sys", far)
            far_logs, _, _ = twisted._log_estimate(log_a, ExponentVector(lam))
        for v, bound, far_v in zip(logs, bounds, far_logs):
            assert abs(v - far_v) <= bound
        checked += 1


@pytest.mark.parametrize("name", ["p3-a22", "p3-a3-2-15"])
def test_p3_matches_t_space_cubature(name):
    # an independent method on the unequal cases: adaptive cubature of the
    # t-space integrand over [0, inf)^3, s_i = t_i + ... + t_p
    from scipy.integrate import cubature
    a, lam = ERROR_FIGURE_CASES[name]
    n = len(a)
    rates = np.array([float(x) + 1.0 - n for x in lam])

    def f(t):
        s = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
        out = np.exp(s @ rates)
        for ak in a:
            out /= np.prod(np.hypot(ak * np.exp(-s), 1.0), axis=1)
        return out

    res = cubature(f, [0.0] * 3, [np.inf] * 3, rtol=1e-12, atol=0.0)
    assert res.status == "converged"
    est = evaluate(a, ev(*lam))
    assert abs(est.value - res.estimate) <= est.abs_error + 1e-11 * res.estimate


@pytest.mark.parametrize("log_a,lam", [
    (200.0, (-1, -2)),
    (150.0, (-3, -3, -3, -3)),
], ids=["p2-e200", "p4-e150"])
def test_value_below_double_range_raises(log_a, lam):
    # L is about e^-800 and e^-1800 here: a value of 0.0 with an error of
    # 0.0 would claim an exact answer, so evaluate raises instead
    with pytest.raises(OverflowError, match="double range"):
        evaluate([math.exp(log_a)] * 2, ev(*lam))


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


def test_fit_decay_falls_back_to_the_tail_slope_on_linear_logs(monkeypatch):
    # exactly linear logs: the slopes have second difference 0.0, where the
    # Aitken step would divide by zero, and the last slope comes back
    ts = (1.0, 2.0, 3.0, 4.0, 5.0)
    monkeypatch.setattr(twisted, "_ray_logs", lambda ray, lam: (ts, [-0.75 * t for t in ts]))
    assert fit_decay(RaySpec([1.0], ts), ev(-2)) == -0.75


def test_fit_decay_long_diagonal_below_double_range():
    # L at t = 250 is about e^-1000, below the double range, yet its log is
    # the recursion's own: the slope tends to the Laplace rate E = -4 of
    # lambda = (-1, -2), n = 2 on the diagonal
    ray = RaySpec([1.0, 1.0], [100.0 + 75.0 * i for i in range(5)])
    assert fit_decay(ray, ev(-1, -2)) == pytest.approx(-4.0, abs=5e-3)


@pytest.mark.parametrize("direction,ts,slope", [
    ([1.0], [400.0, 600.0, 800.0], -0.5),
    ([2.0], [100.0, 200.0, 360.0], -1.0),
])
def test_fit_decay_past_the_double_range_of_a(direction, ts, slope):
    # t s reaches 800 and 720: a(t) = e^{t s} is no double, but the ray is
    # evaluated in log a, so the slope of log L ~ -t s / 2 comes out
    assert fit_decay(RaySpec(direction, ts), ev(F(-1, 2))) == pytest.approx(
        slope, abs=1e-3
    )


def test_ray_pass_equals_the_one_point_path():
    # a ray runs all its points through one padded recursion; each log L
    # and node count must be bit for bit the one-point value at the same
    # log a
    rng = random.Random(2026)
    for _ in range(100):
        p, n = rng.randint(1, 4), rng.randint(1, 3)
        lam = ev(*[n - 1 - F(rng.randint(2, 6), 2) for _ in range(p)])
        direction = sorted(
            (rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 2.0))) for _ in range(n)),
            reverse=True,
        )
        direction[0] = max(direction[0], 0.25)
        t_max = rng.choice((5.0, 50.0, 700.0)) / direction[0]
        ts = sorted(rng.sample(range(1, 1000), rng.randint(3, 11)))
        ray = RaySpec(direction, [t_max * t / 999 for t in ts])
        log_a = [[t * s for s in ray.direction] for t in ray.t_values]
        logs, _, nodes = twisted._log_estimate(log_a, lam)
        assert twisted._ray_logs(ray, lam)[1] == logs
        for row, log_value, count in zip(log_a, logs, nodes):
            [one], _, [one_count] = twisted._log_estimate([row], lam)
            assert (one, one_count) == (log_value, count)


def _panels_needed(call):
    with pytest.raises(DomainError, match="panels") as info:
        call()
    return float(re.search(r"needs about (\S+) panels", str(info.value)).group(1))


def test_grid_limit_counts_the_whole_ray(monkeypatch):
    # every point of the ray fits under MAX_PANELS, the ray does not: its
    # rows are padded to the widest, so it counts points x widest grid.  A
    # limit of one panel per point reads each count (fewer is refused first)
    ray = RaySpec([1.0], [2.0, 3.0, 4.0])
    lam = ev(F(-1, 2))
    monkeypatch.setattr(twisted, "MAX_PANELS", len(ray.t_values))
    each = [_panels_needed(lambda t=t: evaluate(ray.point(t), lam))
            for t in ray.t_values]
    total = _panels_needed(lambda: fit_decay(ray, lam))
    assert len(set(each)) > 1 and total == len(each) * max(each)
    monkeypatch.setattr(twisted, "MAX_PANELS", int(max(each)))
    for t in ray.t_values:
        evaluate(ray.point(t), lam)
    with pytest.raises(DomainError, match=r"the integral needs about \S+ panels"):
        fit_decay(ray, lam)


def test_more_points_than_panels_are_refused_before_any_row(monkeypatch):
    # every point needs a panel at least, so such a ray is refused before
    # S or a grid is worked out for any of its points: the row
    # loops run in `math`, which here fails on any use.  `check_gr2`
    # evaluates every point (`fit_decay` only the last four)
    def unreachable(*args):
        raise AssertionError("the rows were set up")

    class NoMath:
        def __getattr__(self, name):
            unreachable()

    ray, lam = RaySpec([1.0], [1.0, 2.0, 3.0, 4.0, 5.0]), ev(-2)
    monkeypatch.setattr(twisted, "MAX_PANELS", 4)
    monkeypatch.setattr(twisted, "_iterated", unreachable)
    monkeypatch.setattr(twisted, "math", NoMath())
    with pytest.raises(DomainError, match="5 points need more than 4 panels"):
        check_gr2(lam, 1, 1, [ray])


def test_more_points_than_panels_are_refused_before_log_a(monkeypatch):
    # the count is checked before t * s is formed: this ray would overflow
    monkeypatch.setattr(twisted, "MAX_PANELS", 4)
    ray = RaySpec([1e300], [1e10 * k for k in range(1, 6)])
    with pytest.raises(DomainError, match="5 points need more than 4 panels"):
        check_gr2(ev("-1/2"), 1, 1, [ray])
    monkeypatch.setattr(twisted, "MAX_PANELS", 5)
    with pytest.raises(DomainError, match="t \\* s overflows"):
        check_gr2(ev("-1/2"), 1, 1, [ray])


def _aitken(ts, logs):
    # fit_decay's estimate from the last four of the given points
    s0, s1, s2 = [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in
                  zip(ts[-4:], ts[-3:], logs[-4:], logs[-3:])]
    denom = (s2 - s1) - (s1 - s0)
    return s2 if denom == 0.0 else s2 - (s2 - s1) ** 2 / denom


def test_fit_decay_evaluates_only_the_last_four_points(monkeypatch):
    # the Aitken step reads the last four log L, and only their rows reach
    # `_log_estimate`; each row equals its value in the whole ray's pass, so
    # the slope is bit for bit the step on the whole ray's logs
    rng, log_estimate, seen = random.Random(29), twisted._log_estimate, []

    def spy(log_a, lam):
        seen.append(len(log_a))
        return log_estimate(log_a, lam)

    for _ in range(40):
        p, n = rng.randint(1, 4), rng.randint(1, 3)
        lam = ev(*[n - 1 - F(rng.randint(2, 6), 2) for _ in range(p)])
        direction = sorted(
            (rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 2.0))) for _ in range(n)),
            reverse=True,
        )
        direction[0] = max(direction[0], 0.25)
        t_max = rng.choice((5.0, 50.0, 700.0)) / direction[0]
        ts = sorted(rng.sample(range(1, 1000), rng.randint(4, 11)))
        ray = RaySpec(direction, [t_max * t / 999 for t in ts])
        whole = _aitken(*twisted._ray_logs(ray, lam))
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(twisted, "_log_estimate", spy)
            assert fit_decay(ray, lam).hex() == whole.hex()
        assert seen == [4]


def test_fit_decay_counts_only_its_tail_against_max_panels(monkeypatch):
    # a ray with more points than MAX_PANELS: its tail of four fits, and
    # fit_decay returns the tail's slope; check_gr2, which evaluates every
    # point, refuses the ray
    lam, tail = ev(-2), [3.0, 4.0, 5.0, 6.0]
    monkeypatch.setattr(twisted, "MAX_PANELS", 4)
    need = int(_panels_needed(lambda: fit_decay(RaySpec([1.0], tail), lam)))
    ray = RaySpec([1.0], [k / 100 for k in range(1, need - 2)] + tail)
    monkeypatch.setattr(twisted, "MAX_PANELS", need)
    assert len(ray.t_values) == need + 1
    assert fit_decay(ray, lam) == _aitken(*twisted._ray_logs(RaySpec([1.0], tail), lam))
    with pytest.raises(DomainError, match=f"{need + 1} points need more than {need} panels"):
        check_gr2(lam, 1, 1, [ray])


def test_grid_rules_hold_on_every_row(monkeypatch):
    # each row's table from `_knots` against the edges the recursion gets:
    # they run from 0 to S = max log a_k + W through every knot; the table
    # counts at least the panels built, so MAX_PANELS never undercounts; the
    # first panel from a graded knot is min(h0, cap) wide where its side
    # reaches that far; and no panel is wider than its gap's cap 2 / G, but
    # for the one across the middle of a gap between two knots: at most
    # twice that
    tables, grids = [], []
    seen = dict.fromkeys(("rows", "cap", "near", "mid"), 0)
    knots, limit = twisted._knots, twisted.MAX_PANELS

    def table(row, end, caps, h0):
        tables.append((row, end, h0, knots(row, end, caps, h0)))
        return tables[-1][-1]

    def recursion(log_a, rates, edges, counts):  # the grid only
        grids.extend(zip(edges, counts))
        return [[(0.0, 0.0)] * len(rates)] * len(edges)

    def cap_of(c):  # 2 / G, G = sum_{i >= 2} (lambda_i + 1 - n + c)_+
        G = 0.0
        for r in rates[1:]:
            G += max(float(r) + c, 0.0)
        return 2.0 / G if G else math.inf

    monkeypatch.setattr(twisted, "_knots", table)
    monkeypatch.setattr(twisted, "_iterated", recursion)
    rng = random.Random(26)
    for _ in range(400):
        p, n = rng.randint(1, 4), rng.randint(1, 3)
        rates = [-F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(p)]
        near = rng.random() < 0.3  # the first margin -10^-k
        if near:
            rates[0] = -F(1, 10 ** rng.randint(1, 4))
        if p > 1 and rng.random() < 0.4:  # lambda_i + 1 - c > 0 for some c
            rates[rng.randrange(1, p)] = F(rng.randint(-2 * n, 2), 2) + F(1, 3)
        if p > 1 and rng.random() < 0.2:  # just above -c: a cap far above 4
            rates[rng.randrange(1, p)] = F(1, 10 ** rng.randint(1, 4)) - rng.randint(1, n)
        top = max(itertools.accumulate(rates))
        if top >= 0:  # convergent again, with the least margin -1/7
            rates[0] -= top + F(1, 7)
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [rng.choice((0.0, rng.uniform(0, 30), rng.uniform(0, 3000))) for _ in range(n)]
            rows.append(row[:1] * n if rng.random() < 0.2 else row)
        tables.clear(), grids.clear()
        lam = ev(*[r + n - 1 for r in rates])
        try:
            twisted._log_estimate(rows, lam)
        except DomainError as exc:
            assert "panels" in str(exc)
            continue
        for (row, end, h0, entries), (edges, count) in zip(tables, grids):
            edges = edges[:count + 1]
            assert end == max(row) + math.log(p * n / sys.float_info.epsilon) / 2
            ends = sorted({0.0, *row})
            caps = [cap_of(n - sum(k < lo for k in row)) for lo in ends]
            ends.append(end)
            assert edges[0] == 0.0 and edges[-1] == end
            assert all(u < v for u, v in zip(edges, edges[1:]))
            assert set(ends) <= set(edges)
            assert sum(1 + j + k for *_, j, k in entries) >= count
            sides = {(knot, sign): cap for knot, sign, cap, *_ in entries}
            seen["rows"] += 1
            seen["near"] += near
            for lo, hi, cap in zip(ends, ends[1:], caps):
                last = hi == end
                assert sides[lo, 1.0] == cap and (last or sides[hi, -1.0] == cap)
                seen["cap"] += cap < math.inf
                reach, tol = (hi - lo) / (1 if last else 2), 4 * math.ulp(hi)
                inside = [e for e in edges if lo <= e <= hi]
                if reach > min(h0, cap) + tol:
                    assert abs(inside[1] - lo - min(h0, cap)) <= tol
                    assert last or abs(hi - inside[-2] - min(h0, cap)) <= tol
                for u, v in zip(inside, inside[1:]):
                    middle = not last and u <= lo + reach <= v
                    assert v - u <= (2 if middle else 1) * cap + tol
                    seen["mid"] += middle and v - u > cap + tol
        # the limit counts the rows times the widest table, padding included
        need = len(rows) * max(sum(1 + j + k for *_, j, k in t[-1]) for t in tables)
        monkeypatch.setattr(twisted, "MAX_PANELS", need - 1)
        with pytest.raises(DomainError, match=re.escape(f"needs about {need:.3g} panels")):
            twisted._log_estimate(rows, lam)
        monkeypatch.setattr(twisted, "MAX_PANELS", limit)
    assert all(count >= 5 for count in seen.values()), seen


def _grid_inputs(seed, count):
    # the strata of test_grid_rules_hold_on_every_row: near-divergent first
    # margins, inner rates that give finite caps and caps far above 4, 1-4
    # rows of zero, repeated, subnormal, moderate and large log a
    rng = random.Random(seed)
    for _ in range(count):
        p, n = rng.randint(1, 4), rng.randint(1, 3)
        rates = [-F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(p)]
        if rng.random() < 0.3:
            rates[0] = -F(1, 10 ** rng.randint(1, 6))
        if p > 1 and rng.random() < 0.4:
            rates[rng.randrange(1, p)] = F(rng.randint(-2 * n, 2), 2) + F(1, 3)
        if p > 1 and rng.random() < 0.2:
            rates[rng.randrange(1, p)] = F(1, 10 ** rng.randint(1, 4)) - rng.randint(1, n)
        top = max(itertools.accumulate(rates))
        if top >= 0:
            rates[0] -= top + F(1, 7)
        pool = [0.0, 5e-324, 1e-310, rng.uniform(0, 3), rng.uniform(0, 30), rng.uniform(0, 3000)]
        if rng.random() < 0.1:
            pool.append(rng.choice((rng.uniform(1e5, 1e9), 10.0 ** rng.randint(10, 18))))
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [rng.choice(pool) for _ in range(n)]
            rows.append(row[:1] * n if rng.random() < 0.2 else row)
        yield rows, ev(*[r + n - 1 for r in rates])


def test_grid_is_pinned_bit_for_bit(monkeypatch):
    # everything `_log_estimate` hands the recursion (rates, the padded edges,
    # which end at S, and the panel counts) and the node counts, or the
    # refusal, over 300 seeded inputs, as float.hex: the grid is built in
    # `math` alone, so its sha256 cannot move with numpy's SIMD dispatch
    lines = []

    def recursion(log_a, rates, edges, counts):
        lines.append(" ".join(map(float.hex, rates)))
        lines.extend(" ".join(map(float.hex, row)) for row in edges)
        lines.append(" ".join(map(str, counts)))
        return [[(0.0, 0.0)] * len(rates)] * len(edges)

    monkeypatch.setattr(twisted, "_iterated", recursion)
    for rows, lam in _grid_inputs(31, 300):
        try:
            _, _, nodes = twisted._log_estimate(rows, lam)
        except DomainError as exc:
            lines.append(str(exc))
            continue
        lines.append(" ".join(map(str, nodes)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "86342d34fe4e44222887d0c2ce4e4eaacd327305c1e7bd6f22a35f6123b15a40", digest


class _CountingNumpy:
    """numpy's namespace, or one of its ufuncs, counting each call into it by
    name: its functions, its ufuncs and their methods (reduce, accumulate)."""

    def __init__(self, counts, target=np, name=""):
        self._counts, self._target, self._name = counts, target, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        name = f"{self._name}.{attr}" if self._name else attr
        if isinstance(value, np.ufunc):
            return _CountingNumpy(self._counts, value, name)
        return self._counting(name, value) if callable(value) else value

    def __call__(self, *args, **kwargs):
        return self._counting(self._name, self._target)(*args, **kwargs)

    def _counting(self, name, fn):
        def call(*args, **kwargs):
            self._counts[name] = self._counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call


@pytest.mark.parametrize("a,lam,bound", [
    ([3.0], ["-1/2"], 18),  # p = n = 1
    ([3.0, 1.5], ["-1", "-3/2"], 28),  # p = n = 2
])
def test_evaluate_makes_a_pinned_number_of_numpy_calls(monkeypatch, a, lam, bound):
    # a work counter for the panel recursion: the calls one `evaluate` makes
    # into numpy, counted by a stand-in installed for that call only (the
    # Gauss-Legendre rule, cached, is built before), pinned as upper bounds
    lam, counts = ExponentVector(lam), {}
    expected = evaluate(a, lam)
    monkeypatch.setitem(sys.modules, "numpy", _CountingNumpy(counts))
    assert evaluate(a, lam) == expected
    monkeypatch.undo()
    assert sum(counts.values()) <= bound, counts


# log L of `_log_estimate`, where each row's grid ends (Ts: S = max log a_k
# + W, where it once ended at p T) and the node count, as float.hex: p = 1-5,
# n = 1-3, repeated and zero log a_k, t s > 709, the near-divergent
# lambda = (-10^-6, -2), and (1 - 10^-6, -1/2) at n = 2, whose first gaps
# cap the panel width (G > 0).  Each log L lies within 3 ulps of its value
# when the grid ran to p T.  S and the node count come from `math` and the
# grid alone, so they match bit for bit.  log L also passes through BLAS,
# whose kernels (chosen per CPU) round the panel sums up to 2 ulps apart;
# it must match to 8 ulps.
_L = math.log
PINNED_LOG_ESTIMATES = [
    ([[3.0]], ["-1/2"],
     ["-0x1.4548916ce103fp-2"], ["0x1.505966f2b4f12p+4"], [270]),
    ([[2.0, 0.5]], ["0"],
     ["-0x1.269e930ca2e1fp+0"], ["0x1.45e4f7b2737fap+4"], [240]),
    ([[1.0, 1.0, 1.0]], ["1"],
     ["-0x1.103f2d54301d7p+0"], ["0x1.39235c300b72bp+4"], [240]),
    ([[800.0], [1200.0]], ["-1/2"],
     ["-0x1.8eb080ea06e0fp+8", "-0x1.2b58407503708p+9"],
     ["0x1.9902cb3795a79p+9", "0x1.3081659bcad3cp+10"], [750, 810]),
    ([[30.0]], ["-3"],
     ["-0x1.eb17217f7d1d0p+4"], ["0x1.802cb3795a789p+5"], [600]),
    ([[_L(2.0)]], ["-1/1000000", "-2"],
     ["0x1.94844e6f47d43p+3"], ["0x1.30fc1931f09c9p+4"], [480]),
    ([[2.5]], ["-1", "-2"],
     ["-0x1.0d60775012626p+2"], ["0x1.4de4f7b2737fap+4"], [720]),
    ([[3.0, 3.0]], ["-1", "-2"],
     ["-0x1.694d02ff816a8p+3"], ["0x1.5b708872320e2p+4"], [840]),
    ([[4.0, 0.0]], ["-1", "-1"],
     ["-0x1.1f96b9d04608ap+3"], ["0x1.6b708872320e2p+4"], [720]),
    ([[400.0, 400.0], [800.0, 800.0]], ["-1", "-2"],
     ["-0x1.8e80b4db2c5d0p+10", "-0x1.8f2a21e839d25p+11"],
     ["0x1.a2b708872320ep+8", "0x1.995b844391907p+9"], [1680, 1800]),
    ([[5.0, 2.0, 0.0]], ["0", "-1"],
     ["-0x1.b60a6dd92067cp+3"], ["0x1.7eaeecefca012p+4"], [1140]),
    ([[3.0, 1.0]], ["999999/1000000", "-1/2"],
     ["0x1.5e8f8b5df6e98p+3"], ["0x1.5b708872320e2p+4"], [660]),
    ([[_L(3.0)]], ["-2", "-2", "-3"],
     ["-0x1.925c26f7211e8p+2"], ["0x1.3ab746aab875cp+4"], [900]),
    ([[_L(2.0), _L(2.0)]], ["-3", "-3", "-3"],
     ["-0x1.3261558cada4ep+3"], ["0x1.39c60e6f471e1p+4"], [990]),
    ([[_L(3.0), _L(2.0), _L(1.5)]], ["-2", "-2", "-3"],
     ["-0x1.7878895e6080fp+3"], ["0x1.43813be80ef74p+4"], [1350]),
    ([[1.0, 1.0]], ["-1", "-1/2", "-1/2"],
     ["-0x1.c0954adbc1eb0p+2"], ["0x1.3eaeecefca012p+4"], [1170]),
    ([[_L(2.0), _L(2.0)]], ["-3", "-3", "-3", "-3"],
     ["-0x1.b1c19abd6a8fcp+3"], ["0x1.3c133ab16db99p+4"], [1320]),
    ([[2.0, 2.0, 0.0]], ["0", "0", "-1", "-1"],
     ["-0x1.1ea7b89c041e9p+4"], ["0x1.543a7daf888fap+4"], [1440]),
    ([[2.5]], ["-2", "-5/2", "-2", "-3", "-2"],
     ["-0x1.28d986dd2b878p+4"], ["0x1.553987eeabb7cp+4"], [1800]),
    ([[_L(2.5), _L(1.5)]], ["-5/2"] * 5,
     ["-0x1.0c53b5676416ap+4"], ["0x1.416e3926dab68p+4"], [1500]),
    # non-dyadic and large-denominator lambda
    ([[2.0]], ["-1/3", "-2/7"],
     ["0x1.8bbac8d12d2e0p-1"], ["0x1.45e4f7b2737fap+4"], [600]),
    ([[_L(3.0)]], ["-1/1000000", "-5/3"],
     ["0x1.94382ece5c588p+3"], ["0x1.3778e22d2082bp+4"], [420]),
    ([[1.5, 0.25]], ["5/7", "-13/11"],
     ["-0x1.319eb2c0402d8p+0"], ["0x1.43708872320e2p+4"], [660]),
    ([[_L(2.0), 0.0], [40.0, 20.0]], ["-1/3", "-2/7", "-1000001/1000000"],
     ["-0x1.196c1c8a47387p+2", "-0x1.267d7b702e81ap+7"],
     ["0x1.39c60e6f471e1p+4", "0x1.d7577677e5009p+5"], [720, 2970]),
    # the benchmark's ray shapes: 11 points of s = 1 at t = 1, 1.5, ..., 6
    # (p = 1), and 7 points along (1, 0) with two knots, one at 0 (p = 2)
    ([[1.0 + 0.5 * i] for i in range(11)], ["-3/2"],
     ["-0x1.f81887e4f438ep-1", "-0x1.4df235d6b8d47p+0", "-0x1.ad0aa68a4fce0p+0",
      "-0x1.0aad31164ea93p+1", "-0x1.420852948735cp+1", "-0x1.7ba3ad4476f4dp+1",
      "-0x1.b6db67fa7ddb2p+1", "-0x1.f33f3b15c451dp+1", "-0x1.18404d112ac31p+2",
      "-0x1.3733ba9c12496p+2", "-0x1.566589e50f51fp+2"],
     ["0x1.305966f2b4f12p+4", "0x1.385966f2b4f12p+4", "0x1.405966f2b4f12p+4",
      "0x1.485966f2b4f12p+4", "0x1.505966f2b4f12p+4", "0x1.585966f2b4f12p+4",
      "0x1.605966f2b4f12p+4", "0x1.685966f2b4f12p+4", "0x1.705966f2b4f12p+4",
      "0x1.785966f2b4f12p+4", "0x1.805966f2b4f12p+4"],
     [210, 270, 270, 270, 330, 330, 330, 330, 330, 390, 390]),
    ([[1.0 + 0.5 * i, 0.0] for i in range(7)], ["-1", "-2"],
     ["-0x1.043209e88d79ep+2", "-0x1.33405ccf1fee6p+2", "-0x1.68f3c5f804c40p+2",
      "-0x1.a2cbb3dc1a4f6p+2", "-0x1.df20f06f7f27fp+2", "-0x1.0e78550aa1ec6p+3",
      "-0x1.2dd0867c6d20ap+3"],
     ["0x1.3b708872320e2p+4", "0x1.43708872320e2p+4", "0x1.4b708872320e2p+4",
      "0x1.53708872320e2p+4", "0x1.5b708872320e2p+4", "0x1.63708872320e2p+4",
      "0x1.6b708872320e2p+4"],
     [600, 720, 720, 720, 840, 840, 840]),
]


@pytest.mark.parametrize("log_a,lam,logs,Ts,nodes", PINNED_LOG_ESTIMATES)
def test_log_estimate_matches_its_pinned_values(monkeypatch, log_a, lam, logs, Ts, nodes):
    ends, iterated = [], twisted._iterated

    def recursion(log_a, rates, edges, counts):  # each row's last edge, padding included
        ends.extend(row[-1] for row in edges)
        return iterated(log_a, rates, edges, counts)

    monkeypatch.setattr(twisted, "_iterated", recursion)
    got_logs, _, got_nodes = twisted._log_estimate(log_a, ExponentVector(lam))
    assert [S.hex() for S in ends] == Ts and got_nodes == nodes
    for got, pinned in zip(got_logs, map(float.fromhex, logs)):
        assert abs(got - pinned) <= 8 * math.ulp(pinned)


@pytest.mark.parametrize("lam,n", [
    (["-1/3", "1/3"], 1),  # margins -1/3, 0
    (["-1/3", "-1/6", "1/2"], 1),  # margins -1/3, -1/2, 0 over D = 6
    (["-1/1000000", "1/1000000"], 1),
    (["1", "-3"], 2),  # rate 0 first
    (["-2/7", "7/11", "204/77"], 2),  # margins -9/7, -127/77, 0
])
def test_margin_of_exactly_zero_diverges(lam, n):
    lam = ExponentVector(lam)
    assert not converges(lam, None, n)
    with pytest.raises(DomainError, match="integral diverges"):
        twisted._log_estimate([[1.0] * n], lam)
    with pytest.raises(DomainError, match="integral diverges"):
        evaluate([2.0] * n, lam)


@pytest.mark.parametrize("a", [1.0, 20.0])
@pytest.mark.parametrize("k", [15, 30, 100, 300])
def test_near_divergent_lambda_evaluates(a, k):
    # p = n = 1, lambda = -10^-k: L = 1/|lambda| + log(2/a) - asinh(1/a) up
    # to O(|lambda|); L is almost all closed-form tail past S = log a + W,
    # whose log terms of about k log 10 round by an ulp or so: the rounding
    # term per summand covers that
    est = evaluate([a], ExponentVector([F(-1, 10**k)]))
    ref = 10.0**k + (math.log(2.0 / a) - math.asinh(1.0 / a))
    assert abs(est.value - ref) <= est.abs_error
    assert abs(est.value - ref) <= 2e-13 * ref


# L at a = (a, ..., a) and near-divergent lambda - (n - 1) = (-10^-k, -1/2)
# (p = 2) and (-10^-k, -1/4, -1/2) (p = 3), k = 1..6, as float.hex, keyed by
# (p, n, a).  Printed by `python tools/references.py --table NEAR_DIVERGENT`:
# mpmath at 40 digits, the inner levels by Gauss collocation of order 30 on
# panels 0.5 wide up to s = 400, the 1/margin part split off.  (2, 2, 20) at
# k = 1, 2, 5, 6, (3, 1, 20) at k = 2, 5 and (3, 2, 20) at k = 1, 2 round to
# the same double by nested tanh-sinh quadrature at 30 digits, with
# int_s^inf g_1 in closed form as a 2F1
NEAR_DIVERGENT = {
    (2, 1, 1): ["0x1.e6ab46334d221p+3", "0x1.6af796cfee78fp+7", "0x1.ce851e3e88049p+10",
                "0x1.21a2fab8d977cp+14", "0x1.6a1dbb87b894dp+17", "0x1.c4a76acb128f0p+20"],
    (2, 1, 20): ["0x1.3be1b15ee759ep+2", "0x1.180df865a65d7p+6", "0x1.6b1c2d16660a2p+9",
                 "0x1.c78f1d8893783p+12", "0x1.1cd442081e974p+16", "0x1.640cacb3cfc1fp+19"],
    (2, 2, 1): ["0x1.c0e741a828281p+3", "0x1.52fb0509ab24ep+7", "0x1.b07e1f5dc6c6bp+10",
                "0x1.0edde8a696f70p+14", "0x1.52a74e9de7c21p+17", "0x1.a7535fdc802f7p+20"],
    (2, 2, 20): ["0x1.8e2b5f9bd898cp+1", "0x1.7976b8a17b8dap+5", "0x1.ecae7e35604a9p+8",
                 "0x1.354419cfbec46p+12", "0x1.82c0206f1c57ap+15", "0x1.e37588f31c748p+18"],
    (3, 1, 1): ["0x1.d7fcb712d807fp+4", "0x1.c27dd2c603258p+8", "0x1.27913f5870b7ap+12",
                "0x1.73494c6397f0dp+15", "0x1.d05657cfeb199p+18", "0x1.2239a2cf116d9p+22"],
    (3, 1, 20): ["0x1.7c69adedbff33p+2", "0x1.afb0442b51208p+6", "0x1.202b26cb9767ep+10",
                 "0x1.6a9e3f6ae1c14p+13", "0x1.c59338dd19358p+16", "0x1.1b80dabd78ef8p+20"],
    (3, 2, 1): ["0x1.a4ba84cc31e17p+4", "0x1.9695a10e8e2a8p+8", "0x1.0b174b0bf3fc1p+12",
                "0x1.4f8e70de467e7p+15", "0x1.a3a873c80ef1cp+18", "0x1.064caf2912e51p+22"],
    (3, 2, 20): ["0x1.8d4b424344ddep+1", "0x1.e20a804b3829ap+5", "0x1.43f1cd02130dbp+9",
                 "0x1.97e90d0b154d2p+12", "0x1.fe4326d37d909p+15", "0x1.3eeff67549e98p+19"],
}


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("p,n,a", NEAR_DIVERGENT)
def test_near_divergent_lambda_at_p_ge_2_matches_mpmath(p, n, a, k):
    # the grid ends at S = log a + W whatever k: where it ran to p T ~ 10^k
    # under the cap 2 / G it took 1.2 million nodes at k = 3 and was refused
    # from k = 4 on
    inner = [F(-1, 2)] if p == 2 else [F(-1, 4), F(-1, 2)]
    lam = ev(*[x + n - 1 for x in [F(-1, 10**k)] + inner])
    ref = float.fromhex(NEAR_DIVERGENT[p, n, a][k - 1])
    est = evaluate([float(a)] * n, lam)
    err = abs(est.value - ref)
    assert err <= 1e-13 * ref and err <= est.abs_error
    assert est.node_count < 4000


# L at n = 1, lambda = (-10^-k, -2/3, 1/3), k = 2..6, as float.hex, keyed by
# a: near-divergent, with the inner rate 1/3 > 0, whose F_3 grows and caps
# the panel widths.  Printed by `python tools/references.py --table
# POSITIVE_INNER_RATE`: the NEAR_DIVERGENT scheme
POSITIVE_INNER_RATE = {
    1: ["0x1.91bd5b4e03b1ap+8", "0x1.05c7a471eecc4p+12", "0x1.489bc690caa89p+15",
        "0x1.9aef272d0d2cdp+18", "0x1.00d83fab9d8e8p+22"],
    20: ["0x1.7332f2a7ce30dp+7", "0x1.ed82c5ae02e79p+10", "0x1.365e1ec232a48p+14",
         "0x1.843375c364bfep+17", "0x1.e5480df5344f7p+20"],
}


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("a", POSITIVE_INNER_RATE)
def test_near_divergent_lambda_with_a_positive_inner_rate_matches_mpmath(a, k):
    # the grid ends at S = log a + W whatever k: where it ran to p T ~ 10^k
    # under the cap 2 / G = 6/5 of the last gap it took 1.7 million nodes at
    # k = 3, a figure of 1.4e-10, and was refused from k = 4 on
    est = evaluate([float(a)], ev(F(-1, 10**k), F(-2, 3), F(1, 3)))
    ref = float.fromhex(POSITIVE_INNER_RATE[a][k - 2])
    err = abs(est.value - ref)
    assert err <= 1e-13 * ref and err <= est.abs_error
    assert est.node_count <= 2000


# L at p = 2, lambda - (n - 1) = (r_1, r_2) with r_2 just above -n and a =
# (a, ..., a), as float.hex, keyed by (n, a, r_1, r_2): the last gap's cap
# 2 / (r_2 + n) is 200, 2000 or 100, far above 4 (the offset of a lift
# knot the grid once had); the last row's cap is 4.  By mpmath at 40 digits, in
# s = log b, as L = F_2(inf) int g_1 - int g_2(t) G_1(t) dt, G_1(t) =
# int_0^t g_1, with int_0^t e^{r_1 s} h = (1 - e^{r_1 t}) / |r_1| +
# int_0^t e^{r_1 s} (h - 1), h = (1 + a^2 e^{-2s})^{-n/2}, each by
# tanh-sinh quadrature split at log a + (0, 2, 6, 15, 40, 100, 250); the
# same scheme gives NEAR_DIVERGENT[2, 1, 20] at k = 3 to the last bit
WIDE_CAP = {
    (1, 20, F(-1, 1000), F(-99, 100)): "0x1.779413555cdafp+7",
    (1, 1, F(-1, 1000), F(-99, 100)): "0x1.bcff51725e2a4p+9",
    (2, 20, F(-1, 1000), F(-199, 100)): "0x1.e5eb87df3cac1p+2",
    (1, 20, F(-1, 10), F(-999, 1000)): "0x1.62521da86b479p+0",
    (2, 1, F(-1, 100), F(-3, 2)): "0x1.82609579e8559p+5",
}


@pytest.mark.parametrize("n,a,r1,r2", WIDE_CAP)
def test_a_cap_far_above_the_lift_offset_matches_mpmath(n, a, r1, r2):
    # in the last gap g_2 still falls like e^{r_2 s}: a first panel there as
    # wide as the cap (200 at the first row) once left L wrong by 1e-5, with
    # an error figure of 3e-3; grading from h0 keeps it within 1e-13
    est = evaluate([float(a)] * n, ev(r1 + n - 1, r2 + n - 1))
    ref = float.fromhex(WIDE_CAP[n, a, r1, r2])
    err = abs(est.value - ref)
    assert err <= 1e-13 * ref and err <= est.abs_error
    assert est.node_count < 2000


# log L in closed form of the small-margin rows below that evaluate, keyed by
# lambda: L = 1 / |margin| + O(1) at p = 1 (at n = 2 and a = 1 too),
# L = L_1^p / p! at equal lambda, and where h0 = 1e-300, F_2(inf) L_1 with
# F_2(inf) = 10^-300 / sqrt(2) and L_1 = 10^7 + log 2 - asinh(1), each good
# to 1e-15 or better
_TINY_H0 = [F(-1, 10**7), -(10**300)]  # h0 = 1e-300
SMALL_MARGIN_LOGS = {
    (F(-1, 10**320),): math.log(10**320),
    (F(-4, 10**307),): math.log(10**307) - math.log(4),
    (1 - F(3, 10**307),): math.log(10**307) - math.log(3),
    tuple(_TINY_H0): math.log(10**7 + math.log(2) - math.asinh(1)) - math.log(10**300)
    - math.log(2) / 2,
    (F(-1, 10**306),) * 4: 4 * math.log(10**306) - math.log(24),
    (F(-2, 10**306),) * 2: 2 * (math.log(10**306) - math.log(2)) - math.log(2),
}


@pytest.mark.parametrize("rows,lam", [
    ([[0.0]], [F(-1, 10**320)]),  # a subnormal margin
    ([[0.0]], [F(-1, 10**400)]),  # the margin floats to 0
    ([[0.0]], [F(-4, 10**307)]),
    ([[0.0, 0.0]], [1 - F(3, 10**307)]),  # h0 = 1/2
    ([[0.0]], _TINY_H0),
    ([[0.0]], [F(-1, 10**306)] * 4),
    ([[0.0]] * 11, [F(-2, 10**306)] * 2),
])
def test_margin_too_small_for_the_grid_is_refused_by_name(rows, lam):
    # while the grid ran to p T ~ 36 / margin, all seven were refused; with
    # the closed-form tail past S only the margin that floats to 0, whose
    # float form of the integrand diverges, is refused, and the others
    # evaluate to their closed form within their error figure
    if tuple(lam) not in SMALL_MARGIN_LOGS:
        with pytest.raises(DomainError, match="^the least margin 0 of lambda - \\(n-1\\)\\*1 "
                                              "is too small for panels 1 wide$"):
            twisted._log_estimate(rows, ExponentVector(lam))
        return
    logs, errors, _ = twisted._log_estimate(rows, ExponentVector(lam))
    for got, err in zip(logs, errors):
        assert abs(got - SMALL_MARGIN_LOGS[tuple(lam)]) <= err


def test_lambda_too_steep_for_the_grid_is_refused_by_name():
    # r s at s = S passes the double range where an entry of lambda - (n-1)
    # is about 1e307 in size; at 1e306, L = 1e-306 / sqrt(2) to O(1e-306)
    msg = "lambda - (n-1)*1 is too steep: panels 1e-307 wide up to S = 18 pass the double range"
    with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
        evaluate([1.0], ev(-(10**307)))
    est = evaluate([1.0], ev(-(10**306)))
    assert abs(est.value - 1e-306 / math.sqrt(2)) <= est.abs_error


@pytest.mark.parametrize("lam,n", [
    ([-(10**400)], 1),  # an entry past the double range
    ([F(-1, 2), -(10**400)], 1),
    ([-(10**308), -(10**308)], 1),  # each entry in it, the prefix sum -2e308 not
])
def test_lambda_beyond_the_double_range_is_refused_by_name(lam, n):
    # where the exact lambda side first turns into floats, by name and not
    # as Python's OverflowError from the integer division
    lam, match = ExponentVector(lam), r"^lambda - \(n-1\)\*1 lies beyond the double range$"
    with pytest.raises(DomainError, match=match):
        twisted._log_estimate([[1.0] * n], lam)
    if n == 1:
        with pytest.raises(DomainError, match=match):
            evaluate([2.0], lam)
        with pytest.raises(DomainError, match=match):
            fit_decay(RaySpec([1.0], [1.0, 2.0, 3.0]), lam)


def test_check_gr2_refuses_lambda_beyond_the_double_range_by_name():
    # mu = L(p,n)(lambda) has entries in [-p, 0], so its floats are in range:
    # the refusal comes where the ray's pass turns lambda into floats
    ray = RaySpec([1.0], [1.0, 2.0, 3.0])
    assert lpn(ev(-(10**400)), 1, 1).output.floats() == (-1.0,)
    with pytest.raises(DomainError, match=r"^lambda - \(n-1\)\*1 lies beyond the double range$"):
        check_gr2(ev(-(10**400)), 1, 1, [ray])


def test_node_log_hypot_is_finite_without_warnings():
    # the rows put log a_k - s at the nodes through 0, +-40, +-800 and +-1e12,
    # where e^{2 (log a_k - s)} overflows or underflows: log hypot must not,
    # and may not warn (warnings are errors in this suite).  At p = 1,
    # lambda = -2, L = (sqrt(a^2 + 1) - 1) / a^2 in closed form
    rows = [[0.0], [40.0], [800.0], [1e12]]
    logs, errors, _ = twisted._log_estimate(rows, ev(-2))
    for (k,), got, err in zip(rows, logs, errors):
        ref = -k + math.log(math.hypot(1.0, math.exp(-k)) - math.exp(-k))
        assert abs(got - ref) <= err
    for lam in [ev(F(-1, 2), -2), ev(F(-1, 2), -2, -2)]:
        # at p = 3 every inner level's update meets F = 0 at s = 0 and
        # differences of log F past the exp range
        logs, errors, _ = twisted._log_estimate(rows, lam)
        assert all(map(math.isfinite, logs + errors))


def _numpys_panel_rule():
    """`twisted._panel_rule`'s arrays built from numpy's leggauss, legvander,
    legint and legval: numpy's rule stays the reference here; the library
    does not load it."""
    from numpy.polynomial import legendre as leg

    x, W, C = np.zeros(30), np.zeros((30, 2)), np.zeros((30, 30))
    for rule, (q, block) in enumerate([(10, slice(0, 10)), (20, slice(10, 30))]):
        x[block], W[block, rule] = leg.leggauss(q)
        coef = leg.legvander(x[block], q - 1).T * [[n + 0.5] for n in range(q)]
        coef *= W[block, rule]
        C[block, block] = leg.legval(x[block], leg.legint(coef, lbnd=-1)).T
    return 1.0 + x, W, np.hstack((C.T, W)), np.repeat([0, 1], [10, 20])


def test_panel_rule_is_pinned_bit_for_bit():
    # the rule is built in +, -, *, / on numpy arrays alone, so its bytes are
    # the same on every CPU, SIMD dispatch and numpy >= 1.24: the nodes, W
    # and [C^T W] hashed with their dtypes and shapes, and each node's rule
    x1, W, CW, rule = twisted._panel_rule()
    digest = hashlib.sha256()
    for a in (x1, W, CW):
        digest.update(repr((a.dtype.str, a.shape)).encode())
        digest.update(a.tobytes())
    assert digest.hexdigest() == "12f643a87ed8188c5b2727e7a4949738788cf3687e984ff6e79b27418c4138fb"
    assert rule.tolist() == [0] * 10 + [1] * 20


def test_panel_rule_lies_within_1e_14_of_numpys():
    # numpy's leggauss rule lies within 1e-14 of the in-house one entry by
    # entry, with the same sign bits (measured: 1.5e-15)
    got, ref = twisted._panel_rule(), _numpys_panel_rule()
    assert len(got) == len(ref)
    for a, b in zip(got[:3], ref[:3]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert np.abs(a - b).max() <= 1e-14
    assert np.array_equal(got[3], ref[3])


def test_panel_rule_is_exact_on_polynomials():
    # in exact rational arithmetic on the rule's doubles, the q-point W
    # column integrates x^m over [-1, 1] for m < 2q, and each row of C gives
    # int_{-1}^{x_j} x^m for m < q, both within 4 eps (measured: 1.6 and 1.8
    # eps; numpy's leggauss rule reads 15 and 12).  The nodes are taken as
    # (1 + x) - 1, which moves each by at most eps / 2; W is symmetric
    x1, W, CW, _ = twisted._panel_rule()
    eps = F(1, 2**52)
    for rule, (q, block) in enumerate([(10, slice(0, 10)), (20, slice(10, 30))]):
        x, w = [F(v) - 1 for v in x1[block]], [F(v) for v in W[block, rule]]
        assert W[block, rule].tobytes() == W[block, rule][::-1].tobytes()
        for m in range(2 * q):
            exact = F(1 + (-1) ** m, m + 1)
            assert abs(sum(wk * xk**m for wk, xk in zip(w, x)) - exact) <= 4 * eps
        for j, row in enumerate(CW[block, block].T):
            C = [F(v) for v in row]
            for m in range(q):
                exact = (x[j] ** (m + 1) - (-1) ** (m + 1)) / (m + 1)
                assert abs(sum(c * xk**m for c, xk in zip(C, x)) - exact) <= 4 * eps


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("several", [False, True])
def test_subnormal_log_a_merges_into_the_knot_at_zero(p, n, several):
    # a log a_k below the least normal double lies less than that above the
    # knot 0, so it merges into 0 (at 5e-324 their gap would halve to 0),
    # and e^{log a_k} is 1.0: each row gives, bit for bit, node count
    # included, what the row with log a_k replaced by 0 gives
    lam = ev(*[-1, F(-3, 2), -2][:p])
    for tiny in [5e-324, 1e-323, 2e-323, 1e-320, 1e-310, 2e-308]:
        rows = [[tiny] * n]
        if several:
            rows += [[1.5, tiny][:n], [tiny, 0.0][:n], [3.0] * n]
        got = twisted._log_estimate(rows, lam)
        zero = twisted._log_estimate([[0.0 if k == tiny else k for k in row] for row in rows],
                                     lam)
        assert [[float(x).hex() for x in out] for out in got] == \
            [[float(x).hex() for x in out] for out in zero]
        assert not any(map(math.isnan, got[0] + got[1]))


@pytest.mark.parametrize("knot", [sys.float_info.min, 3e-300])
def test_a_log_a_at_a_normal_double_stays_a_knot(knot):
    # a normal double stays a knot of its own: the grid grades toward it as
    # well as toward 0, on more nodes
    lam = ev(-2)
    got, zero = twisted._log_estimate([[knot]], lam), twisted._log_estimate([[0.0]], lam)
    assert got[2][0] > zero[2][0] and not any(map(math.isnan, got[0] + got[1]))


@pytest.mark.parametrize("x", [
    [1e300, 2e300, 3e300],  # each square past the double range
    [8.8e154, 1e155, 1.12e155],  # their sum past it: the slope would be 0.0
])
def test_slope_past_the_square_root_of_the_double_range(x):
    # scaled by 2^-e the deviations square inside the double range, and the
    # scaling is exact: the slope on x 2^-600, where e is 0, times 2^-600 is
    # the slope on x, bit for bit
    y = [1.0, 2.5, 3.0]
    slope = twisted._slope(x, y)
    assert slope == math.ldexp(twisted._slope([math.ldexp(u, -600) for u in x], y), -600)
    xm, ym = sum(map(F, x)) / 3, sum(map(F, y)) / 3
    exact = sum((F(u) - xm) * (F(v) - ym) for u, v in zip(x, y)) / sum(
        (F(u) - xm) ** 2 for u in x)
    assert abs(slope - exact) <= 4 * math.ulp(slope)


@pytest.mark.parametrize("direction,ts", [
    ([1e300], [1e7, 2e7, 3e7]),
    ([1.0], [1e300, 2e300, 3e300]),
    ([1.0], [1e16, 2e16, 3e16]),
])
def test_ray_past_the_grid_resolution_is_refused(direction, ts):
    # near s = t s neighbouring doubles lie further apart than the
    # narrowest panel, h0 = 1: the grid would lose its knots
    with pytest.raises(DomainError, match="not resolved"):
        fit_decay(RaySpec(direction, ts), ev(F(-1, 2)))


def test_ray_just_inside_the_grid_resolution():
    ray = RaySpec([1.0], [1e15, 2e15, 3e15])
    assert fit_decay(ray, ev(F(-1, 2))) == pytest.approx(-0.5, abs=1e-12)


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


def test_check_gr2_below_double_range():
    # L at t = 200 is about e^-800, below the double range, but the ratio
    # L / e^{(1 - delta) (mu . s) t} is not: the bound holds on this ray
    rays = [RaySpec([1.0, 1.0], [1.0, 100.0, 200.0])]
    report = check_gr2(ev(-1, -2), 2, 2, rays, delta=0.05)
    assert report.ok
    assert all(math.isfinite(r) and r > 0.0 for r in report.rays[0].ratios)
    assert report.rays[0].trend_slope == pytest.approx(-1.12, abs=0.01)


def test_check_gr2_ratio_below_double_range_raises():
    # lambda = (-1, -1), n = 2 on the diagonal decays like e^{-4t} against
    # the bound's e^{-2t}: at t = 400 the ratio is about e^-840, and a
    # ratio of 0.0 would carry no verdict
    rays = [RaySpec([1.0, 1.0], [1.0, 200.0, 400.0])]
    with pytest.raises(OverflowError, match="double range"):
        check_gr2(ev(-1, -1), 2, 2, rays, delta=0.05)


def test_check_gr2_ratios_are_exp_of_the_fitted_log_ratios():
    ray = RaySpec([1.0, 0.0], np.linspace(1.0, 6.0, 11))
    check = check_gr2(ev(-1, -2), 2, 2, [ray], delta=0.05).rays[0]
    logs = [math.log(r) for r in check.ratios]
    assert check.trend_slope == pytest.approx(
        np.polyfit(ray.t_values[-5:], logs[-5:], 1)[0], rel=1e-9
    )
    assert check.max_ratio == max(check.ratios)


def test_check_gr2_rate_is_summed_left_to_right():
    # rate = mu . s is summed left to right, as every float sum here: on
    # this ray Python 3.12's compensated `sum` (and math.fsum) give
    # -0x1.5cccccccccccdp+1, one ulp off, and every ratio would move
    lam, direction = ev(F(-5, 2)), (1.23, 1.11, 0.77)
    ray = RaySpec(direction, np.linspace(1.0, 4.0, 7))
    report = check_gr2(lam, 1, 3, [ray], delta=0.05)
    rate = 0.0
    for m, s in zip(report.mu_bound.floats(), direction):
        rate += m * s
    assert rate.hex() == "-0x1.5ccccccccccccp+1"
    ts, logs = twisted._ray_logs(ray, lam)
    c = (1.0 - 0.05) * rate
    ratios = tuple(math.exp(x - c * t) for x, t in zip(logs, ts))
    assert report.rays[0].ratios == ratios


def test_check_gr2_rejects_bad_delta():
    rays = [RaySpec([1.0], [1.0, 2.0, 3.0])]
    with pytest.raises(DomainError):
        check_gr2(ev(-1), 1, 1, rays, delta=0.0)


def test_check_gr2_needs_a_ray():
    # with no ray there is no check, so no verdict
    with pytest.raises(DomainError, match="at least one ray"):
        check_gr2(ev(-1), 1, 1, [])


def test_check_gr2_sizes_are_exact_integers():
    rays = [RaySpec([1.0], [1.0, 2.0, 3.0])]
    for size in (True, False, 1.5, 2.0, F(3, 2)):
        with pytest.raises(DomainError, match="^size must be an integer, got "):
            check_gr2(ev(-1), 1, size, rays)
        with pytest.raises(DomainError, match="^size must be an integer, got "):
            check_gr2(ev(-1), size, 1, rays)
    assert check_gr2(ev(-1), F(1), F(1), rays) == check_gr2(ev(-1), 1, 1, rays)


@pytest.mark.parametrize("ts", [[], [2.0], [1.0, 2.0]])
def test_check_gr2_needs_three_t_values(ts):
    # a trend fitted to fewer than three points says nothing
    with pytest.raises(DomainError, match="at least 3 t_values"):
        check_gr2(ev(-1), 1, 1, [RaySpec([1.0], ts)])
