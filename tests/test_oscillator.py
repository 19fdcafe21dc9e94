import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantind import (
    DomainError,
    dual_pair_bound,
    gaussian_moment,
    h_kernel,
    oscillator_bound,
    oscillator_coefficient,
    oscillator_coefficient_quadrature,
)
from quantind.oscillator import _hermite_rule


def test_gaussian_moments():
    root = math.sqrt(2 * math.pi)
    assert gaussian_moment(0) == pytest.approx(root)
    assert gaussian_moment(1) == 0.0
    assert gaussian_moment(2) == pytest.approx(root)
    assert gaussian_moment(4) == pytest.approx(3 * root)
    assert gaussian_moment(6) == pytest.approx(15 * root)
    # the last even order whose moment is a double
    assert gaussian_moment(300) == pytest.approx(9.408063010506738e306, rel=1e-15)


def test_identity_reproduces_gaussian_norm():
    for n in (1, 2, 3):
        val = oscillator_coefficient([1.0] * n, [0] * n, [0] * n)
        assert val == pytest.approx(math.pi ** (n / 2), rel=1e-12)


def test_example_single_coordinate():
    # alpha=0, beta=2, a=2: sqrt(2*pi) * 2^{1/2} * 5^{-3/2}
    val = oscillator_coefficient([2.0], [0], [2])
    expected = math.sqrt(2 * math.pi) * math.sqrt(2.0) * 5.0 ** -1.5
    assert val == pytest.approx(expected, rel=1e-12)


def test_odd_parity_vanishes():
    assert oscillator_coefficient([3.0], [0], [1]) == 0.0
    assert oscillator_coefficient([1.0, 2.0], [2, 1], [1, 2]) == 0.0


@pytest.mark.parametrize("call", [
    lambda: oscillator_coefficient([2.0], [2.9], [0]),  # was the value at alpha = 2
    lambda: oscillator_coefficient([2.0], [1.5], [0.5]),  # was 0.0
    lambda: oscillator_coefficient([2.0], [True], [0]),
    lambda: oscillator_coefficient_quadrature([2.0], [2.9], [0]),
    lambda: oscillator_coefficient_quadrature([2.0], [0], [2.0]),
    lambda: gaussian_moment(2.0),  # was a TypeError
    lambda: gaussian_moment(True),  # was 0.0
])
def test_non_integer_indices_are_refused(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_torus_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        oscillator_coefficient([1.0, bad], [0, 0], [0, 0])
    with pytest.raises(DomainError, match="finite"):
        h_kernel([bad], [1.0])


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.floats(min_value=1.0, max_value=20.0),
)
def test_quadrature_agreement_1d(alpha, beta, a):
    closed = oscillator_coefficient([a], [alpha], [beta])
    quad = oscillator_coefficient_quadrature([a], [alpha], [beta])
    if (alpha + beta) % 2 == 1:
        assert closed == 0.0
        assert abs(quad) < 1e-12
    else:
        assert closed == pytest.approx(quad, rel=1e-8)


def test_quadrature_agreement_high_order():
    # alpha_i + beta_i up to 8
    closed = oscillator_coefficient([3.0, 7.0], [4, 2], [4, 6])
    quad = oscillator_coefficient_quadrature([3.0, 7.0], [4, 2], [4, 6])
    assert closed == pytest.approx(quad, rel=1e-8)


PINNED = [
    ([0.5, 2.0], [0, 1], [0, 1], "0x1.015bf92172718p+0"),  # orders 1, 2
    ([3.0, 1.5], [2, 3], [2, 3], "0x1.dca494bb472c6p-1"),  # orders 3, 4
    ([7.0, 0.2], [4, 5], [4, 5], "0x1.52b1e6351f657p-7"),  # orders 5, 6
]


@pytest.mark.parametrize("a,alpha,beta,pinned", PINNED)
def test_quadrature_matches_its_pinned_values(a, alpha, beta, pinned):
    # the values of the plain-Python Gauss-Hermite rule; libm's pow may
    # round 1 ulp apart per platform
    pinned = float.fromhex(pinned)
    got = oscillator_coefficient_quadrature(a, alpha, beta)
    assert abs(got - pinned) <= 4 * math.ulp(pinned)
    assert oscillator_coefficient_quadrature(a, alpha, beta) == got


# pi to 64 digits, for a reference that shares no code with quantind
PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def closed_form_60_digits(a, alpha, beta):
    """prod (m-1)!! sqrt(2 pi) a^{alpha + 1/2} (1 + a^2)^{-(m+1)/2}, m = alpha + beta,
    in 60-digit decimal arithmetic on the exact binary value of each a."""
    with localcontext() as ctx:
        ctx.prec = 60
        out = Decimal(1)
        for ai, al, be in zip(a, alpha, beta):
            x, m = Decimal(ai), al + be
            out *= (math.prod(range(m - 1, 0, -2)) * (2 * PI).sqrt() * x**al * x.sqrt()
                    / (1 + x * x).sqrt() ** (m + 1))
        return out


@pytest.mark.parametrize("a,alpha,beta,pinned", PINNED)
def test_pinned_values_lie_near_a_60_digit_closed_form(a, alpha, beta, pinned):
    # numpy's rule put the three pins 1.8, 21.8 and 13.2 ulps from it; the
    # plain-Python rule puts them 1.8, 12.8 and 7.2 ulps from it
    pinned = float.fromhex(pinned)
    ref = closed_form_60_digits(a, alpha, beta)
    assert abs(Decimal(pinned) - ref) <= 24 * Decimal(math.ulp(pinned))


@pytest.mark.parametrize("alpha,beta", [(0, 310), (1, 309)])
def test_closed_form_takes_the_log_of_the_exact_double_factorial(alpha, beta):
    # 309!! lies past the double range and the value (about 1.67e8 and
    # 1.67e9) does not: floating the moment first raised OverflowError.
    # The log terms, about 735 and 718, cancel to about 19, so the log-space
    # sum is good to a few eps times their size S, not to a few ulps: one
    # rounding of hypot(1, 10), raised to the 311th power, alone moves the
    # value by up to 155 ulps (both land near 0.4 eps S)
    got = oscillator_coefficient([10.0], [alpha], [beta])
    ref = closed_form_60_digits([10.0], [alpha], [beta])
    m = alpha + beta
    size = (math.log(math.prod(range(m - 1, 0, -2))) + (alpha + 0.5) * math.log(10.0)
            + (m + 1) * math.log(math.hypot(1.0, 10.0)))
    assert abs(Decimal(got) - ref) <= Decimal(2 * sys.float_info.epsilon * size) * ref
    assert got == pytest.approx(
        oscillator_coefficient_quadrature([10.0], [alpha], [beta]), rel=1e-8
    )


@pytest.mark.parametrize("order", range(1, 65))
def test_hermite_rule_matches_hermegauss(order):
    # numpy's rule stays the reference here; the library no longer loads it
    from numpy.polynomial.hermite_e import hermegauss

    u, w = _hermite_rule(order)
    ref_u, ref_w = hermegauss(order)
    eps = sys.float_info.epsilon
    assert len(u) == len(w) == order
    for x, ref in zip(u, ref_u):
        assert abs(x - ref) <= 4 * math.ulp(max(1.0, abs(ref)))
    for x, ref in zip(w, ref_w):
        assert abs(x - ref) <= 16 * order * eps * ref
    # exact for every even moment of degree up to 2 order - 1
    for j in range(order):
        exact = math.prod(range(2 * j - 1, 0, -2)) * math.sqrt(2 * math.pi)
        got = math.fsum(wk * x ** (2 * j) for x, wk in zip(u, w))
        assert abs(got - exact) <= 4 * (2 * j + 1) * eps * exact


@pytest.mark.parametrize("alpha", [400, 710])
def test_hermite_weights_past_the_double_range_overflow(alpha):
    # from order 371 on the weights span more than the double range, and
    # these orders are refused before the rule is built: an OverflowError,
    # not a ZeroDivisionError
    with pytest.raises(OverflowError):
        _hermite_rule(alpha + 1)
    with pytest.raises(OverflowError):
        oscillator_coefficient_quadrature([2.0], [alpha], [alpha])


def test_hermite_weights_whose_inverses_overflow():
    # order 381: some 1 / w overflow to inf, so their sum is inf, and the
    # rescaled weights would be 0 or nan and the coefficient nan
    with pytest.raises(OverflowError, match="order 381 exceed the double range"):
        oscillator_coefficient_quadrature([17.0], [0], [760])


def test_huge_torus_entry_does_not_overflow():
    # a^2 overflows a double here; the values are far inside its range
    a = 1e200
    assert oscillator_coefficient([a], [0], [0]) == pytest.approx(
        math.sqrt(2 * math.pi) / math.sqrt(a), rel=1e-14
    )
    assert oscillator_coefficient_quadrature([a], [0], [0]) == pytest.approx(
        math.sqrt(2 * math.pi) / math.sqrt(a), rel=1e-14
    )
    assert h_kernel([1.0], [a]) == pytest.approx(1 / a, rel=1e-14)
    assert h_kernel([a], [1 / a]) == pytest.approx(
        1 / (a * math.sqrt(2)), rel=1e-14
    )


def test_oscillator_bound_values():
    assert oscillator_bound([1.0, 1.0]) == pytest.approx(0.5)
    assert oscillator_bound([3.0]) == pytest.approx((10.0 / 3.0) ** -0.5)


def test_coefficient_bounded_by_torus_bound():
    # ratio coefficient / bound stays bounded on a log grid, per (alpha, beta)
    for alpha, beta in [(0, 0), (2, 0), (2, 2), (4, 4)]:
        ratios = [
            abs(oscillator_coefficient([a], [alpha], [beta]))
            / oscillator_bound([a])
            for a in np.exp(np.linspace(0.0, 6.0, 13))
        ]
        assert max(ratios) < 1e3


def test_sign_pattern_symmetry():
    for alpha, beta in [(0, 2), (2, 4), (1, 2), (3, 3)]:
        x = oscillator_coefficient([2.5], [alpha], [beta])
        y = oscillator_coefficient([2.5], [beta], [alpha])
        if x == 0.0:
            assert y == 0.0
        else:
            assert x * y > 0.0


def test_h_kernel_values():
    assert h_kernel([1.0], [1.0]) == pytest.approx(0.5)
    a, b = (2.0, 1.0), (3.0,)
    expected = 1.0
    for bi in b:
        for aj in a:
            expected *= (bi**2 + bi**-2 + aj**2 + aj**-2) ** -0.5
    assert h_kernel(a, b) == pytest.approx(expected, rel=1e-14)


@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_factorization_identity(a, b):
    lhs = (b * a + 1.0 / (b * a)) * (a / b + b / a)
    rhs = b**2 + b**-2 + a**2 + a**-2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dual_pair_bound():
    # q = p: no extra factor
    assert dual_pair_bound([2.0], [3.0], 1, 1) == pytest.approx(
        h_kernel([2.0], [3.0])
    )
    # p=n=1, q=3: H(1,1) * (1+1)^{-1} = 1/2 * 1/2
    assert dual_pair_bound([1.0], [1.0], 1, 3) == pytest.approx(0.25)


def test_dual_pair_bound_monotone_in_a():
    grid = np.linspace(1.0, 8.0, 15)
    vals = [dual_pair_bound([a], [2.0], 1, 3) for a in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("call", [
    lambda: oscillator_coefficient([1e308], [1], [1]),
    lambda: oscillator_coefficient_quadrature([1e308], [1], [1]),
    lambda: oscillator_coefficient([1e-200, 1e-200], [2, 2], [0, 0]),
    lambda: oscillator_coefficient_quadrature([1e-200, 1e-200], [2, 2], [0, 0]),
    lambda: oscillator_bound([1e300] * 5),
    lambda: oscillator_bound([1e300, 1e300, 1e16]),  # 1e-308: subnormal, not 0
    lambda: oscillator_bound([1e-310]),  # 1 / a is inf
    lambda: h_kernel([1e200] * 2, [1e200] * 2),
    lambda: dual_pair_bound([1e300], [1e300], 1, 3),
    lambda: dual_pair_bound([1e150], [1.0], 1, 9),  # H is normal, the extra factor not
])
def test_values_below_the_normal_double_range_raise(call):
    # never a silent 0.0 or a subnormal with lost digits
    with pytest.raises(OverflowError, match="below the normal double range"):
        call()


@pytest.mark.parametrize("call", [
    # the value is about 1e373.7
    lambda: oscillator_coefficient_quadrature([1.0], [200], [200]),
    lambda: oscillator_coefficient([1.0], [200], [200]),
    lambda: gaussian_moment(400),
    lambda: gaussian_moment(302),  # 301!! is 2.8e308
    # two normal factors whose product is not
    lambda: oscillator_coefficient([1.0, 1.0], [150, 150], [150, 150]),
    lambda: oscillator_coefficient_quadrature([1.0, 1.0], [150, 150], [150, 150]),
    # a term past the double range, though the closed form gives 9.408e156
    # at the first and 0 at the odd orders (inf - inf in fsum, inf * 0)
    lambda: oscillator_coefficient_quadrature([1e300], [300], [0]),
    lambda: oscillator_coefficient_quadrature([1.0], [200], [201]),
    lambda: oscillator_coefficient_quadrature([1.0, 1.0], [200, 0], [200, 1]),
])
def test_values_above_the_double_range_are_refused_by_name(call):
    # never inf or nan, nor a library's own overflow text
    with pytest.raises(OverflowError, match="above the double range$"):
        call()


def test_small_normal_values_and_odd_moments_still_return():
    assert oscillator_bound([1e300, 1e300, 1e15]) == pytest.approx(1e-307, rel=1e-12)
    assert h_kernel([1e300], [1.0]) == pytest.approx(1e-300, rel=1e-12)
    # an odd alpha_i + beta_i makes the value exactly 0, however small the rest
    assert oscillator_coefficient([1e308, 2.0], [1, 0], [1, 1]) == 0.0
    assert oscillator_coefficient_quadrature([1e308, 2.0], [1, 0], [1, 1]) == 0.0
    assert oscillator_coefficient_quadrature([3.0], [0], [1]) == 0.0


def test_quadrature_keeps_a_normal_value_whose_factor_is_not():
    # the first coordinate's factor is about 1e-350, below the double range,
    # and its product with the second is normal: carried as mantissas and
    # powers of two, it lands 25 ulps from the 60-digit closed form (the
    # log-space closed form, 604); it used to raise OverflowError
    a, alpha, beta = [1e-140, 1.0], [2, 150], [0, 0]
    pinned = float.fromhex("0x1.e97d672af5ce0p-802")  # 7.168812272230881e-242
    got = oscillator_coefficient_quadrature(a, alpha, beta)
    assert abs(got - pinned) <= 4 * math.ulp(pinned)
    ref = closed_form_60_digits(a, alpha, beta)
    assert abs(Decimal(got) - ref) <= 32 * Decimal(math.ulp(pinned))
    assert got == pytest.approx(oscillator_coefficient(a, alpha, beta), rel=1e-12)
    # the other way: two factors of 9.3e156 whose product passes the double
    # range raise, as the closed form does, where the product used to be inf
    for f in (oscillator_coefficient, oscillator_coefficient_quadrature):
        with pytest.raises(OverflowError):
            f([1.0, 1.0], [0, 0], [200, 200])
