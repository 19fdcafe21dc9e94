from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quantind import (
    DomainError,
    ExponentVector,
    Orthogonal,
    Symplectic,
    bound_O_to_Sp,
    bound_Sp_to_O,
    constant_vector,
    lpn,
    lpn_oracle,
    odd_case_bound,
    rho,
    ss_bound_O_to_Sp,
    ss_bound_Sp_to_O,
    strictly_dominated,
    weakly_dominated,
)


def ev(*entries):
    return ExponentVector(entries)


def boundary_O(p, q, n):
    # exponent at which the positivity-region inequality holds with equality
    return constant_vector(F(2 * n - p - q, 2), p) - rho(Orthogonal(p, q))


def boundary_Sp(n, p, q):
    return constant_vector(F(p + q, 2) - n - 1, n) - rho(Symplectic(n))


def perturb(lam, delta):
    return ExponentVector(
        [lam[0] - delta] + [lam[i] for i in range(1, len(lam))]
    )


def test_bound_O_to_Sp_staircase_shift():
    # boundary exponent minus delta*e1 feeds the staircase (-1-d, -2, ..., -p)
    p, q, n = 2, 3, 3
    lam = perturb(boundary_O(p, q, n), F(1, 10))
    shifted = lam + rho(Orthogonal(p, q)) + rho(Orthogonal(p, q)) - constant_vector(n, p)
    assert shifted == ev(F(-11, 10), -2)
    out = bound_O_to_Sp(p, q, n, lam)
    assert len(out) == n
    assert weakly_dominated(out + constant_vector(F(q - p, 2), n))


def test_bound_O_to_Sp_no_shift_when_split_sizes_equal():
    # q = p means no final constant shift
    out = bound_O_to_Sp(2, 2, 4, ev(-4, -4))
    r = rho(Orthogonal(2, 2))
    oracle = lpn_oracle(ev(-4, -4) + r + r - constant_vector(4, 2), 2, 4)
    assert out == oracle


def test_bound_O_to_Sp_against_oracle():
    p, q, n = 1, 1, 2
    lam = ev(F(-5, 2))
    shifted = lam + rho(Orthogonal(p, q)) + rho(Orthogonal(p, q)) - constant_vector(n, p)
    assert bound_O_to_Sp(p, q, n, lam) == lpn_oracle(shifted, p, n)


def test_bound_Sp_to_O_against_oracle():
    out = bound_Sp_to_O(1, 2, 2, ev(-2))
    assert out == lpn_oracle(ev(-2), 1, 2)


def test_bound_preconditions():
    with pytest.raises(DomainError, match="semistable"):
        bound_O_to_Sp(2, 3, 1, ev(0, 0))
    with pytest.raises(DomainError, match="semistable"):
        bound_Sp_to_O(2, 2, 2, ev(0, 0))
    with pytest.raises(DomainError):
        bound_Sp_to_O(1, 0, 3, ev(-5))  # degenerate p=0 rejected


def test_bound_output_dominated():
    out = bound_Sp_to_O(2, 3, 3, ev(-5, -4))
    assert weakly_dominated(out)


def test_ss_bound_O_to_Sp_values():
    assert ss_bound_O_to_Sp(2, 3, 3) == ev(F(-5, 2), F(-3, 2), F(-1, 2))
    assert ss_bound_O_to_Sp(2, 2, 1) == ev(-2)
    assert ss_bound_O_to_Sp(1, 3, 3) == ev(-2, -1, -1)


def test_ss_bound_Sp_to_O_values():
    assert ss_bound_Sp_to_O(2, 3, 3) == ev(-2, -1, 0)
    assert ss_bound_Sp_to_O(3, 2, 2) == ev(-3, -2)


def test_odd_case_bound_values():
    assert odd_case_bound(1, 2, 2) == ev(-1, F(-1, 2))
    assert odd_case_bound(2, 3, 3) == ev(-2, -1, F(-1, 2))
    with pytest.raises(DomainError):
        odd_case_bound(2, 2, 3)  # p+q even
    with pytest.raises(DomainError):
        odd_case_bound(3, 4, 2)  # p+q > 2n+1


def _assert_delta_pattern(got, want, delta):
    # the perturbation shows up as exactly delta in the second coordinate
    # (or is absorbed entirely); every other coordinate agrees exactly
    diff = [w - g for w, g in zip(want, got)]
    nonzero = [(i, x) for i, x in enumerate(diff) if x != 0]
    assert nonzero in ([], [(1, delta)])


@pytest.mark.parametrize("delta", [F(1, 10), F(1, 100), F(1, 1000)])
def test_ss_specialization_O_to_Sp(delta):
    for p in range(1, 5):
        for q in range(p, 6):
            for n in range(1, 6):
                lam = perturb(boundary_O(p, q, n), delta)
                got = bound_O_to_Sp(p, q, n, lam)
                _assert_delta_pattern(got, ss_bound_O_to_Sp(p, q, n), delta)


@pytest.mark.parametrize("delta", [F(1, 10), F(1, 100), F(1, 1000)])
def test_ss_specialization_Sp_to_O(delta):
    for n in range(1, 5):
        for p in range(1, 6):
            for q in range(p, 6):
                lam = perturb(boundary_Sp(n, p, q), delta)
                got = bound_Sp_to_O(n, p, q, lam)
                _assert_delta_pattern(got, ss_bound_Sp_to_O(n, p, q), delta)


def test_ss_delta_dependence_is_linear():
    d1, d2 = F(1, 10), F(1, 20)
    for p, q, n in [(3, 4, 5), (2, 3, 3), (4, 4, 2)]:
        b1 = bound_O_to_Sp(p, q, n, perturb(boundary_O(p, q, n), d1))
        b2 = bound_O_to_Sp(p, q, n, perturb(boundary_O(p, q, n), d2))
        want = ss_bound_O_to_Sp(p, q, n)
        # extrapolating to delta = 0 recovers the closed form everywhere
        assert ExponentVector([2 * y - x for x, y in zip(b1, b2)]) == want


# ---------------------------------------------------------------------------
# the bounds against the Fraction composition they replace


def composed_O_to_Sp(p, q, n, lam):
    """L(p,n)(lam + 2 rho(O(p,q)) - n*1) - ((q-p)/2)*1, all in Fractions."""
    shifted = ExponentVector(x - n + 2 * r for x, r in zip(lam, rho(Orthogonal(p, q))))
    assert strictly_dominated(shifted)
    return lpn(shifted, p, n).output.shift(F(p - q, 2))


def composed_Sp_to_O(n, p, q, lam):
    """L(n,p)(lam + 2 rho(Sp(2n)) - ((p+q)/2)*1), all in Fractions."""
    shifted = ExponentVector(x - F(p + q, 2) + 2 * r for x, r in zip(lam, rho(Symplectic(n))))
    assert strictly_dominated(shifted)
    return lpn(shifted, n, p).output


def assert_bounds_match_composition(p, q, n, caps):
    # caps are the running caps -sum(shifted[:j]) of the shifted vector, so
    # every drawn lambda lies in the range; lambda = shifted + c*1 - 2 rho
    sums = [-c for c in caps]
    shifted = [b - a for a, b in zip([0] + sums, sums)]
    if len(caps) == p:
        g, c, got = Orthogonal(p, q), n, bound_O_to_Sp
        want, args = composed_O_to_Sp, (p, q, n)
    else:
        g, c, got = Symplectic(n), F(p + q, 2), bound_Sp_to_O
        want, args = composed_Sp_to_O, (n, p, q)
    lam = ExponentVector(x + c - 2 * r for x, r in zip(shifted, rho(g)))
    out = got(*args, lam)
    assert out == want(*args, lam)
    assert len(out) == (n if len(caps) == p else p)
    assert all(type(x) is F for x in out.entries)


cap = st.integers(1, 10**6).flatmap(lambda d: st.integers(1, 30 * d).map(lambda k: F(k, d)))


@given(
    st.integers(1, 12).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(p, 12), st.integers(1, 12), st.booleans()
    )).flatmap(lambda t: st.tuples(
        st.just(t[:3]), st.lists(cap, min_size=t[2] if t[3] else t[0],
                                 max_size=t[2] if t[3] else t[0])
    ))
)
@settings(max_examples=200, deadline=None)
def test_bounds_match_the_fraction_composition(case):
    (p, q, n), caps = case
    assert_bounds_match_composition(p, q, n, caps)


def test_bounds_pinned_denominator_2_64_plus_1():
    eps = F(1, 2**64 + 1)
    caps = [F(1, 3) - eps, F(1, 3), F(7, 2)]
    assert_bounds_match_composition(3, 4, 2, caps)  # O(3,4) -> Sp(4)
    assert_bounds_match_composition(1, 6, 3, caps)  # Sp(6) -> O(1,6)
    # D = 6 (2**64 + 1); breakpoints 1, 2, 3, and the eps of blocks 1 and 2
    # cancel in the first row sum, 4/3
    lam = ExponentVector([eps - F(10, 3), -1 - eps, F(-13, 6)])
    assert bound_O_to_Sp(3, 4, 2, lam) == ExponentVector([F(-11, 6), F(-3, 2)])
    lam = ExponentVector([eps - F(17, 6), F(-1, 2) - eps, F(-5, 3)])
    assert bound_Sp_to_O(3, 1, 6, lam) == ExponentVector([F(-4, 3)])



def test_bound_O_to_Sp_odd_denominator_with_the_half_shift():
    # D = 3 and q - p odd: the output needs the denominator lcm(D, 2) = 6
    assert bound_O_to_Sp(1, 2, 1, ev(F(-2, 3))) == ev(F(-7, 6))  # ar2
    assert bound_O_to_Sp(1, 2, 1, ev(F(-7, 3))) == ev(F(-3, 2))  # ar3
    assert bound_O_to_Sp(2, 5, 2, ev(F(-13, 3), -4)) == ev(F(-7, 2), F(-17, 6))


# (args, error text), in the order the errors are reported: each row also
# has every later fault it can carry
O_TO_SP_ERRORS = [
    ((0, 3, True, [F(1, 2)]), "need p >= 1"),
    ((2, 3, True, [F(1, 2)]), "lambda must have length p=2"),
    ((2, 3, True, [-9, 0.5]), "exact rational required, got True"),
    ((2, 3, F(3, 2), [-9, 0.5]), "exact rational required, got 0.0"),
    ((2, 3, F(3, 2), [F(-5, 2), F(3, 2)]), "not in semistable range for this transfer"),
    ((2, 3, F(3, 2), [-9, -9]), "size must be an integer, got Fraction(3, 2)"),
    ((2, 3, 0, [-9, -9]), "n must be >= 1"),
    ((2, 3, 3, [-1, 3]), "not in semistable range for this transfer"),
]
SP_TO_O_ERRORS = [
    ((True, 0, 3, [0.5]), "size must be an integer, got True"),
    ((F(3, 2), 0, 3, [0.5]), "size must be an integer, got Fraction(3, 2)"),
    ((0, 0, 3, [0.5]), "Sp(2n) requires n >= 1"),
    ((2, 0, 3, [0.5]), "need p >= 1"),
    ((2, 3, 4, [0.5]), "lambda must have length n=2"),
    ((2, 3, 4, [-9, 0.5]), "exact rational required, got -1.0"),
    ((2, 3, 4, [-1, 2]), "not in semistable range for this transfer"),
]


@pytest.mark.parametrize("fn,args,text", [
    *[(bound_O_to_Sp, args, text) for args, text in O_TO_SP_ERRORS],
    *[(bound_Sp_to_O, args, text) for args, text in SP_TO_O_ERRORS],
])
def test_bound_errors_in_order(fn, args, text):
    *sizes, entries = args
    # a float entry cannot be an ExponentVector's: it comes in as a list
    lam = entries if any(type(x) is float for x in entries) else ExponentVector(entries)
    with pytest.raises(DomainError) as err:
        fn(*sizes, lam)
    assert str(err.value) == text


@pytest.mark.parametrize("fn,p,q", [(ss_bound_O_to_Sp, 2, 3), (odd_case_bound, 1, 2)])
@pytest.mark.parametrize("n", [1.5, 2.0, F(3, 2), True])
def test_closed_form_bounds_check_their_size(fn, p, q, n):
    # 1.5, 2.0 and 3/2 used to raise TypeError, and True to run as n = 1
    with pytest.raises(DomainError, match=r"^size must be an integer, got "):
        fn(p, q, n)
    # after the group's own checks, before p >= 1 and the parity checks
    with pytest.raises(DomainError, match=r"^O\(p,q\) requires p <= q"):
        fn(q + 1, q, n)
    with pytest.raises(DomainError, match=r"^size must be an integer, got "):
        fn(0, 4, n)
    assert fn(p, q, F(3)) == fn(p, q, 3)


def test_closed_form_bounds_match_their_docstrings():
    for p in range(1, 13):
        for q in range(p, 13):
            for n in range(1, 13):
                head = [F(-(p + q) + 2 * k, 2) for k in range(min(p, n))]
                assert ss_bound_O_to_Sp(p, q, n) == ExponentVector(
                    head + [F(p - q, 2)] * (n - p))
                sp = [-n + k for k in range(p)] if p <= n else list(range(-n, 0)) + [0] * (p - n)
                assert ss_bound_Sp_to_O(n, p, q) == ExponentVector(sp)
                if (p + q) % 2 and p + q <= 2 * n + 1:
                    odd = [F(-(p + q - 1) + 2 * k, 2) for k in range(p)]
                    assert odd_case_bound(p, q, n) == ExponentVector(
                        odd + [F(p - q, 2)] * (n - p))
    # an integral Fraction n, as Sp(2n) accepts it (p > n used to raise TypeError)
    assert ss_bound_Sp_to_O(F(2), 3, 3) == ss_bound_Sp_to_O(2, 3, 3)
