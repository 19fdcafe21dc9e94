import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quantind import (
    DomainError,
    ExponentVector,
    breakpoints,
    check_assignment,
    greedy_eta,
    lpn,
    lpn_oracle,
)


def ev(*entries):
    return ExponentVector(entries)


# ---------------------------------------------------------------------------
# breakpoints


def test_breakpoints_simple():
    bp = breakpoints(ev(-1, -2))
    assert bp.indices == (1, 2)
    assert bp.budgets == (F(1), F(3))


def test_breakpoints_greatest_minimizer():
    # -prefix sums are (3, 2, 3); min 2 occurs last at j=2
    bp = breakpoints(ev(-3, 1, -1))
    assert bp.indices == (2, 3)
    assert bp.budgets == (F(2), F(3))


@pytest.mark.parametrize("p", range(1, 7))
def test_breakpoints_half_integer_staircase(p):
    lam = ev(*[-F(2 * i - 1, 2) for i in range(1, p + 1)])
    bp = breakpoints(lam)
    assert bp.indices == tuple(range(1, p + 1))
    assert bp.budgets == tuple(F(j * j, 2) for j in range(1, p + 1))


# lambda through its prefix sums: any negative ones will do, and drawing
# them from a few values makes ties between the running caps common
prefix_strategy = st.lists(
    st.sampled_from([F(-k, 2) for k in range(1, 9)]), min_size=1, max_size=40
)


@given(prefix_strategy)
@settings(max_examples=300)
def test_breakpoints_match_greatest_minimizer_recursion(sums):
    lam = ExponentVector(b - a for a, b in zip([0] + sums, sums))
    caps = [-s for s in sums]
    indices, lo = [], 0
    while lo < len(caps):
        best = min(caps[lo:])
        lo = max(j for j in range(lo, len(caps)) if caps[j] == best) + 1
        indices.append(lo)
    bp = breakpoints(lam)
    assert bp.indices == tuple(indices)
    assert bp.budgets == tuple(caps[j - 1] for j in indices)


def test_breakpoints_reject_non_dominated():
    with pytest.raises(DomainError):
        breakpoints(ev(1, -3))


# ---------------------------------------------------------------------------
# greedy assignment


def test_greedy_single_cell_saturated():
    w = greedy_eta(ev(-2), 1, 1)
    assert w.eta == ((F(1),),)
    assert w.cases == ("ar3",)


def test_greedy_single_column_split():
    w = greedy_eta(ev(F(-1, 2)), 1, 2)
    assert w.eta == ((F(1, 2),), (F(0),))
    assert w.cases == ("ar2",)


def test_greedy_staircase_row_sums():
    for p, n in [(2, 3), (3, 3), (3, 5)]:
        w = greedy_eta(ev(*range(-1, -p - 1, -1)), p, n)
        expected = [p - k if k < p else 0 for k in range(n)]
        assert list(w.mu) == expected


# ---------------------------------------------------------------------------
# golden closed forms (exact, no tolerance)


@pytest.mark.parametrize(
    "p,n", [(p, n) for n in range(1, 7) for p in range(1, n + 1)]
)
def test_golden_half_integer_staircase(p, n):
    lam = ev(*[-F(2 * i - 1, 2) for i in range(1, p + 1)])
    expected = [-F(2 * (p - k) - 1, 2) for k in range(p)] + [F(0)] * (n - p)
    assert lpn(lam, p, n).output == ExponentVector(expected)


@pytest.mark.parametrize(
    "p,n", [(p, n) for n in range(1, 7) for p in range(1, n + 1)]
)
def test_golden_integer_staircase(p, n):
    lam = ev(*range(-1, -p - 1, -1))
    expected = list(range(-p, 0)) + [0] * (n - p)
    assert lpn(lam, p, n).output == ExponentVector(expected)


@pytest.mark.parametrize(
    "p,n", [(p, n) for n in range(1, 7) for p in range(1, n + 1)]
)
def test_golden_half_integer_staircase_reversed(p, n):
    # input of length n, output of length p <= n
    lam = ev(*[-F(2 * i - 1, 2) for i in range(1, n + 1)])
    expected = [-F(2 * n - 1, 2) + k for k in range(p)]
    assert lpn(lam, n, p).output == ExponentVector(expected)


@pytest.mark.parametrize(
    "p,n", [(p, n) for n in range(1, 7) for p in range(1, n + 1)]
)
def test_golden_integer_staircase_reversed(p, n):
    lam = ev(*range(-1, -n - 1, -1))
    expected = [-n + k for k in range(p)]
    assert lpn(lam, n, p).output == ExponentVector(expected)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_examples():
    assert lpn_oracle(ev(-1, -2), 2, 2) == ev(-2, -1)
    assert lpn_oracle(ev(F(-1, 2)), 1, 1) == ev(F(-1, 2))
    assert lpn_oracle(ev(-3), 1, 2) == ev(-1, -1)


grid = [F(k, 2) for k in range(-5, 6) if k != 0]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (1, 4)])
def test_oracle_matches_greedy_spot(p, n):
    count = 0
    for entries in itertools.product(grid, repeat=p):
        lam = ExponentVector(entries)
        from quantind.vectors import strictly_dominated

        if not strictly_dominated(lam):
            continue
        count += 1
        assert lpn_oracle(lam, p, n) == lpn(lam, p, n).output, entries
    assert count > 0


# ---------------------------------------------------------------------------
# invariants


lam_strategy = st.lists(
    st.fractions(min_value=-4, max_value=3, max_denominator=4),
    min_size=1,
    max_size=5,
).filter(
    lambda xs: all(sum(xs[: j + 1]) < 0 for j in range(len(xs)))
).map(ExponentVector)


@given(lam_strategy, st.integers(1, 5))
@settings(max_examples=200)
def test_output_monotone_and_bounded(lam, n):
    p = len(lam)
    result = lpn(lam, p, n)
    mu = list(result.mu)
    assert len(mu) == n
    assert all(mu[k] >= mu[k + 1] for k in range(n - 1))
    assert all(0 <= m <= p for m in mu)
    # budget bound, equality without any saturated block
    total_budget = -sum(lam)
    assert sum(mu) <= total_budget
    if "ar3" not in result.witness.cases:
        assert sum(mu) == total_budget


@given(lam_strategy, st.integers(1, 5))
@settings(max_examples=200)
def test_output_weakly_dominated(lam, n):
    from quantind.vectors import strictly_dominated, weakly_dominated

    result = lpn(lam, len(lam), n)
    assert weakly_dominated(result.output)
    if result.mu[0] > 0:
        assert strictly_dominated(result.output)


@given(lam_strategy, st.integers(1, 5))
@settings(max_examples=200)
def test_witness_revalidates(lam, n):
    result = lpn(lam, len(lam), n)
    assert check_assignment(lam, result.witness)
    # mu is stored next to the block totals, so it must agree with eta
    mu = result.witness.mu
    tampered = result.witness._replace(mu=(mu[0] + 1,) + mu[1:])
    assert not check_assignment(lam, tampered)


def test_lpn_rejects_bad_input():
    with pytest.raises(DomainError):
        lpn(ev(0), 1, 1)
    with pytest.raises(DomainError):
        lpn(ev(-1, -1), 3, 2)
