import itertools
from fractions import Fraction as F
from types import SimpleNamespace

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


# every fraction of denominator <= 4 in [-4, 3], drawn from a fixed list:
# st.fractions draws through a flatmap that rebuilds a strategy per draw
QUARTERS = sorted({F(a, d) for d in range(1, 5) for a in range(-4 * d, 3 * d + 1)})
lam_strategy = st.lists(
    st.sampled_from(QUARTERS),
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


# lambda = (-1, -2): caps (1, 3), breakpoints (1, 2).  Each witness breaks
# exactly one invariant and keeps the others (the last one breaks none), so
# each False comes from its own branch; check_assignment reads only .eta,
# .mu and the breakpoint indices
@pytest.mark.parametrize("eta,ok", [
    (((1, 1, 0),), False),  # a row of length 3, not p = 2
    (((1, 1), (1, 1), (-1, 0)), False),  # a negative cell
    (((0, 1), (1, 1)), False),  # mu = (1, 2) increases
    (((1, F(1, 2)),), False),  # j = 2: 3/2 < 3 and the block is not all ones
    (((1, 1),), True),  # j = 1 meets its cap, j = 2 is saturated
])
def test_check_assignment_rejects_one_broken_invariant(eta, ok):
    witness = SimpleNamespace(
        eta=eta,
        mu=tuple(sum(row, F(0)) for row in eta),
        block_structure=SimpleNamespace(indices=(1, 2)),
    )
    assert check_assignment(ev(-1, -2), witness) is ok


LENGTH = r"^lambda has length 2, expected p=3$"
NOT_NEGATIVE = r"^lambda must satisfy lambda < 0 \(all prefix sums negative\)$"
N_POSITIVE = r"^n must be >= 1$"
SIZE = r"^size must be an integer, got "
# sizes are exact integers: n = True used to run as n = 1, and 1.5, 2.0 or
# 3/2 to fail with a TypeError
BAD_SIZES = (True, False, 1.5, 2.0, F(3, 2))


def test_lpn_rejects_bad_input():
    with pytest.raises(DomainError):
        lpn(ev(0), 1, 1)
    with pytest.raises(DomainError):
        lpn(ev(-1, -1), 3, 2)
    lam = ev(-1, F(-1, 2))
    for fn in (lpn, greedy_eta, lpn_oracle):
        # the texts in their order: each input also has every later fault
        with pytest.raises(DomainError, match=LENGTH):
            fn(ev(1, 1), 3, 0)
        with pytest.raises(DomainError, match=NOT_NEGATIVE):
            fn(ev(1, 1), 2, 0)
        with pytest.raises(DomainError, match=N_POSITIVE):
            fn(lam, 2, 0)
        for size in BAD_SIZES:
            with pytest.raises(DomainError, match=SIZE):
                fn(lam, 2, size)
            with pytest.raises(DomainError, match=SIZE):
                fn(lam, size, 2)
        assert fn(lam, F(2), F(3)) == fn(lam, 2, 3)
    with pytest.raises(DomainError, match=LENGTH):
        breakpoints(ev(1, 1), 3)
    with pytest.raises(DomainError, match=NOT_NEGATIVE):
        breakpoints(ev(1, 1), 2)
    for size in BAD_SIZES:
        with pytest.raises(DomainError, match=SIZE):
            breakpoints(lam, size)
    assert breakpoints(lam, F(2)) == breakpoints(lam)


# ---------------------------------------------------------------------------
# large and mixed denominators against a Fraction transcription


def fraction_greedy(lam, n):
    """Breakpoints, block totals, cases and row sums, all in Fractions.

    The breakpoints come from the greatest-minimizer recursion; the block
    totals and the row fill are the Fraction form of `greedy_eta` and
    `_lex_max_rows`, step for step.
    """
    caps = [-s for s in itertools.accumulate(lam)]
    indices, lo = [], 0
    while lo < len(caps):
        best = min(caps[lo:])
        lo = max(j for j in range(lo, len(caps)) if caps[j] == best) + 1
        indices.append(lo)
    budgets = [caps[j - 1] for j in indices]
    widths = [j - prev for prev, j in zip([0] + indices[:-1], indices)]
    totals, cases, assigned = [], [], F(0)
    for w, budget in zip(widths, budgets):
        remaining = budget - assigned
        saturated = n * w < remaining
        totals.append(F(n * w) if saturated else remaining)
        cases.append("ar3" if saturated else "ar2")
        assigned += totals[-1]
    diff = [F(0)] * (n + 1)
    for t, w in zip(totals, widths):
        full, part = divmod(t, w)
        diff[0] += w
        diff[full] -= w
        if part:
            diff[full] += part
            diff[full + 1] -= part
    mu = tuple(itertools.accumulate(diff[:n]))
    return tuple(indices), tuple(budgets), tuple(totals), tuple(cases), mu


def from_caps(caps):
    """The lambda whose running caps -sum(lambda[:j]) are `caps` (all > 0)."""
    sums = [-c for c in caps]
    return ExponentVector(b - a for a, b in zip([0] + sums, sums))


# caps with any denominator up to 10**6, mixed with a few small ones that
# tie often; up to 70, so that blocks of up to 64 rows still saturate
cap_strategy = st.one_of(
    st.integers(1, 10**6).flatmap(
        lambda d: st.integers(1, 70 * d).map(lambda k: F(k, d))
    ),
    st.sampled_from([F(k, d) for d in (1, 2, 3, 7) for k in range(1, 3 * d)]),
)
wide_lam_strategy = st.integers(1, 64).flatmap(
    lambda p: st.lists(cap_strategy, min_size=p, max_size=p)
).map(from_caps)


def assert_matches_transcription(lam, n):
    indices, budgets, totals, cases, mu = fraction_greedy(lam, n)
    result = lpn(lam, len(lam), n)
    w = result.witness
    assert w.block_structure == (indices, budgets)
    assert (w.totals, w.cases, w.mu) == (totals, cases, mu)
    assert result.output == ExponentVector(-m for m in mu)
    # mu is built once: the vector holds the witness's own tuple
    assert result.mu == ExponentVector(mu) and result.mu.entries is w.mu
    assert greedy_eta(lam, len(lam), n) == w
    fields = w.mu + w.totals + w.block_structure.budgets
    assert all(type(x) is F for x in fields)
    assert all(type(x) is F for x in result.mu.entries + result.output.entries)
    assert check_assignment(lam, w)


@given(wide_lam_strategy, st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_lpn_matches_fraction_transcription(lam, n):
    assert_matches_transcription(lam, n)


def test_lpn_pinned_denominator_2_64_plus_1():
    eps = F(1, 2**64 + 1)
    lam = ev(F(-1, 3), eps, F(-5, 2))  # D = 6 (2**64 + 1)
    result = lpn(lam, 3, 2)
    assert result.witness.block_structure.indices == (2, 3)
    assert result.witness.cases == ("ar2", "ar3")
    assert result.witness.totals == (F(1, 3) - eps, F(2))
    assert result.output == ev(eps - F(4, 3), -1)
    for n in (1, 2, 3, 64):
        assert_matches_transcription(lam, n)


@pytest.mark.parametrize("p,n", [(128, 128), (16, 128), (128, 16)])
def test_lpn_builds_at_most_2_p_plus_n_fractions(monkeypatch, p, n):
    # a work counter for the exact core: every index of the half-integer
    # staircase is a breakpoint, the most blocks there can be, and `lpn`
    # builds each public field once as Fraction(v, D): one budget and one
    # total per block, mu and the output n each.  Counted by a stand-in for
    # Fraction.__new__ installed for that one call (measured: 512 at
    # (128, 128), 288 at (16, 128) and (128, 16))
    lam, count, new = ev(*[-F(2 * i - 1, 2) for i in range(1, p + 1)]), [0], F.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    result = lpn(lam, p, n)
    monkeypatch.undo()
    assert len(result.witness.block_structure.indices) == p
    assert 0 < count[0] <= 2 * (p + n)


# small denominators, so that the oracle meets ties and exact equalities
small_cap_strategy = st.integers(1, 40).flatmap(
    lambda k: st.sampled_from([F(k, 3), F(k, 5), F(k, 7)])
)


@given(
    st.integers(1, 16).flatmap(
        lambda p: st.tuples(
            st.lists(small_cap_strategy, min_size=p, max_size=p).map(from_caps),
            st.integers(1, 16 // p),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_oracle_matches_greedy_denominators_3_5_7(case):
    lam, n = case
    assert lpn_oracle(lam, len(lam), n) == lpn(lam, len(lam), n).output
