import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quantind import (
    DomainError,
    ExponentVector,
    InfChar,
    Orthogonal,
    Partition,
    Symplectic,
    constant_vector,
    cover_info,
    in_ss_O_to_Sp,
    rho,
    strictly_dominated,
    transpose,
    weakly_dominated,
)
from quantind.vectors import _fmt_vec


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
vectors = st.lists(rationals, min_size=1, max_size=8).map(ExponentVector)


def test_strict_dominance_examples():
    assert strictly_dominated(ExponentVector([-1, F(1, 2)]))
    assert not strictly_dominated(ExponentVector([0, -1]))
    assert strictly_dominated(ExponentVector([F(-1, 2), F(-3, 2), F(-5, 2)]))


def test_weak_dominance_examples():
    assert weakly_dominated(ExponentVector([0, 0, 0]))
    assert weakly_dominated(ExponentVector([-1, 1]))
    assert not weakly_dominated(ExponentVector([F(1, 2), -1]))


@given(vectors)
def test_strict_implies_weak(x):
    if strictly_dominated(x):
        assert weakly_dominated(x)


def test_floats_rejected():
    with pytest.raises(DomainError):
        ExponentVector([-1.5, -2])
    with pytest.raises(DomainError):
        ExponentVector([True])


def test_vector_arithmetic():
    x = ExponentVector([-1, -2])
    y = ExponentVector([F(1, 2), F(3, 2)])
    assert x + y == ExponentVector([F(-1, 2), F(-1, 2)])
    assert x - y == ExponentVector([F(-3, 2), F(-7, 2)])
    assert -x == ExponentVector([1, 2])
    assert x.shift(2) == ExponentVector([1, 0])
    assert x.prefix_sums() == (F(-1), F(-3))
    assert x.scaled() == (1, [-1, -2])
    assert ExponentVector([F(1, 2), F(-2, 3), 5]).scaled() == (6, [3, -4, 30])


@given(vectors)
def test_scaled_is_exact(x):
    D, scaled = x.scaled()
    assert all(type(v) is int for v in scaled)
    assert [F(v, D) for v in scaled] == list(x)
    assert D == math.lcm(*(e.denominator for e in x))


def test_rho_values():
    assert rho(Orthogonal(2, 3)) == ExponentVector([F(3, 2), F(1, 2)])
    assert rho(Symplectic(3)) == ExponentVector([3, 2, 1])
    assert rho(Orthogonal(1, 1)) == ExponentVector([0])


def test_rho_matches_the_closed_forms():
    # rho is built from the integer 2*rho; its entries, repr and printed form
    # are those of the closed forms
    cases = [(Orthogonal(p, q), [F(p + q - 2 * i, 2) for i in range(1, p + 1)])
             for q in range(1, 13) for p in range(1, q + 1)]
    cases += [(Symplectic(n), [F(k) for k in range(n, 0, -1)]) for n in range(1, 13)]
    for g, want in cases:
        r = rho(g)
        assert list(r) == want and all(type(x) is F for x in r)
        assert str(r) == f"ExponentVector({[str(x) for x in want]})"
        assert _fmt_vec(r) == "(" + ",".join(map(str, want)) + ")"
    assert str(rho(Orthogonal(2, 3))) == "ExponentVector(['3/2', '1/2'])"
    assert _fmt_vec(rho(Orthogonal(3, 5))) == "(3,2,1)"
    assert _fmt_vec(rho(Symplectic(3))) == "(3,2,1)"
    with pytest.raises(DomainError, match=r"rho\(O\(p,q\)\) needs p >= 1"):
        rho(Orthogonal(0, 3))


def test_range_predicate_and_fmt_vec_build_pinned_fraction_counts(monkeypatch):
    # work counters for the exact core, counted by a stand-in for
    # Fraction.__new__ installed for one call each: a range predicate builds
    # its c, and a list lam each entry once more; _fmt_vec prints the entries
    # as they are (measured: 1, k + 1 and 0)
    count, new = [0], F.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    def built(call, *args):
        count[0] = 0
        monkeypatch.setattr(F, "__new__", counting)
        call(*args)
        monkeypatch.undo()
        return count[0]

    for k in (1, 2, 5):
        lam = [-1] * k
        assert built(in_ss_O_to_Sp, ExponentVector(lam), k, k + 1, k) == 1
        assert built(in_ss_O_to_Sp, lam, k, k + 1, k) == k + 1
    assert built(_fmt_vec, ExponentVector([F(1, 2), -3, F(-7, 6), 0])) == 0


@given(st.integers(1, 10), st.integers(0, 10))
def test_rho_orthogonal_shape(p, extra):
    q = p + extra
    r = rho(Orthogonal(p, q))
    assert len(r) == p
    assert r[p - 1] == F(q - p, 2)
    assert all(r[i] - r[i + 1] == 1 for i in range(p - 1))


def test_orthogonal_rejects_p_gt_q():
    with pytest.raises(DomainError):
        Orthogonal(3, 2)
    with pytest.raises(DomainError):
        Symplectic(0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, F(5, 2), "2"])
def test_sizes_must_be_exact_integers(bad):
    # a size is never truncated: O(2.5,3) and Partition((2.5, 1)) are refused
    with pytest.raises(DomainError, match="size must be an integer"):
        Orthogonal(bad, 3)
    with pytest.raises(DomainError, match="size must be an integer"):
        Orthogonal(1, bad)
    with pytest.raises(DomainError, match="size must be an integer"):
        Symplectic(bad)
    with pytest.raises(DomainError, match="size must be an integer"):
        Partition([3, bad, 1])
    # an integral Fraction is an exact integer, stored as an int
    assert Orthogonal(F(2), F(3)) == Orthogonal(2, 3)
    assert type(Symplectic(F(4)).n) is int and str(Symplectic(F(4))) == "Sp(8)"
    assert Partition([F(3), 2]).parts == (3, 2)


def test_records_are_named_tuples():
    g = Orthogonal(2, 3)
    assert repr(g) == "Orthogonal(p=2, q=3)" and g == (2, 3) and hash(g) == hash((2, 3))
    p, q = g
    assert (p, q) == (2, 3)
    with pytest.raises(AttributeError):
        g.p = 1
    with pytest.raises(AttributeError):
        g.rank_cache = 2  # no per-instance dict
    # _replace runs the same checks as the constructor
    assert g._replace(q=5) == Orthogonal(2, 5)
    with pytest.raises(DomainError, match="p <= q"):
        g._replace(p=4)
    d = Partition([3, 2, 2])
    assert len(d) == 3 and d._replace(parts=(4, 1)) == Partition([4, 1])
    with pytest.raises(DomainError, match="non-increasing"):
        d._replace(parts=(1, 2))
    # all 15 records: one idiom, a `_record` subclass with no per-instance
    # dict, with these fields, defaults and reprs
    from quantind import induction, lpn, twisted

    res = lpn(ExponentVector([-2, -1]), 2, 2)
    bps = "BreakpointSequence(indices=(1, 2), budgets=(Fraction(2, 1), Fraction(3, 1)))"
    eta = ("EtaAssignment(mu=(Fraction(2, 1), Fraction(1, 1)), totals=(Fraction(2, 1), "
           f"Fraction(1, 1)), block_structure={bps}, cases=('ar2', 'ar2'))")
    records = [
        (g, "p q", {}, "Orthogonal(p=2, q=3)"),
        (Symplectic(2), "n", {}, "Symplectic(n=2)"),
        (d, "parts", {}, "Partition(parts=(3, 2, 2))"),
        (cover_info((g, Symplectic(2)), "Sp"), "splits genuine_required product_with_center",
         {}, "CoverInfo(splits=False, genuine_required=True, product_with_center=False)"),
        (res.witness.block_structure, "indices budgets", {}, bps),
        (res.witness, "mu totals block_structure cases", {}, eta),
        (res, "mu output witness", {}, "LpnResult(mu=ExponentVector(['2', '1']), "
         f"output=ExponentVector(['-2', '-1']), witness={eta})"),
        (induction.StepRecord("a", "b", "c", "d", True), "id inequality lhs rhs ok", {},
         "StepRecord(id='a', inequality='b', lhs='c', rhs='d', ok=True)"),
        (induction.ValidationReport(), "steps bounds", {},
         "ValidationReport(steps=[], bounds=[])"),
        (induction.DualPairChain("O", (Orthogonal(1, 2), Symplectic(1)), ExponentVector([-1])),
         "start_kind groups initial_lambda", {},
         "DualPairChain(start_kind='O', groups=(Orthogonal(p=1, q=2), Symplectic(n=1)), "
         "initial_lambda=ExponentVector(['-1']))"),
        (induction.AVPrediction(Partition([2])), "partition conjectural",
         {"conjectural": True}, "AVPrediction(partition=Partition(parts=(2,)), conjectural=True)"),
        (twisted.IntegralEstimate(0.5, 1e-16, 240), "value abs_error node_count", {},
         "IntegralEstimate(value=0.5, abs_error=1e-16, node_count=240)"),
        (twisted.RaySpec([1.0], [1.0, 2.0, 3.0]), "direction t_values", {},
         "RaySpec(direction=(1.0,), t_values=(1.0, 2.0, 3.0))"),
        (twisted.RayCheck((1.0,), 1.0, 0.0, True),
         "direction max_ratio trend_slope bounded ratios", {"ratios": ()},
         "RayCheck(direction=(1.0,), max_ratio=1.0, trend_slope=0.0, bounded=True, ratios=())"),
        (twisted.Gr2Report(ExponentVector([-2]), ExponentVector([-1]), 0.05, []),
         "lam mu_bound delta rays", {}, "Gr2Report(lam=ExponentVector(['-2']), "
         "mu_bound=ExponentVector(['-1']), delta=0.05, rays=[])"),
    ]
    assert len({type(r) for r, *_ in records}) == 15
    for r, fields, defaults, text in records:
        cls = type(r)
        assert vars(cls)["__slots__"] == () and not hasattr(r, "__dict__")
        assert cls._fields == tuple(fields.split()) and cls._field_defaults == defaults
        assert repr(r) == text and r._asdict() == dict(zip(cls._fields, r))
        assert type(r._replace()) is cls and r._replace() == r
        assert type(cls._make(r)) is cls and cls._make(r) == r


def test_constant_vector():
    assert constant_vector(3, 2) == ExponentVector([3, 3])
    assert constant_vector(F(5, 2), 3) == ExponentVector([F(5, 2)] * 3)


def test_cover_info():
    pair = (Orthogonal(2, 3), Symplectic(2))
    info = cover_info(pair, "Sp")
    assert not info.splits and info.genuine_required
    info = cover_info((Orthogonal(2, 2), Symplectic(2)), "Sp")
    assert info.splits
    info = cover_info(pair, "O")
    assert info.product_with_center  # n = 2 even


def test_transpose_examples():
    assert transpose(Partition([3, 1])) == Partition([2, 1, 1])
    assert transpose(Partition([1])) == Partition([1])
    assert transpose(Partition([4, 4, 2])) == Partition([3, 3, 2, 2])


@given(st.lists(st.integers(1, 9), min_size=0, max_size=8))
def test_transpose_involution(parts):
    d = Partition(sorted(parts, reverse=True))
    assert transpose(transpose(d)) == d
    assert transpose(d).size == d.size


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition([1, 2])
    with pytest.raises(DomainError):
        Partition([2, 0])


@given(
    st.lists(rationals, min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_infchar_signed_permutation_invariance(values, rng):
    chi = InfChar(values)
    shuffled = list(values)
    rng.shuffle(shuffled)
    flipped = [v if rng.random() < 0.5 else -v for v in shuffled]
    assert InfChar(flipped) == chi
    assert hash(InfChar(flipped)) == hash(chi)


def test_infchar_oplus():
    chi = InfChar([F(1, 2)]).oplus([-1, F(3, 2)])
    assert chi.canonical_form == (F(3, 2), F(1), F(1, 2))


def test_value_types_refuse_assignment_and_print_themselves():
    v, chi = ExponentVector([-1, F(1, 2)]), InfChar([F(1, 2), -1])
    with pytest.raises(AttributeError, match="ExponentVector is immutable"):
        v.entries = (F(0),)
    with pytest.raises(AttributeError, match="InfChar is immutable"):
        chi.values = ()
    assert len(chi) == 2
    assert repr(chi) == "InfChar(['1/2', '-1'])"
    assert str(Orthogonal(2, 3)) == "O(2,3)"
