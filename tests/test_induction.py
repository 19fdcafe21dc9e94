import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from quantind import induction
from quantind import (
    DomainError,
    DualPairChain,
    ExponentVector,
    InfChar,
    Orthogonal,
    Partition,
    Symplectic,
    constant_vector,
    detect_limit_case,
    in_odd_range_O_to_Sp,
    in_semistable_O_to_Sp,
    in_semistable_Sp_to_O,
    in_ss_O_to_Sp,
    in_ss_Sp_to_O,
    infchar_Q,
    infchar_theta,
    parabolic_infchar_match,
    predict_associated_variety,
    rho,
    strictly_dominated,
    validate_chain,
    validate_one_step_O,
    validate_one_step_Sp,
    weakly_dominated,
)
from quantind.vectors import rho_shift


def ev(*entries):
    return ExponentVector(entries)


# ---------------------------------------------------------------------------
# range membership


def test_semistable_O_to_Sp():
    assert in_semistable_O_to_Sp(ev(F(-1, 2)), 1, 1, 1)
    assert in_semistable_O_to_Sp(ev(0, 0), 2, 2, 4)
    # boundary exactness: lambda = n*1 - 2 rho fails strictness
    lam = constant_vector(3, 2) - rho(Orthogonal(2, 2)) - rho(Orthogonal(2, 2))
    assert not in_semistable_O_to_Sp(lam, 2, 2, 3)


def test_semistable_Sp_to_O():
    assert in_semistable_Sp_to_O(ev(-1), 1, 2, 3)
    lam = constant_vector(F(5, 2), 1) - rho(Symplectic(1)) - rho(Symplectic(1))
    assert not in_semistable_Sp_to_O(lam, 1, 2, 3)


def test_ss_O_to_Sp():
    # boundary equality is allowed
    lam = constant_vector(F(2 * 3 - 5, 2), 2) - rho(Orthogonal(2, 3))
    assert in_ss_O_to_Sp(lam, 2, 3, 3)
    bumped = ExponentVector([lam[0] + 1, lam[1]])
    assert not in_ss_O_to_Sp(bumped, 2, 3, 3)
    assert in_ss_O_to_Sp(ev(-1, -1), 2, 3, 3)


def test_ss_Sp_to_O():
    lam = constant_vector(F(5, 2) - 1 - 1, 1) - rho(Symplectic(1))
    assert in_ss_Sp_to_O(lam, 1, 2, 3)
    assert not in_ss_Sp_to_O(ExponentVector([lam[0] + 1]), 1, 2, 3)
    assert in_ss_Sp_to_O(ev(-1), 1, 2, 3)


def test_odd_range():
    assert in_odd_range_O_to_Sp(ev(-1), 1, 2, 2)
    with pytest.raises(DomainError):
        in_odd_range_O_to_Sp(ev(-1, -1), 2, 2, 3)  # p+q even


def shifted_reference(lam, g, c, k):
    """lam - c*1 + k*rho(g), transcribed in Fractions from rho(g)'s entries."""
    return ExponentVector(F(x) - F(c) + k * r for x, r in zip(lam, rho(g)))


# each range predicate with the composition it replaced: the group, c and k
# of lam - c*1 + k*rho(g), and the dominance test of that vector
RANGE_REFERENCES = [
    (in_semistable_O_to_Sp, lambda p, q, n: (Orthogonal(p, q), n, 2), strictly_dominated),
    (in_semistable_Sp_to_O, lambda p, q, n: (Symplectic(n), F(p + q, 2), 2), strictly_dominated),
    (in_ss_O_to_Sp, lambda p, q, n: (Orthogonal(p, q), F(2 * n - (p + q), 2), 1),
     weakly_dominated),
    (in_ss_Sp_to_O, lambda p, q, n: (Symplectic(n), F(p + q, 2) - n - 1, 1),
     weakly_dominated),
    (in_odd_range_O_to_Sp, lambda p, q, n: (Orthogonal(p, q), F(2 * n - (p + q - 1), 2), 1),
     weakly_dominated),
]
SP_FIRST = (in_semistable_Sp_to_O, in_ss_Sp_to_O)


def reference_verdict(pred, lam, p, q, n):
    _, shift_args, dominated = next(r for r in RANGE_REFERENCES if r[0] is pred)
    return dominated(shifted_reference(lam, *shift_args(p, q, n)))


@given(st.data())
@settings(max_examples=300)
def test_range_predicates_match_the_fraction_composition(data):
    pred, shift_args, dominated = data.draw(st.sampled_from(RANGE_REFERENCES))
    sp_first = pred in SP_FIRST
    p = data.draw(st.integers(0 if sp_first else 1, 40), label="p")
    q = data.draw(st.integers(p, 40), label="q")
    if pred is in_odd_range_O_to_Sp:
        assume((p + q) % 2 == 1)
        n = data.draw(st.integers((p + q - 1) // 2, 40), label="n")
    else:
        n = data.draw(st.integers(1, 40), label="n")
    rank = n if sp_first else p
    # prefix sums of the shifted vector, each -a/d in [-2, 0] with d one of
    # 1, 2, 3, 6 (exact zeros and ties) or of up to three drawn <= 10**6
    dens = [1, 2, 3, 6] + data.draw(st.lists(st.integers(1, 10**6), max_size=3))
    picks = data.draw(st.lists(st.integers(0, 2**40), min_size=rank, max_size=rank))
    sums = []
    for x in picks:
        d = dens[x % len(dens)]
        sums.append(F(-(x // len(dens) % (2 * d + 1)), d))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, rank - 1))
        sums[i] = F(1, data.draw(st.integers(1, 10**6)))
    # lam is chosen so that its shifted vector has exactly these prefix sums
    g, c, k = shift_args(p, q, n)
    offset = shifted_reference([0] * rank, g, c, k)
    steps = [b - a for a, b in zip([0] + sums, sums)]
    lam = ExponentVector(x - o for x, o in zip(steps, offset))
    shifted = shifted_reference(lam, g, c, k)
    assert list(shifted.prefix_sums()) == sums
    assert rho_shift(lam, g, c, k) == shifted
    assert rho_shift(list(lam), g, c, k) == shifted
    want = dominated(shifted)
    assert pred(lam, p=p, q=q, n=n) is want
    assert pred(list(lam), p=p, q=q, n=n) is want


BIG = 2**64 + 1


# (predicate, lam, p, q, n, verdict); the verdicts are those of the
# Fraction composition, checked again in the test
RANGE_ROWS = [
    (in_ss_O_to_Sp, [-1], 1, 2, 1, True),  # the prefix sum is exactly 0
    (in_ss_Sp_to_O, [F(-1, 2)], 2, 3, 1, True),  # 0
    (in_semistable_Sp_to_O, [F(1, 2)], 2, 3, 1, False),  # 0, but strict
    (in_semistable_O_to_Sp, [F(-1, 3), F(7, 3)], 2, 3, 3, False),  # 0 through thirds
    (in_semistable_O_to_Sp, [F(-1, 3), F(13, 6)], 2, 3, 3, True),
    (in_odd_range_O_to_Sp, [F(-3, 2), F(-1, 2)], 2, 3, 2, True),  # (0, 0)
    (in_odd_range_O_to_Sp, [F(-3, 2), F(-5, 14)], 2, 3, 2, False),
    (in_ss_O_to_Sp, [-1, -1], 2, 3, 3, True),
    (in_ss_O_to_Sp, [3, 0], 2, 3, 3, False),
    # one part in 2**64 + 1 either side of the boundary
    (in_ss_O_to_Sp, [-1 + F(1, BIG), -F(1, BIG)], 2, 3, 3, False),
    (in_ss_O_to_Sp, [-1 - F(1, BIG), F(1, BIG)], 2, 3, 3, True),  # (-1/BIG, 0)
    (in_ss_O_to_Sp, [-1 - F(1, BIG), F(2, BIG)], 2, 3, 3, False),
    (in_semistable_O_to_Sp, [-F(1, BIG), 2 + F(1, BIG)], 2, 3, 3, False),  # (-1/BIG, 0)
    (in_semistable_O_to_Sp, [-F(1, BIG), 2], 2, 3, 3, True),
    (in_ss_Sp_to_O, [F(-1, 2) + F(1, BIG)], 2, 3, 1, False),
    (in_ss_Sp_to_O, [F(-1, 2) - F(1, BIG)], 2, 3, 1, True),
    # n is not checked on the O side: n = 1/3 makes c = -7/6, whose
    # denominator 3 lambda does not have
    (in_ss_O_to_Sp, [-1], 1, 2, F(1, 3), False),  # (2/3)
    (in_ss_O_to_Sp, [-2], 1, 2, F(1, 3), True),  # (-1/3)
    (in_semistable_O_to_Sp, [F(-1, 2)], 1, 2, F(1, 5), False),  # (3/10)
]


@pytest.mark.parametrize("pred,lam,p,q,n,want", RANGE_ROWS)
def test_range_predicates_pinned_rows(pred, lam, p, q, n, want):
    assert reference_verdict(pred, ExponentVector(lam), p, q, n) is want
    # an ExponentVector, or a list or tuple of its entries as ints or Fractions
    for form in (ExponentVector(lam), list(lam), tuple(lam), [F(x) for x in lam]):
        assert pred(form, p=p, q=q, n=n) is want
        args = (form, n, p, q) if pred in SP_FIRST else (form, p, q, n)
        assert pred(*args) is want


@pytest.mark.parametrize("call,error,text", [
    # the length is checked before any entry or the group's rho
    (lambda: in_ss_O_to_Sp([0.5], 2, 3, 3), DomainError, "lambda must have length p=2"),
    (lambda: in_ss_Sp_to_O((F(1, 2),), 2, 3, 3), DomainError, "lambda must have length n=2"),
    (lambda: in_semistable_O_to_Sp([-1], 0, 3, 3), DomainError, "lambda must have length p=0"),
    (lambda: in_semistable_O_to_Sp([], 0, 3, 3), DomainError, r"rho\(O\(p,q\)\) needs p >= 1"),
    # then c, then the entries; a float entry fails with the value rho_shift
    # computed for it: 0.5 - 1/2 + 1/2
    (lambda: in_semistable_O_to_Sp([0.5], 1, 2, 2.5), DomainError,
     "exact rational required, got 2.5"),
    (lambda: in_ss_O_to_Sp([-1, 0.5], 2, 3, 3), DomainError,
     "exact rational required, got 0.5$"),
    (lambda: in_ss_O_to_Sp(["-1", 0], 2, 3, 3), TypeError,
     "unsupported operand"),
    # the groups are checked first, in each predicate's order
    (lambda: in_ss_O_to_Sp([0.5], 3, 2, 3), DomainError, "requires p <= q"),
    (lambda: in_ss_Sp_to_O([0.5], 0, 2, 3), DomainError, "requires n >= 1"),
    (lambda: in_ss_Sp_to_O([0.5], 1, 3, 2), DomainError, "requires p <= q"),
    (lambda: in_odd_range_O_to_Sp([0.5], 1, 3, 3), DomainError, r"p\+q must be odd"),
    (lambda: in_odd_range_O_to_Sp([0.5], 2, 5, 2), DomainError, r"requires p\+q <= 2n\+1"),
])
def test_range_predicates_errors_in_order(call, error, text):
    with pytest.raises(error, match=text):
        call()


# ---------------------------------------------------------------------------
# one-step validators


def test_one_step_O_pass():
    rep = validate_one_step_O(2, 3, 3, 4, 5)
    assert rep.verdict
    assert [s.id for s in rep.steps] == ["1", "2", "3", "derived"]


def test_one_step_O_failures():
    rep = validate_one_step_O(2, 3, 3, 3, 4)  # p2 = n
    assert not rep.verdict
    assert not next(s for s in rep.steps if s.id == "1").ok
    rep = validate_one_step_O(2, 3, 3, 4, 4)  # parity mismatch
    assert not next(s for s in rep.steps if s.id == "3").ok


def test_one_step_Sp():
    rep = validate_one_step_Sp(1, 2, 3, 4)
    assert rep.verdict
    assert not validate_one_step_Sp(2, 2, 3, 4).verdict  # n >= p
    assert not validate_one_step_Sp(1, 3, 4, 1).verdict  # n2 too small


@pytest.mark.parametrize("validate,sizes,lhs,ok", [
    (validate_one_step_Sp, (1, 2, 2, 2), "0", True),  # the derived bound is weak
    (validate_one_step_O, (1, 2, 2, 3, 3), "1/2", False),
    (validate_one_step_O, (2, 3, 3, 4, 5), "0", True),
])
def test_derived_condition_at_its_boundary(validate, sizes, lhs, ok):
    step = validate(*sizes).steps[-1]
    assert (step.id, step.lhs, step.rhs, step.ok) == ("derived", lhs, "0", ok)


def test_derived_condition_follows_from_stated():
    # whenever the stated size conditions all hold, so does the re-derived one
    for p in range(1, 9):
        for q in range(p, 9):
            for n in range(1, 9):
                for p2 in range(1, 9):
                    for q2 in range(p2, 9):
                        rep = validate_one_step_O(p, q, n, p2, q2)
                        stated = all(s.ok for s in rep.steps[:3])
                        derived = rep.steps[3].ok
                        if stated:
                            assert derived


# ---------------------------------------------------------------------------
# chains


def good_chain():
    return DualPairChain(
        "O",
        (Orthogonal(2, 3), Symplectic(3), Orthogonal(4, 5)),
        ev(-1, -1),
    )


def test_validate_chain_pass():
    rep = validate_chain(good_chain())
    assert rep.verdict, [s for s in rep.steps if not s.ok]
    assert len(rep.bounds) == 3
    assert len(rep.bounds[1]) == 3
    assert len(rep.bounds[2]) == 4


def test_validate_chain_parity_failure_reported():
    chain = DualPairChain(
        "O",
        (Orthogonal(2, 2), Symplectic(3), Orthogonal(4, 5)),
        ev(F(-3, 2), F(-1, 2)),
    )
    rep = validate_chain(chain)
    assert not rep.verdict
    parity_steps = [s for s in rep.steps if s.id.startswith("parity")]
    assert parity_steps and not parity_steps[0].ok
    # later steps are still present
    assert any(s.id.startswith("size") for s in rep.steps)


def test_validate_chain_sp_first():
    chain = DualPairChain(
        "Sp",
        (Symplectic(1), Orthogonal(2, 3), Symplectic(4)),
        ev(-1),
    )
    rep = validate_chain(chain)
    assert rep.verdict, [s for s in rep.steps if not s.ok]


def test_validate_chain_sp_first_initial_failure():
    chain = DualPairChain(
        "Sp",
        (Symplectic(3), Orthogonal(2, 3), Symplectic(4)),
        ev(-1, -2, -3),
    )
    rep = validate_chain(chain)
    assert not next(s for s in rep.steps if s.id == "initial-size").ok


def test_chain_repeated_group_successor_by_position():
    # the final O(1,2) has no successor; a lookup by value resolves it to
    # position 0 and checks the bound against the Sp(2) that follows there
    chain = DualPairChain(
        "O", (Orthogonal(1, 2), Symplectic(1), Orthogonal(1, 2)), ev(F(-1, 2))
    )
    rep = validate_chain(chain)
    assert next(s for s in rep.steps if s.id == "propagate[2]").ok


def test_chain_repeated_group_last_step_has_no_successor(monkeypatch):
    # real bounds stop this chain at step 2, so the transfers are stubbed
    # with the zero bound, which O(1,1) after Sp(6) does not admit
    monkeypatch.setattr(
        induction.transfer, "bound_O_to_Sp", lambda p, q, n, lam: ev(*[0] * n)
    )
    monkeypatch.setattr(
        induction.transfer, "bound_Sp_to_O", lambda n, p, q, lam: ev(*[0] * p)
    )
    groups = (Orthogonal(1, 1), Symplectic(3)) * 2
    rep = validate_chain(DualPairChain("O", groups, ev(-1)))
    ok = {s.id: s.ok for s in rep.steps if s.id.startswith("propagate")}
    assert len(rep.bounds) == 4
    assert not ok["propagate[1]"]
    assert ok["propagate[3]"]


def test_chain_construction_validation():
    with pytest.raises(DomainError):
        DualPairChain("O", (Orthogonal(2, 3), Orthogonal(2, 3)), ev(-1, -1))
    with pytest.raises(DomainError):
        DualPairChain("Sp", (Symplectic(1),), ev(-1))
    with pytest.raises(DomainError):
        DualPairChain("O", (Orthogonal(2, 3), Symplectic(3)), ev(-1))


# ---------------------------------------------------------------------------
# infinitesimal characters


def test_infchar_theta_small_pair():
    chi = InfChar([F(7, 3)])
    out = infchar_theta("o2sp", 2, 3, 3, chi)
    assert out == chi.oplus([F(1, 2)])


def test_infchar_theta_identity_cases():
    chi = InfChar([1, 2])
    assert infchar_theta("o2sp", 2, 2, 2, chi) == chi  # p+q = 2n
    assert infchar_theta("sp2o", 2, 3, 2, chi) == chi  # p+q = 2n+1


def test_infchar_theta_large_pair():
    chi = InfChar([])
    out = infchar_theta("sp2o", 3, 4, 1, chi)
    assert out == InfChar([F(3, 2), F(1, 2)])


def test_infchar_Q_matches_two_step_composition():
    chi = InfChar([F(1, 3), -2])
    for p, q, n, p2, q2 in [(2, 3, 3, 4, 5), (2, 2, 3, 4, 4), (1, 2, 3, 5, 6)]:
        via_q = infchar_Q("O", (p, q, n, p2, q2), chi)
        via_theta = infchar_theta(
            "sp2o", p2, q2, n, infchar_theta("o2sp", p, q, n, chi)
        )
        assert via_q == via_theta
    for n, p, q, n2 in [(1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 2, 3)]:
        via_q = infchar_Q("Sp", (n, p, q, n2), chi)
        via_theta = infchar_theta(
            "o2sp", p, q, n2, infchar_theta("sp2o", p, q, n, chi)
        )
        assert via_q == via_theta


# sha256 of every infchar_theta / infchar_Q value list (in order, after a
# seed entry 1/3) over p <= q <= 8 (p = 0 included), n, n2 <= 8 and all
# p2 <= q2 <= 8, mixed parities included: 19 800 size tuples in all
INFCHAR_DIGEST = "77caacf591e183379fe56abc4edb5ff7c34e8f0decafa537ec85f46678442e3a"


def test_infchar_values_pinned():
    chi = InfChar([F(1, 3)])
    pairs = [(p, q) for q in range(9) for p in range(q + 1)]
    lines = []

    def put(label, out):
        lines.append(label + ": " + ",".join(str(v) for v in out.values))

    for p, q in pairs:
        for n in range(1, 9):
            for d in ("o2sp", "sp2o"):
                put(f"theta {d} {p},{q},{n}", infchar_theta(d, p, q, n, chi))
            for p2, q2 in pairs:
                sizes = (p, q, n, p2, q2)
                put(f"Q O {sizes}", infchar_Q("O", sizes, chi))
            for n2 in range(1, 9):
                sizes = (n, p, q, n2)
                put(f"Q Sp {sizes}", infchar_Q("Sp", sizes, chi))
    assert len(lines) == 19800
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == INFCHAR_DIGEST


def test_detect_limit_case():
    # both first-kind relations can hold at once
    tags = detect_limit_case("O", (2, 3, 3, 4, 5))
    assert tags == ("I", "II")
    assert detect_limit_case("O", (2, 3, 3, 6, 7)) == ()
    assert detect_limit_case("Sp", (1, 2, 2, 2)) == ("III",)
    assert detect_limit_case("Sp", (1, 2, 3, 9)) == ()


def test_parabolic_match():
    chi = InfChar([F(1, 2), F(5, 2)])
    assert parabolic_infchar_match("O", (2, 3, 3, 4, 5), chi)
    assert parabolic_infchar_match("Sp", (1, 2, 2, 2), chi)
    with pytest.raises(DomainError):
        parabolic_infchar_match("O", (2, 3, 3, 6, 7), chi)


# ---------------------------------------------------------------------------
# associated varieties (conjectural)


def test_av_prediction():
    pred = predict_associated_variety("O", (2, 3, 3, 4, 5), Partition([1]))
    # prepended transpose is (3, 1, 1)
    assert pred.partition == Partition([3, 1, 1])
    assert pred.conjectural


def test_av_prediction_drops_only_zero_parts():
    # f^t = (2, 1, 1): the part 1 stays, and f = (3, 1)
    pred = predict_associated_variety("O", (1, 2, 2, 3, 3), Partition((1,)))
    assert pred.partition == Partition([3, 1])


def test_av_prediction_empty_partition():
    pred = predict_associated_variety("O", (2, 2, 3, 4, 4), Partition([]))
    # f^t = (p2+q2-2n, 2n-p-q) = (2, 2); f = its transpose
    assert pred.partition == Partition([2, 2])


def test_av_prediction_sp_kind():
    pred = predict_associated_variety("Sp", (1, 2, 3, 4), Partition([1]))
    # f^t = (2n2-p-q, p+q-2n, 1) = (3, 3, 1)
    assert pred.partition == Partition([3, 2, 2])


def test_av_rejects_bad_shape():
    with pytest.raises(DomainError):
        # d^t max part 2 exceeds 2n - p - q = 1
        predict_associated_variety("O", (2, 3, 3, 4, 5), Partition([2, 2]))
    with pytest.raises(DomainError):
        # 2n - p - q negative
        predict_associated_variety("O", (4, 5, 3, 6, 7), Partition([1]))
