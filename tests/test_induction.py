from fractions import Fraction as F

import pytest

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
    validate_chain,
    validate_one_step_O,
    validate_one_step_Sp,
)


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
