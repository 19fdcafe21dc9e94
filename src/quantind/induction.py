"""Range membership, chained dual-pair validation, and infinitesimal characters.

Size tuples follow the two chain flavours:

  orthogonal-first   Q(p,q; 2n; p',q')   sizes (p, q, n, p2, q2)
  symplectic-first   Q(2n; p,q; 2n')     sizes (n, p, q, n2)

Condition failures are report entries, never exceptions, so a whole chain can
be diagnosed end to end.  The associated-variety arithmetic is conjectural
and flagged as such.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from . import transfer
from .vectors import (
    DomainError,
    ExponentVector,
    GroupDescriptor,
    InfChar,
    Orthogonal,
    Partition,
    Symplectic,
    _fmt_vec,
    _in_range,
    _record,
    transpose,
)


class StepRecord(_record("StepRecord", "id inequality lhs rhs ok")):
    """One checked step: its id, the inequality, both sides as text and ok."""

    __slots__ = ()


class ValidationReport(_record("ValidationReport", "steps bounds")):
    """The StepRecords of a validation and the exponent bounds it propagated."""

    __slots__ = ()

    def __new__(cls, steps: list[StepRecord] | None = None, bounds: list | None = None):
        return tuple.__new__(cls, ([] if steps is None else steps,
                                   [] if bounds is None else bounds))

    @property
    def verdict(self) -> bool:
        return all(s.ok for s in self.steps)

    def add(self, id: str, inequality: str, lhs, rhs, ok: bool) -> None:
        self.steps.append(StepRecord(id, inequality, str(lhs), str(rhs), ok))


class DualPairChain(_record("DualPairChain", "start_kind groups initial_lambda")):
    """Alternating O/Sp descriptors with an initial exponent bound."""

    __slots__ = ()

    def __new__(cls, start_kind: str,  # "O" or "Sp"
                groups: tuple[GroupDescriptor, ...], initial_lambda: ExponentVector):
        if start_kind not in ("O", "Sp"):
            raise DomainError("start_kind must be 'O' or 'Sp'")
        if len(groups) < 2:
            raise DomainError("chain needs at least two groups")
        want_orth = start_kind == "O"
        for g in groups:
            if want_orth != isinstance(g, Orthogonal):
                raise DomainError("chain kinds must strictly alternate")
            want_orth = not want_orth
        if len(initial_lambda) != groups[0].rank:
            raise DomainError("initial_lambda must match the rank of the first group")
        return tuple.__new__(cls, (start_kind, groups, initial_lambda))


# ---------------------------------------------------------------------------
# range membership


def in_semistable_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """lambda - n*1 + 2 rho(O(p,q)) < 0 (convergence of the averaging integral)."""
    return _in_range(lam, Orthogonal(p, q), n, 2, True)


def in_semistable_Sp_to_O(lam: ExponentVector, n: int, p: int, q: int) -> bool:
    """lambda - ((p+q)/2)*1 + 2 rho(Sp(2n)) < 0."""
    g = Symplectic(n)
    Orthogonal(p, q)
    return _in_range(lam, g, Fraction(p + q, 2), 2, True)


def in_ss_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """lambda - (n - (p+q)/2)*1 + rho(O(p,q)) <= 0 (positivity region)."""
    g = Orthogonal(p, q)
    return _in_range(lam, g, Fraction(2 * n - (p + q), 2), 1, False)


def in_ss_Sp_to_O(lam: ExponentVector, n: int, p: int, q: int) -> bool:
    """lambda - ((p+q)/2 - n - 1)*1 + rho(Sp(2n)) <= 0."""
    g = Symplectic(n)
    Orthogonal(p, q)
    return _in_range(lam, g, Fraction(p + q, 2) - n - 1, 1, False)


def in_odd_range_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """Odd-parity relaxation: lambda - (n - (p+q-1)/2)*1 + rho(O(p,q)) <= 0."""
    g = Orthogonal(p, q)
    transfer._check_odd(p, q, n)
    return _in_range(lam, g, Fraction(2 * n - (p + q - 1), 2), 1, False)


# (test, dir) -> (predicate, inequality), the template filled with
# lam, p, q, n and two_n; every predicate takes (lam, p=, q=, n=)
RANGE_TESTS = {
    ("semistable", "o2sp"): (in_semistable_O_to_Sp,
                             "{lam} - {n}*1 + 2*rho(O({p},{q})) < 0"),
    ("semistable", "sp2o"): (in_semistable_Sp_to_O,
                             "{lam} - ({p}+{q})/2*1 + 2*rho(Sp({two_n})) < 0"),
    ("ss", "o2sp"): (in_ss_O_to_Sp,
                     "{lam} - ({n} - ({p}+{q})/2)*1 + rho(O({p},{q})) <= 0"),
    ("ss", "sp2o"): (in_ss_Sp_to_O,
                     "{lam} - (({p}+{q})/2 - {n} - 1)*1 + rho(Sp({two_n})) <= 0"),
    ("odd", "o2sp"): (in_odd_range_O_to_Sp,
                      "{lam} - ({n} - ({p}+{q}-1)/2)*1 + rho(O({p},{q})) <= 0"),
}


def _admissible(lam: ExponentVector, src, dst) -> bool:
    """The ss test for transferring the bound lam from group `src` into `dst`."""
    if isinstance(src, Orthogonal):
        return in_ss_O_to_Sp(lam, src.p, src.q, dst.n)
    return in_ss_Sp_to_O(lam, src.n, dst.p, dst.q)


# ---------------------------------------------------------------------------
# one-step size validation


def validate_one_step_O(p: int, q: int, n: int, p2: int, q2: int) -> ValidationReport:
    """Size conditions for Q(p,q; 2n; p2,q2) on the orthogonal side."""
    rep = ValidationReport()
    rep.add("1", "q' >= p' > n", f"({q2},{p2})", str(n), q2 >= p2 > n)
    rep.add(
        "2",
        "p'+q'-2n >= 2n-(p+q)+2 >= 1",
        f"{p2 + q2 - 2 * n}",
        f"{2 * n - (p + q) + 2}",
        p2 + q2 - 2 * n >= 2 * n - (p + q) + 2 >= 1,
    )
    rep.add(
        "3",
        "p+q = p'+q' (mod 2)",
        f"{(p + q) % 2}",
        f"{(p2 + q2) % 2}",
        (p + q) % 2 == (p2 + q2) % 2,
    )
    lhs = Fraction(-(p + q), 2) + n + 1 + n - Fraction(p2 + q2, 2)
    rep.add(
        "derived",
        "-(p+q)/2 + n + 1 + n - (p'+q')/2 <= 0",
        str(lhs),
        "0",
        lhs <= 0,
    )
    return rep


def validate_one_step_Sp(n: int, p: int, q: int, n2: int) -> ValidationReport:
    """Size conditions for Q(2n; p,q; 2n2) on the symplectic side."""
    rep = ValidationReport()
    rep.add(
        "1",
        "2n' - p - q >= p + q - 2n - 2",
        f"{2 * n2 - p - q}",
        f"{p + q - 2 * n - 2}",
        2 * n2 - p - q >= p + q - 2 * n - 2,
    )
    rep.add("2", "n < p <= q", f"{n}", f"({p},{q})", n < p <= q)
    lhs = -n - n2 + p + q - 1
    rep.add("derived", "-n - n' + p + q - 1 <= 0", str(lhs), "0", lhs <= 0)
    return rep


# ---------------------------------------------------------------------------
# chain validation


def validate_chain(chain: DualPairChain) -> ValidationReport:
    """Initial and inductive size conditions plus exponent-bound propagation.

    Each step also records whether the propagated bound stays in the
    admissible region for the next transfer; once a transfer precondition
    fails, the bound propagation stops but the remaining size conditions are
    still reported.
    """
    rep = ValidationReport()
    _chain_initial(chain, rep)
    _chain_inductive(chain, rep)
    _propagate_bounds(chain, rep)
    return rep


def _chain_initial(chain: DualPairChain, rep: ValidationReport) -> None:
    lam = chain.initial_lambda
    src, dst = chain.groups[:2]
    if chain.start_kind == "O":
        p1, q1, n1 = src.p, src.q, dst.n
        rep.add(
            "initial-size",
            "p1 + q1 <= 2 n1 + 1",
            f"{p1 + q1}",
            f"{2 * n1 + 1}",
            p1 + q1 <= 2 * n1 + 1,
        )
    else:
        n1, p1, q1 = src.n, dst.p, dst.q
        rep.add(
            "initial-size", "n1 < p1 <= q1", f"{n1}", f"({p1},{q1})", n1 < p1 <= q1
        )
    _, template = RANGE_TESTS["ss", "o2sp" if chain.start_kind == "O" else "sp2o"]
    ineq = template.format(lam="lambda", p="p1", q="q1", n="n1", two_n="2n1")
    rep.add("initial-ss", ineq, _fmt_vec(lam), "0", _admissible(lam, src, dst))


def _chain_inductive(chain: DualPairChain, rep: ValidationReport) -> None:
    """Parity of consecutive O's, then the size conditions subscript by subscript.

    size[j].1 checks each (Sp, O) pair, size[j].2 each (Sp, O, Sp) window and
    size[j].3 each (O, Sp, O) window.  The group at position i carries the
    subscript i//2 + 1 in both flavours, so subscript j holds positions
    2j-2 and 2j-1: its records are the pair that starts at Sp_j, then the
    windows that start at 2j-2 and 2j-1.  A group in the pair or in the
    window's middle is written with j when it sits at 2j-1, else with {j+1}.
    """
    groups = chain.groups
    orths = [g for g in groups if isinstance(g, Orthogonal)]
    for j, (a, b) in enumerate(zip(orths, orths[1:]), 1):
        rep.add(
            f"parity[{j}]",
            "p_j + q_j = p_{j+1} + q_{j+1} (mod 2)",
            f"{(a.p + a.q) % 2}",
            f"{(b.p + b.q) % 2}",
            (a.p + a.q) % 2 == (b.p + b.q) % 2,
        )
    for j in range(1, len(groups) // 2 + 1):
        first = 2 * j - 2
        i = first if isinstance(groups[first], Symplectic) else first + 1
        if i + 1 < len(groups):
            s, o = groups[i : i + 2]
            x = "j" if i == first else "{j+1}"
            rep.add(f"size[{j}].1", f"n_j < p_{x} <= q_{x}", f"{s.n}", f"({o.p},{o.q})",
                    s.n < o.p <= o.q)
        for start, x in ((first, "j"), (first + 1, "{j+1}")):
            if start + 2 >= len(groups):
                break
            a, b, c = groups[start : start + 3]
            if isinstance(a, Symplectic):
                suffix, lhs, rhs = 2, b.p + b.q - 2 * a.n, 2 * c.n - b.p - b.q + 2
                ineq = f"p_{x} + q_{x} - 2 n_j <= 2 n_{{j+1}} - p_{x} - q_{x} + 2"
            else:
                suffix, lhs, rhs = 3, 2 * b.n - a.p - a.q + 2, c.p + c.q - 2 * b.n
                ineq = f"2 n_{x} - p_j - q_j + 2 <= p_{{j+1}} + q_{{j+1}} - 2 n_{x}"
            rep.add(f"size[{j}].{suffix}", ineq, lhs, rhs, lhs <= rhs)


def _propagate_bounds(chain: DualPairChain, rep: ValidationReport) -> None:
    groups = chain.groups
    lam = chain.initial_lambda
    rep.bounds.append(lam)
    for k, (src, dst) in enumerate(zip(groups, groups[1:])):
        # the target's successor, taken by position: groups may repeat
        nxt = groups[k + 2] if k + 2 < len(groups) else None
        try:
            if isinstance(src, Orthogonal):
                new = transfer.bound_O_to_Sp(src.p, src.q, dst.n, lam)
            else:
                new = transfer.bound_Sp_to_O(src.n, dst.p, dst.q, lam)
            ss_ok = _admissible(new, dst, nxt) if nxt else True
        except DomainError as exc:
            rep.add(f"propagate[{k + 1}]", "transfer precondition", str(exc), "", False)
            return
        rep.bounds.append(new)
        rep.add(
            f"propagate[{k + 1}]",
            "propagated bound admissible for next step",
            _fmt_vec(new),
            "",
            ss_ok,
        )
        lam = new


# ---------------------------------------------------------------------------
# infinitesimal characters


def _descending_string(start: Fraction, end: Fraction) -> list[Fraction]:
    """start, start-1, ..., end; empty when start < end."""
    out = []
    v = start
    while v >= end:
        out.append(v)
        v -= 1
    return out


def infchar_theta(
    direction: str, p: int, q: int, n: int, chi: InfChar
) -> InfChar:
    """One-step infinitesimal-character transport across (O(p,q), Sp(2n)).

    The size trichotomy decides the concatenated string: for p+q < 2n+1 the
    string runs from n-(p+q)/2 down to 1 (p+q even) or 1/2 (odd); for
    2n+1 < p+q it runs from (p+q)/2-n-1 down to 0 (even) or 1/2 (odd);
    each is empty off its own side, so both are appended, and at p+q in
    {2n, 2n+1} the character is unchanged.  `direction` ("o2sp" or "sp2o")
    is validated but does not alter the trichotomy.
    """
    if direction not in ("o2sp", "sp2o"):
        raise DomainError("direction must be 'o2sp' or 'sp2o'")
    Orthogonal(p, q)
    Symplectic(n)
    half = Fraction(p + q, 2)
    frac = half % 1  # 0 for p+q even, 1/2 for odd
    first = _descending_string(n - half, 1 - frac)
    return chi.oplus(first + _descending_string(half - n - 1, frac))


def infchar_Q(kind: str, sizes: Sequence[int], chi: InfChar) -> InfChar:
    """Infinitesimal character after one-step quantum induction.

    kind "O": sizes (p, q, n, p2, q2); kind "Sp": sizes (n, p, q, n2).
    Implements the four even/odd concatenation formulas; degenerate strings
    are empty, never errors.
    """
    if kind == "O":
        p, q, n, p2, q2 = sizes
        half = Fraction(p + q, 2)
        frac = half % 1  # the strings end at 1 - frac and frac
        first = _descending_string(n - half, 1 - frac)
        second = _descending_string(Fraction(p2 + q2, 2) - n - 1, frac)
    elif kind == "Sp":
        n, p, q, n2 = sizes
        half = Fraction(p + q, 2)
        frac = half % 1  # the strings end at frac and 1 - frac
        first = _descending_string(half - n - 1, frac)
        second = _descending_string(n2 - half, 1 - frac)
    else:
        raise DomainError("kind must be 'O' or 'Sp'")
    return chi.oplus(first + second)


def detect_limit_case(kind: str, sizes: Sequence[int]) -> tuple[str, ...]:
    """Which of the three parabolic limit relations the sizes satisfy.

    kind "O" (p, q, n, p2, q2): I when p+q+p'+q' = 4n+2; II when
    2n-p-q+2 = p'+q'-2n and p-p' = q-q'.  kind "Sp" (n, p, q, n2): III when
    n+n'+1 = p+q.  Several tags can hold at once.
    """
    tags: list[str] = []
    if kind == "O":
        p, q, n, p2, q2 = sizes
        if p + q + p2 + q2 == 4 * n + 2:
            tags.append("I")
        if 2 * n - p - q + 2 == p2 + q2 - 2 * n and p - p2 == q - q2:
            tags.append("II")
    elif kind == "Sp":
        n, p, q, n2 = sizes
        if n + n2 + 1 == p + q:
            tags.append("III")
    else:
        raise DomainError("kind must be 'O' or 'Sp'")
    return tuple(tags)


def parabolic_infchar_match(kind: str, sizes: Sequence[int], chi: InfChar) -> bool:
    """Compare quantum-induced and parabolically-induced characters in a limit case.

    Case II (kind "O"): the parabolic side appends the balanced string of
    length m = p'-p centred at zero; case III (kind "Sp") uses m = n'-n.
    Inapplicable sizes raise rather than return False.
    """
    tags = detect_limit_case(kind, sizes)
    if kind == "O":
        if "II" not in tags:
            raise DomainError("sizes do not satisfy the case II relations")
        p, q, n, p2, q2 = sizes
        m = p2 - p
    else:
        if "III" not in tags:
            raise DomainError("sizes do not satisfy the case III relation")
        n, p, q, n2 = sizes
        m = n2 - n
    balanced = [Fraction(m - 1, 2) - k for k in range(m)]
    parabolic = chi.oplus(balanced)
    return parabolic == infchar_Q(kind, sizes, chi)


# ---------------------------------------------------------------------------
# associated varieties (conjectural)


class AVPrediction(_record("AVPrediction", "partition conjectural", defaults=(True,))):
    """The predicted partition, and conjectural: True, as it rests on a conjecture."""

    __slots__ = ()


def predict_associated_variety(
    kind: str, sizes: Sequence[int], d: Partition
) -> AVPrediction:
    """Conjectural associated variety of the quantum-induced representation.

    Prepends (p'+q'-2n, 2n-p-q) (kind "O") or (2n'-p-q, p+q-2n) (kind "Sp")
    to the transpose of d and transposes back.  The prepended sequence must
    itself be a partition shape, otherwise the sizes are incompatible.
    """
    if kind == "O":
        p, q, n, p2, q2 = sizes
        pre = [p2 + q2 - 2 * n, 2 * n - p - q]
    elif kind == "Sp":
        n, p, q, n2 = sizes
        pre = [2 * n2 - p - q, p + q - 2 * n]
    else:
        raise DomainError("kind must be 'O' or 'Sp'")
    dt = transpose(d)
    seq = pre + list(dt.parts)
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)) or any(
        x < 0 for x in seq
    ):
        raise DomainError("sizes incompatible with conjecture shape")
    ft = Partition([x for x in seq if x > 0])
    return AVPrediction(partition=transpose(ft))
