"""Range membership, chained dual-pair validation, and infinitesimal characters.

Size tuples follow the two chain flavours:

  orthogonal-first   Q(p,q; 2n; p',q')   sizes (p, q, n, p2, q2)
  symplectic-first   Q(2n; p,q; 2n')     sizes (n, p, q, n2)

Condition failures are report entries, never exceptions, so a whole chain can
be diagnosed end to end.  The associated-variety arithmetic is conjectural
and flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import transfer
from .vectors import (
    DomainError,
    ExponentVector,
    GroupDescriptor,
    InfChar,
    Orthogonal,
    Partition,
    Symplectic,
    rho_shift,
    strictly_dominated,
    transpose,
    weakly_dominated,
)


@dataclass(frozen=True)
class StepRecord:
    id: str
    inequality: str
    lhs: str
    rhs: str
    ok: bool


@dataclass
class ValidationReport:
    steps: list[StepRecord] = field(default_factory=list)
    bounds: list[ExponentVector] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(s.ok for s in self.steps)

    def add(self, id: str, inequality: str, lhs, rhs, ok: bool) -> None:
        self.steps.append(StepRecord(id, inequality, str(lhs), str(rhs), ok))


@dataclass(frozen=True)
class DualPairChain:
    """Alternating O/Sp descriptors with an initial exponent bound."""

    start_kind: str  # "O" or "Sp"
    groups: tuple[GroupDescriptor, ...]
    initial_lambda: ExponentVector

    def __post_init__(self):
        if self.start_kind not in ("O", "Sp"):
            raise DomainError("start_kind must be 'O' or 'Sp'")
        if len(self.groups) < 2:
            raise DomainError("chain needs at least two groups")
        want_orth = self.start_kind == "O"
        for g in self.groups:
            if want_orth != isinstance(g, Orthogonal):
                raise DomainError("chain kinds must strictly alternate")
            want_orth = not want_orth
        first = self.groups[0]
        if len(self.initial_lambda) != first.rank:
            raise DomainError("initial_lambda must match the rank of the first group")


# ---------------------------------------------------------------------------
# range membership


def in_semistable_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """lambda - n*1 + 2 rho(O(p,q)) < 0 (convergence of the averaging integral)."""
    return strictly_dominated(rho_shift(lam, Orthogonal(p, q), n, 2))


def in_semistable_Sp_to_O(lam: ExponentVector, n: int, p: int, q: int) -> bool:
    """lambda - ((p+q)/2)*1 + 2 rho(Sp(2n)) < 0."""
    g = Symplectic(n)
    Orthogonal(p, q)
    return strictly_dominated(rho_shift(lam, g, Fraction(p + q, 2), 2))


def in_ss_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """lambda - (n - (p+q)/2)*1 + rho(O(p,q)) <= 0 (positivity region)."""
    g = Orthogonal(p, q)
    return weakly_dominated(rho_shift(lam, g, Fraction(2 * n - (p + q), 2), 1))


def in_ss_Sp_to_O(lam: ExponentVector, n: int, p: int, q: int) -> bool:
    """lambda - ((p+q)/2 - n - 1)*1 + rho(Sp(2n)) <= 0."""
    g = Symplectic(n)
    Orthogonal(p, q)
    return weakly_dominated(rho_shift(lam, g, Fraction(p + q, 2) - n - 1, 1))


def in_odd_range_O_to_Sp(lam: ExponentVector, p: int, q: int, n: int) -> bool:
    """Odd-parity relaxation: lambda - (n - (p+q-1)/2)*1 + rho(O(p,q)) <= 0."""
    g = Orthogonal(p, q)
    if (p + q) % 2 == 0:
        raise DomainError("p+q must be odd")
    if p + q > 2 * n + 1:
        raise DomainError("requires p+q <= 2n+1")
    c = Fraction(2 * n - (p + q - 1), 2)
    return weakly_dominated(rho_shift(lam, g, c, 1))


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
    if chain.start_kind == "O":
        o1, s1 = chain.groups[:2]
        p1, q1, n1 = o1.p, o1.q, s1.n
        rep.add(
            "initial-size",
            "p1 + q1 <= 2 n1 + 1",
            f"{p1 + q1}",
            f"{2 * n1 + 1}",
            p1 + q1 <= 2 * n1 + 1,
        )
        ineq = "lambda - (n1 - (p1+q1)/2)*1 + rho(O(p1,q1)) <= 0"
        ok = in_ss_O_to_Sp(lam, p1, q1, n1)
    else:
        s1, o1 = chain.groups[:2]
        n1, p1, q1 = s1.n, o1.p, o1.q
        rep.add(
            "initial-size", "n1 < p1 <= q1", f"{n1}", f"({p1},{q1})", n1 < p1 <= q1
        )
        ineq = "lambda - ((p1+q1)/2 - n1 - 1)*1 + rho(Sp(2n1)) <= 0"
        ok = in_ss_Sp_to_O(lam, n1, p1, q1)
    rep.add("initial-ss", ineq, _fmt_vec(lam), "0", ok)


def _chain_inductive(chain: DualPairChain, rep: ValidationReport) -> None:
    """Parity of consecutive O's, then the size conditions window by window.

    size[j].1 checks each (Sp, O) pair, size[j].2 each (Sp, O, Sp) window and
    size[j].3 each (O, Sp, O) window.  The group at position i carries the
    subscript i//2 + 1 in both flavours, so the O after Sp_j is O_{j+1} in
    O-first chains and O_j in Sp-first ones; j is the subscript of the
    window's first group.  Records are reported by (j, end position, suffix).
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

    def sub(i: int, j: int) -> str:
        return "j" if i // 2 + 1 == j else "{j+1}"

    records = []
    for end in range(1, len(groups)):
        s, o = groups[end - 1], groups[end]
        if isinstance(s, Symplectic):
            j = (end - 1) // 2 + 1
            x = sub(end, j)
            ok = s.n < o.p <= o.q
            ineq = f"n_j < p_{x} <= q_{x}"
            records.append(((j, end, 1), ineq, f"{s.n}", f"({o.p},{o.q})", ok))
        if end < 2:
            continue
        a, b, c = groups[end - 2 : end + 1]
        j = (end - 2) // 2 + 1
        x = sub(end - 1, j)
        if isinstance(a, Symplectic):
            suffix, lhs, rhs = 2, b.p + b.q - 2 * a.n, 2 * c.n - b.p - b.q + 2
            ineq = f"p_{x} + q_{x} - 2 n_j <= 2 n_{{j+1}} - p_{x} - q_{x} + 2"
        else:
            suffix, lhs, rhs = 3, 2 * b.n - a.p - a.q + 2, c.p + c.q - 2 * b.n
            ineq = f"2 n_{x} - p_j - q_j + 2 <= p_{{j+1}} + q_{{j+1}} - 2 n_{x}"
        records.append(((j, end, suffix), ineq, f"{lhs}", f"{rhs}", lhs <= rhs))
    for (j, _, suffix), ineq, lhs, rhs, ok in sorted(records, key=lambda r: r[0]):
        rep.add(f"size[{j}].{suffix}", ineq, lhs, rhs, ok)


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
                ss_ok = in_ss_Sp_to_O(new, dst.n, nxt.p, nxt.q) if nxt else True
            else:
                new = transfer.bound_Sp_to_O(src.n, dst.p, dst.q, lam)
                ss_ok = in_ss_O_to_Sp(new, dst.p, dst.q, nxt.n) if nxt else True
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
    at p+q in {2n, 2n+1} the character is unchanged.  `direction` ("o2sp"
    or "sp2o") is validated but does not alter the trichotomy.
    """
    if direction not in ("o2sp", "sp2o"):
        raise DomainError("direction must be 'o2sp' or 'sp2o'")
    Orthogonal(p, q)
    Symplectic(n)
    m = p + q
    half = Fraction(m, 2)
    if m < 2 * n + 1:
        string = _descending_string(n - half, 1 + (m // 2) - half)
    elif m > 2 * n + 1:
        string = _descending_string(half - n - 1, half - (m // 2))
    else:
        string = []
    return chi.oplus(string)


def infchar_Q(kind: str, sizes: Sequence[int], chi: InfChar) -> InfChar:
    """Infinitesimal character after one-step quantum induction.

    kind "O": sizes (p, q, n, p2, q2); kind "Sp": sizes (n, p, q, n2).
    Implements the four even/odd concatenation formulas; degenerate strings
    are empty, never errors.
    """
    if kind == "O":
        p, q, n, p2, q2 = sizes
        half = Fraction(p + q, 2)
        half2 = Fraction(p2 + q2, 2)
        if (p + q) % 2 == 0:
            first = _descending_string(n - half, Fraction(1))
            second = _descending_string(half2 - n - 1, Fraction(0))
        else:
            first = _descending_string(n - half, Fraction(1, 2))
            second = _descending_string(half2 - n - 1, Fraction(1, 2))
        return chi.oplus(first + second)
    if kind == "Sp":
        n, p, q, n2 = sizes
        half = Fraction(p + q, 2)
        if (p + q) % 2 == 0:
            first = _descending_string(half - n - 1, Fraction(0))
            second = _descending_string(n2 - half, Fraction(1))
        else:
            first = _descending_string(half - n - 1, Fraction(1, 2))
            second = _descending_string(n2 - half, Fraction(1, 2))
        return chi.oplus(first + second)
    raise DomainError("kind must be 'O' or 'Sp'")


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


@dataclass(frozen=True)
class AVPrediction:
    partition: Partition
    conjectural: bool = True


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


def _fmt_vec(entries) -> str:
    return "(" + ",".join(str(Fraction(e)) for e in entries) + ")"
