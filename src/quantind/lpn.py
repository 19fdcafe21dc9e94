"""The transfer map L(p, n) via the breakpoint-greedy assignment.

Given lambda < 0 (all prefix sums strictly negative, length p), the map
produces mu >= 0 of length n by water-filling an n x p matrix eta of weights
in [0, 1] under cumulative budget constraints at the breakpoint indices, and
returns -mu.  All arithmetic is exact rational.

`lpn_oracle` re-derives the result by enumerating the feasible constraint
structures (equality vs. saturated block at each breakpoint) and taking the
lexicographic maximum of the row sums; it shares the row fill
`_lex_max_rows` with the greedy path but not the choice of block totals, and
is the validation oracle for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .vectors import DomainError, ExponentVector, strictly_dominated


@dataclass(frozen=True)
class BreakpointSequence:
    """Indices 1 <= j_1 < ... < j_m = p with strictly increasing budgets.

    budgets[s] is the cumulative cap -sum(lambda[:j_s]) active at j_s.
    """

    indices: tuple[int, ...]
    budgets: tuple[Fraction, ...]


@dataclass(frozen=True)
class EtaAssignment:
    """The greedy block totals and row sums witnessing an L(p,n) value."""

    mu: tuple[Fraction, ...]
    totals: tuple[Fraction, ...]  # per block between consecutive breakpoints
    block_structure: BreakpointSequence
    cases: tuple[str, ...]  # "ar2" (cumulative equality) or "ar3" (all ones)

    @property
    def eta(self) -> tuple[tuple[Fraction, ...], ...]:
        """The n x p weight matrix, built from the block totals on each read.

        Each block total is spread over rows 1, 2, ... in order, each row
        taking min(w, rest), columns filled left to right.
        """
        indices = self.block_structure.indices
        eta = [[Fraction(0)] * indices[-1] for _ in self.mu]
        for prev, j, rest in zip((0,) + indices[:-1], indices, self.totals):
            for row in eta:
                if rest == 0:
                    break
                left = min(Fraction(j - prev), rest)
                rest -= left
                for i in range(prev, j):
                    row[i] = min(Fraction(1), left)
                    left -= row[i]
        return tuple(tuple(row) for row in eta)


@dataclass(frozen=True)
class LpnResult:
    mu: ExponentVector
    output: ExponentVector
    witness: EtaAssignment


def breakpoints(lam: ExponentVector, p: int | None = None) -> BreakpointSequence:
    """Greatest-index minimizers of the running caps -sum(lambda[:j]).

    j_1 is the greatest index attaining the minimum of -sum(lambda[:j]) over
    j in [1, p]; each later j_{s+1} is the greatest minimizer over
    [j_s + 1, p].  The recursion always terminates with j_m = p and the
    budgets strictly increase.
    """
    p = _check_dims(lam, p)
    caps = [-s for s in lam.prefix_sums()]  # caps[j-1] = -sum(lambda[:j])
    indices: list[int] = []
    budgets: list[Fraction] = []
    lo = 0
    while lo < p:
        best = min(caps[lo:])
        j = max(i for i in range(lo, p) if caps[i] == best) + 1  # 1-based
        indices.append(j)
        budgets.append(caps[j - 1])
        lo = j
    return BreakpointSequence(tuple(indices), tuple(budgets))


def greedy_eta(lam: ExponentVector, p: int | None, n: int) -> EtaAssignment:
    """Row-major water filling of the blocks between consecutive breakpoints.

    A block (j_{s-1}, j_s] of width w takes the remaining cumulative budget
    R as its total.  If the whole block at weight one sits strictly under
    budget (n*w < R) the block is saturated with total n*w instead and the
    slack carries into later blocks.  Filling each total into rows 1, 2, ...
    in order gives the row sums `_lex_max_rows`; eta itself is built only
    when read.
    """
    p = _check_dims(lam, p)
    if n < 1:
        raise DomainError("n must be >= 1")
    bps = breakpoints(lam, p)
    widths = _widths(bps)
    totals: list[Fraction] = []
    cases: list[str] = []
    assigned = Fraction(0)
    for w, budget in zip(widths, bps.budgets):
        remaining = budget - assigned
        saturated = n * w < remaining
        totals.append(Fraction(n * w) if saturated else remaining)
        cases.append("ar3" if saturated else "ar2")
        assigned += totals[-1]
    mu = _lex_max_rows(totals, widths, n)
    return EtaAssignment(mu, tuple(totals), bps, tuple(cases))


def lpn(lam: ExponentVector, p: int | None, n: int) -> LpnResult:
    """L(p,n)(lambda) = -mu with the greedy witness attached."""
    witness = greedy_eta(lam, p, n)
    mu = ExponentVector(witness.mu)
    return LpnResult(mu=mu, output=-mu, witness=witness)


def check_assignment(lam: ExponentVector, assignment: EtaAssignment) -> bool:
    """Re-verify the witness invariants independently of how it was built.

    Checks 0 <= eta <= 1, that mu holds the row sums of eta and does not
    increase, and that each breakpoint carries either the cumulative equality
    or a fully saturated block with strict inequality.
    """
    eta = assignment.eta
    p = len(lam)
    if any(len(row) != p for row in eta):
        return False
    if any(not (0 <= cell <= 1) for row in eta for cell in row):
        return False
    mu = assignment.mu
    if mu != tuple(sum(row, Fraction(0)) for row in eta):
        return False
    if any(mu[k] < mu[k + 1] for k in range(len(mu) - 1)):
        return False
    caps = [-s for s in lam.prefix_sums()]
    prev = 0
    for j in assignment.block_structure.indices:
        cum = sum(
            (eta[k][i] for k in range(len(eta)) for i in range(j)), Fraction(0)
        )
        if cum == caps[j - 1]:
            pass
        elif cum < caps[j - 1] and all(
            eta[k][i] == 1 for k in range(len(eta)) for i in range(prev, j)
        ):
            pass
        else:
            return False
        prev = j
    return True


def lpn_oracle(
    lam: ExponentVector, p: int | None, n: int, max_cells: int = 16
) -> ExponentVector:
    """Lexicographic maximization of mu over all admissible constraint choices.

    Each breakpoint block independently demands either cumulative equality
    with its budget or full saturation under strict inequality; the oracle
    enumerates every combination, keeps the feasible ones, and for each one
    maximizes (mu_1, mu_2, ...) lexicographically given the implied block
    totals.  Small instances only.
    """
    p = _check_dims(lam, p)
    if n < 1:
        raise DomainError("n must be >= 1")
    if p * n > max_cells:
        raise DomainError(f"oracle limited to {max_cells} cells, got {p * n}")
    bps = breakpoints(lam, p)
    m = len(bps.indices)
    widths = _widths(bps)
    best: tuple[Fraction, ...] | None = None
    for combo in product(("eq", "sat"), repeat=m):
        totals: list[Fraction] = []
        cum = Fraction(0)
        feasible = True
        for choice, w, budget in zip(combo, widths, bps.budgets):
            if choice == "eq":
                t = budget - cum
                if t < 0 or t > n * w:
                    feasible = False
                    break
            else:
                t = Fraction(n * w)
                if cum + t >= budget:
                    feasible = False
                    break
            totals.append(t)
            cum += t
        if not feasible:
            continue
        mu = _lex_max_rows(totals, widths, n)
        if best is None or mu > best:
            best = mu
    if best is None:
        raise DomainError("no feasible constraint structure (lambda not < 0?)")
    return ExponentVector(-v for v in best)


def _lex_max_rows(
    totals: list[Fraction], widths: list[int], n: int
) -> tuple[Fraction, ...]:
    """Largest (mu_1, ..., mu_n) in lexicographic order given per-block totals.

    Cells are capped at one, so a row takes at most the block width: a block
    of width w and total t <= n*w gives w to each of its first floor(t/w)
    rows and the remainder to the next row.  The blocks are summed through a
    difference array, in O(n + m) rather than cell by cell.
    """
    diff = [Fraction(0)] * (n + 1)
    for t, w in zip(totals, widths):
        full, part = divmod(t, w)
        diff[0] += w
        diff[full] -= w
        if part:  # t < n*w here, so row full + 1 exists in diff
            diff[full] += part
            diff[full + 1] -= part
    return tuple(accumulate(diff[:n]))


def _widths(bps: BreakpointSequence) -> list[int]:
    return [j - prev for prev, j in zip((0,) + bps.indices[:-1], bps.indices)]


def _check_dims(lam: ExponentVector, p: int | None) -> int:
    if p is not None and p != len(lam):
        raise DomainError(f"lambda has length {len(lam)}, expected p={p}")
    if not strictly_dominated(lam):
        raise DomainError("lambda must satisfy lambda < 0 (all prefix sums negative)")
    return len(lam)
