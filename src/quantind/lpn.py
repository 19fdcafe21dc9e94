"""The transfer map L(p, n) via the breakpoint-greedy assignment.

Given lambda < 0 (all prefix sums strictly negative, length p), the map
produces mu >= 0 of length n by water-filling an n x p matrix eta of weights
in [0, 1] under cumulative budget constraints at the breakpoint indices, and
returns -mu.  The breakpoints are the strict suffix minima of the running
caps -sum(lambda[:j]).  All arithmetic is exact: it runs on Python ints,
D lambda and its caps and block totals, with D the lcm of lambda's
denominators, and each public field (budgets, block totals, mu, the
output) is built once as Fraction(v, D).  One core, `_greedy`, gives the
block totals and the row sums D mu from D and D lambda: `lpn` builds its
fields from it, the transfer bounds their output.  `check_assignment` and
`EtaAssignment.eta` stay in Fractions: the independent check and the display.

`lpn_oracle` re-derives the result by enumerating the feasible constraint
structures (equality vs. saturated block at each breakpoint) and taking the
lexicographic maximum of the row sums; it shares the row fill
`_lex_max_rows` with the greedy path but not the choice of block totals, and
is the validation oracle for small instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

from .vectors import DomainError, ExponentVector, _over, _record, _size

ORACLE_MAX_CELLS = 16  # the oracle enumerates 2^m structures, m <= p


class BreakpointSequence(_record("BreakpointSequence", "indices budgets")):
    """Indices 1 <= j_1 < ... < j_m = p with strictly increasing budgets.

    budgets[s] is the cumulative cap -sum(lambda[:j_s]) active at j_s.
    """

    __slots__ = ()


class EtaAssignment(_record("EtaAssignment", "mu totals block_structure cases")):
    """The greedy block totals and row sums witnessing an L(p,n) value: totals
    and cases hold one entry per block between consecutive breakpoints, the
    case "ar2" (cumulative equality) or "ar3" (all ones)."""

    __slots__ = ()

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


class LpnResult(_record("LpnResult", "mu output witness")):
    """mu, the output L(p,n)(lambda) = -mu and the EtaAssignment witness."""

    __slots__ = ()


def breakpoints(lam: ExponentVector, p: int | None = None) -> BreakpointSequence:
    """Greatest-index minimizers of the running caps -sum(lambda[:j]).

    j_1 is the greatest index attaining the minimum of -sum(lambda[:j]) over
    j in [1, p]; each later j_{s+1} is the greatest minimizer over
    [j_s + 1, p].  The recursion always terminates with j_m = p and the
    budgets strictly increase.
    """
    return lpn(lam, p, 1).witness.block_structure


def greedy_eta(lam: ExponentVector, p: int | None, n: int) -> EtaAssignment:
    """Row-major water filling of the blocks between consecutive breakpoints.

    A block (j_{s-1}, j_s] of width w takes the remaining cumulative budget
    R as its total.  If the whole block at weight one sits strictly under
    budget (n*w < R) the block is saturated with total n*w instead and the
    slack carries into later blocks.  Filling each total into rows 1, 2, ...
    in order gives the row sums `_lex_max_rows`; eta itself is built only
    when read.
    """
    return lpn(lam, p, n).witness


def lpn(lam: ExponentVector, p: int | None, n: int) -> LpnResult:
    """L(p,n)(lambda) = -mu with the greedy witness attached (same mu tuple)."""
    D, xs = lam.scaled()
    indices, budgets, totals, cases, rows = _greedy(D, xs, p, n)
    mu = ExponentVector._from_ints(D, rows)
    bps = BreakpointSequence(tuple(indices), _over(budgets, D))
    witness = EtaAssignment(mu.entries, _over(totals, D), bps, tuple(cases))
    return LpnResult(mu, ExponentVector._from_ints(D, [-v for v in rows]), witness)


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


def lpn_oracle(lam: ExponentVector, p: int | None, n: int) -> ExponentVector:
    """Lexicographic maximization of mu over all admissible constraint choices.

    Each breakpoint block independently demands either cumulative equality
    with its budget or full saturation under strict inequality; the oracle
    enumerates every combination, keeps the feasible ones, and for each one
    maximizes (mu_1, mu_2, ...) lexicographically given the implied block
    totals.  Small instances only: at most ORACLE_MAX_CELLS cells p*n.
    """
    D, xs = lam.scaled()
    n, indices, widths, budgets = _blocks(xs, p, n)
    cells = len(lam) * n
    if cells > ORACLE_MAX_CELLS:
        raise DomainError(f"oracle limited to {ORACLE_MAX_CELLS} cells, got {cells}")
    best: list[int] = []  # never left empty: the greedy's own eq/sat choice is feasible
    for combo in product(("eq", "sat"), repeat=len(indices)):
        totals: list[int] = []
        cum = 0
        for choice, w, budget in zip(combo, widths, budgets):
            full = n * w * D
            if choice == "eq":
                t = budget - cum
                if t < 0 or t > full:
                    break
            else:
                t = full
                if cum + t >= budget:
                    break
            totals.append(t)
            cum += t
        else:  # feasible
            best = max(best, _lex_max_rows(totals, widths, n, D))
    return ExponentVector._from_ints(D, [-v for v in best])


def _blocks(xs: list[int], p: int | None, n: int):
    """From D*lambda: the checked n, the breakpoint indices, the block
    widths and the budgets times D, with the errors in the order they are
    reported.

    j is a greatest suffix minimizer exactly when every later cap is
    larger: one right-to-left pass finds these minima.  Every cap must be
    positive: this is the lambda < 0 check of `lpn`.
    """
    n = _size(n)
    if p is not None and _size(p) != len(xs):
        raise DomainError(f"lambda has length {len(xs)}, expected p={p}")
    caps = [-s for s in accumulate(xs)]  # caps[j-1] = -D sum(lambda[:j])
    if min(caps) <= 0:
        raise DomainError("lambda must satisfy lambda < 0 (all prefix sums negative)")
    indices = [len(caps)]
    for j in range(len(caps) - 1, 0, -1):
        if caps[j - 1] < caps[indices[-1] - 1]:
            indices.append(j)
    indices.reverse()
    if n < 1:
        raise DomainError("n must be >= 1")
    widths = [j - prev for prev, j in zip([0] + indices[:-1], indices)]
    return n, indices, widths, [caps[j - 1] for j in indices]


def _greedy(D: int, xs: list[int], p: int | None, n: int):
    """The greedy on ints, from D and D*lambda: the breakpoint indices, the
    budgets, the block totals and cases, and the row sums D*mu, each value
    over D.  `lpn` and the transfer bounds both run this."""
    n, indices, widths, budgets = _blocks(xs, p, n)
    totals: list[int] = []
    cases: list[str] = []
    assigned = 0
    for w, budget in zip(widths, budgets):
        remaining, full = budget - assigned, n * w * D
        saturated = full < remaining
        totals.append(full if saturated else remaining)
        cases.append("ar3" if saturated else "ar2")
        assigned += totals[-1]
    return indices, budgets, totals, cases, _lex_max_rows(totals, widths, n, D)


def _lex_max_rows(totals: list[int], widths: list[int], n: int, D: int) -> list[int]:
    """Largest (mu_1, ..., mu_n) in lexicographic order given per-block
    totals, all times D.

    Cells are capped at one, so a row takes at most the block width: a block
    of width w and total t <= n*w gives w to each of its first floor(t/w)
    rows and the remainder to the next row.  The blocks are summed through a
    difference array, in O(n + m) rather than cell by cell.
    """
    diff = [0] * (n + 1)
    for t, w in zip(totals, widths):
        w *= D
        full, part = divmod(t, w)
        diff[0] += w
        diff[full] -= w
        if part:  # t < n*w here, so row full + 1 exists in diff
            diff[full] += part
            diff[full + 1] -= part
    return list(accumulate(diff[:n]))

