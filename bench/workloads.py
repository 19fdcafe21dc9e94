"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload turns a seed into a *deck*, a list of operations that the timed
loop replays pass after pass.  Every call the benchmark makes into a quantind
layer goes through `tracer.call(<span name>, fn, ...)`; span names start with
the layer (module) name and are what the per-layer metrics aggregate.

An operation *fails* when it raises where no exception is the right answer,
returns a non-finite or non-positive integral, fails its independent check,
or, for the CLI, exits with the wrong code or prints the wrong text.  Ops
marked `known_defect` probe defects that are documented at the parent commit
(long rays in `twisted`); they count as failures like any other but do not
make the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_TABLE = os.path.join(HERE, "references.json")


@dataclass
class Op:
    kind: str
    args: tuple
    expect_error: bool = False  # a DomainError is the correct outcome
    known_defect: bool = False
    tag: str = ""
    # quantind objects built from `args` before the timed loop
    inputs: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class Raised:
    """What the timed loop records when a call raises."""

    exc_type: str
    message: str


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def neg_vector(rng: random.Random, p: int, weak: bool = False) -> list[Fraction]:
    """Random half-integers whose prefix sums are all < 0 (<= 0 if weak)."""
    out, acc = [], Fraction(0)
    for _ in range(p):
        x = _rational(rng, -3, 2)
        if acc + x > 0 or (acc + x == 0 and not weak):
            x = -acc - _rational(rng, 0 if weak else 1, 2) / 2
            if not weak and acc + x >= 0:
                x = -acc - Fraction(1, 2)
        out.append(x)
        acc += x
    return out


# ---------------------------------------------------------------------------
# exact-sweep

# Shapes and chain lengths are fixed per round and only the values come from
# the seed, so that every seed asks for the same amount of work.
LPN_SHAPES = ((3, 4), (8, 8), (32, 32), (128, 128), (4, 128), (128, 4),
              (1, 1), (2, 2), (2, 4), (4, 4), (16, 16), (2, 32))
CHAIN_LENGTHS = (2, 4, 6, 9, 12, 20)
FAULTS = ("parity", "size", "repeat")


def chain_groups(rng: random.Random, start: str, ngroups: int,
                 shape: int) -> list[tuple]:
    """Alternating groups that satisfy the size and parity conditions.

    ("O", p, q) and ("Sp", n) tuples.  `shape` fixes the first Sp rank and
    the parity of p+q, which set every later size: each is the smallest one
    the chain inequalities allow (an excess would only grow along the chain).
    The seeded `rng` only splits the first p+q into p and q.
    """
    groups: list[tuple] = []
    n = 1 + shape % 3
    extra = (shape // 3) % 2
    if start == "O":
        m = 2 * n + 1 - extra
        p = rng.randint(1, m // 2)
        groups += [("O", p, m - p), ("Sp", n)]
    else:
        p = n + 1
        m = 2 * p + extra
        groups += [("Sp", n), ("O", p, m - p)]
    parity = m % 2
    while len(groups) < ngroups:
        if groups[-1][0] == "Sp":
            # next O after Sp(2n) following O of total size m
            p = n + 1
            lo = max(2 * p, 4 * n - m + 2)
            m_new = lo + ((lo - parity) % 2)
            groups.append(("O", p, m_new - p))
            m = m_new
        else:
            # next Sp after O of total size m following Sp(2n)
            n = max(1, m - n - 1)
            groups.append(("Sp", n))
    return groups[:ngroups]


def inject_fault(rng: random.Random, groups: list[tuple], fault: str) -> list[tuple]:
    groups = list(groups)
    orths = [i for i, g in enumerate(groups) if g[0] == "O"]
    if fault == "parity" and len(orths) >= 2:
        i = rng.choice(orths[1:])
        groups[i] = ("O", groups[i][1], groups[i][2] + 1)
    elif fault == "size":
        i = rng.randrange(1, len(groups))
        prev = groups[i - 1]
        if groups[i][0] == "O":
            p = max(1, prev[1] - rng.randint(0, 1))
            groups[i] = ("O", p, max(p, groups[i][2]))
        else:
            groups[i] = ("Sp", max(1, prev[1] // 2))
    else:
        # the first two groups again, as in O(1,1), Sp(6), O(1,1), Sp(6)
        groups = [groups[i % 2] for i in range(len(groups))]
    return groups


def initial_lambda(rng: random.Random, start: str, groups: list[tuple]) -> list[Fraction]:
    """A vector in the initial ss range of the chain (boundary included)."""
    if start == "O":
        (_, p, q), (_, n) = groups[0], groups[1]
        c = Fraction(2 * n - (p + q), 2)
        base = refs.rho_O(p, q)
    else:
        (_, n), (_, p, q) = groups[0], groups[1]
        c = Fraction(p + q, 2) - n - 1
        base = refs.rho_Sp(n)
    x = neg_vector(rng, len(base), weak=True)
    return [xi + c - b for xi, b in zip(x, base)]


def o_step_sizes(rng: random.Random) -> tuple[int, ...]:
    """(p, q, n, p2, q2) satisfying the one-step O conditions."""
    while True:
        n = rng.randint(1, 8)
        p = rng.randint(1, n + 1)
        q = rng.randint(p, 2 * n + 1 - p) if 2 * n + 1 - p >= p else p
        p2 = n + 1 + rng.randint(0, 2)
        lo = max(2 * p2, 4 * n - (p + q) + 2)
        m2 = lo + ((lo - (p + q)) % 2) + 2 * rng.randint(0, 1)
        sizes = (p, q, n, p2, m2 - p2)
        if _o_step_ok(*sizes):
            return sizes


def _o_step_ok(p, q, n, p2, q2) -> bool:
    return (
        q2 >= p2 > n
        and p2 + q2 - 2 * n >= 2 * n - (p + q) + 2 >= 1
        and (p + q) % 2 == (p2 + q2) % 2
    )


def sp_step_sizes(rng: random.Random) -> tuple[int, ...]:
    """(n, p, q, n2) satisfying the one-step Sp conditions."""
    n = rng.randint(1, 8)
    p = n + 1 + rng.randint(0, 2)
    q = p + rng.randint(0, 3)
    n2 = max(1, p + q - n - 1) + rng.randint(0, 2)
    return (n, p, q, n2)


class ExactSweep:
    name = "exact-sweep"
    rounds = 12

    def __init__(self):
        import quantind

        self.q = quantind

    def deck(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops: list[Op] = []
        for r in range(self.rounds):
            for p, n in LPN_SHAPES:
                ops.append(Op("lpn", (neg_vector(rng, p), p, n)))
            for direction in ("o2sp", "sp2o", "o2sp", "sp2o"):
                ops.append(self._transfer_op(rng, direction, admissible=True))
            ops.append(self._transfer_op(rng, rng.choice(("o2sp", "sp2o")),
                                         admissible=False))
            # one faulty chain per round; which length and which fault follow
            # the round, since a fault can cut a chain's cost short
            fault_at = r % len(CHAIN_LENGTHS)
            for k, length in enumerate(CHAIN_LENGTHS):
                start = ("O", "Sp")[(r + k) % 2]
                groups = chain_groups(rng, start, length, r + k)
                lam = initial_lambda(rng, start, groups)
                if k == fault_at:
                    fault = FAULTS[(r + r // len(CHAIN_LENGTHS)) % len(FAULTS)]
                    groups = inject_fault(rng, groups, fault)
                ops.append(Op("chain", (start, groups, lam),
                              tag="long" if length >= 12 else "short"))
            chi = [_rational(rng, -4, 4) for _ in range(rng.randint(1, 3))]
            ops.append(Op("infchar", ("O", o_step_sizes(rng), chi)))
            ops.append(Op("infchar", ("Sp", sp_step_sizes(rng), chi)))
            ops.append(Op("parabolic", self._limit_case(rng) + (chi,)))
            for test in ("semistable", "ss", "odd"):
                ops.append(self._range_op(rng, test))
            ops.append(Op("rho", (rng.choice(("O", "Sp")), rng.randint(1, 12),
                                  rng.randint(0, 6))))
            for weak in (False, True):
                x = neg_vector(rng, 12, weak=True)
                if rng.random() < 0.3:
                    x[rng.randrange(len(x))] += 3
                ops.append(Op("order", (weak, x)))
        rng.shuffle(ops)
        for op in ops:
            op.inputs = self._inputs(op)
        return ops

    def _inputs(self, op: Op) -> tuple:
        q = self.q
        ev = q.ExponentVector
        a = op.args
        if op.kind == "lpn":
            return ev(a[0]), a[1], a[2]
        if op.kind == "transfer":
            direction, p, qq, n, lam = a
            if direction == "o2sp":
                return q.bound_O_to_Sp, p, qq, n, ev(lam)
            return q.bound_Sp_to_O, n, p, qq, ev(lam)
        if op.kind == "chain":
            return (make_chain(q, *a),)
        if op.kind in ("infchar", "parabolic"):
            return (q.InfChar(a[2]),)
        if op.kind == "range":
            test, direction, p, qq, n, lam = a
            if direction == "o2sp":
                fn = {"semistable": q.in_semistable_O_to_Sp, "ss": q.in_ss_O_to_Sp,
                      "odd": q.in_odd_range_O_to_Sp}[test]
                return fn, ev(lam), p, qq, n
            fn = {"semistable": q.in_semistable_Sp_to_O, "ss": q.in_ss_Sp_to_O}[test]
            return fn, ev(lam), n, p, qq
        if op.kind == "rho":
            kind, x, y = a
            return (q.Orthogonal(x, x + y) if kind == "O" else q.Symplectic(x),)
        if op.kind == "order":
            weak, x = a
            return (q.weakly_dominated if weak else q.strictly_dominated), ev(x)
        raise ValueError(op.kind)

    @staticmethod
    def _transfer_op(rng, direction, admissible):
        p = rng.randint(1, 8)
        q = p + rng.randint(0, 6)
        n = rng.randint(1, 12)
        length = p if direction == "o2sp" else n
        shifted = neg_vector(rng, length)
        if not admissible:
            shifted[0] = Fraction(rng.randint(0, 3))
        if direction == "o2sp":
            lam = [s - 2 * r + n for s, r in zip(shifted, refs.rho_O(p, q))]
        else:
            half = Fraction(p + q, 2)
            lam = [s - 2 * r + half for s, r in zip(shifted, refs.rho_Sp(n))]
        return Op("transfer", (direction, p, q, n, lam),
                  expect_error=not admissible)

    @staticmethod
    def _limit_case(rng):
        if rng.random() < 0.5:
            while True:
                n = rng.randint(1, 10)
                p = rng.randint(1, n + 1)
                q = p + rng.randint(0, 4)
                m = 2 * n - (p + q) + 1
                if m >= 0:
                    return ("O", (p, q, n, p + m, q + m))
        n = rng.randint(1, 10)
        p = rng.randint(1, 10)
        q = p + rng.randint(0, 6)
        n2 = max(1, p + q - n - 1)
        return ("Sp", (p + q - n2 - 1, p, q, n2))

    @staticmethod
    def _range_op(rng, test):
        n = rng.randint(1, 10)
        p = rng.randint(1, min(6, n))
        if test == "odd":
            # p + q odd and p + q <= 2n + 1
            q = p + 2 * rng.randint(0, n - p) + 1
            direction = "o2sp"
        else:
            q = p + rng.randint(0, 6)
            direction = rng.choice(("o2sp", "sp2o"))
        length = p if direction == "o2sp" else n
        lam = [_rational(rng, -6, 3) for _ in range(length)]
        return Op("range", (test, direction, p, q, n, lam))

    # -- the timed calls ----------------------------------------------------

    def warm_up(self, tr) -> None:
        q = self.q
        ev = q.ExponentVector
        tr.call("vectors.rho", q.rho, q.Symplectic(3))
        tr.call("lpn.small", q.lpn, ev([-1, -2, -3]), 3, 4)
        tr.call("transfer.o2sp", q.bound_O_to_Sp, 2, 3, 3, ev([-1, -1]))
        chain = q.DualPairChain("O", (q.Orthogonal(2, 3), q.Symplectic(3),
                                      q.Orthogonal(4, 5)), ev([-1, -1]))
        tr.call("induction.validate_chain.short", q.validate_chain, chain)

    def execute(self, op: Op, tr) -> Any:
        q = self.q
        a, inp = op.args, op.inputs
        if op.kind == "lpn":
            p, n = a[1], a[2]
            size = "small" if p * n <= 64 else "large" if p * n >= 1024 else "mid"
            return tr.call(f"lpn.{size}", q.lpn, *inp)
        if op.kind == "transfer":
            return tr.call(f"transfer.{a[0]}", *inp)
        if op.kind == "chain":
            return tr.call(f"induction.validate_chain.{op.tag}",
                           q.validate_chain, *inp)
        if op.kind == "infchar":
            kind, sizes, _ = a
            chi = inp[0]
            via_q = tr.call("induction.infchar.Q", q.infchar_Q, kind, sizes, chi)
            if kind == "O":
                p, qq, n, p2, q2 = sizes
                mid = tr.call("induction.infchar.theta", q.infchar_theta,
                              "o2sp", p, qq, n, chi)
                via_t = tr.call("induction.infchar.theta", q.infchar_theta,
                                "sp2o", p2, q2, n, mid)
            else:
                n, p, qq, n2 = sizes
                mid = tr.call("induction.infchar.theta", q.infchar_theta,
                              "sp2o", p, qq, n, chi)
                via_t = tr.call("induction.infchar.theta", q.infchar_theta,
                                "o2sp", p, qq, n2, mid)
            return via_q.canonical_form, via_t.canonical_form
        if op.kind == "parabolic":
            kind, sizes, _ = a
            tags = tr.call("induction.infchar.limit", q.detect_limit_case,
                           kind, sizes)
            match = tr.call("induction.infchar.limit", q.parabolic_infchar_match,
                            kind, sizes, *inp)
            return tags, match
        if op.kind == "range":
            return tr.call(f"induction.range.{a[0]}", *inp)
        if op.kind == "rho":
            return tr.call("vectors.rho", q.rho, *inp)
        if op.kind == "order":
            return tr.call("vectors.order", *inp)
        raise ValueError(op.kind)

    # -- checks, outside the timed region -----------------------------------

    def summary(self, op: Op, res: Any) -> Any:
        if isinstance(res, Raised):
            return res
        if op.kind == "lpn":
            return (res.output, res.witness.block_structure.indices, res.witness.cases)
        if op.kind == "chain":
            return (tuple(res.steps), tuple(res.bounds))
        return res

    def check(self, op: Op, res: Any, stats: dict) -> str | None:
        a = op.args
        if op.expect_error:
            if isinstance(res, Raised) and res.exc_type == "DomainError":
                stats["transfer.precondition_rejects"] += 1
                return None
            return f"expected DomainError, got {res!r}"
        if isinstance(res, Raised):
            return f"raised {res.exc_type}: {res.message}"
        if op.kind == "lpn":
            lam, p, n = a
            want = refs.lpn_output(lam, n)
            stats["lpn.cells"] += p * n
            stats["lpn.blocks"] += len(res.witness.block_structure.indices)
            stats["lpn.ar3"] += res.witness.cases.count("ar3")
            stats["lpn.cases"] += len(res.witness.cases)
            if p * n <= 16:
                stats["lpn.oracle_checks"] += 1
                oracle = list(self.q.lpn_oracle(self.q.ExponentVector(lam), p, n))
                if oracle != list(res.output):
                    stats["lpn.oracle_mismatches"] += 1
                    return "lpn differs from lpn_oracle"
            if list(res.output) != want:
                return "lpn differs from the block-total formula"
            return None
        if op.kind == "transfer":
            direction, p, q, n, lam = a
            want = refs.bound_o2sp(lam, p, q, n) if direction == "o2sp" \
                else refs.bound_sp2o(lam, n, p, q)
            return None if list(res) == want else "transfer bound differs"
        if op.kind == "chain":
            stats["induction.validate_chain.steps"] += len(res.steps)
            stats["induction.validate_chain.transfers"] += len(res.bounds) - 1
            return check_chain(*a, res)
        if op.kind == "infchar":
            return None if res[0] == res[1] else "infchar_Q != composed infchar_theta"
        if op.kind == "parabolic":
            tags, match = res
            want = "II" if a[0] == "O" else "III"
            return None if want in tags and match else "limit case not matched"
        if op.kind == "range":
            return None if res == range_reference(*a) else "range predicate differs"
        if op.kind == "rho":
            kind, x, y = a
            want = refs.rho_O(x, x + y) if kind == "O" else refs.rho_Sp(x)
            return None if list(res) == want else "rho differs"
        if op.kind == "order":
            weak, x = a
            want = refs.weakly_neg(x) if weak else refs.strictly_neg(x)
            return None if res == want else "dominance test differs"
        return f"unknown op {op.kind}"

    def digest_items(self, op: Op, res: Any) -> str:
        if isinstance(res, Raised):
            return f"raised {res.exc_type}"
        if op.kind == "lpn":
            return refs.fmt_vec(res.output) + " " + ",".join(res.witness.cases)
        if op.kind == "chain":
            return json.dumps([[s.id, s.lhs, s.rhs, s.ok] for s in res.steps]
                              + [refs.fmt_vec(b) for b in res.bounds])
        if op.kind in ("transfer", "rho"):
            return refs.fmt_vec(res)
        return repr(res)


def make_chain(q, start, groups, lam):
    gs = tuple(q.Orthogonal(g[1], g[2]) if g[0] == "O" else q.Symplectic(g[1])
               for g in groups)
    return q.DualPairChain(start, gs, q.ExponentVector(lam))


def range_reference(test, direction, p, q, n, lam) -> bool:
    half = Fraction(p + q, 2)
    if test == "semistable":
        if direction == "o2sp":
            return refs.strictly_neg([x - n + 2 * r for x, r in zip(lam, refs.rho_O(p, q))])
        return refs.strictly_neg([x - half + 2 * r for x, r in zip(lam, refs.rho_Sp(n))])
    if test == "ss":
        if direction == "o2sp":
            return refs.weakly_neg([x - (n - half) + r for x, r in zip(lam, refs.rho_O(p, q))])
        return refs.weakly_neg([x - (half - n - 1) + r for x, r in zip(lam, refs.rho_Sp(n))])
    c = n - Fraction(p + q - 1, 2)
    return refs.weakly_neg([x - c + r for x, r in zip(lam, refs.rho_O(p, q))])


def check_chain(start, groups, lam, rep) -> str | None:
    """Bound propagation re-derived by position in the chain.

    Each transfer's result must match the block-total formula, and the
    admissibility verdict of each step must use the group that follows the
    step's target *at that position*.
    """
    if rep.verdict != all(s.ok for s in rep.steps):
        return "verdict disagrees with the steps"
    props = {s.id: s for s in rep.steps if s.id.startswith("propagate[")}
    bounds = [list(lam)]
    cur = list(lam)
    for k in range(len(groups) - 1):
        src, dst = groups[k], groups[k + 1]
        nxt = groups[k + 2] if k + 2 < len(groups) else None
        step = props.get(f"propagate[{k + 1}]")
        if src[0] == "O":
            p, q, n = src[1], src[2], dst[1]
            new = refs.bound_o2sp(cur, p, q, n)
            ok = new is not None and (
                nxt is None or range_reference("ss", "sp2o", nxt[1], nxt[2], n, new))
        else:
            n, p, q = src[1], dst[1], dst[2]
            new = refs.bound_sp2o(cur, n, p, q)
            ok = new is not None and (
                nxt is None or range_reference("ss", "o2sp", p, q, nxt[1], new))
        if new is None:
            # a failed precondition ends the propagation with a failed step
            if step is None or step.ok or len(rep.bounds) != k + 1:
                return f"expected a precondition failure at step {k + 1}"
            return None
        if step is None or step.ok != ok:
            return f"propagate[{k + 1}] admissibility should be {ok}"
        bounds.append(new)
        cur = new
    if [list(b) for b in rep.bounds] != bounds:
        return "propagated bounds differ"
    return None


# ---------------------------------------------------------------------------
# decay-rays

LONG_T = (100.0, 200.0, 400.0)

# The p = 2 check_gr2 cases take over half of a decay-rays pass and their cost
# varies twofold with lambda, so they are pinned (one per round) rather than
# drawn from the seed, which would move ops_per_s by about 10 % between seeds.
_H = Fraction(-3, 2)
GR2_P2 = tuple(zip(
    ([-1, -1], [-1, _H], [_H, -1], [_H, _H], [-1, -2], [-2, -1], [-2, -2], [_H, -2]),
    ((1.0, 1.0), (1.0, 0.0)) * 4,
))


class DecayRays:
    name = "decay-rays"
    rounds = 8

    def __init__(self):
        import quantind

        self.q = quantind

    def deck(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops: list[Op] = []
        # sizes (p, n) follow the round, values (lambda, ray, t) the seed
        for r in range(self.rounds):
            for i, p in enumerate((1, 1, 1, 1, 1, 1, 2, 2)):
                n = 1 + (r + i) % 3
                lam = self._lam(rng, p, n - 1)
                t = rng.uniform(0.5, 6.0)
                ops.append(Op("evaluate", (self._ray(rng, n), t, lam)))
            n = 1 + r % 2
            ops.append(Op("check_gr2", (self._lam(rng, 1, 0), n, self._ray(rng, n),
                                        [1.0 + 0.5 * i for i in range(11)])))
            lam2, ray2 = GR2_P2[r % len(GR2_P2)]
            ops.append(Op("check_gr2", (lam2, 2, ray2,
                                        [1.0 + 0.5 * i for i in range(7)])))
            for _ in range(2):
                k = rng.choice((2, 3, 4, 5, 6, 10, 12, 16, 20, 24))
                ops.append(Op("fit_decay", (Fraction(-k, 8),)))
            for _ in range(2):
                dim = rng.randint(1, 3)
                a = [math.exp(rng.uniform(-2.0, 3.0)) for _ in range(dim)]
                alpha = [rng.randint(0, 4) for _ in range(dim)]
                beta = [al % 2 + 2 * rng.randint(0, 2) for al in alpha]
                ops.append(Op("oscillator", (a, alpha, beta)))
            ops += self.long_probes()
        rng.shuffle(ops)
        for op in ops:
            op.inputs = self._inputs(op)
        return ops

    @staticmethod
    def long_probes() -> list[Op]:
        """Pinned long-ray probes (the same in every run, so max_rel_err and
        the failure share compare like with like across seeds)."""
        half = Fraction(-1, 2)
        ops = [Op("evaluate", ((1.0,), t, [half]), known_defect=True)
               for t in LONG_T]
        ops += [Op("evaluate", ((1.0, 1.0), t, [-1, -2]), known_defect=True)
                for t in LONG_T[:2]]
        ops.append(Op("fit_decay_long", ((1.0,), [half]), known_defect=True))
        ops.append(Op("fit_decay_long", ((1.0, 1.0), [-1, -2]), known_defect=True))
        return ops

    @staticmethod
    def _ray(rng, n) -> tuple[float, ...]:
        # the diagonal, or (1, ..., 1, 0, ..., 0): the coordinate ray e_1 and
        # its partial sums, the non-increasing directions RaySpec accepts
        k = rng.randint(1, n)
        return tuple(1.0 if i < k else 0.0 for i in range(n))

    @staticmethod
    def _lam(rng, p, shift) -> list[Fraction]:
        # lambda - shift*1 has entries in {-1, -3/2, -2}: convergent for
        # shift = n - 1, and lambda < 0 itself (as lpn needs) for shift = 0
        return [shift - Fraction(rng.choice((2, 3, 4)), 2) for _ in range(p)]

    def warm_up(self, tr) -> None:
        q = self.q
        tr.call("twisted.evaluate.p1", q.evaluate, [2.0], q.ExponentVector([-2]))
        tr.call("oscillator.closed", q.oscillator_coefficient, [2.0], [1], [1])
        tr.call("oscillator.quadrature", q.oscillator_coefficient_quadrature,
                [2.0], [1], [1])
        tr.call("lpn.small", q.lpn, q.ExponentVector([-1]), 1, 1)

    def _inputs(self, op: Op) -> tuple:
        q = self.q
        ev = q.ExponentVector
        if op.kind == "evaluate":
            direction, t, lam = op.args
            return q.RaySpec(direction, [t]).point(t), ev(lam)
        if op.kind == "check_gr2":
            lam, n, direction, ts = op.args
            return ev(lam), len(lam), n, [q.RaySpec(direction, ts)]
        if op.kind == "fit_decay":
            return q.RaySpec([1.0], [1.0 + 0.5 * i for i in range(11)]), ev(op.args)
        if op.kind == "fit_decay_long":
            direction, lam = op.args
            return q.RaySpec(direction, [100.0 + 75.0 * i for i in range(5)]), ev(lam)
        return op.args

    def execute(self, op: Op, tr) -> Any:
        q = self.q
        if op.kind == "evaluate":
            return tr.call(f"twisted.evaluate.p{len(op.args[2])}", q.evaluate,
                           *op.inputs)
        if op.kind == "check_gr2":
            return tr.call("twisted.check_gr2", q.check_gr2, *op.inputs)
        if op.kind in ("fit_decay", "fit_decay_long"):
            return tr.call("twisted.fit_decay", q.fit_decay, *op.inputs)
        if op.kind == "oscillator":
            closed = tr.call("oscillator.closed", q.oscillator_coefficient, *op.inputs)
            quadv = tr.call("oscillator.quadrature",
                            q.oscillator_coefficient_quadrature, *op.inputs)
            return closed, quadv
        raise ValueError(op.kind)

    def summary(self, op: Op, res: Any) -> Any:
        if op.kind == "check_gr2" and not isinstance(res, Raised):
            return (res.mu_bound, tuple(r.ratios for r in res.rays), res.ok)
        return res

    def reference(self, op: Op) -> float | None:
        direction, t, lam = op.args
        a = [math.exp(t * s) for s in direction]
        if len(lam) == 1:
            return refs.twisted_p1(a, float(lam[0]))
        if max(t * s for s in direction) <= refs.P2_RELIABLE_LOG_A:
            return refs.twisted_p2(a, tuple(float(x) for x in lam))
        return None

    def check(self, op: Op, res: Any, stats: dict) -> str | None:
        if isinstance(res, Raised):
            return f"raised {res.exc_type}: {res.message}"
        if op.kind == "evaluate":
            if not (math.isfinite(res.value) and res.value > 0.0):
                return f"integral value {res.value!r}"
            stats["twisted.evaluate.nodes"] += res.node_count
            if res.abs_error >= res.value:
                stats["twisted.evaluate.no_digit"] += 1
            ref = self.reference(op)
            if ref is not None:
                stats["rel_errors"].append(abs(res.value - ref) / ref)
                if abs(res.value - ref) > res.abs_error:
                    stats["twisted.evaluate.bound_violations"] += 1
            return None
        if op.kind == "check_gr2":
            lam, n = op.args[0], op.args[1]
            if list(res.mu_bound) != refs.lpn_output(lam, n):
                return "mu_bound differs from the block-total formula"
            ts = op.args[3]
            for ray in res.rays:
                if not all(math.isfinite(r) and r > 0.0 for r in ray.ratios):
                    return "non-finite or non-positive ratio"
                k = max(3, len(ts) // 2) if len(ts) > 3 else len(ts)
                trend = slope(ts[-k:], [math.log(r) for r in ray.ratios[-k:]])
                if abs(trend - ray.trend_slope) > 1e-9 * max(1.0, abs(trend)):
                    return f"trend slope {ray.trend_slope} vs {trend}"
                if ray.bounded != (trend <= 1e-3):
                    return "bounded verdict disagrees with the trend"
            return None
        if op.kind in ("fit_decay", "fit_decay_long"):
            if not math.isfinite(res):
                return f"slope {res!r}"
            if op.kind == "fit_decay_long":
                return None
            lam = float(op.args[0])
            err = abs(res - max(lam, -1.0))
            stats["twisted.fit_decay.max_slope_err"] = max(
                stats["twisted.fit_decay.max_slope_err"], err)
            return None if err <= 0.05 else f"slope {res} vs {max(lam, -1.0)}"
        if op.kind == "oscillator":
            closed, quadv = res
            rel = abs(closed - quadv) / max(abs(closed), abs(quadv), 1e-300)
            stats["oscillator.max_rel_err"] = max(stats["oscillator.max_rel_err"], rel)
            return None if rel <= 1e-8 else f"closed form vs quadrature {rel:.3g}"
        return f"unknown op {op.kind}"

    def digest_items(self, op: Op, res: Any) -> str:
        if op.kind == "check_gr2" and not isinstance(res, Raised):
            return refs.fmt_vec(res.mu_bound)
        return ""


def slope(xs, ys) -> float:
    """Least-squares slope, the trend check_gr2 reports over a ray's tail."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------
# highdim-integrals


def load_table() -> list[dict]:
    with open(REFERENCE_TABLE) as fh:
        return json.load(fh)["problems"]


class HighdimIntegrals:
    name = "highdim-integrals"

    def __init__(self):
        import quantind

        self.q = quantind
        self.table = load_table()

    def deck(self, seed: int) -> list[Op]:
        """Every pinned problem once, in seeded order, with the torus entries
        permuted by the seed (the integral is symmetric in a)."""
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for prob in self.table:
            a = list(prob["a"])
            rng.shuffle(a)
            lam = [Fraction(x) for x in prob["lambda"]]
            ops.append(Op("evaluate", (a, lam), tag=prob["name"],
                          inputs=(a, self.q.ExponentVector(lam))))
        rng.shuffle(ops)
        return ops

    def warm_up(self, tr) -> None:
        q = self.q
        tr.call("twisted.evaluate.p1", q.evaluate, [2.0], q.ExponentVector([-2]))

    def execute(self, op: Op, tr) -> Any:
        return tr.call(f"twisted.evaluate.p{len(op.args[1])}", self.q.evaluate,
                       *op.inputs)

    def summary(self, op: Op, res: Any) -> Any:
        return res

    def check(self, op: Op, res: Any, stats: dict) -> str | None:
        if isinstance(res, Raised):
            return f"raised {res.exc_type}: {res.message}"
        if not (math.isfinite(res.value) and res.value > 0.0):
            return f"integral value {res.value!r}"
        ref = next(p["value"] for p in self.table if p["name"] == op.tag)
        stats["rel_errors"].append(abs(res.value - ref) / ref)
        stats["twisted.evaluate.nodes"] += res.node_count
        if abs(res.value - ref) > res.abs_error:
            stats["twisted.evaluate.bound_violations"] += 1
        if res.abs_error >= res.value:
            stats["twisted.evaluate.no_digit"] += 1
        return None

    def digest_items(self, op: Op, res: Any) -> str:
        return ""


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliCold:
    """Fresh `python -m quantind.cli` processes, one after another."""

    name = "cli-cold"

    def __init__(self, root: str, workdir: str):
        import quantind
        import quantind.cli  # noqa: F401  (the in-process side of the check)

        self.q = quantind
        self.root = root
        self.workdir = workdir
        self.child_peak_kb = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def deck(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        g = rng.choice((f"O:{rng.randint(1, 6)},{rng.randint(6, 9)}",
                        f"Sp:{rng.randint(1, 9)}"))
        ops.append(Op("rho", ("rho", "--group", g)))
        x = neg_vector(rng, rng.randint(2, 6), weak=True)
        if rng.random() < 0.5:
            x[-1] += 2
        ops.append(Op("order", ("order", "--rel", rng.choice(("strict", "weak")),
                                "--x", _csv(x))))
        p, n = rng.randint(1, 4), rng.randint(1, 4)
        ops.append(Op("lpn", ("lpn", "--p", str(p), "--n", str(n), "--lambda",
                              _csv(neg_vector(rng, p)), "--oracle")))
        t = ExactSweep._transfer_op(rng, rng.choice(("o2sp", "sp2o")), True)
        direction, bp, bq, bn, blam = t.args
        ops.append(Op("bound", ("bound", "--dir", direction, "--p", str(bp), "--q",
                                str(bq), "--n", str(bn), "--lambda", _csv(blam))))
        r = ExactSweep._range_op(rng, rng.choice(("semistable", "ss", "odd")))
        test, direction, rp, rq, rn, rlam = r.args
        ops.append(Op("range", ("range", "--test", test, "--dir", direction, "--p",
                                str(rp), "--q", str(rq), "--n", str(rn),
                                "--lambda", _csv(rlam))))
        start = rng.choice(("O", "Sp"))
        groups = chain_groups(rng, start, rng.randint(3, 8), rng.randrange(6))
        path = self._chain_file("chain.json", start, groups,
                                initial_lambda(rng, start, groups))
        ops.append(Op("chain", ("chain", "--file", path, "--json")))
        ops.append(Op("chain", ("chain", "--file", path, "--json"), tag="repeat"))
        sizes = o_step_sizes(rng)
        groups3 = [("O", sizes[0], sizes[1]), ("Sp", sizes[2]), ("O", sizes[3], sizes[4])]
        path3 = self._chain_file("step.json", "O", groups3,
                                 initial_lambda(rng, "O", groups3))
        chi = [_rational(rng, -4, 4) for _ in range(rng.randint(1, 3))]
        ops.append(Op("infchar", ("infchar", "--file", path3, "--chi", _csv(chi))))
        d = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 4))), reverse=True)
        ops.append(Op("av", ("av", "--file", path3, "--d", ",".join(map(str, d)))))
        dim = rng.randint(1, 3)
        alpha = [rng.randint(0, 3) for _ in range(dim)]
        ops.append(Op("oscillator", (
            "oscillator", "--a", ",".join(f"{rng.uniform(0.5, 5.0):.3f}" for _ in range(dim)),
            "--alpha", ",".join(map(str, alpha)),
            "--beta", ",".join(str(al % 2 + 2 * rng.randint(0, 1)) for al in alpha),
            "--check-quadrature")))
        n2 = rng.randint(1, 2)
        ops.append(Op("verify-integral", (
            "verify-integral", "--p", "1", "--n", str(n2), "--lambda",
            _csv(neg_vector(rng, 1)), "--ray", ",".join(["1"] * n2), "--tmax", "6",
            "--samples", "6", "--delta", "0.05", "--json")))
        ops.append(Op("lpn", ("lpn", "--p", "2", "--n", "2", "--lambda", "1,-2"),
                      tag="malformed"))
        rng.shuffle(ops)
        return ops

    def _chain_file(self, name, start, groups, lam) -> str:
        doc = {
            "start": start,
            "groups": [{"kind": "O", "p": g[1], "q": g[2]} if g[0] == "O"
                       else {"kind": "Sp", "n": g[1]} for g in groups],
            "lambda": [str(x) for x in lam],
        }
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return os.path.relpath(path, self.root)

    def warm_up(self, tr) -> None:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            tr.call("cli.rho", self.q.cli.run, ["rho", "--group", "Sp:3"])

    def execute(self, op: Op, tr) -> CliResult:
        return tr.call(f"cli.{op.args[0]}", self._spawn, op.args)

    def _spawn(self, argv) -> CliResult:
        proc = subprocess.Popen(
            [sys.executable, "-m", "quantind.cli", *argv],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Hold the calibration timer's signal until the child has exited: a
        # sample taken while it runs would time the contention with the child,
        # not the machine.  Outputs are a few lines, so reading stdout then
        # stderr cannot block.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            proc.stdout.close()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out, err)

    def summary(self, op: Op, res: Any) -> Any:
        return res if isinstance(res, Raised) else (res.code, res.stdout)

    def expected(self, op: Op) -> tuple[int, str | None]:
        """Exit code and stdout computed in-process from the library."""
        q = self.q
        ev = q.ExponentVector
        args = op.args
        opt = dict(zip(args[1::2], args[2::2]))
        sub = args[0]
        if op.tag == "malformed":
            return 2, ""
        if sub == "rho":
            kind, _, rest = opt["--group"].partition(":")
            g = q.Orthogonal(*map(int, rest.split(","))) if kind == "O" \
                else q.Symplectic(int(rest))
            return 0, refs.fmt_vec(q.rho(g)) + "\n"
        if sub == "order":
            x = ev(_uncsv(opt["--x"]))
            ok = (q.weakly_dominated if opt["--rel"] == "weak" else q.strictly_dominated)(x)
            return (0 if ok else 1), ("true" if ok else "false") + "\n"
        if sub == "lpn":
            p, n, lam = int(opt["--p"]), int(opt["--n"]), ev(_uncsv(opt["--lambda"]))
            out = refs.fmt_vec(q.lpn(lam, p, n).output)
            oracle = refs.fmt_vec(q.lpn_oracle(lam, p, n))
            return 0, f"{out}\noracle: {oracle} (match)\n"
        if sub == "bound":
            p, qq, n = int(opt["--p"]), int(opt["--q"]), int(opt["--n"])
            lam = ev(_uncsv(opt["--lambda"]))
            out = q.bound_O_to_Sp(p, qq, n, lam) if opt["--dir"] == "o2sp" \
                else q.bound_Sp_to_O(n, p, qq, lam)
            return 0, refs.fmt_vec(out) + "\n"
        if sub == "range":
            verdict = range_reference(opt["--test"], opt["--dir"], int(opt["--p"]),
                                      int(opt["--q"]), int(opt["--n"]),
                                      _uncsv(opt["--lambda"]))
            return (0 if verdict else 1), None
        if sub == "chain":
            rep = q.validate_chain(self._load(opt["--file"]))
            doc = {
                "verdict": "pass" if rep.verdict else "fail",
                "steps": [{"id": s.id, "inequality": s.inequality, "lhs": s.lhs,
                           "rhs": s.rhs, "ok": s.ok} for s in rep.steps],
                "bounds": [[str(e) for e in b] for b in rep.bounds],
            }
            return (0 if rep.verdict else 1), json.dumps(doc, indent=2) + "\n"
        if sub == "infchar":
            chain = self._load(opt["--file"])
            o1, s1, o2 = chain.groups
            chi = q.InfChar(_uncsv(opt["--chi"]))
            via_q = q.infchar_Q("O", (o1.p, o1.q, s1.n, o2.p, o2.q), chi)
            return 0, refs.fmt_vec(via_q.canonical_form) + "\n"
        if sub == "av":
            chain = self._load(opt["--file"])
            o1, s1, o2 = chain.groups
            d = q.Partition(int(x) for x in opt["--d"].split(","))
            try:
                pred = q.predict_associated_variety(
                    "O", (o1.p, o1.q, s1.n, o2.p, o2.q), d)
            except q.DomainError:
                return 2, ""
            return 0, f"({','.join(map(str, pred.partition.parts))}) [conjectural]\n"
        if sub == "oscillator":
            a = [float(x) for x in opt["--a"].split(",")]
            alpha = [int(x) for x in opt["--alpha"].split(",")]
            beta = [int(x) for x in opt["--beta"].split(",")]
            val = q.oscillator_coefficient(a, alpha, beta)
            quadv = q.oscillator_coefficient_quadrature(a, alpha, beta)
            rel = abs(val - quadv) / max(abs(val), abs(quadv), 1e-300)
            text = f"value: {val:.12g}\nquadrature: {quadv:.12g}\nrel_error: {rel:.12g}\n"
            return (0 if rel <= 1e-8 else 1), text
        if sub == "verify-integral":
            import numpy as np

            lam = ev(_uncsv(opt["--lambda"]))
            delta = float(opt["--delta"])
            ts = np.linspace(1.0, float(opt["--tmax"]), int(opt["--samples"]))
            ray = q.RaySpec([float(x) for x in opt["--ray"].split(",")], ts)
            rep = q.check_gr2(lam, len(lam), int(opt["--n"]), [ray], delta=delta)
            doc = {
                "verdict": "pass" if rep.ok else "fail",
                "mu": [str(e) for e in rep.mu_bound],
                "delta": f"{delta:.12g}",
                "max_ratio": f"{rep.rays[0].max_ratio:.12g}",
                "trend_slope": f"{rep.rays[0].trend_slope:.12g}",
                "ratios": [f"{r:.12g}" for r in rep.rays[0].ratios],
            }
            return (0 if rep.ok else 1), json.dumps(doc, indent=2) + "\n"
        raise ValueError(sub)

    def _load(self, rel):
        with open(os.path.join(self.root, rel)) as fh:
            doc = json.load(fh)
        groups = [("O", g["p"], g["q"]) if g["kind"] == "O" else ("Sp", g["n"])
                  for g in doc["groups"]]
        return make_chain(self.q, doc["start"], groups,
                          [Fraction(x) for x in doc["lambda"]])

    def check(self, op: Op, res: Any, stats: dict) -> str | None:
        if isinstance(res, Raised):
            return f"raised {res.exc_type}: {res.message}"
        code, out = self.expected(op)
        if res.code != code:
            stats["cli.exit_mismatches"] += 1
            return f"exit {res.code}, expected {code}: {res.stderr.strip()}"
        if code == 2:
            ok = res.stdout == "" and res.stderr.startswith("error:")
        elif out is None:  # range: the inequality text is the CLI's own
            want = "true" if code == 0 else "false"
            ok = res.stdout.rstrip().endswith(": " + want)
        else:
            ok = res.stdout == out
        if not ok:
            stats["cli.output_mismatches"] += 1
            return f"stdout {res.stdout!r}, expected {out!r}"
        return None

    def digest_items(self, op: Op, res: Any) -> str:
        if isinstance(res, Raised):
            return f"raised {res.exc_type}"
        return f"{res.code} {res.stdout}"


def _csv(xs) -> str:
    return ",".join(str(Fraction(x)) for x in xs)


def _uncsv(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.split(",")]


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = ("exact-sweep", "decay-rays", "highdim-integrals", "cli-cold")


def make(name: str, root: str, workdir: str):
    if name == "exact-sweep":
        return ExactSweep()
    if name == "decay-rays":
        return DecayRays()
    if name == "highdim-integrals":
        return HighdimIntegrals()
    if name == "cli-cold":
        return CliCold(root, workdir)
    raise ValueError(f"unknown workload {name!r}")
