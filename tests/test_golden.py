"""Byte-for-byte golden outputs of the exact core.

`golden.json` pins, on seeded inputs:

- the stdout and exit code of `quantind chain --json` for 50 chains of both
  flavours with 2 to 9 groups, with and without injected faults;
- the stdout of `quantind lpn --witness` (output, breakpoints, ar2/ar3
  cases and eta rows) for every p, n <= 6;
- both transfer bounds, and all five range predicates, on a grid.

Everything except one kind of entry was recorded from the code as it stood
before the chain validation, the range predicates and L(p,n) were each
rewritten around a single rule.  The exception: in chains that contain a
repeated group, the `propagate[k]` flags (and so the verdict and exit code)
were recorded after the fix that takes the successor of a step's target by
position rather than by value, since the old lookup checked such steps
against the wrong group.

Regenerate with `python tests/test_golden.py` (with `src` on the path) only
when an output is meant to change, and say which one in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

from quantind import (
    DomainError,
    ExponentVector,
    bound_O_to_Sp,
    bound_Sp_to_O,
    in_odd_range_O_to_Sp,
    in_semistable_O_to_Sp,
    in_semistable_Sp_to_O,
    in_ss_O_to_Sp,
    in_ss_Sp_to_O,
)
from quantind.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _lam(rng: random.Random, dim: int) -> list[Fraction]:
    return [Fraction(-rng.randint(0, 6), rng.choice((1, 2))) for _ in range(dim)]


def _valid_groups(rng: random.Random, start: str, ngroups: int) -> list[dict]:
    """Alternating groups that meet the chain's size and parity conditions."""
    n = rng.randint(1, 3)
    if start == "O":
        m = rng.randint(2, 2 * n + 1)
        p = rng.randint(1, m // 2)
        groups = [{"kind": "O", "p": p, "q": m - p}, {"kind": "Sp", "n": n}]
    else:
        p = n + 1 + rng.randint(0, 1)
        m = 2 * p + rng.randint(0, 2)
        groups = [{"kind": "Sp", "n": n}, {"kind": "O", "p": p, "q": m - p}]
    while len(groups) < ngroups:
        if groups[-1]["kind"] == "Sp":
            p = n + 1 + rng.randint(0, 1)
            lo = max(2 * p, 4 * n - m + 2) + 2 * rng.randint(0, 1)
            m_new = lo + (lo - m) % 2
            groups.append({"kind": "O", "p": p, "q": m_new - p})
            m = m_new
        else:
            n = max(1, m - n - 1) + rng.randint(0, 1)
            groups.append({"kind": "Sp", "n": n})
    return groups[:ngroups]


def _inject(rng: random.Random, groups: list[dict], fault: str) -> list[dict]:
    groups = [dict(g) for g in groups]
    orths = [i for i, g in enumerate(groups) if g["kind"] == "O"]
    if fault == "parity" and len(orths) >= 2:
        groups[rng.choice(orths[1:])]["q"] += 1
    elif fault == "size":
        i = rng.randrange(1, len(groups))
        if groups[i]["kind"] == "O":
            groups[i]["p"] = groups[i]["q"] = max(1, groups[i]["p"] - 1)
        else:
            groups[i]["n"] = max(1, groups[i]["n"] // 2)
    elif fault == "repeat":
        groups = [dict(groups[i % 2]) for i in range(len(groups))]
    return groups


def _chain_docs() -> list[dict]:
    rng = random.Random(20021)
    docs = []
    for start in ("O", "Sp"):
        for ngroups in range(2, 10):
            for fault in (None, "parity" if ngroups % 2 else "size", "repeat"):
                groups = _inject(rng, _valid_groups(rng, start, ngroups), fault)
                first = groups[0]
                rank = first["p"] if first["kind"] == "O" else first["n"]
                lam = [str(x) for x in _lam(rng, rank)]
                docs.append({"start": start, "groups": groups, "lambda": lam})
    for groups, lam in (
        ([("O", 1, 2), ("Sp", 1), ("O", 1, 2)], ["-1/2"]),
        ([("O", 1, 1), ("Sp", 3), ("O", 1, 1), ("Sp", 3)], ["-1"]),
    ):
        docs.append({
            "start": "O",
            "groups": [
                {"kind": "O", "p": g[1], "q": g[2]} if g[0] == "O"
                else {"kind": "Sp", "n": g[1]}
                for g in groups
            ],
            "lambda": lam,
        })
    return docs


def _guarded(fn, *args) -> str:
    try:
        out = fn(*args)
    except DomainError as exc:
        return f"error: {exc}"
    if isinstance(out, bool):
        return "true" if out else "false"
    return "(" + _csv(out) + ")"


def compute() -> dict:
    doc: dict = {"chain": [], "lpn": [], "bound": [], "range": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        for chain in _chain_docs():
            with open(path, "w") as fh:
                json.dump(chain, fh)
            doc["chain"].append(
                {"chain": chain, **_cli(["chain", "--file", path, "--json"])}
            )

    rng = random.Random(20022)
    for p in range(1, 7):
        for n in range(1, 7):
            lams = [[-Fraction(i) for i in range(1, p + 1)]]
            while len(lams) < 4:
                # positive entries make the running caps dip, so the
                # breakpoints are not just the ends of runs of zeros
                lam = [Fraction(rng.randint(-6, 3), rng.choice((1, 2)))
                       for _ in range(p)]
                if all(s < 0 for s in ExponentVector(lam).prefix_sums()):
                    lams.append(lam)
            for lam in lams:
                argv = ["lpn", "--p", str(p), "--n", str(n),
                        "--lambda", _csv(lam), "--witness"]
                doc["lpn"].append({"argv": argv, **_cli(argv)})

    rng = random.Random(20023)
    for p in range(1, 5):
        for q in range(p, p + 4):
            for n in range(1, 5):
                lam_o = ExponentVector(_lam(rng, p))
                lam_s = ExponentVector(_lam(rng, n))
                key = f"p={p} q={q} n={n}"
                doc["bound"].append({
                    "case": f"o2sp {key} lambda=({_csv(lam_o)})",
                    "out": _guarded(bound_O_to_Sp, p, q, n, lam_o),
                })
                doc["bound"].append({
                    "case": f"sp2o {key} lambda=({_csv(lam_s)})",
                    "out": _guarded(bound_Sp_to_O, n, p, q, lam_s),
                })
                for name, fn, lam, args in (
                    ("semistable_O_to_Sp", in_semistable_O_to_Sp, lam_o, (p, q, n)),
                    ("semistable_Sp_to_O", in_semistable_Sp_to_O, lam_s, (n, p, q)),
                    ("ss_O_to_Sp", in_ss_O_to_Sp, lam_o, (p, q, n)),
                    ("ss_Sp_to_O", in_ss_Sp_to_O, lam_s, (n, p, q)),
                    ("odd_range_O_to_Sp", in_odd_range_O_to_Sp, lam_o, (p, q, n)),
                ):
                    doc["range"].append({
                        "case": f"{name} {key} lambda=({_csv(lam)})",
                        "out": _guarded(fn, lam, *args),
                    })
            # a length mismatch must keep its error message
            bad = ExponentVector(_lam(rng, p + 1))
            doc["range"].append({
                "case": f"ss_O_to_Sp p={p} q={p} n={p} lambda=({_csv(bad)})",
                "out": _guarded(in_ss_O_to_Sp, bad, p, p, p),
            })
            doc["bound"].append({
                "case": f"sp2o n={p} p={p} q={p} lambda=({_csv(bad)})",
                "out": _guarded(bound_Sp_to_O, p, p, p, bad),
            })
    return doc


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_sizes():
    golden = _load()
    flavours = {c["chain"]["start"] for c in golden["chain"]}
    lengths = {len(c["chain"]["groups"]) for c in golden["chain"]}
    assert len(golden["chain"]) >= 40 and flavours == {"O", "Sp"}
    assert lengths == set(range(2, 10))
    assert {c["exit"] for c in golden["chain"]} == {0, 1}


def test_golden_outputs_unchanged():
    golden = _load()
    now = compute()
    for section in ("chain", "lpn", "bound", "range"):
        assert len(now[section]) == len(golden[section]), section
        for got, want in zip(now[section], golden[section]):
            assert got == want, (section, want)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
