"""Compute the pinned reference values for the highdim-integrals workload.

Run by hand; the benchmark only reads the table this writes:

    python3 bench/make_references.py    # adds missing entries to bench/references.json

Entries already in the table are kept as they are (the p = 5 one takes
minutes); delete the file to recompute everything.

Method: the twisted integral after the substitution b_i = exp(t_i + ... + t_p)
(the Jacobian contributes prod b_i), integrated over the orthant [0, inf)^p
with `scipy.integrate.cubature` (Genz-Malik rule; the infinite limits are
handled by cubature's own variable transformation).  The integrand is written
here in log space with numpy and shares no code with `quantind.twisted`, so
the table is independent of the function it checks.  The tolerance used for
each entry is stored next to its value; p = 5 uses a looser rtol because at
1e-8 one entry takes many minutes, and 1e-7 is still five orders of magnitude
below the Monte Carlo error the workload measures at p = 4 and 5.

The p = 4 entry at a = (2, 2), lambda = (-3, -3, -3, -3) is the cross-check
against the value 1.29774e-6 quoted for the same problem in ROADMAP.md.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import cubature

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "references.json")

# (name, a, lambda as rational strings, rtol)
PROBLEMS = [
    ("p3-a22", (2.0, 2.0), ("-3", "-3", "-3"), 1e-8),
    ("p3-a3-15-1", (3.0, 1.5, 1.0), ("-3", "-4", "-5"), 1e-8),
    ("p3-a4-1", (4.0, 1.0), ("-2", "-3", "-3"), 1e-8),
    ("p3-a2-15", (2.0, 1.5), ("-2", "-3", "-4"), 1e-8),
    ("p3-a3-2-15", (3.0, 2.0, 1.5), ("-2", "-2", "-3"), 1e-8),
    ("p3-a6-1", (6.0, 1.0), ("-5/2", "-3", "-3"), 1e-8),
    ("p4-a22", (2.0, 2.0), ("-3", "-3", "-3", "-3"), 1e-8),
    ("p5-a25-15", (2.5, 1.5), ("-3", "-3", "-3", "-3", "-3"), 1e-7),
]

ROADMAP_P4 = 1.29774e-6  # 6 significant digits as quoted


def integrand(a, lam):
    log_a2 = 2.0 * np.log(np.asarray(a, dtype=float))
    lam1 = np.asarray([float(Fraction(x)) for x in lam]) + 1.0

    def f(t):
        # s_i = t_i + ... + t_p = log b_i
        s = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
        log_kernel = -0.5 * np.logaddexp(
            log_a2[None, None, :], 2.0 * s[:, :, None]
        ).sum(axis=2)
        return np.exp((log_kernel + lam1[None, :] * s).sum(axis=1))

    return f


def compute(a, lam, rtol):
    p = len(lam)
    res = cubature(
        integrand(a, lam),
        [0.0] * p,
        [math.inf] * p,
        rule="genz-malik",
        rtol=rtol,
        atol=0.0,
        max_subdivisions=10**7,
    )
    if res.status != "converged":
        raise RuntimeError(f"cubature did not converge for a={a} lambda={lam}")
    return float(res.estimate), float(res.error), int(res.subdivisions)


def main() -> int:
    known = {}
    if os.path.exists(TABLE):
        with open(TABLE) as fh:
            known = {e["name"]: e for e in json.load(fh)["problems"]}
    entries = []
    for name, a, lam, rtol in PROBLEMS:
        if name in known:
            entries.append(known[name])
            continue
        t0 = time.perf_counter()
        value, err, subdiv = compute(a, lam, rtol)
        wall = time.perf_counter() - t0
        print(f"{name}: {value!r} +- {err:.3g} ({subdiv} subdivisions, "
              f"{wall:.1f} s)", flush=True)
        entries.append({
            "name": name,
            "a": list(a),
            "lambda": list(lam),
            "value": value,
            "est_error": err,
            "rtol": rtol,
            "subdivisions": subdiv,
            "seconds": round(wall, 1),
        })
    p4 = next(e for e in entries if e["name"] == "p4-a22")
    if abs(p4["value"] - ROADMAP_P4) > 0.5e-11:
        print(f"p4 cross-check failed: {p4['value']!r} vs {ROADMAP_P4}",
              file=sys.stderr)
        return 1
    doc = {
        "method": "scipy.integrate.cubature, rule genz-malik, atol 0, "
                  "limits [0, inf)^p in t = log-ratio coordinates",
        "scipy": __import__("scipy").__version__,
        "roadmap_p4_crosscheck": ROADMAP_P4,
        "problems": entries,
    }
    with open(TABLE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
