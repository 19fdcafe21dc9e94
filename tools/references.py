"""Reference values of the twisted integral L(a, lambda) in mpmath.

Independent of the package: it imports neither quantind nor numpy, and no
test imports it.  EQUAL_LAMBDA_L1 holds the one-variable factor

    L_1 = int_1^inf b^lambda (a^2 + b^2)^{-n/2} db,

keyed by (n, log a, lambda), by tanh-sinh quadrature split at a where
a > 1.  The other tables share one scheme, for p >= 2, a = (a, ..., a)
and the rates r = lambda - (n - 1) with a near-divergent first entry
r_1 = -10^-k.  In s = log b,

    g_i(s) = e^{r_i s} h(s),   h(s) = (1 + a^2 e^{-2s})^{-n/2},
    F_p(s) = int_0^s g_p,      F_i(s) = int_0^s g_i F_{i+1},

the inner F_p, ..., F_2 come from Gauss collocation of order Q on panels
H wide up to s = S_MAX, with log a an edge, and the outer level is split as

    L = F_2(inf) (1 / |r_1| + int_0^inf e^{r_1 s} (h - 1) ds)
        - int_0^inf g_1 (F_2(inf) - F_2) ds,

so that no integrand decays as slowly as e^{r_1 s}.  The first integral is
taken by tanh-sinh quadrature split at log a; the second on the panels.
Past S_MAX = 400 every inner integrand here falls at least like e^{-s/4},
which leaves out less than e^{-100} of F_2.

Usage:
    python tools/references.py --table EQUAL_LAMBDA_L1
    python tools/references.py --table POSITIVE_INNER_RATE
    python tools/references.py --table NEAR_DIVERGENT

prints the table in the layout of tests/test_twisted.py (each value as
float.hex), with the seconds each entry took on stderr.

    python tools/references.py --check

recomputes all three tables and compares each entry with the value
tests/test_twisted.py pins, read from its source with ast.literal_eval:
it prints the distance in ulps and the seconds of each entry, and exits
with status 1 if any entry differs or is not computed.  It took 231 s
on a shared 2-core x86-64 VM.
"""

import argparse
import ast
import struct
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40
Q, H, S_MAX = 30, mp.mpf(1) / 2, 400
KS = {"POSITIVE_INNER_RATE": range(2, 7), "NEAR_DIVERGENT": range(1, 7)}
TABLES = ["EQUAL_LAMBDA_L1", "POSITIVE_INNER_RATE", "NEAR_DIVERGENT"]
TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_twisted.py"


def legendre_rule(q):
    """Gauss-Legendre nodes x, weights w and C[j][k] = int_{-1}^{x_j} l_k,
    l_k the Lagrange basis of the nodes, on [-1, 1]."""
    xs, ws = [], []
    for i in range(1, q + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (q + mp.mpf(1) / 2))
        while True:  # Newton on P_q
            p0, p1 = mp.mpf(1), x
            for m in range(2, q + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = q * (x * p1 - p0) / (x * x - 1)
            x, dx = x - p1 / dp, p1 / dp
            if abs(dx) < mp.mpf(10) ** (-mp.mp.dps + 5):
                break
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    P = []  # P[j][m] = P_m(x_j), m = 0..q
    for x in xs:
        row = [mp.mpf(1), x]
        for m in range(2, q + 1):
            row.append(((2 * m - 1) * x * row[-1] - (m - 1) * row[-2]) / m)
        P.append(row)
    # l_k = sum_{m<q} w_k (m + 1/2) P_m(x_k) P_m, int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1)
    integral = [[xs[j] + 1] + [(P[j][m + 1] - P[j][m - 1]) / (2 * m + 1) for m in range(1, q)]
                for j in range(q)]
    C = [[mp.fsum(integral[j][m] * ws[k] * (m + mp.mpf(1) / 2) * P[k][m] for m in range(q))
          for k in range(q)] for j in range(q)]
    return xs, ws, C


def reference(rates, n, a, rule):
    """L(a, lambda) at the rates r = lambda - (n - 1), r_1 < 0 the near-divergent one."""
    xs, ws, C = rule
    a, r1 = mp.mpf(a), mp.mpf(rates[0].numerator) / rates[0].denominator
    log_a = mp.log(a)
    edges = sorted({H * i for i in range(int(S_MAX / H) + 1)} | {log_a})
    panels = []  # per panel: half width, nodes s, h(s) - 1 at them
    for lo, hi in zip(edges, edges[1:]):
        half = (hi - lo) / 2
        s = [lo + half * (1 + x) for x in xs]
        panels.append((half, s, [mp.expm1(-n * mp.log1p(a * a * mp.exp(-2 * t)) / 2) for t in s]))
    F = [[mp.mpf(1)] * Q for _ in panels]  # F_{p+1} = 1
    for r in reversed(rates[1:]):  # F_p, ..., F_2 at the nodes
        r, left, inner = mp.mpf(r.numerator) / r.denominator, mp.mpf(0), []
        for (half, s, hm1), f_next in zip(panels, F):
            f = [mp.exp(r * t) * (1 + u) * v for t, u, v in zip(s, hm1, f_next)]
            inner.append([left + half * mp.fdot(C[j], f) for j in range(Q)])
            left += half * mp.fdot(ws, f)
        F = inner
    F2_inf = left
    split = mp.quad(lambda t: mp.exp(r1 * t) * mp.expm1(-n * mp.log1p(a * a * mp.exp(-2 * t)) / 2),
                    [0, log_a, log_a + 10, mp.inf])
    rest = mp.fsum(half * mp.fdot(ws, [mp.exp(r1 * t) * (1 + u) * (F2_inf - v)
                                       for t, u, v in zip(s, hm1, f2)])
                   for (half, s, hm1), f2 in zip(panels, F))
    return F2_inf * (1 / -r1 + split) - rest


def rows(table):
    """(key, rates per k in KS[table], n, a) for each key of a table."""
    if table == "POSITIVE_INNER_RATE":  # lambda = (-10^-k, -2/3, 1/3) at n = 1
        for a in (1, 20):
            rates = [[-Fraction(1, 10**k), Fraction(-2, 3), Fraction(1, 3)] for k in KS[table]]
            yield a, rates, 1, a
    else:  # lambda - (n - 1) = (-10^-k, -1/2) and (-10^-k, -1/4, -1/2)
        for p in (2, 3):
            inner = [Fraction(-1, 2)] if p == 2 else [Fraction(-1, 4), Fraction(-1, 2)]
            for n in (1, 2):
                for a in (1, 20):
                    yield (p, n, a), [[-Fraction(1, 10**k), *inner] for k in KS[table]], n, a


def entries(table):
    """(key, i, value, seconds) for each entry of a table in its order: i is
    the entry's place in its key's list, 0 for EQUAL_LAMBDA_L1."""
    if table == "EQUAL_LAMBDA_L1":
        for n in (1, 3):
            for log_a in (0, 3):
                a = mp.exp(log_a)
                for lam in (-1, -2):
                    t = time.time()
                    value = mp.quad(lambda b: b**lam * (a * a + b * b) ** (-mp.mpf(n) / 2),
                                    [1, a, mp.inf] if a > 1 else [1, mp.inf])
                    yield (n, log_a, lam), 0, float(value), time.time() - t
        return
    rule = legendre_rule(Q)
    for key, rate_rows, n, a in rows(table):
        for i, rates in enumerate(rate_rows):
            t = time.time()
            yield key, i, float(reference(rates, n, a, rule)), time.time() - t


def print_table(table):
    """The table in the layout of tests/test_twisted.py; seconds on stderr."""
    values = {}
    for key, i, value, seconds in entries(table):
        values.setdefault(key, []).append(f'"{value.hex()}"')
        print(f"{key} [{i}]: {seconds:.1f} s", file=sys.stderr)
    print(f"{table} = {{")
    if table == "EQUAL_LAMBDA_L1":  # two entries a line
        items = [f"{key}: {v}" for key, (v,) in values.items()]
        for i in range(0, len(items), 2):
            print("    " + ", ".join(items[i:i + 2]) + ",")
    else:  # a list per key, three values a line
        for key, vs in values.items():
            head = f"    {key!r}: ["
            lines = [", ".join(vs[i:i + 3]) for i in range(0, len(vs), 3)]
            print(head + (",\n" + " " * len(head)).join(lines) + "],")
    print("}")


def pinned(path):
    """{table: {(key, i): value}} of the tables as tests/test_twisted.py pins them."""
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in TABLES:
            table = ast.literal_eval(node.value)
            tables[node.targets[0].id] = {
                (key, i): float.fromhex(v) for key, vs in table.items()
                for i, v in enumerate([vs] if isinstance(vs, str) else vs)}
    return tables


def ulps(x, y):
    """The distance of two doubles of one sign in units in the last place."""
    bits = [struct.unpack("<q", struct.pack("<d", v))[0] for v in (x, y)]
    return abs(bits[0] - bits[1])


def check(path):
    """Recompute every pinned entry; 1 if any is missing or differs, else 0."""
    tables, bad = pinned(path), 0
    for table in TABLES:
        want = tables[table]
        for key, i, value, seconds in entries(table):
            d = ulps(value, want.pop((key, i))) if (key, i) in want else None
            bad += d != 0
            shown = "not pinned" if d is None else f"{d} ulps"
            print(f"{table} {key} [{i}]: {shown}, {seconds:.1f} s", flush=True)
        for key, i in want:
            bad += 1
            print(f"{table} {key} [{i}]: pinned but not computed")
    print(f"{bad} entries differ")
    return int(bad > 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", choices=TABLES)
    mode.add_argument("--check", action="store_true",
                      help="recompute every table and compare with the pinned values")
    args = parser.parse_args(argv)
    start = time.time()
    status = check(TESTS) if args.check else print_table(args.table)
    print(f"total: {time.time() - start:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
