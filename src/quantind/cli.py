"""Command-line front end.

Exit codes: 0 success / positive verdict, 1 well-formed input with a
negative verdict, 2 malformed input, violated precondition or numerical
overflow.  Exact quantities (exponent vectors, bounds, infinitesimal
characters) are printed as rational strings in lowest terms; quadrature
output carries an explicit error estimate and uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fractions import Fraction

from .vectors import (
    DomainError,
    ExponentVector,
    InfChar,
    Orthogonal,
    Partition,
    Symplectic,
    _fmt_vec,
    rho,
    strictly_dominated,
    weakly_dominated,
)


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    if not token:
        raise DomainError("empty rational field")
    if any(c in token for c in ".eE"):
        raise DomainError(f"exact field requires 'a/b' or integer, got {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {token!r}: {exc}") from exc


def _parse_csv(text: str) -> list[Fraction]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return [_parse_rational(tok) for tok in text.split(",")]


def _parse_float_csv(text: str) -> list[float]:
    return [float(tok) for tok in text.strip().split(",")]


def _parse_group(text: str):
    kind, _, rest = text.partition(":")
    if kind == "O":
        try:
            p, q = (int(x) for x in rest.split(","))
        except ValueError as exc:
            raise DomainError(f"bad group spec {text!r}") from exc
        return Orthogonal(p, q)
    if kind == "Sp":
        try:
            n = int(rest)
        except ValueError as exc:
            raise DomainError(f"bad group spec {text!r}") from exc
        return Symplectic(n)
    raise DomainError("group must be O:p,q or Sp:n")


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _load_chain(path: str):
    import json
    from . import induction
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read chain file: {exc}") from exc

    def size(v):  # a JSON number reaches the exact size check as it is
        return int(v) if isinstance(v, str) else v

    try:
        start = doc["start"]
        groups = []
        for g in doc["groups"]:
            if g["kind"] == "O":
                groups.append(Orthogonal(size(g["p"]), size(g["q"])))
            elif g["kind"] == "Sp":
                groups.append(Symplectic(size(g["n"])))
            else:
                raise DomainError(f"unknown group kind {g['kind']!r}")
        lam = ExponentVector(_parse_rational(str(t)) for t in doc["lambda"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed chain document: {exc}") from exc
    return induction.DualPairChain(start, tuple(groups), lam)


def _emit_json(doc: dict) -> None:
    import json
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rho(args) -> int:
    g = _parse_group(args.group)
    print(_fmt_vec(rho(g)))
    return 0


def _cmd_order(args) -> int:
    x = ExponentVector(_parse_csv(args.x))
    ok = strictly_dominated(x) if args.rel == "strict" else weakly_dominated(x)
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_lpn(args) -> int:
    from .lpn import lpn, lpn_oracle
    lam = ExponentVector(_parse_csv(args.lam))
    result = lpn(lam, args.p, args.n)
    oracle = args.oracle and lpn_oracle(lam, args.p, args.n)  # before any output: it may refuse
    print(_fmt_vec(result.output))
    if args.witness:
        w = result.witness
        print("breakpoints: " + ",".join(str(i) for i in w.block_structure.indices))
        print("cases: " + ",".join(w.cases))
        for row in w.eta:
            print("eta: " + _fmt_vec(row))
    if args.oracle:
        match = oracle == result.output
        print(f"oracle: {_fmt_vec(oracle)} "
              f"({'match' if match else 'MISMATCH'})")
        if not match:
            return 1
    return 0


def _cmd_bound(args) -> int:
    from . import transfer
    lam = ExponentVector(_parse_csv(args.lam))
    if args.dir == "o2sp":
        out = transfer.bound_O_to_Sp(args.p, args.q, args.n, lam)
    else:
        out = transfer.bound_Sp_to_O(args.n, args.p, args.q, lam)
    print(_fmt_vec(out))
    return 0


def _cmd_range(args) -> int:
    from . import induction
    lam = ExponentVector(_parse_csv(args.lam))
    if (args.test, args.dir) not in induction.RANGE_TESTS:
        raise DomainError("odd range test applies to the o2sp direction")
    pred, template = induction.RANGE_TESTS[args.test, args.dir]
    p, q, n = args.p, args.q, args.n
    ok = pred(lam, p=p, q=q, n=n)
    ineq = template.format(lam=_fmt_vec(lam), p=p, q=q, n=n, two_n=2 * n)
    print(f"{ineq}: {'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_chain(args) -> int:
    from . import induction
    chain = _load_chain(args.file)
    rep = induction.validate_chain(chain)
    if args.json:
        _emit_json({"verdict": "pass" if rep.verdict else "fail",
                    "steps": [s._asdict() for s in rep.steps],
                    "bounds": [[str(e) for e in b] for b in rep.bounds]})
    else:
        for s in rep.steps:
            mark = "ok " if s.ok else "FAIL"
            print(f"[{mark}] {s.id:16s} {s.inequality}  lhs={s.lhs} rhs={s.rhs}")
        for i, b in enumerate(rep.bounds):
            print(f"bound[{i}]: {_fmt_vec(b)}")
        print(f"verdict: {'pass' if rep.verdict else 'fail'}")
    return 0 if rep.verdict else 1


def _cmd_infchar(args) -> int:
    from . import induction
    chain = _load_chain(args.file)
    chi = InfChar(_parse_csv(args.chi))
    for src, dst in zip(chain.groups, chain.groups[1:]):
        if isinstance(src, Orthogonal):
            chi = induction.infchar_theta("o2sp", src.p, src.q, dst.n, chi)
        else:
            chi = induction.infchar_theta("sp2o", dst.p, dst.q, src.n, chi)
    print(_fmt_vec(chi.canonical_form))
    return 0


def _cmd_av(args) -> int:
    from . import induction
    chain = _load_chain(args.file)
    if len(chain.groups) < 3:
        raise DomainError("associated-variety prediction needs a 3-group chain")
    d = Partition(_parse_csv(args.d))
    g0, g1, g2 = chain.groups[:3]
    if chain.start_kind == "O":
        sizes = (g0.p, g0.q, g1.n, g2.p, g2.q)
    else:
        sizes = (g0.n, g1.p, g1.q, g2.n)
    pred = induction.predict_associated_variety(chain.start_kind, sizes, d)
    print(f"({','.join(str(x) for x in pred.partition.parts)}) [conjectural]")
    return 0


def _cmd_oscillator(args) -> int:
    from . import oscillator
    a = _parse_float_csv(args.a)
    alpha = [int(x) for x in args.alpha.split(",")]
    beta = [int(x) for x in args.beta.split(",")]
    val = oscillator.oscillator_coefficient(a, alpha, beta)  # both before any output
    quad = args.check_quadrature and oscillator.oscillator_coefficient_quadrature(a, alpha, beta)
    print(f"value: {_fmt_float(val)}")
    if args.check_quadrature:
        scale = max(abs(val), abs(quad), 1e-300)
        rel = abs(val - quad) / scale
        print(f"quadrature: {_fmt_float(quad)}")
        print(f"rel_error: {_fmt_float(rel)}")
        if rel > 1e-8:
            return 1
    return 0


def _cmd_verify_integral(args) -> int:
    from . import twisted
    lam = ExponentVector(_parse_csv(args.lam))
    direction = _parse_float_csv(args.ray)
    if args.samples < 3:
        raise DomainError("need at least 3 samples")
    if args.samples > twisted.MAX_PANELS:  # a panel per point at least
        raise DomainError(f"at most {twisted.MAX_PANELS} samples")
    step = (args.tmax - 1.0) / (args.samples - 1)  # the grid of np.linspace
    ts = [i * step + 1.0 for i in range(args.samples - 1)] + [args.tmax]
    ray = twisted.RaySpec(direction, ts)
    report = twisted.check_gr2(lam, args.p, args.n, [ray], delta=args.delta)
    check = report.rays[0]
    doc = {
        "verdict": "pass" if report.ok else "fail",
        "mu": [str(e) for e in report.mu_bound],
        "delta": _fmt_float(args.delta),
        "max_ratio": _fmt_float(check.max_ratio),
        "trend_slope": _fmt_float(check.trend_slope),
        "ratios": [_fmt_float(r) for r in check.ratios],
    }
    if args.json:
        _emit_json(doc)
    else:
        print(f"mu = {_fmt_vec(report.mu_bound)}")
        print(f"{'t':>8s} {'ratio':>18s}")
        for t, r in zip(ts, check.ratios):
            spec = "8.3f" if t < 1e8 else "8.3e"  # a bounded width for any t
            print(f"{t:{spec}} {_fmt_float(r):>18s}")
        print(f"max ratio: {_fmt_float(check.max_ratio)}")
        print(f"trend slope: {_fmt_float(check.trend_slope)}")
        print(f"verdict: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantind",
        description="Growth-exponent calculus for dual-pair correspondences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("rho", help="Weyl vector of a classical group")
    s.add_argument("--group", required=True, help="O:p,q or Sp:n")
    s.set_defaults(func=_cmd_rho)

    s = sub.add_parser("order", help="prefix-sum dominance test against 0")
    s.add_argument("--rel", choices=["strict", "weak"], required=True)
    s.add_argument("--x", required=True, help="CSV of rationals")
    s.set_defaults(func=_cmd_order)

    s = sub.add_parser("lpn", help="exponent transfer map L(p,n)")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True, help="CSV of rationals")
    s.add_argument("--oracle", action="store_true",
                   help="cross-check against case enumeration")
    s.add_argument("--witness", action="store_true",
                   help="print breakpoints and the eta assignment")
    s.set_defaults(func=_cmd_lpn)

    s = sub.add_parser("bound", help="exponent bound across one dual-pair step")
    s.add_argument("--dir", choices=["o2sp", "sp2o"], required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True)
    s.set_defaults(func=_cmd_bound)

    s = sub.add_parser("range", help="membership in a transfer range")
    s.add_argument("--test", choices=["semistable", "ss", "odd"], required=True)
    s.add_argument("--dir", choices=["o2sp", "sp2o"], required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True)
    s.set_defaults(func=_cmd_range)

    s = sub.add_parser("chain", help="validate a dual-pair chain document")
    s.add_argument("--file", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_chain)

    s = sub.add_parser("infchar", help="propagate an infinitesimal character")
    s.add_argument("--file", required=True)
    s.add_argument("--chi", required=True, help="CSV of rationals")
    s.set_defaults(func=_cmd_infchar)

    s = sub.add_parser("av", help="conjectural associated-variety transform")
    s.add_argument("--file", required=True)
    s.add_argument("--d", required=True, help="CSV partition, e.g. 3,2,2")
    s.set_defaults(func=_cmd_av)

    s = sub.add_parser("oscillator", help="torus matrix coefficient closed form")
    s.add_argument("--a", required=True, help="CSV of positive reals")
    s.add_argument("--alpha", required=True, help="CSV of nonnegative ints")
    s.add_argument("--beta", required=True, help="CSV of nonnegative ints")
    s.add_argument("--check-quadrature", action="store_true")
    s.set_defaults(func=_cmd_oscillator)

    s = sub.add_parser("verify-integral",
                       help="bounded-ratio check for the twisted integral")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--ray", required=True, help="CSV direction, non-increasing")
    s.add_argument("--tmax", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_verify_integral)

    return parser


# flags whose values may start with '-', which argparse would otherwise
# mistake for option strings
_VALUE_FLAGS = {"--lambda", "--x", "--ray", "--chi", "--d", "--a"}


def _join_dash_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        val = next(it, None) if tok in _VALUE_FLAGS else None
        out.append(tok if val is None else f"{tok}={val}")
    return out


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors, matching our contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
