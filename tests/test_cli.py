import json
import math
import os
import subprocess
import sys

import pytest

from quantind.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho(capsys):
    code, out, _ = invoke(capsys, "rho", "--group", "Sp:3")
    assert code == 0
    assert out.strip() == "(3,2,1)"
    code, out, _ = invoke(capsys, "rho", "--group", "O:2,3")
    assert out.strip() == "(3/2,1/2)"


def test_rho_malformed(capsys):
    code, _, err = invoke(capsys, "rho", "--group", "U:3")
    assert code == 2
    assert "group" in err


@pytest.mark.parametrize("spec,reason", [
    ("Sp:0", "Sp(2n) requires n >= 1"),
    ("Sp:-2", "Sp(2n) requires n >= 1"),
    ("Sp:x", "bad group spec 'Sp:x'"),
])
def test_rho_bad_symplectic_spec_says_why(capsys, spec, reason):
    # a spec that parses but names no group keeps the group's own reason
    code, _, err = invoke(capsys, "rho", "--group", spec)
    assert code == 2
    assert reason in err


def test_order(capsys):
    code, out, _ = invoke(capsys, "order", "--rel", "strict", "--x", "-1,1/2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "order", "--rel", "strict", "--x", "0,-1")
    assert code == 1 and out.strip() == "false"
    code, out, _ = invoke(capsys, "order", "--rel", "weak", "--x", "0,-1")
    assert code == 0 and out.strip() == "true"


def test_order_rejects_decimal(capsys):
    code, _, err = invoke(capsys, "order", "--rel", "weak", "--x", "-1.5,0")
    assert code == 2


def test_lpn_example(capsys):
    code, out, _ = invoke(
        capsys, "lpn", "--p", "3", "--n", "4", "--lambda", "-1,-2,-3"
    )
    assert code == 0
    assert out.splitlines()[0] == "(-3,-2,-1,0)"


def test_lpn_oracle_and_witness(capsys):
    code, out, _ = invoke(
        capsys, "lpn", "--p", "2", "--n", "2", "--lambda", "-1,-2",
        "--oracle", "--witness",
    )
    assert code == 0
    assert "match" in out
    assert "breakpoints: 1,2" in out


def test_lpn_domain_error(capsys):
    code, _, err = invoke(
        capsys, "lpn", "--p", "2", "--n", "2", "--lambda", "1,-3"
    )
    assert code == 2


def test_bound(capsys):
    code, out, _ = invoke(
        capsys, "bound", "--dir", "o2sp", "--p", "2", "--q", "3",
        "--n", "4", "--lambda", "-7/2,-5/2",
    )
    assert code == 0
    assert out.strip() == "(-5/2,-5/2,-5/2,-5/2)"


def test_bound_out_of_range(capsys):
    code, _, err = invoke(
        capsys, "bound", "--dir", "o2sp", "--p", "2", "--q", "3",
        "--n", "1", "--lambda", "0,0",
    )
    assert code == 2
    assert "semistable" in err


def test_range(capsys):
    code, out, _ = invoke(
        capsys, "range", "--test", "ss", "--dir", "o2sp", "--p", "2",
        "--q", "3", "--n", "3", "--lambda", "-1,-1",
    )
    assert code == 0
    assert "true" in out
    code, out, _ = invoke(
        capsys, "range", "--test", "ss", "--dir", "o2sp", "--p", "2",
        "--q", "3", "--n", "3", "--lambda", "3,0",
    )
    assert code == 1
    assert "false" in out


# (test, dir, p, q, n, lambda, exit code, stdout or, on exit 2, stderr);
# every (test, dir) pair the CLI accepts, plus its error messages
RANGE_CASES = [
    ("semistable", "o2sp", 2, 3, 3, "-1,-1", 0, "(-1,-1) - 3*1 + 2*rho(O(2,3)) < 0: true\n"),
    ("semistable", "o2sp", 2, 3, 3, "3,0", 1, "(3,0) - 3*1 + 2*rho(O(2,3)) < 0: false\n"),
    ("semistable", "o2sp", 2, 3, 3, "-5/2,1/2", 0, "(-5/2,1/2) - 3*1 + 2*rho(O(2,3)) < 0: true\n"),
    ("semistable", "o2sp", 1, 2, 2, "-1/2", 0, "(-1/2) - 2*1 + 2*rho(O(1,2)) < 0: true\n"),
    ("semistable", "o2sp", 1, 2, 2, "4", 1, "(4) - 2*1 + 2*rho(O(1,2)) < 0: false\n"),
    ("semistable", "sp2o", 2, 3, 3, "-1,-1,-1", 1, "(-1,-1,-1) - (2+3)/2*1 + 2*rho(Sp(6)) < 0: false\n"),
    ("semistable", "sp2o", 2, 3, 3, "-9/2,-7/2,-5/2", 0, "(-9/2,-7/2,-5/2) - (2+3)/2*1 + 2*rho(Sp(6)) < 0: true\n"),
    ("semistable", "sp2o", 2, 3, 3, "-7,-1/2,-1", 0, "(-7,-1/2,-1) - (2+3)/2*1 + 2*rho(Sp(6)) < 0: true\n"),
    ("semistable", "sp2o", 1, 2, 2, "-4,-3", 0, "(-4,-3) - (1+2)/2*1 + 2*rho(Sp(4)) < 0: true\n"),
    ("semistable", "sp2o", 1, 2, 2, "1/3,-1/3", 1, "(1/3,-1/3) - (1+2)/2*1 + 2*rho(Sp(4)) < 0: false\n"),
    ("ss", "o2sp", 2, 3, 3, "-1,-1", 0, "(-1,-1) - (3 - (2+3)/2)*1 + rho(O(2,3)) <= 0: true\n"),
    ("ss", "o2sp", 2, 3, 3, "3,0", 1, "(3,0) - (3 - (2+3)/2)*1 + rho(O(2,3)) <= 0: false\n"),
    ("ss", "o2sp", 2, 3, 3, "-5/2,1/2", 0, "(-5/2,1/2) - (3 - (2+3)/2)*1 + rho(O(2,3)) <= 0: true\n"),
    ("ss", "o2sp", 1, 2, 2, "-1/2", 0, "(-1/2) - (2 - (1+2)/2)*1 + rho(O(1,2)) <= 0: true\n"),
    ("ss", "o2sp", 1, 2, 2, "4", 1, "(4) - (2 - (1+2)/2)*1 + rho(O(1,2)) <= 0: false\n"),
    ("ss", "sp2o", 2, 3, 3, "-1,-1,-1", 1, "(-1,-1,-1) - ((2+3)/2 - 3 - 1)*1 + rho(Sp(6)) <= 0: false\n"),
    ("ss", "sp2o", 2, 3, 3, "-9/2,-7/2,-5/2", 0, "(-9/2,-7/2,-5/2) - ((2+3)/2 - 3 - 1)*1 + rho(Sp(6)) <= 0: true\n"),
    ("ss", "sp2o", 2, 3, 3, "-7,-1/2,-1", 1, "(-7,-1/2,-1) - ((2+3)/2 - 3 - 1)*1 + rho(Sp(6)) <= 0: false\n"),
    ("ss", "sp2o", 1, 2, 2, "-4,-3", 0, "(-4,-3) - ((1+2)/2 - 2 - 1)*1 + rho(Sp(4)) <= 0: true\n"),
    ("ss", "sp2o", 1, 2, 2, "1/3,-1/3", 1, "(1/3,-1/3) - ((1+2)/2 - 2 - 1)*1 + rho(Sp(4)) <= 0: false\n"),
    ("odd", "o2sp", 2, 3, 3, "-1,-1", 0, "(-1,-1) - (3 - (2+3-1)/2)*1 + rho(O(2,3)) <= 0: true\n"),
    ("odd", "o2sp", 2, 3, 3, "3,0", 1, "(3,0) - (3 - (2+3-1)/2)*1 + rho(O(2,3)) <= 0: false\n"),
    ("odd", "o2sp", 2, 3, 3, "-5/2,1/2", 0, "(-5/2,1/2) - (3 - (2+3-1)/2)*1 + rho(O(2,3)) <= 0: true\n"),
    ("odd", "o2sp", 1, 2, 2, "-1/2", 0, "(-1/2) - (2 - (1+2-1)/2)*1 + rho(O(1,2)) <= 0: true\n"),
    ("odd", "o2sp", 1, 2, 2, "4", 1, "(4) - (2 - (1+2-1)/2)*1 + rho(O(1,2)) <= 0: false\n"),
    ("odd", "sp2o", 2, 3, 3, "-1,-1,-1", 2, "error: odd range test applies to the o2sp direction\n"),
    ("odd", "o2sp", 2, 2, 3, "-1,-1", 2, "error: p+q must be odd\n"),
    ("ss", "sp2o", 2, 3, 3, "-1,-1", 2, "error: lambda must have length n=3\n"),
    # a prefix sum exactly 0, for <= 0 and for < 0; 0 reached through thirds
    ("ss", "sp2o", 2, 3, 1, "-1/2", 0, "(-1/2) - ((2+3)/2 - 1 - 1)*1 + rho(Sp(2)) <= 0: true\n"),
    ("semistable", "sp2o", 2, 3, 1, "1/2", 1, "(1/2) - (2+3)/2*1 + 2*rho(Sp(2)) < 0: false\n"),
    ("semistable", "o2sp", 2, 3, 3, "-1/3,7/3", 1, "(-1/3,7/3) - 3*1 + 2*rho(O(2,3)) < 0: false\n"),
    ("ss", "o2sp", 2, 3, 3, "-1", 2, "error: lambda must have length p=2\n"),
]


@pytest.mark.parametrize("test,dir,p,q,n,lam,code,text", RANGE_CASES)
def test_range_output_pinned(capsys, test, dir, p, q, n, lam, code, text):
    got, out, err = invoke(
        capsys, "range", "--test", test, "--dir", dir, "--p", str(p),
        "--q", str(q), "--n", str(n), "--lambda", lam,
    )
    assert got == code
    assert (out, err) == ((text, "") if code < 2 else ("", text))


@pytest.fixture
def chain_file(tmp_path):
    def write(doc, name="chain.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


GOOD_CHAIN = {
    "start": "O",
    "groups": [
        {"kind": "O", "p": 2, "q": 3},
        {"kind": "Sp", "n": 3},
        {"kind": "O", "p": 4, "q": 5},
    ],
    "lambda": ["-1", "-1"],
}

BAD_PARITY_CHAIN = {
    "start": "O",
    "groups": [
        {"kind": "O", "p": 2, "q": 2},
        {"kind": "Sp", "n": 3},
        {"kind": "O", "p": 4, "q": 5},
    ],
    "lambda": ["-3/2", "-1/2"],
}


def test_chain_pass(capsys, chain_file):
    code, out, _ = invoke(capsys, "chain", "--file", chain_file(GOOD_CHAIN))
    assert code == 0
    assert "verdict: pass" in out


def test_chain_parity_failure(capsys, chain_file):
    code, out, _ = invoke(
        capsys, "chain", "--file", chain_file(BAD_PARITY_CHAIN)
    )
    assert code == 1
    assert any("parity" in line and "FAIL" in line for line in out.splitlines())


def test_chain_json_roundtrip_and_determinism(capsys, chain_file):
    path = chain_file(GOOD_CHAIN)
    code, out1, _ = invoke(capsys, "chain", "--file", path, "--json")
    code, out2, _ = invoke(capsys, "chain", "--file", path, "--json")
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert list(doc.keys()) == ["verdict", "steps", "bounds"]
    assert doc["verdict"] == "pass"
    # canonical serialization round-trips
    assert json.dumps(doc, indent=2) + "\n" == out1


def test_chain_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "chain", "--file", str(path))
    assert code == 2


def test_chain_rejects_decimal_lambda(capsys, chain_file):
    doc = dict(GOOD_CHAIN, **{"lambda": ["-1.5", "-1"]})
    code, _, err = invoke(capsys, "chain", "--file", chain_file(doc))
    assert code == 2


@pytest.mark.parametrize("command", [["chain"], ["av", "--d", "1"]])
@pytest.mark.parametrize("key,size", [
    ("p", 2.5), ("p", 2.0), ("q", True), ("n", 3.5), ("n", False), ("p", "2.5"), ("n", None),
])
def test_chain_file_refuses_a_size_that_is_not_an_integer(
    capsys, chain_file, command, key, size
):
    # 2.5 is refused, not truncated to 2; a float or a bool is no size either
    groups = [dict(g) for g in GOOD_CHAIN["groups"]]
    groups[0 if key in "pq" else 1][key] = size
    path = chain_file(dict(GOOD_CHAIN, groups=groups))
    code, out, err = invoke(capsys, command[0], "--file", path, *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed chain document")


@pytest.mark.parametrize("command", [["chain"], ["av", "--d", "1"]])
def test_chain_file_accepts_integer_strings(capsys, chain_file, command):
    groups = [{k: str(v) if k != "kind" else v for k, v in g.items()}
              for g in GOOD_CHAIN["groups"]]
    runs = [invoke(capsys, command[0], "--file", chain_file(doc, name), *command[1:])
            for doc, name in ((GOOD_CHAIN, "a.json"),
                              (dict(GOOD_CHAIN, groups=groups), "b.json"))]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_infchar(capsys, chain_file):
    code, out, _ = invoke(
        capsys, "infchar", "--file", chain_file(GOOD_CHAIN), "--chi", "1/2"
    )
    assert code == 0
    # each of the two steps appends the singleton string (1/2)
    assert out.strip() == "(1/2,1/2,1/2)"


def test_av(capsys, chain_file):
    code, out, _ = invoke(
        capsys, "av", "--file", chain_file(GOOD_CHAIN), "--d", "1"
    )
    assert code == 0
    assert out.strip() == "(3,1,1) [conjectural]"


@pytest.mark.parametrize("d", ["3/2", "2,0"])
def test_av_rejects_a_part_that_is_not_a_positive_integer(capsys, chain_file, d):
    # 3/2 is refused, not truncated to 1
    code, out, err = invoke(capsys, "av", "--file", chain_file(GOOD_CHAIN), "--d", d)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_oscillator(capsys):
    code, out, _ = invoke(
        capsys, "oscillator", "--a", "1,1", "--alpha", "0,0", "--beta", "0,0",
        "--check-quadrature",
    )
    assert code == 0
    assert out.startswith("value: 3.14159265359")


def test_oscillator_huge_torus_entry(capsys):
    # a^2 overflows a double; the coefficient sqrt(2 pi / a) does not
    code, out, _ = invoke(
        capsys, "oscillator", "--a", "1e200", "--alpha", "0", "--beta", "0",
    )
    assert code == 0
    assert out == "value: 2.50662827463e-100\n"


def test_oscillator_moment_past_the_double_range(capsys):
    # 309!! is no double; the coefficient is
    code, out, _ = invoke(capsys, "oscillator", "--a", "10", "--alpha", "0", "--beta", "310")
    assert (code, out) == (0, "value: 167083056.973\n")


@pytest.mark.parametrize("argv", [
    ["--a", "1e308", "--alpha", "1", "--beta", "1", "--check-quadrature"],
    ["--a", "1e-200,1e-200", "--alpha", "2,2", "--beta", "0,0"],
])
def test_oscillator_below_the_double_range_is_an_error(capsys, argv):
    code, out, err = invoke(capsys, "oscillator", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: numerical overflow:")
    assert "below the normal double range" in err


def test_oscillator_odd_moment_is_an_exact_zero(capsys):
    code, out, _ = invoke(
        capsys, "oscillator", "--a", "1e308,2", "--alpha", "1,0", "--beta", "1,1",
        "--check-quadrature",
    )
    assert (code, out) == (0, "value: 0\nquadrature: 0\nrel_error: 0\n")


def test_verify_integral_json_deterministic(capsys):
    args = (
        "verify-integral", "--p", "1", "--n", "1", "--lambda", "-2",
        "--ray", "1", "--tmax", "4", "--samples", "5", "--delta", "0.05",
        "--json",
    )
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] == "pass"
    assert doc["mu"] == ["-1"]


def test_verify_integral_divergent(capsys):
    code, _, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", "0",
        "--ray", "1", "--tmax", "4", "--samples", "5", "--delta", "0.05",
    )
    assert code == 2
    assert "diverges" in err


def test_verify_integral_long_scalar_ray(capsys):
    # a = e^400 is a double, and the p = 1 integrand never squares it
    code, out, _ = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", "-1/2",
        "--ray", "1", "--tmax", "400", "--samples", "5", "--delta", "0.05",
    )
    assert code == 0
    assert out.endswith("verdict: pass\n")


@pytest.mark.parametrize("tmax", ["200", "300"])
def test_verify_integral_below_double_range(capsys, tmax):
    # L ~ e^-4t is below the double range at t = 200 and 300, its ratio to
    # the bound e^{(1 - delta) (mu . s) t} is not: a verdict, not an error
    code, out, _ = invoke(
        capsys, "verify-integral", "--p", "2", "--n", "2", "--lambda", "-1,-2",
        "--ray", "1,1", "--tmax", tmax, "--samples", "3", "--delta", "0.05",
    )
    assert code == 0
    assert out.endswith("verdict: pass\n")


def test_verify_integral_ray_past_the_double_range(capsys):
    # a = e^800 is no double; the ray is evaluated in log a
    code, out, _ = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", "-1/2",
        "--ray", "1", "--tmax", "800", "--samples", "6", "--delta", "0.05",
        "--json",
    )
    assert code in (0, 1)
    ratios = [float(r) for r in json.loads(out)["ratios"]]
    assert len(ratios) == 6
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)


def test_overflow_is_not_malformed_input(capsys):
    # a well-formed request whose ratio to the bound is about e^-840 at
    # t = 400: no verdict rests on a ratio of 0.0
    argv = ["--p", "2", "--n", "2", "--lambda", "-1,-1", "--ray", "1,1",
            "--tmax", "400", "--samples", "3"]
    code, out, err = invoke(capsys, "verify-integral", *argv, "--delta", "0.05")
    assert code == 2
    assert out == ""
    assert err.startswith("error: numerical overflow")
    assert "malformed" not in err



def test_verify_integral_ray_past_the_grid_resolution(capsys):
    # t s reaches 3e307: a plain domain error, not a numerical overflow
    code, out, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", "-1/2",
        "--ray", "1e300", "--tmax", "3e7", "--samples", "3", "--delta", "0.05",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: log a is too large") and "overflow" not in err


def test_verify_integral_refuses_more_samples_than_panels(capsys, monkeypatch):
    # every sample needs a panel at least: refused before the t-values, the
    # ray or any row is built, so the refusal costs nothing per sample
    from quantind import twisted

    def unreachable(*args):
        raise AssertionError("the ray was built")

    monkeypatch.setattr(twisted, "MAX_PANELS", 4)
    monkeypatch.setattr(twisted, "RaySpec", unreachable)
    code, out, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", "-2",
        "--ray", "1", "--tmax", "4", "--samples", "5", "--delta", "0.05",
    )
    assert code == 2
    assert out == ""
    assert err == "error: at most 4 samples\n"


def test_verify_integral_near_divergent_lambda(capsys):
    # margin -1e-15: L ~ 1e15 along the ray, a verdict rather than a refusal
    code, out, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda",
        "-1/1000000000000000", "--ray", "1", "--tmax", "6", "--samples", "6",
        "--delta", "0.05",
    )
    assert (code, err) == (0, "")
    assert out.endswith("verdict: pass\n")


@pytest.mark.parametrize("k", [320, 400])
def test_verify_integral_margin_too_small_is_refused_by_name(capsys, k):
    # the margin -10^-320 evaluates (L ~ 10^320, a subnormal margin), and
    # its ratio to e^{(1 - delta) mu t} lies above the double range; the
    # margin -10^-400 floats to 0
    code, out, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda",
        f"-1/{10**k}", "--ray", "1", "--tmax", "6", "--samples", "6",
        "--delta", "0.05",
    )
    assert (code, out) == (2, "")
    assert err == {
        320: "error: numerical overflow: a ratio is above the double range\n",
        400: "error: the least margin 0 of lambda - (n-1)*1 is too small for panels 1 wide\n",
    }[k]


def test_verify_integral_lambda_beyond_the_double_range_is_refused_by_name(capsys):
    code, out, err = invoke(
        capsys, "verify-integral", "--p", "1", "--n", "1", "--lambda", f"-{10**400}",
        "--ray", "1", "--tmax", "6", "--samples", "3", "--delta", "0.05",
    )
    assert (code, out) == (2, "")
    assert err == "error: lambda - (n-1)*1 lies beyond the double range\n"


# chain documents for CLI_CASES, written as {tmp}/<name>
CLI_CHAINS = {
    "kind_u.json": {"start": "O", "lambda": ["-1"], "groups": [{"kind": "U", "n": 1}]},
    "two.json": {"start": "O", "lambda": ["-1"],
                 "groups": [{"kind": "O", "p": 1, "q": 1}, {"kind": "Sp", "n": 1}]},
    "sp3.json": {"start": "Sp", "lambda": ["-3"],
                 "groups": [{"kind": "Sp", "n": 1}, {"kind": "O", "p": 1, "q": 2},
                            {"kind": "Sp", "n": 3}]},
}

# (argv, exit code, stdout, last line of stderr) for branches of the front end
CLI_CASES = [
    (["order", "--rel", "strict", "--x", "1,,2"], 2, "", "error: empty rational field"),
    (["order", "--rel", "strict", "--x", "1/0"], 2, "",
     "error: bad rational '1/0': Fraction(1, 0)"),
    (["order", "--rel", "strict", "--x", "(-1,-2)"], 0, "true\n", None),
    (["rho", "--group", "O:1"], 2, "", "error: bad group spec 'O:1'"),
    (["chain", "--file", "{tmp}/kind_u.json"], 2, "",
     "error: malformed chain document: unknown group kind 'U'"),
    (["bound", "--dir", "sp2o", "--n", "2", "--p", "3", "--q", "4", "--lambda", "-5/2,-7/6"],
     0, "(-2,-2,-2/3)\n", None),
    (["av", "--file", "{tmp}/two.json", "--d", "1"], 2, "",
     "error: associated-variety prediction needs a 3-group chain"),
    # Sp-first sizes (n, p, q, n') = (1, 1, 2, 3) prepend (3, 1) to d^T = (1, 1)
    (["av", "--file", "{tmp}/sp3.json", "--d", "2"], 0, "(4,1,1) [conjectural]\n", None),
    (["verify-integral", "--p", "1", "--n", "1", "--lambda", "-2", "--ray", "1",
      "--tmax", "6", "--samples", "1", "--delta", "0.05"], 2, "",
     "error: need at least 3 samples"),
    (["oscillator", "--a", "abc", "--alpha", "1", "--beta", "1"], 2, "",
     "error: malformed input: could not convert string to float: 'abc'"),
    # a value flag last, with no value: argparse's own usage error
    (["order", "--rel", "strict", "--x"], 2, "",
     "quantind order: error: argument --x: expected one argument"),
    # exit 2 prints nothing on stdout: the oracle and the quadrature refuse
    # before the value they would check is printed
    (["lpn", "--p", "5", "--n", "5", "--lambda", "-1,-1,-1,-1,-1", "--oracle"], 2, "",
     "error: oracle limited to 16 cells, got 25"),
    (["oscillator", "--a", "1e300", "--alpha", "300", "--beta", "0", "--check-quadrature"],
     2, "", "error: numerical overflow: the quadrature coefficient or a term of it is above "
     "the double range"),
    (["oscillator", "--a", "1", "--alpha", "200", "--beta", "201", "--check-quadrature"],
     2, "", "error: numerical overflow: the quadrature coefficient or a term of it is above "
     "the double range"),
    # log a = 5e-324 halves its gap to the knot 0 to nothing and merges into
    # it: L is sqrt(2) - 1, as at a = 1
    (["verify-integral", "--p", "1", "--n", "1", "--lambda", "-2", "--ray", "5e-324",
      "--tmax", "2", "--samples", "3", "--delta", "0.05"], 0,
     "mu = (-1)\n       t              ratio\n   1.000     0.414213562373\n"
     "   1.500     0.414213562373\n   2.000     0.414213562373\n"
     "max ratio: 0.414213562373\ntrend slope: 0\nverdict: pass\n", None),
    # t up to 1e300: the trend is fitted on deviations whose squares would
    # overflow; log a runs from 1e-300 to 1; t from 1e8 on prints as {t:8.3e}
    (["verify-integral", "--p", "1", "--n", "1", "--lambda", "-2", "--ray", "1e-300",
      "--tmax", "1e300", "--samples", "3", "--delta", "0.05"], 0,
     "mu = (-1)\n       t              ratio\n   1.000     0.414213562373\n"
     "5.000e+299     0.549131785386\n1.000e+300     0.663617304297\n"
     "max ratio: 0.663617304297\ntrend slope: 4.7132394241e-301\nverdict: pass\n", None),
]


@pytest.mark.parametrize("argv,code,out,err", CLI_CASES)
def test_cli_branches(capsys, tmp_path, argv, code, out, err):
    for name, doc in CLI_CHAINS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    got = invoke(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (got[0], got[1], got[2].splitlines()[-1:]) == (code, out, [err] if err else [])


VERIFY_ARGS = ["verify-integral", "--p", "1", "--n", "1", "--lambda", "-2",
               "--samples", "5", "--delta", "0.05"]


@pytest.mark.parametrize("argv", [
    VERIFY_ARGS + ["--ray", "inf", "--tmax", "4"],
    VERIFY_ARGS + ["--ray", "nan", "--tmax", "4"],
    VERIFY_ARGS + ["--ray", "1", "--tmax", "nan"],
    VERIFY_ARGS + ["--ray", "1", "--tmax", "inf"],
    ["oscillator", "--a", "nan", "--alpha", "0", "--beta", "0"],
    ["oscillator", "--a", "1,inf", "--alpha", "0,0", "--beta", "0,0"],
])
def test_non_finite_floats_are_malformed(capsys, argv):
    # no verdict, no nan output and no traceback: a plain error, exit 2
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


IMPORT_HYGIENE_SCRIPT = """
import json, sys
import quantind.cli

def loaded():
    return {"layers": sorted(m.split(".")[1] for m in sys.modules
                             if m.startswith("quantind.") and m != "quantind.cli"),
            "numerics": sorted(m for m in ("numpy", "numpy.polynomial", "scipy")
                               if m in sys.modules),
            "dataclasses": "dataclasses" in sys.modules}

argv = json.loads(sys.argv[1])
before = loaded()
code = quantind.cli.run(argv) if argv else 0
print(json.dumps({"import": before, "run": loaded(), "code": code}))
"""

EXACT = ["lpn", "vectors"]
INDUCTION = ["induction", "lpn", "transfer", "vectors"]


def hygiene_runs(chain):
    """Each subcommand's argv and the quantind layers it may load."""
    return {
        "import": ([], EXACT),
        "rho": (["rho", "--group", "Sp:3"], EXACT),
        "order": (["order", "--rel", "weak", "--x", "0,-1"], EXACT),
        "lpn": (["lpn", "--p", "2", "--n", "2", "--lambda", "-1,-2", "--oracle"],
                EXACT),
        "bound": (["bound", "--dir", "o2sp", "--p", "2", "--q", "3", "--n", "4",
                   "--lambda", "-7/2,-5/2"], ["lpn", "transfer", "vectors"]),
        "range": (["range", "--test", "ss", "--dir", "o2sp", "--p", "2", "--q",
                   "3", "--n", "3", "--lambda", "-1,-1"], INDUCTION),
        "chain": (["chain", "--file", chain, "--json"], INDUCTION),
        "infchar": (["infchar", "--file", chain, "--chi", "1/2"], INDUCTION),
        "av": (["av", "--file", chain, "--d", "1"], INDUCTION),
        "oscillator": (["oscillator", "--a", "1,1", "--alpha", "0,0",
                        "--beta", "0,0"], ["lpn", "oscillator", "vectors"]),
        "quadrature": (["oscillator", "--a", "1.5,2", "--alpha", "1,2",
                        "--beta", "1,2", "--check-quadrature"],
                       ["lpn", "oscillator", "vectors"]),
        "verify-integral": (["verify-integral", "--p", "1", "--n", "1",
                             "--lambda", "-2", "--ray", "1", "--tmax", "4",
                             "--samples", "5", "--delta", "0.05", "--json"],
                            ["lpn", "twisted", "vectors"]),
    }


def test_exact_paths_load_no_numpy_or_scipy(tmp_path, chain_file):
    # each subcommand in a fresh interpreter (this one has numpy and scipy
    # loaded already): it loads only its own layers, and only
    # verify-integral loads twisted and numpy; no step loads dataclasses or
    # numpy.polynomial
    import quantind

    src = os.path.dirname(os.path.dirname(os.path.abspath(quantind.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for step, (argv, layers) in hygiene_runs(chain_file(GOOD_CHAIN)).items():
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_HYGIENE_SCRIPT, json.dumps(argv)],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
        )
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["code"] == 0, (step, proc.stderr)
        assert doc["import"] == {"layers": EXACT, "numerics": [],
                                 "dataclasses": False}, step
        numerics = ["numpy"] if step == "verify-integral" else []
        assert doc["run"] == {"layers": layers, "numerics": numerics,
                              "dataclasses": False}, step
