import json
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


def test_overflow_is_not_malformed_input(capsys):
    # well-formed requests whose long rays overflow a float
    for argv in (
        ["--p", "1", "--n", "1", "--lambda", "-1/2", "--ray", "1",
         "--tmax", "800", "--samples", "5"],
        ["--p", "2", "--n", "2", "--lambda", "-1,-2", "--ray", "1,1",
         "--tmax", "300", "--samples", "3"],
    ):
        code, _, err = invoke(
            capsys, "verify-integral", *argv, "--delta", "0.05",
        )
        assert code == 2
        assert err.startswith("error: numerical overflow")
        assert "malformed" not in err



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
chain = sys.argv[1]
import quantind, quantind.cli
from quantind.cli import run

def numerics():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

seen = {"import": numerics()}
exact = {
    "rho": ["rho", "--group", "Sp:3"],
    "order": ["order", "--rel", "weak", "--x", "0,-1"],
    "lpn": ["lpn", "--p", "2", "--n", "2", "--lambda", "-1,-2", "--oracle"],
    "bound": ["bound", "--dir", "o2sp", "--p", "2", "--q", "3", "--n", "4",
              "--lambda", "-7/2,-5/2"],
    "range": ["range", "--test", "ss", "--dir", "o2sp", "--p", "2", "--q",
              "3", "--n", "3", "--lambda", "-1,-1"],
    "chain": ["chain", "--file", chain, "--json"],
    "infchar": ["infchar", "--file", chain, "--chi", "1/2"],
    "av": ["av", "--file", chain, "--d", "1"],
    "oscillator": ["oscillator", "--a", "1,1", "--alpha", "0,0",
                   "--beta", "0,0"],
}
codes = {}
for name, argv in exact.items():
    codes[name] = run(argv)
    seen[name] = numerics()
codes["quadrature"] = run(["oscillator", "--a", "1,1", "--alpha", "0,0",
                           "--beta", "0,0", "--check-quadrature"])
seen["quadrature"] = numerics()
codes["verify-integral"] = run(["verify-integral", "--p", "1", "--n", "1",
                                "--lambda", "-2", "--ray", "1", "--tmax", "4",
                                "--samples", "5", "--delta", "0.05", "--json"])
seen["numerical"] = numerics()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_exact_paths_load_no_numpy_or_scipy(tmp_path, chain_file):
    # a fresh interpreter: this one has numpy and scipy loaded already
    import quantind

    src = os.path.dirname(os.path.dirname(os.path.abspath(quantind.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_HYGIENE_SCRIPT, chain_file(GOOD_CHAIN)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert all(code == 0 for code in doc["codes"].values()), doc["codes"]
    numerics = doc["seen"].pop("numerical")
    assert numerics == ["numpy", "scipy"]
    assert doc["seen"].pop("quadrature") == ["numpy"]
    for step, loaded in doc["seen"].items():
        assert loaded == [], f"{step} loaded {loaded}"
