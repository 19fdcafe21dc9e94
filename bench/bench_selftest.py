"""Tests of the benchmark itself (kept out of the library's test suite).

    python3 -m pytest bench/bench_selftest.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def deck_text(name, seed, workdir):
    wl = workloads.make(name, ROOT, str(workdir))
    text = repr(wl.deck(seed))
    for fname in sorted(os.listdir(workdir)) if os.path.isdir(workdir) else ():
        with open(os.path.join(workdir, fname)) as fh:
            text += fh.read()
    return text


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_inputs(name, tmp_path):
    a = deck_text(name, 7, tmp_path / "a")
    assert a == deck_text(name, 7, tmp_path / "b").replace("/b/", "/a/")
    assert a != deck_text(name, 8, tmp_path / "c").replace("/c/", "/a/")


def test_injected_wrong_result_counts_as_failure():
    class Corrupted(workloads.ExactSweep):
        def execute(self, op, tr):
            res = super().execute(op, tr)
            if op is self.target:
                res = self.q.lpn(self.q.ExponentVector([-1, -1]), 2, 2)
            return res

    wl = Corrupted()
    deck = wl.deck(3)[:40]
    wl.target = next(op for op in deck if op.kind == "lpn")
    first = {}
    executions, walls = run.timed_loop(wl, deck, 0.0, run.Tracer(False), first,
                                       run.Calibration())
    stats, failed_exec, failures, unexpected = run.judge(wl, deck, first, executions)
    assert len(walls) == 1
    assert sum(failed_exec) == 1 and unexpected == 1
    assert [i for i, _ in failures] == [deck.index(wl.target)]
    m = run.end_to_end(executions, failed_exec, 1, stats, [1.0], 1.0,
                       run.Calibration())
    assert m["ok_frac"] == (len(deck) - 1) / len(deck)


def test_flaky_result_counts_as_failure():
    class Flaky(workloads.ExactSweep):
        calls = 0

        def execute(self, op, tr):
            res = super().execute(op, tr)
            if op is self.target:
                self.calls += 1
                if self.calls == 2:
                    res = self.q.rho(self.q.Symplectic(1))
            return res

    wl = Flaky()
    deck = [op for op in wl.deck(3) if op.kind == "rho"][:3]
    wl.target = deck[0]
    first = {}
    executions = []
    for _ in range(2):
        executions += run.timed_loop(wl, deck, 0.0, run.Tracer(False), first,
                                     run.Calibration())[0]
    _, failed_exec, _, unexpected = run.judge(wl, deck, first, executions)
    assert failed_exec == [False, False, False, True, False, False]
    assert unexpected == 1


def test_calibration_scales_by_the_samples_around_an_operation():
    cal = run.Calibration()
    with cal:
        time.sleep(0.6)  # the timer interrupts the sleep and takes samples
    assert len(cal.samples) >= 2 and cal.spent > 0
    assert cal.scale(0.0, 1.0) == 1.0  # long before the first sample
    t = cal.stamps[0]
    assert cal.scale(t, t) == pytest.approx(
        run.CALIBRATION_REF_S / statistics.fmean(cal.samples[:2]), rel=0.5)


def test_tracer_self_time():
    tr = run.Tracer(True)
    tr.call("op.x", lambda: tr.call("lpn.small", sum, [1, 2]))
    (outer, outer_self), (inner, inner_self) = tr.self_times()
    assert (outer, inner) == ("op.x", "lpn.small")
    assert tr.spans[1][3] == 0  # parent of the lpn span is the op span
    outer_total = tr.spans[0][2] - tr.spans[0][1]
    inner_total = tr.spans[1][2] - tr.spans[1][1]
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert inner_self == pytest.approx(inner_total)


def test_spec_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-sweep", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
