"""quantind benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports quantind from `src/`.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones (see BENCHMARK.json for the list).
Each run also writes its full record (environment, digest of exact outputs,
failures, and for traced runs every span) under `.bench_out/`.

All load comes from this one process and one closed-loop caller: the timed
loop replays the workload's deck of operations, pass after pass, and stops at
the pass boundary nearest to `--seconds`.  `cli-cold` starts its `quantind`
subprocesses one at a time.  BLAS/OpenMP pools are pinned to one thread here
and in every child.

End-to-end times are reported at a reference machine speed.  A SIGALRM
timer runs a fixed piece of pure-Python work every 0.25 s, also in the middle
of an operation (that time is taken out of the operation's latency), and each
latency is scaled by CALIBRATION_REF_S / (mean of the samples taken during
the operation and around it, at least 2 s in all).  Set-up probes time the same work
themselves once set up.  On a shared machine the same work runs up to 60 %
longer from one second to the next, and the calibration moves with it; the
samples are kept in the run's record under `.bench_out/`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
CALIBRATION_EVERY_S = 0.25
CALIBRATION_SPAN_S = 2.0  # an operation is scaled by the samples of this span
CALIBRATION_REF_S = 0.0035  # its median on a quiet 2-core x86 VM (Python 3.11)
FLOAT_RESOLUTION = 2.0 ** -52  # max_rel_err floor: exact outputs report this

CLI_SUBCOMMANDS = ("rho", "order", "lpn", "bound", "range", "chain", "infchar",
                   "av", "oscillator", "verify-integral")


class Tracer:
    """Spans kept in memory: [name, start, end, parent span, op id]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, self.op_id]
        self.spans.append(span)
        self.stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> list[tuple[str, float]]:
        """(name, duration minus the time covered by child spans) per span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(s[0], s[2] - s[1] - c) for s, c in zip(self.spans, child)]


class Calibration:
    """Machine-speed samples: a SIGALRM timer runs a fixed piece of work.

    Every CALIBRATION_EVERY_S the handler times `work()` in the main thread,
    also in the middle of a long operation, so each operation can be scaled
    by the speed measured while it ran.  Use as a context manager.
    """

    def __init__(self):
        self.stamps: list[float] = []  # end of each sample
        self.samples: list[float] = []  # its duration
        self.spent = 0.0

    @staticmethod
    def work() -> None:
        # exact rationals and a float loop, like the library's inner loops
        acc = Fraction(0)
        for i in range(1, 700):
            acc += Fraction(1, i)
        x = 0.0
        for i in range(15000):
            x += math.exp(-i * 1e-4)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the speed around [t0, t1] (1 if unknown).

        The samples come from [t0, t1] padded to CALIBRATION_SPAN_S, and
        by at least one sampling interval on each side.
        """
        pad = max(CALIBRATION_EVERY_S, (CALIBRATION_SPAN_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.stamps, t0 - pad)
        hi = bisect.bisect_right(self.stamps, t1 + pad)
        xs = self.samples[lo:hi]
        return CALIBRATION_REF_S / statistics.fmean(xs) if xs else 1.0

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples) * 1e3 if self.samples else 0.0


def timed_loop(wl, deck, seconds, tracer, first, cal):
    """Replay the deck until the pass boundary nearest `seconds`.

    Returns (executions, pass walls); an execution is (deck index, latency,
    same-as-first-pass, start, end), and each pass adds len(deck) of them.
    `first` maps deck index to the first result and its summary, and is
    filled on the first pass.  Time spent in calibration samples is left
    out of latencies and walls.
    """
    from workloads import Raised

    executions = []
    walls = []
    while True:
        start, spent = time.perf_counter(), cal.spent
        for i, op in enumerate(deck):
            tracer.op_id = i
            t0, c0 = time.perf_counter(), cal.spent
            try:
                res = tracer.call("op." + op.kind, wl.execute, op, tracer)
            except Exception as exc:  # an op's failure is data, not a crash
                res = Raised(type(exc).__name__, str(exc))
            t1 = time.perf_counter()
            summary = wl.summary(op, res)
            if i not in first:
                first[i] = (res, summary)
            executions.append((i, t1 - t0 - (cal.spent - c0),
                               summary == first[i][1], t0, t1))
        walls.append(time.perf_counter() - start - (cal.spent - spent))
        elapsed = sum(walls)
        if elapsed + 0.5 * elapsed / len(walls) >= seconds:
            return executions, walls


def run_probe(args) -> int:
    """Fresh-interpreter set-up: import, inputs, one warm-up per layer."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import quantind  # noqa: F401

    t1 = time.perf_counter()
    loaded = {"import.numpy_loaded": int("numpy" in sys.modules),
              "import.scipy_loaded": int("scipy" in sys.modules)}
    cli_s = None
    if args.workload == "cli-cold":
        import quantind.cli  # noqa: F401

        cli_s = time.perf_counter() - t1
    import workloads

    wl = workloads.make(args.workload, ROOT, os.path.join(OUT, "work"))
    wl.deck(args.seed)
    wl.warm_up(Tracer(False))
    print(json.dumps({"ready": True}), flush=True)
    if cli_s is None:
        t2 = time.perf_counter()
        import quantind.cli  # noqa: F401,F811

        cli_s = time.perf_counter() - t2
    cal = []
    for _ in range(5):
        t3 = time.perf_counter()
        Calibration.work()
        cal.append(time.perf_counter() - t3)
    print(json.dumps({"import.quantind_s": t1 - t0, "import.cli_s": cli_s,
                      "calibration_s": statistics.median(cal), **loaded}),
          flush=True)
    return 0


def setup_probes(args, count: int) -> tuple[list[float], list[dict]]:
    """Wall time to each probe's ready line, scaled to the reference speed
    by the calibration the probe runs after it (this process stays idle)."""
    walls, infos = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t0
        # read through the same buffered files: readline may already hold
        # the rest of stdout, which communicate() would not see
        rest, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()
        if proc.returncode != 0 or not ready.startswith('{"ready"'):
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        infos.append(json.loads(rest.strip().splitlines()[-1]))
        walls.append(wall * CALIBRATION_REF_S / infos[-1]["calibration_s"])
    return walls, infos


def percentile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": src_lines(),
    }


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "quantind", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def judge(wl, deck, first, executions):
    """Independent checks of every distinct result, then of each execution."""
    stats = defaultdict(float)
    stats["rel_errors"] = []
    verdicts = {i: wl.check(deck[i], res, stats) for i, (res, _) in first.items()}
    failures, unexpected = [], 0
    failed_exec = []
    for i, _, same, _, _ in executions:
        bad = verdicts[i] or (None if same else "result differs from first pass")
        failed_exec.append(bad is not None)
        if bad:
            failures.append((i, bad))
            unexpected += not deck[i].known_defect
    return stats, failed_exec, failures, unexpected


def scaled_latencies(executions, cal) -> list[float]:
    return [lat * cal.scale(t0, t1) for _, lat, _, t0, t1 in executions]


def ok_rate(executions, failed_exec, passes, cal) -> float:
    """Median over passes of operations without failure per scaled second."""
    lat = scaled_latencies(executions, cal)
    n = len(executions) // passes
    return statistics.median(
        (n - sum(failed_exec[k * n:(k + 1) * n])) / sum(lat[k * n:(k + 1) * n])
        for k in range(passes))


def end_to_end(executions, failed_exec, passes, stats, setup_walls, rss_mb, cal):
    """The end-to-end metrics, times scaled to the reference speed."""
    attempted = len(executions)
    failed = sum(failed_exec)
    lat_ms = [x * 1e3 for x, bad in zip(scaled_latencies(executions, cal), failed_exec)
              if not bad] or [float("nan")]
    return {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": ok_rate(executions, failed_exec, passes, cal),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p99_ms": percentile(lat_ms, 99),
        "ok_frac": (attempted - failed) / attempted,
        "max_rel_err": max(stats["rel_errors"] + [FLOAT_RESOLUTION]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, passes, stats, probe, overhead, fail_frac,
              calibration_ms) -> dict:
    """Per-pass counts and self times from the traced half of a run."""
    busy = defaultdict(float)
    calls = defaultdict(float)
    durations = defaultdict(list)
    for (name, self_s), span in zip(tracer.self_times(), tracer.spans):
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            busy[".".join(parts[:k])] += self_s
            calls[".".join(parts[:k])] += 1
        durations[name].append(span[2] - span[1])
    m = {k: probe[k] for k in ("import.quantind_s", "import.cli_s",
                               "import.scipy_loaded", "import.numpy_loaded")}

    def layer(prefix, *, with_calls=True):
        if with_calls:
            m[f"{prefix}.calls"] = calls[prefix] / passes
        m[f"{prefix}.busy_s"] = busy[prefix] / passes

    layer("vectors")
    layer("lpn")
    layer("lpn.small", with_calls=False)
    layer("lpn.large", with_calls=False)
    m["lpn.cells"] = stats["lpn.cells"]
    m["lpn.blocks"] = stats["lpn.blocks"]
    m["lpn.ar3_frac"] = stats["lpn.ar3"] / stats["lpn.cases"] if stats["lpn.cases"] else 0.0
    m["lpn.oracle_checks"] = stats["lpn.oracle_checks"]
    m["lpn.oracle_mismatches"] = stats["lpn.oracle_mismatches"]
    layer("transfer")
    m["transfer.precondition_rejects"] = stats["transfer.precondition_rejects"]
    layer("induction.validate_chain")
    m["induction.validate_chain.steps"] = stats["induction.validate_chain.steps"]
    m["induction.validate_chain.transfers"] = stats["induction.validate_chain.transfers"]
    layer("induction.validate_chain.long", with_calls=False)
    layer("induction.infchar")
    layer("induction.range")
    layer("oscillator.closed")
    layer("oscillator.quadrature")
    m["oscillator.max_rel_err"] = stats["oscillator.max_rel_err"]
    for p in range(1, 6):
        layer(f"twisted.evaluate.p{p}")
    for key in ("nodes", "bound_violations", "no_digit"):
        m[f"twisted.evaluate.{key}"] = stats[f"twisted.evaluate.{key}"]
    layer("twisted.check_gr2")
    layer("twisted.fit_decay")
    m["twisted.fit_decay.max_slope_err"] = stats["twisted.fit_decay.max_slope_err"]
    for sub in CLI_SUBCOMMANDS:
        d = durations.get(f"cli.{sub}")
        m[f"cli.{sub}.p50_s"] = statistics.median(d) if d else 0.0
    m["cli.exit_mismatches"] = stats["cli.exit_mismatches"]
    m["cli.output_mismatches"] = stats["cli.output_mismatches"]
    m["bench.trace_overhead"] = overhead
    m["bench.calibration_ms"] = calibration_ms
    m["bench.fail_frac"] = fail_frac
    m["src.lines"] = src_lines()
    return m


def units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quantind", "__init__.py")):
        print(f"error: no quantind sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        return run_probe(args)

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, ROOT, os.path.join(OUT, "work"))
    deck = wl.deck(args.seed)
    wl.warm_up(Tracer(False))
    first: dict = {}
    setup_walls, probe_infos = setup_probes(args, SETUP_PROBES if not args.trace else 1)
    with Calibration() as cal:
        if args.trace:
            plain, plain_walls = timed_loop(wl, deck, args.seconds / 2,
                                            Tracer(False), first, cal)
            tracer = Tracer(True)
            traced, traced_walls = timed_loop(wl, deck, args.seconds / 2, tracer,
                                              first, cal)
            executions, walls = plain + traced, plain_walls + traced_walls
            passes = len(traced_walls)
        else:
            tracer = Tracer(False)
            executions, walls = timed_loop(wl, deck, args.seconds, tracer, first, cal)
            passes = len(walls)
    probe = {k: statistics.median(info[k] for info in probe_infos)
             for k in probe_infos[0] if k.startswith("import.")}
    elapsed = sum(walls)
    rss_kb = getattr(wl, "child_peak_kb", 0) or workloads.peak_rss_kb()

    stats, failed_exec, failures, unexpected = judge(wl, deck, first, executions)
    attempted, failed = len(executions), sum(failed_exec)
    if args.trace:
        n_plain = len(plain)
        overhead = (ok_rate(traced, failed_exec[n_plain:], passes, cal)
                    / ok_rate(plain, failed_exec[:n_plain], len(plain_walls), cal))
        metrics = per_layer(tracer, passes, stats, probe, overhead,
                            failed / attempted, cal.mean_ms())
    else:
        metrics = end_to_end(executions, failed_exec, passes, stats, setup_walls,
                             rss_kb / 1024.0, cal)

    digest = hashlib.sha256("\n".join(
        wl.digest_items(deck[i], first[i][0]) for i in range(len(deck))
    ).encode()).hexdigest()
    env = environment()
    unit = units()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "deck_size": len(deck),
        "elapsed_s": elapsed, "setup_walls_s": setup_walls,
        "latency_samples": attempted - failed, "exact_digest": digest,
        "calibration_s": cal.samples, "calibration_mean_ms": cal.mean_ms(),
        "env": env, "metrics": metrics,
        "failures": sorted({(deck[i].kind, deck[i].known_defect, why)
                            for i, why in failures}),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({"spans": tracer.spans}, fh)

    print(f"# {args.workload} seed={args.seed} passes={passes} deck={len(deck)} "
          f"elapsed={elapsed:.2f}s latency samples={attempted - failed} "
          f"calibration mean={cal.mean_ms():.3f}ms")
    print(f"# exact-output digest {digest}")
    for kind, known, why in record["failures"]:
        print(f"# failed {kind}{' (known defect)' if known else ''}: {why}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
