"""Benchmark of the quasilocal CLI, one workload per invocation.

    python3 bench/run.py --workload sweep_l16 --seed 1 --seconds 20 --trace 0

Calls ``quasilocal.cli.main`` in this process with ``--jobs 1`` on a config
built from the seed, once to warm up and then repeatedly for ``--seconds``,
and checks the artifacts of every call.  The last line of stdout is one JSON
object: with ``--trace 0`` the end-to-end metrics named in BENCHMARK.json,
with ``--trace 1`` its per-layer metrics from calls traced through wrappers
on the layers' public functions, alternated with untraced calls so that the
tracing overhead is measured too.  Lines before it record the environment
and the full report.

A call takes about 0.1 s, and ``wall_s`` is the fastest call of the run.  On
a shared host other tenants' load can halve the CPU's speed for a minute or
more, so the median call of a 20 s run moves by a quarter or more from run
to run; calls this short still find stretches at full speed, so the fastest
one moves far less.  The median and a tail percentile are in the report
line.  Exits 2 without a result when the package source is
missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported: a call is too small
# to gain from a second one, which would only wait on the other vCPU.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 5

_IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import quasilocal.cli; "
    "print(repr(time.perf_counter() - t0))"
)


@dataclass
class Call:
    out: Path
    wall: float
    exit_code: int | None
    traced: bool


class Runner:
    """Calls the CLI on one workload config, each call into its own directory."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        work.mkdir(parents=True)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2), encoding="utf-8")
        self.calls: list[Call] = []
        self.traces = []

    def call(self, trace=None) -> Call:
        out = self.work / f"call{len(self.calls)}"
        argv = [self.workload.command, "--config", str(self.config), "--out", str(out), "--jobs", "1"]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = trace.call(self.cli.main, argv) if trace else self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - start
        if code != 0:
            print(f"call {len(self.calls)} failed:\n{log.getvalue()}", file=sys.stderr)
        call = Call(out, wall, code, trace is not None)
        self.calls.append(call)
        if trace is not None:
            self.traces.append(trace)
        return call

    def check(self, expected: dict) -> int:
        """Run the outputs check on every call; returns the number that failed."""
        from checks import check_run

        failed = 0
        for i, call in enumerate(self.calls):
            problems = check_run(self.workload.command, call.out, call.exit_code, expected)
            if problems:
                failed += 1
                print(f"call {i} failed the outputs check: {'; '.join(problems)}", file=sys.stderr)
        return failed


def setup_times(n: int) -> list[float]:
    """Cold ``import quasilocal.cli`` in ``n`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(samples: list[float]) -> dict:
    """Minimum, median, and the highest percentile with at least 10 samples
    beyond it."""
    ordered = sorted(samples)
    summary = {"n": len(ordered), "min": ordered[0], "median": statistics.median(ordered)}
    k = len(ordered) - 10
    if k >= 1:
        summary[f"p{100.0 * k / len(ordered):g}"] = ordered[k - 1]
    return summary


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy
    from workloads import variant_of

    digest = hashlib.sha256()
    for path in sorted((SRC / "quasilocal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "workload": workload.name,
        "seed": seed,
        "variant": variant_of(seed),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(runner: Runner, seconds: float, traced: bool) -> None:
    """Warm up once, then call until ``seconds`` have passed (alternating
    untraced and traced calls when ``traced``)."""
    from tracing import Trace

    last = runner.call().wall
    start = time.perf_counter()
    # No call that would end past the window, but at least two after the
    # warm-up: one of each kind when traced.
    while time.perf_counter() - start + last < seconds or len(runner.calls) < 3:
        use_trace = traced and len(runner.calls) % 2 == 0
        last = runner.call(Trace() if use_trace else None).wall


def timed_report(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    walls = [c.wall for c in runner.calls[1:]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": min(walls), "setup_s": statistics.median(setup), "peak_rss_mb": peak_mb}
    report = {"wall_s": tail(walls), "setup_s": tail(setup), "peak_rss_mb": peak_mb}
    return values, report


def traced_report(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics of the fastest traced call, as ``wall_s`` is the
    fastest untraced one; its layer self-times add up to its traced wall."""
    from checks import accuracy
    from tracing import REPEATING_COUNTS

    per_call = [t.metrics() for t in runner.traces]
    layers = min(per_call, key=lambda m: m["traced_wall_s"])
    untraced = min(c.wall for c in runner.calls[1:] if not c.traced)
    last = [c for c in runner.calls if c.traced][-1]
    report = {
        "per_layer": layers,
        "traced_calls": len(per_call),
        "counts_repeat": all(m[k] == per_call[0][k] for m in per_call for k in REPEATING_COUNTS),
        "untraced_wall_s": untraced,
        "traced_wall_s": layers["traced_wall_s"],
        "tracing_overhead_s": layers["traced_wall_s"] - untraced,
        "layer_self_sum_s": sum(layers["layer_self_s"].values()),
        "accuracy": accuracy(runner.workload.command, last.out) if last.exit_code == 0 else {},
    }
    return layers, report


def write_spans(runner: Runner, seed: int) -> Path:
    path = OUT / f"spans-{runner.workload.name}-seed{seed}.json"
    doc = [{"call": i, "spans": t.spans} for i, t in enumerate(runner.traces)]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasilocal" / "cli.py").is_file():
        print(f"benchmark needs the package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import load_reference
    from quasilocal import cli
    from workloads import WORKLOADS, variant_of

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = load_reference()[workload.name][str(variant_of(args.seed))]
    print("environment " + json.dumps(environment(workload, args.seed), sort_keys=True))

    setup = [] if args.trace else setup_times(SETUP_IMPORTS)
    work = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        runner = Runner(cli, workload, args.seed, work)
        measure(runner, args.seconds, traced=bool(args.trace))
        values, report = traced_report(runner) if args.trace else timed_report(runner, setup)
        failed = runner.check(expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(runner.calls)
    report["error_rate"] = failed / attempted
    if args.trace:
        report["spans_file"] = str(write_spans(runner, args.seed).relative_to(ROOT))
    print("report " + json.dumps(report, sort_keys=True))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
