"""Tests of the benchmark itself (about a minute):

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's default test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from checks import load_reference
from tracing import REPEATING_COUNTS, Trace
from workloads import N_VARIANTS, WORKLOADS, variant_of

sys.path.insert(0, str(run.SRC))
from quasilocal import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = load_reference()


def _runner(name, seed, tmp_path):
    return run.Runner(cli, WORKLOADS[name], seed, tmp_path / f"{name}-{seed}")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(REFERENCE[name]) == N_VARIANTS for name in WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_across_calls_and_seeds(name, tmp_path):
    first, second = _runner(name, 0, tmp_path), _runner(name, 5, tmp_path)
    for runner in (first, first, second):
        runner.call(Trace())
    assert first.check(REFERENCE[name]["0"]) == 0
    assert second.check(REFERENCE[name][str(variant_of(5))]) == 0
    counts = [{k: t.metrics()[k] for k in REPEATING_COUNTS} for r in (first, second) for t in r.traces]
    assert counts[0] == counts[1] == counts[2]
    expected_builds = {"sweep_l16": (8, 2 / 8), "loop_rho": (2, 1.0)}.get(name, (0, 0.0))
    assert (counts[0]["sphere.grid_builds"], counts[0]["sphere.grid_reuse_ratio"]) == expected_builds


def test_corrupted_artifacts_count_as_failed(tmp_path):
    runner = _runner("loop_rho", 3, tmp_path)
    clean, bad_csv, bad_total, missing = (runner.call() for _ in range(4))
    csv = bad_csv.out / "loop.csv"
    lines = csv.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
    csv.write_text("\n".join(lines) + "\n")
    doc = json.loads((bad_total.out / "loop.json").read_text())
    doc["total"] *= 1.0 + 1e-6
    (bad_total.out / "loop.json").write_text(json.dumps(doc))
    (missing.out / "loop.json").unlink()
    assert runner.check(REFERENCE["loop_rho"]["3"]) == 3
    assert all(c.exit_code == 0 for c in runner.calls)


def _result(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=run.ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    result = _result("--workload", "loop_rho", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loop_rho", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
