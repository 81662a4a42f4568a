"""Golden artifacts: every artifact of a fixed set of runs matches ``golden.json``.

In the environment the file was recorded in (``record_golden.environment``)
every artifact must match its sha256.  Anywhere else, where BLAS or SIMD may
round differently, a warning names the environment fields that differ, and
the JSON scalars must match at 1e-10 relative; a fit's
outputs at 1e-10 times the fit's condition number, and the round-off
diagnostics in ``ROUNDOFF`` only down to their floor.  There each CSV column's
summary must match too: its length exactly, its L2 norm at 1e-10 relative, and
its min, max and sampled rows at 1e-10 of the column's largest |value|.
Rewrite the file with ``python3 tests/record_golden.py``.
"""

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from record_golden import GOLDEN, RUNS, _same, compare, csv_columns, digest, environment

RECORD = json.loads(GOLDEN.read_text(encoding="utf-8"))
RTOL = 1e-10
# fields that measure round-off: compared only down to an absolute floor
ROUNDOFF = {"kernel_residual_tau": 1e-12, "kernel_residual_n": 1e-12, "residual_max": 1e-12}
FIT = re.compile(r"^(.*(?:fits\[\d+\]|hawking_fit))\.")


def environment_differences(recorded: dict, current: dict) -> list[str]:
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def scalar_differences(got: dict, want: dict) -> list[str]:
    """Paths of the scalars that differ beyond their tolerance, or exist on one side."""
    out = []
    for path in sorted(got.keys() | want.keys()):
        if path not in got or path not in want:
            out.append(f"{path}: only in {'the run' if path in got else 'golden.json'}")
            continue
        a, b = got[path], want[path]
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers:
            parts = {re.sub(r"\[\d+\]", "", p) for p in path.split(".")}
            floor = max((ROUNDOFF[p] for p in parts & ROUNDOFF.keys()), default=0.0)
            fit = FIT.match(path)
            rel = RTOL * max(1.0, want.get(f"{fit[1]}.condition", 1.0)) if fit else RTOL
            same = math.isclose(a, b, rel_tol=rel, abs_tol=floor)
        else:
            same = a == b
        if not same:
            out.append(f"{path}: {a!r} != {b!r}")
    return out


def column_differences(got: dict, want: dict) -> list[str]:
    """``file column what: got != want`` for each CSV column summary entry that
    differs beyond its tolerance; ``what`` is a summary field or ``row i``."""
    out = []
    for csv in sorted(got.keys() | want.keys()):
        g_csv, w_csv = got.get(csv, {}), want.get(csv, {})
        for column in sorted(g_csv.keys() | w_csv.keys()):
            if column not in g_csv or column not in w_csv:
                out.append(f"{csv} {column}: only in {'the run' if column in g_csv else 'golden.json'}")
                continue
            g, w = g_csv[column], w_csv[column]
            if g["length"] != w["length"] or g["rows"].keys() != w["rows"].keys():
                out.append(f"{csv} {column} length: {g['length']} != {w['length']}")
                continue
            scale = max(abs(w["min"]), abs(w["max"]))
            entries = [(k, g[k], w[k], RTOL * scale) for k in ("min", "max")]
            entries.append(("l2", g["l2"], w["l2"], RTOL * w["l2"]))
            rows = sorted(w["rows"], key=int)
            entries += [(f"row {i}", g["rows"][i], w["rows"][i], RTOL * scale) for i in rows]
            for what, a, b, tol in entries:
                if not (_same(a, b) or abs(a - b) <= tol):
                    out.append(f"{csv} {column} {what}: {a!r} != {b!r}")
    return out


def test_golden_file_covers_every_run():
    assert sorted(RECORD["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_artifacts_match_golden(run_id, golden_run):
    code, out = golden_run(run_id)
    assert code == 0
    assert_matches_golden(digest(out), RECORD["runs"][run_id],
                          environment_differences(RECORD["environment"], environment()))


def assert_matches_golden(got: dict, want: dict, env: list[str]) -> None:
    """A run's digest against its golden one.  With no environment field in
    ``env`` its bytes must match; otherwise its scalars and CSV columns must
    match within their tolerances, under a warning that names the fields."""
    assert sorted(got["artifacts"]) == sorted(want["artifacts"])
    if not env:
        moved = [name for name in got["artifacts"] if got["artifacts"][name] != want["artifacts"][name]]
        exact = [p for p in sorted(got["scalars"]) if got["scalars"][p] != want["scalars"].get(p)]
        assert not moved, f"artifacts {moved} changed bytes; scalars that moved: {exact}"
        return
    warnings.warn(f"environment differs from golden.json in {', '.join(env)}: "
                  "artifacts compared within tolerances, not by bytes", stacklevel=2)
    differing = scalar_differences(got["scalars"], want["scalars"])
    differing += column_differences(got["columns"], want["columns"])
    assert not differing, f"environment differs from golden.json in {env}; {differing}"


def _flip_leading_digit(text: str) -> str:
    """The number ``text`` with its first nonzero digit changed."""
    i = next(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


@pytest.mark.parametrize(
    "run_id, csv", [("loop_equator-source_tau", "loop.csv"), ("geometry_axial", "geometry.csv")]
)
def test_one_flipped_csv_digit_names_file_column_and_row(run_id, csv, golden_run, tmp_path):
    code, out = golden_run(run_id)
    assert code == 0
    copy = shutil.copytree(out, tmp_path / run_id)
    want = RECORD["runs"][run_id]["columns"]
    assert column_differences(digest(copy)["columns"], want) == []
    lines = (copy / csv).read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    column = header[-1]
    values = csv_columns(copy / csv)[column]
    sampled = sorted(want[csv][column]["rows"], key=int)
    row = max(sampled[1:-1], key=lambda i: abs(values[int(i)]))  # an inner sampled row, not the min or max
    cells = lines[2 + int(row)].split(",")
    cells[-1] = _flip_leading_digit(cells[-1])
    lines[2 + int(row)] = ",".join(cells)
    (copy / csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    differing = column_differences(digest(copy)["columns"], want)
    assert f"{csv} {column} row {row}" in [d.split(":")[0] for d in differing]
    assert all(d.startswith(f"{csv} {column} ") for d in differing)


def test_scalar_check_names_the_field():
    want = RECORD["runs"]["axial_sweep"]["scalars"]
    got = dict(want)
    assert scalar_differences(got, want) == []
    got["sweep.json.e1[0]"] = want["sweep.json.e1[0]"] * (1.0 + 1e-11)
    got["sweep.json.kernel_residual_n[1]"] = 2.0 * want["sweep.json.kernel_residual_n[1]"]
    got["sweep.json.fits[0].c1"] = want["sweep.json.fits[0].c1"] * (1.0 + 1e-8)  # condition ~4.5e3
    assert scalar_differences(got, want) == []
    got["sweep.json.e1[0]"] = want["sweep.json.e1[0]"] * (1.0 + 1e-9)
    got["sweep.json.fits[0].c1"] = want["sweep.json.fits[0].c1"] * (1.0 + 1e-5)
    del got["sweep.json.e2[3]"]
    assert [s.split(":")[0] for s in scalar_differences(got, want)] == [
        "sweep.json.e1[0]",
        "sweep.json.e2[3]",
        "sweep.json.fits[0].c1",
    ]


def test_environment_differences_name_the_field():
    current = environment()
    assert environment_differences(current, dict(current)) == []
    assert environment_differences(current, {**current, "blas": "other"}) == ["blas"]


def test_fallback_branch_warns_naming_the_environment_fields():
    want = RECORD["runs"]["axial_sweep"]
    with pytest.warns(UserWarning, match="differs from golden.json in blas_kernel, simd: "):
        assert_matches_golden(want, want, ["blas_kernel", "simd"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_golden(want, want, [])


def test_environment_records_the_blas_kernel_the_library_runs():
    # OPENBLAS_CORETYPE is read when OpenBLAS loads, so set it before numpy is imported
    if environment()["blas_kernel"] is None or platform.machine() != "x86_64":
        pytest.skip("no bundled x86 OpenBLAS to force a kernel on")
    script = "import record_golden; print(record_golden.environment()['blas_kernel'])"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"}
    done = subprocess.run([sys.executable, "-c", script], cwd=Path(__file__).parent, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "Sandybridge"


def test_compare_lists_what_moved():
    old = {"artifacts": {"a.csv": "1", "a.json": "2", "gone.svg": "3"},
           "scalars": {"a.json.e1[0]": 2.0, "a.json.kind": "x", "a.json.n": 4, "a.json.z": 0.0}}
    new = {"artifacts": {"a.csv": "1", "a.json": "5", "new.svg": "6"},
           "scalars": {"a.json.e1[0]": 2.5, "a.json.kind": "y", "a.json.n": 4, "a.json.z": 1.0}}
    assert compare(old, old) == []
    assert compare(old, new) == [
        "a.json: sha256 changed",
        "gone.svg: only in golden.json",
        "new.svg: only in the run",
        "a.json.e1[0]: 2.0 -> 2.5 (+2.50e-01)",
        "a.json.kind: 'x' -> 'y'",
        "a.json.z: 0.0 -> 1.0",
    ]


def test_diff_exits_1_only_when_a_run_moved(tmp_path, monkeypatch, capsys):
    import record_golden

    run_id = "radial_profile"
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() puts src/ on the path
    monkeypatch.setattr(record_golden, "RUNS", {run_id: RUNS[run_id]})
    monkeypatch.setattr(record_golden, "GOLDEN", tmp_path / "golden.json")
    out = tmp_path / "run"
    assert record_golden.run_cli(run_id, out) == 0
    recorded = {"runs": {run_id: digest(out)}}  # this environment's bytes, wherever it runs
    record_golden.GOLDEN.write_text(json.dumps(recorded), encoding="utf-8")
    assert record_golden.main(["--diff"]) == 0
    hashes = recorded["runs"][run_id]["artifacts"]
    name = sorted(hashes)[0]
    hashes[name] = hashes[name][::-1]
    record_golden.GOLDEN.write_text(json.dumps(recorded), encoding="utf-8")
    assert record_golden.main(["--diff"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [f"{run_id}: 1 changes", f"  {name}: sha256 changed"]


def test_diff_prints_the_environment_fields_that_differ_first(tmp_path, monkeypatch, capsys):
    import record_golden

    run_id = "radial_profile"
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(record_golden, "RUNS", {run_id: RUNS[run_id]})
    monkeypatch.setattr(record_golden, "GOLDEN", tmp_path / "golden.json")
    out = tmp_path / "run"
    assert record_golden.run_cli(run_id, out) == 0
    current = environment()
    recorded = {"environment": {**current, "blas_kernel": "Prescott", "numpy": "0.0"},
                "runs": {run_id: digest(out)}}
    record_golden.GOLDEN.write_text(json.dumps(recorded), encoding="utf-8")
    assert record_golden.main(["--diff"]) == 0  # the environment alone moves no run
    assert capsys.readouterr().out.splitlines() == [
        f"environment.blas_kernel: 'Prescott' -> {current['blas_kernel']!r}",
        f"environment.numpy: '0.0' -> {current['numpy']!r}",
        f"{run_id}: unchanged",
    ]
    recorded["environment"] = current
    record_golden.GOLDEN.write_text(json.dumps(recorded), encoding="utf-8")
    assert record_golden.main(["--diff"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{run_id}: unchanged"]
