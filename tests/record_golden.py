"""Record ``tests/golden.json``: the sha256, JSON scalars and CSV column summaries of a fixed set of CLI runs.

    python3 tests/record_golden.py           # rewrite tests/golden.json
    python3 tests/record_golden.py --diff    # compare the runs with it; writes nothing

``--diff`` exits 0 when every run is unchanged and 1 when any artifact hash or
scalar moved (or a run failed), so it can serve as a gate.  For a CSV whose
hash changed it also prints each column whose summary moved, with its largest
move.  It first prints each field of ``environment()`` that differs from the
file's, so that round-off moves on another host can be told from real ones.

Rewrite the file only when a change is meant to move artifact bytes, and give
the old and new values with the tolerance they still meet in CHANGES.md;
``--diff`` prints them.
``tests/test_golden.py`` checks the runs against the file; the file name keeps
this script out of the test run.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# run id -> (command, scenario, --set overrides); a shipped scenario's id is its name
RUNS = {
    "axial_sweep": ("sweep", "axial_sweep", ()),
    "embed_kernel": ("embed", "embed_kernel", ()),
    "energy_timeseries": ("energy", "energy_timeseries", ()),
    "geometry_axial": ("geometry", "geometry_axial", ()),
    "geometry_baseline": ("geometry", "geometry_baseline", ()),
    "loop_equator": ("loop", "loop_equator", ()),
    "polar_potential": ("radial", "polar_potential", ()),
    "radial_profile": ("radial", "radial_profile", ()),
    "axial_sweep-l_max48": ("sweep", "axial_sweep", ("numerics.l_max=48",)),
    "axial_sweep-paper": ("sweep", "axial_sweep", ("surface.substitution=paper",)),
    # one descending DOP853 leg of ~560 steps from r ~ 1550
    "radial_profile-asymptotic": (
        "radial",
        "radial_profile",
        ('mode.boundary={"type": "asymptotic", "amplitude": 1.0}', "numerics.tolerance=1e-5"),
    ),
    "geometry_axial-tilted": ("geometry", "geometry_axial", ("surface.theta_d=0.3",)),
    "loop_equator-circle": (
        "loop",
        "loop_equator",
        ("loop.kind=circle", "loop.theta0=1.1", "loop.field=rho_bracket"),
    ),
    **{
        f"loop_equator-{field}": ("loop", "loop_equator", (f"loop.field={field}",))
        for field in ("constant", "source_tau", "source_n", "rho_bracket")
    },
}


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs, or None without that library.

    A DYNAMIC_ARCH build picks its kernel from the CPU when it is loaded
    (``OPENBLAS_CORETYPE`` forces another), so one BLAS version can round
    differently on two hosts.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    """What decides the last bits of an artifact: numpy, its BLAS and kernel, SIMD, the machine."""
    try:
        conf = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its config
        conf = {}
    blas = conf.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": blas_kernel(),
        "simd": sorted(conf.get("SIMD Extensions", {}).get("found", [])),
        "machine": platform.machine(),
    }


def environment_moves(old: dict, new: dict) -> list[str]:
    """``environment.field: old -> new`` for each field that differs; a field
    on one side only reads None on the other."""
    return [f"environment.{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def run_cli(run_id: str, out: Path) -> int:
    """Run one golden run in-process into ``out``; its stdout is dropped."""
    from quasilocal.cli import main  # after main() has put src/ on the path

    command, scenario, overrides = RUNS[run_id]
    args = [command, "--config", str(SCENARIOS / f"{scenario}.json"), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(args)


def _scalars(doc, path: str, out: dict) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            _scalars(value, f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _scalars(value, f"{path}[{i}]", out)
    else:
        out[path] = doc


# about this many evenly spaced rows of each CSV column are kept, and the last
ROW_SAMPLES = 16


def summarize(column: np.ndarray) -> dict:
    """Length, min, max and L2 norm of a CSV column, and its value at every
    k-th row and the last (keyed by row number); NaN stays NaN."""
    n = len(column)
    rows = sorted({*range(0, n, max(1, n // ROW_SAMPLES)), n - 1})
    values = column.tolist()
    return {
        "length": n,
        "min": float(np.min(column)),
        "max": float(np.max(column)),
        "l2": math.sqrt(math.fsum(v * v for v in values)),
        "rows": {str(i): values[i] for i in rows},
    }


def csv_columns(path: Path) -> dict:
    """Column name -> values of an artifact CSV (after its config line and header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    table = np.array([line.split(",") for line in lines[2:]], dtype=float).reshape(-1, len(header))
    return dict(zip(header, table.T))


def digest(out: Path) -> dict:
    """sha256 of every artifact, every scalar of each JSON payload and a
    summary of each CSV column.

    The scalars leave out the ``config`` echo, which is the run's input.
    """
    hashes, scalars, columns = {}, {}, {}
    for path in sorted(out.iterdir()):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc.pop("config")
            _scalars(doc, path.name, scalars)
        elif path.suffix == ".csv":
            columns[path.name] = {k: summarize(v) for k, v in csv_columns(path).items()}
    return {"artifacts": hashes, "scalars": scalars, "columns": columns}


def _same(a, b) -> bool:
    return a == b or a != a and b != b  # NaN matches NaN


def column_moves(old: dict, new: dict) -> dict[str, float]:
    """Column -> largest move of its summary from ``old`` to ``new``, for the
    columns whose summary moved; a value's move is taken relative to the old
    column's largest |value|, the L2 norm's relative to itself, and a change
    of length or of the sampled rows is an infinite move."""
    moves = {}
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None or a["length"] != b["length"] or a["rows"].keys() != b["rows"].keys():
            moves[name] = math.inf
            continue
        scale = max(abs(a["min"]), abs(a["max"]))
        pairs = [(a[k], b[k], scale) for k in ("min", "max")] + [(a["l2"], b["l2"], a["l2"])]
        pairs += [(a["rows"][i], b["rows"][i], scale) for i in a["rows"]]
        moved = [(x, y, s) for x, y, s in pairs if not _same(x, y)]
        if moved:
            moves[name] = max(abs(y - x) / s if s else math.inf for x, y, s in moved)
    return moves


def compare(old: dict, new: dict) -> list[str]:
    """The artifacts whose sha256 changed and the scalars that moved from the
    recorded digest ``old`` to the run's digest ``new``, then the largest
    move of each moved column of a changed CSV (``column_moves``).

    A moved number reads ``path: old -> new (rel change)``, the change taken
    relative to |old|; an entry on one side only names that side.
    """
    lines = []
    for kind in ("artifacts", "scalars"):
        a, b = old[kind], new[kind]
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                lines.append(f"{key}: only in {'golden.json' if key in a else 'the run'}")
            elif a[key] == b[key]:
                continue
            elif kind == "artifacts":
                lines.append(f"{key}: sha256 changed")
            else:
                x, y = a[key], b[key]
                numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
                rel = f" ({(y - x) / abs(x):+.2e})" if numbers and x else ""
                lines.append(f"{key}: {x!r} -> {y!r}{rel}")
    old_columns, new_columns = old.get("columns", {}), new.get("columns", {})
    for csv in sorted(old_columns.keys() & new_columns.keys()):
        if old["artifacts"].get(csv) != new["artifacts"].get(csv):
            for column, move in column_moves(old_columns[csv], new_columns[csv]).items():
                lines.append(f"{csv} {column}: largest move {move:.2e}")
    return lines


def main(argv=()) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    diff = "--diff" in argv
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if diff else {"runs": {}}
    if diff:
        for line in environment_moves(recorded.get("environment", {}), environment()):
            print(line)
    runs, moved_any = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        for run_id in RUNS:
            out = Path(tmp) / run_id
            if run_cli(run_id, out) != 0:
                print(f"{run_id}: the run failed", file=sys.stderr)
                return 1
            runs[run_id] = digest(out)
            if diff:
                moved = compare(recorded["runs"].get(run_id, {"artifacts": {}, "scalars": {}}), runs[run_id])
                moved_any = moved_any or bool(moved)
                print(f"{run_id}: {'unchanged' if not moved else f'{len(moved)} changes'}")
                for line in moved:
                    print(f"  {line}")
    if diff:
        return int(moved_any)
    doc = {"environment": environment(), "runs": runs}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
