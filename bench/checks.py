"""Outputs check for one CLI run.

A run passes when it exited 0, wrote every artifact of its subcommand with
only finite numbers in it, passes the numerical self-checks, and reproduces
the headline values recorded in ``reference.json`` for its workload variant.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Pinned tolerances of the acceptance gate: relative agreement of Z and of
# E1/E2 (criteria 1 and 2), residual_max of a radial solve (criterion 10),
# and the solver's kernel tolerance (criterion 6; the sources' norms on these
# workloads exceed 10, so an absolute bound is the stricter one).
HEADLINE_REL_TOL = 1e-8
LIMITS = {"radial.residual_max": 1e-8, "embedding.kernel_residual_max": 1e-8}

ARTIFACTS = {
    "sweep": ("sweep.csv", "sweep.json", "sweep_falloff.svg"),
    "loop": ("loop.csv", "loop.json"),
    "geometry": ("geometry.csv", "geometry.json"),
    "radial": ("radial.csv", "radial.json"),
}

# every 40th row of radial.csv is a headline sample of Z
_RADIAL_STRIDE = 40


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _read_json(out: Path, command: str) -> dict:
    return json.loads((out / f"{command}.json").read_text(encoding="utf-8"))


def _read_csv(path: Path) -> np.ndarray:
    """Data rows of an artifact CSV (after the config comment and header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError(f"{path.name} lacks its config line")
    return np.array([line.split(",") for line in lines[2:]], dtype=float)


def _all_finite(doc) -> bool:
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def headline(command: str, out: Path) -> dict[str, list[float]]:
    """The values a run must reproduce: E1/E2, Hawking integrals, loop total, Z."""
    if command == "radial":
        return {"z": _read_csv(out / "radial.csv")[::_RADIAL_STRIDE, 2].tolist()}
    doc = _read_json(out, command)
    if command == "sweep":
        return {"e1": doc["e1"], "e2": doc["e2"]}
    if command == "geometry":
        return {"hawking_integral": doc["hawking_integral"], "area": doc["area"]}
    return {"total": [doc["total"]]}


def accuracy(command: str, out: Path) -> dict[str, float]:
    """Numerical self-check diagnostics recorded in a run's artifacts."""
    doc = _read_json(out, command)
    if command == "radial":
        return {"radial.residual_max": doc["residual_max"]}
    if command == "sweep":
        return {
            "embedding.kernel_residual_max": max(doc["kernel_residual_tau"] + doc["kernel_residual_n"]),
            "energy.fit_condition": max(f["condition"] for f in doc["fits"]),
        }
    if command == "geometry":
        return {
            "geometry.gauss_bonnet_defect": max(abs(v - 4.0 * math.pi) for v in doc["gauss_bonnet"]),
            "geometry.fit_condition": doc["hawking_fit"]["condition"],
        }
    return {}


def _self_check(command: str, out: Path) -> list[str]:
    problems = []
    diag = accuracy(command, out)
    limits = dict(LIMITS)
    if command == "geometry":
        limits["geometry.gauss_bonnet_defect"] = _read_json(out, command)["config"]["geometry"]["gauss_bonnet_tol"]
    for name, value in diag.items():
        if name in limits and not value <= limits[name]:
            problems.append(f"{name} = {value:.3e} exceeds {limits[name]:.1e}")
    return problems


def _compare(got: dict, expected: dict) -> list[str]:
    problems = []
    for key, ref in expected.items():
        ref = np.asarray(ref, dtype=float)
        val = np.asarray(got.get(key, []), dtype=float)
        if val.shape != ref.shape:
            problems.append(f"{key}: {val.size} values, reference has {ref.size}")
            continue
        err = np.max(np.abs(val - ref)) / np.max(np.abs(ref))
        if not err <= HEADLINE_REL_TOL:
            problems.append(f"{key} differs from reference by {err:.2e} (> {HEADLINE_REL_TOL:.0e} relative)")
    return problems


def check_run(command: str, out: Path, exit_code, expected: dict) -> list[str]:
    """Problems found in one run; an empty list means the run passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in ARTIFACTS[command] if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        problems = []
        for name in ARTIFACTS[command]:
            path = out / name
            if name.endswith(".csv") and not np.all(np.isfinite(_read_csv(path))):
                problems.append(f"{name} holds a non-finite value")
            if name.endswith(".json") and not _all_finite(json.loads(path.read_text(encoding="utf-8"))):
                problems.append(f"{name} holds a non-finite value")
        if problems:
            return problems
        return _self_check(command, out) + _compare(headline(command, out), expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
