"""CLI contract: determinism, exit codes, artifacts, config validation."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasilocal.cli
import quasilocal.config
import quasilocal.energy
import quasilocal.radial
import quasilocal.sphere
from quasilocal import LoopSpec, loop_integral
from quasilocal.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from quasilocal.config import (
    DEFAULT_CONFIG,
    SCHEMA,
    apply_overrides,
    load_config,
    validate_config,
)
from quasilocal.errors import ConfigError, IntegrationError

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCENARIOS = DEMOS / "scenarios"

FAST = [
    "--set", "surface.d=[50,100,200,400]",
    "--set", "numerics.l_max=8",
    "--set", "numerics.tolerance=1e-9",
    "--set", "numerics.radial_samples=40",
    "--set", "numerics.geometry_resolution=32",
    "--set", "geometry.gauss_bonnet_tol=1e-4",
]


def run(args):
    return main([str(a) for a in args])


# ----------------------------------------------------------------------
# config machinery
# ----------------------------------------------------------------------


def test_defaults_validate():
    conf = validate_config({})
    assert conf["mode"]["ell"] == 2
    assert conf["surface"]["substitution"] == "exact"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        validate_config({"bogus": 1})
    with pytest.raises(ConfigError):
        validate_config({"numerics": {"l_maximum": 8}})


def test_semantic_validation():
    with pytest.raises(ConfigError):
        validate_config({"background": {"m": 30.0}})  # d_min <= 2m + 1
    with pytest.raises(ConfigError):
        validate_config({"mode": {"kind": "polar", "sigma": 0.5,
                                  "boundary": {"type": "anchor", "r": 30.0, "z": 0.0, "dz": 1.0}}})


def test_overrides():
    doc = apply_overrides({}, ["numerics.l_max=24", "mode.boundary.z=0.5", "surface.substitution=paper"])
    assert doc["numerics"]["l_max"] == 24
    assert doc["mode"]["boundary"]["z"] == 0.5
    assert doc["surface"]["substitution"] == "paper"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenarios_validate(name):
    load_config(SCENARIOS / name)


def test_schema_passes_its_metaschema():
    # validate_config no longer checks SCHEMA on every call
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


@pytest.mark.parametrize("doc, message", [
    ({"numerics": {"l_maximum": 8}},
     "config invalid at numerics: Additional properties are not allowed ('l_maximum' was unexpected)"),
    # three errors: the message names the one jsonschema.validate would raise
    ({"numerics": {"tolerance": 0.5, "l_max": -1}, "mode": {"sigma": "x"}},
     "config invalid at numerics/tolerance: 0.5 is greater than the maximum of 0.001"),
])
def test_schema_error_text(doc, message):
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert str(info.value) == message


def test_published_schema_matches():
    published = json.loads((DEMOS / "schema.json").read_text(encoding="utf-8"))
    assert published == json.loads(json.dumps(SCHEMA))


# ----------------------------------------------------------------------
# the in-repo schema check against jsonschema, the oracle
# ----------------------------------------------------------------------

ORACLE = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
# valid full documents to mutate: the defaults and every shipped scenario
VALID_DOCS = [validate_config({})] + [load_config(p) for p in sorted(SCENARIOS.glob("*.json"))]
_POOL = [True, False, None, "x", {}, [], 0, 1, 2, 2.0, 2.5, -1, -0.5, 1e308, [2.0, 3.0]]


def _schema_nodes(schema, path=()):
    """(path, subschema) of every property SCHEMA names, at every depth."""
    for key, sub in schema.get("properties", {}).items():
        yield (*path, key), sub
        yield from _schema_nodes(sub, (*path, key))


_BOUNDS = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
# bounded, anyOf and array nodes weighted up: they hold the most distinct errors
NODES = [(path, sub) for path, sub in _schema_nodes(SCHEMA)
         for _ in range(4 if {"anyOf", "items"} & set(sub) else 3 if _BOUNDS & set(sub) else 1)]


def _edge_values(schema):
    """The type pool, each enum member, values at and across every bound, each anyOf branch."""
    values = _POOL + schema.get("enum", [])
    for b in (schema[kw] for kw in sorted(_BOUNDS & set(schema))):
        values += [b, float(b), b - 1, b + 1, math.nextafter(b, -math.inf),
                   math.nextafter(b, math.inf)] + ([int(b)] if float(b).is_integer() else [])
    for sub in [*schema.get("anyOf", []), schema.get("items", {})]:
        values += _edge_values(sub) if sub else []
    return values


def _values(schema):
    """Scalars from ``_edge_values`` or short lists of the item edge values (empty, overfull)."""
    items = [b["items"] for b in [schema, *schema.get("anyOf", [])] if "items" in b]
    scalars = st.sampled_from(_edge_values(schema))
    if not items:
        return scalars
    return scalars | st.lists(st.sampled_from(_edge_values(items[0])), max_size=4)


@st.composite
def _mutated_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        path, schema = draw(st.sampled_from(NODES))
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        op = draw(st.sampled_from(["drop", "add", "set", "set", "set"]))
        if op == "drop":
            parent.pop(path[-1], None)
        elif op == "add":  # an unknown key, or a known one from another level
            parent[draw(st.sampled_from(["bogus", "ell", "kind", "type", "l_maximum"]))] = 1
        else:
            parent[path[-1]] = draw(_values(schema))
    return doc


def _oracle(doc):
    error = jsonschema.exceptions.best_match(ORACLE.iter_errors(doc))
    return None if error is None else (tuple(error.path), error.message)


@settings(database=None, deadline=None, max_examples=300)
@given(_mutated_docs())
@example({})  # every required key missing before the merge
@example({"surface": {"t": "x"}})  # both anyOf branches fail alike: the anyOf error itself
@example({"surface": {"d": [50.0, 0.5]}})  # descent into the anyOf context, relative path
@example({"surface": {"d": 0.5}})  # the context error whose branch type matches wins
@example({"numerics": {"l_max": 8.0, "radial_range": [5.0, 9.0]}})  # an integral float is an integer
@example({"numerics": {"l_max": True}, "mode": {"sigma": False}})  # a bool is not a number
@example({"numerics": {"radial_range": [5.0, 6.0, 9.0]}, "loop": {"theta0": math.pi}})
@example({"numerics": {1: 2, "b": 3, "a": 4}})  # extra names sorted as strings
def test_schema_check_agrees_with_jsonschema(doc):
    # the walker alone, on the document as drawn (dropped required keys stay dropped)
    mine = quasilocal.config._best_match(quasilocal.config._errors(doc, SCHEMA))
    assert (mine and (mine[0], mine[2])) == _oracle(doc)
    # validate_config, on the document merged onto the defaults
    expected = _oracle(quasilocal.config._merge(copy.deepcopy(DEFAULT_CONFIG), copy.deepcopy(doc)))
    try:
        validate_config(doc)
        message = None
    except ConfigError as exc:
        message = str(exc)
    if expected is None:
        assert message is None or not message.startswith("config invalid at")
    else:
        assert message == f"config invalid at {'/'.join(map(str, expected[0]))}: {expected[1]}"


# ----------------------------------------------------------------------
# exit codes and error reporting
# ----------------------------------------------------------------------


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_numbers_rejected_at_load(literal, tmp_path):
    # an infinite sigma would pass the schema and then hang the sweep
    with pytest.raises(ConfigError, match="non-finite"):
        load_config(overrides=[f"mode.sigma={literal}"])
    path = tmp_path / "scenario.json"
    path.write_text('{"surface": {"d": [50, %s]}}' % literal)
    with pytest.raises(ConfigError, match="non-finite"):
        load_config(path)


def test_nan_override_exits_before_writing(tmp_path, capsys):
    assert run(["sweep", "--out", tmp_path, "--set", "surface.t=NaN"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "config"
    assert list(tmp_path.iterdir()) == []


def test_tolerance_bounds_published():
    bounds = {"type": "number", "minimum": 1e-13, "maximum": 1e-3}
    assert SCHEMA["properties"]["numerics"]["properties"]["tolerance"] == bounds
    published = json.loads((DEMOS / "schema.json").read_text(encoding="utf-8"))
    assert published["properties"]["numerics"]["properties"]["tolerance"] == bounds


@pytest.mark.parametrize("tolerance", ["1e-20", "0.5"])
def test_tolerance_out_of_range_exits_before_writing(tolerance, tmp_path, capsys):
    # below the bounds the stepper clamps rtol; at 0.5 residual_max reaches 5.6e-4
    code = run(["radial", "--out", tmp_path, "--set", f"numerics.tolerance={tolerance}"])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "config" and "tolerance" in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("radial_range", ["[80,20]", "[1.5,20]", "[2.0,20]", "[20,20]"])
def test_radial_range_outside_the_exterior_exits_before_writing(radial_range, tmp_path, capsys):
    code = run(["radial", "--out", tmp_path, "--set", f"numerics.radial_range={radial_range}"])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "config" and "radial_range" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_config_error_exit(tmp_path, capsys):
    code = run(["sweep", "--out", tmp_path, "--set", "background.m=-1"])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "config"
    assert list(tmp_path.iterdir()) == []  # no artifacts on config error


def test_unknown_key_exit(tmp_path, capsys):
    code = run(["sweep", "--out", tmp_path, "--set", "bogus=3"])
    assert code == EXIT_CONFIG
    assert "bogus" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("boundary", [
    pytest.param({"type": "anchor", "r": 1.5}, id="1.5"),
    pytest.param({"type": "anchor", "r": 2.0}, id="2.0"),
    # the default surface_anchor boundary at the smallest default d = 50
    pytest.param({"offset": -49}, id="offset=-49"),
    pytest.param({"offset": -48}, id="offset=-48"),
])
def test_anchor_inside_the_horizon_exits_before_writing(boundary, tmp_path, capsys):
    sets = [a for key, v in boundary.items() for a in ("--set", f"mode.boundary.{key}={v}")]
    code = run(["radial", "--out", tmp_path, *sets])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "config" and "anchor boundary" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_one_ulp_energy_range_plots_and_exits(tmp_path):
    # t one period (4 pi) apart: the two E values differ by one ulp, and the
    # SVG tick loop must not step by less than half an ulp of them forever
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasilocal.cli", "energy", "--out", str(tmp_path),
         "--set", "surface.t=[0.1,12.666370614359172]", "--set", "surface.d=[100]"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert {p.name for p in tmp_path.iterdir()} == ARTIFACTS["energy"]


def _raise(exc):
    def raiser(*a, **kw):
        raise exc

    return raiser


# a c_factor near the float maximum overflows E at d = 3.05: the falloff plot
# has no finite point, and the fit coefficients are NaN
HUGE_C = ["sweep", "--set", "surface.d=[3.05,10,20,40]", "--set", "numerics.l_max=8"]


@pytest.mark.parametrize("args, patch", [
    pytest.param(HUGE_C + ["--set", "numerics.c_factor=1e308"], None, id="sweep-overflow"),
    pytest.param(HUGE_C + ["--set", "numerics.c_factor=1.7e308", "--set", "outputs.svg=false"],
                 None, id="sweep-nan-json"),
    pytest.param(["radial"], (quasilocal.radial.RadialSolution, "residual_max",
                              _raise(IntegrationError("stub"))), id="radial-residual"),
    pytest.param(["energy", "--set", "surface.t=[0.0,0.4]", "--set", "numerics.l_max=8"],
                 (quasilocal.cli, "line_plot", _raise(FloatingPointError("stub"))),
                 id="energy-plot"),
    pytest.param(["energy", "--set", "numerics.c_factor=1.7e308", "--set", "surface.d=[3.05]",
                  "--set", "numerics.l_max=8", "--set", "outputs.svg=false"],
                 None, id="energy-overflow"),
])
def test_failed_run_writes_no_artifact(args, patch, tmp_path, capsys, monkeypatch):
    # every artifact is rendered before the first one is written
    if patch:
        monkeypatch.setattr(*patch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(args + ["--out", tmp_path]) == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "numerical"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    pytest.param(["energy", "--set", "surface.d=[3.05]", "--set", "numerics.l_max=8"], id="energy"),
    pytest.param(HUGE_C, id="sweep"),
])
def test_non_finite_energy_names_c_factor(args, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(args + ["--set", "numerics.c_factor=1.7e308", "--out", tmp_path])
    assert code == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError" and "numerics.c_factor" in err["message"]


def test_stdout_lists_the_written_files_in_order(tmp_path, capsys, monkeypatch):
    written = []
    write_text = Path.write_text
    monkeypatch.setattr(Path, "write_text", lambda self, *a, **kw: written.append(str(self))
                        or write_text(self, *a, **kw))
    assert run(["energy", "--out", tmp_path, "--set", "surface.t=[0.0,0.4]",
                "--set", "surface.d=[100.0]", "--set", "numerics.l_max=8"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == written
    assert sorted(written) == sorted(str(p) for p in tmp_path.iterdir())
    assert {Path(p).name for p in written} == ARTIFACTS["energy"]


def test_numerical_error_exit(tmp_path, capsys):
    # a Gauss-Bonnet tolerance that resolution 16 cannot meet
    code = run([
        "geometry", "--out", tmp_path,
        "--set", "numerics.geometry_resolution=16",
        "--set", "geometry.gauss_bonnet_tol=1e-12",
        "--set", "surface.d=[50]",
    ])
    assert code == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "numerical"


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------


def test_sweep_artifacts_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "--out", out1] + FAST) == EXIT_OK
    assert run(["sweep", "--out", out2] + FAST) == EXIT_OK
    capsys.readouterr()
    for name in ("sweep.csv", "sweep.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "sweep_falloff.svg").read_bytes() == (out2 / "sweep_falloff.svg").read_bytes()
    doc = json.loads((out1 / "sweep.json").read_text())
    assert {"c1", "c2", "c3", "residual", "condition", "t"} <= set(doc["fits"][0])
    assert len(doc["e1"]) == 4
    assert doc["config"]["numerics"]["l_max"] == 8  # resolved config embedded
    first = (out1 / "sweep.csv").read_text().splitlines()
    assert first[0].startswith("# config: ")
    assert first[1] == "t,d,e,dedt"


def test_radial_artifact_header(tmp_path, capsys):
    assert run(["radial", "--config", SCENARIOS / "radial_profile.json", "--out", tmp_path,
                "--set", "numerics.radial_samples=30"]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "radial.csv").read_text().splitlines()
    assert lines[1] == "r,r_star,z,dz_drstar,v,a,a_prime,a_double_prime"
    assert len(lines) == 2 + 30
    doc = json.loads((tmp_path / "radial.json").read_text())
    assert doc["residual_max"] < 1e-7


def test_radial_samples_take_one_dense_output_pass(tmp_path, capsys, monkeypatch):
    # z, dz and A, A', A'' of the samples share one pass; the other calls are
    # residual_max's, ten Gauss nodes per interval
    calls = []
    eval_rstar = quasilocal.radial.RadialSolution.eval_rstar
    monkeypatch.setattr(
        quasilocal.radial.RadialSolution, "eval_rstar",
        lambda self, rs: calls.append(np.size(rs)) or eval_rstar(self, rs),
    )
    assert run(["radial", "--config", SCENARIOS / "radial_profile.json", "--out", tmp_path,
                "--set", "numerics.radial_samples=37"]) == EXIT_OK
    capsys.readouterr()
    assert calls.count(37) == 1
    assert all(n % 10 == 0 for n in calls if n != 37)


@pytest.mark.parametrize("phase", [0.0, 3.9138])
def test_asymptotic_start_with_a_small_surface(phase, tmp_path, capsys):
    # the sample grid starts ~1e-9 below the sampled tortoise range, which the
    # drift of the integrated r allows; such points go to the nearest leg end
    code = run([
        "radial", "--out", tmp_path,
        "--set", "mode.boundary.type=asymptotic",
        "--set", f"mode.boundary.phase={phase}",
        "--set", "surface.d=[5]",
        "--set", "numerics.tolerance=1e-6",
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    lines = (tmp_path / "radial.csv").read_text().splitlines()
    assert np.all(np.isfinite(np.array([line.split(",") for line in lines[2:]], dtype=float)))
    doc = json.loads((tmp_path / "radial.json").read_text())
    assert all(math.isfinite(x) for x in _json_numbers(doc))
    assert doc["residual_max"] < 1e-7


def test_embed_artifacts(tmp_path, capsys):
    assert run(["embed", "--config", SCENARIOS / "embed_kernel.json", "--out", tmp_path,
                "--set", "numerics.l_max=8"]) == EXIT_OK
    capsys.readouterr()
    tau_lines = (tmp_path / "embed_tau.csv").read_text().splitlines()
    assert tau_lines[1] == "l,m,coefficient"
    assert len(tau_lines) == 2 + sum(2 * l + 1 for l in range(9))
    doc = json.loads((tmp_path / "embed.json").read_text())
    norm = float(doc["kernel_residual_n"])
    assert norm < 1e-10


def test_energy_artifacts(tmp_path, capsys):
    assert run(["energy", "--out", tmp_path,
                "--set", "surface.t=[0.0,0.4,0.8,1.2]",
                "--set", "surface.d=[100.0]",
                "--set", "numerics.l_max=8"]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "energy.csv").read_text().splitlines()
    assert lines[1] == "t,d,e,dedt"
    assert len(lines) == 2 + 4
    assert (tmp_path / "energy_e_vs_t.svg").exists()
    svg = (tmp_path / "energy_e_vs_t.svg").read_text()
    assert "<desc>" in svg and "polyline" in svg


@pytest.mark.parametrize("t, d", [("[0.7,0.1,2.0]", "[100]"), ("[0.1,0.7]", "[100,100]")])
def test_energy_plot_matches_csv(t, d, tmp_path, capsys, monkeypatch):
    # each plotted point must be the (t, d) entry of energy.csv, for any t order or repeated d
    calls = []
    monkeypatch.setattr(quasilocal.cli, "line_plot", lambda *a, **kw: calls.append((a, kw)) or "")
    assert run(["energy", "--out", tmp_path, "--set", f"surface.t={t}",
                "--set", f"surface.d={d}", "--set", "numerics.l_max=8"]) == EXIT_OK
    capsys.readouterr()
    rows = [line.split(",") for line in (tmp_path / "energy.csv").read_text().splitlines()[2:]]
    e_at = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    (x, series), kw = calls[0]
    assert list(x) == sorted(json.loads(t))
    assert kw["labels"] == [f"d={v:g}" for v in json.loads(d)]
    for dj, ys in zip(json.loads(d), series):
        assert list(ys) == [e_at[(ti, dj)] for ti in x]


def test_geometry_artifacts(tmp_path, capsys):
    assert run(["geometry", "--out", tmp_path,
                "--set", "surface.d=[50.0]",
                "--set", "numerics.geometry_resolution=32",
                "--set", "geometry.gauss_bonnet_tol=1e-4"]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "geometry.csv").read_text().splitlines()
    assert lines[1] == "theta,phi,k_gauss,h_norm,hawking_line"
    assert len(lines) == 2 + 32 * 64
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert abs(doc["gauss_bonnet"][0] - 4 * math.pi) < 1e-4


@pytest.mark.parametrize("d, powers", [("[25,25,30,40]", None), ("[25,25,30,40,50]", [0, 1, 2])])
def test_geometry_fit_counts_distinct_d(d, powers, tmp_path, capsys):
    # the fit basis follows the distinct d values, as the sweep's fits do
    assert run(["geometry", "--out", tmp_path,
                "--set", f"surface.d={d}",
                "--set", "numerics.geometry_resolution=32",
                "--set", "geometry.gauss_bonnet_tol=1e-4"]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc.get("hawking_fit", {}).get("powers") == powers


def test_loop_artifacts(tmp_path, capsys):
    assert run(["loop", "--config", SCENARIOS / "loop_equator.json", "--out", tmp_path]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((tmp_path / "loop.json").read_text())
    assert doc["total"] == pytest.approx(2.0 * math.pi, abs=1e-10)
    lines = (tmp_path / "loop.csv").read_text().splitlines()
    assert lines[1] == "s,theta,phi,integrand"
    assert len(lines) == 2 + 256


def test_jobs_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert run(["sweep", "--out", out1, "--jobs", 1] + FAST) == EXIT_OK
    assert run(["sweep", "--out", out2, "--jobs", 3] + FAST) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_set_override_changes_output(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["loop", "--out", out1]) == EXIT_OK
    assert run(["loop", "--out", out2, "--set", "loop.n_samples=128"]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "loop.csv").read_text() != (out2 / "loop.csv").read_text()
    doc = json.loads((out2 / "loop.json").read_text())
    assert doc["n_samples"] == 128


# ----------------------------------------------------------------------
# shipped scenarios end to end
# ----------------------------------------------------------------------

SCENARIO_COMMANDS = {
    "axial_sweep": "sweep",
    "embed_kernel": "embed",
    "energy_timeseries": "energy",
    "geometry_axial": "geometry",
    "geometry_baseline": "geometry",
    "loop_equator": "loop",
    "polar_potential": "radial",
    "radial_profile": "radial",
}

ARTIFACTS = {
    "sweep": {"sweep.csv", "sweep.json", "sweep_falloff.svg"},
    "embed": {"embed_tau.csv", "embed_n.csv", "embed.json"},
    "energy": {"energy.csv", "energy.json", "energy_e_vs_t.svg"},
    "geometry": {"geometry.csv", "geometry.json"},
    "loop": {"loop.csv", "loop.json"},
    "radial": {"radial.csv", "radial.json"},
}

A_COLUMNS = ("a", "a_prime", "a_double_prime")


def _json_numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _json_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _json_numbers(v)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def test_scenario_table_covers_every_shipped_file():
    assert sorted(SCENARIO_COMMANDS) == sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SCENARIO_COMMANDS))
def test_shipped_scenario_runs(name, tmp_path, capsys):
    command = SCENARIO_COMMANDS[name]
    assert run([command, "--config", SCENARIOS / f"{name}.json", "--out", tmp_path]) == EXIT_OK
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == ARTIFACTS[command]
    polar = load_config(SCENARIOS / f"{name}.json")["mode"]["kind"] == "polar"
    for path in tmp_path.glob("*.csv"):
        lines = path.read_text().splitlines()
        values = np.array([line.split(",") for line in lines[2:]], dtype=float)
        for column, col_values in zip(lines[1].split(","), values.T):
            if polar and column in A_COLUMNS:
                assert np.all(np.isnan(col_values))  # A(r) exists for axial modes only
            else:
                assert np.all(np.isfinite(col_values)), (path.name, column)
    for path in tmp_path.glob("*.json"):
        assert all(math.isfinite(x) for x in _json_numbers(json.loads(path.read_text())))


# ----------------------------------------------------------------------
# radial coverage and mode checks of the shared surface stage
# ----------------------------------------------------------------------

SURFACE_FIELDS = {
    "source_tau": ["loop", "--set", "loop.field=source_tau"],
    "source_n": ["loop", "--set", "loop.field=source_n"],
    "rho_bracket": ["loop", "--set", "loop.field=rho_bracket"],
}


def test_loop_evaluates_the_field_once(tmp_path, capsys, monkeypatch):
    fields = []
    real = quasilocal.sphere.evaluate

    def counted(h, theta, phi):
        fields.append(h)
        return real(h, theta, phi)

    for module in (quasilocal.sphere, quasilocal.energy, quasilocal.cli):
        monkeypatch.setattr(module, "evaluate", counted)
    args = SURFACE_FIELDS["rho_bracket"] + ["--set", "numerics.l_max=8", "--out", tmp_path]
    assert run(args) == EXIT_OK
    capsys.readouterr()
    assert len(fields) == 1
    doc = json.loads((tmp_path / "loop.json").read_text())
    assert doc["total"] == loop_integral(fields[0], LoopSpec.equator(doc["n_samples"]))


NEAR_HORIZON = {
    "energy": ["energy"],
    "embed": ["embed"],
    "sweep": ["sweep"],
    **SURFACE_FIELDS,
    # the Gauss-Bonnet defect this close to the horizon is ~1e-2 at resolution 32
    "geometry": ["geometry", "--set", "geometry.perturbation=axial_preset",
                 "--set", "numerics.geometry_resolution=32",
                 "--set", "geometry.gauss_bonnet_tol=0.05"],
}


@pytest.mark.parametrize("d", [3.05, 3.2])
@pytest.mark.parametrize("case", sorted(NEAR_HORIZON))
def test_surfaces_just_outside_the_horizon(case, d, tmp_path, capsys):
    # the schema accepts every d > 2m + 1 = 3; the sphere then reaches r = d - 1
    args = NEAR_HORIZON[case] + ["--set", f"surface.d=[{d}]", "--set", "numerics.l_max=8"]
    assert run(args + ["--out", tmp_path]) == EXIT_OK, capsys.readouterr().err


POLAR = ["--set", "mode.kind=polar", "--set", "mode.n=2.0"]


# the commands that build A(r), which needs an axial mode
A_PROFILE = {**SURFACE_FIELDS, "geometry": ["geometry", "--set", "geometry.perturbation=axial_preset"]}


@pytest.mark.parametrize("case", ["sweep", "energy", "embed", *A_PROFILE])
def test_polar_mode_rejected_before_integrating(case, tmp_path, capsys, monkeypatch):
    def no_integration(*a, **k):
        raise AssertionError("integrated before rejecting the mode")

    monkeypatch.setattr(quasilocal.radial, "integrate_wave", no_integration)
    out = tmp_path / "out"
    assert run(A_PROFILE.get(case, [case]) + ["--out", out] + POLAR) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and err["category"] == "config" and "axial" in err["message"]
    assert not out.exists()  # checked before --out is created


@pytest.mark.parametrize(
    "args", [["loop", "--set", "loop.field=constant"], ["radial"]], ids=["loop", "radial"]
)
def test_polar_mode_where_no_profile_is_needed(args, tmp_path, capsys):
    assert run(args + ["--out", tmp_path, "--set", "numerics.radial_samples=40"] + POLAR) == EXIT_OK
    capsys.readouterr()


def test_energy_writes_no_fit_so_a_degenerate_design_passes(tmp_path, capsys):
    d = ["--set", "surface.d=[50,50.000000001,400,400.000000001]", "--set", "numerics.l_max=8"]
    assert run(["energy", "--out", tmp_path / "energy"] + d) == EXIT_OK
    assert run(["sweep", "--out", tmp_path / "sweep"] + d) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "FitError" and "degenerate design matrix" in err["message"]
    assert list((tmp_path / "sweep").iterdir()) == []
