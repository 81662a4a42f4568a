"""Batch scenario runner: radial | embed | energy | sweep | geometry | loop.

Artifacts are deterministic: identical configs give byte-identical CSV and
JSON, and SVG plots carry no timestamps.  Every artifact embeds the fully
resolved config (a ``# config:`` comment line in CSV, a ``config`` key in
JSON, a <desc> element in SVG).  Exit codes: 0 success, 2 config error,
3 numerical failure; failures print a machine-readable error JSON to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as cfg
from .embedding import SurfaceSpec
from .energy import LoopSpec, rho_bracket, surface_embedding, sweep_energy
from .errors import ConfigError, QuasilocalError
from .geometry import PerturbationProfiles, axial_preset, hawking_sweep
from .radial import (
    AnchorBoundary,
    AsymptoticBoundary,
    AxialMode,
    BackgroundParams,
    PolarMode,
    SurfaceAnchorBoundary,
    a_profile,
    potential,
    solve_radial,
    tortoise,
)
from .sphere import HarmonicField, SphereGrid, analyze, evaluate
from .svgplot import line_plot

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3


# ----------------------------------------------------------------------
# config -> domain objects
# ----------------------------------------------------------------------


def _background(conf) -> BackgroundParams:
    return BackgroundParams(m=conf["background"]["m"])


def _mode(conf):
    m = conf["mode"]
    if m["kind"] == "axial":
        return AxialMode(
            ell=m["ell"],
            sigma=m["sigma"],
            mu_sq=m.get("mu_sq"),
            amplitude=m.get("amplitude", 1.0),
        )
    return PolarMode(n=m["n"], sigma=m["sigma"], amplitude=m.get("amplitude", 1.0))


def _boundary(conf):
    b = conf["mode"]["boundary"]
    if b["type"] == "anchor":
        return AnchorBoundary(z=b["z"], dz=b["dz"], r=b.get("r"), r_star=b.get("r_star"))
    if b["type"] == "surface_anchor":
        return SurfaceAnchorBoundary(z=b["z"], dz=b["dz"], offset=b.get("offset", 0.0))
    return AsymptoticBoundary(
        amplitude=b.get("amplitude", 1.0),
        phase=b.get("phase", 0.0),
        r_star_start=b.get("r_star_start"),
        v_threshold=b.get("v_threshold"),
    )


def _listify(v):
    return [float(x) for x in (v if isinstance(v, list) else [v])]


def _surface(conf):
    s = conf["surface"]
    t_values = _listify(s["t"])
    d_values = _listify(s["d"])
    template = SurfaceSpec(
        t=t_values[0],
        d=d_values[0],
        theta_d=s["theta_d"],
        phi_d=s["phi_d"],
        substitution=s["substitution"],
    )
    return t_values, d_values, template


# ----------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header, rows, config_doc) -> None:
    lines = ["# config: " + cfg.canonical_json(config_doc)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict, config_doc) -> None:
    doc = {"config": config_doc, **payload}
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def run_radial(conf, out: Path, jobs: int) -> list[Path]:
    bg, mode, num = _background(conf), _mode(conf), conf["numerics"]
    _, d_values, _ = _surface(conf)
    r_range = num.get("radial_range")
    sol = solve_radial(bg, mode, _boundary(conf), d_values, num["tolerance"], r_range)
    n = num["radial_samples"]
    r = np.linspace(sol.r_min * (1 + 1e-12), sol.r_max * (1 - 1e-12), n)
    z, dz = sol.eval_r(r)
    v = potential(r, bg, mode)
    if sol.kind == "axial":
        prof = a_profile(sol)
        a, ap, app = prof.a(r), prof.a_prime(r), prof.a_double_prime(r)
    else:
        a = ap = app = np.full_like(r, np.nan)
    rows = [
        (
            float(r[i]),
            float(tortoise(r[i], bg)),
            float(z[i]),
            float(dz[i]),
            float(v[i]),
            float(a[i]),
            float(ap[i]),
            float(app[i]),
        )
        for i in range(len(r))
    ]
    csv_path = out / "radial.csv"
    _write_csv(
        csv_path,
        ["r", "r_star", "z", "dz_drstar", "v", "a", "a_prime", "a_double_prime"],
        rows,
        conf,
    )
    json_path = out / "radial.json"
    _write_json(
        json_path,
        {
            "kind": sol.kind,
            "r_min": sol.r_min,
            "r_max": sol.r_max,
            "samples": len(r),
            "residual_max": sol.residual_max(),
            "asymptotic_truncation": sol.asymptotic_truncation,
        },
        conf,
    )
    return [csv_path, json_path]


def _surface_embedding(conf):
    """(spec, profile, s_tau, s_n, embedding) for the scenario's first (t, d)."""
    _, _, spec = _surface(conf)
    num = conf["numerics"]
    bg, mode, bnd = _background(conf), _mode(conf), _boundary(conf)
    return (spec, *surface_embedding(bg, mode, bnd, spec, num["l_max"], num["tolerance"]))


def run_embed(conf, out: Path, jobs: int) -> list[Path]:
    spec, _prof, _s_tau, _s_n, emb = _surface_embedding(conf)
    paths = []
    for name, h in (("embed_tau", emb.tau), ("embed_n", emb.n_field)):
        rows = [
            (l, m, float(h.coeffs[l, h.l_max + m]))
            for l in range(h.l_max + 1)
            for m in range(-l, l + 1)
        ]
        p = out / f"{name}.csv"
        _write_csv(p, ["l", "m", "coefficient"], rows, conf)
        paths.append(p)
    jp = out / "embed.json"
    _write_json(
        jp,
        {
            "kernel_residual_tau": {str(k): v for k, v in emb.kernel_residual_tau.items()},
            "kernel_residual_n": emb.kernel_residual_n,
            "l_max": emb.l_max,
            "t": spec.t,
            "d": spec.d,
        },
        conf,
    )
    paths.append(jp)
    return paths


def _sweep(conf, jobs):
    """``sweep_energy`` over every (t, d) of the scenario."""
    t_values, d_values, template = _surface(conf)
    num = conf["numerics"]
    return sweep_energy(
        _background(conf),
        _mode(conf),
        _boundary(conf),
        template,
        d_values,
        t_values,
        l_max=num["l_max"],
        tol=num["tolerance"],
        c_factor=num.get("c_factor"),
        jobs=jobs,
    )


def run_energy(conf, out: Path, jobs: int) -> list[Path]:
    report = _sweep(conf, jobs)
    t_values, d_values = report.t_values.tolist(), report.d_values.tolist()
    rows = sorted(report.rows(), key=lambda r: (r[0], r[1]))
    csv_path = out / "energy.csv"
    _write_csv(csv_path, ["t", "d", "e", "dedt"], rows, conf)
    json_path = out / "energy.json"
    _write_json(
        json_path,
        {
            "d_values": d_values,
            "t_values": t_values,
            "e1": [float(v) for v in report.e1],
            "e2": [float(v) for v in report.e2],
        },
        conf,
    )
    paths = [csv_path, json_path]
    if conf["outputs"]["svg"] and len(t_values) > 1:
        svg = out / "energy_e_vs_t.svg"
        order = np.argsort(report.t_values, kind="stable")
        line_plot(
            svg,
            report.t_values[order],
            [report.e[order, j] for j in range(len(d_values))],
            labels=[f"d={d:g}" for d in d_values],
            title="E(t)",
            xlabel="t",
            ylabel="E",
            desc=cfg.canonical_json(conf),
        )
        paths.append(svg)
    return paths


def run_sweep(conf, out: Path, jobs: int) -> list[Path]:
    report = _sweep(conf, jobs)
    fits = [{"t": float(t), **asdict(f)} for t, f in zip(report.t_values, report.fits)]
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, ["t", "d", "e", "dedt"], list(report.rows()), conf)
    json_path = out / "sweep.json"
    _write_json(
        json_path,
        {
            "d_values": [float(d) for d in report.d_values],
            "t_values": [float(t) for t in report.t_values],
            "e1": [float(v) for v in report.e1],
            "e2": [float(v) for v in report.e2],
            "kernel_residual_tau": [float(v) for v in report.kernel_residual_tau],
            "kernel_residual_n": [float(v) for v in report.kernel_residual_n],
            "fits": fits,
        },
        conf,
    )
    paths = [csv_path, json_path]
    if conf["outputs"]["svg"]:
        svg = out / "sweep_falloff.svg"
        scaled = np.abs(report.e[0] * report.d_values**2)
        line_plot(
            svg,
            report.d_values,
            [scaled],
            labels=[f"t={report.t_values[0]:g}"],
            title="|E d^2| vs d",
            xlabel="d",
            ylabel="|E d^2|",
            logx=True,
            desc=cfg.canonical_json(conf),
        )
        paths.append(svg)
    return paths


def run_geometry(conf, out: Path, jobs: int) -> list[Path]:
    bg, mode = _background(conf), _mode(conf)
    _, d_values, template = _surface(conf)
    num, geo_conf = conf["numerics"], conf["geometry"]
    if geo_conf["perturbation"] == "none":
        pert = PerturbationProfiles.none()
    else:
        if mode.kind != "axial":
            raise ConfigError("axial_preset perturbation requires an axial mode")
        sol = solve_radial(bg, mode, _boundary(conf), d_values, num["tolerance"])
        pert = axial_preset(bg, mode, sol, epsilon=num["epsilon"])
    n_d = len(np.unique(d_values))  # as EnergyReport.fits counts them
    powers = (0, 1, 2, 3) if n_d >= 5 else (0, 1, 2) if n_d == 4 else ()
    sweep = hawking_sweep(
        bg,
        pert,
        d_values,
        template,
        resolution=num["geometry_resolution"],
        gauss_bonnet_tol=geo_conf["gauss_bonnet_tol"],
        powers=powers,
    )
    reports = sweep["reports"]
    first = reports[0]
    rows = [
        (
            float(first.theta_s[j]),
            float(first.phi_s[k]),
            float(first.gauss[j, k]),
            float(first.mean_norm[j, k]),
            float(first.hawking_line[j, k]),
        )
        for j in range(first.n_theta)
        for k in range(first.n_phi)
    ]
    csv_path = out / "geometry.csv"
    _write_csv(csv_path, ["theta", "phi", "k_gauss", "h_norm", "hawking_line"], rows, conf)
    payload = {
        "d_values": d_values,
        "area": [r.area for r in reports],
        "gauss_bonnet": [r.gauss_bonnet for r in reports],
        "hawking_integral": sweep["integrals"],
        "flags": sweep["flags"],
        "resolution": first.n_theta,
    }
    if powers:
        payload["hawking_fit"] = {
            "powers": list(powers),
            "coefficients": sweep["coefficients"],
            "residual": sweep["residual"],
            "condition": sweep["condition"],
        }
    json_path = out / "geometry.json"
    _write_json(json_path, payload, conf)
    return [csv_path, json_path]


def run_loop(conf, out: Path, jobs: int) -> list[Path]:
    loop_conf = conf["loop"]
    if loop_conf["kind"] == "equator":
        loop = LoopSpec.equator(loop_conf["n_samples"])
    else:
        loop = LoopSpec.circle(loop_conf["theta0"], loop_conf["n_samples"])
    field_name = loop_conf["field"]
    if field_name == "constant":
        h = HarmonicField.zeros(4)
        h.coeffs[0, 4] = math.sqrt(4.0 * math.pi)
    else:
        spec, _prof, s_tau, s_n, emb = _surface_embedding(conf)
        if field_name == "source_tau":
            h = analyze(s_tau)
        elif field_name == "source_n":
            h = analyze(s_n)
        else:
            wgrid = SphereGrid.for_band_limit(2 * emb.l_max)
            h = analyze(rho_bracket(emb, wgrid, spec.d))
    vals = evaluate(h, loop.theta, loop.phi)
    total = loop.quadrature(vals)
    rows = [
        (float(loop.s[i]), float(loop.theta[i]), float(loop.phi[i]), float(vals[i]))
        for i in range(loop.n_samples)
    ]
    csv_path = out / "loop.csv"
    _write_csv(csv_path, ["s", "theta", "phi", "integrand"], rows, conf)
    json_path = out / "loop.json"
    _write_json(
        json_path,
        {
            "total": total,
            "arc_length": loop.arc_length(),
            "field": field_name,
            "n_samples": loop.n_samples,
        },
        conf,
    )
    return [csv_path, json_path]


_RUNNERS = {
    "radial": run_radial,
    "embed": run_embed,
    "energy": run_energy,
    "sweep": run_sweep,
    "geometry": run_geometry,
    "loop": run_loop,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasilocal",
        description="Quasi-local energy pipeline for perturbed black-hole spacetimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="scenario JSON path")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path, JSON value)",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="sweep parallelism")
    args = parser.parse_args(argv)

    def fail(exc, category, code):
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "category": category,
            }
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code

    try:
        conf = cfg.load_config(args.config, args.overrides)
    except ConfigError as exc:
        return fail(exc, "config", EXIT_CONFIG)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = _RUNNERS[args.command](conf, out, max(1, args.jobs))
    except ConfigError as exc:
        return fail(exc, "config", EXIT_CONFIG)
    except QuasilocalError as exc:
        return fail(exc, "numerical", EXIT_NUMERICAL)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return fail(exc, "numerical", EXIT_NUMERICAL)
    for p in written:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
