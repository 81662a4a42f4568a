"""Batch scenario runner: radial | embed | energy | sweep | geometry | loop.

Artifacts are deterministic: identical configs give byte-identical CSV and
JSON, and SVG plots carry no timestamps.  Every artifact embeds the fully
resolved config (a ``# config:`` comment line in CSV, a ``config`` key in
JSON, a <desc> element in SVG), and JSON artifacts hold finite numbers only.
Exit codes: 0 success, 2 config error, 3 numerical failure; failures print a
machine-readable error JSON to stderr.  Config checks run before ``--out`` is
made and every artifact is rendered before the first is written, so a run
exiting 2 or 3 writes none; after exit 3 ``--out`` may exist, empty.
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
# subcommands: each returns {file name: content}; main renders and writes
# ----------------------------------------------------------------------


def run_radial(conf, jobs: int) -> dict:
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
    columns = (r, tortoise(r, bg), z, dz, v, a, ap, app)
    return {
        "radial.csv": (
            ["r", "r_star", "z", "dz_drstar", "v", "a", "a_prime", "a_double_prime"],
            zip(*(c.tolist() for c in columns)),
        ),
        "radial.json": {
            "kind": sol.kind,
            "r_min": sol.r_min,
            "r_max": sol.r_max,
            "samples": len(r),
            "residual_max": sol.residual_max(),
            "asymptotic_truncation": sol.asymptotic_truncation,
        },
    }


def _surface_embedding(conf):
    """(spec, profile, s_tau, s_n, embedding) for the scenario's first (t, d)."""
    _, _, spec = _surface(conf)
    num = conf["numerics"]
    bg, mode, bnd = _background(conf), _mode(conf), _boundary(conf)
    return (spec, *surface_embedding(bg, mode, bnd, spec, num["l_max"], num["tolerance"]))


def run_embed(conf, jobs: int) -> dict:
    spec, _prof, _s_tau, _s_n, emb = _surface_embedding(conf)
    L = emb.l_max
    # every stored (l, m), l-major and m ascending
    l, col = np.nonzero(np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None])
    lm = (l.tolist(), (col - L).tolist())
    artifacts = {
        f"{name}.csv": (["l", "m", "coefficient"], zip(*lm, h.coeffs[l, col].tolist()))
        for name, h in (("embed_tau", emb.tau), ("embed_n", emb.n_field))
    }
    artifacts["embed.json"] = {
        "kernel_residual_tau": {str(k): v for k, v in emb.kernel_residual_tau.items()},
        "kernel_residual_n": emb.kernel_residual_n,
        "l_max": L,
        "t": spec.t,
        "d": spec.d,
    }
    return artifacts


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


def run_energy(conf, jobs: int) -> dict:
    report = _sweep(conf, jobs)
    t_values, d_values = report.t_values.tolist(), report.d_values.tolist()
    artifacts = {
        "energy.csv": (["t", "d", "e", "dedt"], sorted(report.rows(), key=lambda r: (r[0], r[1]))),
        "energy.json": {
            "d_values": d_values,
            "t_values": t_values,
            "e1": report.e1.tolist(),
            "e2": report.e2.tolist(),
        },
    }
    if conf["outputs"]["svg"] and len(t_values) > 1:
        order = np.argsort(report.t_values, kind="stable")
        artifacts["energy_e_vs_t.svg"] = line_plot(
            report.t_values[order],
            [report.e[order, j] for j in range(len(d_values))],
            labels=[f"d={d:g}" for d in d_values],
            title="E(t)",
            xlabel="t",
            ylabel="E",
            desc=cfg.canonical_json(conf),
        )
    return artifacts


def run_sweep(conf, jobs: int) -> dict:
    report = _sweep(conf, jobs)
    artifacts = {
        "sweep.csv": (["t", "d", "e", "dedt"], report.rows()),
        "sweep.json": {
            "d_values": report.d_values.tolist(),
            "t_values": report.t_values.tolist(),
            "e1": report.e1.tolist(),
            "e2": report.e2.tolist(),
            "kernel_residual_tau": report.kernel_residual_tau.tolist(),
            "kernel_residual_n": report.kernel_residual_n.tolist(),
            "fits": [{"t": t, **asdict(f)} for t, f in zip(report.t_values.tolist(), report.fits)],
        },
    }
    if conf["outputs"]["svg"]:
        artifacts["sweep_falloff.svg"] = line_plot(
            report.d_values,
            [np.abs(report.e[0] * report.d_values**2)],
            labels=[f"t={report.t_values[0]:g}"],
            title="|E d^2| vs d",
            xlabel="d",
            ylabel="|E d^2|",
            logx=True,
            desc=cfg.canonical_json(conf),
        )
    return artifacts


def run_geometry(conf, jobs: int) -> dict:
    bg, mode = _background(conf), _mode(conf)
    _, d_values, template = _surface(conf)
    num, geo_conf = conf["numerics"], conf["geometry"]
    pert = PerturbationProfiles.none()
    if geo_conf["perturbation"] == "axial_preset":
        sol = solve_radial(bg, mode, _boundary(conf), d_values, num["tolerance"])
        pert = axial_preset(sol, epsilon=num["epsilon"])
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
    theta, phi = np.meshgrid(first.theta_s, first.phi_s, indexing="ij")
    columns = (theta, phi, first.gauss, first.mean_norm, first.hawking_line)
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
    return {
        "geometry.csv": (
            ["theta", "phi", "k_gauss", "h_norm", "hawking_line"],
            zip(*(c.ravel().tolist() for c in columns)),
        ),
        "geometry.json": payload,
    }


def run_loop(conf, jobs: int) -> dict:
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
    columns = (loop.s, loop.theta, loop.phi, vals)
    return {
        "loop.csv": (["s", "theta", "phi", "integrand"], zip(*(c.tolist() for c in columns))),
        "loop.json": {
            "total": loop.quadrature(vals),
            "arc_length": loop.arc_length(),
            "field": field_name,
            "n_samples": loop.n_samples,
        },
    }


def _render(name: str, content, conf) -> str:
    """The text of one artifact, with the resolved config embedded.

    A CSV is ``(header, rows)``: ``str`` of a float is its ``repr``.  A JSON
    payload must be finite.  An SVG is already text.
    """
    if name.endswith(".csv"):
        header, rows = content
        lines = ["# config: " + cfg.canonical_json(conf), ",".join(header)]
        lines += [",".join(map(str, row)) for row in rows]
        return "\n".join(lines) + "\n"
    if name.endswith(".json"):
        doc = {"config": conf, **content}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return content


def _builds_a_profile(command: str, conf) -> bool:
    """Whether the command builds A(r), which exists for axial modes only."""
    return (
        command in ("embed", "energy", "sweep")
        or command == "loop" and conf["loop"]["field"] != "constant"
        or command == "geometry" and conf["geometry"]["perturbation"] == "axial_preset"
    )


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
        if conf["mode"]["kind"] != "axial" and _builds_a_profile(args.command, conf):
            raise ConfigError(f"{args.command} builds A(r), which needs an axial mode")
    except ConfigError as exc:
        return fail(exc, "config", EXIT_CONFIG)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        artifacts = _RUNNERS[args.command](conf, max(1, args.jobs))
        texts = {name: _render(name, content, conf) for name, content in artifacts.items()}
    except ConfigError as exc:
        return fail(exc, "config", EXIT_CONFIG)
    except QuasilocalError as exc:
        return fail(exc, "numerical", EXIT_NUMERICAL)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return fail(exc, "numerical", EXIT_NUMERICAL)
    for name, text in texts.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
