"""Outside-in tracing of the package's layers for one CLI call.

Wrappers replace the package's public functions at every name a caller looks
up (``from .sphere import analyze`` binds the function again in the importing
module), and a few methods on the classes themselves.  They are installed
only around a traced call, so untraced calls run the unmodified code.  Spans
stay in memory; a layer's self time is its span time minus the part covered
by its child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function)
_FUNCTIONS = {
    "config.load_config": ("config", "load_config"),
    "radial.integrate_wave": ("radial", "integrate_wave"),
    "sphere.synthesize": ("sphere", "synthesize"),
    "sphere.analyze": ("sphere", "analyze"),
    "sphere.grad_hess": ("sphere", "grad_hess"),
    "sphere.evaluate": ("sphere", "evaluate"),
    "embedding.build_sources": ("embedding", "build_sources"),
    "embedding.solve_embedding": ("embedding", "solve_embedding"),
    "energy.sweep_energy": ("energy", "sweep_energy"),
    "energy.surface_energy": ("energy", "surface_energy"),
    "energy.energy_coefficients": ("energy", "energy_coefficients"),
    "energy.rho_bracket": ("energy", "rho_bracket"),
    "energy.loop_integral": ("energy", "loop_integral"),
    "energy.fit_decay": ("energy", "fit_decay"),
    "geometry.surface_geometry": ("geometry", "surface_geometry"),
    "geometry.axial_preset": ("geometry", "axial_preset"),
    "geometry.fit_powers": ("geometry", "fit_powers"),
    "svgplot.line_plot": ("svgplot", "line_plot"),
}

# span name -> [(module, class, method)]
_METHODS = {
    "sphere.grid_build": [("sphere", "SphereGrid", "__init__")],
    "radial.residual_max": [("radial", "RadialSolution", "residual_max")],
    "radial.profile_eval": [
        ("radial", "AProfile", "a"),
        ("radial", "AProfile", "a_prime"),
        ("radial", "AProfile", "a_double_prime"),
    ],
}

ROOT_SPAN = "cli.main"

# Counts that depend only on the workload, never on timing or the seed.
REPEATING_COUNTS = (
    "sphere.grid_builds",
    "sphere.grid_reuse_ratio",
    "sphere.evaluate_points",
    "radial.steps",
    "radial.start_r",
    "geometry.points",
)


class Trace:
    """Spans and counts of one traced call; a span is [name, parent, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.grid_keys: list[tuple] = []
        self.evaluate_points = 0
        self.radial_steps = 0
        self.start_r = 0.0
        self.geometry_points = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "sphere.grid_build":
            grid = args[0]
            self.grid_keys.append((grid.n_theta, grid.n_phi, grid.l_max))
        elif name == "sphere.evaluate":
            self.evaluate_points += result.size
        elif name == "radial.integrate_wave":
            self.radial_steps += len(result.rstar)
            if result.asymptotic_truncation is not None:
                self.start_r = max(self.start_r, result.r_max)
        elif name == "geometry.surface_geometry":
            self.geometry_points += result.n_theta * result.n_phi

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in the loaded ``quasilocal`` modules."""
        modules = {n: m for n, m in list(sys.modules.items()) if n.split(".")[0] == "quasilocal"}
        undo = []
        try:
            for name, (mod, attr) in _FUNCTIONS.items():
                original = getattr(modules[f"quasilocal.{mod}"], attr)
                wrapper = self.wrap(name, original)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            for name, targets in _METHODS.items():
                for mod, cls_name, attr in targets:
                    cls = getattr(modules[f"quasilocal.{mod}"], cls_name)
                    original = vars(cls)[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def call(self, fn, *args):
        """Run ``fn`` as the root span, with every layer wrapper installed."""
        with self.installed():
            return self.wrap(ROOT_SPAN, fn)(*args)

    def metrics(self) -> dict:
        """Per-layer times (inclusive ``_s``, exclusive ``_self_s``) and counts."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, excl, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, _parent, start, end), covered in zip(self.spans, child):
            incl[name] += end - start
            excl[name] += end - start - covered
            calls[name] += 1
        layer_self = defaultdict(float)
        for name, value in excl.items():
            layer_self[name.split(".")[0]] += value
        builds = len(self.grid_keys)
        return {
            "sphere.grid_build_s": incl["sphere.grid_build"],
            "sphere.grid_builds": builds,
            "sphere.grid_reuse_ratio": len(set(self.grid_keys)) / builds if builds else 0.0,
            "sphere.synthesize_s": incl["sphere.synthesize"],
            "sphere.analyze_s": incl["sphere.analyze"],
            "sphere.grad_hess_s": incl["sphere.grad_hess"],
            "sphere.evaluate_s": incl["sphere.evaluate"],
            "sphere.evaluate_points": self.evaluate_points,
            "radial.integrate_wave_s": incl["radial.integrate_wave"],
            "radial.integrate_wave_calls": calls["radial.integrate_wave"],
            "radial.steps": self.radial_steps,
            "radial.start_r": self.start_r,
            "radial.residual_max_s": incl["radial.residual_max"],
            "radial.profile_eval_s": incl["radial.profile_eval"],
            "embedding.build_sources_s": incl["embedding.build_sources"],
            "embedding.solve_embedding_s": incl["embedding.solve_embedding"],
            "energy.energy_coefficients_self_s": excl["energy.energy_coefficients"],
            "energy.rho_bracket_self_s": excl["energy.rho_bracket"],
            "energy.loop_integral_s": incl["energy.loop_integral"],
            "energy.fit_decay_s": incl["energy.fit_decay"],
            "geometry.surface_geometry_s": incl["geometry.surface_geometry"],
            "geometry.surfaces": calls["geometry.surface_geometry"],
            "geometry.points": self.geometry_points,
            "geometry.axial_preset_s": incl["geometry.axial_preset"],
            "geometry.fit_powers_s": incl["geometry.fit_powers"],
            "cli.self_s": excl[ROOT_SPAN],
            "config.load_config_s": incl["config.load_config"],
            "svgplot.line_plot_s": incl["svgplot.line_plot"],
            "layer_self_s": dict(sorted(layer_self.items())),
            "traced_wall_s": incl[ROOT_SPAN],
        }
