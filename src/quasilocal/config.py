"""Scenario configuration: JSON schema, validation, defaults, overrides.

Configs are validated against SCHEMA before any computation; unknown keys
are rejected at every level, and a key left out takes DEFAULT_CONFIG's value
(``mode.ell``, ``mode.boundary.z`` and ``dz`` included).  The schema is
checked in-repo by a draft-7 walker over the keywords SCHEMA uses, with
jsonschema's error choice and message text; jsonschema itself is only the
tests' oracle.  ``--set
key=value`` overrides use dotted paths into the document, with values parsed
as JSON when possible.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import operator

from .errors import ConfigError

__all__ = ["DEFAULT_CONFIG", "SCHEMA", "apply_overrides", "load_config", "validate_config"]

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["background", "mode", "surface", "numerics"],
    "properties": {
        "background": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m"],
            "properties": {"m": _POSITIVE},
        },
        "mode": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "sigma", "boundary"],
            "properties": {
                "kind": {"enum": ["axial", "polar"]},
                "ell": {"type": "integer", "minimum": 2},
                "mu_sq": _POSITIVE,
                "n": _POSITIVE,
                "sigma": _POSITIVE,
                "amplitude": {"type": "number"},
                "boundary": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type"],
                    "properties": {
                        "type": {"enum": ["anchor", "surface_anchor", "asymptotic"]},
                        "r": _POSITIVE,
                        "r_star": {"type": "number"},
                        "z": {"type": "number"},
                        "dz": {"type": "number"},
                        "offset": {"type": "number"},
                        "amplitude": {"type": "number"},
                        "phase": {"type": "number"},
                        "r_star_start": {"type": "number"},
                        "v_threshold": _POSITIVE,
                    },
                },
            },
        },
        "surface": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t": {
                    "anyOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    ]
                },
                "d": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 1},
                        {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 1},
                            "minItems": 1,
                        },
                    ]
                },
                "theta_d": {"type": "number", "minimum": 0, "maximum": math.pi},
                "phi_d": {"type": "number"},
                "substitution": {"enum": ["exact", "paper"]},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "l_max": {"type": "integer", "minimum": 2, "maximum": 64},
                # the minimum keeps both radial solvers above 100 eps, where the Chebyshev
                # elements hold the tolerance and the asymptotic DOP853 leg clamps its rtol
                # with a warning; at a larger one the radial residual is no longer small (5.6e-4 at 0.5)
                "tolerance": {"type": "number", "minimum": 1e-13, "maximum": 1e-3},
                # PerturbationProfiles' linearization regime, |eps| <= 1e-2
                "epsilon": {"type": "number", "exclusiveMinimum": 0, "maximum": 1e-2},
                "geometry_resolution": {"type": "integer", "minimum": 16},
                "radial_range": {
                    "type": "array",
                    "items": _POSITIVE,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "radial_samples": {"type": "integer", "minimum": 2},
                "c_factor": {"type": "number"},
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "perturbation": {"enum": ["none", "axial_preset"]},
                "gauss_bonnet_tol": _POSITIVE,
            },
        },
        "loop": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["equator", "circle"]},
                "theta0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": math.pi},
                "n_samples": {"type": "integer", "minimum": 8},
                "field": {"enum": ["constant", "source_tau", "source_n", "rho_bracket"]},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"svg": {"type": "boolean"}},
        },
    },
}

DEFAULT_CONFIG = {
    "background": {"m": 1.0},
    "mode": {
        "kind": "axial",
        "ell": 2,
        "sigma": 0.5,
        "amplitude": 1.0,
        "boundary": {"type": "surface_anchor", "z": 0.0, "dz": 1.0, "offset": 0.0},
    },
    "surface": {
        "t": [0.3],
        "d": [50.0, 100.0, 200.0, 400.0],
        "theta_d": math.pi / 2.0,
        "phi_d": 0.0,
        "substitution": "exact",
    },
    "numerics": {
        "l_max": 16,
        "tolerance": 1e-10,
        "epsilon": 1e-3,
        "geometry_resolution": 96,
        "radial_samples": 400,
    },
    "geometry": {"perturbation": "none", "gauss_bonnet_tol": 1e-6},
    "loop": {"kind": "equator", "n_samples": 256, "field": "constant"},
    "outputs": {"svg": True},
}


def validate_config(doc: dict) -> dict:
    """Schema plus semantic validation; returns the fully defaulted document."""
    merged = _merge(copy.deepcopy(DEFAULT_CONFIG), doc)
    if error := _best_match(_errors(merged, SCHEMA)):
        raise ConfigError(f"config invalid at {'/'.join(map(str, error[0]))}: {error[2]}")
    mode = merged["mode"]
    if mode["kind"] == "polar" and "n" not in mode:
        raise ConfigError("polar mode requires 'n'")
    if merged["loop"]["kind"] == "circle" and "theta0" not in merged["loop"]:
        raise ConfigError("circle loop requires 'theta0'")
    bnd = mode["boundary"]
    if bnd["type"] == "anchor" and ("r" in bnd) == ("r_star" in bnd):
        raise ConfigError("anchor boundary requires exactly one of 'r', 'r_star'")
    horizon = 2.0 * merged["background"]["m"]
    if bnd["type"] == "anchor" and "r" in bnd and not bnd["r"] > horizon:
        raise ConfigError(f"anchor boundary r={bnd['r']} must exceed 2m = {horizon}")
    r_range = merged["numerics"].get("radial_range")
    if r_range is not None and not horizon < r_range[0] < r_range[1]:
        raise ConfigError(
            f"numerics.radial_range {r_range} must satisfy 2m = {horizon} < lo < hi"
        )
    d_values = merged["surface"]["d"]
    d_min = min(d_values) if isinstance(d_values, list) else d_values
    if d_min <= horizon + 1.0:
        raise ConfigError(f"surface d={d_min} must exceed 2m + 1 = {horizon + 1.0}")
    anchor_r = d_min + bnd.get("offset", 0.0)
    if bnd["type"] == "surface_anchor" and not anchor_r > horizon:
        raise ConfigError(
            f"surface_anchor boundary at min(d) + offset = {anchor_r} must exceed 2m = {horizon}"
        )
    return merged


_TYPES = {  # draft 7: a bool is not a number, and an integral float is an integer
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (
        v.is_integer() if isinstance(v, float) else _TYPES["number"](v) and isinstance(v, int)
    ),
}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _errors(value, schema: dict, path=()):
    """jsonschema 4.26's errors in its order: (path, keyword, message, type matches, context)."""
    type_ok = "type" in schema and _TYPES[schema["type"]](value)
    for kw, arg in schema.items():
        err = lambda msg, context=(): (path, kw, msg, type_ok, context)  # noqa: E731
        if kw == "type" and not _TYPES[arg](value):
            yield err(f"{value!r} is not of type {arg!r}")
        elif kw == "enum" and value not in arg:
            yield err(f"{value!r} is not one of {arg!r}")
        elif kw in _BOUNDS and _TYPES["number"](value) and _BOUNDS[kw][0](value, arg):
            yield err(f"{value!r} {_BOUNDS[kw][1]} {arg!r}")
        elif kw == "anyOf" and all(branches := [list(_errors(value, sub)) for sub in arg]):
            context = [error for errors in branches for error in errors]  # paths relative to here
            yield err(f"{value!r} is not valid under any of the given schemas", context)
        elif isinstance(value, dict) and kw == "properties":
            for key in (key for key in arg if key in value):
                yield from _errors(value[key], arg[key], (*path, key))
        elif isinstance(value, dict) and kw == "additionalProperties" and arg is False:
            if extras := sorted(set(value) - set(schema.get("properties", {})), key=str):
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                yield err(f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif isinstance(value, dict) and kw == "required":
            yield from (err(f"{key!r} is a required property") for key in arg if key not in value)
        elif isinstance(value, list) and kw == "items":
            yield from (e for i, item in enumerate(value) for e in _errors(item, arg, (*path, i)))
        elif isinstance(value, list) and kw == "minItems" and len(value) < arg:
            yield err(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif isinstance(value, list) and kw == "maxItems" and len(value) > arg:
            yield err(f"{value!r} is too long")


def _best_match(errors):
    """The error ``jsonschema.exceptions.best_match`` picks, descending into anyOf contexts.

    Contexts are ranked by their paths relative to the anyOf, as jsonschema
    does; the one picked carries its absolute path, the anyOf's joined onto it.
    """
    relevance = lambda e: (-len(e[0]), e[0], e[1] != "anyOf", not e[3])  # noqa: E731
    best = max(errors, key=relevance, default=None)
    while best is not None and best[4]:
        context = sorted(best[4], key=relevance)
        if len(context) > 1 and relevance(context[0]) == relevance(context[1]):
            break
        best = ((*best[0], *context[0][0]), *context[0][1:])
    return best


def _merge(base: dict, override: dict) -> dict:
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge(base[key], val)
        else:
            base[key] = val
    return base


def _finite(token: str) -> float:
    """JSON number hook: NaN, +-Infinity and overflowing literals such as 1e999 raise."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} in config")
    return value


def apply_overrides(doc: dict, pairs) -> dict:
    """Apply ``--set a.b.c=value`` overrides; values parse as JSON or string."""
    out = copy.deepcopy(doc)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw, parse_constant=_finite, parse_float=_finite)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return out


def load_config(path=None, overrides=()) -> dict:
    """Read, override, and validate a scenario config (defaults when no path)."""
    if path is None:
        doc = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=_finite, parse_float=_finite)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc = apply_overrides(doc, overrides)
    return validate_config(doc)


def canonical_json(doc: dict) -> str:
    """Stable serialization used for provenance embedding."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
