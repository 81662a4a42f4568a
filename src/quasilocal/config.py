"""Scenario configuration: JSON schema, validation, defaults, overrides.

Configs are validated against SCHEMA before any computation; unknown keys
are rejected at every level.  ``--set key=value`` overrides use dotted
paths into the document, with values parsed as JSON when possible.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema

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
                # the DOP853 stepper clamps an rtol below 100 eps with a warning;
                # at a larger one the radial residual is no longer small (5.6e-4 at 0.5)
                "tolerance": {"type": "number", "minimum": 1e-13, "maximum": 1e-3},
                "epsilon": _POSITIVE,
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

# Built once: jsonschema.validate would check SCHEMA against its metaschema
# on every call.  A test checks SCHEMA once instead.
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

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
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(merged))
    if error is not None:
        raise ConfigError(f"config invalid at {'/'.join(map(str, error.path))}: {error.message}") from error
    mode = merged["mode"]
    if mode["kind"] == "axial" and "ell" not in mode:
        raise ConfigError("axial mode requires 'ell'")
    if mode["kind"] == "polar" and "n" not in mode:
        raise ConfigError("polar mode requires 'n'")
    bnd = mode["boundary"]
    if bnd["type"] == "anchor" and ("r" in bnd) == ("r_star" in bnd):
        raise ConfigError("anchor boundary requires exactly one of 'r', 'r_star'")
    if bnd["type"] in ("anchor", "surface_anchor") and not (
        "z" in bnd and "dz" in bnd
    ):
        raise ConfigError(f"{bnd['type']} boundary requires 'z' and 'dz'")
    horizon = 2.0 * merged["background"]["m"]
    r_range = merged["numerics"].get("radial_range")
    if r_range is not None and not horizon < r_range[0] < r_range[1]:
        raise ConfigError(
            f"numerics.radial_range {r_range} must satisfy 2m = {horizon} < lo < hi"
        )
    d_values = merged["surface"]["d"]
    d_min = min(d_values) if isinstance(d_values, list) else d_values
    if d_min <= horizon + 1.0:
        raise ConfigError(f"surface d={d_min} must exceed 2m + 1 = {horizon + 1.0}")
    return merged


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
