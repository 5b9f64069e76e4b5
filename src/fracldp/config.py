"""Fail-closed run configuration.

Configs are JSON with five sections — ``grid``, ``model``, ``timegrid``,
``experiment``, ``run`` — every key optional except ``experiment.name``.
Parsing is fail-closed: unknown keys, missing requirements, type mismatches,
and range violations are all collected into precise (key, expected, found)
records and raised together, and every default is echoed into the parsed
config so the serialized form pins the run completely.

Grid defaults follow the chosen model preset (the scalar reduction lives on
its own small box), so an omitted grid section reproduces the preset's
natural geometry rather than silently rescaling it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, GridSpec
from .models import ModelSpec
from .skeleton import TimeGrid
from .zoo import (
    boundary_growth_model,
    build_model,
    constant_reduction_model,
    default_initial_datum,
    default_model,
    fractional_model,
    linear_additive_model,
    pure_power_model,
    scalar_linear_model,
)

EXPERIMENT_NAMES = (
    "simulate",
    "skeleton",
    "rate-min",
    "level-set",
    "mc-ldp",
    "validate-model",
    "tail-scan",
    "cvs-sweep",
)

MODEL_PRESETS = (
    "default",
    "fractional",
    "pure-power",
    "boundary-growth",
    "scalar-linear",
    "linear-additive",
    "constant-reduction",
    "built",
)

_PRESET_GRIDS = {
    "scalar-linear": {"dim": 1, "half_length": 2.0, "points_per_dim": 8, "alpha": 1.0},
    "linear-additive": {"dim": 1, "half_length": 4.0, "points_per_dim": 32, "alpha": 0.75},
    "fractional": {"dim": 1, "half_length": 4.0, "points_per_dim": 128, "alpha": 0.6},
}
_DEFAULT_GRID = {"dim": 1, "half_length": 4.0, "points_per_dim": 128, "alpha": 1.0}


class ConfigError(ValueError):
    """Carries the full list of (key, expected, found) validation records."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [
            f"{e['key']}: expected {e['expected']}, found {e['found']}"
            for e in self.errors
        ]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


@dataclass(frozen=True)
class RunConfig:
    """A fully validated, fully defaulted run description."""

    grid: dict
    model: dict
    timegrid: dict
    experiment: dict
    run: dict

    def as_dict(self) -> dict:
        return {
            "grid": dict(self.grid),
            "model": dict(self.model),
            "timegrid": dict(self.timegrid),
            "experiment": dict(self.experiment),
            "run": dict(self.run),
        }


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_power_of_two(n) -> bool:
    return _is_int(n) and n >= 1 and (n & (n - 1)) == 0


def _datum_ok(spec) -> bool:
    if spec == "auto":
        return True
    if not isinstance(spec, dict):
        return False
    kind = spec.get("kind")
    if kind == "constant":
        return set(spec) == {"kind", "level"} and _is_num(spec["level"])
    if kind == "bump":
        return (
            set(spec) == {"kind", "radius", "amplitude"}
            and _is_num(spec["radius"])
            and spec["radius"] > 0
            and _is_num(spec["amplitude"])
        )
    if kind == "cosine":
        return (
            set(spec) <= {"kind", "amplitude", "mode"}
            and {"kind", "amplitude"} <= set(spec)
            and _is_num(spec["amplitude"])
            and _is_int(spec.get("mode", 1))
            and spec.get("mode", 1) >= 1
        )
    return False


def _data_list_ok(value) -> bool:
    if value == "auto":
        return True
    return (
        isinstance(value, list)
        and len(value) >= 1
        and all(d != "auto" and _datum_ok(d) for d in value)
    )


def _eps_list_ok(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) >= 1
        and all(_is_num(e) and 0 < e <= 1 for e in value)
        and all(b < a for a, b in zip(value, value[1:]))
    )


def _amp_list_ok(value) -> bool:
    return isinstance(value, list) and len(value) >= 1 and all(_is_num(a) for a in value)


def _radii_ok(value) -> bool:
    if value == "auto":
        return True
    return (
        isinstance(value, list)
        and len(value) >= 1
        and all(_is_num(r) and r >= 0 for r in value)
    )


_DATUM_EXPECTED = (
    "\"auto\" or {kind: constant|bump|cosine, ...} datum spec"
)

# key -> (default, predicate, expected-description)
# The default horizon is short enough that solution mass stays well inside
# the truncated domain (the regime the periodic truncation is valid in); see
# tail_mass_scan for the measured exterior mass.
_TIMEGRID_KEYS = {
    "horizon": (0.25, lambda v: _is_num(v) and v > 0, "float > 0"),
    "n_steps": (64, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
}

_RUN_KEYS = {
    "seed": (0, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "output_dir": ("runs/out", lambda v: isinstance(v, str) and v != "", "non-empty path string"),
    "format": ("ndjson", lambda v: v in ("ndjson", "csv"), "one of ['ndjson', 'csv']"),
    "workers": (1, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
}

_GRID_KEYS = {
    "dim": (None, lambda v: v in (1, 2, 3), "integer in {1, 2, 3}"),
    "half_length": (None, lambda v: _is_num(v) and v > 0, "float > 0"),
    "points_per_dim": (None, lambda v: _is_power_of_two(v) and v >= 8, "power of two >= 8"),
    "alpha": (None, lambda v: _is_num(v) and 0 < v <= 1, "float in (0, 1]"),
}

_BUILT_KEYS = {
    "drift_form": (
        "cubic_minus_linear",
        lambda v: v in ("cubic_minus_linear", "pure_power"),
        "one of ['cubic_minus_linear', 'pure_power']",
    ),
    "p": (4.0, lambda v: _is_num(v) and v > 2, "float > 2"),
    "noise_form": (
        "saturated_power",
        lambda v: v in ("saturated_power", "smooth_power"),
        "one of ['saturated_power', 'smooth_power']",
    ),
    "q": (2.5, lambda v: _is_num(v) and v >= 2, "float >= 2"),
    "n_modes": (4, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "gamma0": (0.04, lambda v: _is_num(v) and v > 0, "float > 0"),
    "saturation": (0.1, lambda v: _is_num(v) and v > 0, "float > 0"),
}

_EXPERIMENT_KEYS = {
    "simulate": {
        "epsilon": (0.1, lambda v: _is_num(v) and 0 < v <= 1, "float in (0, 1]"),
        "n_paths": (200, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "linf_guard": (1.0e6, lambda v: _is_num(v) and v > 0, "float > 0"),
        "datum": ("auto", _datum_ok, _DATUM_EXPECTED),
    },
    "skeleton": {
        "control_amplitude": (0.0, _is_num, "finite float"),
        "datum": ("auto", _datum_ok, _DATUM_EXPECTED),
    },
    "rate-min": {
        "target": (
            "planted",
            lambda v: v in ("planted", "noise-free", "endpoint"),
            "one of ['planted', 'noise-free', 'endpoint']",
        ),
        "control_amplitude": (0.3, _is_num, "finite float"),
        "endpoint_level": (0.0, _is_num, "finite float"),
        "tau": (1e-3, lambda v: _is_num(v) and v > 0, "float > 0"),
        "max_iters": (400, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "max_continuations": (16, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "residual_tol": (1e-4, lambda v: _is_num(v) and v > 0, "float > 0"),
        "datum": ("auto", _datum_ok, _DATUM_EXPECTED),
    },
    "level-set": {
        "level": (0.5, lambda v: _is_num(v) and v >= 0, "float >= 0"),
        "n_samples": (16, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "datum": ("auto", _datum_ok, _DATUM_EXPECTED),
    },
    "mc-ldp": {
        "eps_list": ([0.5, 0.2, 0.1], _eps_list_ok, "strictly decreasing floats in (0, 1]"),
        "delta": (0.3, lambda v: _is_num(v) and v > 0, "float > 0"),
        "s_levels": (
            [0.2],
            lambda v: isinstance(v, list) and all(_is_num(s) and s >= 0 for s in v),
            "list of floats >= 0",
        ),
        "n_paths": (400, lambda v: _is_int(v) and v >= 100, "integer >= 100"),
        "slack": (0.5, lambda v: _is_num(v) and v > 0, "float > 0"),
        "control_amplitudes": ([0.9], _amp_list_ok, "non-empty list of finite floats"),
        "data": ("auto", _data_list_ok, '"auto" or non-empty list of datum specs'),
        "n_level_samples": (12, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    },
    "validate-model": {
        "n_samples": (100000, lambda v: _is_int(v) and v >= 100, "integer >= 100"),
        "u_max": (1.0e3, lambda v: _is_num(v) and v > 0, "float > 0"),
        "n_fields": (48, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    },
    "tail-scan": {
        "radii": ("auto", _radii_ok, '"auto" or list of floats >= 0'),
        "control_amplitude": (0.0, _is_num, "finite float"),
        "datum": ("auto", _datum_ok, _DATUM_EXPECTED),
    },
    "cvs-sweep": {
        "eps_list": ([1.0, 0.3, 0.1], _eps_list_ok, "strictly decreasing floats in (0, 1]"),
        "eta": (0.5, lambda v: _is_num(v) and v > 0, "float > 0"),
        "n_paths": (100, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "control_amplitudes": ([0.3, -0.2], _amp_list_ok, "non-empty list of finite floats"),
        "data": ("auto", _data_list_ok, '"auto" or non-empty list of datum specs'),
    },
}


def _fill_section(raw, keys, path, errors, extra_forbidden=()):
    """Apply defaults, flag unknown keys, run per-key checks."""
    out = {}
    if not isinstance(raw, dict):
        errors.append({"key": path, "expected": "JSON object", "found": repr(raw)})
        raw = {}
    for key in raw:
        if key in extra_forbidden:
            errors.append({
                "key": f"{path}.{key}",
                "expected": "absent (not allowed for this preset)",
                "found": repr(raw[key]),
            })
        elif key not in keys:
            errors.append({
                "key": f"{path}.{key}",
                "expected": "a documented key (unknown keys are fatal)",
                "found": repr(raw[key]),
            })
    for key, (default, check, expected) in keys.items():
        if key in raw:
            value = raw[key]
            if not check(value):
                errors.append({
                    "key": f"{path}.{key}", "expected": expected, "found": repr(value),
                })
            else:
                out[key] = value
        else:
            out[key] = default
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ConfigError listing every fault."""
    errors = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([
            {"key": "<document>", "expected": "valid JSON", "found": str(exc)}
        ]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([
            {"key": "<document>", "expected": "JSON object", "found": repr(raw)}
        ])
    for key in raw:
        if key not in ("grid", "model", "timegrid", "experiment", "run"):
            errors.append({
                "key": key,
                "expected": "one of ['grid', 'model', 'timegrid', 'experiment', 'run']",
                "found": repr(raw[key]),
            })

    # model first: the preset fixes the grid defaults
    model_raw = raw.get("model", {})
    preset = model_raw.get("preset", "default") if isinstance(model_raw, dict) else "default"
    if preset not in MODEL_PRESETS:
        errors.append({
            "key": "model.preset",
            "expected": f"one of {sorted(MODEL_PRESETS)}",
            "found": repr(preset),
        })
        preset = "default"
    if preset == "built":
        model_keys = {"preset": (preset, lambda v: True, "")} | _BUILT_KEYS
        model = _fill_section(model_raw, model_keys, "model", errors)
        p, q = model.get("p"), model.get("q")
        if model.get("drift_form") == "cubic_minus_linear":
            if p is not None and p != 4:
                errors.append({
                    "key": "model.p",
                    "expected": "4 (cubic_minus_linear is a p = 4 drift)",
                    "found": repr(p),
                })
            p = 4.0
        if _is_num(p) and _is_num(q) and q > 1 + p / 2:
            errors.append({
                "key": "model.q",
                "expected": (
                    "noise growth within the admissible range "
                    f"[2, 1 + p/2] = [2, {1 + p / 2:g}]"
                ),
                "found": repr(q),
            })
    else:
        model_keys = {"preset": (preset, lambda v: True, "")}
        model = _fill_section(
            model_raw, model_keys, "model", errors,
            extra_forbidden=tuple(_BUILT_KEYS),
        )

    grid_defaults = _PRESET_GRIDS.get(preset, _DEFAULT_GRID)
    grid_keys = {
        k: (grid_defaults[k], chk, exp) for k, (_, chk, exp) in _GRID_KEYS.items()
    }
    grid = _fill_section(raw.get("grid", {}), grid_keys, "grid", errors)
    timegrid = _fill_section(raw.get("timegrid", {}), _TIMEGRID_KEYS, "timegrid", errors)
    run = _fill_section(raw.get("run", {}), _RUN_KEYS, "run", errors)

    exp_raw = raw.get("experiment", {})
    if not isinstance(exp_raw, dict):
        errors.append({
            "key": "experiment", "expected": "JSON object", "found": repr(exp_raw),
        })
        exp_raw = {}
    name = exp_raw.get("name")
    if name not in EXPERIMENT_NAMES:
        errors.append({
            "key": "experiment.name",
            "expected": f"one of {list(EXPERIMENT_NAMES)}",
            "found": "missing" if name is None else repr(name),
        })
        experiment = {"name": name}
    else:
        exp_keys = {"name": (name, lambda v: True, "")} | _EXPERIMENT_KEYS[name]
        experiment = _fill_section(exp_raw, exp_keys, "experiment", errors)

    if errors:
        raise ConfigError(errors)
    return RunConfig(grid=grid, model=model, timegrid=timegrid,
                     experiment=experiment, run=run)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON echo of a config (defaults included); round-trips."""
    return json.dumps(cfg.as_dict(), sort_keys=True, indent=2) + "\n"


def build_grid(cfg: RunConfig) -> GridSpec:
    g = cfg.grid
    return GridSpec(
        dim=g["dim"], half_length=g["half_length"],
        points_per_dim=g["points_per_dim"], alpha=g["alpha"],
    )


def build_timegrid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(horizon=cfg.timegrid["horizon"], n_steps=cfg.timegrid["n_steps"])


def build_model_from_config(cfg: RunConfig) -> ModelSpec:
    grid = build_grid(cfg)
    preset = cfg.model["preset"]
    if preset == "built":
        m = cfg.model
        return build_model(
            grid=grid, drift_form=m["drift_form"], p=m["p"],
            noise_form=m["noise_form"], q=m["q"], n_modes=m["n_modes"],
            gamma0=m["gamma0"], saturation=m["saturation"],
        )
    builders = {
        "default": default_model,
        "fractional": fractional_model,
        "pure-power": pure_power_model,
        "boundary-growth": boundary_growth_model,
        "scalar-linear": lambda grid: scalar_linear_model(grid=grid),
        "linear-additive": lambda grid: linear_additive_model(grid=grid),
        "constant-reduction": constant_reduction_model,
    }
    return builders[preset](grid)


# presets whose natural initial data are spatially constant fields
_CONSTANT_DATA_PRESETS = ("scalar-linear", "linear-additive", "constant-reduction")


def build_datum(spec, model: ModelSpec, preset: str = "default") -> Field:
    """Resolve a datum spec ("auto" or a kind dict) to a Field on the model grid."""
    grid = model.grid
    if spec == "auto":
        if preset in _CONSTANT_DATA_PRESETS:
            return Field(grid, np.full(grid.shape, 0.5))
        return default_initial_datum(grid)
    kind = spec["kind"]
    if kind == "constant":
        return Field(grid, np.full(grid.shape, float(spec["level"])))
    if kind == "bump":
        return default_initial_datum(grid, amplitude=spec["amplitude"], radius=spec["radius"])
    mode = spec.get("mode", 1)
    values = spec["amplitude"] * np.cos(mode * np.pi * grid.axis() / grid.half_length)
    for _ in range(grid.dim - 1):
        values = np.multiply.outer(values, np.ones(grid.shape[0]))
    return Field(grid, values)
