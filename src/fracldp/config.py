"""Fail-closed run configuration.

Configs are JSON with five sections — ``grid``, ``model``, ``timegrid``,
``experiment``, ``run`` — every key optional except ``experiment.name``.
Parsing is fail-closed: unknown keys, missing requirements, type mismatches,
and range violations are all collected into precise (key, expected, found)
records and raised together, and every default is echoed into the parsed
config so the serialized form pins the run completely.

Valid ranges are written once: a key that a constructor consumes is checked
with the ``Range`` from that constructor's ``RANGES`` table, so the config
accepts a value exactly when the constructor does. Keys only the config knows
build their ranges from the same vocabulary in ``grids``.

Grid defaults follow the chosen model preset: an omitted grid key takes the
value of the preset's natural grid in ``zoo.PRESETS`` (the grid its builder
uses when given none), so an omitted grid section reproduces the preset's
natural geometry rather than silently rescaling it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .grids import EPS_LADDER, NON_NEGATIVE, POSITIVE, Field, GridSpec, Range, at_least, is_num
from .ldp import LdpExperimentPlan
from .models import DriftSpec, ModelSpec, NoiseSpec, SamplingPlan, noise_exponent_range
from .rate import OptimizerSettings, RateQuery
from .skeleton import TimeGrid, tail_radius_range
from .stochastic import SdeConfig, WienerDriver
from .zoo import BUILD_RANGES, PRESETS, build_model, default_initial_datum

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


_ANY = Range(lambda v: True, "")
_FINITE = Range(is_num, "finite float")


def _one_of(*choices) -> Range:
    return Range(lambda v: v in choices, f"one of {list(choices)}")


def _datum_ok(spec) -> bool:
    if spec == "auto":
        return True
    if not isinstance(spec, dict):
        return False
    kind = spec.get("kind")
    if kind == "constant":
        return set(spec) == {"kind", "level"} and is_num(spec["level"])
    if kind == "bump":
        return (
            set(spec) == {"kind", "radius", "amplitude"}
            and POSITIVE.ok(spec["radius"])
            and is_num(spec["amplitude"])
        )
    if kind == "cosine":
        return (
            set(spec) <= {"kind", "amplitude", "mode"}
            and {"kind", "amplitude"} <= set(spec)
            and is_num(spec["amplitude"])
            and at_least(1).ok(spec.get("mode", 1))
        )
    return False


_DATUM = Range(_datum_ok, "\"auto\" or {kind: constant|bump|cosine, ...} datum spec")
_DATA = Range(
    lambda v: v == "auto" or (
        isinstance(v, list) and len(v) >= 1 and all(d != "auto" and _datum_ok(d) for d in v)
    ),
    '"auto" or non-empty list of datum specs',
)
_AMPLITUDES = Range(
    lambda v: isinstance(v, list) and len(v) >= 1 and all(is_num(a) for a in v),
    "non-empty list of finite floats",
)
_RADII = Range(
    lambda v: v == "auto" or (
        isinstance(v, list) and len(v) >= 1 and all(NON_NEGATIVE.ok(r) for r in v)
    ),
    '"auto" or list of floats >= 0',
)

# key -> (default, Range). A key that a constructor consumes takes that
# constructor's Range object; the others are the config's own.
# The default horizon is short enough that solution mass stays well inside
# the truncated domain (the regime the periodic truncation is valid in); see
# tail_mass_scan for the measured exterior mass.
_TIMEGRID_KEYS = {
    "horizon": (0.25, TimeGrid.RANGES["horizon"]),
    "n_steps": (64, TimeGrid.RANGES["n_steps"]),
}

_RUN_KEYS = {
    "seed": (0, WienerDriver.RANGES["seed"]),
    "output_dir": (
        "runs/out", Range(lambda v: isinstance(v, str) and v != "", "non-empty path string")
    ),
    "format": ("ndjson", _one_of("ndjson", "csv")),
    "workers": (1, at_least(1)),
}

_BUILT_KEYS = {
    "drift_form": ("cubic_minus_linear", _one_of("cubic_minus_linear", "pure_power")),
    "p": (4.0, DriftSpec.RANGES["p"]),
    "noise_form": ("saturated_power", _one_of("saturated_power", "smooth_power")),
    "q": (2.5, BUILD_RANGES["q"]),
    "n_modes": (4, BUILD_RANGES["n_modes"]),
    "gamma0": (0.04, BUILD_RANGES["gamma0"]),
    "saturation": (0.1, NoiseSpec.RANGES["saturation"]),
}

_EXPERIMENT_KEYS = {
    "simulate": {
        "epsilon": (0.1, SdeConfig.RANGES["epsilon"]),
        "n_paths": (200, at_least(1)),
        "linf_guard": (1.0e6, SdeConfig.RANGES["linf_guard"]),
        "datum": ("auto", _DATUM),
    },
    "skeleton": {
        "control_amplitude": (0.0, _FINITE),
        "datum": ("auto", _DATUM),
    },
    "rate-min": {
        "target": ("planted", _one_of("planted", "noise-free", "endpoint")),
        "control_amplitude": (0.3, _FINITE),
        "endpoint_level": (0.0, _FINITE),
        "tau": (1e-3, RateQuery.RANGES["tau_end"]),
        "max_iters": (400, OptimizerSettings.RANGES["max_iters"]),
        "max_continuations": (16, OptimizerSettings.RANGES["max_continuations"]),
        "residual_tol": (1e-4, OptimizerSettings.RANGES["residual_tol"]),
        "datum": ("auto", _DATUM),
    },
    "level-set": {
        "level": (0.5, NON_NEGATIVE),
        "n_samples": (16, at_least(1)),
        "datum": ("auto", _DATUM),
    },
    "mc-ldp": {
        "eps_list": ([0.5, 0.2, 0.1], LdpExperimentPlan.RANGES["eps_list"]),
        "delta": (0.3, LdpExperimentPlan.RANGES["delta"]),
        "s_levels": ([0.2], LdpExperimentPlan.RANGES["s_levels"]),
        "n_paths": (400, LdpExperimentPlan.RANGES["n_paths"]),
        "slack": (0.5, LdpExperimentPlan.RANGES["slack"]),
        "control_amplitudes": ([0.9], _AMPLITUDES),
        "data": ("auto", _DATA),
        "n_level_samples": (12, at_least(1)),
    },
    "validate-model": {
        "n_samples": (100000, SamplingPlan.RANGES["n_samples"]),
        "u_max": (1.0e3, SamplingPlan.RANGES["u_max"]),
        "n_fields": (48, SamplingPlan.RANGES["n_fields"]),
    },
    "tail-scan": {
        "radii": ("auto", _RADII),
        "control_amplitude": (0.0, _FINITE),
        "datum": ("auto", _DATUM),
    },
    "cvs-sweep": {
        "eps_list": ([1.0, 0.3, 0.1], EPS_LADDER),
        "eta": (0.5, POSITIVE),
        "n_paths": (100, at_least(1)),
        "control_amplitudes": ([0.3, -0.2], _AMPLITUDES),
        "data": ("auto", _DATA),
    },
}


EXPERIMENT_NAMES = tuple(_EXPERIMENT_KEYS)


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
    for key, (default, rng) in keys.items():
        if key in raw:
            value = raw[key]
            if not rng.ok(value):
                errors.append({
                    "key": f"{path}.{key}", "expected": rng.expected, "found": repr(value),
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
    if not isinstance(preset, str) or preset not in PRESETS:
        errors.append({
            "key": "model.preset",
            "expected": f"one of {sorted(PRESETS)}",
            "found": repr(preset),
        })
        preset = "default"
    if preset == "built":
        model_keys = {"preset": (preset, _ANY)} | _BUILT_KEYS
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
        if is_num(p) and q is not None:
            q_range = noise_exponent_range(p)
            if not q_range.ok(q):
                errors.append({
                    "key": "model.q",
                    "expected": f"noise growth within the admissible range {q_range.expected}",
                    "found": repr(q),
                })
    else:
        model = _fill_section(
            model_raw, {"preset": (preset, _ANY)}, "model", errors,
            extra_forbidden=tuple(_BUILT_KEYS),
        )

    natural = PRESETS[preset].grid
    grid_keys = {k: (getattr(natural, k), rng) for k, rng in GridSpec.RANGES.items()}
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
        exp_keys = {"name": (name, _ANY)} | _EXPERIMENT_KEYS[name]
        experiment = _fill_section(exp_raw, exp_keys, "experiment", errors)
        radii = experiment.get("radii", "auto")
        if radii != "auto" and "half_length" in grid:
            in_grid = tail_radius_range(grid["half_length"])
            if not all(in_grid.ok(r) for r in radii):
                errors.append({"key": "experiment.radii", "found": repr(radii),
                               "expected": f"tail radii inside the grid, each in {in_grid.expected}"})

    if errors:
        raise ConfigError(errors)
    return RunConfig(grid=grid, model=model, timegrid=timegrid,
                     experiment=experiment, run=run)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON echo of a config (defaults included); round-trips."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def build_grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(**cfg.grid)


def build_timegrid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(**cfg.timegrid)


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
    return PRESETS[preset].build(grid=grid)


def _auto_data(preset: str) -> list:
    """The "auto" data list of the preset's natural datum kind
    (``zoo.PRESETS``): constant fields or compact bumps."""
    if PRESETS[preset].datum == "constant":
        return [{"kind": "constant", "level": 0.5}, {"kind": "constant", "level": 0.35}]
    return [{"kind": "bump", "radius": 0.5, "amplitude": 1.0},
            {"kind": "bump", "radius": 0.5, "amplitude": 0.7}]


def build_datum(spec, model: ModelSpec, preset: str = "default") -> Field:
    """Resolve a datum spec ("auto" or a kind dict) to a Field on the model grid.

    "auto" is the first member of the preset's "auto" data list.
    """
    grid = model.grid
    if spec == "auto":
        spec = _auto_data(preset)[0]
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


def build_data(value, model: ModelSpec, preset: str = "default") -> list:
    """Resolve a ``data`` value ("auto" or a list of datum specs) to Fields."""
    specs = _auto_data(preset) if value == "auto" else value
    return [build_datum(spec, model, preset) for spec in specs]
