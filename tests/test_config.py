"""Config parsing: fail-closed keys, precise errors, defaults, round-trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracldp.config import (
    ConfigError,
    build_data,
    build_datum,
    build_grid,
    build_model_from_config,
    build_timegrid,
    parse_config,
    serialize_config,
)
from fracldp.grids import DomainError, Field, GridSpec
from fracldp.ldp import LdpExperimentPlan
from fracldp.models import (
    ConditionError,
    DriftSpec,
    ForcingSpec,
    ModelSpec,
    NoiseSpec,
    SamplingPlan,
)
from fracldp.rate import OptimizerSettings, RateQuery, g0_map
from fracldp.skeleton import Control, TimeGrid
from fracldp.stochastic import SdeConfig, WienerDriver
from fracldp.zoo import PRESETS, scalar_linear_model


def minimal(name="simulate", **sections):
    doc = {"experiment": {"name": name}}
    doc.update(sections)
    return json.dumps(doc)


def errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


def error_keys(text):
    return {e["key"] for e in errors_of(text)}


def test_minimal_config_fills_defaults():
    cfg = parse_config(minimal())
    assert cfg.run == {"seed": 0, "output_dir": "runs/out", "format": "ndjson",
                      "workers": 1}
    assert cfg.timegrid == {"horizon": 0.25, "n_steps": 64}
    assert cfg.grid["points_per_dim"] == 128
    assert cfg.model == {"preset": "default"}
    assert cfg.experiment["epsilon"] == 0.1
    assert cfg.experiment["n_paths"] == 200


def test_grid_defaults_follow_preset():
    cfg = parse_config(minimal(model={"preset": "scalar-linear"}))
    assert cfg.grid == {"dim": 1, "half_length": 2.0, "points_per_dim": 8,
                       "alpha": 1.0}
    cfg = parse_config(minimal(model={"preset": "fractional"}))
    assert cfg.grid["alpha"] == 0.6
    # explicit grid keys still win
    cfg = parse_config(minimal(model={"preset": "scalar-linear"},
                               grid={"points_per_dim": 16}))
    assert cfg.grid["points_per_dim"] == 16
    assert cfg.grid["half_length"] == 2.0
    # an omitted grid section gives every preset its builder's own grid
    for preset, entry in PRESETS.items():
        cfg = parse_config(minimal(model={"preset": preset}))
        assert build_model_from_config(cfg).grid == entry.build().grid, preset


@pytest.mark.parametrize("name", [
    "simulate", "skeleton", "rate-min", "level-set", "mc-ldp",
    "validate-model", "tail-scan", "cvs-sweep",
])
def test_round_trip_every_experiment(name):
    cfg = parse_config(minimal(name))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_unknown_keys_are_fatal_everywhere():
    assert "mystery" in error_keys('{"experiment": {"name": "simulate"}, "mystery": 1}')
    assert "grid.bogus" in error_keys(minimal(grid={"bogus": 2}))
    assert "run.colour" in error_keys(minimal(run={"colour": "red"}))
    assert "experiment.extra" in error_keys(
        '{"experiment": {"name": "simulate", "extra": 1}}'
    )


def test_alpha_range_error_names_key_and_range():
    errs = errors_of(minimal(grid={"alpha": 1.5}))
    entry = next(e for e in errs if e["key"] == "grid.alpha")
    assert entry["expected"] == "float in (0, 1]"
    assert entry["found"] == "1.5"


def test_q_cross_field_error_cites_range():
    errs = errors_of(minimal(model={"preset": "built", "q": 3.2}))
    entry = next(e for e in errs if e["key"] == "model.q")
    assert "[2, 3]" in entry["expected"]
    # at the admissibility boundary the config is fine
    cfg = parse_config(minimal(model={"preset": "built", "q": 3.0}))
    assert cfg.model["q"] == 3.0


@pytest.mark.parametrize("sections, keys", [
    ({"timegrid": {"n_steps": 1}}, {"timegrid.n_steps"}),
    # cubic_minus_linear is a p = 4 drift: another p would be dropped silently
    ({"model": {"preset": "built", "p": 2.5, "q": 2.0}}, {"model.p"}),
    # and the q range follows the p the drift really has, 1 + 4/2 = 3
    ({"model": {"preset": "built", "p": 6.0, "q": 3.5}}, {"model.p", "model.q"}),
    ({"model": {"preset": "built", "drift_form": "pure_power", "p": 2.0, "q": 2.0}},
     {"model.p"}),
    # a bool or an integral float is not an integer
    ({"grid": {"dim": True}}, {"grid.dim"}),
    ({"grid": {"dim": 1.0}}, {"grid.dim"}),
    # an int beyond the float range is not a finite number
    ({"grid": {"half_length": 10**400}}, {"grid.half_length"}),
], ids=["n-steps-1", "cubic-p2.5", "cubic-p6-q3.5", "pure-power-p2", "dim-true",
        "dim-1.0", "half-length-huge-int"])
def test_config_rejects_what_the_constructors_reject(sections, keys):
    assert keys <= error_keys(minimal(**sections))


# Every config key that a constructor consumes, with that constructor built
# from the key's value; model.p once per drift form, and model.q through the
# assembled model, which holds the q <= 1 + p/2 rule.
_MODEL = scalar_linear_model()
_U0 = Field(_MODEL.grid, np.zeros(_MODEL.grid.shape))
_TG = TimeGrid(horizon=0.25, n_steps=64)


def _noise(n_modes=1, q=2.0, saturation=0.1):
    grid = _MODEL.grid
    k = n_modes if type(n_modes) is int and n_modes >= 1 else 1  # sizes the arrays only
    return NoiseSpec(
        grid=grid, n_modes=n_modes, q=q, kappa=Field(grid, np.zeros(grid.shape)),
        sigma1=np.zeros((k, *grid.shape)), coeff_alpha=np.ones(k), coeff_beta=np.ones(k),
        coeff_gamma=np.ones(k), saturation=saturation,
    )


def _plan(**kw):
    base = dict(model=_MODEL, initial_data=(_U0,), eps_list=(0.5,), delta=0.3, timegrid=_TG)
    return LdpExperimentPlan(**{**base, **kw})


BUILT = {"preset": "built"}
AGREEMENT = {
    "grid.dim": ("simulate", None, lambda v: GridSpec(dim=v)),
    "grid.half_length": ("simulate", None, lambda v: GridSpec(half_length=v)),
    "grid.points_per_dim": ("simulate", None, lambda v: GridSpec(points_per_dim=v)),
    "grid.alpha": ("simulate", None, lambda v: GridSpec(alpha=v)),
    "timegrid.horizon": ("simulate", None, lambda v: TimeGrid(horizon=v, n_steps=64)),
    "timegrid.n_steps": ("simulate", None, lambda v: TimeGrid(horizon=0.25, n_steps=v)),
    "experiment.epsilon": ("simulate", None, lambda v: SdeConfig(epsilon=v, timegrid=_TG)),
    "experiment.linf_guard": (
        "simulate", None, lambda v: SdeConfig(epsilon=0.1, timegrid=_TG, linf_guard=v)),
    "experiment.tau": (
        "rate-min", None, lambda v: RateQuery(u0=_U0, target_endpoint=_U0, tau_end=v)),
    "experiment.max_iters": ("rate-min", None, lambda v: OptimizerSettings(max_iters=v)),
    "experiment.max_continuations": (
        "rate-min", None, lambda v: OptimizerSettings(max_continuations=v)),
    "experiment.residual_tol": ("rate-min", None, lambda v: OptimizerSettings(residual_tol=v)),
    "experiment.eps_list": ("mc-ldp", None, lambda v: _plan(eps_list=v)),
    "experiment.delta": ("mc-ldp", None, lambda v: _plan(delta=v)),
    "experiment.s_levels": ("mc-ldp", None, lambda v: _plan(s_levels=v)),
    "experiment.n_paths": ("mc-ldp", None, lambda v: _plan(n_paths=v)),
    "experiment.slack": ("mc-ldp", None, lambda v: _plan(slack=v)),
    "experiment.n_samples": ("validate-model", None, lambda v: SamplingPlan(n_samples=v)),
    "experiment.u_max": ("validate-model", None, lambda v: SamplingPlan(u_max=v)),
    "experiment.n_fields": ("validate-model", None, lambda v: SamplingPlan(n_fields=v)),
    "model.p[cubic]": (
        "simulate", BUILT, lambda v: DriftSpec(form="cubic_minus_linear", p=v)),
    "model.p[pure-power]": (
        "simulate", {**BUILT, "drift_form": "pure_power"},
        lambda v: DriftSpec(form="pure_power", p=v)),
    "model.q": ("simulate", BUILT, lambda v: ModelSpec(
        grid=_MODEL.grid, drift=DriftSpec(), noise=_noise(q=v),
        forcing=ForcingSpec(grid=_MODEL.grid))),
    "model.n_modes": ("simulate", BUILT, lambda v: _noise(n_modes=v)),
    "model.saturation": ("simulate", BUILT, lambda v: _noise(saturation=v)),
    "run.seed": ("simulate", None, lambda v: WienerDriver(n_modes=1, seed=v)),
}

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)


@pytest.mark.parametrize("case", sorted(AGREEMENT))
@settings(max_examples=60, deadline=None)
@given(value=st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4)))
@example(value=True)
@example(value=1.0)
@example(value=2.5)
@example(value=0)
@example(value=-1)
@example(value=float("nan"))
@example(value=float("inf"))
@example(value="x")
def test_config_accepts_exactly_what_the_constructor_accepts(case, value):
    name, model, build = AGREEMENT[case]
    key = case.split("[")[0]
    section, field = key.split(".")
    doc = {"experiment": {"name": name}}
    if model is not None:
        doc["model"] = dict(model)
    doc.setdefault(section, {})[field] = value
    try:
        parse_config(json.dumps(doc))
        config_ok = True
    except ConfigError as exc:
        config_ok = key not in {e["key"] for e in exc.errors}
    try:
        build(value)
        constructor_ok = True
    except (DomainError, ConditionError):
        constructor_ok = False
    assert config_ok == constructor_ok


def test_built_keys_forbidden_for_presets():
    errs = errors_of(minimal(model={"preset": "default", "q": 2.5}))
    entry = next(e for e in errs if e["key"] == "model.q")
    assert "not allowed" in entry["expected"]


def test_experiment_name_required_and_known():
    assert "experiment.name" in error_keys('{"experiment": {}}')
    assert "experiment.name" in error_keys('{"experiment": {"name": "dance"}}')
    assert "experiment.name" in error_keys("{}")


def test_range_violations_reported():
    assert "experiment.n_paths" in error_keys(
        '{"experiment": {"name": "mc-ldp", "n_paths": 50}}'
    )
    assert "experiment.eps_list" in error_keys(
        '{"experiment": {"name": "mc-ldp", "eps_list": [0.2, 0.5]}}'
    )
    assert "timegrid.n_steps" in error_keys(minimal(timegrid={"n_steps": 0}))
    assert "grid.points_per_dim" in error_keys(minimal(grid={"points_per_dim": 100}))
    assert "run.format" in error_keys(minimal(run={"format": "yaml"}))
    assert "run.seed" in error_keys(minimal(run={"seed": -1}))


def test_bool_is_not_an_integer():
    assert "timegrid.n_steps" in error_keys(minimal(timegrid={"n_steps": True}))


def test_datum_spec_validation():
    assert "experiment.datum" in error_keys(
        '{"experiment": {"name": "simulate", "datum": {"kind": "step"}}}'
    )
    assert "experiment.datum" in error_keys(
        '{"experiment": {"name": "simulate", "datum": {"kind": "bump", "radius": -1, "amplitude": 1}}}'
    )
    assert "experiment.datum" in error_keys(
        '{"experiment": {"name": "simulate", "datum": {"kind": "constant"}}}'
    )
    ok = parse_config(
        '{"experiment": {"name": "simulate", '
        '"datum": {"kind": "cosine", "amplitude": 0.4, "mode": 2}}}'
    )
    assert ok.experiment["datum"]["mode"] == 2


def test_all_errors_collected_at_once():
    errs = errors_of(minimal(grid={"alpha": 2.0, "dim": 9},
                             run={"workers": 0}))
    keys = {e["key"] for e in errs}
    assert {"grid.alpha", "grid.dim", "run.workers"} <= keys
    for e in errs:
        assert set(e) == {"key", "expected", "found"}


def test_document_level_failures():
    with pytest.raises(ConfigError):
        parse_config("not json at all {")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")


def test_builders_produce_matching_objects():
    cfg = parse_config(minimal(model={"preset": "scalar-linear"},
                               timegrid={"horizon": 1.0, "n_steps": 32}))
    grid = build_grid(cfg)
    assert grid.shape == (8,) and grid.half_length == 2.0
    tg = build_timegrid(cfg)
    assert tg.horizon == 1.0 and tg.n_steps == 32
    model = build_model_from_config(cfg)
    assert model.grid == grid
    assert model.noise.n_modes == 1


def test_build_model_built_preset():
    cfg = parse_config(minimal(model={"preset": "built", "q": 2.0,
                                      "noise_form": "smooth_power"}))
    model = build_model_from_config(cfg)
    assert model.noise.q == 2.0


def test_auto_data_constant_for_spatially_constant_presets():
    """A preset whose noise-free flow keeps a constant datum spatially
    constant is a scalar reduction; its "auto" data must be constant fields."""
    tg = TimeGrid(0.2, 8)
    n_constant = 0
    for preset, entry in PRESETS.items():
        model = entry.build()
        level = Field(model.grid, np.full(model.grid.shape, 0.5))
        traj = g0_map(model, level, Control.zero(tg, model.noise.n_modes), tg)
        if np.ptp(traj.reshape(len(traj), -1), axis=1).max() > 0.0:
            continue
        n_constant += 1
        for datum in build_data("auto", model, preset):
            assert np.all(datum.values == datum.values.flat[0]), preset
    assert n_constant == 3  # scalar-linear, linear-additive, constant-reduction


def test_build_datum_kinds():
    cfg = parse_config(minimal(model={"preset": "scalar-linear"}))
    model = build_model_from_config(cfg)
    const = build_datum({"kind": "constant", "level": 0.7}, model, "scalar-linear")
    assert np.all(const.values == 0.7)
    auto = build_datum("auto", model, "scalar-linear")
    assert np.all(auto.values == auto.values.flat[0])  # constant for the reduction
    cfg2 = parse_config(minimal())
    model2 = build_model_from_config(cfg2)
    bump = build_datum("auto", model2, "default")
    assert bump.values.max() > 0 and bump.values[0] == 0.0  # compactly supported
    cosine = build_datum({"kind": "cosine", "amplitude": 0.5, "mode": 1}, model2, "default")
    assert np.isclose(cosine.values.max(), 0.5)
