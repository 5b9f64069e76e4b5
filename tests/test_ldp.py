"""Tests for the Monte Carlo large-deviation probes.

The scalar linear model reduces spatially constant data to a one-dimensional
Ornstein-Uhlenbeck process, so terminal-ball probabilities have a Gaussian
closed form that the estimator must reproduce, and eps*ln(p-hat) must drift
toward the negated action minimum as epsilon shrinks.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fracldp import ldp, skeleton, stochastic
from fracldp.grids import DomainError, Field, GridMismatchError, GridSpec
from fracldp.ldp import (
    DependencyError,
    LdpExperimentPlan,
    LdpReport,
    PathSetSpec,
    dz_bounds_experiment,
    estimate_ball_probability,
    fw_bounds_experiment,
    uniform_convergence_experiment,
    uniformity_sweep,
)
from fracldp.rate import (
    RateQuery,
    RateResult,
    action,
    constrained_rate_minimum,
    g0_map,
    minimize_rate,
)
from fracldp.skeleton import Control, TimeGrid, solve_skeleton
from fracldp.stochastic import EstimationError, SdeConfig, batch_distances, wilson_interval
from fracldp.zoo import scalar_linear_model

A_COEFF = 1.0
SIGMA = 0.3
HORIZON = 1.0
N_STEPS = 64

RECORD_KEYS = {
    "probe", "eps", "datum", "target", "p_hat", "ci_lo", "ci_hi",
    "eps_ln_p", "rate", "margin", "censored",
}


@pytest.fixture(scope="module")
def lab():
    model = scalar_linear_model(a=A_COEFF, sigma1_value=SIGMA)
    grid = model.grid
    tg = TimeGrid(horizon=HORIZON, n_steps=N_STEPS)
    u0 = Field(grid, np.full(grid.shape, 0.5))
    u0_near = Field(grid, np.full(grid.shape, 0.35))
    control = Control(tg, np.full((tg.n_steps, model.noise.n_modes), 0.9))
    data = (u0, u0_near)
    targets = [g0_map(model, d, control, tg) for d in data]
    rates = [
        [minimize_rate(model, RateQuery(u0=d, target_path=t), tg)]
        for d, t in zip(data, targets)
    ]
    return {
        "model": model, "grid": grid, "tg": tg, "u0": u0, "u0_near": u0_near,
        "data": data, "control": control, "targets": targets, "rates": rates,
    }


def make_plan(lab, **overrides):
    kw = dict(
        model=lab["model"],
        initial_data=lab["data"],
        eps_list=(0.5, 0.2, 0.1),
        delta=0.3,
        timegrid=lab["tg"],
        n_paths=1000,
        slack=0.5,
    )
    kw.update(overrides)
    return LdpExperimentPlan(**kw)


def fake_rate(value, converged=True):
    return RateResult(
        value=value, minimizer=None, residual=0.0,
        converged=converged, iterations=0, penalty=1.0,
    )


# --- plan validation ------------------------------------------------------

def test_plan_rejects_bad_eps(lab):
    with pytest.raises(DomainError):
        make_plan(lab, eps_list=())
    with pytest.raises(DomainError):
        make_plan(lab, eps_list=(0.5, 0.5))
    with pytest.raises(DomainError):
        make_plan(lab, eps_list=(0.2, 0.5))
    with pytest.raises(DomainError):
        make_plan(lab, eps_list=(1.5, 0.5))
    with pytest.raises(DomainError):
        make_plan(lab, eps_list=(0.5, -0.1))


def test_plan_rejects_bad_scalars(lab):
    with pytest.raises(DomainError):
        make_plan(lab, delta=0.0)
    with pytest.raises(DomainError):
        make_plan(lab, n_paths=50)
    with pytest.raises(DomainError):
        make_plan(lab, s_levels=(-0.1,))
    with pytest.raises(DomainError):
        make_plan(lab, slack=0.0)
    with pytest.raises(DomainError):
        make_plan(lab, linf_guard=0.0)
    with pytest.raises(DomainError):
        make_plan(lab, initial_data=())


def test_plan_rejects_foreign_grid(lab):
    other = GridSpec(dim=1, half_length=2.0, points_per_dim=16, alpha=1.0)
    bad = Field(other, np.zeros(other.shape))
    with pytest.raises(GridMismatchError):
        make_plan(lab, initial_data=(bad,))


# --- ball probability estimator ------------------------------------------

def ou_terminal_ball_prob(c0, z, delta_l2, eps, vol=4.0):
    """Gaussian ball probability of the discretized linear chain."""
    dt = HORIZON / N_STEPS
    rho = 1.0 - A_COEFF * dt
    mu = c0 * rho**N_STEPS
    var = eps * SIGMA**2 * dt * (1 - rho ** (2 * N_STEPS)) / (1 - rho**2)
    half = delta_l2 / math.sqrt(vol)
    sig = math.sqrt(var)
    return norm.cdf((z + half - mu) / sig) - norm.cdf((z - half - mu) / sig)


def zero_reference(grid):
    return np.zeros((N_STEPS + 1, *grid.shape))


def test_ball_probability_matches_ou_closed_form(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    n = 4000
    for eps in (0.2, 0.05):
        p_hat, (lo, hi) = estimate_ball_probability(
            model, u0, phi, delta=0.3, epsilon=eps, n_paths=n,
            base_seed=42, timegrid=tg, which="terminal",
        )
        p_true = ou_terminal_ball_prob(0.5, 0.0, 0.3, eps)
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert abs(p_hat - p_true) < max(5 * se, 0.02)
        assert lo <= p_hat <= hi


def test_ball_probability_complement_identity(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    kw = dict(delta=0.25, epsilon=0.2, n_paths=800, base_seed=11, timegrid=tg)
    p_in, _ = estimate_ball_probability(model, u0, phi, side="inside", **kw)
    p_out, _ = estimate_ball_probability(model, u0, phi, side="outside", **kw)
    assert p_in + p_out == 1.0


def test_ball_probability_monotone_in_delta(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    ps = [
        estimate_ball_probability(
            model, u0, phi, delta=d, epsilon=0.2, n_paths=600,
            base_seed=3, timegrid=tg,
        )[0]
        for d in (0.1, 0.2, 0.4)
    ]
    assert ps[0] <= ps[1] <= ps[2]


def test_ball_probability_degenerate_deltas(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    p0, _ = estimate_ball_probability(
        model, u0, phi, delta=0.0, epsilon=0.2, n_paths=200, base_seed=1, timegrid=tg
    )
    assert p0 == 0.0
    p1, _ = estimate_ball_probability(
        model, u0, phi, delta=1e3, epsilon=0.2, n_paths=200, base_seed=1, timegrid=tg
    )
    assert p1 == 1.0


def test_ball_probability_reproducible(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    kw = dict(delta=0.3, epsilon=0.2, n_paths=400, base_seed=9, timegrid=tg,
              stream_offset=123)
    a = estimate_ball_probability(model, u0, phi, **kw)
    b = estimate_ball_probability(model, u0, phi, **kw)
    assert a == b


def test_ball_probability_validation(lab, monkeypatch):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)

    def no_paths(*args):
        raise AssertionError("a path was simulated before the arguments were checked")

    # every rejection below must come before any noise is drawn
    monkeypatch.setattr(stochastic, "_mode_weights", no_paths)
    with pytest.raises(DomainError):
        estimate_ball_probability(model, u0, phi, -0.1, 0.2, 200, 0, tg)
    with pytest.raises(DomainError):  # NaN would make inside + outside = 0
        estimate_ball_probability(model, u0, phi, np.nan, 0.2, 200, 0, tg)
    with pytest.raises(GridMismatchError):
        estimate_ball_probability(model, u0, phi[:-1], 0.3, 0.2, 200, 0, tg)
    with pytest.raises(DomainError):
        estimate_ball_probability(model, u0, phi, 0.3, 0.2, 200, 0, tg, which="sup")
    with pytest.raises(DomainError):
        estimate_ball_probability(model, u0, phi, 0.3, 0.2, 200, 0, tg, side="below")


def test_ball_probability_all_blown(lab):
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    with pytest.raises(EstimationError):
        estimate_ball_probability(
            model, u0, phi, 0.3, 0.2, 100, 0, tg, linf_guard=0.01
        )


def test_eps_ln_p_converges_to_rate(lab):
    """eps * ln p-hat must be closer to -I at eps = 0.05 than at eps = 0.5."""
    model, grid, tg, u0 = lab["model"], lab["grid"], lab["tg"], lab["u0"]
    phi = zero_reference(grid)
    mu0 = 0.5 * math.exp(-A_COEFF * HORIZON)
    half = 0.3 / 2.0  # terminal L2 radius over sqrt(volume)
    near = half if mu0 > half else mu0
    i_ball = A_COEFF * (near - mu0) ** 2 / (SIGMA**2 * (1 - math.exp(-2 * A_COEFF * HORIZON)))
    errs = []
    for eps in (0.5, 0.05):
        p_hat, _ = estimate_ball_probability(
            model, u0, phi, delta=0.3, epsilon=eps, n_paths=4000,
            base_seed=42, timegrid=tg, which="terminal",
        )
        assert p_hat > 0
        errs.append(abs(eps * math.log(p_hat) + i_ball))
    assert errs[1] < errs[0] - 0.1


# --- FW probe -------------------------------------------------------------

def test_fw_pass_and_record_shape(lab):
    plan = make_plan(lab, s_levels=(0.2,))
    rep = fw_bounds_experiment(
        plan, [lab["control"]], lab["rates"], base_seed=7, n_level_samples=12
    )
    assert rep.verdict == "pass" and rep.passed
    assert rep.indeterminate_cells == 0
    # lower margins rise toward 0 from below, upper margins shrink
    assert rep.lower_margins[-1] > rep.lower_margins[0]
    assert rep.lower_margins[-1] >= -plan.slack
    assert rep.upper_margins[-1] <= rep.upper_margins[0]
    assert rep.upper_margins[-1] <= plan.slack
    assert len(rep.records) == len(plan.eps_list) * len(plan.initial_data) * 2
    for rec in rep.records:
        assert set(rec) == RECORD_KEYS
        assert rec["ci_lo"] <= rec["p_hat"] <= rec["ci_hi"]
        assert np.isfinite(rec["margin"])
    assert rep.eps_list == list(plan.eps_list) and rep.slack == plan.slack


def test_fw_reproducible(lab):
    plan = make_plan(lab, n_paths=300, eps_list=(0.5, 0.2))
    a = fw_bounds_experiment(plan, [lab["control"]], lab["rates"], base_seed=5)
    b = fw_bounds_experiment(plan, [lab["control"]], lab["rates"], base_seed=5)
    assert a.records == b.records
    assert a.lower_margins == b.lower_margins


def test_fw_dependency_errors(lab):
    plan = make_plan(lab)
    with pytest.raises(DependencyError):
        fw_bounds_experiment(plan, [], lab["rates"])
    with pytest.raises(DependencyError):
        fw_bounds_experiment(plan, [lab["control"]], None)
    with pytest.raises(DependencyError):
        fw_bounds_experiment(plan, [lab["control"]], [lab["rates"][0]])
    bad = [[fake_rate(0.4, converged=False)], [fake_rate(0.4)]]
    with pytest.raises(DependencyError):
        fw_bounds_experiment(plan, [lab["control"]], bad)
    with pytest.raises(DependencyError):
        fw_bounds_experiment(plan, [lab["control"]], [[0.4], [0.4]])


def test_fw_unresolvable_cell_is_indeterminate_not_failed(lab):
    """A target too costly for the sample size censors its cell; the Wilson
    interval then straddles both verdicts, so the probe must report
    indeterminate rather than fail."""
    model, tg = lab["model"], lab["tg"]
    far = Control(tg, np.full((tg.n_steps, model.noise.n_modes), math.sqrt(6.0)))
    assert abs(action(far) - 3.0) < 1e-12
    plan = make_plan(lab, initial_data=(lab["u0"],), eps_list=(0.5, 0.4),
                     n_paths=100, slack=0.25)
    rates = [[minimize_rate(model, RateQuery(u0=lab["u0"], target_path=g0_map(model, lab["u0"], far, tg)), tg)]]
    rep = fw_bounds_experiment(plan, [far], rates, base_seed=21)
    final_cells = [r for r in rep.records if r["eps"] == 0.4]
    assert all(c["censored"] for c in final_cells)
    assert rep.verdict == "indeterminate"
    assert rep.indeterminate_cells == 1
    assert rep.passed  # flagged, not failed


def test_fw_wrong_rate_fails(lab):
    """Claiming zero action for a genuinely costly target must fail the
    lower probe (margins settle near the negated true action)."""
    plan = make_plan(lab, initial_data=(lab["u0"],), eps_list=(0.5, 0.2),
                     slack=0.25)
    rep = fw_bounds_experiment(plan, [lab["control"]], [[fake_rate(0.0)]],
                               base_seed=7)
    assert rep.verdict == "fail"
    assert not rep.passed


def test_fw_determinate_failure_not_masked_by_censored_cell(lab):
    """One conclusive failing cell should force the fail verdict even when a
    second, unresolvable cell sits next to it."""
    model, tg, u0 = lab["model"], lab["tg"], lab["u0"]
    far = Control(tg, np.full((tg.n_steps, model.noise.n_modes), math.sqrt(6.0)))
    plan = make_plan(lab, initial_data=(u0,), eps_list=(0.5, 0.2), slack=0.25)
    rates = [[fake_rate(0.0), fake_rate(3.0)]]
    rep = fw_bounds_experiment(plan, [lab["control"], far], rates, base_seed=7)
    assert rep.verdict == "fail"


def test_fw_overclaimed_level_fails_determinately(lab):
    """A tiny delta makes escape from the sampled level set near-certain, so
    eps*ln p stays near zero and the margin sits at s above the slack."""
    plan = make_plan(lab, initial_data=(lab["u0"],), eps_list=(0.5, 0.2),
                     delta=0.01, s_levels=(0.5,), n_paths=400, slack=0.25)
    rep = fw_bounds_experiment(plan, [lab["control"]],
                               [[lab["rates"][0][0]]], base_seed=3,
                               n_level_samples=8)
    assert rep.upper_margins[-1] > plan.slack
    assert rep.verdict == "fail"


# --- DZ probe -------------------------------------------------------------

@pytest.fixture(scope="module")
def dz_lab(lab):
    model, tg = lab["model"], lab["tg"]
    ref = solve_skeleton(
        model, lab["u0"], Control.zero(tg, model.noise.n_modes)
    ).trajectory
    open_set = PathSetSpec(name="near-skeleton", reference=ref, radius=0.6,
                           kind="open-ball")
    closed_set = PathSetSpec(name="escape", reference=ref, radius=0.35,
                             kind="closed-complement")
    everything = PathSetSpec(name="everything", reference=ref, radius=np.inf,
                             kind="open-ball")
    rate_rows = []
    for spec, mode in ((open_set, "inside"), (closed_set, "outside")):
        rate_rows.append([
            constrained_rate_minimum(model, d, ref, spec.radius, mode, tg)
            for d in lab["data"]
        ])
    zero_rates = [
        minimize_rate(
            model,
            RateQuery(
                u0=d,
                target_path=solve_skeleton(
                    model, d, Control.zero(tg, model.noise.n_modes)
                ).trajectory,
            ),
            tg,
        )
        for d in lab["data"]
    ]
    return {"ref": ref, "open": open_set, "closed": closed_set,
            "everything": everything, "rates": rate_rows, "zero": zero_rates}


def test_dz_pass_with_near_data(lab, dz_lab):
    plan = make_plan(lab, n_paths=1500)
    sets = [dz_lab["open"], dz_lab["closed"]]
    rates = [dz_lab["rates"][0], dz_lab["rates"][1]]
    rep = dz_bounds_experiment(plan, sets, rates, base_seed=13)
    assert rep.verdict == "pass" and rep.passed
    assert rep.lower_margins[-1] >= -plan.slack
    assert rep.upper_margins[-1] <= plan.slack
    for rec in rep.records:
        assert set(rec) == RECORD_KEYS


def test_dz_whole_space_is_exact(lab, dz_lab):
    plan = make_plan(lab, n_paths=300, eps_list=(0.5, 0.2))
    rep = dz_bounds_experiment(
        plan, [dz_lab["everything"]], [dz_lab["zero"]], base_seed=2
    )
    # every path lies in the infinite ball and the zero control is free,
    # so the lower-bound margin is exactly zero at every epsilon
    for rec in rep.records:
        assert rec["p_hat"] == 1.0
        assert rec["eps_ln_p"] == 0.0
    assert rep.lower_margins == [0.0, 0.0]
    assert rep.verdict == "pass"


def test_dz_reproducible(lab, dz_lab):
    plan = make_plan(lab, n_paths=300, eps_list=(0.5, 0.2))
    a = dz_bounds_experiment(plan, [dz_lab["open"]], [dz_lab["rates"][0]], base_seed=4)
    b = dz_bounds_experiment(plan, [dz_lab["open"]], [dz_lab["rates"][0]], base_seed=4)
    assert a.records == b.records


def test_dz_far_datum_flags_indeterminate(lab, dz_lab):
    """From a datum whose skeleton sits outside the ball, entering it is a
    rare event the sample cannot resolve, so the open-probe cell censors and
    the uniform verdict is flagged indeterminate."""
    model, tg = lab["model"], lab["tg"]
    far_datum = Field(lab["grid"], np.full(lab["grid"].shape, -0.3))
    data = (lab["u0"], far_datum)
    plan = make_plan(lab, initial_data=data, n_paths=1000)
    rates = [[
        constrained_rate_minimum(model, d, dz_lab["ref"], 0.6, "inside", tg)
        for d in data
    ]]
    rep = dz_bounds_experiment(plan, [dz_lab["open"]], rates, base_seed=13)
    assert rep.verdict == "indeterminate"
    assert rep.indeterminate_cells >= 1
    assert rep.passed


def test_dz_validation(lab, dz_lab):
    plan = make_plan(lab, n_paths=300)
    with pytest.raises(DomainError):
        PathSetSpec(name="x", reference=dz_lab["ref"], radius=0.5, kind="open")
    with pytest.raises(DomainError):
        PathSetSpec(name="x", reference=dz_lab["ref"], radius=-1.0, kind="open-ball")
    for kind in ("open-ball", "closed-complement"):
        with pytest.raises(DomainError):
            PathSetSpec(name="x", reference=dz_lab["ref"], radius=np.nan, kind=kind)
    with pytest.raises(DomainError):
        PathSetSpec(name="x", reference=dz_lab["ref"], radius=np.inf,
                    kind="closed-complement")
    with pytest.raises(DependencyError):
        dz_bounds_experiment(plan, [], [])
    with pytest.raises(DependencyError):
        dz_bounds_experiment(plan, [dz_lab["open"]], None)
    with pytest.raises(DependencyError):
        dz_bounds_experiment(plan, [dz_lab["open"]], [[fake_rate(0.0)]])
    bad_ref = PathSetSpec(name="short", reference=dz_lab["ref"][:-1], radius=0.5,
                          kind="open-ball")
    with pytest.raises(GridMismatchError):
        dz_bounds_experiment(plan, [bad_ref], [dz_lab["zero"]])


# --- uniformity sweep -----------------------------------------------------

def test_uniformity_bounded_spread(lab):
    plan = make_plan(lab)
    fw = fw_bounds_experiment(plan, [lab["control"]], lab["rates"], base_seed=7)
    rep = uniformity_sweep(fw)
    assert rep.passed
    assert rep.warning is None
    assert len(rep.spreads) == len(plan.eps_list)
    assert all(s >= 0 for s in rep.spreads)
    assert rep.spreads[-1] <= rep.spreads[0] + plan.slack
    rows = list(rep.as_rows())
    assert len(rows) == len(plan.eps_list)
    assert rows[0]["spread"] == rep.spreads[0]


def test_uniformity_singleton_degenerates(lab):
    plan = make_plan(lab, initial_data=(lab["u0"],), eps_list=(0.5, 0.2),
                     n_paths=300)
    fw = fw_bounds_experiment(plan, [lab["control"]], [lab["rates"][0]], base_seed=1)
    rep = uniformity_sweep(fw)
    assert rep.warning is not None and "degenerate" in rep.warning
    assert rep.spreads == [0.0, 0.0]
    assert rep.passed


def test_uniformity_needs_fw_lower_cells():
    upper_only = {
        "probe": "fw-upper", "eps": 0.5, "datum": 0, "target": "level-0.2",
        "p_hat": 0.5, "ci_lo": 0.4, "ci_hi": 0.6, "eps_ln_p": -0.3, "rate": 0.2,
        "margin": -0.1, "censored": False,
    }
    for records in ([], [upper_only]):
        report = LdpReport(
            probe="fw", eps_list=[0.5], slack=0.5, records=records,
            lower_margins=[], upper_margins=[], verdict="pass", indeterminate_cells=0,
        )
        with pytest.raises(DependencyError):
            uniformity_sweep(report)


def test_fw_lower_cells_ignore_level_references(lab):
    """Level-set references ride in the same batch as the target paths, so
    adding them must leave every fw-lower cell bit-identical; the uniformity
    rows are derived from these cells."""
    kw = dict(base_seed=7, n_level_samples=6)
    plain = fw_bounds_experiment(
        make_plan(lab, n_paths=300), [lab["control"]], lab["rates"], **kw
    )
    leveled = fw_bounds_experiment(
        make_plan(lab, n_paths=300, s_levels=(0.2, 0.5)), [lab["control"]],
        lab["rates"], **kw
    )
    assert [r for r in leveled.records if r["probe"] == "fw-lower"] == plain.records
    assert leveled.lower_margins == plain.lower_margins


def test_fw_counts_blown_paths(lab):
    """A guard that trips some paths but not all shows on the report; a
    looser guard on the same streams can only trip fewer."""
    def blown(guard):
        plan = make_plan(lab, initial_data=(lab["u0"],), eps_list=(0.5, 0.2),
                         n_paths=200, linf_guard=guard)
        rep = fw_bounds_experiment(plan, [lab["control"]], [lab["rates"][0]],
                                   base_seed=7)
        return rep.blow_up_count

    tight, loose = blown(0.55), blown(0.6)
    assert 0 < loose <= tight < 2 * 200
    assert blown(1.0e6) == 0


def test_event_mode_decides_every_pair_as_the_full_mode(lab):
    """On a cell with blown paths, stopping a pair once its partial distance
    passes r gives every (path, reference) pair the full mode's indicator,
    and every distance below r the full mode's bits."""
    model, tg, u0 = lab["model"], lab["tg"], lab["u0"]
    refs = [lab["targets"][0], zero_reference(lab["grid"]),
            g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)]
    cfg = SdeConfig(epsilon=0.2, timegrid=tg, linf_guard=0.55)  # as test_fw_counts_blown_paths

    def dists(**kw):
        return batch_distances(model, u0, cfg, 200, 7, references=refs, **kw)

    full, blown = dists()
    assert blown > 0
    for r in (0.0, 0.3, math.inf):
        event, event_blown = dists(event_radius=r)
        assert event_blown == blown
        assert np.array_equal(event < r, full < r)
        assert np.array_equal(event >= r, full >= r)
        assert np.array_equal(event[full < r], full[full < r])
    assert 0 < np.sum(full < 0.3) < np.sum(np.isfinite(full))  # hits and decided pairs


def test_event_mode_leaves_probe_results_unchanged(lab, monkeypatch):
    """fw records, ball probabilities and the convergence table are those of
    the full mode."""
    model, tg, u0 = lab["model"], lab["tg"], lab["u0"]
    plan = make_plan(lab, initial_data=(u0,), eps_list=(0.5, 0.2), n_paths=200,
                     s_levels=(0.2,), linf_guard=0.55)
    controls = [lab["control"], Control.zero(tg, model.noise.n_modes)]

    def run():
        rep = fw_bounds_experiment(plan, [lab["control"]], [lab["rates"][0]],
                                   base_seed=7, n_level_samples=5)
        balls = [
            estimate_ball_probability(model, u0, lab["targets"][0], delta, 0.2, 200, 7, tg,
                                      side=side, linf_guard=0.55)
            for delta in (0.0, 0.3, math.inf) for side in ("inside", "outside")
        ]
        table = uniform_convergence_experiment(model, lab["data"], controls, (0.5, 0.2),
                                               eta=0.45, n_paths=100, base_seed=7)
        return rep.records, rep.blow_up_count, balls, table

    event = run()
    event_cell = ldp._simulate_cell
    monkeypatch.setattr(ldp, "_simulate_cell", lambda *args, event_radius: event_cell(*args))
    assert run() == event


def test_fw_sweeps_each_reference_once(lab, monkeypatch):
    """The level-set controls are drawn once, not mapped on a datum first, so
    an fw run runs one dense sweep per datum and target path or level member."""
    sweeps = []
    forward = skeleton.forward_states

    def counted(*args, **kwargs):
        sweeps.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(skeleton, "forward_states", counted)
    plan = make_plan(lab, n_paths=100, eps_list=(0.5,), s_levels=(0.2, 0.0))
    fw_bounds_experiment(plan, [lab["control"]], lab["rates"], base_seed=3, n_level_samples=5)
    # one target control, 5 members at s = 0.2, the zero control at s = 0
    assert len(sweeps) == len(lab["data"]) * (1 + 5 + 1)


# --- uniform convergence sweep --------------------------------------------

def test_convergence_rows_follow_the_cell_stream_layout(lab):
    """Each row is the worst of its eps's (datum, control) cells, cell (i, j)
    at eps index e drawing streams from ((e * n_u0 + i) * n_v + j) * n_paths
    on, each measured against its own skeleton under its own shift."""
    model, tg, data = lab["model"], lab["tg"], lab["data"]
    controls = [lab["control"], Control(tg, np.full((tg.n_steps, model.noise.n_modes), -0.4))]
    eps_list, eta, n_paths, seed = (0.5, 0.2), 0.6, 100, 4
    table = uniform_convergence_experiment(model, data, controls, eps_list, eta, n_paths, seed)
    for e_idx, (eps, row) in enumerate(zip(eps_list, table.rows)):
        counts = {}
        for i, u0 in enumerate(data):
            for j, v in enumerate(controls):
                offset = ((e_idx * len(data) + i) * len(controls) + j) * n_paths
                dists, _ = batch_distances(model, u0, SdeConfig(epsilon=eps, timegrid=tg), n_paths,
                                           seed, stream_offset=offset, shift=v,
                                           references=[solve_skeleton(model, u0, v).trajectory])
                counts[i, j] = int(np.sum(~(dists[:, 0] <= eta)))
        assert len(set(counts.values())) > 1  # the worst cell is a real choice
        worst = max(counts.values())
        assert row.exceed_count == worst
        assert row.worst_cell == next(c for c, n in counts.items() if n == worst)
        assert (row.ci_lo, row.ci_hi) == wilson_interval(worst, n_paths)
        assert row.p_hat == worst / n_paths
