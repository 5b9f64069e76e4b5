"""Tests for the action functional, rate minimization, and level-set geometry."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from fracldp.grids import DomainError, Field, GridMismatchError, GridSpec
from fracldp.models import ModelSpec
from fracldp.skeleton import (
    DENSE_FACTOR_MAX_POINTS,
    BlowUpError,
    Control,
    StepKernel,
    TimeGrid,
    distance_weights,
    path_distance,
    step_once,
)
from fracldp.stochastic import SdeConfig, WienerDriver, batch_paths, simulate_sde
from fracldp.zoo import (
    PRESETS,
    build_model,
    default_initial_datum,
    default_model,
    fractional_model,
    linear_additive_model,
    scalar_linear_model,
    standard_grid,
    zoo,
)
from fracldp import lbfgs, rate
from fracldp.rate import (
    ContinuityCurve,
    LevelSet,
    OptimizerSettings,
    RateQuery,
    action,
    check_gradient,
    constrained_rate_minimum,
    g0_map,
    hausdorff_distance,
    level_set_continuity_experiment,
    minimize_rate,
    sample_level_set,
)

from gaussian_oracle import gaussian_oracle


@pytest.fixture(scope="module")
def setup():
    grid = standard_grid(points=32)
    model = build_model(grid=grid)
    x = grid.coords()[0]
    u0 = Field(grid, 0.4 * np.cos(np.pi * x / grid.half_length))
    tg = TimeGrid(0.3, 24)
    return model, u0, tg


# ---------------------------------------------------------------------------
# action functional


def test_action_matches_bruteforce_sum():
    tg = TimeGrid(0.5, 10)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((10, 3))
    v = Control(tg, vals)
    # independent arithmetic: plain Python loop over entries
    acc = 0.0
    for n in range(10):
        for k in range(3):
            acc += vals[n, k] ** 2
    assert action(v) == pytest.approx(0.5 * tg.dt * acc, rel=1e-14)


def test_action_quadratic_scaling():
    tg = TimeGrid(0.5, 8)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 2))
    base = action(Control(tg, vals))
    for lam in (0.5, 2.0, 3.0):
        assert action(Control(tg, lam * vals)) == pytest.approx(lam**2 * base, rel=1e-13)


def test_action_zero_iff_zero():
    tg = TimeGrid(0.2, 5)
    assert action(Control.zero(tg, 4)) == 0.0
    assert action(Control(tg, np.full((5, 4), 1e-8))) > 0.0


def test_g0_map_is_the_deterministic_solver(setup):
    model, u0, tg = setup
    v = Control(tg, 0.3 * np.ones((tg.n_steps, model.noise.n_modes)))
    from fracldp.skeleton import solve_skeleton

    assert np.array_equal(g0_map(model, u0, v, tg), solve_skeleton(model, u0, v, tg).trajectory)


# ---------------------------------------------------------------------------
# query validation


def test_query_requires_exactly_one_target(setup):
    model, u0, tg = setup
    with pytest.raises(DomainError):
        RateQuery(u0=u0)
    with pytest.raises(DomainError):
        RateQuery(u0=u0, target_path=np.zeros(3), target_endpoint=u0)


def test_query_rejects_bad_tau(setup):
    _, u0, _ = setup
    for tau in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(DomainError):
            RateQuery(u0=u0, target_endpoint=u0, tau_end=tau)


def test_settings_validation():
    # the ranges the config layer enforces: budgets are integers >= 1,
    # the residual tolerance finite and > 0
    for bad in (
        {"max_iters": 0},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_continuations": 0},
        {"max_continuations": 3.0},
        {"residual_tol": 0.0},
        {"residual_tol": np.nan},
        {"residual_tol": np.inf},
    ):
        with pytest.raises(DomainError):
            OptimizerSettings(**bad)


def test_target_path_must_start_at_u0(setup):
    model, u0, tg = setup
    target = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg).copy()
    target[0] += 1.0
    with pytest.raises(DomainError):
        minimize_rate(model, RateQuery(u0=u0, target_path=target), tg)


def test_target_path_shape_checked(setup):
    model, u0, tg = setup
    with pytest.raises(GridMismatchError):
        minimize_rate(model, RateQuery(u0=u0, target_path=np.zeros((3, 5))), tg)


def test_warm_start_shape_checked(setup):
    model, u0, tg = setup
    target = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    bad = Control(TimeGrid(tg.horizon, tg.n_steps // 2), np.zeros((tg.n_steps // 2, model.noise.n_modes)))
    with pytest.raises(GridMismatchError):
        minimize_rate(model, RateQuery(u0=u0, target_path=target), tg, warm_start=bad)


# ---------------------------------------------------------------------------
# gradients


def test_adjoint_gradient_matches_finite_differences(setup):
    model, u0, tg = setup
    err = check_gradient(model, u0, TimeGrid(0.2, 10), seed=3)
    assert err < 1e-5


def test_adjoint_gradient_fractional_model():
    grid = standard_grid(alpha=0.6, points=16)
    model = build_model(grid=grid)
    x = grid.coords()[0]
    u0 = Field(grid, 0.3 * np.cos(np.pi * x / grid.half_length))
    err = check_gradient(model, u0, TimeGrid(0.2, 8), seed=7)
    assert err < 1e-5


def _time_dependent_callback_model() -> ModelSpec:
    """Default data with F = (1 + sin t) u^3 and sigma2_k = (1 + t) u / (k + 1)
    as callbacks, so every factor of the costate recursion depends on t_n."""
    model = default_model(standard_grid(points=32))
    drift = replace(
        model.drift, form="custom-callback",
        callback=lambda t, x, u: (1.0 + np.sin(t)) * u**3,
        deriv_callback=lambda t, x, u: 3.0 * (1.0 + np.sin(t)) * u**2,
    )
    noise = replace(
        model.noise, form="custom-callback",
        sigma2_callback=lambda t, x, u, k: (1.0 + t) * u / (k + 1.0),
        sigma2_deriv_callback=lambda t, x, u, k: np.full_like(u, (1.0 + t) / (k + 1.0)),
    )
    return replace(model, drift=drift, noise=noise)


def _per_step_adjoint_grad(model, kernel, states, weights, dpen):
    """Reference: the costate sweep that rebuilt every factor inside the
    backward loop, one step and one mode at a time."""
    tg = kernel.timegrid
    dt = tg.dt
    ts = tg.times()
    noise = model.noise
    spatial = tuple(range(model.grid.dim))
    grad = np.empty((tg.n_steps, noise.n_modes))
    lam = dpen[tg.n_steps]
    for n in range(tg.n_steps - 1, -1, -1):
        u_n = states[n]
        e_lam = rate._apply_propagator(kernel, lam)
        sig = noise.mode_values(ts[n], u_n)
        grad[n] = dt * np.tensordot(sig, e_lam, axes=(tuple(a + 1 for a in spatial), spatial))
        f = np.asarray(model.drift.value(ts[n], kernel.coords, u_n), dtype=float)
        fprime = np.asarray(model.drift.deriv(ts[n], kernel.coords, u_n), dtype=float)
        jac = 1.0 - dt * fprime / (1.0 + dt * np.abs(f)) ** 2
        dsig = np.stack([
            noise.kappa.values * np.asarray(noise.sigma2_mode_deriv(ts[n], k, u_n))
            for k in range(noise.n_modes)
        ])
        jac = jac + np.tensordot(weights[n], dsig, axes=(0, 0))
        lam = jac * e_lam + dpen[n]
    return grad


_GRAD_MODELS = {
    "default": lambda: default_model(),
    "fractional": lambda: fractional_model(),
    "2d": lambda: build_model(GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.8)),
    "callbacks": _time_dependent_callback_model,
    # above DENSE_FACTOR_MAX_POINTS: the costate sweep takes the FFT pair
    "512": lambda: default_model(standard_grid(points=512)),
}


# the smooth distance kind of each quadratic penalty: endpoint and path
# queries of minimize_rate use "terminal" and "uniform"
_PENALTY_KINDS = {"endpoint": "terminal", "path": "uniform", "l2rms": "l2rms"}


@pytest.mark.parametrize("target", [*_PENALTY_KINDS, "hinge"])
@pytest.mark.parametrize("name", sorted(_GRAD_MODELS))
def test_batched_adjoint_matches_per_step_sweep(name, target):
    model = _GRAD_MODELS[name]()
    grid = model.grid
    tg = TimeGrid(1.0, 16)
    kernel = StepKernel.build(model, tg)
    u0 = default_initial_datum(grid)
    rng = np.random.default_rng(2)
    weights = tg.dt * 0.5 * rng.standard_normal((tg.n_steps, model.noise.n_modes))
    states, _ = rate._forward_states(model, kernel, u0, weights)
    ref_path = states + 0.1 * rng.standard_normal(states.shape)
    if target in _PENALTY_KINDS:
        penalty = rate._quadratic_penalty(grid, tg, _PENALTY_KINDS[target], ref_path)
    else:  # the "l2rms" hinge of constrained_rate_minimum, gap > 0
        penalty, _ = rate._hinge_penalty(grid, tg, ref_path, 100.0, "outside")
    _, dpen, _ = penalty(states, 1.5)
    assert dpen.any()
    got = rate._adjoint_grad(model, kernel, states, weights, dpen)
    ref = _per_step_adjoint_grad(model, kernel, states, weights, dpen)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


_DENSE_GRIDS = {
    "1d-8": GridSpec(dim=1, half_length=2.0, points_per_dim=8, alpha=1.0),
    "1d-128": standard_grid(),
    "1d-256": standard_grid(alpha=0.6, points=256),
    "2d-16": GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.8),
}


@pytest.mark.parametrize("name", sorted(_DENSE_GRIDS))
def test_propagator_matrix_matches_the_fft_pair(name):
    """The dense integrating factor is E up to roundoff, read-only, and built
    once per kernel."""
    grid = _DENSE_GRIDS[name]
    kernel = StepKernel.build(build_model(grid), TimeGrid(1.0, 16))
    matrix = kernel.propagator_matrix
    assert matrix.shape == (grid.n_total, grid.n_total)
    assert not matrix.flags.writeable
    assert kernel.propagator_matrix is matrix
    fields = np.random.default_rng(6).standard_normal((3, *grid.shape))
    want = rate._apply_propagator(kernel, fields).reshape(3, -1)
    got = fields.reshape(3, -1) @ matrix
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [
    standard_grid(points=512),
    GridSpec(dim=3, half_length=2.0, points_per_dim=8, alpha=0.8),
], ids=["1d-512", "3d-8"])
def test_propagator_matrix_absent_above_the_crossover(grid):
    assert grid.n_total > DENSE_FACTOR_MAX_POINTS
    assert StepKernel.build(build_model(grid), TimeGrid(1.0, 16)).propagator_matrix is None


@pytest.mark.parametrize("points", [32, 512])
def test_variational_value_matches_the_gaussian_oracle(points):
    """One L-BFGS-B run of the rate objective at the fixed penalty mu = c/2 is
    the Laplace variational value V of the linear-additive preset, which the
    discrete-exact oracle gives in closed form. 32 points take the dense
    costate sweep, 512 the FFT pair."""
    grid = standard_grid(alpha=0.75, points=points)
    model = linear_additive_model(grid)
    tg = TimeGrid(0.5, 64)
    u0 = default_initial_datum(grid)
    a, c = -0.5 * u0.values, 20.0
    value, _ = gaussian_oracle(model, u0, tg, a, c)
    kernel = StepKernel.build(model, tg)
    assert (kernel.propagator_matrix is None) == (points > DENSE_FACTOR_MAX_POINTS)
    penalty = rate._quadratic_penalty(grid, tg, "terminal", a)
    sweep = rate._Solver(model, kernel, u0, penalty).states_at
    sol = scipy.optimize.minimize(
        lambda z: rate._objective_and_grad(model, kernel, sweep, z, 0.5 * c, penalty),
        np.zeros(tg.n_steps * model.noise.n_modes), jac=True, method="L-BFGS-B",
        options={"gtol": rate._GRADIENT_TOL, "ftol": 1e-15},
    )
    assert sol.success
    assert sol.fun == pytest.approx(value, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("points", [32, 512])
def test_variational_value_matches_the_gaussian_oracle_with_the_labs_lbfgs(points):
    """The twin of the test above through the rate solver's own inner solve:
    one run at mu = c/2 from zero, held to the same bound."""
    grid = standard_grid(alpha=0.75, points=points)
    model = linear_additive_model(grid)
    tg = TimeGrid(0.5, 64)
    u0 = default_initial_datum(grid)
    a, c = -0.5 * u0.values, 20.0
    value, _ = gaussian_oracle(model, u0, tg, a, c)
    solver = rate._Solver(model, StepKernel.build(model, tg), u0, rate._quadratic_penalty(grid, tg, "terminal", a))
    assert solver.exact
    sol = solver.run(0.5 * c, np.zeros(tg.n_steps * model.noise.n_modes), 15_000)
    assert sol.success
    assert sol.fun == pytest.approx(value, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("name", ["default", "2d"])
def test_smooth_distances_match_independent_formulas(name):
    """On a forward_states trajectory each smooth kind's penalty residual is
    its textbook formula, and the hinge's distance is the "l2rms" residual."""
    model = _GRAD_MODELS[name]()
    grid = model.grid
    tg = TimeGrid(1.0, 16)
    kernel = StepKernel.build(model, tg)
    rng = np.random.default_rng(4)
    weights = tg.dt * 0.5 * rng.standard_normal((tg.n_steps, model.noise.n_modes))
    states, _ = rate._forward_states(model, kernel, default_initial_datum(grid), weights)
    ref = states + 0.1 * rng.standard_normal(states.shape)
    per_step = grid.cell_volume * ((states - ref) ** 2).reshape(tg.n_steps + 1, -1).sum(axis=1)
    expected = {
        "terminal": np.sqrt(per_step[-1]),
        "l2rms": np.sqrt(np.trapezoid(per_step, tg.times()) / tg.horizon),
        "uniform": np.sqrt(np.mean(per_step)),
    }
    residual = {kind: rate._quadratic_penalty(grid, tg, kind, ref)(states, 1.0)[2] for kind in expected}
    for kind, want in expected.items():
        assert residual[kind] == pytest.approx(want, rel=1e-14, abs=0.0)
    _, dist_sq = rate._hinge_penalty(grid, tg, ref, 1.0, "inside")
    assert np.sqrt(dist_sq(states)[0]) == residual["l2rms"]
    with pytest.raises(DomainError):
        distance_weights("sup", tg)


@pytest.mark.parametrize("preset", ["default", "fractional", "scalar-linear"])
@pytest.mark.parametrize("kind", ["terminal", "l2rms", "uniform"])
def test_batch_and_rate_distances_agree(preset, kind):
    """Member b of batch_paths(which=kind) and the rate penalty's residual on
    the simulate_sde trajectory of stream b are one distance: they agree to
    the roundoff by which the two trajectories themselves differ."""
    entry = PRESETS[preset]
    model = entry.build()
    grid = model.grid
    tg = TimeGrid(0.5, 32)
    u0 = default_initial_datum(grid) if entry.datum == "bump" else Field(grid, np.full(grid.shape, 0.5))
    ref = g0_map(model, u0, Control(tg, np.full((tg.n_steps, model.noise.n_modes), 0.3)), tg)
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    sums = batch_paths(model, u0, cfg, 3, base_seed=11, references=[ref], which=kind)
    penalty = rate._quadratic_penalty(grid, tg, kind, ref)
    for b, summary in enumerate(sums):
        path = simulate_sde(model, u0, cfg, WienerDriver(model.noise.n_modes, 11, b))
        assert summary.dists[0] == pytest.approx(penalty(path.trajectory, 1.0)[2], rel=1e-12, abs=0.0)


def test_forward_sweep_blow_up_names_the_first_non_finite_step():
    """The sweep checks its state stack once, after the loop; the step it
    names is the one a per-step check would have stopped at."""
    model = default_model(standard_grid(points=32))
    drift = replace(
        model.drift, form="custom-callback", deriv_callback=None,
        callback=lambda t, x, u: np.where(np.abs(u) > 3.0, np.inf, u**3 - u),
    )
    model = replace(model, drift=drift)
    tg = TimeGrid(1.0, 16)
    kernel = StepKernel.build(model, tg)
    u0 = default_initial_datum(model.grid)
    weights = tg.dt * 40.0 * np.ones((tg.n_steps, model.noise.n_modes))
    u, ref_step = u0.values, None
    for n, t in enumerate(tg.times()[:-1]):
        u, _ = step_once(kernel, t, u, weights[n])
        if not np.all(np.isfinite(u)):
            ref_step = n + 1
            break
    assert ref_step is not None and 1 < ref_step < tg.n_steps
    with pytest.raises(BlowUpError) as err:
        rate._forward_states(model, kernel, u0, weights)
    assert err.value.step == ref_step


def test_check_gradient_rejects_models_without_exact_gradients():
    """A drift without a derivative has no adjoint: the check raises rather
    than return a NaN that ``err > tol`` would let pass."""
    model = scalar_linear_model()
    fd = replace(model, drift=replace(model.drift, deriv_callback=None))
    u0 = Field(model.grid, np.full(model.grid.shape, 0.5))
    with pytest.raises(DomainError, match="exact gradients"):
        check_gradient(fd, u0, TimeGrid(1.0, 8))


def test_adjoint_gradient_time_dependent_callbacks():
    """Callbacks take a scalar t: each step's factors must use its own t_n."""
    model = _time_dependent_callback_model()
    u0 = default_initial_datum(model.grid)
    err = check_gradient(model, u0, TimeGrid(1.0, 8), seed=5)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# rate minimization


@pytest.mark.parametrize("solve", ["endpoint", "outside"])
def test_rate_solve_sweeps_once_per_objective_evaluation(setup, monkeypatch, solve):
    """Residuals, the outside-mode singular check and the first evaluation of
    each continuation read the states of sweeps already run: a solve sweeps at
    most once per objective evaluation plus the start, and never sweeps the
    weights of the previous sweep again. The outside solve is warm-started
    off the reference path, so its start is checked but not nudged."""
    model, u0, tg = setup
    assert rate._has_exact_gradients(model)
    counts = {"sweeps": 0, "repeats": 0, "evals": 0, "continuations": 0}
    last = [None]
    forward, minimize = rate._forward_states, lbfgs.minimize

    def counted_forward(model, kernel, u0, weights):
        counts["sweeps"] += 1
        counts["repeats"] += weights.tobytes() == last[0]
        last[0] = weights.tobytes()
        return forward(model, kernel, u0, weights)

    def counted_minimize(fun, x0, *args):
        def counted_fun(z):
            counts["evals"] += 1
            return fun(z)

        counts["continuations"] += 1
        return minimize(counted_fun, x0, *args)

    monkeypatch.setattr(rate, "_forward_states", counted_forward)
    monkeypatch.setattr(lbfgs, "minimize", counted_minimize)
    rng = np.random.default_rng(11)
    if solve == "endpoint":
        v_true = Control(tg, 0.6 * rng.standard_normal((tg.n_steps, model.noise.n_modes)))
        endpoint = Field(model.grid, g0_map(model, u0, v_true, tg)[-1])
        res = minimize_rate(model, RateQuery(u0=u0, target_endpoint=endpoint, tau_end=1e-3), tg)
    else:
        phi0 = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
        start = Control(tg, 0.05 * rng.standard_normal((tg.n_steps, model.noise.n_modes)))
        res = constrained_rate_minimum(model, u0, phi0, 0.05, "outside", tg, warm_start=start)
    assert res.converged and counts["continuations"] >= 2
    assert counts["sweeps"] <= counts["evals"] + 1
    assert counts["repeats"] == 0


def test_path_solve_sweeps_no_start_twice(setup, monkeypatch):
    """A path solve reads the zero start's residual before the least-squares
    start's, so when L-BFGS begins at the least-squares start the sweep memo
    already holds it: on the off-range path of ``test_rate_results_are_pinned``
    no weights are swept twice."""
    model, u0, tg = setup
    x = model.grid.coords()[0]
    v_true = Control(tg, 0.6 * np.random.default_rng(11).standard_normal((tg.n_steps, model.noise.n_modes)))
    path = g0_map(model, u0, v_true, tg)
    off = path + 0.05 * np.linspace(0.0, 1.0, tg.n_steps + 1)[:, None] * np.exp(-x**2)
    swept = []
    forward = rate._forward_states

    def recorded_forward(model, kernel, u0, weights):
        swept.append(weights.tobytes())
        return forward(model, kernel, u0, weights)

    monkeypatch.setattr(rate, "_forward_states", recorded_forward)
    res = minimize_rate(model, RateQuery(u0=u0, target_path=off), tg)
    assert res.iterations > 0
    assert len(swept) == len(set(swept))

def test_rate_solves_match_scipy_lbfgs_b_on_the_benchmark_panel(monkeypatch):
    """The endpoint solves of the rate-endpoint benchmark (default model,
    targets G0(u0, v)(T) of v = 4 * default_rng(j).standard_normal((64, 4)),
    j = 0..3) agree with the same solves run through scipy's L-BFGS-B on
    convergence and to 1e-6 in value, and take no more objective
    evaluations."""
    model = default_model()
    u0 = default_initial_datum(model.grid)
    tg = TimeGrid(0.25, 64)
    lab_minimize = lbfgs.minimize

    def scipy_minimize(fun, x0, max_iters, gtol):
        sol = scipy.optimize.minimize(
            fun, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": max_iters, "gtol": gtol, "ftol": 1e-15},
        )
        return lbfgs.LbfgsResult(sol.x, sol.fun, sol.nit, sol.success)

    def solve(minimize, query):
        evals = [0]

        def counted(fun, x0, *args):
            def counted_fun(z):
                evals[0] += 1
                return fun(z)

            return minimize(counted_fun, x0, *args)

        monkeypatch.setattr(lbfgs, "minimize", counted)
        return minimize_rate(model, query, tg), evals[0]

    for j in range(4):
        v = Control(tg, 4.0 * np.random.default_rng(j).standard_normal((tg.n_steps, model.noise.n_modes)))
        end = Field(model.grid, g0_map(model, u0, v, tg)[-1])
        query = RateQuery(u0=u0, target_endpoint=end, tau_end=1e-3)
        (lab, lab_evals), (ref, ref_evals) = solve(lab_minimize, query), solve(scipy_minimize, query)
        assert lab.converged == ref.converged, j
        assert lab.value == pytest.approx(ref.value, rel=1e-6, abs=0.0), j
        assert lab_evals <= ref_evals, j


def test_noise_free_path_has_zero_rate_all_zoo_models():
    tg = TimeGrid(0.3, 24)
    for name, builder in zoo().items():
        model = builder(standard_grid(points=32))
        x = model.grid.coords()[0]
        u0 = Field(model.grid, 0.3 * np.cos(np.pi * x / model.grid.half_length))
        target = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
        res = minimize_rate(model, RateQuery(u0=u0, target_path=target), tg)
        assert res.converged, name
        assert res.value <= 1e-6, name
        assert res.minimizer is not None
        assert np.max(np.abs(res.minimizer.values)) <= 1e-3, name


def test_planted_control_recovery_upper_bound(setup):
    model, u0, tg = setup
    rng = np.random.default_rng(11)
    v_true = Control(tg, 0.6 * rng.standard_normal((tg.n_steps, model.noise.n_modes)))
    target = g0_map(model, u0, v_true, tg)
    res = minimize_rate(model, RateQuery(u0=u0, target_path=target), tg)
    assert res.converged
    assert res.residual <= res.minimizer.timegrid.dt  # matched to solver precision
    assert res.value <= action(v_true) * (1 + 1e-3)
    assert res.value == pytest.approx(action(res.minimizer), rel=1e-12)


def test_planted_recovery_exact_on_fine_grid():
    # on the full-resolution grid the mode fields are linearly independent, so
    # the action-minimal exact match is the planted control itself
    model = build_model()
    x = model.grid.coords()[0]
    u0 = Field(model.grid, 0.4 * np.cos(np.pi * x / model.grid.half_length))
    tg = TimeGrid(0.3, 24)
    v_true = Control(tg, 0.6 * np.random.default_rng(5).standard_normal((tg.n_steps, model.noise.n_modes)))
    target = g0_map(model, u0, v_true, tg)
    res = minimize_rate(model, RateQuery(u0=u0, target_path=target), tg)
    assert res.converged
    assert res.value == pytest.approx(action(v_true), rel=1e-4)
    assert np.allclose(res.minimizer.values, v_true.values, atol=1e-4)


def test_infeasible_endpoint_returns_infinity(setup):
    model, u0, tg = setup
    x = model.grid.coords()[0]
    big = Field(model.grid, 50.0 * np.cos(np.pi * x / model.grid.half_length))
    res = minimize_rate(model, RateQuery(u0=u0, target_endpoint=big, tau_end=1e-3), tg)
    assert not res.converged
    assert res.value == np.inf
    assert res.minimizer is None
    assert res.residual > 1.0


def test_endpoint_value_below_path_value(setup):
    # matching only the endpoint can never cost more than matching the path
    model, u0, tg = setup
    rng = np.random.default_rng(11)
    v_true = Control(tg, 0.6 * rng.standard_normal((tg.n_steps, model.noise.n_modes)))
    target = g0_map(model, u0, v_true, tg)
    res_path = minimize_rate(model, RateQuery(u0=u0, target_path=target), tg)
    res_end = minimize_rate(
        model, RateQuery(u0=u0, target_endpoint=Field(model.grid, target[-1]), tau_end=1e-3), tg
    )
    assert res_end.converged
    assert res_end.value <= res_path.value + 1e-9


def test_endpoint_tolerance_relaxation_cannot_increase_value(setup):
    model, u0, tg = setup
    rng = np.random.default_rng(11)
    v_true = Control(tg, 0.6 * rng.standard_normal((tg.n_steps, model.noise.n_modes)))
    endpoint = Field(model.grid, g0_map(model, u0, v_true, tg)[-1])
    tight = minimize_rate(model, RateQuery(u0=u0, target_endpoint=endpoint, tau_end=1e-3), tg)
    assert tight.converged
    # warm-started looser run: the tight minimizer is feasible, so the seeded
    # best guarantees the looser value is no larger
    loose = minimize_rate(
        model,
        RateQuery(u0=u0, target_endpoint=endpoint, tau_end=1e-2),
        tg,
        warm_start=tight.minimizer,
    )
    assert loose.converged
    assert loose.value <= tight.value + 1e-12


def _result_digest(res):
    """sha256 of a RateResult's value, residual, converged, iterations, penalty
    (as float hex) and minimizer bytes, or of a float alone."""
    h = hashlib.sha256()
    fields = (res,) if isinstance(res, float) else (
        res.value, res.residual, res.converged, res.iterations, res.penalty)
    for x in fields:
        h.update(float(x).hex().encode())
    if not isinstance(res, float) and res.minimizer is not None:
        h.update(res.minimizer.values.tobytes())
    return h.hexdigest()[:16]


def test_rate_results_are_pinned(setup):
    """Every branch of the rate solver returns the same bits: endpoint, warm
    started and infeasible endpoint solves, planted and off-range paths,
    outside-mode radii from the reference path (nudged) and warm started
    off it, an inside ball, exact and forward-difference gradients on the
    scalar model, and check_gradient."""
    model, u0, tg = setup
    grid, n_modes = model.grid, model.noise.n_modes
    x = grid.coords()[0]
    v_true = Control(tg, 0.6 * np.random.default_rng(11).standard_normal((tg.n_steps, n_modes)))
    path = g0_map(model, u0, v_true, tg)
    phi0 = g0_map(model, u0, Control.zero(tg, n_modes), tg)
    off = path + 0.05 * np.linspace(0.0, 1.0, tg.n_steps + 1)[:, None] * np.exp(-x**2)
    big = Field(grid, 50.0 * np.cos(np.pi * x / grid.half_length))
    start = Control(tg, 0.05 * np.random.default_rng(11).standard_normal((tg.n_steps, n_modes)))

    def endpoint(m, u, end, t, tau=1e-3, warm=None):
        return minimize_rate(m, RateQuery(u0=u, target_endpoint=end, tau_end=tau), t, warm_start=warm)

    got = {"endpoint": endpoint(model, u0, Field(grid, path[-1]), tg)}
    got["warm"] = endpoint(model, u0, Field(grid, path[-1]), tg, 1e-2, got["endpoint"].minimizer)
    got["infeasible"] = endpoint(model, u0, big, tg)
    got["planted"] = minimize_rate(model, RateQuery(u0=u0, target_path=path), tg)
    got["off_range"] = minimize_rate(model, RateQuery(u0=u0, target_path=off), tg)
    for r in (0.02, 0.05, 0.1):
        got[f"outside_{r}"] = constrained_rate_minimum(model, u0, phi0, r, "outside", tg)
    got["outside_warm"] = constrained_rate_minimum(model, u0, phi0, 0.05, "outside", tg, warm_start=start)
    got["inside"] = constrained_rate_minimum(model, u0, path, 1e-3, "inside", tg)
    exact = scalar_linear_model()
    stg = TimeGrid(1.0, 8)
    su0 = Field(exact.grid, np.full(exact.grid.shape, 0.5))
    sphi0 = g0_map(exact, su0, Control.zero(stg, 1), stg)
    for name, m in (("exact", exact), ("fd", replace(exact, drift=replace(exact.drift, deriv_callback=None)))):
        got[f"scalar_{name}_endpoint"] = endpoint(m, su0, Field(exact.grid, np.full(exact.grid.shape, 0.6)), stg)
        got[f"scalar_{name}_outside"] = constrained_rate_minimum(m, su0, sphi0, 0.2, "outside", stg)
    got["check_gradient"] = check_gradient(model, u0, tg)
    assert {name: _result_digest(res) for name, res in got.items()} == {
        "endpoint": "e90daec3db6c6b5d",
        "warm": "6b8bf16048a31288",
        "infeasible": "d430703c2ee87e46",
        "planted": "37772a3daf671e06",
        "off_range": "9a359e35263cc299",
        "outside_0.02": "63d322a315c216be",
        "outside_0.05": "3f686835acfc0ad8",
        "outside_0.1": "ccd55fea714193e2",
        "outside_warm": "ae10533f1d31744e",
        "inside": "e2fb0ba536f9e88a",
        "scalar_exact_endpoint": "db5d6e8ebb8a6637",
        "scalar_exact_outside": "fa6c324579c5dbdd",
        "scalar_fd_endpoint": "7832577585ee6cd4",
        "scalar_fd_outside": "bdc8dd38762c320b",
        "check_gradient": "c3250ab1cfcb0ebc",
    }


# ---------------------------------------------------------------------------
# level sets


def test_level_set_zero_level_is_singleton(setup):
    model, u0, tg = setup
    ls = sample_level_set(model, u0, 0.0, 10, tg, seed=2)
    assert len(ls) == 1
    assert action(ls.controls[0]) == 0.0


def test_level_set_members_respect_budget(setup):
    model, u0, tg = setup
    s = 0.7
    ls = sample_level_set(model, u0, s, 20, tg, seed=3)
    assert len(ls) == 20
    for c in ls.controls:
        assert action(c) <= s + 1e-9


def test_level_set_rejects_over_budget_member(setup):
    model, u0, tg = setup
    fat = Control(tg, 10.0 * np.ones((tg.n_steps, model.noise.n_modes)))
    traj = g0_map(model, u0, fat, tg)
    with pytest.raises(DomainError):
        LevelSet(u0=u0, s=0.1, controls=[fat], trajectories=[traj], timegrid=tg)


def test_level_set_negative_level_rejected(setup):
    model, u0, tg = setup
    for s in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError, match="s:"):
            sample_level_set(model, u0, s, 4, tg)
    for n_samples in (0, 2.5, True):
        with pytest.raises(DomainError, match="n_samples"):
            sample_level_set(model, u0, 0.5, n_samples, tg)


def test_level_set_reproducible(setup):
    model, u0, tg = setup
    a = sample_level_set(model, u0, 0.5, 6, tg, seed=9)
    b = sample_level_set(model, u0, 0.5, 6, tg, seed=9)
    for ca, cb in zip(a.controls, b.controls):
        assert np.array_equal(ca.values, cb.values)


def test_level_set_diameter_grows_with_level(setup):
    model, u0, tg = setup
    p = model.drift.p
    ls0 = sample_level_set(model, u0, 0.0, 1, tg)
    h_small = hausdorff_distance(ls0, sample_level_set(model, u0, 0.5, 16, tg, seed=2), p)
    h_large = hausdorff_distance(ls0, sample_level_set(model, u0, 2.0, 16, tg, seed=2), p)
    assert 0.0 < h_small < h_large


# ---------------------------------------------------------------------------
# Hausdorff distance


def _singleton_set(model, u0, tg, traj):
    zero = Control.zero(tg, model.noise.n_modes)
    return LevelSet(u0=u0, s=0.0, controls=[zero], trajectories=[traj], timegrid=tg)


def test_hausdorff_zero_for_identical_sets(setup):
    model, u0, tg = setup
    ls = sample_level_set(model, u0, 0.4, 8, tg, seed=5)
    assert hausdorff_distance(ls, ls, model.drift.p) == 0.0


def test_hausdorff_symmetric(setup):
    model, u0, tg = setup
    a = sample_level_set(model, u0, 0.4, 8, tg, seed=5)
    b = sample_level_set(model, u0, 1.2, 8, tg, seed=6)
    p = model.drift.p
    assert hausdorff_distance(a, b, p) == hausdorff_distance(b, a, p)


def test_hausdorff_constant_shift_closed_form(setup):
    # singleton sets whose trajectories differ by a constant-in-space-and-time
    # field c: combined distance = ||c|| + sqrt(T)||c|| + T^(1/p)||c||_p exactly
    # (the H^alpha seminorm of a constant vanishes)
    model, u0, tg = setup
    grid = model.grid
    p = model.drift.p
    traj = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    c = 0.37
    shifted = traj + c
    a = _singleton_set(model, u0, tg, traj)
    b = _singleton_set(model, u0, tg, shifted)
    vol = 2.0 * grid.half_length
    l2 = c * np.sqrt(vol)
    lp = c * vol ** (1.0 / p)
    expected = l2 + np.sqrt(tg.horizon) * l2 + tg.horizon ** (1.0 / p) * lp
    assert hausdorff_distance(a, b, p) == pytest.approx(expected, rel=1e-12)


def test_hausdorff_matches_per_pair_path_distance(setup):
    """Subtracting per-trajectory transforms stands in for transforming each
    pairwise difference: the distance agrees with the per-pair path_distance
    within roundoff."""
    model, u0, tg = setup
    p = model.drift.p
    a = sample_level_set(model, u0, 0.4, 6, tg, seed=5)
    b = sample_level_set(model, u0, 1.2, 5, tg, seed=6)
    per_pair = np.array([
        [path_distance(model.grid, tg, ta, tb, p) for tb in b.trajectories]
        for ta in a.trajectories
    ])
    expected = max(per_pair.min(axis=1).max(), per_pair.min(axis=0).max())
    assert hausdorff_distance(a, b, p) == pytest.approx(expected, rel=1e-12)


def test_hausdorff_timegrid_mismatch(setup):
    model, u0, tg = setup
    other = TimeGrid(tg.horizon, tg.n_steps * 2)
    a = sample_level_set(model, u0, 0.2, 4, tg, seed=1)
    b = sample_level_set(model, u0, 0.2, 4, other, seed=1)
    with pytest.raises(GridMismatchError):
        hausdorff_distance(a, b, model.drift.p)


# ---------------------------------------------------------------------------
# continuity of level sets in the initial datum


def test_level_set_continuity_passes(setup):
    model, u0, tg = setup
    x = model.grid.coords()[0]
    pert = Field(model.grid, np.cos(2 * np.pi * x / model.grid.half_length))
    curve = level_set_continuity_experiment(
        model, u0, pert, [0.4, 0.2, 0.1, 0.0], s=0.5, tg=tg, n_samples=12, seed=4
    )
    assert isinstance(curve, ContinuityCurve)
    assert curve.passed
    assert curve.distances[-1] == 0.0  # paired sampling: delta = 0 is exact
    assert all(curve.distances[i + 1] <= curve.distances[i] for i in range(3))
    assert curve.c1 > 0.0
    rows = list(curve.as_rows())
    assert len(rows) == 4 and set(rows[0]) == {"delta", "hausdorff", "bound_shape"}


def test_level_set_continuity_bound_shape(setup):
    model, u0, tg = setup
    x = model.grid.coords()[0]
    pert = Field(model.grid, np.cos(2 * np.pi * x / model.grid.half_length))
    curve = level_set_continuity_experiment(
        model, u0, pert, [0.3, 0.15], s=0.5, tg=tg, n_samples=8, seed=4
    )
    for h, shape in zip(curve.distances, curve.bound_values):
        assert h <= curve.c1 * shape + 1e-12


def test_level_set_continuity_rejects_bad_deltas(setup):
    model, u0, tg = setup
    pert = Field(model.grid, np.ones(model.grid.shape))
    with pytest.raises(DomainError):
        level_set_continuity_experiment(model, u0, pert, [0.1, 0.2], s=0.5, tg=tg)
    with pytest.raises(DomainError):
        level_set_continuity_experiment(model, u0, pert, [0.2, -0.1], s=0.5, tg=tg)


# ---------------------------------------------------------------------------
# ball-constrained minima


def test_constrained_inside_large_ball_is_free(setup):
    model, u0, tg = setup
    phi0 = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    res = constrained_rate_minimum(model, u0, phi0, 5.0, "inside", tg)
    assert res.converged
    assert res.value == 0.0


def test_constrained_outside_ball_costs_action(setup):
    model, u0, tg = setup
    phi0 = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    res = constrained_rate_minimum(model, u0, phi0, 0.05, "outside", tg)
    assert res.converged
    assert res.value > 0.0
    assert res.minimizer is not None


def test_constrained_outside_monotone_in_radius(setup):
    model, u0, tg = setup
    phi0 = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    far = constrained_rate_minimum(model, u0, phi0, 0.05, "outside", tg)
    # escaping a smaller ball warm-started from the larger escape can only be cheaper
    near = constrained_rate_minimum(
        model, u0, phi0, 0.02, "outside", tg, warm_start=far.minimizer
    )
    assert near.converged
    assert near.value <= far.value + 1e-12


def test_constrained_validation(setup):
    model, u0, tg = setup
    phi0 = g0_map(model, u0, Control.zero(tg, model.noise.n_modes), tg)
    with pytest.raises(DomainError):
        constrained_rate_minimum(model, u0, phi0, 0.1, "within", tg)
    with pytest.raises(DomainError):
        constrained_rate_minimum(model, u0, phi0, -0.1, "inside", tg)
    for mode in ("inside", "outside"):
        with pytest.raises(DomainError):
            constrained_rate_minimum(model, u0, phi0, np.nan, mode, tg)
    with pytest.raises(DomainError):  # the complement of an infinite ball is empty
        constrained_rate_minimum(model, u0, phi0, np.inf, "outside", tg)
    whole = constrained_rate_minimum(model, u0, phi0, np.inf, "inside", tg)
    assert whole.converged and whole.value == 0.0
    with pytest.raises(GridMismatchError):
        constrained_rate_minimum(model, u0, phi0[:-1], 0.1, "inside", tg)


# ---------------------------------------------------------------------------
# finite-difference fallback


def test_finite_difference_branch_matches_exact_gradients():
    """A drift without a derivative callback drops the optimizer to numeric
    gradients; both branches must land on the same minima."""
    exact = scalar_linear_model()
    fd = replace(exact, drift=replace(exact.drift, deriv_callback=None))
    assert rate._has_exact_gradients(exact) and not rate._has_exact_gradients(fd)
    grid = exact.grid
    tg = TimeGrid(1.0, 8)
    u0 = Field(grid, np.full(grid.shape, 0.5))
    endpoint = Field(grid, np.full(grid.shape, 0.6))
    phi0 = g0_map(exact, u0, Control.zero(tg, exact.noise.n_modes), tg)
    query = RateQuery(u0=u0, target_endpoint=endpoint, tau_end=1e-3)
    for solve in (
        lambda m: minimize_rate(m, query, tg),
        lambda m: constrained_rate_minimum(m, u0, phi0, 0.2, "outside", tg),
    ):
        a, b = solve(exact), solve(fd)
        assert a.converged and b.converged
        assert abs(b.value - a.value) <= 1e-6 * abs(a.value)
