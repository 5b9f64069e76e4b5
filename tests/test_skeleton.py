"""Tests for the deterministic controlled solver: exactness oracles,
convergence order, energy bounds, and the path-space experiments."""

import dataclasses

import numpy as np
import pytest

from fracldp import zoo
from fracldp.grids import (
    DomainError,
    Field,
    GridMismatchError,
    GridSpec,
    array_l2_sq,
    array_lp_pow,
    array_seminorm_sq,
    fractional_symbol,
)
from fracldp.models import DriftSpec
from fracldp.skeleton import (
    BlowUpError,
    Control,
    StepKernel,
    TimeGrid,
    WeakLimitCurve,
    apriori_bound_report,
    lipschitz_experiment,
    path_distance,
    path_norm_components,
    solve_skeleton,
    step_once,
    tail_mass_scan,
    weak_continuity_experiment,
)


# ---------------------------------------------------------------------------
# time grid and control plumbing


def test_timegrid_basics():
    tg = TimeGrid(horizon=2.0, n_steps=8)
    assert tg.dt == pytest.approx(0.25)
    assert len(tg.times()) == 9
    assert tg.times()[-1] == pytest.approx(2.0)
    assert len(tg.midpoints()) == 8


def test_timegrid_validation():
    with pytest.raises(DomainError):
        TimeGrid(horizon=-1.0, n_steps=8)
    with pytest.raises(DomainError):
        TimeGrid(horizon=1.0, n_steps=1)


def test_control_norms_and_zero():
    tg = TimeGrid(1.0, 4)
    v = Control(tg, np.ones((4, 2)))
    # sum |v_n|^2 dt = 4 steps * 2 modes * 0.25
    assert v.l2_sq() == pytest.approx(2.0)
    assert v.l2_time_norm() == pytest.approx(np.sqrt(2.0))
    z = Control.zero(tg, 3)
    assert z.l2_sq() == 0.0 and z.n_modes == 3


def test_control_validation():
    tg = TimeGrid(1.0, 4)
    with pytest.raises(GridMismatchError):
        Control(tg, np.ones((5, 2)))
    with pytest.raises(DomainError):
        Control(tg, np.full((4, 2), np.nan))


def test_control_values_read_only():
    v = Control(TimeGrid(1.0, 4), np.ones((4, 2)))
    with pytest.raises(ValueError):
        v.values[0, 0] = 2.0


# ---------------------------------------------------------------------------
# step kernel against its complex-FFT, float-pow reference


def _reference_step(model, tg, t, u, w):
    """The IMEX step on full complex FFTs with float powers, written out."""
    grid, noise, dt = model.grid, model.noise, tg.dt
    axes = tuple(range(-grid.dim, 0))
    f = u**3 - u
    phi = np.abs(u) ** (noise.q / 2.0)
    profile = np.sign(u) * phi / (1.0 + noise.saturation * phi)
    scale = (w @ np.sqrt(noise.coeff_gamma)).reshape(-1, *([1] * grid.dim))
    sigma_w = np.tensordot(w, noise.sigma1, axes=([-1], [0])) + noise.kappa.values * profile * scale
    u_star = u + dt * (model.forcing.value(t) - f / (1.0 + dt * np.abs(f))) + sigma_w
    hat = np.fft.fftn(u_star, axes=axes) * np.exp(-fractional_symbol(grid).multipliers * dt)
    return np.fft.ifftn(hat, axes=axes).real, hat


@pytest.mark.parametrize("dim,points", [(1, 32), (2, 16)])
def test_step_once_matches_complex_fft_reference(dim, points):
    grid = GridSpec(dim=dim, half_length=2.0, points_per_dim=points, alpha=0.8)
    model = zoo.build_model(grid)  # cubic drift, saturated noise, bump kappa
    tg = TimeGrid(horizon=0.5, n_steps=8)
    kernel = StepKernel.build(model, tg)
    rng = np.random.default_rng(dim)
    u = rng.standard_normal((5, *grid.shape))
    w = 0.3 * rng.standard_normal((5, model.noise.n_modes))
    u_next, hat = step_once(kernel, 0.125, u, w)
    ref_u, ref_hat = _reference_step(model, tg, 0.125, u, w)
    assert np.max(np.abs(u_next - ref_u)) <= 1e-12 * np.max(np.abs(ref_u))
    half = ref_hat[..., : points // 2 + 1]
    assert hat.shape == half.shape
    assert np.max(np.abs(hat - half)) <= 1e-12 * np.max(np.abs(half))


@pytest.mark.parametrize("kind", ["scalar", "profile"])
def test_step_once_broadcast_drift_matches_full_shape_bit_for_bit(kind):
    """A drift callback may return a scalar or an array that broadcasts to the
    batch; the step then equals the same drift returned at full shape."""
    grid = zoo.standard_grid(points=32)
    model = zoo.build_model(grid)
    x = grid.coords()[0]
    short = {"scalar": lambda t, c, u: 0.3, "profile": lambda t, c, u: 0.3 * np.cos(x)}[kind]

    def full(t, c, u):
        return np.broadcast_to(short(t, c, u), u.shape).copy()

    tg = TimeGrid(horizon=0.5, n_steps=8)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((5, *grid.shape))
    w = 0.3 * rng.standard_normal((5, model.noise.n_modes))
    (u_short, hat_short), (u_full, hat_full) = [
        step_once(StepKernel.build(dataclasses.replace(
            model, drift=dataclasses.replace(model.drift, form="custom-callback", callback=cb)), tg), 0.125, u, w)
        for cb in (short, full)
    ]
    assert np.array_equal(u_short, u_full) and np.array_equal(hat_short, hat_full)


def test_cubic_drift_matches_float_pow():
    # both forms round a few times, so compare against the size of the terms
    drift = DriftSpec()
    u = np.concatenate([np.linspace(-3.0, 3.0, 2001), [1.0 + 1e-9, 3.0 ** -0.5, 1e-12, 1e3]])
    assert np.all(np.abs(drift.value(0.0, None, u) - (u**3 - u)) <= 1e-14 * (np.abs(u) ** 3 + np.abs(u)))
    assert np.all(np.abs(drift.deriv(0.0, None, u) - (3.0 * u**2 - 1.0)) <= 1e-14 * (3.0 * u**2 + 1.0))


# ---------------------------------------------------------------------------
# integrator oracles


def test_pure_diffusion_is_exact_per_step():
    # zero drift + zero control: the scheme applies the exact semigroup, so a
    # single Fourier mode decays with machine-precision accuracy at ANY dt
    m = zoo.linear_additive_model()
    g = m.grid
    u0 = Field(g, np.sin(np.pi * g.axis() / g.half_length))
    tg = TimeGrid(horizon=0.7, n_steps=37)
    sol = solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes))
    lam = (np.pi / g.half_length) ** (2 * g.alpha)
    exact = np.exp(-lam * tg.horizon) * u0.values
    assert np.max(np.abs(sol.trajectory[-1] - exact)) < 1e-12


def test_constant_field_reduction_matches_scalar_recursion():
    # constant data + constant-kappa noise keep the field spatially constant,
    # and its value follows the scalar tamed recursion exactly
    m = zoo.constant_reduction_model()
    g = m.grid
    u0 = Field(g, np.full(g.shape, 0.8))
    tg = TimeGrid(0.5, 40)
    rng = np.random.default_rng(5)
    v = Control(tg, rng.normal(size=(40, m.noise.n_modes)) * 0.5)
    sol = solve_skeleton(m, u0, v)
    assert np.max(np.abs(sol.trajectory - sol.trajectory[:, :1])) == 0.0

    c = 0.8
    dt = tg.dt
    ts = tg.times()
    coords = tuple(g.coords())
    const = lambda val: np.full(g.shape, val)
    for n in range(tg.n_steps):
        f = float(np.asarray(m.drift.value(ts[n], coords, const(c))).flat[0])
        gval = float(np.asarray(m.forcing.value(ts[n])).flat[0])
        sig = float(np.asarray(m.noise.mode_values(ts[n], const(c))[0]).flat[0])
        c = c + dt * (gval - f / (1 + dt * abs(f))) + sig * dt * v.values[n, 0]
    assert sol.trajectory[-1].flat[0] == pytest.approx(c, abs=1e-13)


def test_first_order_convergence_under_step_halving():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    errs = []
    for n in (64, 128):
        sol = solve_skeleton(m, u0, Control.zero(TimeGrid(1.0, n), m.noise.n_modes))
        ref = solve_skeleton(m, u0, Control.zero(TimeGrid(1.0, 4 * n), m.noise.n_modes))
        errs.append(
            float(np.sqrt(array_l2_sq(m.grid, sol.trajectory[-1] - ref.trajectory[-1])))
        )
    assert errs[0] / errs[1] >= 1.8  # first order: halving dt halves the error


def test_scalar_linear_model_decays_like_exp():
    m = zoo.scalar_linear_model()
    u0 = Field(m.grid, np.full(m.grid.shape, 1.0))
    sol = solve_skeleton(m, u0, Control.zero(TimeGrid(1.0, 400), m.noise.n_modes))
    assert sol.trajectory[-1].flat[0] == pytest.approx(np.exp(-1.0), abs=5e-4)


def test_energy_dissipation_without_input():
    # pure-power drift, no forcing, no control: ||u(t)|| must decrease
    m = zoo.build_model(drift_form="pure_power", forcing_form="zero")
    u0 = zoo.default_initial_datum(m.grid)
    sol = solve_skeleton(m, u0, Control.zero(TimeGrid(1.0, 128), m.noise.n_modes))
    assert np.all(np.diff(sol.l2_sq) <= 1e-14)


def test_blow_up_guard_raises_with_step_index():
    m = zoo.default_model()
    big = Field(m.grid, np.full(m.grid.shape, 900.0))
    with pytest.raises(BlowUpError) as err:
        solve_skeleton(m, big, Control.zero(TimeGrid(1.0, 16), m.noise.n_modes), guard=500.0)
    assert err.value.step == 1
    assert err.value.magnitude > 500.0


def _per_step_solve(model, u0, control, guard):
    """The solver as a per-step loop: step, guard check, then the three
    diagnostics of each state, one state at a time."""
    tg = control.timegrid
    kernel = StepKernel.build(model, tg)
    grid, p = model.grid, model.drift.p
    u = u0.values.copy()
    hat = kernel.rfft(u)
    ts = tg.times()
    rows = []
    for n in range(tg.n_steps + 1):
        if n:
            u, hat = step_once(kernel, ts[n - 1], u, tg.dt * control.values[n - 1])
            mag = float(np.max(np.abs(u)))
            if not np.isfinite(mag) or mag > guard:
                raise BlowUpError(n, mag)
        rows.append((u, array_l2_sq(grid, u), array_seminorm_sq(grid, kernel.half_multipliers, hat),
                     array_lp_pow(grid, u, p)))
    return [np.array(col) for col in zip(*rows)]


_SOLVE_MODELS = {
    "default-128": lambda: zoo.default_model(),
    "scalar-linear-8": lambda: zoo.scalar_linear_model(),
    "2d-16": lambda: zoo.build_model(GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.8)),
    "pure-power": lambda: zoo.pure_power_model(),
}


@pytest.mark.parametrize("name", sorted(_SOLVE_MODELS))
def test_dense_sweep_matches_per_step_loop_bit_for_bit(name):
    """The trajectory and all three diagnostics, reduced over the stored
    stacks after one sweep, equal the per-step loop's values bit for bit, and
    a low guard stops both at the same step with the same magnitude."""
    model = _SOLVE_MODELS[name]()
    u0 = zoo.default_initial_datum(model.grid)
    tg = TimeGrid(0.5, 32)
    rng = np.random.default_rng(5)
    control = Control(tg, rng.standard_normal((tg.n_steps, model.noise.n_modes)))
    sol = solve_skeleton(model, u0, control)
    got = [sol.trajectory, sol.l2_sq, sol.halpha_semi_sq, sol.lp_p]
    for a, b in zip(got, _per_step_solve(model, u0, control, 1.0e6)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    push = Control(tg, np.full((tg.n_steps, model.noise.n_modes), 200.0))
    guard = 3.0 * float(np.max(np.abs(u0.values)))
    with pytest.raises(BlowUpError) as ref:
        _per_step_solve(model, u0, push, guard)
    assert 1 < ref.value.step < tg.n_steps
    with pytest.raises(BlowUpError) as err:
        solve_skeleton(model, u0, push, guard=guard)
    assert (err.value.step, err.value.magnitude) == (ref.value.step, ref.value.magnitude)


def test_solver_grid_mismatches():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(1.0, 16)
    with pytest.raises(GridMismatchError):
        solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes + 1))
    other = zoo.standard_grid(points=64)
    with pytest.raises(GridMismatchError):
        solve_skeleton(m, zoo.default_initial_datum(other), Control.zero(tg, m.noise.n_modes))


def test_diagnostics_track_trajectory():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    sol = solve_skeleton(m, u0, Control.zero(TimeGrid(0.5, 32), m.noise.n_modes))
    n = 17
    assert sol.l2_sq[n] == pytest.approx(array_l2_sq(m.grid, sol.trajectory[n]), rel=1e-12)
    rows = list(sol.diagnostics_rows())
    assert len(rows) == 33
    assert rows[n][1] == pytest.approx(np.sqrt(sol.l2_sq[n]), rel=1e-12)


# ---------------------------------------------------------------------------
# path norms


def test_path_norm_components_constant_trajectory():
    # u(t) = u0 for all t: closed forms for all three path-norm components
    m = zoo.default_model()
    g = m.grid
    u0 = zoo.default_initial_datum(g)
    tg = TimeGrid(2.0, 16)
    traj = np.broadcast_to(u0.values, (tg.n_steps + 1, *g.shape)).copy()
    c_h, l2_v, lp_lp = path_norm_components(g, tg, traj, p=4.0)
    from fracldp.grids import fractional_symbol, halpha_seminorm, l2_norm, lp_norm

    l2 = l2_norm(u0)
    semi = halpha_seminorm(u0, fractional_symbol(g))
    assert c_h == pytest.approx(l2, rel=1e-12)
    assert l2_v == pytest.approx(np.sqrt(2.0 * (l2**2 + semi**2)), rel=1e-12)
    assert lp_lp == pytest.approx((2.0 * lp_norm(u0, 4.0) ** 4) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("name", sorted(zoo.PRESETS))
def test_solution_path_norms_match_trajectory_definition(name):
    """The components reduced from a solution's stored series agree with the
    definition applied to its trajectory, on every preset and at several
    control amplitudes."""
    m = zoo.PRESETS[name].build()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(0.25, 64)
    for amp in (0.0, 0.3, -1.0):
        sol = solve_skeleton(m, u0, Control(tg, np.full((tg.n_steps, m.noise.n_modes), amp)))
        want = path_norm_components(m.grid, tg, sol.trajectory, m.drift.p)
        assert sol.path_norm_components() == pytest.approx(want, rel=1e-12)


def test_path_distance_selectors():
    m = zoo.default_model()
    g = m.grid
    tg = TimeGrid(1.0, 8)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, *g.shape))
    b = rng.normal(size=(9, *g.shape))
    parts = path_norm_components(g, tg, a - b, 4.0)
    combined = path_distance(g, tg, a, b, 4.0)
    assert combined == pytest.approx(sum(parts), rel=1e-12)
    assert path_distance(g, tg, a, a, 4.0) == 0.0
    with pytest.raises(GridMismatchError):
        path_distance(g, tg, a, b[:5], 4.0)


# ---------------------------------------------------------------------------
# a-priori bound


def test_apriori_bound_holds_for_default_model():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(1.0, 128)
    rng = np.random.default_rng(4)
    v = Control(tg, rng.normal(size=(tg.n_steps, m.noise.n_modes)) * 0.5)
    sol = solve_skeleton(m, u0, v)
    rep = apriori_bound_report(m, sol, u0, v)
    assert rep.passed
    assert rep.observed <= rep.bound
    assert rep.observed >= rep.sup_l2_sq * (1 - 1e-12)
    d = dataclasses.asdict(rep)
    assert set(d) == {
        "observed", "bound", "passed", "sup_l2_sq", "v_integral",
        "lp_integral", "radius", "c1",
    }


def test_apriori_bound_scales_with_control_radius():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(0.5, 64)
    small = Control.zero(tg, m.noise.n_modes)
    rep_small = apriori_bound_report(m, solve_skeleton(m, u0, small), u0, small)
    big = Control(tg, np.full((64, m.noise.n_modes), 1.0))
    rep_big = apriori_bound_report(m, solve_skeleton(m, u0, big), u0, big)
    assert rep_big.radius > rep_small.radius
    assert rep_big.bound > rep_small.bound
    assert rep_big.passed and rep_small.passed


# ---------------------------------------------------------------------------
# experiments


def test_lipschitz_experiment_finite_and_sentinel():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(1.0, 64)
    rng = np.random.default_rng(11)
    v = Control(tg, rng.normal(size=(64, m.noise.n_modes)) * 0.4)
    u0b = Field(m.grid, u0.values * 1.01)
    vb = Control(tg, v.values * 1.02)
    rep = lipschitz_experiment(m, u0, u0b, v, vb)
    assert rep.d_in > 0 and rep.d_out > 0 and np.isfinite(rep.ratio)
    same = lipschitz_experiment(m, u0, u0, v, v)
    assert same.d_in == 0.0 and same.d_out == 0.0 and np.isnan(same.ratio)


def test_tail_mass_decreases_with_radius():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    sol = solve_skeleton(m, u0, Control.zero(TimeGrid(1.0, 64), m.noise.n_modes))
    curve = tail_mass_scan(sol, [0.5, 1.5, 2.5, 3.5])
    assert all(
        curve.combined[i + 1] <= curve.combined[i] + 1e-15
        for i in range(len(curve.combined) - 1)
    )
    rows = list(curve.as_rows())
    assert rows[0]["radius"] == 0.5 and "combined" in rows[0]
    with pytest.raises(DomainError):
        tail_mass_scan(sol, [m.grid.half_length])


def test_weak_continuity_oscillatory_decays_constant_does_not():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(1.0, 128)
    rng = np.random.default_rng(11)
    v = Control(tg, rng.normal(size=(128, m.noise.n_modes)) * 0.4)
    osc = weak_continuity_experiment(m, u0, v, mode_index=0, freqs=[1, 2, 4, 8, 16, 32], amplitude=2.0)
    assert osc.passed
    assert osc.errors[-1] < 0.5 * osc.errors[0]
    const = weak_continuity_experiment(
        m, u0, v, mode_index=0, freqs=[1, 2, 4, 8], amplitude=2.0, perturbation="constant"
    )
    assert not const.passed  # a fixed shift is weak-limit-zero in no sense


def test_weak_continuity_guards():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    v = Control.zero(TimeGrid(1.0, 32), m.noise.n_modes)
    with pytest.raises(DomainError):
        weak_continuity_experiment(m, u0, v, mode_index=0, freqs=[20])  # >= n_steps/2
    with pytest.raises(DomainError):
        weak_continuity_experiment(m, u0, v, mode_index=99, freqs=[1])
    with pytest.raises(DomainError):
        weak_continuity_experiment(m, u0, v, mode_index=0, freqs=[1], perturbation="ramp")
    with pytest.raises(DomainError):
        weak_continuity_experiment(m, u0, v, mode_index=0, freqs=[])


def test_weak_limit_curve_reads_curves_shorter_than_its_tail():
    # the monotone tail is the last three points, or all of a shorter curve
    assert WeakLimitCurve(freqs=[1, 2], errors=[1.0, 0.1], perturbation="oscillatory").passed
    assert not WeakLimitCurve(freqs=[1, 2], errors=[1.0, 0.9], perturbation="oscillatory").passed
    assert not WeakLimitCurve(freqs=[1], errors=[1.0], perturbation="oscillatory").passed
