"""Release gate: one test per shipped guarantee, each printing a verdict line.

Every test here restates a user-facing promise of the package at its stated
tolerance and runtime budget, using only public API plus closed-form oracles.
Run with ``-s`` to see the verdict lines as they happen; they also appear in
captured output on failure.
"""

import hashlib
import json
import math
import time

import numpy as np

from fracldp import zoo
from fracldp.cli import main as cli_main
from fracldp.grids import (
    Field,
    GridSpec,
    array_l2_sq,
    frac_laplacian,
    fractional_symbol,
    gagliardo_seminorm,
    halpha_seminorm,
)
from fracldp.ldp import (
    LdpExperimentPlan,
    estimate_ball_probability,
    fw_bounds_experiment,
    uniform_convergence_experiment,
)
from fracldp.models import SamplingPlan, validate_drift, validate_noise
from fracldp.rate import (
    RateQuery,
    action,
    g0_map,
    level_set_continuity_experiment,
    minimize_rate,
)
from fracldp.skeleton import (
    Control,
    TimeGrid,
    apriori_bound_report,
    lipschitz_experiment,
    solve_skeleton,
    tail_mass_scan,
    weak_continuity_experiment,
)
from fracldp.stochastic import (
    SdeConfig,
    WienerDriver,
    simulate_sde,
)


def verdict(num, label, ok, started, budget=None):
    elapsed = time.monotonic() - started
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {word} ({elapsed:.1f} s)")
    assert ok, f"criterion {num} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_spectral_eigenvalues():
    t0 = time.monotonic()
    ok = True
    for alpha in (0.25, 0.5, 0.75, 1.0):
        g = GridSpec(1, 4.0, 128, alpha)
        sym = fractional_symbol(g)
        x = g.axis()
        for k in (1, 2, 5):
            mode = Field(g, np.sin(k * np.pi * x / g.half_length))
            lam = (k * np.pi / g.half_length) ** (2 * alpha)
            out = frac_laplacian(mode, sym)
            rel = np.max(np.abs(out.values - lam * mode.values)) / lam
            ok = ok and rel < 1e-10
    verdict(1, "pure modes are eigenfunctions to 1e-10", ok, t0, budget=1.0)


def test_criterion_02_seminorm_equivalence():
    t0 = time.monotonic()
    errs = []
    for n in (256, 512, 1024):
        g = GridSpec(1, 4.0, n, 0.5)
        x = g.axis()
        vals = np.where(np.abs(x) < 1.0,
                        np.exp(-1.0 / np.maximum(1e-300, 1.0 - x**2)), 0.0)
        f = Field(g, vals)
        errs.append(abs(gagliardo_seminorm(f) - halpha_seminorm(f, fractional_symbol(g)))
                    / halpha_seminorm(f, fractional_symbol(g)))
    ok = errs[0] > errs[1] > errs[2] and errs[-1] <= 0.10
    verdict(2, "double-integral vs spectral seminorm agree within 10%", ok, t0,
            budget=30.0)


def test_criterion_03_structural_condition_suite():
    t0 = time.monotonic()
    plan = SamplingPlan(n_samples=100000, seed=123)
    ok = True
    for _, factory in zoo.zoo().items():
        model = factory()
        rd = validate_drift(model.drift, plan, grid=model.grid)
        rn = validate_noise(model.noise, model.drift.p, plan)
        ok = ok and rd.passed and rn.passed
        for check in rd.checks + rn.checks:
            ok = ok and check.margin >= -1e-9
            if check.name.startswith(("drift-", "noise-")):
                ok = ok and check.samples >= 100000
    verdict(3, "drift and noise conditions hold across the zoo", ok, t0,
            budget=60.0)


def test_criterion_04_skeleton_convergence_and_linear_flow():
    t0 = time.monotonic()
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    errs = []
    for n in (256, 512, 1024):
        v = Control(TimeGrid(1.0, n), np.full((n, m.noise.n_modes), 0.3))
        vref = Control(TimeGrid(1.0, 4 * n), np.full((4 * n, m.noise.n_modes), 0.3))
        sol = solve_skeleton(m, u0, v)
        ref = solve_skeleton(m, u0, vref)
        errs.append(float(np.sqrt(
            array_l2_sq(m.grid, sol.trajectory[-1] - ref.trajectory[-1]))))
    ok = errs[0] / errs[1] >= 1.8 and errs[1] / errs[2] >= 1.8

    # drift-free model: the integrating factor reproduces the semigroup exactly
    ml = zoo.linear_additive_model()
    gl = ml.grid
    u0l = Field(gl, np.cos(np.pi * gl.axis() / gl.half_length)
                + 0.3 * np.cos(3 * np.pi * gl.axis() / gl.half_length))
    tg = TimeGrid(0.5, 64)
    sol = solve_skeleton(ml, u0l, Control.zero(tg, ml.noise.n_modes))
    mult = fractional_symbol(gl).multipliers
    exact = np.real(np.fft.ifft(np.exp(-mult * tg.horizon) * np.fft.fft(u0l.values)))
    ok = ok and np.max(np.abs(sol.trajectory[-1] - exact)) < 1e-10
    verdict(4, "first-order step halving and exact linear flow", ok, t0)


def test_criterion_05_two_solution_stability():
    t0 = time.monotonic()
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    pert = zoo.default_initial_datum(m.grid, amplitude=1.0, radius=0.8)
    tg = TimeGrid(0.25, 64)
    v = Control(tg, np.full((tg.n_steps, m.noise.n_modes), 0.3))
    ratios = []
    ok = True
    for d in (0.2, 0.1, 0.05):
        u0b = Field(m.grid, u0.values + d * pert.values)
        rep = lipschitz_experiment(m, u0, u0b, v, v)
        ratios.append(rep.ratio)
        for uu in (u0, u0b):
            sol = solve_skeleton(m, uu, v)
            ok = ok and apriori_bound_report(m, sol, uu, v).passed
    ok = ok and max(ratios) / min(ratios) <= 10.0
    verdict(5, "output/input distance ratio stable, energy bound holds", ok, t0,
            budget=60.0)


def test_criterion_06_exterior_mass():
    t0 = time.monotonic()
    m = zoo.default_model()  # domain half-length 4 = 8 x datum support 0.5
    u0 = zoo.default_initial_datum(m.grid, amplitude=1.0, radius=0.5)
    tg = TimeGrid(0.25, 64)
    sol = solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes))
    L = m.grid.half_length
    curve = tail_mass_scan(sol, [L / 4.0, 3.0 * L / 4.0])
    ok = curve.combined[1] <= 1e-6 * curve.combined[0]
    verdict(6, "mass beyond 3L/4 under 1e-6 of mass beyond L/4", ok, t0,
            budget=30.0)


def test_criterion_07_oscillatory_perturbations_wash_out():
    t0 = time.monotonic()
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(0.25, 128)
    v = Control(tg, np.full((tg.n_steps, m.noise.n_modes), 0.3))
    freqs = [1, 2, 4, 8, 16, 32]
    osc = weak_continuity_experiment(m, u0, v, 0, freqs, amplitude=1.0,
                                     perturbation="oscillatory")
    const = weak_continuity_experiment(m, u0, v, 0, freqs, amplitude=1.0,
                                       perturbation="constant")
    ok = (osc.errors[-1] <= 0.5 * osc.errors[0]
          and const.errors[-1] > 0.5 * const.errors[0])
    verdict(7, "fast oscillations decay 2x, constant shift does not", ok, t0,
            budget=120.0)


def test_criterion_08_sde_oracles():
    t0 = time.monotonic()
    # (a) spatially-constant model against a hand-rolled scalar recursion
    m = zoo.constant_reduction_model()
    g = m.grid
    u0 = Field(g, np.full(g.shape, 0.8))
    tg = TimeGrid(0.5, 64)
    eps = 0.7
    coords = tuple(g.coords())
    ts = tg.times()
    ok = True
    for stream in range(6):
        drv = WienerDriver(m.noise.n_modes, seed=21, stream_id=stream)
        path = simulate_sde(m, u0, SdeConfig(epsilon=eps, timegrid=tg), drv)
        dW = drv.increments(tg)
        c = 0.8
        for n in range(tg.n_steps):
            u = np.full(g.shape, c)
            f = float(np.asarray(m.drift.value(ts[n], coords, u)).flat[0])
            gv = float(np.asarray(m.forcing.value(ts[n])).flat[0])
            sig = float(np.asarray(m.noise.mode_values(ts[n], u)[0]).flat[0])
            c = c + tg.dt * (gv - f / (1 + tg.dt * abs(f))) \
                + math.sqrt(eps) * sig * dW[n, 0]
            ok = ok and abs(c - path.trajectory[n + 1].flat[0]) < 1e-10

    # (b) drift-free linear model: exact mean of the probe observable
    ml = zoo.linear_additive_model()
    gl = ml.grid
    u0l = Field(gl, np.cos(np.pi * gl.axis() / gl.half_length))
    tgl = TimeGrid(0.5, 50)
    from fracldp.stochastic import batch_paths
    sums = batch_paths(ml, u0l, SdeConfig(epsilon=1.0, timegrid=tgl), 10000,
                       base_seed=7, probe=u0l)
    vals = np.array([s.probe_inner for s in sums])
    lam = (np.pi / gl.half_length) ** (2 * gl.alpha)
    exact = np.exp(-lam * tgl.horizon) * array_l2_sq(gl, u0l.values)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    ok = ok and abs(vals.mean() - exact) < 3 * se
    verdict(8, "scalar recursion to 1e-10, linear mean within 3 SE", ok, t0,
            budget=300.0)


def test_criterion_09_noise_to_skeleton_convergence():
    t0 = time.monotonic()
    m = zoo.default_model()
    tg = TimeGrid(0.25, 64)
    data = [zoo.default_initial_datum(m.grid, amplitude=a, radius=0.5)
            for a in (1.0, 0.7, 0.4)]
    controls = [Control(tg, np.full((tg.n_steps, m.noise.n_modes), amp))
                for amp in (0.5, 0.3, -0.2)]
    table = uniform_convergence_experiment(m, data, controls, [1.0, 0.3, 0.03],
                                           eta=0.04, n_paths=400, base_seed=0)
    rows = list(table.as_rows())
    ok = (rows[-1]["p_hat"] < rows[0]["p_hat"]
          and rows[-1]["ci_hi"] < rows[0]["ci_lo"])
    verdict(9, "worst-cell deviation rate CI-separated small at eps 0.03", ok,
            t0, budget=600.0)


def test_criterion_10_rate_recovery_across_zoo():
    t0 = time.monotonic()
    tg = TimeGrid(0.25, 64)
    ok = True
    for _, factory in zoo.zoo().items():
        model = factory()
        u0 = zoo.default_initial_datum(model.grid)
        v = Control(tg, np.full((tg.n_steps, model.noise.n_modes), 0.3))
        planted = minimize_rate(
            model, RateQuery(u0=u0, target_path=g0_map(model, u0, v)), tg)
        free = minimize_rate(
            model,
            RateQuery(u0=u0, target_path=g0_map(
                model, u0, Control.zero(tg, model.noise.n_modes))),
            tg)
        ok = ok and planted.converged and planted.value <= action(v) * (1 + 1e-3)
        ok = ok and free.converged and free.value <= 1e-6
    verdict(10, "planted controls recovered, free paths cost nothing", ok, t0,
            budget=300.0)


def test_criterion_11_level_set_sensitivity():
    t0 = time.monotonic()
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    pert = zoo.default_initial_datum(m.grid, amplitude=1.0, radius=0.8)
    tg = TimeGrid(0.25, 64)
    curve = level_set_continuity_experiment(m, u0, pert, [0.4, 0.2, 0.1, 0.0],
                                            s=0.5, tg=tg, n_samples=12, seed=3)
    d = curve.distances
    ok = (curve.passed and d[-1] == 0.0
          and all(b < a for a, b in zip(d, d[1:])))
    verdict(11, "paired set distance shrinks monotonically to exact zero", ok,
            t0, budget=300.0)


def test_criterion_12_probability_trend_on_scalar_model():
    t0 = time.monotonic()
    m = zoo.scalar_linear_model()  # decay rate 1, noise amplitude 0.3
    g = m.grid
    tg = TimeGrid(1.0, 64)
    u0 = Field(g, np.full(g.shape, 0.5))

    # terminal-ball probabilities against the closed-form quadratic cost
    phi = np.zeros((tg.n_steps + 1,) + g.shape)
    mu0 = 0.5 * math.exp(-1.0)
    half = 0.3 / 2.0
    near = half if mu0 > half else mu0
    i_ball = (near - mu0) ** 2 / (0.3**2 * (1 - math.exp(-2.0)))
    errs = []
    for eps in (0.5, 0.2, 0.1, 0.05):
        p_hat, _ = estimate_ball_probability(
            m, u0, phi, delta=0.3, epsilon=eps, n_paths=10000,
            base_seed=42, timegrid=tg, which="terminal")
        errs.append(abs(eps * math.log(p_hat) + i_ball))
    ok = errs[-1] < errs[0]

    # both bound probes at tightened slack
    v = Control(tg, np.full((tg.n_steps, m.noise.n_modes), 0.9))
    res = minimize_rate(m, RateQuery(u0=u0, target_path=g0_map(m, u0, v)), tg)
    plan = LdpExperimentPlan(
        model=m, initial_data=(u0,), eps_list=(0.5, 0.2, 0.1, 0.05),
        delta=0.3, timegrid=tg, s_levels=(0.2,), n_paths=10000, slack=0.25)
    rep = fw_bounds_experiment(plan, [v], [[res]], base_seed=0,
                               n_level_samples=16)
    ok = ok and rep.verdict == "pass"
    verdict(12, "scaled log-probabilities approach the cost, probes pass", ok,
            t0, budget=600.0)


def test_criterion_13_byte_identical_reruns(tmp_path):
    t0 = time.monotonic()
    scalar = {"preset": "scalar-linear"}
    tiny = {
        "simulate": (scalar, {"n_paths": 30}),
        "skeleton": ({"preset": "default"}, {"control_amplitude": 0.3}),
        "rate-min": (scalar, {"target": "planted", "control_amplitude": 0.4}),
        "level-set": (scalar, {"level": 0.5, "n_samples": 4}),
        "mc-ldp": (scalar, {"eps_list": [0.5, 0.2], "n_paths": 100,
                            "control_amplitudes": [0.9], "s_levels": [0.2],
                            "n_level_samples": 4}),
        "validate-model": ({"preset": "pure-power"},
                           {"n_samples": 1000, "n_fields": 6}),
        "tail-scan": ({"preset": "default"}, {}),
        "cvs-sweep": (scalar, {"eps_list": [1.0, 0.3], "n_paths": 60,
                               "control_amplitudes": [0.3]}),
    }
    ok = True
    for name, (model, experiment) in tiny.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(
            {"experiment": {"name": name, **experiment}, "model": model}),
            encoding="utf-8")
        digests = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli_main([name, "--config", str(cfg_path),
                             "--out", str(out), "--seed", "3"])
            ok = ok and code == 0
            payload = (out / "records.ndjson").read_bytes()
            digests.append(hashlib.sha256(payload).hexdigest())
        ok = ok and digests[0] == digests[1]
    verdict(13, "identical config and seed give identical bytes", ok, t0)
