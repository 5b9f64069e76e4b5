"""Tests for the noise-driven integrators: reproducibility contracts,
reduction oracles, Gaussian statistics, and the Monte Carlo experiments."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from fracldp import stochastic, zoo
from fracldp.grids import DomainError, Field, GridMismatchError, GridSpec, array_l2_sq
from fracldp.ldp import uniform_convergence_experiment
from fracldp.models import ForcingSpec, ModelSpec
from fracldp.skeleton import (
    BlowUpError,
    Control,
    StepKernel,
    TimeGrid,
    forward_states,
    solve_skeleton,
    step_once,
)
from fracldp.stochastic import (
    InsufficientSamplesError,
    PathSummary,
    SdeConfig,
    WienerDriver,
    _mode_weights,
    _row_dot,
    _stream_keys,
    batch_distances,
    batch_paths,
    simulate_sde,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# drivers


def test_driver_validation():
    for n_modes in (0, 2.5, True):
        with pytest.raises(DomainError):
            WienerDriver(n_modes=n_modes, seed=1)
    for stream_id in (-1, np.nan):
        with pytest.raises(DomainError):
            WienerDriver(n_modes=2, seed=1, stream_id=stream_id)


def test_driver_rejects_a_bad_seed(default_setup):
    for seed in (-1, 1.5, np.nan, True):
        with pytest.raises(DomainError, match="seed"):
            WienerDriver(n_modes=1, seed=seed)
    # checked when the batch's driver is built, before any key is hashed
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    for run in (batch_paths, batch_distances):
        with pytest.raises(DomainError, match="seed"):
            run(m, u0, cfg, 2, base_seed=-1)


def _seed_sequence_keys(seed, first, n):
    return np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(first + b,)).generate_state(2, np.uint64)
        for b in range(n)
    ])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 5, 2**130 + 7])
@pytest.mark.parametrize("first, n", [
    (0, 50),  # one-word spawn keys
    (2**32 - 25, 50),  # crosses into two-word spawn keys
    (9, 1),
    (2**32 + 3, 1),
    (2**64 - 3, 6),  # crosses into three words: one SeedSequence per stream
])
def test_stream_keys_equal_seed_sequence(seed, first, n):
    """The vectorized hash reproduces SeedSequence's keys bit for bit, for
    entropy of one to five words and spawn keys of one to three words."""
    keys = _stream_keys(seed, first, n)
    assert keys.dtype == np.uint64 and keys.shape == (n, 2)
    assert np.array_equal(keys, _seed_sequence_keys(seed, first, n))


def test_driver_reproducible_and_stream_distinct():
    tg = TimeGrid(1.0, 32)
    a = WienerDriver(3, seed=9, stream_id=0)
    b = WienerDriver(3, seed=9, stream_id=1)
    assert np.array_equal(a.increments(tg), a.increments(tg))
    assert not np.array_equal(a.increments(tg), b.increments(tg))
    # (seed, stream_id) selects the stream: a fresh driver on b's stream draws b's increments
    assert np.array_equal(WienerDriver(3, seed=9, stream_id=1).increments(tg), b.increments(tg))
    assert not np.array_equal(WienerDriver(3, seed=10, stream_id=1).increments(tg), b.increments(tg))


def test_increment_statistics():
    # 1e5 draws: per-mode mean within 4 sd/sqrt(n) of 0, variance within 5% of dt
    tg = TimeGrid(2.5, 25000)
    incs = WienerDriver(4, seed=123).increments(tg)
    n = incs.size
    assert n == 100000
    sd = np.sqrt(tg.dt)
    assert abs(incs.mean()) < 4 * sd / np.sqrt(n)
    assert abs(incs.var() - tg.dt) < 0.05 * tg.dt


def test_sde_config_validation():
    tg = TimeGrid(1.0, 8)
    with pytest.raises(DomainError):
        SdeConfig(epsilon=0.0, timegrid=tg)
    with pytest.raises(DomainError):
        SdeConfig(epsilon=1.5, timegrid=tg)
    with pytest.raises(DomainError):
        SdeConfig(epsilon=0.5, timegrid=tg, linf_guard=0.0)


# ---------------------------------------------------------------------------
# single-path contracts


@pytest.fixture(scope="module")
def default_setup():
    m = zoo.default_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(0.5, 50)
    return m, u0, tg


@pytest.mark.parametrize("seed", [3, 2024])
def test_batch_weights_equal_per_path_driver_increments(default_setup, seed):
    """The batch draws through one reused generator, re-keyed per stream; each
    path's weights must still equal a fresh driver's increments bit for bit."""
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.3, timegrid=tg)
    driver = WienerDriver(m.noise.n_modes, seed, stream_id=17)
    weights = _mode_weights(m, u0, cfg, driver, 6, None)
    for b in range(6):
        expected = np.sqrt(cfg.epsilon) * WienerDriver(m.noise.n_modes, seed, 17 + b).increments(tg)
        assert np.array_equal(weights[b], expected)


def test_simulate_sde_bit_reproducible(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    drv = WienerDriver(m.noise.n_modes, seed=42, stream_id=3)
    p1 = simulate_sde(m, u0, cfg, drv)
    p2 = simulate_sde(m, u0, cfg, drv)
    assert np.array_equal(p1.trajectory, p2.trajectory)


def test_shifted_with_zero_control_equals_unshifted(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    drv = WienerDriver(m.noise.n_modes, seed=42, stream_id=0)
    plain = simulate_sde(m, u0, cfg, drv)
    shifted = simulate_sde(m, u0, cfg, drv, shift=Control.zero(tg, m.noise.n_modes))
    assert np.array_equal(plain.trajectory, shifted.trajectory)


def test_vanishing_noise_recovers_skeleton(default_setup):
    m, u0, tg = default_setup
    rng = np.random.default_rng(0)
    v = Control(tg, rng.normal(size=(tg.n_steps, m.noise.n_modes)) * 0.4)
    cfg = SdeConfig(epsilon=1e-30, timegrid=tg)
    drv = WienerDriver(m.noise.n_modes, seed=5, stream_id=0)
    path = simulate_sde(m, u0, cfg, drv, shift=v)
    sk = solve_skeleton(m, u0, v)
    assert np.max(np.abs(path.trajectory - sk.trajectory)) < 1e-12
    plain = simulate_sde(m, u0, cfg, drv)
    sk0 = solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes))
    assert np.max(np.abs(plain.trajectory - sk0.trajectory)) < 1e-12


def test_constant_reduction_matches_scalar_em_oracle():
    m = zoo.constant_reduction_model()
    g = m.grid
    u0 = Field(g, np.full(g.shape, 0.8))
    tg = TimeGrid(0.5, 64)
    eps = 0.7
    drv = WienerDriver(m.noise.n_modes, seed=21, stream_id=4)
    path = simulate_sde(m, u0, SdeConfig(epsilon=eps, timegrid=tg), drv)
    assert np.max(np.abs(path.trajectory - path.trajectory[:, :1])) == 0.0

    dW = drv.increments(tg)
    c = 0.8
    dt = tg.dt
    ts = tg.times()
    coords = tuple(g.coords())
    const = lambda val: np.full(g.shape, val)
    for n in range(tg.n_steps):
        f = float(np.asarray(m.drift.value(ts[n], coords, const(c))).flat[0])
        gv = float(np.asarray(m.forcing.value(ts[n])).flat[0])
        sig = float(np.asarray(m.noise.mode_values(ts[n], const(c))[0]).flat[0])
        c = c + dt * (gv - f / (1 + dt * abs(f))) + np.sqrt(eps) * sig * dW[n, 0]
        assert abs(c - path.trajectory[n + 1].flat[0]) < 1e-10


def test_simulate_input_validation(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    with pytest.raises(GridMismatchError):
        simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes + 2, seed=0))
    other = zoo.standard_grid(points=64)
    with pytest.raises(GridMismatchError):
        simulate_sde(m, zoo.default_initial_datum(other), cfg, WienerDriver(m.noise.n_modes, 0))
    with pytest.raises(GridMismatchError):
        simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 0),
                     shift=Control.zero(TimeGrid(0.5, 10), m.noise.n_modes))


def test_batch_rejections_come_before_any_noise_is_drawn(default_setup, monkeypatch):
    """Both readers of the batched loop reject bad arguments before the loop
    draws a single weight."""
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    ref = np.zeros((tg.n_steps + 1, *m.grid.shape))

    def no_draws(*args):
        raise AssertionError("noise was drawn before the arguments were checked")

    monkeypatch.setattr(stochastic, "_mode_weights", no_draws)
    for n_paths in (0, 2.5, np.nan, True):
        for run in (batch_paths, batch_distances):
            with pytest.raises(DomainError, match="n_paths"):
                run(m, u0, cfg, n_paths, base_seed=0)
    with pytest.raises(GridMismatchError, match="probe"):
        batch_paths(m, u0, cfg, 2, base_seed=0,
                    probe=zoo.default_initial_datum(zoo.standard_grid(points=64)))
    for radius in (-0.1, np.nan):
        with pytest.raises(DomainError, match="event_radius"):
            batch_distances(m, u0, cfg, 2, base_seed=0, references=[ref], event_radius=radius)
    with pytest.raises(DomainError, match="sup"):
        batch_distances(m, u0, cfg, 2, base_seed=0, references=[ref], which="sup")
    with pytest.raises(GridMismatchError, match="reference"):
        batch_distances(m, u0, cfg, 2, base_seed=0, references=[ref[:-1]])


# ---------------------------------------------------------------------------
# batches


def test_batch_matches_single_paths(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    sums = batch_paths(m, u0, cfg, 6, base_seed=42)
    for b in (0, 3, 5):
        single = simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 42, b))
        assert sums[b].stream_id == b
        assert sums[b].terminal_l2 == pytest.approx(
            float(np.sqrt(single.l2_sq[-1])), rel=1e-12
        )
        assert sums[b].sup_l2 == pytest.approx(
            float(np.sqrt(np.max(single.l2_sq))), rel=1e-12
        )


def test_batch_bit_reproducible(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    a = batch_paths(m, u0, cfg, 5, base_seed=7)
    b = batch_paths(m, u0, cfg, 5, base_seed=7)
    assert all(x.terminal_l2 == y.terminal_l2 for x, y in zip(a, b))
    assert all(x.energy == y.energy for x, y in zip(a, b))


def test_batch_summaries_do_not_depend_on_batch_size(default_setup):
    """A stream's summary is bit-identical in any batch of two or more paths."""
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)

    def records(batch):
        sums = []
        for start in range(0, 14, batch):
            sums += batch_paths(m, u0, cfg, batch, base_seed=5, stream_offset=start, probe=u0)
        return [(s.as_record(), s.probe_inner) for s in sums[:14]]

    assert records(2) == records(7) == records(64)


@pytest.mark.parametrize("which, radius", [
    ("combined", np.inf), ("combined", 0.06), ("combined", 0.0),
    ("l2rms", np.inf), ("l2rms", 0.06), ("terminal", np.inf), ("uniform", 0.06),
])
def test_batch_distances_do_not_depend_on_batch_size(default_setup, which, radius):
    """Every kind of distance, decided early or not, is bit-identical in any
    batch of two or more paths."""
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    refs = [solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes)).trajectory,
            solve_skeleton(m, u0, Control(tg, np.full((tg.n_steps, m.noise.n_modes), 0.6))).trajectory]

    def distances(batch):
        rows = []
        for start in range(0, 14, batch):
            dists, _ = batch_distances(m, u0, cfg, batch, base_seed=5, stream_offset=start,
                                       references=refs, which=which, event_radius=radius)
            rows.append(dists)
        return np.vstack(rows)[:14]

    full = distances(2)
    assert np.array_equal(full, distances(7))
    assert np.array_equal(full, distances(64))
    if which == "combined" and 0 < radius < np.inf:
        # some pairs decided early, some kept: the indicators at the radius are still exact
        assert np.isinf(full).any() and np.isfinite(full).any()
        plain = np.vstack([
            batch_distances(m, u0, cfg, 7, base_seed=5, stream_offset=s, references=refs)[0]
            for s in (0, 7)
        ])
        assert np.array_equal(full < radius, plain < radius)
        assert np.array_equal(full[np.isfinite(full)], plain[np.isfinite(full)])


@pytest.mark.parametrize("guard, n_blown", [(1.002, 12), (1.01, 6), (1.02, 3)])
def test_both_readers_see_the_same_loop(guard, n_blown):
    """``batch_paths`` and ``batch_distances`` read one batched loop: a live
    path's terminal distance to the zero reference is its ``terminal_l2`` bit
    for bit, and both readers see the same paths blow up."""
    m = zoo.fractional_model()
    u0 = zoo.default_initial_datum(m.grid)
    tg = TimeGrid(0.25, 32)
    cfg = SdeConfig(epsilon=1.0, timegrid=tg, linf_guard=guard)
    sums = batch_paths(m, u0, cfg, 64, base_seed=3, stream_offset=5)
    zero = np.zeros((tg.n_steps + 1, *m.grid.shape))
    dists, blown = batch_distances(m, u0, cfg, 64, base_seed=3, stream_offset=5,
                                   references=[zero], which="terminal")
    live = np.array([s.blow_step is None for s in sums])
    assert blown == np.count_nonzero(~live) == n_blown
    assert np.array_equal(dists[live, 0], [s.terminal_l2 for s in sums if s.blow_step is None])
    assert np.all(np.isinf(dists[~live, 0]))


@pytest.mark.parametrize("n", [1, 5, 8, 10, 16, 65, 128])
def test_row_dot_does_not_depend_on_rows_or_alignment(n):
    """A row's ``_row_dot`` is the same bits alone, in any batch, at any
    offset in memory, aligned to 8 bytes or not."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
    b = rng.standard_normal((9, n))
    w = rng.random(n)
    ref = [_row_dot(a[i:i + 1], b[i:i + 1]) for i in range(9)]
    ref_w = [_row_dot(a[i:i + 1], b[i:i + 1], w) for i in range(9)]

    def placed(x, offset, byte_shift):
        """A copy of ``x`` that starts ``offset`` floats plus ``byte_shift`` bytes into a buffer."""
        buf = np.zeros(8 * (x.size + offset + 1) + byte_shift, dtype=np.uint8)
        start = 8 * offset + byte_shift
        view = buf[start:start + 8 * x.size].view(np.float64).reshape(x.shape)
        view[...] = x
        return view

    for offset in (0, 1, 3):
        for byte_shift in (0, 4):
            for lo, hi in ((0, 9), (2, 7), (4, 5)):
                pa, pb = placed(a[lo:hi], offset, byte_shift), placed(b[lo:hi], offset + 1, 0)
                assert pa.flags.aligned == (byte_shift == 0)
                got, got_w = _row_dot(pa, pb), _row_dot(pa, pb, w)
                for i in range(lo, hi):
                    assert got[i - lo] == ref[i][0]
                    assert got_w[i - lo] == ref_w[i][0]


def _pair_setup(case):
    if case == "default":
        m = zoo.default_model()
        return m, zoo.default_initial_datum(m.grid), TimeGrid(0.5, 50)
    grid = GridSpec(dim=2 if case == "2-d" else 1, half_length=4.0, points_per_dim=16, alpha=0.75)
    m = zoo.build_model(grid=grid) if case == "2-d" else zoo.build_model(
        grid=grid, drift_form="pure_power", p=3.0)
    return m, zoo.default_initial_datum(grid), TimeGrid(0.25, 20)


@pytest.mark.parametrize("case", ["default", "2-d", "pure-power-p3"])
def test_combined_pair_distances_drift_by_roundoff(case):
    """The combined pair norms reduce by ``_row_dot``, not the ``np.sum`` of
    ``skeleton.path_distance``. Against the post-hoc distance of the matching
    single path the largest relative difference measured on the default case
    (the ``default_setup`` of this file) is 8.3e-15, as it was with ``np.sum``
    reductions: the batch step's own rounding against the single-path sweep
    dominates. The 2-D grid (interleaved spectral rows) reads 5.5e-15 and
    p = 3 (the |diff|^(p/2) root) 3.5e-16. The bound leaves room for other
    hosts' libm and SIMD widths."""
    from fracldp.skeleton import path_distance

    m, u0, tg = _pair_setup(case)
    refs = [solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes)).trajectory,
            solve_skeleton(m, u0, Control(tg, np.full((tg.n_steps, m.noise.n_modes), 0.6))).trajectory]
    worst = 0.0
    for eps in (0.1, 0.5):
        cfg = SdeConfig(epsilon=eps, timegrid=tg)
        dists, _ = batch_distances(m, u0, cfg, 6, base_seed=42, references=refs)
        for b in range(6):
            path = simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 42, b)).trajectory
            for j, ref in enumerate(refs):
                exact = path_distance(m.grid, tg, path, ref, m.drift.p)
                worst = max(worst, abs(dists[b, j] - exact) / exact)
    assert worst <= 1e-13


def test_batch_distance_accumulation_matches_post_hoc(default_setup):
    from fracldp.skeleton import path_distance

    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    ref = solve_skeleton(m, u0, Control.zero(tg, m.noise.n_modes)).trajectory
    singles = [simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 42, b)).trajectory for b in range(3)]
    post_hoc = {
        "combined": lambda u: path_distance(m.grid, tg, u, ref, m.drift.p),
        "l2rms": lambda u: np.sqrt(np.trapezoid(array_l2_sq(m.grid, u - ref), tg.times()) / tg.horizon),
        "terminal": lambda u: np.sqrt(array_l2_sq(m.grid, u[-1] - ref[-1])),
        "uniform": lambda u: np.sqrt(np.mean(array_l2_sq(m.grid, u - ref))),
    }
    for which, distance in post_hoc.items():
        dists, _ = batch_distances(m, u0, cfg, 3, base_seed=42, references=[ref], which=which)
        for b in range(3):
            assert dists[b, 0] == pytest.approx(distance(singles[b]), rel=1e-10)


def test_batch_marks_blow_ups_without_aborting(default_setup):
    m, u0, tg = default_setup
    # a guard below the initial sup norm trips every path at step 1
    cfg = SdeConfig(epsilon=0.1, timegrid=tg, linf_guard=1e-3)
    sums = batch_paths(m, u0, cfg, 4, base_seed=1)
    assert all(s.blow_step == 1 for s in sums)
    assert all(np.isinf(s.energy) for s in sums)
    with pytest.raises(BlowUpError):
        simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 1, 0))


def test_overflow_in_blown_paths_emits_no_warning(default_setup):
    """Overflow in a blown path is legal: the step, the guards and a path's
    norms carry it to a blow-up or an inf energy without a RuntimeWarning."""
    m, u0, tg = default_setup
    kernel = StepKernel.build(m, tg)
    huge = Field(m.grid, np.full(m.grid.shape, 1e200))
    no_weights = np.zeros((tg.n_steps, m.noise.n_modes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |u|^p of a 1e100 datum overflows in the norms of the live step 0
        big = Field(m.grid, 1e100 * u0.values)
        sums = batch_paths(m, big, SdeConfig(1.0, TimeGrid(0.25, 16)), 8, base_seed=1)
        assert all(s.blow_step > 0 and np.isinf(s.energy) for s in sums)
        # the squares of a 1e200 datum's distances to a reference overflow
        rest = [np.zeros((tg.n_steps + 1, *m.grid.shape))]
        for which in ("combined", "l2rms"):
            dists, n_blown = batch_distances(m, huge, SdeConfig(0.1, tg), 4, 1, references=rest, which=which)
            assert n_blown == 4 and np.all(np.isinf(dists))
        assert not np.all(np.isfinite(step_once(kernel, 0.0, huge.values, no_weights[0])[0]))
        with pytest.raises(BlowUpError):
            forward_states(m, kernel, huge, no_weights)
        # a guard below the initial sup norm trips every path at step 1
        sums = batch_paths(m, u0, SdeConfig(0.1, tg, linf_guard=1e-3), 4, base_seed=1)
        assert all(s.blow_step == 1 for s in sums)


def _callback_model():
    """Drift, noise and forcing all callbacks, each depending on t."""
    grid = zoo.standard_grid(points=32)
    base = zoo.build_model(grid)
    x = grid.coords()[0]
    return ModelSpec(
        grid=grid,
        drift=dataclasses.replace(base.drift, form="custom-callback",
                                  callback=lambda t, c, u: u * u * u - (1.0 + t) * u),
        noise=dataclasses.replace(base.noise, form="custom-callback",
                                  sigma2_callback=lambda t, c, u, k: np.tanh(u) * (k + 1.0) / (1.0 + t)),
        forcing=ForcingSpec(grid, form="custom-callback", callback=lambda t: 0.2 * np.cos(x) * np.sin(3.0 * t)),
    )


_PIN_MODELS = {
    "default": zoo.default_model,
    "fractional": zoo.fractional_model,
    "2d": lambda: zoo.build_model(GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.8)),
    "callbacks": _callback_model,
}


def test_step_bits_are_pinned():
    """The IMEX step returns the same bits through both of its loops: the
    dense sweep's states and half spectra, and one 512-path batch's summaries
    with their distances to that sweep, on a 1-D, a fractional, a 2-D and an
    all-callback model."""
    tg = TimeGrid(0.25, 16)
    got = {}
    for name, build in _PIN_MODELS.items():
        model = build()
        u0 = zoo.default_initial_datum(model.grid)
        weights = tg.dt * np.random.default_rng(29).standard_normal((tg.n_steps, model.noise.n_modes))
        states, hats = forward_states(model, StepKernel.build(model, tg), u0, weights)
        cfg = SdeConfig(0.2, tg)
        sums = batch_paths(model, u0, cfg, 512, base_seed=29)
        dists, _ = batch_distances(model, u0, cfg, 512, base_seed=29, references=[states])
        h = hashlib.sha256(states.tobytes() + hats.tobytes())
        for s, row in zip(sums, dists):
            for x in (s.blow_step or 0, s.sup_l2, s.terminal_l2, s.terminal_mean, s.v_int, s.lp_int, s.energy):
                h.update(float(x).hex().encode())
            h.update(row.tobytes())
        got[name] = h.hexdigest()[:16]
    assert got == {
        "default": "b188765c242df847",
        "fractional": "51a3dfb53126bf15",
        "2d": "8f2022342a8f99ec",
        "callbacks": "6c94ebac17b0fdec",
    }


def test_probe_inner_matches_manual(default_setup):
    m, u0, tg = default_setup
    cfg = SdeConfig(epsilon=0.1, timegrid=tg)
    probe = zoo.default_initial_datum(m.grid, amplitude=0.7)
    sums = batch_paths(m, u0, cfg, 2, base_seed=42, probe=probe)
    single = simulate_sde(m, u0, cfg, WienerDriver(m.noise.n_modes, 42, 1))
    manual = float(m.grid.cell_volume * np.sum(single.trajectory[-1] * probe.values))
    assert sums[1].probe_inner == pytest.approx(manual, rel=1e-10)
    plain = batch_paths(m, u0, cfg, 2, base_seed=42)
    assert plain[0].probe_inner is None


def test_stream_independence():
    # sample correlation of terminal L2 norms across paired streams ~ 0
    m = zoo.linear_additive_model()
    u0 = Field(m.grid, np.cos(np.pi * m.grid.axis() / m.grid.half_length))
    cfg = SdeConfig(epsilon=1.0, timegrid=TimeGrid(0.25, 25))
    sums = batch_paths(m, u0, cfg, 2000, base_seed=77)
    vals = np.array([s.terminal_l2 for s in sums])
    even, odd = vals[0::2], vals[1::2]
    n = len(even)
    corr = np.corrcoef(even, odd)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_linear_additive_mean_matches_exact_decay():
    # E<u(T), u0> = exp(-lambda T) ||u0||^2 for the additive linear model
    m = zoo.linear_additive_model()
    g = m.grid
    u0 = Field(g, np.cos(np.pi * g.axis() / g.half_length))
    tg = TimeGrid(0.5, 50)
    sums = batch_paths(m, u0, SdeConfig(epsilon=1.0, timegrid=tg), 4000, base_seed=7, probe=u0)
    vals = np.array([s.probe_inner for s in sums])
    lam = (np.pi / g.half_length) ** (2 * g.alpha)
    exact = np.exp(-lam * tg.horizon) * array_l2_sq(g, u0.values)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 3 * se


def test_variance_scales_linearly_in_epsilon():
    m = zoo.linear_additive_model()
    g = m.grid
    u0 = Field(g, np.cos(np.pi * g.axis() / g.half_length))
    tg = TimeGrid(0.5, 50)
    eps_list = [1.0, 0.1, 0.01]
    vars_ = []
    for i, e in enumerate(eps_list):
        ss = batch_paths(
            m, u0, SdeConfig(epsilon=e, timegrid=tg), 2500,
            base_seed=11, stream_offset=i * 2500, probe=u0,
        )
        vars_.append(np.var([s.probe_inner for s in ss], ddof=1))
    slope = np.polyfit(np.log(eps_list), np.log(vars_), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# statistics helpers


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=2e-3)
    assert hi == pytest.approx(0.5962, abs=2e-3)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and 0 < hi0 < 0.05
    loN, hiN = wilson_interval(100, 100)
    assert hiN == pytest.approx(1.0, abs=1e-9) and loN > 0.95
    with pytest.raises(InsufficientSamplesError):
        wilson_interval(0, 0)
    with pytest.raises(DomainError):
        wilson_interval(5, 3)


def test_rest_state_is_invariant():
    # zero data, zero forcing, zero additive noise, sigma2(0) = 0:
    # the origin is invariant and every moment vanishes
    m = zoo.build_model(drift_form="pure_power", forcing_form="zero", sigma1_amplitude=0.0)
    u0 = Field(m.grid, np.zeros(m.grid.shape))
    cfg = SdeConfig(epsilon=1.0, timegrid=TimeGrid(0.5, 20))
    sums = batch_paths(m, u0, cfg, 120, base_seed=3)
    assert all(s.energy == 0.0 for s in sums)


# ---------------------------------------------------------------------------
# uniform convergence experiment


def test_uniform_convergence_validation(default_setup):
    m, u0, tg = default_setup
    v = Control.zero(tg, m.noise.n_modes)
    with pytest.raises(DomainError):
        uniform_convergence_experiment(m, [], [v], [1.0, 0.1], 0.1, 100, 0)
    with pytest.raises(DomainError):
        uniform_convergence_experiment(m, [u0], [], [1.0, 0.1], 0.1, 100, 0)
    with pytest.raises(DomainError):
        uniform_convergence_experiment(m, [u0], [v], [0.1, 1.0], 0.1, 100, 0)
    for eta in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            uniform_convergence_experiment(m, [u0], [v], [1.0, 0.1], eta, 100, 0)


def test_zero_noise_makes_exceedance_impossible(default_setup):
    m, u0, _ = default_setup
    silent_noise = dataclasses.replace(
        m.noise, sigma1=np.zeros_like(m.noise.sigma1),
        kappa=Field(m.grid, np.zeros(m.grid.shape)),
    )
    silent = dataclasses.replace(m, noise=silent_noise)
    tg = TimeGrid(0.25, 20)
    v = Control(tg, np.full((20, silent.noise.n_modes), 0.3))
    table = uniform_convergence_experiment(
        silent, [u0], [v], [1.0, 0.5], eta=1e-9, n_paths=100, base_seed=0
    )
    assert all(r.p_hat == 0.0 for r in table.rows)


def test_uniform_convergence_trend(default_setup):
    m, _, _ = default_setup
    tg = TimeGrid(0.25, 25)
    rng = np.random.default_rng(1)
    u0s = [zoo.default_initial_datum(m.grid, amplitude=a) for a in (0.5, 1.0)]
    vs = [Control(tg, rng.normal(size=(25, m.noise.n_modes)) * s) for s in (0.4, 0.8)]
    table = uniform_convergence_experiment(
        m, u0s, vs, [1.0, 0.3, 0.03], eta=0.1, n_paths=150, base_seed=5
    )
    assert table.passed
    assert table.rows[-1].p_hat < table.rows[0].p_hat
    assert table.rows[-1].ci_hi < table.rows[0].ci_lo
    recs = list(table.as_rows())
    assert recs[0]["epsilon"] == 1.0 and "p_hat" in recs[0]
