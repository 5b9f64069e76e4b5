"""Noise-driven integrators and Monte Carlo batch machinery.

The driving noise is a K-mode truncation of a cylindrical Wiener process:
independent scalar Brownian motions W_k feeding the mode family sigma_k.
``simulate_sde`` integrates

    du = [-(-Delta)^alpha u - F(t,x,u) + g(t)] dt + sqrt(eps) sigma(t,u) dW,

and with a ``shift`` control v adds the drift sigma(t,u) v(t) dt (the
change-of-measure dynamics used by the variational analysis). Every path
runs the deterministic module's step kernel in one of its two loops: a single
path in the skeleton solver's dense sweep, a batch in ``batch_paths`` here. So
the eps -> 0 limit is the skeleton solver's arithmetic exactly.

Streams are counter-based: path ``stream_id`` under base ``seed`` uses
``Philox(SeedSequence(entropy=seed, spawn_key=(stream_id,)))``, which makes
batches embarrassingly parallel and bit-reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .grids import DomainError, Field, GridMismatchError
from .grids import NON_NEGATIVE_OR_INF, POSITIVE, UNIT
from .grids import at_least, check_ranges, check_value
from .grids import array_l2_sq, array_lp_pow, array_seminorm_sq
from .models import ModelSpec
from .skeleton import (
    Control,
    SkeletonSolution,
    StepKernel,
    TimeGrid,
    distance_weights,
    evolve_dense,
    step_once,
)

class InsufficientSamplesError(DomainError):
    """Batch too small for the requested statistical contract."""


class EstimationError(RuntimeError):
    """Monte Carlo estimate undefined (e.g. every path blew up)."""


@dataclass(frozen=True)
class WienerDriver:
    """Reproducible K-mode Brownian increment source."""

    n_modes: int
    seed: int
    stream_id: int = 0

    RANGES: ClassVar[dict] = {"n_modes": at_least(1), "stream_id": at_least(0)}

    def __post_init__(self) -> None:
        check_ranges(self)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,)))
        )

    def increments(self, tg: TimeGrid) -> np.ndarray:
        """(n_steps, K) of independent N(0, dt) mode increments."""
        rng = self.generator()
        return np.sqrt(tg.dt) * rng.standard_normal(size=(tg.n_steps, self.n_modes))

    def with_stream(self, stream_id: int) -> "WienerDriver":
        return WienerDriver(n_modes=self.n_modes, seed=self.seed, stream_id=stream_id)


@dataclass(frozen=True)
class SdeConfig:
    epsilon: float
    timegrid: TimeGrid
    linf_guard: float = 1.0e6

    RANGES: ClassVar[dict] = {"epsilon": UNIT, "linf_guard": POSITIVE}

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass
class PathSample:
    """One noise-driven trajectory with the skeleton solver's diagnostics."""

    solution: SkeletonSolution

    @property
    def trajectory(self) -> np.ndarray:
        return self.solution.trajectory


def _mode_weights(model, u0, cfg, driver, n_paths, shift) -> np.ndarray:
    """Check the inputs, then draw the (n_paths, n_steps, K) mode weights of the
    streams from ``driver.stream_id`` on: sqrt(eps) dW, plus dt v for a ``shift`` v."""
    if u0.grid != model.grid:
        raise GridMismatchError("initial datum grid does not match the model")
    if driver.n_modes != model.noise.n_modes:
        raise GridMismatchError(
            f"driver has {driver.n_modes} modes, model noise has {model.noise.n_modes}"
        )
    tg = cfg.timegrid
    if shift is not None and shift.timegrid != tg:
        raise GridMismatchError("shift control lives on a different time grid")
    if shift is not None and shift.n_modes != driver.n_modes:
        raise GridMismatchError("shift control mode count does not match the model noise")
    # one reused Philox generator, keyed per stream exactly as
    # ``driver.with_stream(k).increments`` would seed a fresh one
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state  # a fresh generator's: zero counter, empty buffer
    counter = state["state"]["counter"]
    draws = np.empty((n_paths, tg.n_steps, driver.n_modes))
    for b in range(n_paths):
        seq = np.random.SeedSequence(entropy=driver.seed, spawn_key=(driver.stream_id + b,))
        state["state"] = {"counter": counter, "key": seq.generate_state(2, np.uint64)}
        rng.bit_generator.state = state
        rng.standard_normal(out=draws[b])
    weights = np.sqrt(cfg.epsilon) * (np.sqrt(tg.dt) * draws)
    if shift is not None:
        weights += tg.dt * shift.values
    return weights


def simulate_sde(
    model: ModelSpec,
    u0: Field,
    cfg: SdeConfig,
    driver: WienerDriver,
    shift: Optional[Control] = None,
) -> PathSample:
    """One tamed IMEX Euler-Maruyama path of the eps-noise equation.

    A ``shift`` control v adds the drift sigma(t,u) v(t) dt, as in
    ``batch_paths``.
    """
    weights = _mode_weights(model, u0, cfg, driver, 1, shift)[0]
    return PathSample(solution=evolve_dense(model, u0, cfg.timegrid, weights, cfg.linf_guard))


# ---------------------------------------------------------------------------
# batched simulation with streaming reductions


@dataclass
class PathSummary:
    """Per-path scalars; full trajectories are never stored for batches."""

    stream_id: int
    epsilon: float
    blow_step: Optional[int]
    sup_l2: float
    terminal_l2: float
    terminal_mean: float
    v_int: float
    lp_int: float
    energy: float
    dists: np.ndarray  # distance to each reference, in the kind batch_paths was asked for
    probe_inner: Optional[float] = None  # <u(T), probe>_L2 when a probe was given

    def as_record(self) -> dict:
        rec = {
            "stream_id": self.stream_id,
            "epsilon": self.epsilon,
            "blow_up": self.blow_step is not None,
            "blow_step": self.blow_step,
            "sup_l2": self.sup_l2,
            "terminal_l2": self.terminal_l2,
            "terminal_mean": self.terminal_mean,
            "v_int": self.v_int,
            "lp_int": self.lp_int,
            "energy": self.energy,
        }
        for j, d in enumerate(np.atleast_1d(self.dists)):
            rec[f"dist_{j}"] = float(d)
        return rec


def _accumulate(acc, kernel, w, alive, u, hat) -> None:
    """Add one time step of ``u`` (``hat`` its ``rfftn``, ``w`` its trapezoid
    weight) to the path-norm pieces in ``acc``, on live paths only (every row
    when ``alive`` is None): the running sup of ||u||^2 and the trapezoid sums
    of ||u||^2 + seminorm^2 and ||u||_p^p."""
    grid = kernel.model.grid
    l2_sq = array_l2_sq(grid, u)
    semi_sq = array_seminorm_sq(grid, kernel.half_multipliers, hat)
    pieces = [l2_sq, w * (l2_sq + semi_sq), w * array_lp_pow(grid, u, kernel.model.drift.p)]
    if alive is not None:
        pieces = [np.where(alive, x, 0.0) for x in pieces]
    np.maximum(acc[0], pieces[0], out=acc[0])
    acc[1] += pieces[1]
    acc[2] += pieces[2]


_PAIR_BLOCK = 1 << 15  # array elements per block of pairs: bounds the temporaries


def _accumulate_pairs(acc, kernel, w, u, hat, ref, ref_hat, path, rid) -> None:
    """``_accumulate`` of the differences u[path[i]] - ref[rid[i]] into column
    i of ``acc``, a block of pairs at a time."""
    block = max(1, _PAIR_BLOCK // kernel.model.grid.n_total)
    for s in range(0, len(path), block):
        pb, rb = path[s:s + block], rid[s:s + block]
        diff = u.take(pb, axis=0)
        diff -= ref.take(rb, axis=0)
        diff_hat = hat.take(pb, axis=0)
        diff_hat -= ref_hat.take(rb, axis=0)
        _accumulate(acc[:, s:s + block], kernel, w, None, diff, diff_hat)


def batch_paths(
    model: ModelSpec,
    u0: Field,
    cfg: SdeConfig,
    n_paths: int,
    base_seed: int,
    stream_offset: int = 0,
    shift: Optional[Control] = None,
    references: Sequence[np.ndarray] = (),
    probe: Optional[Field] = None,
    which: str = "combined",
    event_radius: float = math.inf,
) -> list[PathSummary]:
    """Simulate ``n_paths`` streams at once, reducing each to a PathSummary.

    This is the batched one of the two loops around ``step_once`` (the other
    is the skeleton module's dense sweep, which keeps whole trajectories).
    Drivers are the same per-path counter-based generators ``simulate_sde``
    uses, so each member matches the corresponding single-path run to
    floating-point roundoff, and its summary is bit-identical in any batch of
    at least two paths (a batch of one rounds differently in the last bits).
    Path blow-ups freeze the offending member at its last finite state, set
    ``blow_step``, and poison its distances with +inf; they never abort the
    batch. Distances to ``references`` (trajectories on the same grids)
    accumulate on the fly, only in the kind ``which`` names: "combined", the
    path norm sup-L2 + L2-in-time-H^alpha + Lp-in-time-Lp, or a smooth kind
    of ``skeleton.distance_weights``, summed over its steps of nonzero weight.

    A finite ``event_radius`` r serves callers that read only the indicators
    d < r and d >= r. Every piece of the combined norm is non-decreasing in
    time, so a (path, reference) pair whose partial distance exceeds r is
    decided: it stops accumulating and comes back as +inf, while every other
    pair comes back with its exact full distance. Both indicators are thus
    bit-identical to the full mode (r = inf). Every path is still stepped,
    and the other kinds always come back in full.
    """
    check_value("n_paths", n_paths, at_least(1))
    tg = cfg.timegrid
    smooth = which != "combined"
    if smooth:
        ref_w, ref_norm = distance_weights(which, tg)
    check_value("event_radius", event_radius, NON_NEGATIVE_OR_INF)
    grid = model.grid
    n_refs = len(references)
    for r in references:
        if r.shape != (tg.n_steps + 1, *grid.shape):
            raise GridMismatchError("reference trajectory shape mismatch")
    if probe is not None and probe.grid != grid:
        raise GridMismatchError("probe field lives on a different grid")
    driver = WienerDriver(model.noise.n_modes, base_seed, stream_offset)
    weights = _mode_weights(model, u0, cfg, driver, n_paths, shift)
    kernel = StepKernel.build(model, tg)

    ts = tg.times()
    tw = tg.trapezoid_weights()
    u = np.broadcast_to(u0.values, (n_paths, *grid.shape)).copy()
    hat = kernel.rfft(u)
    acc = np.zeros((3, n_paths))  # the path's own norm pieces: its energy
    ref_acc = np.zeros((n_paths, n_refs))  # smooth kinds: the weighted sums of squares
    # combined: the undecided (path, reference) pairs and their norm pieces
    n_pairs = 0 if smooth else n_paths * n_refs
    pair_path, pair_ref = np.divmod(np.arange(n_pairs), max(n_refs, 1))
    pair_acc = np.zeros((3, n_pairs))
    if n_pairs:
        refs = np.stack(references, axis=1)  # step-major: refs[k] is every reference at step k
        ref_hats = kernel.rfft(refs)
    p = model.drift.p

    def combined(a):
        return np.sqrt(a[0]) + np.sqrt(a[1]) + a[2] ** (1.0 / p)

    blow_step = np.zeros(n_paths, dtype=int)  # 0 = alive
    alive = blow_step == 0
    for k in range(tg.n_steps + 1):
        if k:
            u_next, hat_next = step_once(kernel, ts[k - 1], u, weights[:, k - 1])
            mags = np.max(np.abs(u_next.reshape(n_paths, -1)), axis=1)
            bad = (~np.isfinite(mags)) | (mags > cfg.linf_guard)
            blow_step[bad & alive] = k
            alive = blow_step == 0
            if alive.all():
                u, hat = u_next, hat_next
            else:
                # frozen members keep their last finite state
                alive_mask = alive.reshape((-1,) + (1,) * grid.dim)
                u = np.where(alive_mask, u_next, u)
                hat = np.where(alive_mask, hat_next, hat)
        _accumulate(acc, kernel, tw[k], alive, u, hat)
        if len(pair_path):
            _accumulate_pairs(pair_acc, kernel, tw[k], u, hat, refs[k], ref_hats[k], pair_path, pair_ref)
            # decide on the final distance's own expression; the margin keeps
            # a libm pow that is not monotone from deciding a pair wrongly
            decided = (combined(pair_acc) > event_radius * (1 + 1e-12)) | ~alive[pair_path]
            if decided.any():
                keep = ~decided
                pair_path, pair_ref, pair_acc = pair_path[keep], pair_ref[keep], pair_acc[:, keep]
        if smooth and ref_w[k]:
            for j, ref in enumerate(references):
                ref_acc[:, j] += np.where(alive, ref_w[k] * array_l2_sq(grid, u - ref[k]), 0.0)

    if smooth:
        dists = np.sqrt(ref_acc / ref_norm)
    else:
        dists = np.full((n_paths, n_refs), np.inf)
        dists[pair_path, pair_ref] = combined(pair_acc)
    dists[~alive] = np.inf
    terminal_l2 = np.sqrt(array_l2_sq(grid, u))
    terminal_mean = np.mean(u.reshape(n_paths, -1), axis=1)
    energy = acc[0] + acc[1] + acc[2]
    energy[~alive] = np.inf
    probe_inner = None
    if probe is not None:
        # a sum, not a matrix-vector product, whose rounding depends on the batch size
        probe_inner = grid.cell_volume * np.sum(u * probe.values, axis=tuple(range(-grid.dim, 0)))
    return [
        PathSummary(
            stream_id=stream_offset + b,
            epsilon=cfg.epsilon,
            blow_step=int(blow_step[b]) or None,
            sup_l2=float(np.sqrt(acc[0, b])),
            terminal_l2=float(terminal_l2[b]),
            terminal_mean=float(terminal_mean[b]),
            v_int=float(acc[1, b]),
            lp_int=float(acc[2, b]),
            energy=float(energy[b]),
            dists=dists[b],
            probe_inner=None if probe is None else float(probe_inner[b]),
        )
        for b in range(n_paths)
    ]


def blow_fraction(summaries: Sequence[PathSummary]) -> float:
    if not summaries:
        raise InsufficientSamplesError("empty batch")
    return sum(1 for s in summaries if s.blow_step is not None) / len(summaries)


# ---------------------------------------------------------------------------
# statistics


_WILSON_Z = 1.96  # two-sided 95% normal quantile


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion — behaves at p_hat = 0/1."""
    if n < 1:
        raise InsufficientSamplesError("Wilson interval needs at least one trial")
    if not (0 <= successes <= n):
        raise DomainError("successes must lie in [0, n]")
    phat = successes / n
    z = _WILSON_Z
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class EnergyCell:
    u0_l2_sq: float
    mean: float
    ci_half: float
    n_effective: int
    blow_fraction: float


@dataclass
class EnergyCheck:
    """Affine-growth audit of the expected energy functional in ||u0||^2."""

    cells: list
    slope: float
    intercept: float
    curvature: float
    passed: bool


def energy_estimate(summaries: Sequence[PathSummary]) -> tuple[float, float]:
    """Batch mean and 95% CI half-width of the path energy functional.

    The functional is sup_t ||u||^2 + int ||u||_V^2 + int ||u||_p^p; blown
    paths are excluded (their frequency is the caller's concern).
    """
    vals = np.array([s.energy for s in summaries if s.blow_step is None])
    if vals.size < 100:
        raise InsufficientSamplesError(
            f"need at least 100 surviving paths for a moment estimate, have {vals.size}"
        )
    mean = float(np.mean(vals))
    half = float(_WILSON_Z * np.std(vals, ddof=1) / np.sqrt(vals.size))
    return mean, half


_CURVATURE_SLACK = 0.02  # relative upward curvature allowed at the largest datum


def energy_estimate_check(
    model: ModelSpec,
    cfg: SdeConfig,
    datums: Sequence[Field],
    n_paths: int,
    base_seed: int,
) -> EnergyCheck:
    """Moment growth audit: the expected energy must be affine in ||u0||^2.

    Regresses the per-datum batch means against ||u0||^2 (least squares with a
    quadratic term as the curvature probe). Pass requires slope and intercept
    non-negative within the widest cell CI (fits on Monte Carlo means jitter
    below zero by sampling noise) and no super-affine curvature: a POSITIVE
    quadratic contribution at the largest datum must stay within twice that CI
    plus ``_CURVATURE_SLACK`` times the largest mean (short-horizon transients
    of the Lp term curve upward by a few percent without threatening the
    affine bound itself; concave saturation is always acceptable).
    """
    if len(datums) < 3:
        raise InsufficientSamplesError("affine audit needs at least 3 initial data")
    cells = []
    for i, u0 in enumerate(datums):
        sums = batch_paths(model, u0, cfg, n_paths, base_seed, stream_offset=i * n_paths)
        mean, half = energy_estimate(sums)
        cells.append(
            EnergyCell(
                u0_l2_sq=float(array_l2_sq(model.grid, u0.values)),
                mean=mean,
                ci_half=half,
                n_effective=sum(1 for s in sums if s.blow_step is None),
                blow_fraction=blow_fraction(sums),
            )
        )
    x = np.array([c.u0_l2_sq for c in cells])
    y = np.array([c.mean for c in cells])
    coef_lin = np.polyfit(x, y, 1)
    slope, intercept = float(coef_lin[0]), float(coef_lin[1])
    if len(cells) >= 4:
        curvature = float(np.polyfit(x, y, 2)[0])
    else:
        curvature = 0.0
    widest = max(c.ci_half for c in cells)
    bulge = max(0.0, curvature) * float(np.max(x)) ** 2
    curvature_ok = bulge <= 2.0 * widest + _CURVATURE_SLACK * float(np.max(y)) + 1e-12
    passed = slope >= -widest - 1e-12 and intercept >= -widest - 1e-12 and curvature_ok
    return EnergyCheck(cells=cells, slope=slope, intercept=intercept, curvature=curvature, passed=passed)
