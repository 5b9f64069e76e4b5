"""Noise-driven integrators and Monte Carlo batch machinery.

The driving noise is a K-mode truncation of a cylindrical Wiener process:
independent scalar Brownian motions W_k feeding the mode family sigma_k.
``simulate_sde`` integrates

    du = [-(-Delta)^alpha u - F(t,x,u) + g(t)] dt + sqrt(eps) sigma(t,u) dW,

and with a ``shift`` control v adds the drift sigma(t,u) v(t) dt (the
change-of-measure dynamics used by the variational analysis). Every path
runs the deterministic module's step kernel in one of its two loops: a single
path in the skeleton solver's dense sweep, a batch in ``_step_loop`` here, the
loop behind both ``batch_paths`` and ``batch_distances``. So the eps -> 0 limit
is the skeleton solver's arithmetic exactly.

Streams are counter-based: path ``stream_id`` under base ``seed`` uses
``Philox(SeedSequence(entropy=seed, spawn_key=(stream_id,)))``, which makes
batches embarrassingly parallel and bit-reproducible regardless of scheduling.
A batch derives the Philox keys of all its streams in one vectorized pass of
``SeedSequence``'s hash (``_stream_keys``), bit for bit the keys a
``SeedSequence`` per stream would give.
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

    RANGES: ClassVar[dict] = {"n_modes": at_least(1), "seed": at_least(0), "stream_id": at_least(0)}

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


@dataclass(frozen=True)
class SdeConfig:
    epsilon: float
    timegrid: TimeGrid
    linf_guard: float = 1.0e6

    RANGES: ClassVar[dict] = {"epsilon": UNIT, "linf_guard": POSITIVE}

    def __post_init__(self) -> None:
        check_ranges(self)


# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list:
    """Little-endian 32-bit words of an int ``n >= 0``, as SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashed_keys(seed: int, ids: np.ndarray, n_words: int) -> np.ndarray:
    """``_stream_keys`` for uint64 stream ids that all take ``n_words`` words.

    SeedSequence's pool mixing and ``generate_state``, run on uint32 columns
    (one entry per stream) instead of scalars. Spawned sequences pad the seed's
    words to the pool size of 4, so the first four entropy words, and the pool
    they mix into, are the same for every stream: they stay (1,)-arrays that
    broadcast against the stream words.
    """
    words = _uint32_words(seed)
    entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    entropy += [((ids >> np.uint64(32 * i)) & np.uint64(_MASK32)).astype(np.uint32)
                for i in range(n_words)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    pool = [hashmix(entropy[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four words cycled from the pool, paired little-endian
    hash_const = _INIT_B
    state = []
    for value in pool:
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | (state[1] << shift), state[2] | (state[3] << shift)], axis=-1)


def _stream_keys(seed: int, first: int, n: int) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams ``first .. first + n - 1``.

    Row b is bit for bit
    ``SeedSequence(entropy=seed, spawn_key=(first + b,)).generate_state(2, np.uint64)``.
    The mixing runs one step per entropy word, so the streams are hashed in
    groups of one word count: ids below 2**32 (one word) and below 2**64 (two
    words) vectorized, larger ids through a ``SeedSequence`` each.
    """
    keys = np.empty((n, 2), dtype=np.uint64)
    end = first + n
    for lo, hi, n_words in ((first, min(end, 1 << 32), 1),
                            (max(first, 1 << 32), min(end, 1 << 64), 2)):
        if lo < hi:
            keys[lo - first:hi - first] = _hashed_keys(
                seed, np.arange(lo, hi, dtype=np.uint64), n_words
            )
    for stream in range(max(first, 1 << 64), end):
        keys[stream - first] = np.random.SeedSequence(
            entropy=seed, spawn_key=(stream,)
        ).generate_state(2, np.uint64)
    return keys


def _mode_weights(model, u0, cfg, driver, n_paths, shift) -> np.ndarray:
    """Check the inputs, then draw the (n_paths, n_steps, K) mode weights of the
    streams from ``driver.stream_id`` on: sqrt(eps) dW, plus dt v for a ``shift`` v.

    One Philox generator is re-keyed per stream, with the keys of the whole
    batch from ``_stream_keys``: stream b draws what ``increments`` draws for a
    ``WienerDriver`` of the same modes and seed on stream ``driver.stream_id + b``.
    """
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
    keys = _stream_keys(driver.seed, driver.stream_id, n_paths)
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state  # a fresh generator's: zero counter, empty buffer
    counter = state["state"]["counter"]
    draws = np.empty((n_paths, tg.n_steps, driver.n_modes))
    for b in range(n_paths):
        state["state"] = {"counter": counter, "key": keys[b]}
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
) -> SkeletonSolution:
    """One tamed IMEX Euler-Maruyama path of the eps-noise equation, with the
    skeleton solver's diagnostics.

    A ``shift`` control v adds the drift sigma(t,u) v(t) dt, as in
    ``batch_paths``.
    """
    weights = _mode_weights(model, u0, cfg, driver, 1, shift)[0]
    return evolve_dense(model, u0, cfg.timegrid, weights, cfg.linf_guard)


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


def _add_norm_pieces(acc, w, l2_sq, semi_sq, lp_pow) -> None:
    """Add one time step of trapezoid weight ``w`` to the path-norm pieces in
    ``acc``: the running sup of ||u||^2 and the trapezoid sums of
    ||u||^2 + seminorm^2 and ||u||_p^p."""
    np.maximum(acc[0], l2_sq, out=acc[0])
    acc[1] += w * (l2_sq + semi_sq)
    acc[2] += w * lp_pow


def _accumulate(acc, kernel, w, alive, u, hat) -> None:
    """``_add_norm_pieces`` of the paths' own states ``u`` (``hat`` their
    ``rfftn``), on live paths only. These norms reach the records, so they keep
    the ``np.sum`` reductions of the ``grids`` norms."""
    grid = kernel.model.grid
    pieces = (
        array_l2_sq(grid, u),
        array_seminorm_sq(grid, kernel.half_multipliers, hat),
        array_lp_pow(grid, u, kernel.model.drift.p),
    )
    _add_norm_pieces(acc, w, *(np.where(alive, x, 0.0) for x in pieces))


def _row_dot(a, b, weights=None):
    """Sum over j of a[i, j] * b[i, j] (* weights[j]) for every row i of two
    (n, m) arrays.

    ``np.einsum`` runs one fused product-sum loop per row, about a third of
    the time of a product and then ``np.sum`` over short rows, and a row's
    value depends on that row alone: not on n, nor on where the rows sit in
    memory.
    """
    if weights is None:
        return np.einsum("ij,ij->i", a, b)
    return np.einsum("ij,ij,j->i", a, b, weights)


_PAIR_BLOCK = 1 << 15  # array elements per block of pairs: bounds the temporaries


def _pair_pieces(kernel, spectral, u, hat, ref, ref_hat, pb, rb):
    """The three norm pieces (||d||^2, seminorm^2, ||d||_p^p) of the
    differences d_i = u[pb[i]] - ref[rb[i]], ``hat`` and ``ref_hat`` being the
    ``rfftn`` of ``u`` and ``ref``. Each temporary is freed before the next
    is made, and all of them on return."""
    grid = kernel.model.grid
    p = kernel.model.drift.p
    diff = u.take(pb, axis=0).reshape(len(pb), -1)
    diff -= ref.take(rb, axis=0).reshape(len(pb), -1)
    l2_sq = grid.cell_volume * _row_dot(diff, diff)
    if p == 4.0:
        np.multiply(diff, diff, out=diff)
    else:
        np.power(np.abs(diff, out=diff), p / 2, out=diff)
    lp_pow = grid.cell_volume * _row_dot(diff, diff)  # |d|^(p/2) dotted with itself
    del diff
    diff_hat = hat.take(pb, axis=0)
    diff_hat -= ref_hat.take(rb, axis=0)
    spec = diff_hat.reshape(len(pb), -1).view(np.float64)
    return l2_sq, grid.cell_volume / grid.n_total * _row_dot(spec, spec, spectral), lp_pow


def _accumulate_pairs(acc, kernel, w, u, hat, ref, ref_hat, path, rid) -> None:
    """``_add_norm_pieces`` of the differences u[path[i]] - ref[rid[i]] into
    column i of ``acc``, a block of pairs at a time.

    The norms are the ``grids`` ones reduced by ``_row_dot``, so they match
    ``_accumulate``'s to roundoff, not bit for bit. They only feed the
    combined distance, which every caller reads through threshold indicators.
    """
    # the float view of a half-spectrum row interleaves re and im: each multiplier twice
    spectral = np.repeat(kernel.half_multipliers.ravel(), 2)
    block = max(1, _PAIR_BLOCK // kernel.model.grid.n_total)
    for s in range(0, len(path), block):
        pieces = _pair_pieces(kernel, spectral, u, hat, ref, ref_hat,
                              path[s:s + block], rid[s:s + block])
        _add_norm_pieces(acc[:, s:s + block], w, *pieces)


def _step_loop(model, u0, cfg, n_paths, base_seed, stream_offset, shift, references,
               which, event_radius, norms):
    """The batched loop around ``step_once`` behind ``batch_paths`` and
    ``batch_distances``.

    Returns (dists, blow_step, u, acc): the (n_paths, n_refs) ``which``
    distances, +inf for blown paths and decided pairs; the step at which each
    path blew up, 0 if it never did; the final (or last finite) states; and,
    when ``norms`` is set, the (3, n_paths) pieces of each path's own norm
    (else None).
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
    driver = WienerDriver(model.noise.n_modes, base_seed, stream_offset)
    weights = _mode_weights(model, u0, cfg, driver, n_paths, shift)
    kernel = StepKernel.build(model, tg)

    ts = tg.times()
    tw = tg.trapezoid_weights()
    u = np.broadcast_to(u0.values, (n_paths, *grid.shape)).copy()
    hat = kernel.rfft(u)
    acc = np.zeros((3, n_paths)) if norms else None  # the path's own norm pieces: its energy
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
        # overflow is legal here, as in ``step_once``: a path whose norms or
        # distances overflow reads inf, as a blown path does
        with np.errstate(over="ignore", invalid="ignore"):
            if norms:
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
    return dists, blow_step, u, acc


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

    It runs ``_step_loop``, the batched one of the two loops around
    ``step_once`` (the other is the skeleton module's dense sweep, which keeps
    whole trajectories).
    Drivers are the same per-path counter-based generators ``simulate_sde``
    uses, keyed for the whole batch at once by ``_stream_keys``, so each
    member matches the corresponding single-path run to floating-point
    roundoff, and its summary is bit-identical in any batch of at least two
    paths (a batch of one rounds differently in the last bits). Path blow-ups
    freeze the offending member at its last finite state, set ``blow_step``,
    and poison its distances with +inf; they never abort the batch. Distances
    to ``references`` (trajectories on the same grids) accumulate on the fly,
    only in the kind ``which`` names: "combined", the path norm sup-L2 +
    L2-in-time-H^alpha + Lp-in-time-Lp, or a smooth kind of
    ``skeleton.distance_weights``, summed over its steps of nonzero weight.
    The combined pair norms reduce by ``_row_dot``, so they agree with
    ``skeleton.path_distance`` of the single path to roundoff (about 1e-14
    relative).

    A finite ``event_radius`` r serves callers that read only the indicators
    d < r and d >= r. Every piece of the combined norm is non-decreasing in
    time, so a (path, reference) pair whose partial distance exceeds r is
    decided: it stops accumulating and comes back as +inf, while every other
    pair comes back with its exact full distance. Both indicators are thus
    bit-identical to the full mode (r = inf). Every path is still stepped,
    and the other kinds always come back in full.

    A caller that reads only the distances and the blown paths, as every
    Monte Carlo probe cell does, calls ``batch_distances`` instead: the same
    loop without the per-path norms, terminal statistics and summaries.
    """
    if probe is not None and probe.grid != model.grid:
        raise GridMismatchError("probe field lives on a different grid")
    dists, blow_step, u, acc = _step_loop(
        model, u0, cfg, n_paths, base_seed, stream_offset, shift, references, which,
        event_radius, norms=True,
    )
    grid = model.grid
    terminal_l2 = np.sqrt(array_l2_sq(grid, u))
    terminal_mean = np.mean(u.reshape(n_paths, -1), axis=1)
    energy = acc[0] + acc[1] + acc[2]
    energy[blow_step > 0] = np.inf
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


def batch_distances(
    model: ModelSpec,
    u0: Field,
    cfg: SdeConfig,
    n_paths: int,
    base_seed: int,
    stream_offset: int = 0,
    shift: Optional[Control] = None,
    references: Sequence[np.ndarray] = (),
    which: str = "combined",
    event_radius: float = math.inf,
) -> tuple[np.ndarray, int]:
    """What a Monte Carlo probe cell reads of ``batch_paths``: the
    (n_paths, n_refs) distances, row b for stream ``stream_offset + b``, and
    the number of blown paths.

    The same step loop and streams as ``batch_paths``, so the distances are
    its ``dists`` bit for bit; it skips the per-path norms, the terminal
    statistics and the per-path ``PathSummary`` objects, which no probe reads.
    """
    dists, blow_step, _, _ = _step_loop(
        model, u0, cfg, n_paths, base_seed, stream_offset, shift, references, which,
        event_radius, norms=False,
    )
    return dists, int(np.count_nonzero(blow_step))


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
