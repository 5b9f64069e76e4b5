"""Deterministic controlled ("skeleton") equation solver and its experiments.

The controlled equation on the torus is

    du/dt = -(-Delta)^alpha u - F(t, x, u) + g(t) + sigma(t, u) v(t),

with a piecewise-constant-in-time control v valued in the mode space R^K.
The integrator is the IMEX step ``step_once``, run by two loops: the dense
sweep ``forward_states`` here and the batched ``stochastic._batch_steps``,
read by both ``batch_paths`` and ``batch_distances``. It is explicit tamed
drift and mode forcing, then the exact per-mode integrating factor of the
fractional heat semigroup,

    u* = u_n + dt*(g - F/(1 + dt*|F|)) + sigma(t_n, u_n) w_n,
    u_{n+1} = irfft(exp(-|xi|^(2 alpha) dt) rfft(u*)),

where w_n collects everything that multiplies the modes over the step
(dt*v_n for the skeleton; the Wiener increment enters the same slot in the
stochastic module, so the zero-noise limit reproduces this solver's
arithmetic exactly).

Fields are real, so the transforms are real-to-half-spectrum pairs over the
spatial axes, bound once per ``StepKernel``: ``numpy.fft.rfft``/``irfft`` on
1-D grids and ``rfftn``/``irfftn`` on the others (on one axis the two pairs
give the same bits). The spectrum is kept in the half layout whose last axis
holds the bins 0..N/2, and the seminorm diagnostics weight it with
``grids.half_spectrum_multipliers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import Callable, ClassVar, Optional

import numpy as np

from .grids import DomainError, Field, GridMismatchError, GridSpec
from .grids import POSITIVE, Range, at_least, check_ranges, check_value, is_num
from .grids import (
    array_l2_sq,
    array_lp_pow,
    array_seminorm_sq,
    fractional_symbol,
    half_spectrum_multipliers,
)
from .models import ModelSpec, growth_constant, noise_apply_array


# Largest grid (points over all dimensions) whose integrating factor the rate's
# costate sweep applies as a dense matrix. One apply to a single field, in us,
# dense against the rfftn/irfftn pair (2-vCPU x86 host, 1 BLAS thread, median
# of 7 x 2000): 2.3/27.5 at 1-D 8, 5.1/30.9 at 1-D 128, 12.7/33.2 at 1-D 256,
# 11.8/35.5 at 2-D 16^2; 47.5/24.1 at 1-D 512, 56.4/63.6 at 3-D 8^3 and
# 419/45.8 at 1-D 1024. The 1-D 512 loss sets the cut.
DENSE_FACTOR_MAX_POINTS = 256


class BlowUpError(RuntimeError):
    """Sup-norm guard breached; carries the offending step index."""

    def __init__(self, step: int, magnitude: float):
        self.step = step
        self.magnitude = magnitude
        super().__init__(f"blow-up guard breached at step {step} (|u|_max = {magnitude:.3e})")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with n_steps steps."""

    horizon: float
    n_steps: int

    RANGES: ClassVar[dict] = {"horizon": POSITIVE, "n_steps": at_least(2)}

    def __post_init__(self) -> None:
        check_ranges(self)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        return self.dt * (np.arange(self.n_steps) + 0.5)

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid-rule weights of the step grid: dt inside, dt/2 at both ends."""
        tw = np.full(self.n_steps + 1, self.dt)
        tw[0] = tw[-1] = 0.5 * self.dt
        return tw


class Control:
    """Piecewise-constant control: one R^K value per time step."""

    __slots__ = ("timegrid", "values")

    def __init__(self, timegrid: TimeGrid, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != timegrid.n_steps:
            raise GridMismatchError(
                f"control values must be (n_steps, K) = ({timegrid.n_steps}, K), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite control values")
        arr = arr.copy()
        arr.setflags(write=False)
        self.timegrid = timegrid
        self.values = arr

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def l2_sq(self) -> float:
        """sum_n |v_n|^2 dt — the squared L2(0,T; R^K) norm."""
        return float(self.timegrid.dt * np.sum(self.values**2))

    def l2_time_norm(self) -> float:
        return float(np.sqrt(self.l2_sq()))

    @staticmethod
    def zero(timegrid: TimeGrid, n_modes: int) -> "Control":
        return Control(timegrid, np.zeros((timegrid.n_steps, n_modes)))


@dataclass(frozen=True)
class StepKernel:
    """Everything the IMEX step reads, bound once per (model, timegrid) pair.

    ``propagator`` is the integrating factor on the full grid shape;
    ``half_propagator`` is its view on the half spectrum, the one the step
    applies. ``half_multipliers`` are the Hermitian-weighted symbol
    multipliers that ``array_seminorm_sq`` takes. ``rfft`` and ``irfft`` are
    the transform pair over the spatial axes: ``numpy.fft.rfft``/``irfft`` on
    1-D grids, which give the bits of ``rfftn``/``irfftn`` at less overhead
    per call, and ``rfftn``/``irfftn`` on the others.

    ``step(t, u, w, out)`` is the step's arithmetic, a closure over dt, the
    half propagator, the pair, the drift and noise, and the forcing array
    when the forcing is time-constant (a callback forcing is called every
    step). ``step_once`` is its one caller, so that its per-call overhead is
    only the step's own.

    ``propagator_matrix`` is the same integrating factor as a dense, read-only
    (M, M) matrix over the M = prod(grid.shape) flattened points, or None
    above ``DENSE_FACTOR_MAX_POINTS``. Only the rate's costate sweep applies
    it, as ``lam @ matrix``: on grids of at most 256 points one small
    matrix-vector product costs 2-13 us, where the ``rfftn``/``irfftn`` pair
    on a single field costs 27-36 us, almost all of it per-call overhead;
    on 512 points in 1-D the O(M^2) product already costs twice the
    transforms. It is built on first access, not in ``build``, so the
    kernels of ``simulate`` and the Monte Carlo probes, which never run the
    adjoint, do not pay for it.
    """

    model: ModelSpec
    timegrid: TimeGrid
    propagator: np.ndarray = dc_field(repr=False, default=None)
    half_propagator: np.ndarray = dc_field(repr=False, default=None)
    half_multipliers: np.ndarray = dc_field(repr=False, default=None)
    coords: tuple = dc_field(repr=False, default=None)
    rfft: Callable = dc_field(repr=False, default=None)
    irfft: Callable = dc_field(repr=False, default=None)
    step: Callable = dc_field(repr=False, default=None)

    @staticmethod
    def build(model: ModelSpec, timegrid: TimeGrid) -> "StepKernel":
        grid = model.grid
        dt = timegrid.dt
        sym = fractional_symbol(grid)
        prop = np.exp(-sym.multipliers * dt)
        prop.setflags(write=False)
        half = prop[..., : grid.points_per_dim // 2 + 1]
        if grid.dim == 1:
            rfft, irfft = np.fft.rfft, partial(np.fft.irfft, n=grid.points_per_dim)
        else:
            axes = tuple(range(-grid.dim, 0))
            rfft = partial(np.fft.rfftn, s=grid.shape, axes=axes)
            irfft = partial(np.fft.irfftn, s=grid.shape, axes=axes)
        coords = tuple(grid.coords())
        drift, noise, forcing = model.drift.value, model.noise, model.forcing.value
        g = None if model.forcing.form == "custom-callback" else forcing(0.0)  # built-ins are time-constant

        def step(t, u, w, out):
            f = np.asarray(drift(t, coords, u), dtype=float)
            if f.shape != u.shape:  # a callback may return a scalar or a broadcastable array
                f = np.broadcast_to(f, u.shape)
            # u* = u + dt*(g - f/(1 + dt*|f|)) + noise, in this order of
            # operations, built in one fresh buffer (f may alias a callback's data)
            u_star = np.abs(f)
            u_star *= dt
            u_star += 1.0
            np.divide(f, u_star, out=u_star)
            np.subtract(forcing(t) if g is None else g, u_star, out=u_star)
            u_star *= dt
            u_star += u
            u_star += noise_apply_array(noise, t, u, w)
            hat = rfft(u_star)
            hat *= half
            return irfft(hat, out=out), hat

        return StepKernel(
            model=model,
            timegrid=timegrid,
            propagator=prop,
            half_propagator=half,
            half_multipliers=half_spectrum_multipliers(grid),
            coords=coords,
            rfft=rfft,
            irfft=irfft,
            step=step,
        )

    @cached_property
    def propagator_matrix(self) -> Optional[np.ndarray]:
        """The integrating factor E as a matrix A with ``u.ravel() @ A`` the
        flattened ``irfft(half_propagator * rfft(u))``; None above
        ``DENSE_FACTOR_MAX_POINTS``. Row i is E applied to the i-th unit
        field, pushed through this kernel's own transforms."""
        size = self.model.grid.n_total
        if size > DENSE_FACTOR_MAX_POINTS:
            return None
        hat = self.rfft(np.eye(size).reshape(size, *self.model.grid.shape))
        hat *= self.half_propagator
        matrix = self.irfft(hat).reshape(size, size)
        matrix.setflags(write=False)
        return matrix


# overflow in a step is legal: the guards of both loops handle the fallout.
# Every call runs under this errstate; as a decorator it costs half a ``with``.
@np.errstate(over="ignore", invalid="ignore")
def step_once(kernel: StepKernel, t: float, u: np.ndarray, w: np.ndarray, out=None):
    """One IMEX step; ``u`` may carry leading batch axes, ``w`` is (*batch, K).

    This is the only IMEX step, called from two loops: the dense sweep
    ``forward_states`` and the batched ``stochastic._batch_steps``. It runs
    ``kernel.step``, the arithmetic bound once per kernel, so a call pays no
    per-call lookup of the model's constants. The explicit update goes
    through ``kernel.rfft``, the half-spectrum propagator and
    ``kernel.irfft``, which writes u_next into ``out`` when given. Returns
    (u_next, hat): ``hat`` is the ``rfft`` of u_next over the spatial axes,
    shape (*batch, *grid.shape[:-1], N//2 + 1), reused for the spectral
    diagnostics.
    """
    return kernel.step(t, u, w, out)


@dataclass
class SkeletonSolution:
    """Trajectory plus per-step energy diagnostics."""

    grid: GridSpec
    timegrid: TimeGrid
    trajectory: np.ndarray  # (n_steps+1, *grid.shape), read-only
    l2_sq: np.ndarray
    halpha_semi_sq: np.ndarray
    lp_p: np.ndarray
    p: float

    def times(self) -> np.ndarray:
        return self.timegrid.times()

    def path_norm_components(self) -> tuple[float, float, float]:
        """(sup-in-time L2, L2-in-time full H^alpha, Lp-in-time Lp) of the
        trajectory, reduced from the stored per-step series."""
        return _reduce_series(self.timegrid, self.p, self.l2_sq, self.halpha_semi_sq, self.lp_p)

    def diagnostics_rows(self):
        """Rows (t, l2, halpha_semi, lp) — norms, not squares — for CSV export."""
        ts = self.times()
        for n in range(len(ts)):
            yield (
                float(ts[n]),
                float(np.sqrt(self.l2_sq[n])),
                float(np.sqrt(self.halpha_semi_sq[n])),
                float(self.lp_p[n] ** (1.0 / self.p)),
            )


def forward_states(
    model: ModelSpec, kernel: StepKernel, u0: Field, weights: np.ndarray, guard: float = np.inf
):
    """The dense sweep: (states u_0..u_N of one path, the ``rfft`` of u_1..u_N).

    ``weights`` are the (n_steps, K) mode multipliers: dt*v for the solver and
    the rate's forward map, sqrt(eps)*dW (plus the shift) for ``simulate_sde``.
    Each step writes u_{n+1} straight into the states stack. ``step_once``
    carries non-finite values, so the loop runs to the end and checks the
    stack once: BlowUpError names the first step whose sup norm is
    non-finite or above ``guard``.
    """
    tg = kernel.timegrid
    states = np.empty((tg.n_steps + 1, *model.grid.shape))
    hats = np.empty((tg.n_steps, *kernel.half_propagator.shape), dtype=complex)
    states[0] = u = u0.values
    ts = tg.times()
    for n in range(tg.n_steps):
        u, hats[n] = step_once(kernel, ts[n], u, weights[n], states[n + 1])
    mags = np.max(np.abs(states[1:].reshape(tg.n_steps, -1)), axis=1)
    bad = ~np.isfinite(mags) | (mags > guard)
    if bad.any():
        n = int(np.argmax(bad))
        raise BlowUpError(n + 1, float(mags[n]))
    return states, hats


def evolve_dense(
    model: ModelSpec, u0: Field, tg: TimeGrid, weights: np.ndarray, guard: float
) -> SkeletonSolution:
    """``forward_states`` and its energy diagnostics, each reduced once over the
    stored stacks; raises BlowUpError past the guard."""
    kernel = StepKernel.build(model, tg)
    grid, p = model.grid, model.drift.p
    traj, hats = forward_states(model, kernel, u0, weights, guard)
    traj.setflags(write=False)
    all_hats = np.concatenate([kernel.rfft(u0.values)[None], hats])
    l2_sq, semi_sq, lp_p = _norm_series(grid, traj, p, all_hats)
    return SkeletonSolution(
        grid=grid, timegrid=tg, trajectory=traj, l2_sq=l2_sq, halpha_semi_sq=semi_sq, lp_p=lp_p, p=p,
    )


def solve_skeleton(
    model: ModelSpec,
    u0: Field,
    control: Control,
    timegrid: Optional[TimeGrid] = None,
    guard: float = 1.0e6,
) -> SkeletonSolution:
    """Integrate the controlled equation; raises BlowUpError past the guard."""
    tg = timegrid or control.timegrid
    if control.timegrid != tg:
        raise GridMismatchError("control lives on a different time grid")
    if u0.grid != model.grid:
        raise GridMismatchError("initial datum grid does not match the model")
    if control.n_modes != model.noise.n_modes:
        raise GridMismatchError(
            f"control has {control.n_modes} modes, model noise has {model.noise.n_modes}"
        )
    return evolve_dense(model, u0, tg, tg.dt * control.values, guard)


# ---------------------------------------------------------------------------
# path norms


def _norm_series(grid: GridSpec, traj: np.ndarray, p: float, hat: Optional[np.ndarray] = None):
    """Per-time (||u||_L2^2, seminorm^2, ||u||_Lp^p) of a trajectory; ``hat``
    is its ``rfftn`` over the spatial axes, transformed here when not given."""
    if hat is None:
        hat = np.fft.rfftn(traj, axes=tuple(range(-grid.dim, 0)))
    return (
        array_l2_sq(grid, traj),
        array_seminorm_sq(grid, half_spectrum_multipliers(grid), hat),
        array_lp_pow(grid, traj, p),
    )


def path_norm_components(
    grid: GridSpec, timegrid: TimeGrid, traj: np.ndarray, p: float,
    hat: Optional[np.ndarray] = None,
) -> tuple[float, float, float]:
    """(sup-in-time L2, L2-in-time full H^alpha, Lp-in-time Lp) of a trajectory.

    The middle component integrates the full space norm ||.||_L2^2 + seminorm^2;
    time integrals use the trapezoid rule on the step grid. ``hat`` is as in
    ``_norm_series``.
    """
    return _reduce_series(timegrid, p, *_norm_series(grid, traj, p, hat))


def _reduce_series(timegrid: TimeGrid, p: float, l2_sq, semi_sq, lp_p) -> tuple[float, float, float]:
    """``path_norm_components`` of the per-time series of ``_norm_series``."""
    ts = timegrid.times()
    c_h = float(np.sqrt(np.max(l2_sq)))
    l2_v = float(np.sqrt(np.trapezoid(l2_sq + semi_sq, ts)))
    lp_lp = float(np.trapezoid(lp_p, ts) ** (1.0 / p))
    return c_h, l2_v, lp_lp


def path_distance(
    grid: GridSpec,
    timegrid: TimeGrid,
    traj_a: np.ndarray,
    traj_b: np.ndarray,
    p: float,
    hats: Optional[tuple] = None,
) -> float:
    """Distance between trajectories in the product path norm: the sum of the
    three ``path_norm_components`` of their difference.

    A caller holding the ``rfftn`` of both trajectories passes them as
    ``hats``; their difference stands in for the transform of the difference
    (equal up to roundoff, since the transform is linear).
    """
    if traj_a.shape != traj_b.shape:
        raise GridMismatchError("trajectory shapes differ")
    diff_hat = None if hats is None else hats[0] - hats[1]
    return sum(path_norm_components(grid, timegrid, traj_a - traj_b, p, diff_hat))


def distance_weights(kind: str, timegrid: TimeGrid) -> tuple[np.ndarray, float]:
    """Time weights w_0..w_N and normaliser D of a smooth distance ``kind``.

    The one definition of d^2 = sum_k w_k ||u_k - ref_k||_L2^2 / D, over the
    steps with w_k != 0, that ``stochastic.batch_distances`` and the rate
    penalties read: "terminal" is w = e_N, D = 1; "l2rms" the trapezoid
    weights, D = T; "uniform" all ones, D = N + 1.
    """
    n = timegrid.n_steps + 1
    if kind == "terminal":
        return np.eye(1, n, n - 1)[0], 1.0
    if kind == "l2rms":
        return timegrid.trapezoid_weights(), timegrid.horizon
    if kind == "uniform":
        return np.ones(n), float(n)
    raise DomainError(f"unknown smooth distance kind {kind!r}")


# ---------------------------------------------------------------------------
# energy / a-priori bound report


@dataclass
class BoundReport:
    """Observed energy functional vs. the explicit Gronwall bound.

    ``observed`` is the functional the Gronwall argument controls,
    max_t (||u(t)||^2 + 2 int_0^t seminorm^2 + lambda1 int_0^t ||u||_p^p);
    ``bound`` is e^(T+R^2) (||u0||^2 + c1 T + ||g||^2 + 2||sigma1||^2 +
    2||psi1||_L1) with R = max(||u0||, ||v||). The three spec components are
    reported alongside.
    """

    observed: float
    bound: float
    passed: bool
    sup_l2_sq: float
    v_integral: float
    lp_integral: float
    radius: float
    c1: float


def _cumtrapz(y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(ts))
    return out


def apriori_bound_report(model: ModelSpec, sol: SkeletonSolution, u0: Field, control: Control) -> BoundReport:
    tg = sol.timegrid
    ts = sol.times()
    lam1 = model.drift.lambda1
    c1 = growth_constant(model.noise, model.drift.p, lam1)
    r = max(float(np.sqrt(array_l2_sq(model.grid, u0.values))), control.l2_time_norm())
    g_sq = model.forcing.sq_integral(tg.horizon)
    sig1_sq = tg.horizon * model.noise.sigma1_sq()
    psi1_l1 = tg.horizon * model.drift.psi1_bound * (2.0 * model.grid.half_length) ** model.grid.dim
    bound = float(
        np.exp(tg.horizon + r**2)
        * (array_l2_sq(model.grid, u0.values) + c1 * tg.horizon + g_sq + 2.0 * sig1_sq + 2.0 * psi1_l1)
    )
    gronwall = sol.l2_sq + 2.0 * _cumtrapz(sol.halpha_semi_sq, ts) + lam1 * _cumtrapz(sol.lp_p, ts)
    observed = float(np.max(gronwall))
    return BoundReport(
        observed=observed,
        bound=bound,
        passed=observed <= bound,
        sup_l2_sq=float(np.max(sol.l2_sq)),
        v_integral=float(np.trapezoid(sol.l2_sq + sol.halpha_semi_sq, ts)),
        lp_integral=float(np.trapezoid(sol.lp_p, ts)),
        radius=r,
        c1=c1,
    )


# ---------------------------------------------------------------------------
# experiments


@dataclass
class LipschitzReport:
    """Squared output distance vs. squared input distance for a data pair.

    d_out = sup_t ||du||^2 + int ||du||_V^2 + int ||du||_p^p;
    d_in = ||du0||^2 + ||dv||^2. ``ratio`` is NaN when both vanish
    (identical inputs: the 0/0 sentinel).
    """

    d_out: float
    d_in: float
    ratio: float


def lipschitz_experiment(
    model: ModelSpec, u0_a: Field, u0_b: Field, v_a: Control, v_b: Control
) -> LipschitzReport:
    tg = v_a.timegrid
    sol_a = solve_skeleton(model, u0_a, v_a)
    sol_b = solve_skeleton(model, u0_b, v_b)
    l2_sq, semi_sq, lp_p = _norm_series(model.grid, sol_a.trajectory - sol_b.trajectory, model.drift.p)
    ts = tg.times()
    d_out = float(np.max(l2_sq) + np.trapezoid(l2_sq + semi_sq, ts) + np.trapezoid(lp_p, ts))
    d_in = float(array_l2_sq(model.grid, u0_a.values - u0_b.values) + tg.dt * np.sum((v_a.values - v_b.values) ** 2))
    ratio = float("nan") if d_in == 0.0 and d_out == 0.0 else (np.inf if d_in == 0.0 else d_out / d_in)
    return LipschitzReport(d_out=d_out, d_in=d_in, ratio=ratio)


@dataclass
class TailCurve:
    """Exterior mass sup_t int_{|x|>=m} u^2 + int_0^T int_{|x|>=m} |u|^p per radius."""

    radii: list
    sup_l2_tail: list
    lp_tail: list
    combined: list

    def as_rows(self):
        for m, a, b, c in zip(self.radii, self.sup_l2_tail, self.lp_tail, self.combined):
            yield {"radius": m, "sup_l2_tail": a, "lp_int_tail": b, "combined": c}


def tail_radius_range(half_length: float) -> Range:
    """Tail radii inside a grid of half-length L, 0 <= r < L: the one statement
    of the rule that ``tail_mass_scan`` and the config layer both read."""
    return Range(lambda r: is_num(r) and 0.0 <= r < half_length, f"[0, L) = [0, {half_length:g})")


def tail_mass_scan(sol: SkeletonSolution, radii) -> TailCurve:
    grid = sol.grid
    r = grid.radial()
    ts = sol.times()
    out = TailCurve(radii=[], sup_l2_tail=[], lp_tail=[], combined=[])
    admissible = tail_radius_range(grid.half_length)
    for m in radii:
        check_value("tail radius", m, admissible)
        mask = r >= m
        sq = grid.cell_volume * np.sum(sol.trajectory[:, mask] ** 2, axis=-1)
        lp = grid.cell_volume * np.sum(np.abs(sol.trajectory[:, mask]) ** sol.p, axis=-1)
        a = float(np.max(sq))
        b = float(np.trapezoid(lp, ts))
        out.radii.append(float(m))
        out.sup_l2_tail.append(a)
        out.lp_tail.append(b)
        out.combined.append(a + b)
    return out


@dataclass
class WeakLimitCurve:
    """Output perturbation sizes against oscillation frequency."""

    freqs: list
    errors: list
    perturbation: str

    @property
    def passed(self) -> bool:
        """Decay contract: the fastest oscillation moves the output less than
        half of what the slowest does, and the tail of the curve is monotone."""
        e = self.errors
        if e[0] == 0.0:
            return all(x == 0.0 for x in e)
        tail = range(max(len(e) - 3, 0), len(e) - 1)
        tail_monotone = all(e[i + 1] <= e[i] * (1.0 + 1e-9) for i in tail)
        return e[-1] < 0.5 * e[0] and tail_monotone


def weak_continuity_experiment(
    model: ModelSpec,
    u0: Field,
    control: Control,
    mode_index: int,
    freqs,
    amplitude: float = 1.0,
    perturbation: str = "oscillatory",
) -> WeakLimitCurve:
    """Perturb one control mode and measure the output path distance.

    ``oscillatory`` adds amplitude*sin(2 pi n t / T) — weak-but-not-strong
    vanishing, so outputs converge; ``constant`` adds a fixed shift, the
    negative control that must NOT decay. Frequencies beyond the step grid's
    resolution (n >= n_steps/2) are aliasing errors.
    """
    tg = control.timegrid
    if perturbation not in ("oscillatory", "constant"):
        raise DomainError(f"unknown perturbation kind {perturbation!r}")
    if not (0 <= mode_index < control.n_modes):
        raise DomainError(f"mode_index out of range [0, {control.n_modes})")
    if len(freqs) == 0:
        raise DomainError("weak continuity needs at least one frequency")
    base = solve_skeleton(model, u0, control)
    t_mid = tg.midpoints()
    errors = []
    for n in freqs:
        if perturbation == "oscillatory" and n >= tg.n_steps / 2:
            raise DomainError(
                f"oscillation frequency {n} is unresolvable on {tg.n_steps} steps (aliasing)"
            )
        vals = control.values.copy()
        if perturbation == "oscillatory":
            vals[:, mode_index] += amplitude * np.sin(2.0 * np.pi * n * t_mid / tg.horizon)
        else:
            vals[:, mode_index] += amplitude
        sol = solve_skeleton(model, u0, Control(tg, vals))
        errors.append(
            path_distance(model.grid, tg, sol.trajectory, base.trajectory, model.drift.p)
        )
    return WeakLimitCurve(freqs=[int(n) for n in freqs], errors=errors, perturbation=perturbation)
