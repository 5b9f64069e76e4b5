"""Action functional, rate minimization, level sets, and Hausdorff geometry.

The rate of a path phi from u0 is the cheapest control steering the
deterministic solver along it,

    I(phi) = inf { (1/2) int_0^T sum_k v_k(t)^2 dt : u_v = phi },

with inf over the empty set = +infinity. Over the discretized control matrix
the infimum becomes a finite-dimensional penalty problem

    J_mu(v) = action(v) + mu * dist^2(u_v, target),

solved at each fixed mu by one L-BFGS run (``_Solver.run``), with gradients
from the adjoint of the discrete forward scheme, inside a doubling
continuation on mu (``_penalty_continuation``). Returned values are upper bounds on
the discretized rate; non-convergence of the residual across continuations is
the +infinity branch surfacing.

The forward map here is the deterministic solver itself (same code path), so
rate results compose exactly with the skeleton and Monte Carlo modules.

The lab's own L-BFGS, ``fracldp.lbfgs``, is numpy alone. It is imported
inside ``_Solver.run``, where it runs, and nowhere at module level:
importing this module (and so every ``fracldp`` subcommand) does not compile
it, and a solve whose start is already inside tolerance never does either.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .grids import DomainError, Field, GridMismatchError, array_l2_sq
from .grids import NON_NEGATIVE, POSITIVE, POSITIVE_OR_INF, at_least, check_ranges, check_value
from .models import ModelSpec
from .skeleton import (
    BlowUpError,
    Control,
    StepKernel,
    TimeGrid,
    distance_weights,
    path_distance,
    solve_skeleton,
)
from .skeleton import forward_states as _forward_states


def action(v: Control) -> float:
    """(1/2) sum_n |v_n|^2 dt — the quadratic control cost; 0 iff v = 0."""
    return 0.5 * v.l2_sq()


def g0_map(model: ModelSpec, u0: Field, v: Control, tg: Optional[TimeGrid] = None) -> np.ndarray:
    """Trajectory of the deterministic solution map at control v.

    Same code path as solve_skeleton (definitional). The abstract solution map
    is 0 on driving inputs that are not integrals of square-integrable
    controls; piecewise-constant controls always are, so that branch is
    unreachable in this representation.
    """
    return solve_skeleton(model, u0, v, tg).trajectory


@dataclass(frozen=True)
class OptimizerSettings:
    """Budgets and the residual tolerance of one penalty continuation."""

    max_iters: int = 400
    max_continuations: int = 16
    residual_tol: float = 1e-4

    RANGES: ClassVar[dict] = {
        "max_iters": at_least(1),
        "max_continuations": at_least(1),
        "residual_tol": POSITIVE,
    }

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass
class RateQuery:
    """Target specification for rate evaluation: a full path or an endpoint."""

    u0: Field
    target_path: Optional[np.ndarray] = None
    target_endpoint: Optional[Field] = None
    tau_end: float = 1e-3
    settings: OptimizerSettings = dc_field(default_factory=OptimizerSettings)

    RANGES: ClassVar[dict] = {"tau_end": POSITIVE}

    def __post_init__(self) -> None:
        if (self.target_path is None) == (self.target_endpoint is None):
            raise DomainError("exactly one of target_path / target_endpoint is required")
        check_ranges(self)

    @property
    def mode(self) -> str:
        return "path" if self.target_path is not None else "endpoint"


@dataclass
class RateResult:
    value: float
    minimizer: Optional[Control]
    residual: float
    converged: bool
    iterations: int
    penalty: float


# radius per side of constrained_rate_minimum: inf is the whole space, whose complement is empty
BALL_RADIUS = {"inside": POSITIVE_OR_INF, "outside": POSITIVE}

_RETREAT = 1.0e12  # objective value handed to the line search when a probe blows up
_PENALTY0 = 10.0  # mu of the first continuation
_GRADIENT_TOL = 1e-9  # L-BFGS stops once max|gradient| is at most this


def _apply_propagator(kernel: StepKernel, lam: np.ndarray) -> np.ndarray:
    """The integrating-factor operator; real-symmetric, hence self-adjoint.

    The costate sweep applies it this way only on grids too large for
    ``kernel.propagator_matrix``. ``_stepwise_least_squares`` always applies
    it this way: its controls reach the bytes of the path-query records, and
    the dense matrix would move them by roundoff.
    """
    hat = kernel.rfft(lam)
    hat *= kernel.half_propagator
    return kernel.irfft(hat)


def _has_exact_gradients(model: ModelSpec) -> bool:
    probe = np.zeros(model.grid.shape)
    if model.drift.deriv(0.0, tuple(model.grid.coords()), probe) is None:
        return False
    return model.noise.separable or model.noise.sigma2_deriv_callback is not None


def _smooth_distance(grid, tg, kind, ref):
    """``(dist_sq, w, D)`` of a ``distance_weights`` kind to ``ref``, a path or
    a field held over time: ``dist_sq(states)`` gives d^2 and the differences
    u_k - ref_k, and d(d^2)/du_k = (2 cv w_k / D)(u_k - ref_k). Only slices
    of positive weight are squared, so none turns an overflow into 0*inf =
    NaN; a d^2 that overflows reads +inf silently, as in ``batch_distances``."""
    w, norm = distance_weights(kind, tg)
    on = np.flatnonzero(w)

    def dist_sq(states):
        diffs = states - ref
        sq = np.zeros(len(w))
        with np.errstate(over="ignore", invalid="ignore"):
            sq[on] = array_l2_sq(grid, diffs[on])
            return float(np.sum(w * sq)) / norm, diffs

    return dist_sq, w, norm


def _quadratic_penalty(grid, tg, kind, ref):
    """mu d^2 for the smooth distance ``kind`` to ``ref`` and its state partials
    mu d(d^2)/du; the residual is d."""
    dist_sq, w, norm = _smooth_distance(grid, tg, kind, ref)
    coef = (2.0 * grid.cell_volume * w / norm).reshape(-1, *([1] * grid.dim))

    def penalty(states, mu):
        d_sq, diffs = dist_sq(states)
        return mu * d_sq, mu * (coef * diffs), float(np.sqrt(d_sq))

    return penalty


def _hinge_penalty(grid, tg, phi_ref, radius, mode):
    """``(penalty, dist_sq)``: mu gap^2 for the ball constraint of
    ``constrained_rate_minimum``, and the ``_smooth_distance`` "l2rms" d^2 to ``phi_ref``.

    The residual is the gap, max(0, d - 0.95 radius) inside and
    max(0, 1.05 radius - d) outside. Its state partials are s gap/d times
    those of d^2, s = +1 inside (d too big) and -1 outside (d too small), and
    zero where the gap is zero or on the reference, where d has no gradient.
    """
    dist_sq, w, norm = _smooth_distance(grid, tg, "l2rms", phi_ref)
    sgn = 1.0 if mode == "inside" else -1.0

    def penalty(states, mu):
        d_sq, diffs = dist_sq(states)
        d = float(np.sqrt(d_sq))
        gap = max(0.0, d - 0.95 * radius) if mode == "inside" else max(0.0, 1.05 * radius - d)
        if gap > 0.0 and d > 0.0:
            scale = 2.0 * mu * gap * sgn * grid.cell_volume / (norm * d)
            return mu * gap**2, (scale * w).reshape(-1, *([1] * grid.dim)) * diffs, gap
        return mu * gap**2, np.zeros_like(states), gap

    return penalty, dist_sq


def _linearize(model: ModelSpec, kernel: StepKernel, states: np.ndarray, weights: np.ndarray):
    """State-only factors of the costate recursion at u_0..u_{N-1}, all steps at once.

    Returns ``jac``, the (n_steps, *grid.shape) stack of J_n, and ``sig2``, the
    (n_steps, K, S) stack of kappa*sigma2_k(t_n, u_n) at the S points of
    kappa's support (elsewhere a mode is its state-free sigma1_k). Built-in
    drifts and separable noise ignore t, so each is one call on the whole
    stack; callbacks take a scalar t, so they are called once per step at its
    own t_n.
    """
    tg = kernel.timegrid
    dt = tg.dt
    drift, noise = model.drift, model.noise
    u = states[:-1]
    ts = tg.times()[:-1]

    def per_step(fn):
        return np.stack([np.broadcast_to(np.asarray(fn(t, u_n), dtype=float), u_n.shape)
                         for t, u_n in zip(ts, u)])

    if drift.form == "custom-callback":
        f = per_step(lambda t, u_n: drift.value(t, kernel.coords, u_n))
        fprime = per_step(lambda t, u_n: drift.deriv(t, kernel.coords, u_n))
    else:
        f, fprime = drift.value(0.0, kernel.coords, u), drift.deriv(0.0, kernel.coords, u)
    jac = 1.0 - dt * fprime / (1.0 + dt * np.abs(f)) ** 2

    idx, kappa_on_support = noise.kappa_support
    if noise.separable:  # sigma2_k = sqrt(gamma_k) s(u)
        u_s = u.reshape(tg.n_steps, -1)[:, idx]
        root = noise.root_gamma[:, None]
        sig2 = root * (kappa_on_support * noise.profile(u_s))[:, None, :]
        dsig2 = root * (kappa_on_support * noise.profile_deriv(u_s))[:, None, :]
    else:
        def on_support(mode):  # mode(t, k, u) at every step and mode
            stack = np.stack([per_step(lambda t, u_n: mode(t, k, u_n)) for k in range(noise.n_modes)], axis=1)
            return kappa_on_support * stack.reshape(tg.n_steps, noise.n_modes, -1)[..., idx]

        sig2, dsig2 = on_support(noise.sigma2_mode), on_support(noise.sigma2_mode_deriv)
    jac.reshape(tg.n_steps, -1)[:, idx] += np.einsum("nk,nks->ns", weights, dsig2)
    return jac, sig2


def _adjoint_grad(model, kernel, states, weights, dpen) -> np.ndarray:
    """Backward costate sweep for d(target term)/dv given its state partials.

    The forward step is u_{n+1} = E[u_n + dt(g - f/(1+dt|f|)) + sigma(u_n) w_n]
    with E the (self-adjoint) integrating factor, so the costate recursion is

        lam_n = J_n * (E lam_{n+1}) + dpen_n,
        J_n   = 1 - dt f'(u_n)/(1+dt|f(u_n)|)^2 + sum_k w_nk kappa sigma2_k'(u_n),

    and the returned (n_steps, K) array is dt <sigma_k(u_n), E lam_{n+1}>_grid
    — the target term's gradient in v (the action term adds dt v separately).

    J_n and sigma_k(u_n) depend on the forward states only, so the sweep runs
    in two phases: ``_linearize`` builds them for every step at once, and the
    backward loop keeps only the propagator and the recursion on flattened
    fields, storing each E lam_{n+1}; the gradient is then two contractions
    over that stack.

    E is applied in one of two ways, which agree to roundoff (a relative
    1e-15): as one product ``lam @ kernel.propagator_matrix`` per step on
    grids of at most ``skeleton.DENSE_FACTOR_MAX_POINTS`` points, and as the
    kernel's transform pair in ``_apply_propagator`` on larger grids.
    """
    tg = kernel.timegrid
    noise = model.noise
    jac, sig2 = _linearize(model, kernel, states, weights)
    matrix = kernel.propagator_matrix
    jac = jac.reshape(tg.n_steps, -1)
    dpen = dpen.reshape(tg.n_steps + 1, -1)
    e_flat = np.empty_like(jac)
    lam = dpen[tg.n_steps]
    for e, j, d in zip(e_flat[::-1], jac[::-1], dpen[-2::-1]):
        if matrix is None:
            e[:] = _apply_propagator(kernel, lam.reshape(model.grid.shape)).ravel()
        else:
            np.matmul(lam, matrix, out=e)
        lam = j * e + d
    grad = e_flat @ noise.sigma1_flat.T
    # in the column-major layout a fancy index gives: einsum's rounding depends on it
    grad += np.einsum("nks,ns->nk", sig2, np.asfortranarray(e_flat[:, noise.kappa_support[0]]))
    return tg.dt * grad


def _objective_and_grad(model, kernel, states_at, flat_v, mu, penalty, exact=True):
    """J_mu(v) = action(v) + mu pen(u_v) and its gradient, from one forward sweep.

    ``states_at(weights)`` returns the forward states u_0..u_N at the mode
    weights dt v, from a ``_forward_states`` sweep (``skeleton.forward_states``
    with no guard) or a memo of one, and raises BlowUpError when the sweep
    leaves the finite range.
    ``penalty(states, mu) -> (mu pen, dpen, residual)`` reads those states:
    ``dpen`` is d(mu pen)/d(states), and the residual is the constraint
    violation the continuation drives below its tolerance, the same at every
    mu. Returns ``(J, dJ/dv or None)``; the gradient is None unless
    ``exact``, and the adjoint sweep is skipped when ``dpen`` is all zero.
    """
    tg = kernel.timegrid
    v = flat_v.reshape(tg.n_steps, model.noise.n_modes)
    weights = tg.dt * v
    states = states_at(weights)
    pen, dpen, _ = penalty(states, mu)
    value = 0.5 * tg.dt * float(np.sum(v**2)) + pen
    if not exact:
        return value, None
    grad_v = tg.dt * v
    if dpen.any():
        grad_v = grad_v + _adjoint_grad(model, kernel, states, weights, dpen)
    return value, grad_v.reshape(-1)


def _stepwise_least_squares(model: ModelSpec, kernel: StepKernel, target_path: np.ndarray) -> np.ndarray:
    """Minimum-norm control matching a path target step by step.

    A path constraint pins every intermediate state, so the transition at step
    n only involves that step's weights: solve the K-column least squares
    || E(sigma(phi_n)) w - (phi_{n+1} - E base_n) || per step. For targets in
    the range of the forward map this is exact (and action-minimal among exact
    matches); otherwise it is the greedy tracker — either way a warm start the
    penalty continuation then polishes.
    """
    tg = kernel.timegrid
    dt = tg.dt
    ts = tg.times()
    coords = kernel.coords
    v = np.empty((tg.n_steps, model.noise.n_modes))
    for n in range(tg.n_steps):
        phi_n = target_path[n]
        f = np.asarray(model.drift.value(ts[n], coords, phi_n), dtype=float)
        base = phi_n + dt * (model.forcing.value(ts[n]) - f / (1.0 + dt * np.abs(f)))
        # sigma_k(phi_n) and base through the propagator in one batched pair
        fields = _apply_propagator(kernel, np.concatenate([model.noise.mode_values(ts[n], phi_n), base[None]]))
        cols = fields[:-1].reshape(model.noise.n_modes, -1).T
        rhs = (target_path[n + 1] - fields[-1]).ravel()
        w, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        v[n] = w / dt
    return v


class _Solver:
    """The penalized problem J_mu(z) = action(z) + mu pen(u_z) of one datum.

    ``penalty`` follows the ``_objective_and_grad`` contract. This is the one
    place that picks exact (adjoint) or numeric gradients
    (``lbfgs.forward_difference``, d + 1 sweeps per gradient), that turns a
    BlowUpError or a non-finite objective into a steep retreat for the line
    search, and that reads residuals: +inf where the sweep blows up or the
    residual is not finite, so a NaN never meets a tolerance.

    Every sweep goes through a one-entry memo: the weights bytes of the last
    swept point and its forward states, or the BlowUpError it raised. Only a
    miss runs ``_forward_states``. Objectives, residuals and the callers'
    start checks all read it, so a start point is swept once for its check
    and its residual, and the first evaluation of each L-BFGS run, which
    begins where the last sweep ended with only mu changed, is free.
    """

    def __init__(self, model, kernel, u0, penalty):
        self.model, self.kernel, self.u0, self.penalty = model, kernel, u0, penalty
        self.exact = _has_exact_gradients(model)
        self._memo = (None, None)

    def states_at(self, weights):
        key = weights.tobytes()
        if self._memo[0] != key:
            try:
                states, _ = _forward_states(self.model, self.kernel, self.u0, weights)
                states.setflags(write=False)  # every reader shares it
            except BlowUpError as exc:
                states = exc
            self._memo = key, states
        if isinstance(self._memo[1], BlowUpError):
            raise self._memo[1].with_traceback(None)
        return self._memo[1]

    def states_of(self, z):
        tg = self.kernel.timegrid
        return self.states_at(tg.dt * z.reshape(tg.n_steps, -1))

    def residual(self, z) -> float:
        try:
            res = self.penalty(self.states_of(z), 1.0)[2]  # the same at every mu
        except BlowUpError:
            return float("inf")
        return res if np.isfinite(res) else float("inf")

    def run(self, mu, x, max_iters):
        """One ``lbfgs.minimize`` run of J_mu from x."""
        def fun(z):
            try:
                val, grad = _objective_and_grad(
                    self.model, self.kernel, self.states_at, z, mu, self.penalty, self.exact)
            except BlowUpError:
                val = float("inf")
            if not np.isfinite(val):  # a steep retreat toward smaller controls
                val, grad = _RETREAT * (1.0 + float(z @ z)), 2.0 * _RETREAT * z
            return (val, grad) if self.exact else val

        from . import lbfgs  # deferred: compiled only when a solve iterates

        return lbfgs.minimize(fun if self.exact else lbfgs.forward_difference(fun), x, max_iters, _GRADIENT_TOL)


def _start(tg: TimeGrid, n_modes: int, warm_start: Optional[Control]) -> np.ndarray:
    """The flattened warm start, checked against the control shape, or zeros."""
    if warm_start is None:
        return np.zeros(tg.n_steps * n_modes)
    if warm_start.values.shape != (tg.n_steps, n_modes):
        raise GridMismatchError("warm start control has the wrong shape")
    return warm_start.values.reshape(-1)


def _penalty_continuation(solver: _Solver, x, res, tol, st) -> RateResult:
    """The doubling penalty continuation behind every rate minimizer.

    Drives the residual of ``solver`` below ``tol`` from the start x, whose
    residual is ``res``. Each continuation runs ``solver.run`` from the
    previous iterate, doubles mu, and keeps the best-residual iterate seen;
    the start counts, so a feasible warm start is never lost to a
    low-penalty wander. Three continuations without a 1% gain end the run as
    infeasible. Converged results carry the minimizer's action as value, the
    rest +inf.
    """
    mu = _PENALTY0
    best = (res, x.copy(), mu)
    stall = total_iters = 0
    for _ in range(st.max_continuations if res > tol else 0):
        sol = solver.run(mu, x, st.max_iters)
        x = sol.x
        total_iters += int(sol.nit)
        res = solver.residual(x)
        if res < best[0]:
            stall = 0 if res < 0.99 * best[0] else stall + 1
            best = (res, x.copy(), mu)
        else:
            stall += 1
        if res <= tol or stall >= 3:  # three flat continuations: infeasible regime
            break
        mu *= 2.0

    res, x, mu = best
    tg = solver.kernel.timegrid
    converged = bool(res <= tol)
    v = Control(tg, x.reshape(tg.n_steps, -1)) if converged else None
    return RateResult(
        value=action(v) if converged else float("inf"), minimizer=v, residual=res,
        converged=converged, iterations=total_iters, penalty=mu,
    )


def minimize_rate(
    model: ModelSpec,
    query: RateQuery,
    tg: TimeGrid,
    warm_start: Optional[Control] = None,
) -> RateResult:
    """Penalty-continuation minimization of the discretized rate.

    Doubles the penalty until the residual meets tolerance or the continuation
    budget runs out, minimizing each penalized objective with the lab's
    L-BFGS (``lbfgs.minimize``). The result's ``value`` is an upper bound on
    the discretized rate when ``converged``; otherwise value is +inf with the
    best residual reached — the empty-infimum branch. The residual is a
    ``skeleton.distance_weights`` kind: "terminal" for endpoint queries, held
    to ``query.tau_end``; "uniform" for path queries, held to
    ``settings.residual_tol``, and not the "l2rms" of
    ``constrained_rate_minimum`` and the Monte Carlo set events. The start is
    ``warm_start``, else zero or, on a path, the stepwise least squares when
    its residual is no larger.
    """
    grid = model.grid
    if query.u0.grid != grid:
        raise GridMismatchError("query initial datum grid does not match the model")
    if query.mode == "path":
        target_path = np.asarray(query.target_path, dtype=float)
        if target_path.shape != (tg.n_steps + 1, *grid.shape):
            raise GridMismatchError(
                f"target path must have shape {(tg.n_steps + 1, *grid.shape)}, got {target_path.shape}"
            )
        start_gap = float(np.sqrt(array_l2_sq(grid, target_path[0] - query.u0.values)))
        if start_gap > 1e-9:
            raise DomainError(f"target path starts {start_gap:.3e} away from u0 (limit 1e-9)")
        penalty = _quadratic_penalty(grid, tg, "uniform", target_path)
        tol = query.settings.residual_tol
    else:
        if query.target_endpoint.grid != grid:
            raise GridMismatchError("endpoint target grid does not match the model")
        penalty = _quadratic_penalty(grid, tg, "terminal", query.target_endpoint.values)
        tol = query.tau_end

    kernel = StepKernel.build(model, tg)
    solver = _Solver(model, kernel, query.u0, penalty)
    x = _start(tg, model.noise.n_modes, warm_start)
    res = solver.residual(x)
    if warm_start is None and query.mode == "path":
        # reachable paths are solved outright by the stepwise least squares;
        # the continuation then only has to certify (or polish) it. It is
        # swept last, so the memo holds it when L-BFGS starts there.
        ls = _stepwise_least_squares(model, kernel, target_path).reshape(-1)
        if np.all(np.isfinite(ls)) and (ls_res := solver.residual(ls)) <= res:
            x, res = ls, ls_res
    return _penalty_continuation(solver, x, res, tol, query.settings)


def check_gradient(
    model: ModelSpec, u0: Field, tg: TimeGrid, seed: int = 0, scale: float = 0.3
) -> float:
    """Max relative error of the adjoint gradient vs central differences.

    Cross-validation utility: the optimizer trusts the adjoint for built-in
    model forms, and this compares it against the finite-difference fallback
    on a random control. A model without exact gradients (a callback with no
    derivative) has no adjoint to check: DomainError, not a NaN that every
    ``err > tol`` guard would let pass.
    """
    if not _has_exact_gradients(model):
        raise DomainError("model has no exact gradients: no adjoint to check")
    rng = np.random.default_rng(seed)
    kernel = StepKernel.build(model, tg)
    v = scale * rng.standard_normal(tg.n_steps * model.noise.n_modes)
    zero_path = g0_map(model, u0, Control.zero(tg, model.noise.n_modes))
    penalty = _quadratic_penalty(model.grid, tg, "uniform", zero_path)
    sweep = _Solver(model, kernel, u0, penalty).states_at
    _, grad = _objective_and_grad(model, kernel, sweep, v, 5.0, penalty)
    num = np.empty_like(v)
    h = 1e-6
    for i in range(v.size):
        vp = v.copy()
        vp[i] += h
        vm = v.copy()
        vm[i] -= h
        fp = _objective_and_grad(model, kernel, sweep, vp, 5.0, penalty, False)[0]
        fm = _objective_and_grad(model, kernel, sweep, vm, 5.0, penalty, False)[0]
        num[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.abs(num), 1e-8)
    return float(np.max(np.abs(grad - num) / denom))


# ---------------------------------------------------------------------------
# level sets


@dataclass
class LevelSet:
    """Finite sample of the action sub-level set {I <= s} from one datum."""

    u0: Field
    s: float
    controls: list
    trajectories: list
    timegrid: TimeGrid

    def __post_init__(self) -> None:
        if not self.controls:
            raise DomainError("level set needs at least one member")
        for c in self.controls:
            if action(c) > self.s + 1e-9:
                raise DomainError("level set member exceeds the action budget")

    def __len__(self) -> int:
        return len(self.controls)


def level_set_controls(
    model: ModelSpec, s: float, n_samples: int, tg: TimeGrid, seed: int = 0
) -> list[Control]:
    """Controls uniform on the action ball {action <= s}.

    In the flattened coefficient space the set is the ball of radius
    sqrt(2 s / dt), sampled as a Gaussian direction times radius * U^(1/d).
    s = 0 degenerates to the single zero control.
    """
    check_value("s", s, NON_NEGATIVE)
    check_value("n_samples", n_samples, at_least(1))
    if s == 0.0:
        return [Control.zero(tg, model.noise.n_modes)]
    dim = tg.n_steps * model.noise.n_modes
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    )
    radius = np.sqrt(2.0 * s / tg.dt)
    controls = []
    for _ in range(n_samples):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / dim)
        controls.append(Control(tg, (r * direction).reshape(tg.n_steps, model.noise.n_modes)))
    return controls


def sample_level_set(
    model: ModelSpec,
    u0: Field,
    s: float,
    n_samples: int,
    tg: TimeGrid,
    seed: int = 0,
    controls: Optional[Sequence[Control]] = None,
) -> LevelSet:
    """``level_set_controls`` mapped through the solution operator.

    Passing ``controls`` overrides sampling (paired experiments reuse one draw
    across data).
    """
    check_value("s", s, NON_NEGATIVE)
    if controls is None:
        controls = level_set_controls(model, s, n_samples, tg, seed)
    trajectories = [solve_skeleton(model, u0, c, tg).trajectory for c in controls]
    return LevelSet(
        u0=u0, s=s, controls=list(controls), trajectories=trajectories, timegrid=tg
    )


def hausdorff_distance(a: LevelSet, b: LevelSet, p: float) -> float:
    """Symmetric Hausdorff distance between sampled trajectory sets."""
    if not a.trajectories or not b.trajectories:
        raise DomainError("Hausdorff distance needs non-empty sets")
    if a.timegrid != b.timegrid:
        raise GridMismatchError("level sets live on different time grids")
    grid = a.u0.grid
    tg = a.timegrid
    # one transform per trajectory, not one per pair
    hats_a, hats_b = (np.fft.rfftn(np.stack(s.trajectories), axes=tuple(range(-grid.dim, 0)))
                      for s in (a, b))
    d = np.empty((len(a.trajectories), len(b.trajectories)))
    for i, ta in enumerate(a.trajectories):
        for j, tb in enumerate(b.trajectories):
            d[i, j] = path_distance(grid, tg, ta, tb, p, hats=(hats_a[i], hats_b[j]))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass
class ContinuityCurve:
    """Level-set Hausdorff distance against initial-datum perturbation size."""

    deltas: list
    distances: list
    bound_values: list  # shape of the continuity bound, ||du0|| + ||du0||^(p/2)
    c1: float
    passed: bool

    def as_rows(self):
        for d, h, bv in zip(self.deltas, self.distances, self.bound_values):
            yield {"delta": d, "hausdorff": h, "bound_shape": bv}


def level_set_continuity_experiment(
    model: ModelSpec,
    u0: Field,
    perturbation: Field,
    deltas: Sequence[float],
    s: float,
    tg: TimeGrid,
    n_samples: int = 24,
    seed: int = 0,
) -> ContinuityCurve:
    """Hausdorff sensitivity of the level set to the initial datum.

    Uses one shared control sample for every perturbed set (paired sampling),
    so the measured distance isolates initial-data sensitivity: delta = 0
    gives exactly 0. Pass verdict: distances non-increasing as the deltas
    shrink (give them in decreasing order), and exactly 0 at delta = 0 when
    included. ``c1`` is the smallest constant with
    distance <= c1 * (||du0|| + ||du0||^(p/2)) across the sweep.
    """
    if any(d < 0 for d in deltas):
        raise DomainError("perturbation sizes must be non-negative")
    if list(deltas) != sorted(deltas, reverse=True):
        raise DomainError("deltas must be given in decreasing order")
    if perturbation.grid != model.grid:
        raise GridMismatchError("perturbation grid does not match the model")
    base = sample_level_set(model, u0, s, n_samples, tg, seed=seed)
    p = model.drift.p
    distances = []
    bound_values = []
    ratios = []
    for d in deltas:
        pert = Field(model.grid, u0.values + d * perturbation.values)
        shifted = sample_level_set(model, pert, s, n_samples, tg, controls=base.controls)
        h = hausdorff_distance(base, shifted, p)
        dn = float(np.sqrt(array_l2_sq(model.grid, d * perturbation.values)))
        shape = dn + dn ** (p / 2.0)
        distances.append(h)
        bound_values.append(shape)
        if shape > 0:
            ratios.append(h / shape)
    c1 = max(ratios) if ratios else 0.0
    monotone = all(
        distances[i + 1] <= distances[i] + 1e-12 for i in range(len(distances) - 1)
    )
    exact_zero = (0.0 not in list(deltas)) or distances[list(deltas).index(0.0)] == 0.0
    return ContinuityCurve(
        deltas=[float(d) for d in deltas],
        distances=distances,
        bound_values=bound_values,
        c1=c1,
        passed=monotone and exact_zero,
    )


# ---------------------------------------------------------------------------
# ball-constrained rate minima (for set-indexed probability bounds)


def constrained_rate_minimum(
    model: ModelSpec,
    u0: Field,
    phi_ref: np.ndarray,
    radius: float,
    mode: str,
    tg: TimeGrid,
    settings: Optional[OptimizerSettings] = None,
    warm_start: Optional[Control] = None,
) -> RateResult:
    """Smallest action subject to the path lying inside/outside a ball.

    The ball is {dist(u_v, phi_ref) < radius} in the "l2rms" distance (the
    smooth norm the Monte Carlo summaries also report), and the constraint
    enters as a doubled hinge penalty: inside mode penalizes
    max(0, dist - 0.95 radius)^2, outside mode max(0, 1.05 radius - dist)^2 —
    the 5% interior margin keeps minimizers strictly off the boundary so
    membership survives sampling and discretization jitter. ``radius`` is
    checked against ``BALL_RADIUS[mode]``: inside mode takes inf (the whole
    space), outside mode only finite radii. An outside-mode start on phi_ref
    itself, where the distance has no gradient, first takes a fixed nudge.
    """
    if mode not in BALL_RADIUS:
        raise DomainError(f"mode must be 'inside' or 'outside', got {mode!r}")
    check_value("radius", radius, BALL_RADIUS[mode])
    st = settings or OptimizerSettings()
    x = _start(tg, model.noise.n_modes, warm_start)
    phi_ref = np.asarray(phi_ref, dtype=float)
    if phi_ref.shape != (tg.n_steps + 1, *model.grid.shape):
        raise GridMismatchError("reference trajectory shape mismatch")

    penalty, dist_sq = _hinge_penalty(model.grid, tg, phi_ref, radius, mode)
    solver = _Solver(model, StepKernel.build(model, tg), u0, penalty)
    if mode == "outside":
        try:
            on_ref = np.sqrt(dist_sq(solver.states_of(x))[0]) < 1e-12
        except BlowUpError:
            on_ref = False
        if on_ref:
            x = x + 1e-2 * np.random.Generator(np.random.Philox(99)).standard_normal(x.size)
    return _penalty_continuation(solver, x, solver.residual(x), st.residual_tol, st)
