"""Reaction-diffusion model specifications and structural-condition validators.

A model couples a dissipative polynomial drift F(t, x, u), a multiplicative
noise family sigma_k(t, x, u) = sigma1_k(t, x) + kappa(x)*sigma2_k(t, x, u),
and a deterministic forcing g. The admissibility conditions are quantitative:

drift (exponent p > 2, constants lambda1, lambda2 > 0, bounded psi_i):
  (coercivity)  F(t,x,u)*u >= lambda1*|u|^p - psi1
  (growth)      |F(t,x,u)| <= psi2*|u|^(p-1) + psi3
  (monotone)    (F(u1)-F(u2))*(u1-u2) >=
                    lambda2*(|u1|^(p-2)u1 - |u2|^(p-2)u2)*(u1-u2) - psi4*(u1-u2)^2

noise (exponent q in [2, 1+p/2], per-mode coefficients alpha_k, beta_k, gamma_k):
  (lipschitz)   |s2_k(u1)-s2_k(u2)|^2 <= alpha_k*(1+|u1|^(q-2)+|u2|^(q-2))*(u1-u2)^2
  (growth)      |s2_k(u)|^2 <= beta_k + gamma_k*|u|^q
  (summable)    sum_k (alpha_k + beta_k + gamma_k) < infinity (finite family +
                declared tail bound for the idealized series)

Validators sample these conditions densely, report worst margins with
witnesses, and compute the derived Hilbert-Schmidt growth/Lipschitz constants
used by the energy estimates downstream. Margins are normalized by the local
magnitude scale so float cancellation at |u| ~ 1e3 cannot masquerade as a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, ClassVar, Optional

import numpy as np

from .grids import DomainError, Field, GridMismatchError, GridSpec, lp_norm
from .grids import NON_NEGATIVE, POSITIVE, Range, at_least, check_ranges, check_value, is_num

DRIFT_FORMS = ("cubic_minus_linear", "pure_power", "custom-callback")
NOISE_FORMS = ("smooth_power", "saturated_power", "custom-callback")
FORCING_FORMS = ("zero", "bump", "custom-callback")


class ConditionError(ValueError):
    """Raised when a spec is structurally inconsistent (not merely uncertified)."""


def signed_power(u: np.ndarray, exponent: float) -> np.ndarray:
    """sign(u)*|u|^exponent, the odd power map."""
    return np.sign(u) * np.abs(u) ** exponent


def smooth_bump(grid: GridSpec, radius: float, amplitude: float = 1.0) -> Field:
    """Compactly supported mollifier bump: amplitude*exp(1 - 1/(1-(r/radius)^2)).

    Support is the open ball |x| < radius; infinitely differentiable.
    """
    check_value("radius", radius, POSITIVE)
    r = np.zeros(grid.shape)
    for c in grid.coords():
        r = r + c**2
    r = np.sqrt(r)
    s = np.clip(r / radius, 0.0, 1.0 - 1e-12)
    vals = np.where(r < radius, amplitude * np.exp(1.0 - 1.0 / (1.0 - s**2)), 0.0)
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# drift


@dataclass(frozen=True)
class DriftSpec:
    """Reaction term F(t, x, u) with its certificate constants.

    Built-in forms:
      * ``cubic_minus_linear``: F(u) = u^3 - u (p = 4); certified with
        lambda1 = 1/2, psi1 = 1/2 (since u^4 - u^2 >= u^4/2 - 1/2),
        psi2 = psi3 = 1, lambda2 = 1, psi4 = 1.
      * ``pure_power``: F(u) = |u|^(p-2) u; lambda1 = lambda2 = 1, psi_i = 0
        except psi2 = 1.
      * ``custom-callback``: user callable ``f(t, coords, u)`` (vectorized in
        u), optional derivative ``df(t, coords, u)`` for adjoint gradients.
    """

    form: str = "cubic_minus_linear"
    p: float = 4.0
    lambda1: float = 0.5
    lambda2: float = 1.0
    psi1_bound: float = 0.5
    psi2_bound: float = 1.0
    psi3_bound: float = 1.0
    psi4_bound: float = 1.0
    callback: Optional[Callable] = None
    deriv_callback: Optional[Callable] = None

    RANGES: ClassVar[dict] = {
        "p": Range(lambda v: is_num(v) and v > 2, "float > 2"),
        "lambda1": POSITIVE,
        "lambda2": POSITIVE,
        **{f"psi{i}_bound": NON_NEGATIVE for i in range(1, 5)},
    }

    def __post_init__(self) -> None:
        if self.form not in DRIFT_FORMS:
            raise ConditionError(f"unknown drift form {self.form!r}; expected one of {DRIFT_FORMS}")
        check_ranges(self, ConditionError)
        if self.form == "cubic_minus_linear" and self.p != 4.0:
            raise ConditionError("cubic_minus_linear is a p = 4 drift")
        if self.form == "custom-callback" and self.callback is None:
            raise ConditionError("custom-callback drift requires a callback")

    def value(self, t: float, coords, u: np.ndarray) -> np.ndarray:
        if self.form == "cubic_minus_linear":
            return u * u * u - u
        if self.form == "pure_power":
            return signed_power(u, self.p - 1.0)
        return self.callback(t, coords, u)

    def deriv(self, t: float, coords, u: np.ndarray) -> Optional[np.ndarray]:
        """dF/du, or None when a custom drift ships no derivative."""
        if self.form == "cubic_minus_linear":
            return 3.0 * (u * u) - 1.0
        if self.form == "pure_power":
            return (self.p - 1.0) * np.abs(u) ** (self.p - 2.0)
        if self.deriv_callback is not None:
            return self.deriv_callback(t, coords, u)
        return None


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """Mode family sigma_k(t,x,u) = sigma1_k(x) + kappa(x)*sigma2_k(t,x,u).

    Built-in sigma2 forms are separable, sigma2_k(u) = sqrt(gamma_k)*s(u):
      * ``smooth_power``: s(u) = sign(u)|u|^(q/2) — pure superlinear growth.
      * ``saturated_power``: s(u) = sign(u)*phi/(1+saturation*phi) with
        phi = |u|^(q/2) — same local growth, bounded at infinity.
    Both satisfy |s(u)|^2 <= |u|^q, so the growth condition holds with margin
    beta_k for any declared positive coefficients, and the local Lipschitz
    condition holds with alpha_k >= gamma_k*max(1, q^2/4).

    ``custom-callback`` supplies ``s2(t, coords, u, k)`` (vectorized in u) and
    optionally ``ds2(t, coords, u, k)``.

    ``tail_bound`` declares sum_{k >= K}(alpha+beta+gamma) of the idealized
    infinite family this finite spec truncates.
    """

    grid: GridSpec
    n_modes: int
    q: float
    kappa: Field
    sigma1: np.ndarray = dc_field(repr=False)  # (K, *grid.shape), time-constant
    coeff_alpha: np.ndarray = dc_field(repr=False)
    coeff_beta: np.ndarray = dc_field(repr=False)
    coeff_gamma: np.ndarray = dc_field(repr=False)
    form: str = "saturated_power"
    saturation: float = 0.1
    sigma2_callback: Optional[Callable] = None
    sigma2_deriv_callback: Optional[Callable] = None
    tail_bound: float = 0.0

    RANGES: ClassVar[dict] = {
        "n_modes": at_least(1),
        "q": Range(lambda v: is_num(v) and v >= 2, "float >= 2"),
        # every form carries it, and only a positive one bounds the saturated profile
        "saturation": POSITIVE,
        "tail_bound": NON_NEGATIVE,
    }

    def __post_init__(self) -> None:
        if self.form not in NOISE_FORMS:
            raise ConditionError(f"unknown noise form {self.form!r}; expected one of {NOISE_FORMS}")
        check_ranges(self, ConditionError)
        if self.kappa.grid != self.grid:
            raise GridMismatchError("kappa lives on a different grid")
        sig1 = np.asarray(self.sigma1, dtype=float)
        if sig1.shape != (self.n_modes, *self.grid.shape):
            raise GridMismatchError(
                f"sigma1 must have shape (K, *grid.shape) = {(self.n_modes, *self.grid.shape)}"
            )
        if not np.all(np.isfinite(sig1)):
            raise DomainError("non-finite sigma1 mode values")
        sig1 = sig1.copy()
        sig1.setflags(write=False)
        object.__setattr__(self, "sigma1", sig1)
        for name in ("coeff_alpha", "coeff_beta", "coeff_gamma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.n_modes,):
                raise ConditionError(f"{name} must have one entry per mode")
            if not np.all(arr > 0) or not np.all(np.isfinite(arr)):
                raise ConditionError(f"{name} entries must be positive and finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.form == "custom-callback" and self.sigma2_callback is None:
            raise ConditionError("custom-callback noise requires a callback")

    # -- separable built-in profile ------------------------------------------

    @property
    def separable(self) -> bool:
        return self.form in ("smooth_power", "saturated_power")

    @cached_property
    def kappa_support(self) -> tuple:
        """(flat indices where kappa != 0, kappa at them): the only points
        where the state-dependent part kappa*sigma2 of a mode can be non-zero.
        A support that is one contiguous flat range comes as a ``slice``, so
        reads and writes through it are views."""
        flat = self.kappa.values.reshape(-1)
        idx = np.flatnonzero(flat)
        if idx.size and idx[-1] - idx[0] + 1 == idx.size:
            idx = slice(int(idx[0]), int(idx[-1]) + 1)
        return idx, flat[idx]

    @cached_property
    def sigma1_flat(self) -> np.ndarray:
        """sigma1 as a (K, M) matrix over the M flattened grid points."""
        return self.sigma1.reshape(self.n_modes, -1)

    @cached_property
    def root_gamma(self) -> np.ndarray:
        """sqrt(gamma_k) per mode: the scale of a separable sigma2_k."""
        return np.sqrt(self.coeff_gamma)

    def profile(self, u: np.ndarray) -> np.ndarray:
        """Shared scalar profile s(u) of the built-in forms."""
        phi = np.abs(u) ** (self.q / 2.0)
        if self.form == "smooth_power":
            return np.copysign(phi, u)
        return np.copysign(phi / (1.0 + self.saturation * phi), u)

    def profile_deriv(self, u: np.ndarray) -> np.ndarray:
        dphi = (self.q / 2.0) * np.abs(u) ** (self.q / 2.0 - 1.0)
        if self.form == "smooth_power":
            return dphi
        phi = np.abs(u) ** (self.q / 2.0)
        return dphi / (1.0 + self.saturation * phi) ** 2

    def sigma2_mode(self, t: float, k: int, u: np.ndarray) -> np.ndarray:
        """sigma2_k(t, x, u) as an array shaped like u."""
        if self.separable:
            return self.root_gamma[k] * self.profile(u)
        return self.sigma2_callback(t, self.grid.coords(), u, k)

    def sigma2_mode_deriv(self, t: float, k: int, u: np.ndarray) -> Optional[np.ndarray]:
        if self.separable:
            return self.root_gamma[k] * self.profile_deriv(u)
        if self.sigma2_deriv_callback is not None:
            return self.sigma2_deriv_callback(t, self.grid.coords(), u, k)
        return None

    def mode_values(self, t: float, u: np.ndarray) -> np.ndarray:
        """All K mode fields sigma1_k + kappa*sigma2_k(u), shape (K, *grid.shape)."""
        out = np.empty((self.n_modes, *u.shape))
        for k in range(self.n_modes):
            out[k] = self.sigma1[k] + self.kappa.values * self.sigma2_mode(t, k, u)
        return out

    def sigma1_sq(self) -> float:
        """sum_k ||sigma1_k||_L2^2 at any time (modes are time-constant)."""
        return float(self.grid.cell_volume * np.sum(self.sigma1**2))


def noise_apply_array(noise: NoiseSpec, t: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k sigma_k(t, x, u) * w_k for raw arrays; leading batch axes allowed.

    ``u`` has shape (*batch, *grid.shape) and ``w`` shape (*batch, K); the
    result matches ``u``. This is the one implementation of the noise term,
    called on every step of both step loops: it reads the constants the spec
    caches (``sigma1_flat``, ``root_gamma``, ``kappa_support``), and built-in
    (separable) forms avoid materializing the K mode fields.
    """
    grid = noise.grid
    dim = grid.dim
    batch = u.shape[: u.ndim - dim]
    if w.shape != (*batch, noise.n_modes):
        raise GridMismatchError(f"mode-weight shape {w.shape} does not match batch {batch}")
    add = w @ noise.sigma1_flat  # (*batch, M)
    if noise.separable:
        # kappa*s(u) is evaluated on kappa's support only; elsewhere the
        # modes are sigma1 alone
        idx, kappa_on_support = noise.kappa_support
        term = noise.profile(u.reshape(add.shape)[..., idx])
        term *= kappa_on_support
        term *= (w @ noise.root_gamma)[..., None]
        add[..., idx] += term
        return add.reshape(u.shape)
    coords = grid.coords()
    out = add.reshape(u.shape)
    for k in range(noise.n_modes):
        wk = w[..., k].reshape(*batch, *([1] * dim))
        out = out + noise.kappa.values * noise.sigma2_callback(t, coords, u, k) * wk
    return out


# -- derived growth/Lipschitz constants -------------------------------------


def growth_constant(noise: NoiseSpec, p: float, eps: float) -> float:
    """Constant C(eps) in the split HS bound
    ||sigma(t,u)||_HS^2 <= eps*||u||_Lp^p + 2*sum_k||sigma1_k||^2 + C(eps).

    Derived from Holder (exponents p/q, p/(p-q)) and Young's inequality; the
    kappa norm involved is ||kappa||_{L^{2p/(p-q)}}.
    """
    check_value("eps", eps, POSITIVE)
    q = noise.q
    if not (q < p):
        raise ConditionError("growth split requires q < p")
    base = 2.0 * float(np.sum(noise.coeff_beta)) * lp_norm(noise.kappa, 2.0) ** 2
    a = 2.0 * float(np.sum(noise.coeff_gamma)) * lp_norm(noise.kappa, 2.0 * p / (p - q)) ** 2
    if a == 0.0:
        return base
    young = (1.0 - q / p) * (q / (p * eps)) ** (q / (p - q)) * a ** (p / (p - q))
    return base + young


def _boundary_exponent(p: float, q: float) -> float:
    """Kappa-norm exponent 4p/(p-2(q-1)); +inf at the boundary q = 1+p/2."""
    denom = p - 2.0 * (q - 1.0)
    if denom <= 1e-12:
        return np.inf
    return 4.0 * p / denom


def linear_growth_constants(noise: NoiseSpec, p: float) -> tuple[float, float]:
    """Constants (base, c) in the alternative HS growth bound
    ||sigma(t,u)||_HS^2 <= 2*sum||sigma1_k||^2 + base + c*(1+||u||_Lp^(p/2))*||u||_L2.

    base = 2*sum beta_k*||kappa||_L2^2;  c = 2*sum gamma_k*||kappa||_X^2 with
    X = 4p/(p-2(q-1)) (the L-inf limit at the boundary q = 1+p/2).
    """
    base = 2.0 * float(np.sum(noise.coeff_beta)) * lp_norm(noise.kappa, 2.0) ** 2
    c = 2.0 * float(np.sum(noise.coeff_gamma)) * lp_norm(noise.kappa, _boundary_exponent(p, noise.q)) ** 2
    return base, c


def lipschitz_constant(noise: NoiseSpec, p: float) -> float:
    """Constant C in the HS Lipschitz bound
    ||sigma(t,u1)-sigma(t,u2)||_HS^2 <= C*(1+||u1||_Lp^(p/2)+||u2||_Lp^(p/2))*||u1-u2||_L2.
    """
    q = noise.q
    s_alpha = float(np.sum(noise.coeff_alpha))
    term1 = (2.0 / p) * s_alpha * lp_norm(noise.kappa, 4.0 * p / (p - 2.0)) ** 2 * max(p - 2.0, 1.0)
    denom = p - 2.0 * (q - 1.0)
    factor = max(denom / (q - 1.0), 1.0) if denom > 1e-12 else 1.0
    term2 = (
        (4.0 * (q - 1.0) / p)
        * s_alpha
        * lp_norm(noise.kappa, _boundary_exponent(p, q)) ** 2
        * factor
    )
    return term1 + term2


# ---------------------------------------------------------------------------
# forcing

_SQ_QUAD = 128  # trapezoid intervals of ForcingSpec.sq_integral for a callback forcing


@dataclass(frozen=True)
class ForcingSpec:
    """Deterministic forcing g(t); built-ins are time-constant.

    ``zero`` and ``bump`` (compact support, mollifier profile) cover the
    standard experiments; ``custom-callback`` takes ``g(t) -> ndarray``.
    """

    grid: GridSpec
    form: str = "zero"
    amplitude: float = 0.0
    radius: float = 0.5
    callback: Optional[Callable] = None
    _values: np.ndarray = dc_field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.form not in FORCING_FORMS:
            raise ConditionError(f"unknown forcing form {self.form!r}; expected one of {FORCING_FORMS}")
        if self.form == "custom-callback":
            if self.callback is None:
                raise ConditionError("custom-callback forcing requires a callback")
            object.__setattr__(self, "_values", None)
            return
        if self.form == "zero":
            vals = np.zeros(self.grid.shape)
        else:
            vals = smooth_bump(self.grid, radius=self.radius, amplitude=self.amplitude).values.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "_values", vals)

    def value(self, t: float) -> np.ndarray:
        if self._values is not None:
            return self._values
        return np.asarray(self.callback(t), dtype=float)

    def sq_integral(self, horizon: float) -> float:
        """int_0^T ||g(t)||_L2^2 dt (exact for the time-constant built-ins)."""
        w = self.grid.cell_volume
        if self._values is not None:
            return float(horizon * w * np.sum(self._values**2))
        ts = np.linspace(0.0, horizon, _SQ_QUAD + 1)
        vals = np.array([w * np.sum(self.value(t) ** 2) for t in ts])
        return float(np.trapezoid(vals, ts))


# ---------------------------------------------------------------------------
# assembled model


def noise_exponent_range(p: float) -> Range:
    """The admissible noise exponents for a drift of exponent p: 2 <= q <= 1 + p/2.

    The one statement of this cross-field rule: ``ModelSpec`` and the config
    layer both read it.
    """
    hi = 1.0 + p / 2.0
    return Range(lambda q: is_num(q) and 2.0 <= q <= hi, f"[2, 1 + p/2] = [2, {hi:g}]")


@dataclass(frozen=True)
class ModelSpec:
    """Grid + drift + noise + forcing, cross-validated at construction."""

    grid: GridSpec
    drift: DriftSpec
    noise: NoiseSpec
    forcing: ForcingSpec

    def __post_init__(self) -> None:
        if self.noise.grid != self.grid or self.forcing.grid != self.grid:
            raise GridMismatchError("noise/forcing grids do not match the model grid")
        q_range = noise_exponent_range(self.drift.p)
        if not q_range.ok(self.noise.q):
            raise ConditionError(f"noise exponent q = {self.noise.q} outside {q_range.expected}")


# ---------------------------------------------------------------------------
# validation


# the sampled times span [0, T_MAX]; synthesized fields reach FIELD_AMPLITUDE_MAX
T_MAX = 1.0
FIELD_AMPLITUDE_MAX = 20.0


@dataclass(frozen=True)
class SamplingPlan:
    """How densely to sample the structural conditions.

    ``n_samples + n_samples // 2`` scalar points per condition and sampled
    time (see ``_scalar_samples``: log-spaced magnitudes up to ``u_max`` with
    both signs, uniform draws, and zero); ``n_fields`` random smooth fields
    for the integrated (Hilbert-Schmidt) conditions; everything seeded.
    """

    n_samples: int = 20000
    u_max: float = 1.0e3
    n_fields: int = 48
    seed: int = 1234

    RANGES: ClassVar[dict] = {
        "n_samples": at_least(100),
        "u_max": POSITIVE,
        "n_fields": at_least(1),
    }

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass
class ConditionCheck:
    """One checked condition: its worst normalized margin, whether that margin
    passes, and the witness it came from. ``samples`` counts the points a
    sampled condition covers: (t, u) for a drift condition, (t, mode, u) for
    a per-mode noise condition, where for a spec that does not depend on t
    the one time evaluated stands for all of them; the Hilbert-Schmidt
    checks count the (t, field) pairs evaluated (see ``validate_drift`` and
    ``validate_noise``)."""

    name: str
    margin: float
    passed: bool
    samples: int
    witness: Optional[dict] = None


@dataclass
class ValidationReport:
    checks: list
    constants: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


MARGIN_TOL = 1e-9


def _scalar_samples(plan: SamplingPlan, rng: np.random.Generator) -> np.ndarray:
    """The shuffled scalar samples, ``n_samples + n_samples // 2`` of them:
    ``n_samples // 2`` magnitudes log-spaced on [1e-8, u_max] with both signs,
    ``n_samples - n_samples // 2 - 1`` uniform on [-sqrt(u_max), sqrt(u_max)],
    and 0."""
    n_log = plan.n_samples // 2
    mags = np.geomspace(1e-8, plan.u_max, n_log)
    uniform = rng.uniform(-plan.u_max ** 0.5, plan.u_max ** 0.5, plan.n_samples - n_log - 1)
    u = np.concatenate([mags, -mags, uniform, [0.0]])
    rng.shuffle(u)
    return u


# Scalar samples per block of the sampled conditions. A float temporary of one
# block is 64 KB, under glibc's default 128 KiB mmap threshold, so freed blocks
# are reused from the heap; a temporary over all samples (1.2 MB on the shipped
# plan) is mapped afresh, zero-filled a page at a time and unmapped again on
# every pass. So only u, u2 and the per-time F(t, u), F(t, u2) span all
# samples, and the per-mode noise conditions run block-major.
_SAMPLE_BLOCK = 8192


def _sample_blocks(n: int) -> list:
    """Consecutive slices of at most ``_SAMPLE_BLOCK`` samples covering range(n)."""
    return [slice(s, s + _SAMPLE_BLOCK) for s in range(0, n, _SAMPLE_BLOCK)]


def _normalized_min(margin, scale):
    """Minimum of margin / max(1, scale) and its index (0 for a scalar)."""
    norm = np.ravel(margin / np.maximum(1.0, scale))
    idx = int(np.argmin(norm))
    return float(norm[idx]), idx


class _WorstMargins:
    """Per sampled condition, the smallest normalized margin seen and its
    witness. A sample replaces the worst only when strictly smaller, so a tie
    keeps the first one seen; a NaN margin is worse than any number, and the
    first NaN seen is kept. Conditions report in the order first offered."""

    def __init__(self) -> None:
        self.worst: dict = {}

    def offer(self, name: str, margin, scale, witness: Callable[[int], dict]) -> None:
        """Offer margin / max(1, scale); ``witness(i)`` describes sample i."""
        m, i = _normalized_min(margin, scale)
        old = self.worst.get(name)
        if old is None or m < old[0] or (np.isnan(m) and not np.isnan(old[0])):
            self.worst[name] = (m, witness(i))

    def checks(self, samples: int) -> list:
        return [ConditionCheck(name, m, m >= -MARGIN_TOL, samples, wit) for name, (m, wit) in self.worst.items()]


def _linear_condition(a, b, c, lam):
    """Margin a - lam*b + c and scale |a| + lam*|b| + c of a condition that is
    linear in its constant lam (coercivity: a = F*u, b = |u|^p, c = psi1)."""
    return a - lam * b + c, np.abs(a) + lam * np.abs(b) + c


def _normalized(a, b, c, lam):
    """Normalized ``_linear_condition`` margin per sample."""
    margin, scale = _linear_condition(a, b, c, lam)
    return margin / np.maximum(1.0, scale)


def _closed_form_lambdas(a: np.ndarray, b: np.ndarray, c) -> np.ndarray:
    """Per sample, the largest lam at which the normalized ``_linear_condition``
    margin is >= -MARGIN_TOL, in exact arithmetic.

    For b > 0 and c >= 0 the normalized margin is non-increasing in lam, and a
    sample passes iff lam <= (a+c+tol)/b (scale <= 1) or
    lam <= (a+c+tol*(|a|+c))/(b*(1-tol)) (scale > 1). A sample with b <= 0
    is read at lam = 0: inf if it passes there, -inf if not.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.maximum(
            (a + c + MARGIN_TOL) / b,
            (a + c + MARGIN_TOL * (np.abs(a) + c)) / (b * (1.0 - MARGIN_TOL)),
        )
    flat = ~(b > 0)
    if np.any(flat):
        lam[flat] = np.where(_normalized(a[flat], 0.0, c[flat], 0.0) >= -MARGIN_TOL, np.inf, -np.inf)
    return lam


CERT_FLOOR = 1e-12  # below this no constant is certified (0.0)
CERT_CAP = 2.0**20  # largest certificate reported
# A computed normalized margin is within 4*eps of the exact one for the same
# float a, b, c, lam: margin and scale each take three rounded operations, the
# divisor max(1, scale) is >= 1, and one rounded division follows. As the exact
# margin is non-increasing in lam (b, c >= 0), a sample whose computed margin
# at lam is >= -MARGIN_TOL + CERT_SLACK (twice that error and more) passes at
# every float below lam too.
CERT_SLACK = 16 * np.finfo(float).eps


def _as_float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _as_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _largest_passing(ok, lo: float, hi: float) -> float:
    """Largest float in [lo, hi) at which ``ok`` holds, given ok(lo) and not
    ok(hi): bisection over the bit patterns, which order non-negative floats."""
    lo_bits, hi_bits = _as_bits(lo), _as_bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        lo_bits, hi_bits = (mid, hi_bits) if ok(_as_float(mid)) else (lo_bits, mid)
    return _as_float(lo_bits)


class _Certificate:
    """Largest lam in [CERT_FLOOR, CERT_CAP] at which every sample added passes
    the normalized ``_linear_condition`` predicate, built one block of samples
    at a time (``_SAMPLE_BLOCK``) without keeping the blocks, so that its
    temporaries stay block-sized.

    ``hi`` is CERT_CAP or a float at which some sample fails: the binding
    sample of the per-sample closed form (``_closed_form_lambdas``) is stepped
    up from its closed form, on its own, until its computed predicate fails.
    Only the samples that can fail at some lam <= hi are kept, as one
    concatenated (a, b, c) triple (computed margin at hi not >= -MARGIN_TOL +
    CERT_SLACK, or b < 0); the rest pass on all of [0, hi]. Each ``add``
    filters the kept samples and the new block at the current ``hi``, so it
    costs O(kept + block). ``value`` bisects the float predicate over the kept
    samples, so the certificate passes every sample and the next float up does
    not, however far rounding moves the boundary from the closed form.
    """

    def __init__(self) -> None:
        self.closed = np.inf
        self.hi = CERT_CAP
        self.kept = (np.empty(0),) * 3

    def _ok(self, lam: float) -> bool:
        return bool(np.min(_normalized(*self.kept, lam), initial=np.inf) >= -MARGIN_TOL)

    def add(self, a: np.ndarray, b: np.ndarray, c) -> None:
        c = np.broadcast_to(c, a.shape)
        lam = _closed_form_lambdas(a, b, c)
        j = int(np.argmin(lam))
        if lam[j] < self.closed:
            self.closed = float(lam[j])
            one = (a[j : j + 1], b[j : j + 1], c[j : j + 1])
            bits, step = _as_bits(min(max(self.closed, CERT_FLOOR), CERT_CAP)), 1
            while _as_float(bits) < self.hi and np.all(_normalized(*one, _as_float(bits)) >= -MARGIN_TOL):
                bits, step = bits + step, 2 * step
            self.hi = min(self.hi, _as_float(bits))
        a, b, c = (np.concatenate(x) for x in zip(self.kept, (a, b, c)))
        keep = ~(_normalized(a, b, c, self.hi) >= -MARGIN_TOL + CERT_SLACK) | (b < 0)  # NaN is kept
        self.kept = (a[keep], b[keep], c[keep])

    def value(self) -> float:
        if not self._ok(CERT_FLOOR):
            return 0.0
        if self._ok(self.hi):  # only at CERT_CAP: a kept sample fails below it
            return self.hi
        return _largest_passing(self._ok, CERT_FLOOR, self.hi)


def validate_drift(drift: DriftSpec, plan: SamplingPlan, grid: Optional[GridSpec] = None) -> ValidationReport:
    """Sample the three drift conditions and certify lambda1, lambda2.

    Margins are normalized by the local term magnitude (see module docstring);
    the pass threshold is -1e-9. The report's constants are the certificates
    ``lambda1`` and ``lambda2``: the largest constants whose coercivity
    (lambda1) and monotonicity (lambda2) margins pass at the declared psi
    bounds, 0.0 when not even 1e-12 passes, capped at 2^20. They
    come from the same per-time pass that computes the margins, which
    evaluates F(t, u) and F(t, u2) once per sampled time: a per-sample closed
    form finds the binding sample, and a bisection of the computed predicate
    over the near-binding samples (``_Certificate``) gives the largest float
    that passes, so a returned certificate always passes.

    The conditions cover 5 times in [0, T_MAX]. A built-in drift does not
    depend on t, so it is evaluated at t = 0 only, which stands for every
    time: at the other times the margins would be the same floats, a tie
    keeps the first witness, and a certificate gains nothing from samples it
    already holds. A ``custom-callback`` drift is evaluated at every time,
    times outermost. Each check's ``samples`` counts the (t, u) points it
    covers, len(u) * 5, either way.

    Within each time the samples stream through blocks of ``_SAMPLE_BLOCK``,
    in sample order. Only u, u2 and the time's F(t, u), F(t, u2) span all
    samples; every other temporary is block-sized and reused instead of
    mapped afresh on each pass. The report does not depend on the block size.
    """
    rng = np.random.default_rng(plan.seed)
    u = _scalar_samples(plan, rng)
    u2 = rng.permutation(u)
    ts = np.linspace(0.0, T_MAX, 5)
    sampled_ts = ts if drift.form == "custom-callback" else ts[:1]
    coords = grid.coords() if grid is not None else [np.zeros(1)]
    p = drift.p

    worst = _WorstMargins()
    lambda1_cert, lambda2_cert = _Certificate(), _Certificate()
    blocks = _sample_blocks(len(u))
    for t in sampled_ts:
        f_t = np.broadcast_to(np.asarray(drift.value(t, coords, u), dtype=float), u.shape)
        f2_t = np.broadcast_to(np.asarray(drift.value(t, coords, u2), dtype=float), u.shape)
        for s in blocks:
            ub, u2b, f = u[s], u2[s], f_t[s]
            du = ub - u2b
            grow = drift.psi2_bound * np.abs(ub) ** (p - 1.0)
            # coercivity and monotonicity read a - lam*b + c
            coercive_a, coercive_b, coercive_c = f * ub, np.abs(ub) ** p, drift.psi1_bound
            mono_a = (f - f2_t[s]) * du
            mono_b = (signed_power(ub, p - 1.0) - signed_power(u2b, p - 1.0)) * du
            mono_c = drift.psi4_bound * du**2
            at_u = lambda i: {"t": float(t), "u": float(ub[i])}
            worst.offer(
                "drift-coercivity", *_linear_condition(coercive_a, coercive_b, coercive_c, drift.lambda1), at_u
            )
            worst.offer("drift-growth", grow + drift.psi3_bound - np.abs(f), np.abs(f) + grow, at_u)
            worst.offer(
                "drift-monotonicity", *_linear_condition(mono_a, mono_b, mono_c, drift.lambda2),
                lambda i: {"t": float(t), "u1": float(ub[i]), "u2": float(u2b[i])},
            )
            lambda1_cert.add(coercive_a, coercive_b, coercive_c)
            lambda2_cert.add(mono_a, mono_b, mono_c)
    constants = {"lambda1": lambda1_cert.value(), "lambda2": lambda2_cert.value()}
    return ValidationReport(checks=worst.checks(len(u) * len(ts)), constants=constants)


def _synth_fields(grid: GridSpec, plan: SamplingPlan, rng: np.random.Generator) -> list[np.ndarray]:
    """Random smooth fields spanning amplitudes: low-mode Fourier sums,
    bump multiples, and constants."""
    out = []
    x = grid.coords()
    amps = np.geomspace(0.05, FIELD_AMPLITUDE_MAX, max(plan.n_fields // 3, 2))
    for j in range(plan.n_fields):
        a = amps[j % len(amps)]
        kind = j % 3
        if kind == 0:
            vals = np.zeros(grid.shape)
            for m in range(1, 5):
                coef = rng.standard_normal(2)
                phase = np.pi * m * x[0] / grid.half_length
                vals += coef[0] * np.cos(phase) + coef[1] * np.sin(phase)
            vals *= a / max(np.max(np.abs(vals)), 1e-12)
        elif kind == 1:
            vals = smooth_bump(grid, radius=grid.half_length / 2, amplitude=a).values * np.sign(
                rng.standard_normal()
            )
        else:
            vals = np.full(grid.shape, a * np.sign(rng.standard_normal()))
        out.append(vals)
    return out


def validate_noise(noise: NoiseSpec, p: float, plan: SamplingPlan) -> ValidationReport:
    """Sample the per-mode Lipschitz/growth conditions and the derived
    Hilbert-Schmidt bounds; record the computed constants.

    Checks: per-mode local Lipschitz ("noise-lipschitz"), per-mode growth
    ("noise-growth"), the split HS bound at eps in {0.1, 1} ("hs-split-*"),
    the linear-in-||u|| HS growth bound ("hs-linear"), the HS Lipschitz bound
    on field pairs ("hs-lipschitz"), coefficient summability ("summability"),
    and the kappa support rule ("kappa-support").

    The per-mode conditions cover 3 times in [0, T_MAX] and every mode. A
    separable noise, sigma2_k(u) = sqrt(gamma_k)*s(u), does not depend on t,
    so it is sampled at t = 0 only, which stands for every time (the margins
    would be the same floats and a tie keeps the first witness), and s(u),
    s(u2) are computed once for all modes. Any other noise is sampled at
    every time, times outermost. Each per-mode check's ``samples`` counts the
    (t, mode, u) points it covers, len(u) * 3 * K, either way. The HS
    conditions are sampled at the same times as the per-mode ones: at t = 0
    for a separable noise, with witnesses and ``samples`` naming fields only,
    and at every time for any other noise, with ``t`` in the witness and
    ``samples`` counting (t, field) pairs.

    Within each time the per-mode conditions stream the samples through
    blocks of ``_SAMPLE_BLOCK``, block-major: a block's state-free factors
    are computed once and every mode runs on them. Only u, u2 span all
    samples; every temporary is block-sized and reused instead of mapped
    afresh on each pass. The report does not depend on the block size.
    """
    rng = np.random.default_rng(plan.seed + 1)
    u = _scalar_samples(plan, rng)
    u2 = rng.permutation(u)
    q = noise.q
    grid = noise.grid
    ts = np.linspace(0.0, T_MAX, 3)
    sampled_ts = ts[:1] if noise.separable else ts

    # sigma2_k of a separable noise is sqrt(gamma_k)*s(u), as in NoiseSpec.sigma2_mode
    roots = noise.root_gamma

    worst = _WorstMargins()
    blocks = _sample_blocks(len(u))
    for t in sampled_ts:
        for s in blocks:
            ub, u2b = u[s], u2[s]
            lip_factor = 1.0 + np.abs(ub) ** (q - 2.0) + np.abs(u2b) ** (q - 2.0)
            du_sq = (ub - u2b) ** 2
            abs_q = np.abs(ub) ** q
            if noise.separable:
                prof, prof2 = noise.profile(ub), noise.profile(u2b)
            for k in range(noise.n_modes):
                a_k, b_k, g_k = noise.coeff_alpha[k], noise.coeff_beta[k], noise.coeff_gamma[k]
                if noise.separable:
                    s_1, s_2 = roots[k] * prof, roots[k] * prof2
                else:
                    s_1, s_2 = noise.sigma2_mode(t, k, ub), noise.sigma2_mode(t, k, u2b)
                lip_rhs = a_k * lip_factor * du_sq
                lip_lhs = (s_1 - s_2) ** 2
                worst.offer(
                    "noise-lipschitz", lip_rhs - lip_lhs, lip_rhs + lip_lhs,
                    lambda i: {"t": float(t), "mode": k, "u1": float(ub[i]), "u2": float(u2b[i])},
                )
                gr_rhs = b_k + g_k * abs_q
                gr_lhs = s_1**2
                worst.offer(
                    "noise-growth", gr_rhs - gr_lhs, gr_rhs + gr_lhs,
                    lambda i: {"t": float(t), "mode": k, "u": float(ub[i])},
                )
    checks = worst.checks(len(u) * len(ts) * noise.n_modes)

    # integrated Hilbert-Schmidt bounds on synthesized fields
    fields = _synth_fields(grid, plan, rng)
    w = grid.cell_volume
    sig1_sq = noise.sigma1_sq()
    constants = {}
    eps_list = (0.1, 1.0)
    for eps in eps_list:
        constants[f"growth_constant_eps_{eps}"] = growth_constant(noise, p, eps)
    base_lin, c_lin = linear_growth_constants(noise, p)
    constants["linear_growth_base"] = base_lin
    constants["linear_growth_c"] = c_lin
    c_lip = lipschitz_constant(noise, p)
    constants["hs_lipschitz_c"] = c_lip

    worst = _WorstMargins()
    for t in sampled_ts:
        when = {} if noise.separable else {"t": float(t)}
        # each field's modes at t, shared by its HS norm and its pair difference
        modes = [noise.mode_values(t, vals) for vals in fields]
        for j, vals in enumerate(fields):
            nxt = (j + 1) % len(fields)
            at_j = lambda i: {**when, "field": j}
            hs = float(w * np.sum(modes[j] ** 2))
            lp_p = w * np.sum(np.abs(vals) ** p)
            l2 = np.sqrt(w * np.sum(vals**2))
            for eps in eps_list:
                bound = eps * lp_p + 2.0 * sig1_sq + constants[f"growth_constant_eps_{eps}"]
                worst.offer(f"hs-split-eps-{eps}", bound - hs, bound + hs, at_j)
            bound = 2.0 * sig1_sq + base_lin + c_lin * (1.0 + lp_p ** 0.5) * l2
            worst.offer("hs-linear", bound - hs, bound + hs, at_j)
            hs_diff = float(w * np.sum((modes[j] - modes[nxt]) ** 2))
            lp_other = w * np.sum(np.abs(fields[nxt]) ** p)
            dl2 = np.sqrt(w * np.sum((vals - fields[nxt]) ** 2))
            bound = c_lip * (1.0 + lp_p ** 0.5 + lp_other ** 0.5) * dl2
            worst.offer("hs-lipschitz", bound - hs_diff, bound + hs_diff, lambda i: {**when, "fields": (j, nxt)})
    checks += worst.checks(len(fields) * len(sampled_ts))

    # summability of the declared family (finite + declared tail)
    total = float(np.sum(noise.coeff_alpha + noise.coeff_beta + noise.coeff_gamma)) + noise.tail_bound
    checks.append(
        ConditionCheck("summability", 1.0 if np.isfinite(total) else -1.0, bool(np.isfinite(total)), noise.n_modes)
    )
    constants["coefficient_sum"] = total

    # kappa support rule: supported within [-L/2, L/2]
    r = grid.radial()
    outside = float(w * np.sum(noise.kappa.values[r > grid.half_length / 2.0] ** 2))
    checks.append(
        ConditionCheck(
            "kappa-support",
            -outside,
            outside <= 1e-14,
            grid.n_total,
            None if outside <= 1e-14 else {"mass_outside": outside},
        )
    )

    q_hi = 1.0 + p / 2.0
    checks.append(
        ConditionCheck("exponent-range", float(min(q - 2.0, q_hi - q)), noise_exponent_range(p).ok(q), 1)
    )
    return ValidationReport(checks=checks, constants=constants)
