"""Shipped model builders.

``PRESETS`` declares each config preset once: its builder, the natural
grid that builder uses when given none, and the kind of its natural initial
datum. ``zoo()`` returns the certified members every validator must pass.
The oracle builders (constant reduction, linear additive, scalar linear)
deliberately bend the structural rules — constant kappa, zero drift — to
create closed-form comparison points for the integrators; they are test
devices, not certified models.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .grids import POSITIVE, Field, GridSpec, check_ranges
from .models import ConditionError, DriftSpec, ForcingSpec, ModelSpec, NoiseSpec, smooth_bump

# the build_model arguments its noise arrays are derived from; the config's
# model.q, model.n_modes and model.gamma0 keys read these same objects
BUILD_RANGES = {"q": NoiseSpec.RANGES["q"], "n_modes": NoiseSpec.RANGES["n_modes"], "gamma0": POSITIVE}

DATA_RADIUS = 0.5  # support radius of kappa, of every sigma1 mode and of the forcing
KAPPA_AMPLITUDE = 0.5
FORCING_AMPLITUDE = 0.2
MODE_DECAY = 2.0  # ratio of consecutive noise-mode coefficients


def standard_grid(alpha: float = 1.0, points: int = 128, half_length: float = 4.0) -> GridSpec:
    return GridSpec(dim=1, half_length=half_length, points_per_dim=points, alpha=alpha)


def _mode_coefficients(n_modes: int, q: float, gamma0: float):
    k = np.arange(n_modes)
    gamma = gamma0 * MODE_DECAY ** (-k.astype(float))
    beta = gamma.copy()
    alpha = gamma * max(1.0, q * q / 4.0)
    # declared tail of the idealized geometric family beyond the truncation
    tail = (2.0 + max(1.0, q * q / 4.0)) * gamma0 * MODE_DECAY ** (-float(n_modes)) / (1.0 - 1.0 / MODE_DECAY)
    return alpha, beta, gamma, tail


def _sigma1_stack(grid: GridSpec, n_modes: int, amplitude: float, radius: float) -> np.ndarray:
    """Compactly supported forcing modes with geometrically decaying amplitude.

    Mode k is the mollifier bump modulated by cos(k*pi*x/radius), so the modes
    have distinct shapes but share the support |x| < radius.
    """
    base = smooth_bump(grid, radius=radius, amplitude=1.0).values
    x = grid.coords()[0]
    out = np.empty((n_modes, *grid.shape))
    for k in range(n_modes):
        out[k] = amplitude * 2.0 ** (-k) * base * np.cos(k * np.pi * x / radius)
    return out


def build_model(
    grid: GridSpec | None = None,
    drift_form: str = "cubic_minus_linear",
    p: float = 4.0,
    noise_form: str = "saturated_power",
    q: float = 2.5,
    n_modes: int = 4,
    gamma0: float = 0.04,
    saturation: float = 0.1,
    sigma1_amplitude: float = 0.15,
    forcing_form: str = "bump",
) -> ModelSpec:
    """Assemble a certified model from bump-parameterized data (config surface)."""
    check_ranges(SimpleNamespace(RANGES=BUILD_RANGES, q=q, n_modes=n_modes, gamma0=gamma0), ConditionError)
    grid = grid or PRESETS["built"].grid
    if drift_form == "cubic_minus_linear":
        drift = DriftSpec(form="cubic_minus_linear", p=p)
    elif drift_form == "pure_power":
        drift = DriftSpec(
            form="pure_power", p=p, lambda1=1.0, lambda2=1.0,
            psi1_bound=0.0, psi2_bound=1.0, psi3_bound=0.0, psi4_bound=0.0,
        )
    else:
        raise ValueError(f"build_model supports built-in drift forms only, got {drift_form!r}")
    c_alpha, c_beta, c_gamma, tail = _mode_coefficients(n_modes, q, gamma0)
    noise = NoiseSpec(
        grid=grid,
        n_modes=n_modes,
        q=q,
        kappa=smooth_bump(grid, radius=DATA_RADIUS, amplitude=KAPPA_AMPLITUDE),
        sigma1=_sigma1_stack(grid, n_modes, sigma1_amplitude, DATA_RADIUS),
        coeff_alpha=c_alpha,
        coeff_beta=c_beta,
        coeff_gamma=c_gamma,
        form=noise_form,
        saturation=saturation,
        tail_bound=tail,
    )
    forcing = ForcingSpec(grid=grid, form=forcing_form, amplitude=FORCING_AMPLITUDE, radius=DATA_RADIUS)
    return ModelSpec(grid=grid, drift=drift, noise=noise, forcing=forcing)


def default_model(grid: GridSpec | None = None) -> ModelSpec:
    """The default campaign model: cubic bistable drift, saturated superlinear
    noise (q = 2.5), compact bump data supported in |x| <= L/8."""
    return build_model(grid or PRESETS["default"].grid)


def fractional_model(grid: GridSpec | None = None) -> ModelSpec:
    """Fractional-diffusion member (alpha = 0.6), otherwise default data."""
    return build_model(grid or PRESETS["fractional"].grid)


def pure_power_model(grid: GridSpec | None = None) -> ModelSpec:
    """Odd-power drift with linear-growth noise (q = 2): the benign member."""
    return build_model(
        grid or PRESETS["pure-power"].grid, drift_form="pure_power", noise_form="smooth_power", q=2.0
    )


def boundary_growth_model(grid: GridSpec | None = None) -> ModelSpec:
    """Noise at the admissibility boundary q = 1 + p/2 = 3."""
    return build_model(grid or PRESETS["boundary-growth"].grid, q=3.0)


def default_initial_datum(grid: GridSpec, amplitude: float = 1.0, radius: float = 0.5) -> Field:
    return smooth_bump(grid, radius=radius, amplitude=amplitude)


# ---------------------------------------------------------------------------
# oracle constructions (closed-form comparison points; intentionally exempt
# from the compact-support rule — see validate_noise's kappa-support finding)


def _zero_drift() -> DriftSpec:
    return DriftSpec(
        form="custom-callback", p=4.0, lambda1=1.0, lambda2=1.0,
        psi1_bound=0.0, psi2_bound=1.0, psi3_bound=0.0, psi4_bound=0.0,
        callback=lambda t, x, u: np.zeros_like(u),
        deriv_callback=lambda t, x, u: np.zeros_like(u),
    )


def _linear_drift(a: float) -> DriftSpec:
    return DriftSpec(
        form="custom-callback", p=4.0, lambda1=1.0, lambda2=1.0,
        psi1_bound=0.0, psi2_bound=1.0, psi3_bound=0.0, psi4_bound=0.0,
        callback=lambda t, x, u, a=a: a * u,
        deriv_callback=lambda t, x, u, a=a: np.full_like(u, a),
    )


def constant_reduction_model(grid: GridSpec | None = None) -> ModelSpec:
    """All data spatially constant (cubic drift, kappa = 1 everywhere, one mode
    with sigma1 = 0.2, forcing 0.1): the PDE collapses to a scalar equation,
    matched path-by-path by a scalar stepper."""
    grid = grid or PRESETS["constant-reduction"].grid
    q, gamma0 = 2.5, 0.09
    noise = NoiseSpec(
        grid=grid,
        n_modes=1,
        q=q,
        kappa=Field(grid, np.ones(grid.shape)),
        sigma1=np.full((1, *grid.shape), 0.2),
        coeff_alpha=np.array([gamma0 * max(1.0, q * q / 4.0)]),
        coeff_beta=np.array([gamma0]),
        coeff_gamma=np.array([gamma0]),
        form="saturated_power",
        saturation=0.1,
    )
    forcing = ForcingSpec(
        grid=grid, form="custom-callback",
        callback=lambda t, vals=np.full(grid.shape, 0.1): vals,
    )
    return ModelSpec(grid=grid, drift=DriftSpec(), noise=noise, forcing=forcing)


def linear_additive_model(grid: GridSpec | None = None) -> ModelSpec:
    """Zero drift, purely additive noise on two modes: the solution is Gaussian
    with closed-form per-mode statistics under the exact integrating factor."""
    grid = grid or PRESETS["linear-additive"].grid
    n_modes = 2
    noise = NoiseSpec(
        grid=grid,
        n_modes=n_modes,
        q=2.0,
        kappa=Field(grid, np.zeros(grid.shape)),
        sigma1=_sigma1_stack(grid, n_modes, 0.3, grid.half_length / 2),
        coeff_alpha=np.ones(n_modes),
        coeff_beta=np.ones(n_modes),
        coeff_gamma=np.ones(n_modes),
        form="smooth_power",
    )
    return ModelSpec(
        grid=grid, drift=_zero_drift(), noise=noise, forcing=ForcingSpec(grid=grid, form="zero")
    )


def scalar_linear_model(
    a: float = 1.0, sigma1_value: float = 0.3, grid: GridSpec | None = None
) -> ModelSpec:
    """1-mode linear model du = (-(-Delta)^a u - a*u + sqrt(eps)*s dW): spatially
    constant initial data stay constant, giving the scalar OU process
    dc = -a*c dt + sqrt(eps)*s dW with analytic action (used by the
    large-deviation acceptance probes)."""
    grid = grid or PRESETS["scalar-linear"].grid
    noise = NoiseSpec(
        grid=grid,
        n_modes=1,
        q=2.0,
        kappa=Field(grid, np.zeros(grid.shape)),
        sigma1=np.full((1, *grid.shape), sigma1_value),
        coeff_alpha=np.ones(1),
        coeff_beta=np.ones(1),
        coeff_gamma=np.ones(1),
        form="smooth_power",
    )
    return ModelSpec(
        grid=grid, drift=_linear_drift(a), noise=noise, forcing=ForcingSpec(grid=grid, form="zero")
    )


# ---------------------------------------------------------------------------
# presets


class Preset(NamedTuple):
    build: Callable[..., ModelSpec]  # build(grid=None) falls back to ``grid``
    grid: GridSpec  # the preset's natural grid
    datum: str  # natural datum kind: "constant" for a spatially constant reduction, else "bump"


PRESETS = {
    "default": Preset(default_model, standard_grid(), "bump"),
    "fractional": Preset(fractional_model, standard_grid(alpha=0.6), "bump"),
    "pure-power": Preset(pure_power_model, standard_grid(), "bump"),
    "boundary-growth": Preset(boundary_growth_model, standard_grid(), "bump"),
    "scalar-linear": Preset(scalar_linear_model, standard_grid(points=8, half_length=2.0), "constant"),
    "linear-additive": Preset(linear_additive_model, standard_grid(alpha=0.75, points=32), "constant"),
    "constant-reduction": Preset(
        constant_reduction_model, standard_grid(alpha=0.75, points=16, half_length=2.0), "constant"
    ),
    "built": Preset(build_model, standard_grid(), "bump"),
}


def zoo() -> dict:
    """Certified members keyed by name; all must pass every validator."""
    return {
        name: PRESETS[name].build
        for name in ("default", "fractional", "pure-power", "boundary-growth")
    }
