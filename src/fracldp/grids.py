"""Periodic spectral grids and fractional Laplacian operators.

The computational domain is the torus [-L, L)^dim sampled on a uniform grid.
The fractional Laplacian (-Delta)^alpha acts as the Fourier multiplier
|xi|^(2*alpha); alpha = 1 recovers the classical Laplacian. All norms use the
trapezoidal-equals-rectangle quadrature weight h^dim that is exact for
trigonometric polynomials on the torus.

Fields are immutable value holders tied to a grid; operators validate grid
identity so mixed-resolution bugs fail loudly instead of broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma as _gamma_fn
from math import pi
from numbers import Integral, Real
from sys import float_info
from typing import Callable, ClassVar

import numpy as np


class GridMismatchError(ValueError):
    """Raised when fields or operators from different grids are combined."""


class DomainError(ValueError):
    """Raised for invalid grid/field data (bad shapes, non-finite values)."""


# ---------------------------------------------------------------------------
# Valid ranges: each constructor declares its fields' ranges once, in a
# ``RANGES`` class table, and the config layer reads the same ``Range`` objects.


@dataclass(frozen=True)
class Range:
    """The valid values of one field: a predicate and its description."""

    ok: Callable[[object], bool]
    expected: str


def is_num(x) -> bool:
    """A real number with a finite float value; bools are not numbers here."""
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= float_info.max


def is_int(x) -> bool:
    """An integer; bools and integral floats are not."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def at_least(n: int) -> Range:
    """Integers >= n."""
    return Range(lambda v: is_int(v) and v >= n, f"integer >= {n}")


POSITIVE = Range(lambda v: is_num(v) and v > 0, "float > 0")
POSITIVE_OR_INF = Range(
    lambda v: isinstance(v, Real) and not isinstance(v, bool) and v > 0, "float > 0 or inf"
)
NON_NEGATIVE_OR_INF = Range(
    lambda v: isinstance(v, Real) and not isinstance(v, bool) and v >= 0, "float >= 0 or inf"
)
NON_NEGATIVE = Range(lambda v: is_num(v) and v >= 0, "float >= 0")
UNIT = Range(lambda v: is_num(v) and 0 < v <= 1, "float in (0, 1]")
EPS_LADDER = Range(
    lambda v: isinstance(v, (list, tuple)) and len(v) >= 1 and all(UNIT.ok(e) for e in v)
    and all(b < a for a, b in zip(v, v[1:])),
    "strictly decreasing floats in (0, 1]",
)


def check_value(name: str, value, rng: Range, error: type = DomainError) -> None:
    """Raise ``error`` naming ``name`` when ``value`` is outside ``rng``."""
    if not rng.ok(value):
        raise error(f"{name}: expected {rng.expected}, found {value!r}")


def check_ranges(obj, error: type = DomainError) -> None:
    """Raise ``error`` for the first field of ``obj`` outside its ``RANGES`` entry."""
    for name, rng in obj.RANGES.items():
        check_value(name, getattr(obj, name), rng, error)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3 (most experiments run in 1D).
    half_length : float
        L > 0; the domain is [-L, L) in each coordinate.
    points_per_dim : int
        Grid points per dimension; power of two, at least 4.
    alpha : float
        Diffusion exponent in (0, 1]; alpha = 1 is the classical Laplacian.
    """

    dim: int = 1
    half_length: float = 4.0
    points_per_dim: int = 128
    alpha: float = 1.0

    RANGES: ClassVar[dict] = {
        "dim": Range(lambda v: is_int(v) and 1 <= v <= 3, "integer in {1, 2, 3}"),
        "half_length": POSITIVE,
        "points_per_dim": Range(
            lambda v: is_int(v) and v >= 4 and v & (v - 1) == 0, "power of two >= 4"
        ),
        "alpha": UNIT,
    }

    def __post_init__(self) -> None:
        check_ranges(self)

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2L / N."""
        return 2.0 * self.half_length / self.points_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @property
    def n_total(self) -> int:
        return self.points_per_dim**self.dim

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^dim."""
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Coordinates along one dimension: -L + h*j, j = 0..N-1."""
        return -self.half_length + self.spacing * np.arange(self.points_per_dim)

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays, one per dimension, each of grid shape."""
        axes = [self.axis() for _ in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def radial(self) -> np.ndarray:
        """Euclidean distance from the origin at every grid point."""
        r_sq = np.zeros(self.shape)
        for c in self.coords():
            r_sq += c**2
        return np.sqrt(r_sq)


class Field:
    """Real scalar field sampled on a grid. Values are immutable after creation.

    Accepts flat (row-major) or grid-shaped input and always stores float64 of
    the grid's shape. Non-finite entries are rejected.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.shape == (grid.n_total,):
            arr = arr.reshape(grid.shape)
        if arr.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {arr.shape} incompatible with grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DomainError(f"non-finite field value at flat index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - guard
        raise AttributeError("Field is immutable")

    def flat(self) -> np.ndarray:
        """Row-major flat view of the values."""
        return self.values.reshape(-1)

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r}, |values|_max={np.max(np.abs(self.values)):.3g})"


@dataclass(frozen=True)
class SpectralSymbol:
    """Fourier multipliers of (-Delta)^alpha on a grid.

    multipliers[k] = |xi_k|^(2*alpha) with xi the angular wavenumber vector;
    the zero-frequency multiplier is exactly 0 and the array is symmetric
    under frequency negation.
    """

    grid: GridSpec
    multipliers: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.multipliers.shape != self.grid.shape:
            raise GridMismatchError("multiplier array does not match grid shape")


def fractional_symbol(grid: GridSpec) -> SpectralSymbol:
    """Build the spectral symbol |xi|^(2*alpha) for a grid.

    Wavenumbers follow the FFT layout: xi_j = 2*pi*fftfreq(N, d=h), i.e. the
    mode sin(k*pi*x/L) carries |xi| = k*pi/L.
    """
    omega = 2.0 * pi * np.fft.fftfreq(grid.points_per_dim, d=grid.spacing)
    xi_sq = np.zeros(grid.shape)
    for axis_index in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis_index] = grid.points_per_dim
        xi_sq = xi_sq + (omega**2).reshape(shape)
    mult = np.zeros_like(xi_sq)
    nonzero = xi_sq > 0
    mult[nonzero] = xi_sq[nonzero] ** grid.alpha
    mult.setflags(write=False)
    return SpectralSymbol(grid=grid, multipliers=mult)


def _spatial_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def _check_field(f: Field, grid: GridSpec) -> None:
    if f.grid != grid:
        raise GridMismatchError("field grid does not match operator grid")


def frac_laplacian(f: Field, symbol: SpectralSymbol) -> Field:
    """Apply (-Delta)^alpha to a field via the FFT.

    The imaginary residue of the inverse transform (roundoff only, since the
    multiplier is even) is checked against 1e-10 of the output magnitude and
    truncated.
    """
    _check_field(f, symbol.grid)
    if not np.all(np.isfinite(f.values)):
        raise DomainError("non-finite input field")
    hat = np.fft.fftn(f.values)
    out = np.fft.ifftn(symbol.multipliers * hat)
    scale = max(np.max(np.abs(out.real)), 1e-300)
    if np.max(np.abs(out.imag)) > 1e-10 * scale:
        raise DomainError("unexpected imaginary residue in spectral application")
    return Field(symbol.grid, out.real)


def l2_inner(f: Field, g: Field) -> float:
    """L2 inner product with quadrature weight h^dim."""
    _check_field(g, f.grid)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.values**2)))


def lp_norm(f: Field, p: float) -> float:
    """L^p norm (h^dim * sum |f|^p)^(1/p), p >= 1; p = inf gives the max norm."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def _seminorm_sq_from_hat(grid: GridSpec, multipliers: np.ndarray, hat: np.ndarray) -> float:
    # Parseval: ||f||^2 = h^dim/N^dim * sum |fhat|^2 for the unnormalized DFT.
    w = grid.cell_volume / grid.n_total
    return float(w * np.sum(multipliers * np.abs(hat) ** 2))


def halpha_seminorm(f: Field, symbol: SpectralSymbol) -> float:
    """Spectral seminorm ||(-Delta)^(alpha/2) f||_{L2}."""
    _check_field(f, symbol.grid)
    hat = np.fft.fftn(f.values)
    return float(np.sqrt(_seminorm_sq_from_hat(symbol.grid, symbol.multipliers, hat)))


def h_alpha_norm(f: Field, symbol: SpectralSymbol) -> float:
    """Full fractional Sobolev norm sqrt(||f||_L2^2 + seminorm^2)."""
    _check_field(f, symbol.grid)
    hat = np.fft.fftn(f.values)
    l2_sq = f.grid.cell_volume * np.sum(f.values**2)
    return float(np.sqrt(l2_sq + _seminorm_sq_from_hat(symbol.grid, symbol.multipliers, hat)))


def gagliardo_constant(dim: int, alpha: float) -> float:
    """Normalization constant C(n, alpha) = alpha*4^alpha*Gamma((n+2a)/2) / (pi^(n/2)*Gamma(1-a)).

    Chosen so the double-integral seminorm squared (with the 1/2 symmetry
    factor) matches ||(-Delta)^(alpha/2) f||_L2^2. Vanishes as alpha -> 1,
    where the double integral itself diverges at matching rate.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"Gagliardo constant requires alpha in (0, 1), got {alpha}")
    return (
        alpha
        * 4.0**alpha
        * _gamma_fn((dim + 2.0 * alpha) / 2.0)
        / (pi ** (dim / 2.0) * _gamma_fn(1.0 - alpha))
    )


def gagliardo_seminorm(f: Field) -> float:
    """Direct double-sum fractional seminorm (1D only, O(N^2)): cross-check oracle.

    Uses the periodic minimal-image distance d(x, y) = min(|x-y|, 2L-|x-y|)
    with the diagonal excluded:

        seminorm^2 = C(1, alpha)/2 * sum_{x != y} |f(x)-f(y)|^2 / d^(1+2a) * h^2

    The spectral seminorm is the primary implementation; this quadrature
    exists to validate it on compactly supported inputs.
    """
    grid = f.grid
    if grid.dim != 1:
        raise DomainError("gagliardo_seminorm is implemented for dim = 1 only")
    if grid.points_per_dim > 4096:
        raise DomainError("gagliardo_seminorm is O(N^2); use N <= 4096")
    c = gagliardo_constant(1, grid.alpha)
    x = grid.axis()
    diff = np.abs(x[:, None] - x[None, :])
    dist = np.minimum(diff, 2.0 * grid.half_length - diff)
    np.fill_diagonal(dist, 1.0)  # dummy; diagonal numerator is zero anyway
    vals = f.values
    num = (vals[:, None] - vals[None, :]) ** 2
    total = np.sum(num / dist ** (1.0 + 2.0 * grid.alpha)) * grid.spacing**2
    return float(np.sqrt(0.5 * c * total))


# ---------------------------------------------------------------------------
# Raw-array helpers used by the time steppers (hot loops skip Field wrappers).


def array_l2_sq(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """||arr||_L2^2 over the trailing spatial axes; leading axes broadcast."""
    return grid.cell_volume * np.sum(arr**2, axis=_spatial_axes(grid))


def array_lp_pow(grid: GridSpec, arr: np.ndarray, p: float) -> np.ndarray:
    """||arr||_Lp^p over the trailing spatial axes.

    p = 4 (the cubic drift's exponent) squares twice instead of calling the
    float ``pow``.
    """
    if p == 4.0:
        sq = arr * arr
        return grid.cell_volume * np.sum(sq * sq, axis=_spatial_axes(grid))
    return grid.cell_volume * np.sum(np.abs(arr) ** p, axis=_spatial_axes(grid))


@lru_cache(maxsize=32)
def half_spectrum_multipliers(grid: GridSpec) -> np.ndarray:
    """Hermitian-weighted symbol multipliers on the ``rfftn`` half-spectrum.

    ``rfftn`` over the spatial axes keeps the bins 0..N/2 of the last axis. A
    real field's spectrum is Hermitian and the multipliers are even, so each
    kept bin 1..N/2-1 also stands for its dropped conjugate mirror and gets
    weight 2; the 0 and Nyquist (N/2) bins mirror onto kept bins and get
    weight 1. The result is read-only, shape (*grid.shape[:-1], N//2 + 1),
    and cached per grid: every caller shares one array.
    """
    n = grid.points_per_dim
    half = fractional_symbol(grid).multipliers[..., : n // 2 + 1].copy()
    half[..., 1 : n // 2] *= 2.0
    half.setflags(write=False)
    return half


def array_seminorm_sq(grid: GridSpec, half_multipliers: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """Seminorm^2 from an unnormalized ``rfftn`` over the trailing spatial axes.

    ``hat`` is in the half-spectrum layout and ``half_multipliers`` comes from
    ``half_spectrum_multipliers``, so the weighted sum of ``re^2 + im^2``
    over the kept bins equals the full-spectrum sum of multipliers*|hat|^2.
    """
    w = grid.cell_volume / grid.n_total
    power = hat.real * hat.real + hat.imag * hat.imag
    return w * np.sum(half_multipliers * power, axis=_spatial_axes(grid))
