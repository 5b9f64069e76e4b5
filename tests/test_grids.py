"""Spectral grid and fractional Laplacian tests.

Oracles: closed-form eigenvalues of pure Fourier modes, Parseval's identity,
centered finite differences at alpha = 1, and the O(N^2) double-sum seminorm
quadrature as an independent cross-check of the spectral seminorm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracldp import grids
from fracldp.grids import DomainError, Field, GridMismatchError, GridSpec


def bump(x, radius=1.0, amplitude=1.0):
    s = np.clip(np.abs(x) / radius, 0.0, 1.0 - 1e-12)
    return np.where(np.abs(x) < radius, amplitude * np.exp(1.0 - 1.0 / (1.0 - s**2)), 0.0)


def random_field(grid, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return Field(grid, amplitude * rng.standard_normal(grid.shape))


# ---------------------------------------------------------------------------
# construction and validation


def test_grid_rejects_bad_parameters():
    with pytest.raises(DomainError):
        GridSpec(dim=0)
    with pytest.raises(DomainError):
        GridSpec(dim=4)
    with pytest.raises(DomainError):
        GridSpec(dim=True)  # a bool is not an integer
    with pytest.raises(DomainError):
        GridSpec(half_length=10**400)  # an int beyond the float range
    with pytest.raises(DomainError):
        GridSpec(half_length=0.0)
    with pytest.raises(DomainError):
        GridSpec(points_per_dim=96)  # not a power of two
    with pytest.raises(DomainError):
        GridSpec(points_per_dim=2)  # below minimum
    with pytest.raises(DomainError):
        GridSpec(alpha=0.0)
    with pytest.raises(DomainError):
        GridSpec(alpha=1.5)


def test_field_shape_and_finiteness():
    g = GridSpec(points_per_dim=8)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(DomainError) as err:
        Field(g, bad)
    assert "3" in str(err.value)
    # flat row-major input accepted
    g2 = GridSpec(dim=2, points_per_dim=4)
    f = Field(g2, np.arange(16.0))
    assert f.values.shape == (4, 4)
    assert f.values[1, 2] == 6.0


def test_field_values_are_immutable():
    g = GridSpec(points_per_dim=8)
    f = Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = np.ones(8)


def test_symbol_zero_mode_and_symmetry():
    g = GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.6)
    sym = grids.fractional_symbol(g)
    assert sym.multipliers[0, 0] == 0.0
    # symmetry under frequency negation: index k <-> N-k
    m = sym.multipliers
    assert np.allclose(m, m[::-1, :][np.r_[-1, :15], :][:, ::-1][:, np.r_[-1, :15]])


# ---------------------------------------------------------------------------
# operator oracles


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_pure_mode_eigenvalue(alpha, k):
    g = GridSpec(dim=1, half_length=3.0, points_per_dim=64, alpha=alpha)
    sym = grids.fractional_symbol(g)
    x = g.axis()
    f = Field(g, np.sin(k * np.pi * x / g.half_length))
    lam = (k * np.pi / g.half_length) ** (2 * alpha)
    out = grids.frac_laplacian(f, sym)
    assert np.max(np.abs(out.values - lam * f.values)) / lam < 1e-10


def test_h_alpha_norm_single_mode_closed_form():
    # ||sin(k pi x/L)||_{H^alpha}^2 = L*(1 + (k pi/L)^(2 alpha))
    g = GridSpec(dim=1, half_length=5.0, points_per_dim=128, alpha=0.7)
    sym = grids.fractional_symbol(g)
    k = 3
    f = Field(g, np.sin(k * np.pi * g.axis() / g.half_length))
    lam = (k * np.pi / g.half_length) ** (2 * g.alpha)
    want = np.sqrt(g.half_length * (1.0 + lam))
    assert abs(grids.h_alpha_norm(f, sym) - want) < 1e-10 * want


def test_constant_field_l2_norm():
    g = GridSpec(dim=2, half_length=2.5, points_per_dim=8, alpha=0.5)
    f = Field(g, np.full(g.shape, -1.7))
    assert abs(grids.l2_norm(f) - 1.7 * (2 * 2.5) ** (2 / 2)) < 1e-12


def test_plancherel_identity():
    g = GridSpec(dim=1, half_length=4.0, points_per_dim=256, alpha=0.5)
    f = random_field(g, seed=7)
    hat = np.fft.fftn(f.values)
    via_fourier = np.sqrt(g.cell_volume / g.n_total * np.sum(np.abs(hat) ** 2))
    assert abs(grids.l2_norm(f) - via_fourier) < 1e-10 * via_fourier


def test_operator_linearity_self_adjointness_psd():
    g = GridSpec(dim=1, half_length=4.0, points_per_dim=128, alpha=0.6)
    sym = grids.fractional_symbol(g)
    f = random_field(g, seed=1)
    h = random_field(g, seed=2)
    lin = grids.frac_laplacian(Field(g, 2.0 * f.values - 3.0 * h.values), sym)
    ref = 2.0 * grids.frac_laplacian(f, sym).values - 3.0 * grids.frac_laplacian(h, sym).values
    assert np.allclose(lin.values, ref, atol=1e-11)
    lhs = grids.l2_inner(grids.frac_laplacian(f, sym), h)
    rhs = grids.l2_inner(f, grids.frac_laplacian(h, sym))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    assert grids.l2_inner(grids.frac_laplacian(f, sym), f) >= -1e-12


def test_symbol_monotone_in_alpha_when_frequencies_at_least_one():
    # with L <= pi every nonzero |xi| >= 1, so |xi|^(2a) grows with a
    g_small = GridSpec(dim=1, half_length=np.pi, points_per_dim=64, alpha=0.3)
    f = random_field(g_small, seed=3)
    previous = -np.inf
    for alpha in (0.3, 0.5, 0.8, 1.0):
        g = GridSpec(dim=1, half_length=np.pi, points_per_dim=64, alpha=alpha)
        sym = grids.fractional_symbol(g)
        quad = grids.l2_inner(grids.frac_laplacian(Field(g, f.values), sym), Field(g, f.values))
        assert quad >= previous - 1e-10
        previous = quad


def test_alpha_one_matches_second_difference_richardson():
    # at alpha = 1 the operator is -f''; centered differences converge at O(h^2)
    errors = []
    for n in (128, 256):
        g = GridSpec(dim=1, half_length=6.0, points_per_dim=n, alpha=1.0)
        sym = grids.fractional_symbol(g)
        f = Field(g, np.exp(np.cos(np.pi * g.axis() / g.half_length)))
        out = grids.frac_laplacian(f, sym).values
        v = f.values
        fd = -(np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / g.spacing**2
        errors.append(np.max(np.abs(out - fd)))
    assert errors[1] < errors[0] / 3.5  # ~4x for O(h^2)


def test_gagliardo_quadrature_agrees_with_spectral_seminorm():
    rels = []
    for n in (256, 512, 1024):
        g = GridSpec(dim=1, half_length=8.0, points_per_dim=n, alpha=0.5)
        sym = grids.fractional_symbol(g)
        f = Field(g, bump(g.axis(), radius=1.0))
        spec = grids.halpha_seminorm(f, sym)
        gag = grids.gagliardo_seminorm(f)
        rels.append(abs(spec - gag) / spec)
    assert rels[2] < rels[0]  # improving under refinement
    assert rels[2] < 0.10


def test_gagliardo_guards():
    g = GridSpec(dim=1, half_length=4.0, points_per_dim=8, alpha=1.0)
    with pytest.raises(DomainError):
        grids.gagliardo_seminorm(Field(g, np.zeros(8)))  # alpha = 1 diverges
    g2 = GridSpec(dim=2, half_length=4.0, points_per_dim=8, alpha=0.5)
    with pytest.raises(DomainError):
        grids.gagliardo_seminorm(Field(g2, np.zeros(g2.shape)))


def test_grid_mismatch_is_an_error():
    g1 = GridSpec(points_per_dim=16)
    g2 = GridSpec(points_per_dim=32)
    sym = grids.fractional_symbol(g1)
    with pytest.raises(GridMismatchError):
        grids.frac_laplacian(Field(g2, np.zeros(32)), sym)
    with pytest.raises(GridMismatchError):
        grids.l2_inner(Field(g1, np.zeros(16)), Field(g2, np.zeros(32)))


# ---------------------------------------------------------------------------
# norm interpolation property


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), amplitude=st.floats(0.1, 50.0))
def test_lp_interpolation_l2_against_l1_l4(seed, amplitude):
    # Holder interpolation: ||f||_2 <= ||f||_1^(1/3) * ||f||_4^(2/3)
    g = GridSpec(dim=1, half_length=2.0, points_per_dim=32, alpha=0.5)
    f = random_field(g, seed, amplitude)
    n2 = grids.lp_norm(f, 2)
    n1 = grids.lp_norm(f, 1)
    n4 = grids.lp_norm(f, 4)
    assert n2 <= n1 ** (1.0 / 3.0) * n4 ** (2.0 / 3.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("dim,points", [(1, 32), (2, 16), (3, 8)])
def test_half_spectrum_seminorm_matches_full_fft(dim, points):
    # a checkerboard along the last axis puts energy in its Nyquist bin, the
    # one bin besides 0 that the Hermitian weighting must count once
    g = GridSpec(dim=dim, half_length=2.0, points_per_dim=points, alpha=0.7)
    sym = grids.fractional_symbol(g)
    rng = np.random.default_rng(dim)
    checker = (-1.0) ** np.arange(points)
    fields = [
        Field(g, rng.standard_normal(g.shape) + 3.0 * checker),
        Field(g, np.broadcast_to(checker, g.shape)),
    ]
    hat = np.fft.rfftn(np.stack([f.values for f in fields]), axes=tuple(range(-dim, 0)))
    got = grids.array_seminorm_sq(g, grids.half_spectrum_multipliers(g), hat)
    for value, f in zip(got, fields):
        assert value == pytest.approx(grids.halpha_seminorm(f, sym) ** 2, rel=1e-12)


def test_lp_pow_four_matches_float_pow():
    g = GridSpec(dim=2, half_length=2.0, points_per_dim=16, alpha=0.5)
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((3, *g.shape)) * np.array([1e-3, 1.0, 1e3])[:, None, None]
    want = g.cell_volume * np.sum(np.abs(arr) ** 4.0, axis=(-2, -1))
    assert np.allclose(grids.array_lp_pow(g, arr, 4.0), want, rtol=1e-14, atol=0.0)
    assert np.allclose(grids.array_lp_pow(g, arr, 4), want, rtol=1e-14, atol=0.0)


def test_lp_norm_inf_and_validation():
    g = GridSpec(points_per_dim=8)
    f = Field(g, np.array([0.0, -3.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0]))
    assert grids.lp_norm(f, np.inf) == 3.0
    with pytest.raises(DomainError):
        grids.lp_norm(f, 0.5)
