"""Tests for the drift/noise/forcing model layer and the condition validators."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracldp
from fracldp import zoo
from fracldp.grids import DomainError, GridMismatchError
from fracldp.models import (
    MARGIN_TOL,
    T_MAX,
    ConditionError,
    DriftSpec,
    ForcingSpec,
    ModelSpec,
    NoiseSpec,
    SamplingPlan,
    growth_constant,
    linear_growth_constants,
    lipschitz_constant,
    noise_apply_array,
    signed_power,
    smooth_bump,
    validate_drift,
    validate_noise,
)
from fracldp.models import _scalar_samples

PLAN = SamplingPlan(n_samples=400, seed=7)


# ---------------------------------------------------------------------------
# elementary pieces


def test_signed_power_values():
    u = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    out = signed_power(u, 3.0)
    assert np.allclose(out, [-8.0, -1.0, 0.0, 1.0, 27.0])


def test_signed_power_fractional_exponent_no_nan():
    out = signed_power(np.array([-4.0, 4.0]), 1.5)
    assert np.allclose(out, [-8.0, 8.0])


# ---------------------------------------------------------------------------
# drift


def test_cubic_drift_values_and_derivative():
    d = DriftSpec(form="cubic_minus_linear", p=4.0)
    u = np.array([0.0, 1.0, 2.0, -2.0])
    assert np.allclose(d.value(0.0, None, u), [0.0, 0.0, 6.0, -6.0])
    assert np.allclose(d.deriv(0.0, None, u), 3 * u**2 - 1)


def test_pure_power_drift_is_signed_power():
    d = DriftSpec(form="pure_power", p=3.0)
    u = np.array([-2.0, 2.0])
    assert np.allclose(d.value(0.0, None, u), [-4.0, 4.0])


def test_drift_rejects_bad_forms():
    with pytest.raises(ConditionError):
        DriftSpec(form="quadratic", p=4.0)
    with pytest.raises(ConditionError):
        DriftSpec(form="cubic_minus_linear", p=3.0)  # cubic form is p=4 only
    with pytest.raises(ConditionError):
        DriftSpec(form="pure_power", p=1.5)  # superlinear means p > 2
    with pytest.raises(ConditionError):
        DriftSpec(form="custom-callback", p=4.0)  # callback missing
    for name, bad in (("lambda1", np.nan), ("lambda1", np.inf), ("psi1_bound", np.nan)):
        with pytest.raises(ConditionError, match=f"^{name}: "):
            DriftSpec(**{name: bad})


def test_validate_drift_default_passes_with_certificates():
    rep = validate_drift(zoo.default_model().drift, PLAN)
    assert rep.passed
    # analytic best constants: u^4 - u^2 >= lam*u^4 - 1/2 holds iff lam <= 1/2,
    # and the monotonicity constant is exactly 1.
    assert rep.constants["lambda1"] == pytest.approx(0.5, abs=0.02)
    assert rep.constants["lambda2"] == pytest.approx(1.0, abs=0.02)


def test_validate_drift_pure_power_certificates():
    rep = validate_drift(zoo.pure_power_model().drift, PLAN)
    assert rep.passed
    assert rep.constants["lambda1"] == pytest.approx(1.0, abs=0.02)
    assert rep.constants["lambda2"] == pytest.approx(1.0, abs=0.02)


def test_validate_drift_catches_overclaimed_coercivity():
    bad = DriftSpec(form="cubic_minus_linear", p=4.0, lambda1=0.9, psi1_bound=0.5)
    rep = validate_drift(bad, PLAN)
    chk = rep.check("drift-coercivity")
    assert not chk.passed
    assert chk.witness is not None and "u" in chk.witness


def test_validate_drift_catches_overclaimed_monotonicity():
    bad = DriftSpec(form="pure_power", p=4.0, lambda1=1.0, lambda2=6.0)
    rep = validate_drift(bad, PLAN)
    assert not rep.check("drift-monotonicity").passed


def _overclaimed_coercivity():
    return DriftSpec(form="cubic_minus_linear", p=4.0, lambda1=0.9, psi1_bound=0.5)


def _overclaimed_monotonicity():
    return DriftSpec(form="pure_power", p=4.0, lambda1=1.0, lambda2=6.0)


def _tight_coercivity(psi1):
    """psi1 barely above max(u^2 - u^4) = 1/4: lambda1*|u|^4 is small against
    |F*u| + psi1 at the binding sample, so rounding moves the float boundary
    of the predicate many ulps away from the closed form."""
    return lambda: DriftSpec(form="cubic_minus_linear", p=4.0, psi1_bound=psi1)


CERTIFIED_DRIFTS = {
    **{name: (lambda b=builder: b().drift) for name, builder in zoo.zoo().items()},
    "overclaimed-coercivity": _overclaimed_coercivity,
    "overclaimed-monotonicity": _overclaimed_monotonicity,
    **{f"tight-psi1-{psi1}": _tight_coercivity(psi1) for psi1 in (0.2501, 0.26, 0.3)},
}


def _certificate_ok(drift, plan, cert, lam):
    """The normalized certificate predicate, written out: the coercivity
    ("lambda1") or monotonicity ("lambda2") margin at constant ``lam`` passes
    at every sampled point and time."""
    rng = np.random.default_rng(plan.seed)
    u = _scalar_samples(plan, rng)
    u2 = rng.permutation(u)
    p, du, x = drift.p, u - u2, [np.zeros(1)]
    for t in np.linspace(0.0, T_MAX, 5):
        f1 = drift.value(t, x, u)
        if cert == "lambda1":
            a, b, c = f1 * u, np.abs(u) ** p, drift.psi1_bound
        else:
            a = (f1 - drift.value(t, x, u2)) * du
            b = (signed_power(u, p - 1.0) - signed_power(u2, p - 1.0)) * du
            c = drift.psi4_bound * du**2
        norm = (a - lam * b + c) / np.maximum(1.0, np.abs(a) + lam * np.abs(b) + c)
        if np.min(norm) < -MARGIN_TOL:
            return False
    return True


def _bisection_certificate(drift, plan, cert):
    """Largest passing constant by bisection, the reference for the closed form."""
    def ok(lam):
        return _certificate_ok(drift, plan, cert, lam)

    if not ok(1e-12):
        return 0.0
    lo, hi = 0.0, 8.0
    while ok(hi) and hi < 1e6:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("name", sorted(CERTIFIED_DRIFTS))
def test_certificates_pass_are_maximal_and_match_bisection(name):
    drift = CERTIFIED_DRIFTS[name]()
    rep = validate_drift(drift, PLAN)
    for cert, lam in rep.constants.items():
        assert lam > 0.0
        assert _certificate_ok(drift, PLAN, cert, lam)
        assert not _certificate_ok(drift, PLAN, cert, float(np.nextafter(lam, np.inf)))
        assert lam == pytest.approx(_bisection_certificate(drift, PLAN, cert), rel=1e-12, abs=0.0)


def test_certificate_floor_and_ceiling():
    # without psi1, u^4 - u^2 >= lam*u^4 fails near u = 0 for every lam
    no_psi1 = DriftSpec(form="cubic_minus_linear", p=4.0, psi1_bound=0.0)
    assert validate_drift(no_psi1, PLAN).constants["lambda1"] == 0.0
    steep = DriftSpec(form="custom-callback", p=4.0, callback=lambda t, x, u: 1e7 * u**3)
    assert validate_drift(steep, PLAN).constants == {"lambda1": 2.0**20, "lambda2": 2.0**20}


def test_validate_drift_evaluation_budget():
    """Margins and certificates take one pass over the sampled times, two F
    calls per time; a probe loop must not return."""
    calls = []

    def cubic(t, x, u):
        calls.append(u.size)
        return u**3 - u

    rep = validate_drift(DriftSpec(form="custom-callback", p=4.0, callback=cubic), SamplingPlan())
    assert rep.passed
    assert 0 < len(calls) <= 30


def _count_calls(monkeypatch, cls, name):
    """Patch ``cls.name`` to record the size of its last argument on each call."""
    sizes = []
    original = getattr(cls, name)

    def counted(self, *args):
        sizes.append(np.size(args[-1]))
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return sizes


@pytest.mark.parametrize("form, calls", [("cubic_minus_linear", 2), ("custom-callback", 10)])
def test_validate_drift_evaluates_a_time_free_drift_at_one_time(form, calls, monkeypatch):
    """A built-in drift does not depend on t: F(u) and F(u2) once. A callback
    drift is evaluated on u and u2 at each of the 5 sampled times."""
    drift = DriftSpec(form=form, callback=lambda t, x, u: u**3 - u)
    sizes = _count_calls(monkeypatch, DriftSpec, "value")
    rep = validate_drift(drift, PLAN)
    n = len(_scalar_samples(PLAN, np.random.default_rng(PLAN.seed)))
    assert sizes == [n] * calls
    assert all(c.samples == 5 * n for c in rep.checks)


@pytest.mark.parametrize("n_modes", [1, 4, 9])
@pytest.mark.parametrize("noise_form", ["smooth_power", "saturated_power"])
def test_validate_noise_computes_the_separable_profile_once(noise_form, n_modes, monkeypatch):
    """The per-mode conditions of a separable noise compute s(u) and s(u2)
    once, whatever the number of modes; the HS conditions call the profile
    on grid fields only."""
    m = zoo.build_model(noise_form=noise_form, n_modes=n_modes)
    sizes = _count_calls(monkeypatch, NoiseSpec, "profile")
    rep = validate_noise(m.noise, m.drift.p, PLAN)
    n = len(_scalar_samples(PLAN, np.random.default_rng(PLAN.seed + 1)))
    assert n != m.grid.n_total
    assert sizes.count(n) == 2
    assert set(sizes) == {n, m.grid.n_total}
    assert rep.check("noise-growth").samples == 3 * n_modes * n


NAN_PLAN = SamplingPlan(n_samples=20000, seed=0)
DRIFT_CHECKS = ("drift-coercivity", "drift-growth", "drift-monotonicity")


def _assert_nan_failures(rep, names, **at):
    """Each named check failed with a NaN margin, its witness at ``at``."""
    for name in names:
        c = rep.check(name)
        assert np.isnan(c.margin) and not c.passed, name
        for key, value in at.items():
            assert c.witness[key] == value, name


def test_validate_drift_keeps_a_nan_found_at_a_late_time():
    """A drift that is NaN only at the last sampled time fails all three
    conditions: the NaN is not lost behind the finite margins of earlier times."""
    def late_nan(t, x, u):
        return np.full_like(u, np.nan) if t == T_MAX else u**3 - u

    rep = validate_drift(DriftSpec(form="custom-callback", p=4.0, callback=late_nan), NAN_PLAN)
    _assert_nan_failures(rep, DRIFT_CHECKS, t=T_MAX)
    assert rep.constants == {"lambda1": 0.0, "lambda2": 0.0}


@pytest.mark.parametrize("when", ["every-time", "last-time"])
@pytest.mark.parametrize("block", [8192, 997])
def test_validate_drift_keeps_a_single_sample_nan_in_a_late_block(when, block, monkeypatch):
    """A NaN at one sample, the last one drawn and so in the last block, fails
    the drift conditions whichever earlier blocks and times were finite."""
    monkeypatch.setattr("fracldp.models._SAMPLE_BLOCK", block)
    target = _scalar_samples(NAN_PLAN, np.random.default_rng(NAN_PLAN.seed))[-1]

    def one_nan(t, x, u):
        hit = (u == target) & (when == "every-time" or t == T_MAX)
        return np.where(hit, np.nan, u**3 - u)

    rep = validate_drift(DriftSpec(form="custom-callback", p=4.0, callback=one_nan), NAN_PLAN)
    t_first = 0.0 if when == "every-time" else T_MAX
    _assert_nan_failures(rep, ("drift-coercivity", "drift-growth"), t=t_first, u=target)
    _assert_nan_failures(rep, ("drift-monotonicity",), t=t_first)
    pair = rep.check("drift-monotonicity").witness
    assert target in (pair["u1"], pair["u2"])


# ---------------------------------------------------------------------------
# noise


def _default_noise():
    m = zoo.default_model()
    return m.noise, m.drift.p


def test_noise_profile_growth_bound():
    noise, _ = _default_noise()
    u = np.linspace(-30, 30, 401)
    s = noise.profile(u)
    assert np.all(s**2 <= np.abs(u) ** noise.q + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    u=st.one_of(st.floats(-100, -1e-6), st.floats(1e-6, 100)),
    q=st.floats(2.0, 3.0),
)
def test_smooth_power_profile_squared_is_power(u, q):
    noise = zoo.build_model(noise_form="smooth_power", q=q).noise
    val = noise.profile(np.array([u]))[0]
    assert val**2 == pytest.approx(abs(u) ** q, rel=1e-9, abs=1e-12)
    assert np.sign(val) == np.sign(u)


def test_saturated_profile_bounded():
    noise = zoo.build_model(noise_form="saturated_power", q=2.5, saturation=0.1).noise
    u = np.array([1e6])
    assert abs(noise.profile(u)[0]) <= 1.0 / 0.1 + 1e-9


def test_noise_rejects_bad_specs():
    grid = zoo.standard_grid(points=16)
    kappa = smooth_bump(grid, radius=0.5)
    sig1 = np.zeros((2, *grid.shape))
    ones = np.ones(2)
    with pytest.raises(ConditionError):
        NoiseSpec(grid=grid, n_modes=2, q=1.5, kappa=kappa, sigma1=sig1,
                  coeff_alpha=ones, coeff_beta=ones, coeff_gamma=ones)
    with pytest.raises(ConditionError):
        NoiseSpec(grid=grid, n_modes=2, q=2.5, kappa=kappa, sigma1=sig1,
                  coeff_alpha=ones, coeff_beta=-ones, coeff_gamma=ones)
    with pytest.raises(GridMismatchError):
        NoiseSpec(grid=grid, n_modes=2, q=2.5, kappa=kappa,
                  sigma1=np.zeros((3, *grid.shape)),
                  coeff_alpha=ones, coeff_beta=ones, coeff_gamma=ones)


def test_hs_norm_additive_only_is_sigma1_mass():
    # with kappa = 0 the Hilbert-Schmidt norm is exactly sum_k ||sigma1_k||^2
    m = zoo.linear_additive_model()
    u = np.random.default_rng(1).normal(size=m.grid.shape)
    expect = sum(
        float(m.grid.cell_volume * np.sum(m.noise.sigma1[k] ** 2))
        for k in range(m.noise.n_modes)
    )
    hs_sq = float(m.grid.cell_volume * np.sum(m.noise.mode_values(0.0, u) ** 2))
    assert hs_sq == pytest.approx(expect, rel=1e-12)
    assert m.noise.sigma1_sq() == pytest.approx(expect, rel=1e-12)


def test_noise_apply_separable_matches_direct_sum():
    noise, _ = _default_noise()
    rng = np.random.default_rng(2)
    u = rng.normal(size=noise.grid.shape)
    w = rng.normal(size=noise.n_modes)
    fast = noise_apply_array(noise, 0.3, u, w)
    slow = np.zeros_like(u)
    for k in range(noise.n_modes):
        slow += w[k] * (noise.sigma1[k] + noise.kappa.values * noise.sigma2_mode(0.3, k, u))
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)


def test_noise_apply_batched_matches_loop():
    noise, _ = _default_noise()
    rng = np.random.default_rng(3)
    u = rng.normal(size=(5, *noise.grid.shape))
    w = rng.normal(size=(5, noise.n_modes))
    batched = noise_apply_array(noise, 0.0, u, w)
    for b in range(5):
        single = noise_apply_array(noise, 0.0, u[b], w[b])
        assert np.allclose(batched[b], single, rtol=1e-12, atol=1e-14)


def test_growth_constant_additive_guard_and_monotonicity():
    m = zoo.linear_additive_model()  # kappa = 0: the superlinear term drops out
    c = growth_constant(m.noise, 4.0, 0.5)
    assert c == pytest.approx(2.0 * float(np.sum(m.noise.coeff_beta)) * 0.0 + 0.0, abs=1e-12) or c >= 0
    noise, p = _default_noise()
    c1 = growth_constant(noise, p, 0.1)
    c2 = growth_constant(noise, p, 1.0)
    assert c1 > c2 > 0  # smaller eps buys a bigger constant
    with pytest.raises(DomainError):
        growth_constant(noise, p, np.nan)


def test_linear_growth_boundary_uses_sup_norm():
    # at q = 1 + p/2 the kappa-norm exponent 4p/(p - 2(q-1)) diverges and the
    # constant degrades continuously to the sup-norm of kappa
    boundary = zoo.boundary_growth_model().noise
    _, c_b = linear_growth_constants(boundary, 4.0)
    sup_sq = float(np.max(np.abs(boundary.kappa.values))) ** 2
    expect = 2.0 * float(np.sum(boundary.coeff_gamma)) * sup_sq
    assert c_b == pytest.approx(expect, rel=1e-12)
    interior, p = _default_noise()
    _, c_i = linear_growth_constants(interior, p)
    assert np.isfinite(c_i) and c_i > 0


def test_lipschitz_constant_positive():
    noise, p = _default_noise()
    assert lipschitz_constant(noise, p) > 0


def test_validate_noise_zoo_members_pass():
    for name, builder in zoo.zoo().items():
        model = builder()
        rep = validate_noise(model.noise, model.drift.p, PLAN)
        assert rep.passed, f"{name}: {[c.name for c in rep.checks if not c.passed]}"


def test_validate_noise_flags_wide_kappa():
    base = zoo.build_model().noise
    wide = smooth_bump(base.grid, radius=3.9)  # support nearly fills the torus
    noise = NoiseSpec(
        grid=base.grid, n_modes=base.n_modes, q=base.q, kappa=wide,
        sigma1=base.sigma1, coeff_alpha=base.coeff_alpha,
        coeff_beta=base.coeff_beta, coeff_gamma=base.coeff_gamma,
        form=base.form, saturation=base.saturation,
        tail_bound=base.tail_bound,
    )
    rep = validate_noise(noise, 4.0, PLAN)
    assert not rep.check("kappa-support").passed


def test_validate_noise_exponent_range_is_the_model_rule():
    """The exponent-range check reads the rule ModelSpec enforces, q <= 1 + p/2
    with no slack: at p = 4 the edge q = 3 passes and q = 3 + 5e-13 fails."""
    base = zoo.build_model().noise
    for q, inside in ((3.0, True), (3.0 + 5e-13, False)):
        rep = validate_noise(dataclasses.replace(base, q=q), 4.0, PLAN)
        assert rep.check("exponent-range").passed == inside


def test_validate_noise_flags_overclaimed_growth():
    # built-in forms satisfy the growth condition by construction, so the
    # negative control is a custom mode amplitude whose declared coefficients
    # understate it: sigma2 = u needs gamma >= 1, not 1e-6
    base = zoo.build_model().noise
    tiny = np.full(base.n_modes, 1e-6)
    lying = NoiseSpec(
        grid=base.grid, n_modes=base.n_modes, q=base.q, kappa=base.kappa,
        sigma1=base.sigma1, coeff_alpha=tiny, coeff_beta=tiny, coeff_gamma=tiny,
        form="custom-callback",
        sigma2_callback=lambda t, coords, u, k: u,
        tail_bound=base.tail_bound,
    )
    rep = validate_noise(lying, 4.0, PLAN)
    assert not rep.check("noise-growth").passed


@pytest.mark.parametrize("where", ["last-time", "last-mode"])
def test_validate_noise_keeps_a_nan_found_late(where):
    """A mode amplitude that is NaN only at the last sampled time, or only in
    the last mode, fails both per-mode conditions with a NaN margin."""
    base = zoo.build_model().noise
    last = {"last-time": ("t", T_MAX), "last-mode": ("mode", base.n_modes - 1)}[where]

    def late_nan(t, coords, u, k):
        return np.full_like(u, np.nan) if {"t": t, "mode": k}[last[0]] == last[1] else base.sigma2_mode(t, k, u)

    noise = dataclasses.replace(base, form="custom-callback", sigma2_callback=late_nan)
    rep = validate_noise(noise, 4.0, NAN_PLAN)
    _assert_nan_failures(rep, ("noise-lipschitz", "noise-growth"), **dict([last]))


HS_CHECKS = ("hs-split-eps-0.1", "hs-split-eps-1.0", "hs-linear", "hs-lipschitz")


def test_validate_noise_samples_a_time_dependent_hs_bound_at_every_time():
    """A callback noise that is 1000x larger at t = T_MAX fails the HS bounds
    there too, not only the per-mode conditions; at t = 0 alone the HS
    margins are about 0.03 and pass."""
    model = zoo.default_model()
    base = model.noise
    plan = SamplingPlan(n_samples=2000, n_fields=12, seed=3)

    def late_surge(t, coords, u, k):
        return (1000.0 if t == T_MAX else 1.0) * np.sqrt(base.coeff_gamma[k]) * base.profile(u)

    noise = dataclasses.replace(base, form="custom-callback", sigma2_callback=late_surge)
    rep = validate_noise(noise, model.drift.p, plan)
    for name in ("noise-lipschitz", "noise-growth", *HS_CHECKS):
        c = rep.check(name)
        assert not c.passed and c.witness["t"] == T_MAX, name
    for name in HS_CHECKS:
        assert rep.check(name).samples == 3 * plan.n_fields
    steady = validate_noise(dataclasses.replace(noise, sigma2_callback=lambda t, c, u, k: late_surge(0.0, c, u, k)),
                            model.drift.p, plan)
    assert steady.passed


WITNESS_PLAN = SamplingPlan(n_samples=2000, n_fields=7, seed=3)


def _normalized(margin, scale):
    return float((margin / np.maximum(1.0, scale))[0])


def _drift_margin_at(drift, coords, name, w):
    """Normalized margin of one drift condition, recomputed at its witness."""
    p, t = drift.p, w["t"]
    if name == "drift-monotonicity":
        u1, u2 = np.array([w["u1"]]), np.array([w["u2"]])
        du = u1 - u2
        a = (drift.value(t, coords, u1) - drift.value(t, coords, u2)) * du
        b = (signed_power(u1, p - 1.0) - signed_power(u2, p - 1.0)) * du
        c = drift.psi4_bound * du**2
        return _normalized(a - drift.lambda2 * b + c, np.abs(a) + drift.lambda2 * np.abs(b) + c)
    u = np.array([w["u"]])
    f = drift.value(t, coords, u)
    if name == "drift-coercivity":
        a, b, c = f * u, np.abs(u) ** p, drift.psi1_bound
        return _normalized(a - drift.lambda1 * b + c, np.abs(a) + drift.lambda1 * np.abs(b) + c)
    grow = drift.psi2_bound * np.abs(u) ** (p - 1.0)
    return _normalized(grow + drift.psi3_bound - np.abs(f), np.abs(f) + grow)


def _noise_margin_at(noise, name, w):
    """Normalized margin of one per-mode noise condition, recomputed at its witness."""
    t, k, q = w["t"], w["mode"], noise.q
    if name == "noise-lipschitz":
        u1, u2 = np.array([w["u1"]]), np.array([w["u2"]])
        rhs = noise.coeff_alpha[k] * (1.0 + np.abs(u1) ** (q - 2.0) + np.abs(u2) ** (q - 2.0)) * (u1 - u2) ** 2
        lhs = (noise.sigma2_mode(t, k, u1) - noise.sigma2_mode(t, k, u2)) ** 2
    else:
        u = np.array([w["u"]])
        rhs = noise.coeff_beta[k] + noise.coeff_gamma[k] * np.abs(u) ** q
        lhs = noise.sigma2_mode(t, k, u) ** 2
    return _normalized(rhs - lhs, rhs + lhs)


@pytest.mark.parametrize("preset", sorted(zoo.PRESETS))
def test_sampled_witnesses_reproduce_their_margins(preset):
    """Each sampled check's witness is the sample its worst margin came from."""
    m = zoo.PRESETS[preset].build()
    coords = m.grid.coords()
    drift_rep = validate_drift(m.drift, WITNESS_PLAN, grid=m.grid)
    for name in ("drift-coercivity", "drift-growth", "drift-monotonicity"):
        c = drift_rep.check(name)
        assert c.witness["t"] in np.linspace(0.0, T_MAX, 5)
        assert _drift_margin_at(m.drift, coords, name, c.witness) == pytest.approx(c.margin, abs=1e-12), name
    noise_rep = validate_noise(m.noise, m.drift.p, WITNESS_PLAN)
    for name in ("noise-lipschitz", "noise-growth"):
        c = noise_rep.check(name)
        assert c.witness["t"] in np.linspace(0.0, T_MAX, 3)
        assert 0 <= c.witness["mode"] < m.noise.n_modes
        assert _noise_margin_at(m.noise, name, c.witness) == pytest.approx(c.margin, abs=1e-12), name


def _validators(case):
    """The validators a block-size case runs: drift and noise of a preset, or
    the drift of a certified entry."""
    kind, name = case.split(":")
    if kind == "preset":
        m = zoo.PRESETS[name].build()
        return lambda: (validate_drift(m.drift, WITNESS_PLAN, grid=m.grid),
                        validate_noise(m.noise, m.drift.p, WITNESS_PLAN))
    drift = CERTIFIED_DRIFTS[name]()
    return lambda: (validate_drift(drift, WITNESS_PLAN),)


@pytest.mark.parametrize(
    "case", [f"preset:{n}" for n in sorted(zoo.PRESETS)] + [f"drift:{n}" for n in sorted(CERTIFIED_DRIFTS)]
)
def test_sample_blocks_do_not_change_reports(case, monkeypatch):
    """Margins, witnesses and certificates are the same whether the samples run
    as one block or in blocks of 997, which divides no sample count (2000
    samples: 997 + 997 + 6). The tight-psi1 and overclaimed entries move the
    certificates' bisection bound in more than one block."""
    run = _validators(case)
    monkeypatch.setattr("fracldp.models._SAMPLE_BLOCK", WITNESS_PLAN.n_samples)
    whole = run()
    monkeypatch.setattr("fracldp.models._SAMPLE_BLOCK", 997)
    assert run() == whole


# the second plan draws 18 000 samples: three blocks of _SAMPLE_BLOCK
TWIN_PLANS = {"2000": WITNESS_PLAN, "12000": SamplingPlan(n_samples=12000, n_fields=5, seed=11)}


def _bits(x):
    """A report value with each float written as ``float.hex``, so that
    equality is bit equality."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _report_bits(rep):
    return [(c.name, _bits(c.margin), c.passed, c.samples, _bits(c.witness)) for c in rep.checks], _bits(rep.constants)


@pytest.mark.parametrize("plan", sorted(TWIN_PLANS))
@pytest.mark.parametrize("preset", sorted(zoo.PRESETS))
def test_time_free_specs_match_their_every_time_callback_twins(preset, plan):
    """A spec sampled at t = 0 only reports what the per-time loop reports for
    the same functions wrapped as callbacks, which it runs at every time."""
    m, plan = zoo.PRESETS[preset].build(), TWIN_PLANS[plan]
    drift_twin = dataclasses.replace(m.drift, form="custom-callback", callback=m.drift.value)
    assert _report_bits(validate_drift(drift_twin, plan, grid=m.grid)) == _report_bits(
        validate_drift(m.drift, plan, grid=m.grid)
    )
    noise = m.noise
    assert noise.separable
    noise_twin = dataclasses.replace(
        noise, form="custom-callback",
        sigma2_callback=lambda t, coords, u, k: np.sqrt(noise.coeff_gamma[k]) * noise.profile(u),
    )
    twin_rep = validate_noise(noise_twin, m.drift.p, plan)
    # the twin's HS checks also run at every time: their worst margins are
    # the ones at t = 0, and they count (t, field) pairs
    for c in twin_rep.checks:
        if c.name in HS_CHECKS:
            assert c.witness.pop("t") == 0.0 and c.samples == 3 * plan.n_fields, c.name
            c.samples = plan.n_fields
    assert _report_bits(twin_rep) == _report_bits(validate_noise(noise, m.drift.p, plan))


# A loop reorder that keeps every margin can still move a tie's witness, which
# the comparisons between two runs above do not see; these digests pin every
# preset's drift and noise reports at one plan of one block and at one of four.
DIGEST_PLANS = {"2000": WITNESS_PLAN, "18000": SamplingPlan(n_samples=18000, n_fields=5, seed=11)}
REPORT_DIGESTS = {
    ("boundary-growth", "2000"): "de0842891ff3dce59465b75ad6a96154248ff39f34caa06273b76c8a3d5603d1",
    ("built", "2000"): "57d0fbc3e8701062a12e8e525d6579b8c84477823308c94f71ddc68b7405225d",
    ("constant-reduction", "2000"): "5ef0b09fcc8b2c74228fc96577c701fd71b1f310b32b9350b5c1e3bf050e3d99",
    ("default", "2000"): "57d0fbc3e8701062a12e8e525d6579b8c84477823308c94f71ddc68b7405225d",
    ("fractional", "2000"): "57d0fbc3e8701062a12e8e525d6579b8c84477823308c94f71ddc68b7405225d",
    ("linear-additive", "2000"): "6a1641e2f286c394ed785863d7becd74f906c671a083d148e4e74e9b88b1dd73",
    ("pure-power", "2000"): "2b749aa575599fab51dd4a533d980b7ff4df605065d1566b75226be8cfb72fb6",
    ("scalar-linear", "2000"): "c59d11f1e3792d3f96bd0f9389b85ec6dd7bc3871e75b415d9e214365e8ac0e2",
    ("boundary-growth", "18000"): "7d234bb6befad0e7744f5c7d3ff23daa006f76b5ea900d4f778d8a34e2d0b64e",
    ("built", "18000"): "9edadf0df5c710f9c9ff94554a48783357457d55a86ec4e339bca1bea31f1372",
    ("constant-reduction", "18000"): "71a81d633bb163203344cb66d36bfaa3015f67660a83ff0ea552577532661228",
    ("default", "18000"): "9edadf0df5c710f9c9ff94554a48783357457d55a86ec4e339bca1bea31f1372",
    ("fractional", "18000"): "9edadf0df5c710f9c9ff94554a48783357457d55a86ec4e339bca1bea31f1372",
    ("linear-additive", "18000"): "fed4eb06b7a413763e6c0a653c21d4894ab4224daa918fe5b6f6a58c01c28d44",
    ("pure-power", "18000"): "8f712d19189a629ae437506c24ce8f5a487d91ee55178a05aeaf8bbb4b7dbb30",
    ("scalar-linear", "18000"): "3f17f0729654b951f04b8e47869cc49586f237f4ffc78816b4b7ed174c123691",
}


@pytest.mark.parametrize("plan", sorted(DIGEST_PLANS))
@pytest.mark.parametrize("preset", sorted(zoo.PRESETS))
def test_preset_reports_are_pinned(preset, plan):
    """sha256 of each preset's drift and noise ``_report_bits``: every margin,
    witness, sample count and certificate, bit for bit."""
    m = zoo.PRESETS[preset].build()
    bits = (_report_bits(validate_drift(m.drift, DIGEST_PLANS[plan], grid=m.grid)),
            _report_bits(validate_noise(m.noise, m.drift.p, DIGEST_PLANS[plan])))
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == REPORT_DIGESTS[preset, plan]


_FAULT_PROBE = """
import resource
from fracldp import zoo
from fracldp.models import SamplingPlan, validate_drift, validate_noise

model = zoo.PRESETS["boundary-growth"].build()
plan = SamplingPlan(n_samples=100000, seed=0)  # configs/validate-model.json
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    validate_drift(model.drift, plan, grid=model.grid)
    validate_noise(model.noise, model.drift.p, plan)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_validators_reuse_their_temporaries():
    """The validators' temporaries are block-sized and come back from the heap.

    On boundary-growth at the shipped 1e5-sample plan, the second of two runs
    of both validators took 51 721 minor page faults when each condition ran
    over all 150 000 samples at once (1.2 MB temporaries, mapped afresh on
    every pass), and 5 407 with 8192-sample blocks (x86_64 Linux, glibc,
    numpy 2.4).
    """
    src = os.path.dirname(os.path.dirname(fracldp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env, check=True)
    faults = int(proc.stdout.split()[-1])
    assert faults < 20000, f"{faults} minor page faults in one validate-model pass"


@pytest.mark.parametrize("which", ["drift", "noise"])
def test_validators_keep_per_sample_factors_block_sized(which):
    """Only the samples u, u2 and the per-time drift values F(t, u), F(t, u2)
    span all samples; every other per-sample factor is built per block.

    On boundary-growth at the shipped 1e5-sample plan, the second of two passes
    peaked at 9.6 (drift) and 9.0 (noise) arrays of all 150 000 samples under
    ``tracemalloc`` with the state-free factors built over every sample, and
    at 4.8 and 2.8 with them built per block (numpy 2.4).
    """
    model = zoo.PRESETS["boundary-growth"].build()
    plan = SamplingPlan(n_samples=100000, seed=0)  # configs/validate-model.json
    one_array = (plan.n_samples + plan.n_samples // 2) * 8
    run, bound = {
        "drift": (lambda: validate_drift(model.drift, plan, grid=model.grid), 6),
        "noise": (lambda: validate_noise(model.noise, model.drift.p, plan), 4),
    }[which]
    run()  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * one_array, f"peak {peak / one_array:.1f} sample arrays"


# ---------------------------------------------------------------------------
# forcing


def test_forcing_zero_and_bump():
    grid = zoo.standard_grid(points=32)
    z = ForcingSpec(grid=grid, form="zero")
    assert np.all(z.value(0.0) == 0.0)
    assert z.sq_integral(2.0) == 0.0
    b = ForcingSpec(grid=grid, form="bump", amplitude=0.3, radius=0.5)
    vals = b.value(1.0)
    assert vals.max() == pytest.approx(0.3, rel=1e-12)
    assert np.all(vals[np.abs(grid.axis()) >= 0.5] == 0.0)
    with pytest.raises(DomainError):
        smooth_bump(grid, radius=np.nan)
    with pytest.raises(DomainError):
        ForcingSpec(grid=grid, form="bump", radius=np.nan)


def test_forcing_sq_integral_constant_in_time():
    grid = zoo.standard_grid(points=32)
    b = ForcingSpec(grid=grid, form="bump", amplitude=0.3, radius=0.5)
    norm_sq = float(grid.cell_volume * np.sum(b.value(0.0) ** 2))
    assert b.sq_integral(2.0) == pytest.approx(2.0 * norm_sq, rel=1e-9)


# ---------------------------------------------------------------------------
# assembled models


def test_model_cross_validation():
    m = zoo.default_model()
    other_grid = zoo.standard_grid(points=64)
    with pytest.raises(GridMismatchError):
        ModelSpec(grid=other_grid, drift=m.drift, noise=m.noise, forcing=m.forcing)
    with pytest.raises(ConditionError):
        # q above the admissible band [2, 1 + p/2]
        zoo.build_model(q=3.2, p=4.0)


def test_build_model_passes_p_to_the_cubic_drift():
    # cubic_minus_linear is a p = 4 drift, and p is range-checked like any other
    for p in (6.0, "x", float("nan")):
        with pytest.raises(ConditionError):
            zoo.build_model(p=p)


def test_build_model_range_checks_before_deriving_the_noise():
    # q, n_modes and gamma0 feed the mode coefficients and the sigma1 stack,
    # so they are checked first and the error names the argument
    for name, bad in (("q", "x"), ("n_modes", 2.5), ("n_modes", True), ("gamma0", -1.0)):
        with pytest.raises(ConditionError, match=f"^{name}: "):
            zoo.build_model(**{name: bad})


def test_sampling_plan_validation():
    with pytest.raises(DomainError):
        SamplingPlan(n_samples=10)
    with pytest.raises(DomainError):
        SamplingPlan(n_samples=200, u_max=-1.0)
    for n_fields in (0, -3):
        with pytest.raises(DomainError):
            SamplingPlan(n_samples=100, n_fields=n_fields)


@pytest.mark.parametrize("n", [100, 101, 20000, 100001])
def test_scalar_samples_count(n):
    """A plan draws n + n // 2 scalar points: n // 2 log-spaced magnitudes
    with both signs, n - n // 2 - 1 uniforms, and zero."""
    plan = SamplingPlan(n_samples=n, seed=2)
    u = _scalar_samples(plan, np.random.default_rng(plan.seed))
    assert len(u) == n + n // 2
    assert np.count_nonzero(u == 0.0) == 1


def test_zoo_members_validate_drift():
    for name, builder in zoo.zoo().items():
        rep = validate_drift(builder().drift, PLAN)
        assert rep.passed, f"{name}: {[c.name for c in rep.checks if not c.passed]}"
