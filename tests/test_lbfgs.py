"""Tests for the rate solver's L-BFGS minimizer on closed-form problems."""

import numpy as np
import pytest

from fracldp import lbfgs


def counted(fun):
    """``fun`` with a call counter in ``.calls``."""
    def inner(x):
        inner.calls += 1
        return fun(x)

    inner.calls = 0
    return inner


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return f, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def test_start_within_gtol_takes_no_iteration():
    fun = counted(lambda x: (float(x @ x), 2.0 * x))
    x0 = np.full(4, 1e-10)
    sol = lbfgs.minimize(fun, x0, max_iters=50, gtol=1e-9)
    assert sol.success and sol.nit == 0 and fun.calls == 1
    assert np.array_equal(sol.x, x0)


def test_max_iters_is_honoured():
    fun = counted(rosenbrock)
    sol = lbfgs.minimize(fun, np.array([-1.2, 1.0]), max_iters=5, gtol=1e-9)
    assert sol.nit == 5 and not sol.success
    assert sol.fun == rosenbrock(sol.x)[0] < rosenbrock(np.array([-1.2, 1.0]))[0]


def test_rosenbrock_reaches_its_minimizer():
    sol = lbfgs.minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=200, gtol=1e-9)
    assert sol.success
    np.testing.assert_allclose(sol.x, [1.0, 1.0], rtol=0, atol=1e-7)


def test_ill_conditioned_quadratic_reaches_its_minimizer():
    """f = (x - x*).A(x - x*)/2 with eigenvalues 1 to 1e4 in a rotated basis.
    Written about x*, f has no cancellation near its minimum 0, so the run
    ends by a stopping rule, not by a failed line search, about 1.4e-7 from
    x* (scipy's L-BFGS-B: 8e-8)."""
    d = 40
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * np.logspace(0, 4, d)) @ q.T
    x_star = rng.standard_normal(d)

    def quad(x):
        g = a @ (x - x_star)
        return 0.5 * float((x - x_star) @ g), g

    sol = lbfgs.minimize(quad, np.zeros(d), max_iters=10_000, gtol=1e-9)
    assert sol.success and sol.nit < 10_000
    assert np.max(np.abs(sol.x - x_star)) <= 1e-6 * np.max(np.abs(x_star))


def test_failed_line_search_with_empty_memory_stops_at_the_start():
    """A gradient of the wrong sign promises descent along a direction where
    f rises: the line search fails with no pairs stored, and the run ends
    unsuccessfully at its last accepted iterate, here the start."""
    fun = counted(lambda x: (float(x @ x), -2.0 * x))
    x0 = np.array([1.0, -2.0, 0.5])
    sol = lbfgs.minimize(fun, x0, max_iters=50, gtol=1e-9)
    assert not sol.success and sol.nit == 0
    assert np.array_equal(sol.x, x0) and sol.fun == float(x0 @ x0)
    assert 1 < fun.calls <= 1 + lbfgs.MAX_TRIALS


def test_failed_line_search_with_pairs_clears_the_memory_once(monkeypatch):
    """Once the gradient turns wrong, the first failed search has pairs in
    memory, so it is retried once along -g, from step 1, with the memory
    cleared; the retry fails too and the run ends at the last accepted
    iterate."""
    searches = []  # (along -g, first step, succeeded, x)
    line_search = lbfgs._line_search

    def recorded(fun, x, f0, g0, d, step):
        found = line_search(fun, x, f0, g0, d, step)
        searches.append((np.array_equal(d, -g0), step, found is not None, x))
        return found

    monkeypatch.setattr(lbfgs, "_line_search", recorded)
    fun = counted(lambda x: rosenbrock(x) if fun.calls <= 12 else (rosenbrock(x)[0], -rosenbrock(x)[1]))
    sol = lbfgs.minimize(fun, np.array([-1.2, 1.0]), max_iters=200, gtol=1e-9)
    assert not sol.success and sol.nit >= 2
    assert [s[2] for s in searches] == [True] * sol.nit + [False, False]
    assert searches[-2][0] is False and searches[-1][:2] == (True, 1.0)
    assert np.array_equal(sol.x, searches[-1][3]) and sol.fun == rosenbrock(sol.x)[0]


@pytest.mark.parametrize("x", [np.array([0.0, 0.3, -2.0, 5.0]), np.array([-1e-3, 7.0, 0.0, -0.5])])
def test_forward_difference_matches_the_exact_gradient(x):
    """d + 1 calls per point; the forward difference of a smooth function is
    within O(sqrt(eps)) of its gradient, relative to max(1, |x_i|)."""
    value = counted(lambda z: float(np.sum(np.sin(z) * z**2)))
    f, grad = lbfgs.forward_difference(value)(x)
    assert value.calls == x.size + 1 and f == value(x)
    exact = np.cos(x) * x**2 + 2.0 * x * np.sin(x)
    assert np.all(np.abs(grad - exact) <= 1e-6 * np.maximum(1.0, np.abs(x)) ** 3)
