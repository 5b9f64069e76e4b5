"""Unconstrained L-BFGS with a strong Wolfe line search, on numpy alone.

The inner minimizer of every rate solve, reached through ``rate._Solver.run``,
after Liu & Nocedal (Math. Programming 1989) and Nocedal & Wright, *Numerical
Optimization* (2nd ed., 2006): the two-loop recursion of Algorithm 7.4 over
the last ``MEMORY`` correction pairs, and the line search of Algorithms 3.5
and 3.6.

The stopping rules are those of scipy's L-BFGS-B on an unbounded problem:
stop when max|g| <= ``gtol``, when the relative decrease
(f_old - f) / max(|f_old|, |f|, 1) of an iteration is <= ``REL_DECREASE_TOL``,
or after ``max_iters`` iterations. So are its first step, 1/|g| on the first
iteration and 1 after, and its recovery from a failed line search: the
memory is cleared and the iteration retried, and a failure with an empty
memory ends the run unsuccessfully at the last accepted iterate.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np

MEMORY = 10  # correction pairs kept
C1, C2 = 1e-4, 0.9  # the strong Wolfe sufficient-decrease and curvature constants
MAX_TRIALS = 20  # objective evaluations per line search
REL_DECREASE_TOL = 1e-15
_EPS = float(np.finfo(float).eps)


class LbfgsResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    success: bool


def minimize(fun, x0: np.ndarray, max_iters: int, gtol: float) -> LbfgsResult:
    """Minimize ``fun(x) -> (f, gradient)`` from ``x0``.

    ``nit`` counts accepted line-search steps. ``success`` is True when the
    gradient or the relative-decrease rule stopped the run, False when the
    iteration budget or a failed line search did. Exceptions raised by
    ``fun`` propagate.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    if np.max(np.abs(g)) <= gtol:
        return LbfgsResult(x, f, 0, True)
    pairs = deque(maxlen=MEMORY)  # (s, y, 1/(s.y)), oldest first
    nit = 0
    while True:
        d = _direction(g, pairs)
        step = 1.0 / float(np.linalg.norm(d)) if nit == 0 else 1.0
        found = _line_search(fun, x, f, g, d, step)
        if found is None:
            if not pairs:
                return LbfgsResult(x, f, nit, False)
            pairs.clear()
            continue
        z, f_new, g_new = found
        s, y = z - x, g_new - g
        sy = float(s @ y)
        if sy > _EPS * float(y @ y):  # else the pair would not keep H positive definite
            pairs.append((s, y, 1.0 / sy))
        f_old, x, f, g = f, z, f_new, g_new
        nit += 1
        if nit >= max_iters:
            return LbfgsResult(x, f, nit, False)
        if np.max(np.abs(g)) <= gtol:
            return LbfgsResult(x, f, nit, True)
        if f_old - f <= REL_DECREASE_TOL * max(abs(f_old), abs(f), 1.0):
            return LbfgsResult(x, f, nit, True)


def forward_difference(value):
    """``value(x) -> f`` as ``fun(x) -> (f, gradient)`` for ``minimize``.

    Component i of the gradient is a forward difference with scipy's step
    sqrt(eps) max(1, |x_i|), signed as x_i (positive at 0): d + 1 calls of
    ``value`` per point.
    """
    def fun(x):
        f = value(x)
        h = math.sqrt(_EPS) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        grad = np.empty_like(x)
        for i in range(x.size):
            xi = x.copy()
            xi[i] += h[i]
            grad[i] = (value(xi) - f) / (xi[i] - x[i])
        return f, grad

    return fun


def _direction(g, pairs):
    """-H g by the two-loop recursion, H0 = (s.y)/(y.y) of the newest pair."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q = q - a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q = q / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q = q + (a - rho * float(y @ q)) * s
    return q


def _line_search(fun, x, f0, g0, d, step):
    """``(z, f, g)`` at z = x + step d meeting the strong Wolfe conditions, or
    None: after ``MAX_TRIALS`` evaluations, along a direction that does not
    descend, or once the bracket holds no float between its ends.

    A trial is a ``(step, f, f')`` triple, f' the derivative along d. While
    no trial has bracketed a minimizer the step grows by cubic extrapolation
    to 1.1 to 4 times its last increment. Then ``lo`` is the best trial with
    sufficient decrease and ``hi`` the other end of the bracket, and each new
    step minimizes their interpolating cubic, kept 1% of the bracket width
    away from either end.
    """
    dg0 = float(g0 @ d)
    if not dg0 < 0.0:
        return None
    lo, hi = (0.0, f0, dg0), None
    for _ in range(MAX_TRIALS):
        z = x + step * d
        f, g = fun(z)
        trial = (step, f, float(g @ d))
        if f > f0 + C1 * step * dg0 or f >= lo[1]:
            hi = trial
        elif abs(trial[2]) <= -C2 * dg0:
            return z, f, g
        elif hi is None and trial[2] < 0.0:
            prev, lo = lo, trial
            w = step - prev[0]
            step = _safeguard(_cubic_min(prev, trial), step + 1.1 * w, step + 4.0 * w)
            continue
        else:
            if hi is None or trial[2] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = trial
        a, b = sorted((lo[0], hi[0]))
        step = _safeguard(_cubic_min(lo, hi), a + 0.01 * (b - a), b - 0.01 * (b - a))
        if not a < step < b:  # no float left inside the bracket
            return None
    return None


def _cubic_min(p, q):
    """Minimizer of the cubic through two ``(step, f, f')`` triples
    (Nocedal & Wright eq. 3.59), or nan when it has none."""
    (a0, f0, g0), (a1, f1, g1) = p, q
    d1 = g0 + g1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = d1 * d1 - g0 * g1
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), a1 - a0)
    denom = g1 - g0 + 2.0 * d2
    return a1 - (a1 - a0) * (g1 + d2 - d1) / denom if denom != 0.0 else math.nan


def _safeguard(t, a, b):
    """``t`` clamped to [a, b], or the midpoint when ``t`` is not finite."""
    return min(max(t, a), b) if math.isfinite(t) else 0.5 * (a + b)
