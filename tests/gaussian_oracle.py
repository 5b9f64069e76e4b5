"""Discrete-exact Gaussian oracle of the terminal Laplace functional.

``zoo.linear_additive_model`` has zero drift, zero forcing and additive noise,
so its IMEX scheme is exactly linear in the mode weights: u_N = m + B z, where
m is the noise-free endpoint, z = sqrt(dt) v (so the action is |z|^2 / 2) and
B = sqrt(dt) [E^(N-n) sigma_k] has one column per (step, mode). For the
terminal functional h(u) = (c/2) cv ||u_N - a||^2, with G = c cv B^T B and
y = m - a:

    V = inf_v [action(v) + h(u_v)] = (c/2) cv (y^T y - c cv (B^T y)^T (I+G)^-1 B^T y),
    -eps ln E exp(-h(u^eps)/eps) = V + (eps/2) ln det(I + G),   at every eps.

Both are exact for the discretized scheme, so a test of either side carries no
time-step bias. Import it from a test module as ``from gaussian_oracle import
gaussian_oracle`` (pytest puts ``tests/`` on the path).
"""

import numpy as np

from fracldp.grids import Field
from fracldp.rate import _forward_states
from fracldp.skeleton import StepKernel, TimeGrid


def gaussian_oracle(model, u0: Field, tg: TimeGrid, a: np.ndarray, c: float) -> tuple[float, float]:
    """``(V, ln det(I + G))`` of the terminal functional (c/2) cv ||u_N - a||^2.

    ``model`` must be a ``linear_additive_model``. B is built from one
    ``_forward_states`` sweep per (step, mode) from the zero datum, with a
    single weight sqrt(dt); m is the sweep from ``u0`` with no weights.
    """
    kernel = StepKernel.build(model, tg)
    n_modes = model.noise.n_modes
    zero = Field(model.grid, np.zeros(model.grid.shape))
    cols = []
    for n in range(tg.n_steps):
        for k in range(n_modes):
            weights = np.zeros((tg.n_steps, n_modes))
            weights[n, k] = np.sqrt(tg.dt)
            cols.append(_forward_states(model, kernel, zero, weights)[0][-1].ravel())
    b = np.stack(cols, axis=1)
    m = _forward_states(model, kernel, u0, np.zeros((tg.n_steps, n_modes)))[0][-1]
    y = (m - a).ravel()
    cv = model.grid.cell_volume
    i_plus_g = np.eye(b.shape[1]) + c * cv * (b.T @ b)
    bty = b.T @ y
    value = 0.5 * c * cv * (y @ y - c * cv * bty @ np.linalg.solve(i_plus_g, bty))
    sign, logdet = np.linalg.slogdet(i_plus_g)
    assert sign > 0
    return float(value), float(logdet)
