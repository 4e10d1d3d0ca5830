"""The lower-triangular transform pair of the rough-path sampling kernel on
uniform grids.

The Girsanov weights need only the inverse transform, applied to the weak
derivative of an absolutely continuous input: s^(H-1/2) I^(1/2-H)[u^(1/2-H)
phi'(u)](s), whose node-0 value is the right limit (0 for bounded phi').
The forward transform is kept as the reference the inverse is tested against.

Product integration throughout: the data is piecewise linear and the singular
kernel and weight are integrated exactly per cell.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fbm import TimeGrid, as_hurst, beta, betainc


@functools.lru_cache(maxsize=64)
def weighted_integral_matrix(alpha: float, mu: float, t_end: float, n_cells: int) -> np.ndarray:
    """Matrix A with (A g)_i = (1/Gamma(alpha)) integral_0^{t_i} (t_i-u)^(alpha-1) u^mu g(u) du.

    g is piecewise linear on the grid; the algebraic kernel and weight are
    integrated exactly per cell through regularized incomplete beta values,
    differenced in whichever tail is numerically small at the cell midpoint.
    All rows are built in one pass over the lower triangle.
    """
    nodes = TimeGrid(t_end, n_cells).nodes
    # row r holds t_i = t_{r+1} and its nodes t_j, j <= i, as ratios z = t_j / t_i
    rows, cols = np.tril_indices(n_cells, 1, n_cells + 1)
    z = np.zeros((n_cells, n_cells + 1))
    z[rows, cols] = nodes[cols] / nodes[rows + 1]
    mid_hi = 0.5 * (z[:, 1:] + z[:, :-1]) > 0.5
    moms = []
    for k in (0, 1):
        a_ = mu + k + 1.0
        lower, upper = np.zeros_like(z), np.zeros_like(z)
        lower[rows, cols], upper[rows, cols] = betainc(a_, alpha, z[rows, cols])
        dif = np.where(mid_hi, upper[:, :-1] - upper[:, 1:], lower[:, 1:] - lower[:, :-1])
        moms.append(np.tril(nodes[1:, None] ** (mu + k + alpha) * beta(a_, alpha) * dif))
    m0, m1 = moms
    tl, tr, hh = nodes[:-1], nodes[1:], np.diff(nodes)
    A = np.zeros((n_cells + 1, n_cells + 1))
    A[1:, :-1] += (tr * m0 - m1) / hh
    A[1:, 1:] += (m1 - tl * m0) / hh
    A /= math.gamma(alpha)
    A.flags.writeable = False
    return A


def kh_operator(H, grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Lower-triangular transform I^2H . s^(1/2-H) . I^(1/2-H) . s^(H-1/2) of
    node values on the grid.

    Unit-normalized: integrating the sampling kernel against the input
    equals :func:`cylfbm.fbm.kernel_fractional_norm` times this transform.
    """
    H = as_hurst(H)
    Wi = weighted_integral_matrix(0.5 - H, H - 0.5, float(grid.t_end), int(grid.n_cells))
    Wo = weighted_integral_matrix(2.0 * H, 0.5 - H, float(grid.t_end), int(grid.n_cells))
    return Wo @ (Wi @ values)


def kh_inverse_matrix(H, grid: TimeGrid) -> np.ndarray:
    """Matrix of the inverse transform g -> s^(H-1/2) I^(1/2-H)[u^(1/2-H) g](s)
    on node values g (the weak derivative of the input), applicable to
    (n_nodes, ...) arrays; its node-0 row is 0."""
    H = as_hurst(H)
    W = weighted_integral_matrix(0.5 - H, 0.5 - H, float(grid.t_end), int(grid.n_cells))
    pref = np.zeros(grid.n_nodes)
    pref[1:] = grid.nodes[1:] ** (H - 0.5)
    return pref[:, None] * W
