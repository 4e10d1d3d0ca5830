"""Riemann-Liouville fractional integrals and derivatives on uniform grids.

Product integration throughout: the data is piecewise linear and the singular
kernel factors are integrated exactly per cell, so smooth inputs see O(step^2)
error.  Also provides the lower-triangular transform pair associated with the
rough-path sampling kernel and its inverse on absolutely continuous inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .fbm import DomainError, TimeGrid, as_hurst


@dataclass(frozen=True)
class FracOrder:
    """Order of a fractional integral (alpha > 0) or derivative (0 < alpha < 1)."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"fractional order must be positive, got {self.alpha}")


def _order(alpha) -> float:
    if isinstance(alpha, FracOrder):
        return alpha.alpha
    return FracOrder(float(alpha)).alpha


@dataclass(frozen=True)
class GridFunction:
    """Function values on the nodes of a uniform grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n_nodes:
            raise DomainError("values must have one entry per grid node")

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "GridFunction":
        return cls(grid, np.asarray([fn(t) for t in grid.nodes], dtype=float))


# ---------------------------------------------------------------------------
# fractional integral
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _integral_weight_matrix(alpha: float, n_cells: int) -> np.ndarray:
    """Unit-step weights W with I(x_i) = h^alpha/Gamma(alpha+2) * (W @ f)_i."""
    N = n_cells
    idx = np.arange(N + 1, dtype=float)
    pw = idx ** (alpha + 1.0)
    i = np.arange(N + 1)[:, None]
    j = np.arange(N + 1)[None, :]
    m = i - j
    W = np.zeros((N + 1, N + 1))
    interior = (j >= 1) & (j <= i - 1)
    mm = np.where(interior, m, 1)
    W = np.where(interior, pw[np.clip(mm + 1, 0, N)] + pw[np.clip(mm - 1, 0, N)] - 2 * pw[mm], 0.0)
    ii = np.arange(1, N + 1, dtype=float)
    W[1:, 0] = (ii - 1) ** (alpha + 1.0) - (ii - 1 - alpha) * ii ** alpha
    W[np.arange(1, N + 1), np.arange(1, N + 1)] = 1.0
    W.flags.writeable = False
    return W


def _apply_integral(alpha: float, values: np.ndarray, h: float) -> np.ndarray:
    n_cells = values.shape[0] - 1
    W = _integral_weight_matrix(alpha, n_cells)
    return h ** alpha / special.gamma(alpha + 2.0) * (W @ values)


def frac_integral(alpha, f: GridFunction, side: str = "left") -> GridFunction:
    """Fractional integral of order alpha from the grid start (left) or end (right)."""
    alpha = _order(alpha)
    if side == "left":
        out = _apply_integral(alpha, f.values, f.grid.step)
    elif side == "right":
        out = _apply_integral(alpha, f.values[::-1], f.grid.step)[::-1]
    else:
        raise DomainError(f"unknown side {side!r}")
    return GridFunction(f.grid, out)


# ---------------------------------------------------------------------------
# fractional derivative (Marchaud form)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _marchaud_weights(alpha: float, n_cells: int):
    """Per-lag cell moments of the Marchaud kernel on a unit-step grid.

    For lag m = i - j >= 1 (cell j strictly left of node i):
      m0[m] = integral over the cell of (x_i - y)^(-alpha-1) dy
      q1[m] = A*m0[m] - integral (x_i - y)^(-alpha) dy, A = left cell distance
    """
    N = n_cells
    m = np.arange(1, N + 1, dtype=float)
    A = m + 1.0
    B = m
    m0 = (B ** -alpha - A ** -alpha) / alpha
    m1 = (A ** (1 - alpha) - B ** (1 - alpha)) / (1 - alpha)
    q1 = A * m0 - m1
    m0.flags.writeable = False
    q1.flags.writeable = False
    return m0, q1


def _marchaud_pwl(alpha: float, values: np.ndarray, h: float) -> np.ndarray:
    """Left Marchaud derivative of piecewise-linear data; node 0 left as 0."""
    N = values.shape[0] - 1
    m0u, q1u = _marchaud_weights(alpha, N)
    # scale unit-step moments to step h
    m0 = m0u * h ** -alpha
    q1 = q1u * h ** (1 - alpha)
    i = np.arange(N + 1)[:, None]
    j = np.arange(N + 1)[None, :]
    lag = i - j
    interior = (j >= 1) & (lag >= 1)
    M0 = np.where(interior, m0[np.clip(lag - 1, 0, N - 1)], 0.0)
    Q1 = np.where(interior, q1[np.clip(lag - 1, 0, N - 1)], 0.0)
    slopes = np.zeros_like(values)
    slopes[1:] = (values[1:] - values[:-1]) / h
    fprev = np.zeros_like(values)
    fprev[1:] = values[:-1]
    xs = np.arange(N + 1) * h
    out = np.zeros_like(values)
    sumM0 = M0.sum(axis=1)
    out[1:] = (
        values[1:] / xs[1:] ** alpha
        + alpha * (values[1:] * sumM0[1:] - (M0 @ fprev)[1:] - (Q1 @ slopes)[1:])
        + alpha * slopes[1:] * h ** (1 - alpha) / (1 - alpha)
    )
    return out / special.gamma(1 - alpha)


def _leading_power_fit(values: np.ndarray, h: float):
    """Fit c1*x^sigma + c2*x^(sigma+1) to the first nodes of data vanishing at 0.

    The three parameters interpolate nodes 1, 2 and 4 exactly: with
    u = h*c2/c1 the node ratios give a quadratic in u, whose small root keeps
    the split well conditioned.  Falls back to the pure power through nodes
    1 and 2, or to None when the data does not look like a power cusp.
    """
    if len(values) < 5 or values[0] != 0.0 or values[1] * values[2] <= 0.0 \
            or values[2] * values[4] <= 0.0:
        return None
    r1 = values[2] / values[1]
    r2 = values[4] / values[2]
    candidates = []
    if r1 > 0 and r2 > 0:
        q = r1 / r2
        roots = np.roots([4.0 * (1.0 - q), 4.0 - 5.0 * q, 1.0 - q])
        roots = [float(np.real(r)) for r in roots
                 if abs(np.imag(r)) < 1e-12 and abs(np.real(r)) < 0.45
                 and 1.0 + np.real(r) > 0 and 1.0 + 2 * np.real(r) > 0
                 and 1.0 + 4 * np.real(r) > 0]
        if roots:
            u = min(roots, key=abs)
            sigma = float(np.log2(r1 * (1.0 + u) / (1.0 + 2.0 * u)))
            if 0.02 < sigma < 1.98:
                c1 = float(values[1] / (h ** sigma * (1.0 + u)))
                candidates.append((c1, c1 * u / h, sigma))
    sigma1 = float(np.log(abs(r1)) / np.log(2.0))
    if 0.05 < sigma1 < 1.95:
        candidates.append((float(values[1] / h ** sigma1), 0.0, sigma1))
    for c1, c2, sigma in candidates:
        model3 = c1 * (3 * h) ** sigma + c2 * (3 * h) ** (sigma + 1.0)
        if abs(model3 - values[3]) <= 0.5 * abs(values[3]) + 1e-300:
            return (c1, c2, sigma)
    return None

def frac_derivative(alpha, f: GridFunction, side: str = "left") -> GridFunction:
    """Fractional derivative of order 0 < alpha < 1 in Marchaud form.

    A leading power c*x^sigma fitted at the grid start is differentiated
    analytically and only the remainder goes through product integration;
    without this split a power cusp at 0 (typical for images of the
    fractional integral) dominates the error.  Node 0 holds the one-sided
    limit when the data vanishes there, otherwise a non-finite flag value.
    Data too irregular for the quadrature surfaces as non-finite entries.
    """
    alpha = _order(alpha)
    if alpha >= 1.0:
        raise DomainError("derivative order must satisfy 0 < alpha < 1")
    vals = f.values if side == "left" else f.values[::-1]
    if side not in ("left", "right"):
        raise DomainError(f"unknown side {side!r}")
    h = f.grid.step
    N = f.grid.n_cells
    xs = np.arange(N + 1) * h
    fit = _leading_power_fit(vals, h)
    if fit is not None:
        c1, c2, sigma = fit
        res = vals - c1 * xs ** sigma - c2 * xs ** (sigma + 1.0)
        out = _marchaud_pwl(alpha, res, h)
        corr = np.zeros_like(out)
        corr[1:] = (
            c1 * special.gamma(sigma + 1) / special.gamma(sigma + 1 - alpha)
            * xs[1:] ** (sigma - alpha)
            + c2 * special.gamma(sigma + 2) / special.gamma(sigma + 2 - alpha)
            * xs[1:] ** (sigma + 1.0 - alpha)
        )
        out = out + corr
    else:
        out = _marchaud_pwl(alpha, vals, h)
    if vals[0] == 0.0:
        out[0] = 3 * out[1] - 3 * out[2] + out[3] if N >= 3 else 0.0
    else:
        out[0] = np.nan
    if side == "right":
        out = out[::-1]
    return GridFunction(f.grid, out)


# ---------------------------------------------------------------------------
# weighted fractional integral matrices and the sampling-kernel transform pair
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def weighted_integral_matrix(alpha: float, mu: float, t_end: float, n_cells: int) -> np.ndarray:
    """Matrix A with (A g)_i = (1/Gamma(alpha)) integral_0^{t_i} (t_i-u)^(alpha-1) u^mu g(u) du.

    g is piecewise linear on the grid; the algebraic kernel and weight are
    integrated exactly per cell through regularized incomplete beta values,
    evaluated from whichever tail is numerically small.
    """
    grid = TimeGrid(t_end, n_cells)
    nodes = grid.nodes
    N = n_cells
    A = np.zeros((N + 1, N + 1))
    ga = special.gamma(alpha)
    for i in range(1, N + 1):
        s = nodes[i]
        z = nodes[: i + 1] / s
        moms = []
        for k in (0, 1):
            a_, b_ = mu + k + 1.0, alpha
            bfull = special.beta(a_, b_)
            direct = special.betainc(a_, b_, z) * bfull
            comp = special.betainc(b_, a_, 1.0 - z) * bfull
            mid_hi = 0.5 * (z[1:] + z[:-1]) > 0.5
            dif = np.where(mid_hi, comp[:-1] - comp[1:], direct[1:] - direct[:-1])
            moms.append(s ** (mu + k + alpha) * dif)
        m0, m1 = moms
        tl, tr = nodes[:i], nodes[1 : i + 1]
        hh = tr - tl
        A[i, :i] += (tr * m0 - m1) / hh
        A[i, 1 : i + 1] += (m1 - tl * m0) / hh
    A /= ga
    A.flags.writeable = False
    return A


def kh_operator(H, phi: GridFunction) -> GridFunction:
    """Lower-triangular transform I^2H . s^(1/2-H) . I^(1/2-H) . s^(H-1/2) on the grid.

    Unit-normalized: integrating the sampling kernel against phi equals
    :func:`cylfbm.fbm.kernel_fractional_norm` times this transform.
    """
    H = as_hurst(H)
    g = phi.grid
    Wi = weighted_integral_matrix(0.5 - H, H - 0.5, float(g.t_end), int(g.n_cells))
    Wo = weighted_integral_matrix(2.0 * H, 0.5 - H, float(g.t_end), int(g.n_cells))
    return GridFunction(g, Wo @ (Wi @ phi.values))


def kh_inverse_matrix(H, grid: TimeGrid) -> np.ndarray:
    """Matrix form of :func:`kh_inverse_ac`, applicable to (n_nodes, ...) arrays."""
    H = as_hurst(H)
    W = weighted_integral_matrix(0.5 - H, 0.5 - H, float(grid.t_end), int(grid.n_cells))
    pref = np.zeros(grid.n_nodes)
    pref[1:] = grid.nodes[1:] ** (H - 0.5)
    return pref[:, None] * W


def kh_inverse_ac(H, phi_prime: GridFunction) -> GridFunction:
    """Inverse transform for absolutely continuous inputs, from the weak derivative.

    Returns s^(H-1/2) I^(1/2-H)[ u^(1/2-H) phi'(u) ](s); the node-0 value is
    the right limit, which is 0 for bounded phi'.
    """
    M = kh_inverse_matrix(H, phi_prime.grid)
    return GridFunction(phi_prime.grid, M @ phi_prime.values)
