"""One-dimensional fractional Brownian motion with rough paths (Hurst index below 1/2).

Covariance, the complete and incomplete beta functions in numpy, the fixed
Gauss-Legendre rules every module shares, the lower-triangular Volterra
kernel and its closed-form grid discretization, the Cholesky factor of the
node covariance, Gaussian conditioning, and the empirical local
non-determinism constant.
:func:`cylfbm.cylinder.sample_cyl_fbm`, the one sampler, draws the weighted
components from the kernel matrix or the Cholesky factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class FactorizationError(RuntimeError):
    """A covariance matrix that should be positive definite has no Cholesky factor."""


# Absolute jitter added to a singular conditioning block.
SCHUR_JITTER = 1e-12


def as_hurst(H) -> float:
    """The roughness index as a float, checked to lie strictly inside (0, 1/2)."""
    H = float(H)
    if not (0.0 < H < 0.5):
        raise DomainError(f"Hurst parameter must be in (0, 1/2), got {H}")
    return H


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = t_end."""

    t_end: float
    n_cells: int

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise DomainError("t_end must be positive")
        if self.n_cells < 1:
            raise DomainError("grid needs at least one cell")

    @property
    def step(self) -> float:
        return self.t_end / self.n_cells

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The grid nodes, built once per grid and read-only."""
        nodes = np.linspace(0.0, self.t_end, self.n_cells + 1)
        nodes.flags.writeable = False
        return nodes

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


@dataclass(frozen=True)
class WienerIncrements:
    """Gaussian cell increments with variance equal to the grid step.

    ``values`` has shape (n_paths, n_cells).
    """

    grid: TimeGrid
    values: np.ndarray


# ---------------------------------------------------------------------------
# covariance and kernel values
# ---------------------------------------------------------------------------


def covariance(H, t: float, s: float) -> float:
    """Covariance (t^2H + s^2H - |t-s|^2H) / 2 of the process at times t, s."""
    H = as_hurst(H)
    if t < 0 or s < 0:
        raise DomainError("covariance requires non-negative times")
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


@functools.lru_cache(maxsize=256)
def beta(a: float, b: float) -> float:
    """Complete beta Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0; cached for scalar quadrature."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _beta_series(a: float, b: float, x):
    """x^a (1-x)^b / (a B(a, b)) sum_n (a+b)_n / (a+1)_n x^n (DLMF 8.17.7), summed
    until no term exceeds 1e-17 of the sum.  The terms shrink slowest at the
    largest x, which so sets the number of terms for an array; later terms are
    below half an ulp of each sum, so scalar and array calls agree bit for bit."""
    x_max = x if isinstance(x, float) else float(np.max(x, initial=0.0))
    ab, a1 = a + b, a + 1.0
    term, total, n = 1.0, 1.0, 0
    while term > 1e-17 * total:
        term = term * x_max * ((ab + n) / (a1 + n))
        total += term
        n += 1
    if isinstance(x, float):  # numpy's power, as for an array: Python's may differ by an ulp
        pa, pb = np.power((x, 1.0 - x), (a, b)).tolist()
        return pa * pb / (a * beta(a, b)) * total
    term, total = np.ones_like(x), np.ones_like(x)
    for k in range(n):  # the same recurrence, elementwise
        term *= x
        term *= (ab + k) / (a1 + k)
        total += term
    return x ** a * (1.0 - x) ** b / (a * beta(a, b)) * total


def betainc(a: float, b: float, x):
    """Both tails (I_x(a, b), I_{1-x}(b, a)) of the regularized incomplete beta
    function, a, b > 0 scalars, x in [0, 1] a float or an array: one power
    series in x up to x = (a+1)/(a+b+2), in 1 - x with a, b swapped above, and
    the other tail is 1 minus it.  A scalar x runs in Python floats."""
    switch = (a + 1.0) / (a + b + 2.0)
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        s = _beta_series(b, a, 1.0 - x) if x > switch else _beta_series(a, b, x)
        return (1.0 - s, s) if x > switch else (s, 1.0 - s)
    x = np.asarray(x, dtype=float)
    flip = x > switch
    s = np.empty_like(x)
    s[~flip] = _beta_series(a, b, x[~flip])
    s[flip] = _beta_series(b, a, 1.0 - x[flip])
    return np.where(flip, 1.0 - s, s), np.where(flip, s, 1.0 - s)


@functools.lru_cache(maxsize=256)
def c_factor(H) -> float:
    """Normalization sqrt(2H / ((1-2H) B(1-2H, H+1/2))) of the Volterra kernel.

    Cached per H: every kernel evaluation reads it.
    """
    H = as_hurst(H)
    return math.sqrt(2 * H / ((1 - 2 * H) * beta(1 - 2 * H, H + 0.5)))


def kernel_fractional_norm(H) -> float:
    """Constant c_H * Gamma(H + 1/2) relating the kernel's integral operator
    to the unit-normalized composition of fractional integrals.

    Integrating the kernel against phi equals this constant times the
    forward transform :func:`cylfbm.fraccalc.kh_operator` of phi; the
    Girsanov shift is divided by it before
    :func:`cylfbm.fraccalc.kh_inverse_matrix` is applied.
    """
    H = as_hurst(H)
    return c_factor(H) * math.gamma(H + 0.5)


def _beta_tail(H: float, z) -> np.ndarray:
    """integral_z^1 w^(-2H) (1-w)^(H-1/2) dw, elementwise in z."""
    a, b = 1 - 2 * H, H + 0.5
    return beta(a, b) * betainc(a, b, z)[1]


def _log_kernel(H: float, t, u, log_diff=None) -> np.ndarray:
    """Elementwise log of the (positive) kernel at (t, u), 0 < u < t.

    ``log_diff`` may carry log(t - u) directly, which keeps quadrature next
    to the singularity at u = t stable when t - u underflows.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    # log 0 = -inf (vanishing tail at u -> t) and a nan weight of -inf - -inf are legitimate
    with np.errstate(divide="ignore", invalid="ignore"):
        if log_diff is None:
            log_diff = np.log(t - u)
        lc = np.log(c_factor(H))
        l1 = lc + (H - 0.5) * (np.log(t) - np.log(u)) + (H - 0.5) * log_diff
        l2 = lc + np.log(0.5 - H) + (H - 0.5) * np.log(u) + np.log(_beta_tail(H, u / t))
        hi = np.maximum(l1, l2)
        low = np.exp(np.minimum(l1, l2) - hi)
    return hi + np.log1p(np.where(np.isfinite(low), low, 0.0))


def kernel_values(H, t: float, u) -> np.ndarray:
    """Vectorized kernel evaluation at fixed t over an array of 0 < u < t."""
    H = as_hurst(H)
    return np.exp(_log_kernel(H, t, u))


# ---------------------------------------------------------------------------
# kernel matrix
# ---------------------------------------------------------------------------


def _kernel_primitive(H: float, z: np.ndarray) -> np.ndarray:
    """G(z) with integral_a^b K(t,u) du = c_H t^p / p (G(b/t) - G(a/t)), p = H + 1/2.

    G(z) = B(3/2-H, p) I_z(3/2-H, p) + (1/2-H) z^p T(z), T = :func:`_beta_tail`:
    the first kernel term is an incomplete beta after u = tw, the second
    integrates by parts, and their coefficients add up to 1/p.
    """
    a, p = 1.5 - H, H + 0.5
    return beta(a, p) * betainc(a, p, z)[0] + (0.5 - H) * z ** p * _beta_tail(H, z)


@functools.lru_cache(maxsize=64)
def _kernel_matrix_entries(H: float, t_end: float, n_cells: int) -> np.ndarray:
    h = TimeGrid(t_end, n_cells).step
    rows = np.arange(1, n_cells + 1)
    # z[i, j] = t_j / t_{i+1}, clipped at 1: cells above the diagonal difference to 0
    z = np.minimum(np.arange(n_cells + 1)[None, :] / rows[:, None], 1.0)
    G = _kernel_primitive(H, z)
    p = H + 0.5
    M = (c_factor(H) * (rows * h) ** p / (p * h))[:, None] * (G[:, 1:] - G[:, :-1])
    M.flags.writeable = False
    return M


def kernel_matrix(H, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular cell discretization of the Volterra kernel (read-only).

    Row i (0-based) acts for the node t_{i+1}; column j holds the mean
    kernel value over the Wiener cell (t_j, t_{j+1}], in closed form: each
    cell integral is a difference of :func:`_kernel_primitive`, singular
    cells included.
    """
    return _kernel_matrix_entries(as_hurst(H), float(grid.t_end), int(grid.n_cells))


def covariance_matrix(H, times) -> np.ndarray:
    """Covariance matrix of the process at the given (possibly repeated) times."""
    H = as_hurst(H)
    times = np.asarray(times, dtype=float)
    return 0.5 * (
        times[:, None] ** (2 * H)
        + times[None, :] ** (2 * H)
        - np.abs(times[:, None] - times[None, :]) ** (2 * H)
    )


def exact_covariance_matrix(H, grid: TimeGrid) -> np.ndarray:
    """Exact covariance matrix on the interior nodes t_1..t_N."""
    return covariance_matrix(H, grid.nodes[1:])


# ---------------------------------------------------------------------------
# exact-law factor
# ---------------------------------------------------------------------------


def cholesky_factor(H, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor of :func:`exact_covariance_matrix`, unperturbed:
    a covariance that is not numerically positive definite raises
    FactorizationError rather than sample another law."""
    try:
        return np.linalg.cholesky(exact_covariance_matrix(H, grid))
    except np.linalg.LinAlgError:
        raise FactorizationError(f"node covariance at H = {H} not positive definite") from None


# ---------------------------------------------------------------------------
# conditioning and local non-determinism
# ---------------------------------------------------------------------------


def schur_conditional_variance(cov: np.ndarray, target: int, conditioning) -> float:
    """Var(X_target | X_j, j in conditioning) by Schur complement.

    A singular conditioning block is regularized with ``SCHUR_JITTER``.
    """
    conditioning = sorted(set(int(j) for j in conditioning))
    if target in conditioning:
        raise DomainError("target index may not be conditioned on")
    if not conditioning:
        return float(cov[target, target])
    S = cov[np.ix_(conditioning, conditioning)]
    c = cov[target, conditioning]
    try:
        sol = np.linalg.solve(S, c)
    except np.linalg.LinAlgError:
        sol = np.linalg.solve(S + SCHUR_JITTER * np.eye(len(conditioning)), c)
    return max(float(cov[target, target] - c @ sol), 0.0)  # roundoff near perfect conditioning


def estimate_lnd_constant(H, grid: TimeGrid, r: float) -> float:
    """Empirical local non-determinism constant.

    Minimizes, over grid nodes t >= r, the variance of B_t conditioned on all
    nodes at distance >= r, normalized by r^2H; the estimate must lie in
    (0, 1].  Convergence of the estimate to the true constant under grid
    refinement is not asserted.
    """
    H = as_hurst(H)
    if not (0.0 < r <= grid.t_end):
        raise DomainError("separation r must lie in (0, t_end]")
    nodes = grid.nodes[1:]  # node 0 is deterministic, carries no information
    cov = exact_covariance_matrix(H, grid)
    best = np.inf
    for i, t in enumerate(nodes):
        if t < r:
            continue
        conds = [int(j) for j in np.flatnonzero(np.abs(nodes - t) >= r) if j != i]
        if not conds:
            continue
        best = min(best, schur_conditional_variance(cov, i, conds) / r ** (2 * H))
    if best == np.inf:  # no node had conditioning nodes
        raise DomainError("grid too coarse: no conditioning nodes at distance >= r")
    if not (0.0 < best <= 1.0):
        raise DomainError(f"local non-determinism estimate must lie in (0, 1], got {best}")
    return float(best)
