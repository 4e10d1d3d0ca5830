"""One-dimensional fractional Brownian motion with rough paths (Hurst index below 1/2).

Covariance, the lower-triangular Volterra kernel and its closed-form grid
discretization, the Cholesky factor of the node covariance, Gaussian
conditioning, and the empirical local non-determinism constant.
:func:`cylfbm.cylinder.sample_cyl_fbm`, the one sampler, draws the weighted
components from the kernel matrix or the Cholesky factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed after the jitter ladder was exhausted."""


# Relative jitter ladder tried before giving up on a Cholesky factorization.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)


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
def c_factor(H) -> float:
    """Normalization sqrt(2H / ((1-2H) B(1-2H, H+1/2))) of the Volterra kernel.

    Cached per H: every kernel evaluation reads it.
    """
    H = as_hurst(H)
    return float(np.sqrt(2 * H / ((1 - 2 * H) * special.beta(1 - 2 * H, H + 0.5))))


def kernel_fractional_norm(H) -> float:
    """Constant c_H * Gamma(H + 1/2) relating the kernel's integral operator
    to the unit-normalized composition of fractional integrals.

    Integrating the kernel against phi equals this constant times the
    forward transform :func:`cylfbm.fraccalc.kh_operator` of phi; the
    Girsanov shift is divided by it before
    :func:`cylfbm.fraccalc.kh_inverse_matrix` is applied.
    """
    H = as_hurst(H)
    return c_factor(H) * float(special.gamma(H + 0.5))


def _beta_tail(H: float, z) -> np.ndarray:
    """integral_z^1 w^(-2H) (1-w)^(H-1/2) dw, elementwise in z."""
    a, b = 1 - 2 * H, H + 0.5
    return special.beta(a, b) * special.betainc(b, a, 1.0 - np.asarray(z))


def _log_kernel(H: float, t, u, log_diff=None) -> np.ndarray:
    """Elementwise log of the (positive) kernel at (t, u), 0 < u < t.

    ``log_diff`` may carry log(t - u) directly, which keeps quadrature next
    to the singularity at u = t stable when t - u underflows.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    # log of 0 is a legitimate -inf here (vanishing tail term at u -> t)
    with np.errstate(divide="ignore"):
        if log_diff is None:
            log_diff = np.log(t - u)
        lc = np.log(c_factor(H))
        l1 = lc + (H - 0.5) * (np.log(t) - np.log(u)) + (H - 0.5) * log_diff
        l2 = lc + np.log(0.5 - H) + (H - 0.5) * np.log(u) + np.log(_beta_tail(H, u / t))
    hi = np.maximum(l1, l2)
    with np.errstate(invalid="ignore"):
        low = np.exp(np.minimum(l1, l2) - hi)
    return hi + np.log1p(np.where(np.isfinite(low), low, 0.0))


def kernel_values(H, t: float, u) -> np.ndarray:
    """Vectorized kernel evaluation at fixed t over an array of 0 < u < t."""
    H = as_hurst(H)
    return np.exp(_log_kernel(H, t, u))


def kernel_time_cell_integrals(H, s: float, grid: TimeGrid, start_index: int) -> np.ndarray:
    """Cell integrals of u -> K(u, s) in the first argument.

    Returns kappa with kappa[j] = integral over (t_{start+j}, t_{start+j+1})
    of K(u, s) du for the cells right of node start_index (where t_start = s).
    The first cell crosses the u -> s singularity and is substituted away.
    Only the stochastic derivative calls this; it imports ``scipy.integrate``
    itself, so that sampling never loads it.
    """
    from scipy import integrate

    H = as_hurst(H)
    nodes = grid.nodes
    if not np.isclose(nodes[start_index], s):
        raise DomainError("start_index must be the node at time s")
    n_right = grid.n_cells - start_index
    kappa = np.zeros(n_right)
    if n_right == 0:
        return kappa
    q = H + 0.5

    def g(v):
        lk = _log_kernel(H, s + v ** (1.0 / q), s, log_diff=np.log(v) / q)
        return np.exp(lk + (1.0 / q - 1.0) * np.log(v) - np.log(q))

    kappa[0], _ = integrate.quad(g, 0.0, (nodes[start_index + 1] - s) ** q,
                                 epsabs=1e-13, epsrel=1e-10, limit=200)
    if n_right > 1:
        x, w = np.polynomial.legendre.leggauss(12)
        left = nodes[start_index + 1 : grid.n_cells]
        h = grid.step
        u = 0.5 * h * x[:, None] + left[None, :] + 0.5 * h
        vals = np.exp(_log_kernel(H, u, s))
        kappa[1:] = 0.5 * h * np.sum(w[:, None] * vals, axis=0)
    return kappa


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
    return special.beta(a, p) * special.betainc(a, p, z) + (0.5 - H) * z ** p * _beta_tail(H, z)


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


def _cholesky_with_jitter(C: np.ndarray) -> np.ndarray:
    scale = float(np.mean(np.diag(C)))
    for jit in JITTER_LADDER:
        try:
            return np.linalg.cholesky(C + jit * scale * np.eye(C.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance not positive definite after jitter ladder %s" % (JITTER_LADDER,)
    )


def cholesky_factor(H, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor of :func:`exact_covariance_matrix`, with the
    jitter ladder as fallback."""
    return _cholesky_with_jitter(exact_covariance_matrix(as_hurst(H), grid))


# ---------------------------------------------------------------------------
# conditioning and local non-determinism
# ---------------------------------------------------------------------------


def schur_conditional_variance(cov: np.ndarray, target: int, conditioning,
                               jitter: float = 1e-12, return_info: bool = False):
    """Var(X_target | X_j, j in conditioning) by Schur complement.

    A singular conditioning block is regularized with the documented jitter
    and flagged in the info dict when ``return_info`` is set.
    """
    conditioning = sorted(set(int(j) for j in conditioning))
    if target in conditioning:
        raise DomainError("target index may not be conditioned on")
    if not conditioning:
        value, regularized = float(cov[target, target]), False
    else:
        S = cov[np.ix_(conditioning, conditioning)]
        c = cov[target, conditioning]
        regularized = False
        try:
            sol = np.linalg.solve(S, c)
        except np.linalg.LinAlgError:
            sol = np.linalg.solve(S + jitter * np.eye(len(conditioning)), c)
            regularized = True
        value = float(cov[target, target] - c @ sol)
        if value < 0.0:  # roundoff for near-perfect conditioning
            value = max(value, -1e-10)
            value = max(value, 0.0)
    if return_info:
        return value, {"regularized": regularized}
    return value


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
    found = False
    for i, t in enumerate(nodes):
        if t < r:
            continue
        conds = np.nonzero(np.abs(nodes - t) >= r)[0]
        conds = [int(j) for j in conds if j != i]
        if not conds:
            continue
        found = True
        val = schur_conditional_variance(cov, i, conds)
        best = min(best, val / r ** (2 * H))
    if not found:
        raise DomainError("grid too coarse: no conditioning nodes at distance >= r")
    if not (0.0 < best <= 1.0):
        raise DomainError(f"local non-determinism estimate must lie in (0, 1], got {best}")
    return float(best)
