"""One-dimensional fractional Brownian motion with rough paths (Hurst index below 1/2).

Covariance, the lower-triangular Volterra kernel and its grid discretization,
exact-law (Cholesky) and kernel-construction sampling, Gaussian conditioning,
and the empirical local non-determinism constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed after the jitter ladder was exhausted."""


# Relative jitter ladder tried before giving up on a Cholesky factorization.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)


@dataclass(frozen=True)
class HurstParam:
    """Roughness index, strictly inside (0, 1/2)."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value < 0.5):
            raise DomainError(f"Hurst parameter must be in (0, 1/2), got {self.value}")


def as_hurst(H) -> float:
    """Accept a HurstParam or a bare float; validate and return the float."""
    if isinstance(H, HurstParam):
        return H.value
    return HurstParam(float(H)).value


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

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_cells + 1)

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
    seed: int


@dataclass(frozen=True)
class ScalarPath:
    """Sampled scalar paths, shape (n_paths, n_nodes); node 0 is exactly 0."""

    grid: TimeGrid
    values: np.ndarray


@dataclass(frozen=True)
class KernelMatrix:
    """Lower-triangular cell discretization of the Volterra kernel.

    Row i (0-based) acts for the node t_{i+1}; column j holds the action of
    the kernel on the Wiener cell (t_j, t_{j+1}].  ``cell_rule`` is either
    "cell_average" (mean kernel value over the cell) or "l2_cell" (root mean
    square, which reproduces marginal variances exactly).
    """

    hurst: float
    grid: TimeGrid
    entries: np.ndarray
    cell_rule: str
    c_factor: float = field(default=0.0)


@dataclass(frozen=True)
class LndConstants:
    """Empirical local non-determinism constant at separation ``r``."""

    hurst: float
    r: float
    estimate: float
    grid: TimeGrid

    def __post_init__(self):
        if not (0.0 < self.estimate <= 1.0):
            raise DomainError(
                f"local non-determinism estimate must lie in (0, 1], got {self.estimate}"
            )


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
    composition implemented by :func:`cylfbm.fraccalc.kh_operator`.
    """
    H = as_hurst(H)
    return c_factor(H) * float(special.gamma(H + 0.5))


def _beta_tail(H: float, z) -> np.ndarray:
    """integral_z^1 w^(-2H) (1-w)^(H-1/2) dw, elementwise in z."""
    a, b = 1 - 2 * H, H + 0.5
    return special.beta(a, b) * special.betainc(b, a, 1.0 - np.asarray(z))


def _log_kernel(H: float, t, u, log_diff=None) -> np.ndarray:
    """Elementwise log of the (positive) kernel at (t, u), 0 < u < t.

    ``log_diff`` may carry log(t - u) directly, which keeps singular-cell
    quadrature stable when t - u underflows.
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


def kernel_K(H, t: float, s: float) -> float:
    """Volterra kernel value at 0 < s < t.

    The interior integral of u^(H-3/2) (u-s)^(H-1/2) is computed by adaptive
    quadrature after substituting away the endpoint singularity at u = s;
    relative error is far below 1e-8.
    """
    H = as_hurst(H)
    if s <= 0 or s >= t:
        raise DomainError("kernel requires 0 < s < t")
    p = H + 0.5

    def g(v):
        return (s + v ** (1.0 / p)) ** (H - 1.5) / p

    inner, _ = integrate.quad(g, 0.0, (t - s) ** p, epsabs=1e-14, epsrel=1e-11, limit=200)
    return c_factor(H) * (
        (t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
        + (0.5 - H) * s ** (0.5 - H) * inner
    )


def _singular_cell_integrand(v, H: float, t, q: float, power: int, at_top: bool):
    """Integrand in v of integral K(t,u)^power du over a singular cell.

    ``at_top`` selects the cell ending at t, substituted by v = (t-u)^q;
    otherwise the cell starting at 0, substituted by v = u^q.  t may be a
    scalar or an array of row times sharing the same v.
    """
    if at_top:
        lk = _log_kernel(H, t, t - v ** (1.0 / q), log_diff=np.log(v) / q)
    else:
        lk = _log_kernel(H, t, v ** (1.0 / q))
    return np.exp(power * lk + (1.0 / q - 1.0) * np.log(v) - np.log(q))


def kernel_cell_integral(H, t: float, a: float, b: float, power: int = 1) -> float:
    """integral_a^b K(t,u)^power du for power in {1, 2}.

    Integrable endpoint singularities at u = t and u = 0 are removed by the
    substitution v = (t-u)^q resp. v = u^q with q = power*(H-1/2) + 1.
    """
    H = as_hurst(H)
    if not 0 <= a < b <= t:
        raise DomainError("cell integral requires 0 <= a < b <= t")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    q = power * (H - 0.5) + 1.0
    touches_top = b >= t * (1 - 1e-14)
    touches_zero = a <= 0.0
    if touches_top and touches_zero:
        mid = 0.5 * (a + b)
        return kernel_cell_integral(H, t, a, mid, power) + kernel_cell_integral(
            H, t, mid, b, power
        )
    if touches_top or touches_zero:
        upper = (t - a) ** q if touches_top else b ** q
        val, _ = integrate.quad(_singular_cell_integrand, 0.0, upper,
                                args=(H, t, q, power, touches_top),
                                epsabs=1e-13, epsrel=1e-10, limit=200)
        return val
    x, w = np.polynomial.legendre.leggauss(16)
    u = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(w * np.exp(power * _log_kernel(H, t, u))))


def kernel_time_cell_integrals(H, s: float, grid: TimeGrid, start_index: int) -> np.ndarray:
    """Cell integrals of u -> K(u, s) in the first argument.

    Returns kappa with kappa[j] = integral over (t_{start+j}, t_{start+j+1})
    of K(u, s) du for the cells right of node start_index (where t_start = s).
    The first cell crosses the u -> s singularity and is substituted away.
    """
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


@functools.lru_cache(maxsize=64)
def _kernel_matrix_entries(H: float, t_end: float, n_cells: int, cell_rule: str) -> np.ndarray:
    grid = TimeGrid(t_end, n_cells)
    h = grid.step
    N = n_cells
    power = 2 if cell_rule == "l2_cell" else 1
    M = np.zeros((N, N))
    x, w = np.polynomial.legendre.leggauss(12)
    for i in range(3, N + 1):
        # interior cells 2..i-1: smooth integrand, fixed Gauss-Legendre
        t = i * h
        left = np.arange(1, i - 1) * h
        u = 0.5 * h * x[:, None] + left[None, :] + 0.5 * h
        vals = 0.5 * h * np.sum(w[:, None] * np.exp(power * _log_kernel(H, t, u)), axis=0)
        M[i - 1, 1 : i - 1] = vals
    if N > 1:
        # every first-column cell is (0, h) and every diagonal cell has length
        # h, so after substitution rows 2..N share the interval [0, h^q]
        q = power * (H - 0.5) + 1.0
        t = np.arange(2, N + 1) * h
        rows = np.arange(1, N)

        def singular_cells(at_top):
            val, _ = integrate.quad_vec(_singular_cell_integrand, 0.0, h ** q,
                                        args=(H, t, q, power, at_top),
                                        epsabs=1e-13, epsrel=1e-10, norm="max")
            return val

        M[rows, 0] = singular_cells(False)
        M[rows, rows] = singular_cells(True)
    M[0, 0] = kernel_cell_integral(H, h, 0.0, h, power)
    if cell_rule == "l2_cell":
        M = np.sqrt(M / h)
    else:
        M = M / h
    M.flags.writeable = False
    return M


def kernel_matrix(H, grid: TimeGrid, cell_rule: str = "cell_average") -> KernelMatrix:
    """Discretize the kernel on the grid cells.

    "cell_average" stores the mean kernel value per cell, "l2_cell" the root
    mean square; the latter makes every row variance exact.  Interior cells
    use 12-point Gauss-Legendre per row.  Diagonal and first-column cells
    integrate across the (integrable) singularities: after the substitution
    of :func:`kernel_cell_integral` they share one interval, so each family
    is one vector-valued adaptive integration over all rows at once.
    """
    H = as_hurst(H)
    if cell_rule not in ("cell_average", "l2_cell"):
        raise DomainError(f"unknown cell rule {cell_rule!r}")
    entries = _kernel_matrix_entries(H, float(grid.t_end), int(grid.n_cells), cell_rule)
    return KernelMatrix(hurst=H, grid=grid, entries=entries, cell_rule=cell_rule,
                        c_factor=c_factor(H))


def implied_covariance(km: KernelMatrix) -> np.ndarray:
    """Covariance of the discrete construction: M h M^T on nodes 1..N.

    Reports the law actually sampled by the kernel method so discrepancies
    against the exact covariance can be examined rather than hidden.
    """
    M = km.entries
    return M @ M.T * km.grid.step


def exact_covariance_matrix(H, grid: TimeGrid) -> np.ndarray:
    """Exact covariance matrix on the interior nodes t_1..t_N."""
    H = as_hurst(H)
    nodes = grid.nodes[1:]
    return 0.5 * (
        nodes[:, None] ** (2 * H)
        + nodes[None, :] ** (2 * H)
        - np.abs(nodes[:, None] - nodes[None, :]) ** (2 * H)
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def wiener_increments(grid: TimeGrid, n_paths: int, seed) -> WienerIncrements:
    """Independent N(0, step) increments per cell, reproducible from the seed."""
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n_paths, grid.n_cells)) * np.sqrt(grid.step)
    base = seed if isinstance(seed, (int, np.integer)) else -1
    return WienerIncrements(grid=grid, values=vals, seed=int(base))


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


def sample_fbm(H, grid: TimeGrid, n_paths: int, seed, method: str = "cholesky",
               cell_rule: str = "cell_average") -> ScalarPath:
    """Sample paths at the grid nodes; node 0 is exactly zero.

    "cholesky" factorizes the exact node covariance (the exact-law oracle);
    "kernel" applies the discretized Volterra kernel to Wiener increments.
    Both are deterministic given the seed.
    """
    H = as_hurst(H)
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    rng = np.random.default_rng(seed)
    N = grid.n_cells
    if method == "cholesky":
        C = exact_covariance_matrix(H, grid)
        L = _cholesky_with_jitter(C)
        Z = rng.standard_normal((N, n_paths))
        body = (L @ Z).T
    elif method == "kernel":
        dW = rng.standard_normal((N, n_paths)) * np.sqrt(grid.step)
        M = kernel_matrix(H, grid, cell_rule).entries
        body = (M @ dW).T
    else:
        raise DomainError(f"unknown sampling method {method!r}")
    vals = np.concatenate([np.zeros((n_paths, 1)), body], axis=1)
    return ScalarPath(grid=grid, values=vals)


def fbm_from_increments(H, inc: WienerIncrements, cell_rule: str = "cell_average") -> ScalarPath:
    """Apply the kernel matrix to given Wiener increments."""
    H = as_hurst(H)
    M = kernel_matrix(H, inc.grid, cell_rule).entries
    body = (M @ inc.values.T).T
    vals = np.concatenate([np.zeros((inc.values.shape[0], 1)), body], axis=1)
    return ScalarPath(grid=inc.grid, values=vals)


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


def fbm_conditional_variance_times(H, times, target: int, conditioning, **kw):
    """Conditional variance with explicit (possibly repeated) sample times."""
    H = as_hurst(H)
    times = np.asarray(times, dtype=float)
    cov = 0.5 * (
        times[:, None] ** (2 * H)
        + times[None, :] ** (2 * H)
        - np.abs(times[:, None] - times[None, :]) ** (2 * H)
    )
    return schur_conditional_variance(cov, target, conditioning, **kw)


def conditional_variance(H, grid: TimeGrid, target_index: int, conditioning_indices, **kw):
    """Var(B_{t_i} | B_{t_j}, j in the conditioning set) on grid nodes."""
    return fbm_conditional_variance_times(H, grid.nodes, target_index,
                                          conditioning_indices, **kw)


def estimate_lnd_constant(H, grid: TimeGrid, r: float) -> LndConstants:
    """Empirical local non-determinism constant.

    Minimizes, over grid nodes t >= r, the variance of B_t conditioned on all
    nodes at distance >= r, normalized by r^2H.  The grid used is recorded;
    convergence of the estimate to the true constant under grid refinement is
    not asserted.
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
    return LndConstants(hurst=H, r=r, estimate=float(best), grid=grid)
