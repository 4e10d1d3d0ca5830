"""Strong solver on the truncated space and its stochastic-derivative checks.

The additive noise enters exactly; only the drift time integral is
discretized, and the trapezoid system this gives is lower-triangular in time.
:func:`picard_solve` therefore solves it by a causal forward sweep: at each
node a local fixed point, started from an explicit predictor, is iterated to
tolerance before the sweep moves on (the left rule is explicit).  Global
Picard iteration over the whole grid survives only as the contraction
diagnostic :func:`picard_iterates`, whose residual history
:func:`picard_residual_curve` fits.  The derivative of the solution map with
respect to each driving component solves a linear integral equation forward
in time; a Cameron-Martin bump re-solve validates it by finite differences.
The convergence experiment solves in the blocks of
:func:`cylfbm.girsanov.mc_blocks`: every schedule point and a raw-drift
reference run on one noise sample per block, each point only in the
coordinates its drift drives, and every functional's reweighting target is
priced on one sample of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import drift as drift_mod
from . import girsanov as girsanov_mod
from .cylinder import CylEnsemble, HurstSequence, WeightSequence, sample_cyl_fbm
from .drift import MollifiedDrift, lipschitz_estimate, mollify
from .fbm import (
    DomainError,
    TimeGrid,
    kernel_matrix,
    kernel_time_cell_integrals,
    kernel_values,
)


class PicardConvergenceError(RuntimeError):
    """Iteration hit the cap above tolerance; carries the residual history
    (of the failing node for the sweep, of the sweeps for the global iterates)."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class SolutionEnsemble:
    """Converged pathwise solution with its generating data.

    ``paths`` has shape (d, n_nodes, n_paths) and starts at x exactly.
    ``residuals`` holds the last local update at each node after the first
    for :func:`picard_solve`, and the update of every sweep for
    :func:`picard_iterates`.
    """

    paths: np.ndarray
    drift: object
    noise: CylEnsemble
    x0: np.ndarray
    iterations_used: int
    final_residual: float
    residuals: tuple
    drift_rule: str
    tol: float

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def d(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True)
class MalliavinBlock:
    """Derivative of the solution at all later times in one noise direction.

    ``values[k, i, p]`` is the k-th state coordinate of the derivative at
    node i on path p; entries at nodes up to the base index are zero.
    """

    s_index: int
    component: int
    grid: TimeGrid
    values: np.ndarray


def _drift_callable(drift):
    if isinstance(drift, MollifiedDrift):
        return drift.evaluator
    if callable(drift):
        return drift
    raise DomainError("drift must be a MollifiedDrift or a callable (t, states) -> rows")


def _prepare(drift, x, noise: CylEnsemble):
    """The drift as a callable and the start point padded (or cut) to the
    noise dimension; a smoothed drift must have a finite Lipschitz estimate."""
    if isinstance(drift, MollifiedDrift):
        L, M, _ = lipschitz_estimate(drift)
        if not (np.all(np.isfinite(L)) and np.all(np.isfinite(M))):
            raise DomainError("drift Lipschitz estimate is not finite")
    return _drift_callable(drift), girsanov_mod._start_point(x, noise.values.shape[0])


def _rms(diff: np.ndarray) -> np.ndarray:
    """Root mean square over paths (last axis) of the state norm (first axis)."""
    return np.sqrt(np.mean(np.sum(diff ** 2, axis=0), axis=-1))


def picard_solve(drift, x, noise: CylEnsemble, tol: float = 1e-9,
                 max_iter: int = 40, drift_rule: str = "trapezoid") -> SolutionEnsemble:
    """Solve Y_i = x + B_i + (drift time integral of Y up to t_i) node by node.

    The discrete system is lower-triangular in time.  With the trapezoid rule
    node i needs Y_i = r_i + h/2 F(t_i, Y_i), where r_i = x + B_i + S_{i-1}
    + h/2 F_{i-1} and S_{i-1} is the drift integral up to node i-1; starting
    from the explicit predictor r_i + h/2 F_{i-1}, the local fixed point is
    iterated until the update's RMS over paths is at most ``tol``.  The left
    rule is explicit: one drift evaluation per node.  ``iterations_used`` is
    the largest local iteration count, ``residuals`` the last local update
    at each node after the first and ``final_residual`` their maximum.
    """
    if drift_rule not in ("trapezoid", "left"):
        raise DomainError(f"unknown drift rule {drift_rule!r}")
    fn, x = _prepare(drift, x, noise)
    nodes = noise.grid.nodes
    h = noise.grid.step
    xcol = x[:, None]
    paths = np.empty_like(noise.values)
    y = xcol + noise.values[:, 0, :]
    paths[:, 0, :] = y
    f_prev = fn(nodes[0], y)
    integral = np.zeros_like(y)  # S_{i-1}
    last, most = [], 1
    for i in range(1, len(nodes)):
        if drift_rule == "left":
            integral = integral + h * f_prev
            y = xcol + noise.values[:, i, :] + integral
            f_prev = fn(nodes[i], y)
            paths[:, i, :] = y
            last.append(0.0)
            continue
        r = xcol + noise.values[:, i, :] + integral + 0.5 * h * f_prev
        y = r + 0.5 * h * f_prev
        history = []
        while True:
            f = fn(nodes[i], y)
            y_new = r + 0.5 * h * f
            history.append(float(_rms(y_new - y)))
            y = y_new
            if history[-1] <= tol:
                break
            if len(history) == max_iter:
                raise PicardConvergenceError(
                    f"node {i}: no convergence after {max_iter} local iterations "
                    f"(residual {history[-1]:.3e})", history)
        integral = integral + 0.5 * h * (f_prev + f)
        f_prev = f
        paths[:, i, :] = y
        last.append(history[-1])
        most = max(most, len(history))
    return SolutionEnsemble(paths=paths, drift=drift, noise=noise, x0=x,
                            iterations_used=most, final_residual=max(last, default=0.0),
                            residuals=tuple(last), drift_rule=drift_rule, tol=tol)


def picard_iterates(drift, x, noise: CylEnsemble, tol: float = 1e-9,
                    max_iter: int = 40,
                    exact_iterations: int | None = None) -> SolutionEnsemble:
    """Global Picard iteration of the trapezoid system, kept as the
    contraction diagnostic.

    Every sweep re-evaluates the drift at all nodes of the previous iterate,
    starting from x + noise, until the sup-over-grid RMS update is at most
    ``tol``; with ``exact_iterations`` it runs exactly that many sweeps.
    ``residuals`` holds the update of every sweep, the sequence
    :func:`picard_residual_curve` fits.
    """
    fn, x = _prepare(drift, x, noise)
    nodes = noise.grid.nodes
    h = noise.grid.step
    base = x[:, None, None] + noise.values
    Y = base.copy()
    residuals = []
    n_iter = exact_iterations if exact_iterations is not None else max_iter
    for it in range(1, n_iter + 1):
        F = np.empty_like(Y)
        for i in range(len(nodes)):
            F[:, i, :] = fn(nodes[i], Y[:, i, :])
        integral = np.zeros_like(Y)
        integral[:, 1:, :] = np.cumsum(0.5 * h * (F[:, 1:, :] + F[:, :-1, :]), axis=1)
        Ynew = base + integral
        resid = float(np.max(_rms(Ynew - Y)))
        residuals.append(resid)
        Y = Ynew
        done = resid <= tol if exact_iterations is None else it == n_iter
        if done:
            return SolutionEnsemble(paths=Y, drift=drift, noise=noise, x0=x,
                                    iterations_used=it, final_residual=resid,
                                    residuals=tuple(residuals), drift_rule="trapezoid",
                                    tol=tol)
    raise PicardConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residuals[-1]:.3e})",
        residuals)


@dataclass(frozen=True)
class ResidualDiagnostics:
    residuals: tuple
    ratios: tuple
    fitted_rate: float
    super_geometric: bool


def picard_residual_curve(history, t_end: float) -> ResidualDiagnostics:
    """Fit a residual sequence, such as the per-sweep ``residuals`` of
    :func:`picard_iterates`, against rate^n t^n / n! and report the decay trend.

    ``super_geometric`` records whether the consecutive-ratio sequence trends
    downward over the available range.
    """
    residuals = tuple(float(r) for r in history)
    if len(residuals) < 3:
        raise DomainError("need at least three residuals to analyse decay")
    pos = [(n + 1, r) for n, r in enumerate(residuals) if r > 0.0]
    if len(pos) >= 2:
        ns = np.array([n for n, _ in pos], dtype=float)
        logs = np.array([math.log(r) for _, r in pos])
        shape = ns * math.log(t_end) - gammaln(ns + 1.0)
        fitted = math.exp(float(np.sum((logs - shape) * ns) / np.sum(ns ** 2)))
    else:
        fitted = 0.0
    ratios = tuple(residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1)
                   if residuals[i] > 0.0)
    if len(ratios) >= 2:
        slope = float(np.polyfit(np.arange(len(ratios)), np.asarray(ratios), 1)[0])
        sg = slope < 0.0
    else:
        sg = True
    return ResidualDiagnostics(residuals=residuals, ratios=ratios,
                               fitted_rate=fitted, super_geometric=sg)


# ---------------------------------------------------------------------------
# stochastic derivative in a single noise direction
# ---------------------------------------------------------------------------


def _jacobian_callable(drift, d: int):
    grad = getattr(drift, "gradient_evaluator", None)
    if grad is None:
        raise DomainError("the derivative equation needs a drift with a Jacobian evaluator")
    return grad


def _step_linear_equation(sol: SolutionEnsemble, j0: int, m_idx: int, g: np.ndarray,
                          mass: np.ndarray | None = None) -> np.ndarray:
    """Forward-solve G_i = g_i e_m + integral_s^{t_i} J(u) G_u du per path.

    ``g`` holds the inhomogeneity at the nodes after s = t_{j0}.  Writing
    G_i = g_i e_m + R_i, the remainder R is bounded with R(s) = 0 and solves
    R_i = Q_i + integral_s^{t_i} J(u) R_u du, where Q is the J-integral of the
    inhomogeneity, int J(u)[:, m] g(u) du.  With ``mass`` (the exact per-cell
    masses of a singular g, such as the weighted kernel column) Q takes each
    cell's mass times the cell average of J[:, m]; without it Q is the
    trapezoid rule on J[:, m] g with g(s) = 0 (a bounded bump profile).  The
    integral of J R always takes the trapezoid rule.
    """
    grid = sol.grid
    h = grid.step
    d, n_nodes, m = sol.paths.shape
    jac = _jacobian_callable(sol.drift, d)
    nodes = grid.nodes
    out = np.zeros((d, n_nodes, m))
    eye = np.eye(d)[:, :, None]
    J_prev = jac(nodes[j0], sol.paths[:, j0, :])  # (d, d, m)
    g_prev = 0.0
    R_prev = np.zeros((d, m))
    Q = np.zeros((d, m))
    QR = np.zeros((d, m))
    for i in range(j0 + 1, n_nodes):
        J_i = jac(nodes[i], sol.paths[:, i, :])
        g_i = g[i - j0 - 1]
        if mass is None:
            Q = Q + 0.5 * h * (J_prev[:, m_idx, :] * g_prev + J_i[:, m_idx, :] * g_i)
        else:
            Q = Q + mass[i - j0 - 1] * (0.5 * (J_prev[:, m_idx, :] + J_i[:, m_idx, :]))
        JR_prev = np.einsum("klp,lp->kp", J_prev, R_prev)
        rhs = Q + QR + 0.5 * h * JR_prev
        A = eye - 0.5 * h * J_i
        R_i = np.linalg.solve(A.transpose(2, 0, 1), rhs.T[:, :, None])[:, :, 0].T
        QR = QR + 0.5 * h * (JR_prev + np.einsum("klp,lp->kp", J_i, R_i))
        out[:, i, :] = R_i
        out[m_idx, i, :] += g_i
        J_prev, R_prev, g_prev = J_i, R_i, g_i
    return out


def malliavin_derivative(sol: SolutionEnsemble, s_index: int, m: int) -> MalliavinBlock:
    """Derivative of the solution in the direction of driving component m,
    based at grid node s_index, by forward time-stepping of the linear
    integral equation it satisfies.

    With zero drift the block equals the weighted kernel column exactly.
    """
    grid = sol.grid
    if not (0 <= s_index < grid.n_cells):
        raise DomainError("base index must be an interior node with room to the right")
    if not (1 <= m <= sol.d):
        raise DomainError("component index out of range")
    s = grid.nodes[s_index]
    lam_m = sol.noise.weights.value(m)
    H_m = sol.noise.hursts.value(m)
    if s_index == 0:
        raise DomainError("kernel column is undefined at time 0; pick a node >= 1")
    kernel_col = kernel_values(H_m, grid.nodes[s_index + 1 :], s)
    kappa = kernel_time_cell_integrals(H_m, s, grid, s_index)
    values = _step_linear_equation(sol, s_index, m - 1, lam_m * kernel_col,
                                   mass=lam_m * kappa)
    return MalliavinBlock(s_index=s_index, component=m, grid=grid, values=values)


def _bump_profile(sol: SolutionEnsemble, s_index: int, m: int,
                  window_cells: int) -> np.ndarray:
    """Noise response at the nodes t_1..t_N of driving component m to a unit
    Cameron-Martin bump with density 1/window on the cells starting at
    s_index, chained through the discrete kernel."""
    grid = sol.grid
    if s_index + window_cells > grid.n_cells:
        raise DomainError("bump window exceeds the grid")
    km = kernel_matrix(sol.noise.hursts.value(m), grid)
    win = slice(s_index, s_index + window_cells)
    return sol.noise.weights.value(m) * np.sum(km[:, win], axis=1) / window_cells


def malliavin_directional(sol: SolutionEnsemble, s_index: int, m: int,
                          window_cells: int = 2) -> np.ndarray:
    """Window-averaged derivative: the response to the bump of
    :func:`_bump_profile`.  Shape (d, n_nodes, n_paths)."""
    profile = _bump_profile(sol, s_index, m, window_cells)[s_index:]  # nodes s_index+1..N
    return _step_linear_equation(sol, s_index, m - 1, profile)


@dataclass(frozen=True)
class FdCheckResult:
    relative_error: float
    bump: float
    window_cells: int
    flagged_noise_floor: bool


def malliavin_fd_check(sol: SolutionEnsemble, s_index: int, m: int,
                       bump: float = 1e-4, window_cells: int = 2) -> FdCheckResult:
    """Finite-difference validation of the stochastic derivative.

    Perturbs driving component m by ``bump`` times the Cameron-Martin
    direction with density 1/window on the bump window, chains the
    perturbation through the kernel discretization, re-solves, and compares
    (X_bumped - X)/bump at the final time against the window-averaged
    derivative.  Flags the result when the bump is so small the fixed-point
    tolerance could dominate the difference.
    """
    grid = sol.grid
    shift_nodes = np.zeros(grid.n_nodes)
    shift_nodes[1:] = _bump_profile(sol, s_index, m, window_cells)
    pert = np.zeros_like(sol.noise.values)
    pert[m - 1] = bump * shift_nodes[:, None]
    # increments dropped: they would no longer generate the perturbed values
    noise2 = CylEnsemble(d=sol.noise.d, grid=grid, values=sol.noise.values + pert,
                         hursts=sol.noise.hursts, weights=sol.noise.weights,
                         increments=None)
    sol2 = picard_solve(sol.drift, sol.x0, noise2, tol=sol.tol,
                        max_iter=200, drift_rule=sol.drift_rule)
    fd = (sol2.paths[:, -1, :] - sol.paths[:, -1, :]) / bump
    avg = malliavin_directional(sol, s_index, m, window_cells)[:, -1, :]
    num = math.sqrt(float(np.mean(np.sum((fd - avg) ** 2, axis=0))))
    den = math.sqrt(float(np.mean(np.sum(avg ** 2, axis=0))))
    rel = num / den if den > 0 else math.inf
    flagged = bump * den < 100.0 * sol.tol
    return FdCheckResult(relative_error=rel, bump=bump, window_cells=window_cells,
                         flagged_noise_floor=flagged)


# ---------------------------------------------------------------------------
# approximation-schedule experiment
# ---------------------------------------------------------------------------


def converge_experiment(spec: drift_mod.DriftSpec, schedule, t: float, phi_ids,
                        hursts: HurstSequence, weights: WeightSequence,
                        grid: TimeGrid, x, n_paths: int, seed: int,
                        block_size: int = girsanov_mod.DEFAULT_BLOCK_SIZE):
    """Solve along an approximation schedule on one noise sample and compare
    against the measure-change target for the original drift.

    Each block draws one sample at the largest schedule level d_ref and
    solves every (truncation level dd, smoothing width) point on it.  Sampling
    is prefix-stable in the level, so a point solves only its first dd
    coordinates on a view of the sample; the others carry no drift and stay
    x + noise exactly.  On the same block a left-rule solve of the raw drift
    at d_ref is the reference of the paired gap, the mean of
    phi(X_point) - phi(X_ref), and its standard error.  The reweighting
    target at d_ref comes from a sample of its own.  Returns the rows (value,
    target, their standard errors, the gap and the paired gap, per
    functional; no averaging across functionals) and the target's
    :class:`~cylfbm.girsanov.EstimatorResult`.  A block's noise is released
    before the next block is sampled, and of the reference solve only the
    state at t is kept.
    """
    schedule = [(int(dd), float(ee)) for dd, ee in schedule]
    d_ref = max(dd for dd, _ in schedule)
    target_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    target = girsanov_mod.weak_solution_estimator(
        spec, phi_ids, x, t, hursts, weights, d_ref, grid, n_paths,
        target_seed, block_size=block_size)
    idx_t = girsanov_mod._node_index(grid, t)
    x = girsanov_mod._start_point(x, d_ref)
    phis = {phi_id: girsanov_mod.make_functional(phi_id) for phi_id in phi_ids}
    # plain callables: the strong solve needs no Lipschitz estimate
    evaluators = [mollify(spec, dd, ee).evaluator for dd, ee in schedule]
    moments = [{phi_id: (girsanov_mod.RunningMoments(), girsanov_mod.RunningMoments())
                for phi_id in phis} for _ in schedule]
    for m, block_seed in girsanov_mod.mc_blocks(n_paths, run_seed, block_size):
        noise = sample_cyl_fbm(hursts, weights, d_ref, grid, m, block_seed,
                               method="kernel")
        ref = picard_solve(lambda tt, yy: drift_mod.evaluate(spec, tt, yy), x, noise,
                           drift_rule="left")
        z_ref = ref.paths[:, idx_t, :].copy()  # a view would keep all of ref.paths
        del ref
        ref_phi = {phi_id: phi(z_ref) for phi_id, phi in phis.items()}
        driftless = x[:, None] + noise.values[:, idx_t, :]
        for (dd, _), fn, point in zip(schedule, evaluators, moments):
            sol = picard_solve(fn, x, replace(noise, d=dd, values=noise.values[:dd]),
                               max_iter=120)
            z = driftless.copy()
            z[:dd] = sol.paths[:, idx_t, :]
            del sol  # before the next point's solve allocates its paths
            for phi_id, phi in phis.items():
                g = phi(z)
                point[phi_id][0].add(g)
                point[phi_id][1].add(g - ref_phi[phi_id])
        del noise  # free this block before the next one is sampled
    rows = []
    for (dd, ee), point in zip(schedule, moments):
        for phi_id in phi_ids:
            mom, paired = point[phi_id]
            tgt, tgt_se = target.estimates[phi_id]
            rows.append({
                "d": dd, "eps": ee, "t": t, "phi_id": phi_id,
                "value": mom.mean, "stderr": mom.stderr,
                "target": tgt, "target_stderr": tgt_se,
                "gap": mom.mean - tgt,
                "paired_gap": paired.mean, "paired_stderr": paired.stderr,
            })
    return rows, target
