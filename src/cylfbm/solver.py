"""Strong solver on the truncated space and its stochastic-derivative checks.

Fixed-point (Picard) iteration exploits the additive noise: every iterate is
exact in the noise, only the drift time integral is discretized.  The
derivative of the solution map with respect to each driving component solves
a linear integral equation forward in time; a Cameron-Martin bump re-solve
validates it by finite differences.  The convergence experiment solves in the
blocks of :func:`cylfbm.girsanov.mc_blocks` and prices every functional's
reweighting target on one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Iteration hit the cap above tolerance; carries the residual history."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class SolutionEnsemble:
    """Converged pathwise solution with its generating data.

    ``paths`` has shape (d, n_nodes, n_paths) and starts at x exactly.
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


def picard_solve(drift, x, noise: CylEnsemble, tol: float = 1e-9,
                 max_iter: int = 40, drift_rule: str = "trapezoid",
                 initial: str = "noise",
                 exact_iterations: int | None = None) -> SolutionEnsemble:
    """Iterate Y <- x + time-integral of drift(Y) + noise until the sup-over-grid
    L2 residual between iterates drops below tol.

    The drift time integral uses the trapezoid rule (a left-endpoint rule is
    available for diagnosis).  ``initial`` picks the starting iterate:
    "noise" starts from x + noise, "flat" from the constant x.  With
    ``exact_iterations`` the loop runs that exact count and skips the
    tolerance check (each iterate is causal in the noise, so fixed-count runs
    are prefix-comparable across truncated inputs).
    """
    if drift_rule not in ("trapezoid", "left"):
        raise DomainError(f"unknown drift rule {drift_rule!r}")
    if isinstance(drift, MollifiedDrift):
        L, M, _ = lipschitz_estimate(drift)
        if not (np.all(np.isfinite(L)) and np.all(np.isfinite(M))):
            raise DomainError("drift Lipschitz estimate is not finite")
    fn = _drift_callable(drift)
    grid = noise.grid
    nodes = grid.nodes
    h = grid.step
    d, n_nodes, m = noise.values.shape
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) < d:
        x = np.concatenate([x, np.zeros(d - len(x))])
    xcol = x[:d, None, None]
    base = xcol + noise.values
    Y = base.copy() if initial == "noise" else np.broadcast_to(xcol, base.shape).copy()
    residuals = []
    n_iter = exact_iterations if exact_iterations is not None else max_iter
    for it in range(1, n_iter + 1):
        F = np.empty_like(Y)
        for i in range(n_nodes):
            F[:, i, :] = fn(nodes[i], Y[:, i, :])
        integral = np.zeros_like(Y)
        if drift_rule == "trapezoid":
            integral[:, 1:, :] = np.cumsum(0.5 * h * (F[:, 1:, :] + F[:, :-1, :]), axis=1)
        else:
            integral[:, 1:, :] = np.cumsum(h * F[:, :-1, :], axis=1)
        Ynew = base + integral
        resid = float(np.max(np.sqrt(np.mean(np.sum((Ynew - Y) ** 2, axis=0), axis=-1))))
        residuals.append(resid)
        Y = Ynew
        done = resid <= tol if exact_iterations is None else it == n_iter
        if done:
            return SolutionEnsemble(paths=Y, drift=drift, noise=noise, x0=x[:d],
                                    iterations_used=it, final_residual=resid,
                                    residuals=tuple(residuals), drift_rule=drift_rule,
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
    """Fit the residual sequence against rate^n t^n / n! and report the decay trend.

    ``history`` is a residual sequence or a solved ensemble (a fixed-count
    solve with ``exact_iterations`` keeps every residual).  ``super_geometric``
    records whether the consecutive-ratio sequence trends downward over the
    available range.
    """
    if isinstance(history, SolutionEnsemble):
        history = history.residuals
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


def _step_linear_equation(sol: SolutionEnsemble, j0: int, lam_m: float, m_idx: int,
                          inhom_nodes: np.ndarray | None,
                          kernel_col: np.ndarray | None,
                          kappa: np.ndarray | None) -> np.ndarray:
    """Forward-solve G_i = g_i e_m + integral_s^{t_i} J(u) G_u du per path.

    Two inhomogeneity modes: ``inhom_nodes`` gives bounded node values g_i
    directly (Cameron-Martin bump profile); otherwise g_i = lam_m K(t_i, s)
    whose singular part is integrated by the exact per-cell masses ``kappa``
    and only the regular remainder sees the trapezoid rule.
    """
    grid = sol.grid
    h = grid.step
    d, n_nodes, m = sol.paths.shape
    jac = _jacobian_callable(sol.drift, d)
    nodes = grid.nodes
    out = np.zeros((d, n_nodes, m))
    J_prev = jac(nodes[j0], sol.paths[:, j0, :])  # (d, d, m)
    eye = np.eye(d)[:, :, None]
    if inhom_nodes is None:
        # R = G - lam K(t, s) e_m; R is bounded with R(s) = 0
        R_prev = np.zeros((d, m))
        QK = np.zeros((d, m))
        QR = np.zeros((d, m))
        for i in range(j0 + 1, n_nodes):
            J_i = jac(nodes[i], sol.paths[:, i, :])
            col_avg = 0.5 * (J_prev[:, m_idx, :] + J_i[:, m_idx, :])
            QK = QK + lam_m * kappa[i - j0 - 1] * col_avg
            rhs = QK + QR + 0.5 * h * np.einsum("klp,lp->kp", J_prev, R_prev)
            A = eye - 0.5 * h * J_i
            R_i = np.linalg.solve(A.transpose(2, 0, 1), rhs.T[:, :, None])[:, :, 0].T
            QR = QR + 0.5 * h * (np.einsum("klp,lp->kp", J_prev, R_prev)
                                 + np.einsum("klp,lp->kp", J_i, R_i))
            out[:, i, :] = R_i
            out[m_idx, i, :] += lam_m * kernel_col[i - j0 - 1]
            J_prev, R_prev = J_i, R_i
    else:
        G_prev = np.zeros((d, m))
        Q = np.zeros((d, m))
        for i in range(j0 + 1, n_nodes):
            J_i = jac(nodes[i], sol.paths[:, i, :])
            base = np.zeros((d, m))
            base[m_idx] = inhom_nodes[i - j0 - 1]
            rhs = base + Q + 0.5 * h * np.einsum("klp,lp->kp", J_prev, G_prev)
            A = eye - 0.5 * h * J_i
            G_i = np.linalg.solve(A.transpose(2, 0, 1), rhs.T[:, :, None])[:, :, 0].T
            Q = Q + 0.5 * h * (np.einsum("klp,lp->kp", J_prev, G_prev)
                               + np.einsum("klp,lp->kp", J_i, G_i))
            out[:, i, :] = G_i
            J_prev, G_prev = J_i, G_i
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
    values = _step_linear_equation(sol, s_index, lam_m, m - 1,
                                   inhom_nodes=None, kernel_col=kernel_col,
                                   kappa=kappa)
    return MalliavinBlock(s_index=s_index, component=m, grid=grid, values=values)


def malliavin_directional(sol: SolutionEnsemble, s_index: int, m: int,
                          window_cells: int = 2) -> np.ndarray:
    """Window-averaged derivative: the response to a unit Cameron-Martin bump
    with density 1/window on the cells starting at s_index, chained through
    the discrete kernel.  Shape (d, n_nodes, n_paths)."""
    grid = sol.grid
    if s_index + window_cells > grid.n_cells:
        raise DomainError("bump window exceeds the grid")
    H_m = sol.noise.hursts.value(m)
    lam_m = sol.noise.weights.value(m)
    km = kernel_matrix(H_m, grid, "cell_average").entries
    win = slice(s_index, s_index + window_cells)
    profile = lam_m * np.sum(km[s_index:, win], axis=1) / window_cells  # nodes s_index+1..N
    return _step_linear_equation(sol, s_index, lam_m, m - 1,
                                 inhom_nodes=profile, kernel_col=None, kappa=None)


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
    H_m = sol.noise.hursts.value(m)
    lam_m = sol.noise.weights.value(m)
    km = kernel_matrix(H_m, grid, "cell_average").entries
    win = slice(s_index, s_index + window_cells)
    shift_nodes = np.zeros(grid.n_nodes)
    shift_nodes[1:] = lam_m * np.sum(km[:, win], axis=1) / window_cells
    pert = np.zeros_like(sol.noise.values)
    pert[m - 1] = bump * shift_nodes[:, None]
    # increments dropped: they would no longer generate the perturbed values
    noise2 = CylEnsemble(d=sol.noise.d, grid=grid, values=sol.noise.values + pert,
                         seed=sol.noise.seed, hursts=sol.noise.hursts,
                         weights=sol.noise.weights, increments=None)
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


def _pad_drift(md: MollifiedDrift, d_full: int):
    """Embed a d-dimensional smoothed drift into a d_full-dimensional system
    (the extra components carry no drift, only their noise)."""

    def fn(t, z):
        out = np.zeros((d_full, z.shape[1]))
        out[: md.d] = md.evaluator(t, z[: md.d])
        return out

    return fn


def converge_experiment(spec: drift_mod.DriftSpec, schedule, t: float, phi_ids,
                        hursts: HurstSequence, weights: WeightSequence,
                        grid: TimeGrid, x, n_paths: int, seed: int,
                        tol: float = 1e-9, block_size: int = girsanov_mod.DEFAULT_BLOCK_SIZE):
    """Solve along an approximation schedule and compare against the
    measure-change target for the original drift.

    For each (truncation level, smoothing width) the smoothed drift is solved
    on the full representable space (missing components keep their noise but
    lose their drift) and the mean of each functional is compared with the
    reweighting estimator at the largest representable level; all targets
    come from one weighted sample.  Returns the rows (value, target, their
    standard errors and the gap, per functional; no averaging across
    functionals) and the target's :class:`~cylfbm.girsanov.EstimatorResult`.
    """
    schedule = [(int(dd), float(ee)) for dd, ee in schedule]
    d_ref = max(dd for dd, _ in schedule)
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) < d_ref:
        x = np.concatenate([x, np.zeros(d_ref - len(x))])
    target_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    target = girsanov_mod.weak_solution_estimator(
        spec, phi_ids, x, t, hursts, weights, d_ref, grid, n_paths,
        target_seed, block_size=block_size)
    idx_t = girsanov_mod._node_index(grid, t)
    phis = {phi_id: girsanov_mod.make_functional(phi_id) for phi_id in phi_ids}
    rows = []
    for (dd, ee), point_seed in zip(schedule, run_seed.spawn(len(schedule))):
        padded = _pad_drift(mollify(spec, dd, ee), d_ref)
        moments = {phi_id: girsanov_mod.RunningMoments() for phi_id in phis}
        for m, block_seed in girsanov_mod.mc_blocks(n_paths, point_seed, block_size):
            noise = sample_cyl_fbm(hursts, weights, d_ref, grid, m, block_seed,
                                   method="kernel")
            sol = picard_solve(padded, x, noise, tol=tol, max_iter=120)
            for phi_id, phi in phis.items():
                moments[phi_id].add(phi(sol.paths[:, idx_t, :]))
        for phi_id in phi_ids:
            val, se = moments[phi_id].mean, moments[phi_id].stderr
            tgt, tgt_se = target.estimates[phi_id]
            rows.append({
                "d": dd, "eps": ee, "t": t, "phi_id": phi_id,
                "value": val, "stderr": se,
                "target": tgt, "target_stderr": tgt_se,
                "gap": val - tgt,
            })
    return rows, target
