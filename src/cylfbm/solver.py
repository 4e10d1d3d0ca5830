"""Strong solver on the truncated space and its stochastic-derivative checks.

The additive noise enters exactly; only the drift time integral is
discretized, by the explicit left rule Y_i = x + B_i + h sum_{j<i} F(t_j, Y_j).
:func:`picard_solve` solves it by one causal forward sweep, one drift
evaluation per cell.  Global Picard iteration of the same system survives
only as the contraction diagnostic :func:`picard_iterates`, whose residual
history :func:`picard_residual_curve` fits.  The derivative of the solution
map with respect to each driving component is the same rule's linearisation,
stepped forward in time; a Cameron-Martin bump re-solve validates it by
finite differences.  The convergence experiment solves in the blocks of
:func:`cylfbm.girsanov.mc_blocks`: every schedule point and a raw-drift
reference run on one noise sample per block, each point only in the
coordinates its drift drives, and every functional's reweighting target is
priced on one sample of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cylinder as cylinder_mod
from . import drift as drift_mod
from . import girsanov as girsanov_mod
from .cylinder import CylEnsemble, HurstSequence, WeightSequence, child_seed, sample_cyl_fbm
from .drift import mollify
from .fbm import (
    DomainError,
    TimeGrid,
    kernel_matrix,
    kernel_time_cell_integrals,
    kernel_values,
)


class PicardConvergenceError(RuntimeError):
    """The global iterates hit the cap above tolerance; carries the update of
    every sweep."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class SolutionEnsemble:
    """Pathwise solution with its generating data.

    ``paths`` has shape (d, n_nodes, n_paths) and starts at x exactly; a
    sweep stopped at one node holds only that node, shape (d, 1, n_paths).
    ``residuals`` holds the update of every sweep of :func:`picard_iterates`;
    the explicit sweep of :func:`picard_solve` leaves it empty.
    """

    paths: np.ndarray
    drift: object
    noise: CylEnsemble
    x0: np.ndarray
    iterations_used: int
    final_residual: float
    residuals: tuple

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def d(self) -> int:
        return self.paths.shape[0]


def _rms(diff: np.ndarray) -> np.ndarray:
    """Root mean square over paths (last axis) of the state norm (first axis)."""
    return np.sqrt(np.mean(np.sum(diff ** 2, axis=0), axis=-1))


def picard_solve(drift, x, noise: CylEnsemble, t_index: int | None = None) -> SolutionEnsemble:
    """Solve Y_i = x + B_i + h sum_{j<i} F(t_j, Y_j) by one forward sweep.

    The drift F is any callable (t, states) -> rows, such as a
    :class:`~cylfbm.drift.MollifiedDrift`; its Lipschitz estimate is not
    checked here.  The start point x is padded (or cut) to the noise
    dimension.  The left rule is explicit: the drift is evaluated once per
    cell, at its left node, and never at the last node.  The sweep keeps a
    running drift integral and writes each next state as (x + B_{i+1}) +
    integral, by default into every node of ``paths``.  With ``t_index`` it
    stops at that node after ``t_index`` drift evaluations, overwriting one
    state, so ``paths`` has shape (d, 1, n_paths) and holds node ``t_index``
    alone.  The sweep leaves no residual, so ``iterations_used`` is 1,
    ``final_residual`` 0 and ``residuals`` empty.
    """
    x = girsanov_mod._start_point(x, noise.values.shape[0])
    grid = noise.grid
    B = noise.values
    full = t_index is None
    n_cells = grid.n_cells if full else t_index
    if not 0 <= n_cells <= grid.n_cells:
        raise DomainError(f"node index {t_index} is outside the grid")
    paths = np.empty(B.shape if full else (B.shape[0], 1, B.shape[2]))
    state = paths[:, 0, :]
    np.add(x[:, None], B[:, 0, :], out=state)
    integral = np.zeros_like(state)
    for i in range(n_cells):
        integral += grid.step * drift(grid.nodes[i], state)
        if full:
            state = paths[:, i + 1, :]
        np.add(x[:, None], B[:, i + 1, :], out=state)
        state += integral
    return SolutionEnsemble(paths=paths, drift=drift, noise=noise, x0=x,
                            iterations_used=1, final_residual=0.0, residuals=())


def picard_iterates(drift, x, noise: CylEnsemble, tol: float = 1e-9,
                    max_iter: int = 40,
                    exact_iterations: int | None = None) -> SolutionEnsemble:
    """Global Picard iteration of the left-rule system, kept as the
    contraction diagnostic.

    The drift and the start point are taken as by :func:`picard_solve`.
    Every sweep re-evaluates the drift at the left node of every cell of the
    previous iterate, starting from x + noise, until the sup-over-grid RMS
    update is at most ``tol``; with ``exact_iterations`` it runs exactly that
    many sweeps.  Its fixed point is the path of :func:`picard_solve`.
    ``residuals`` holds the update of every sweep, the sequence
    :func:`picard_residual_curve` fits.
    """
    x = girsanov_mod._start_point(x, noise.values.shape[0])
    grid = noise.grid
    base = x[:, None, None] + noise.values
    Y = base.copy()
    residuals = []
    n_iter = exact_iterations if exact_iterations is not None else max_iter
    for it in range(1, n_iter + 1):
        F = np.stack([drift(grid.nodes[i], Y[:, i, :]) for i in range(grid.n_cells)], axis=1)
        Ynew = base.copy()
        Ynew[:, 1:, :] += np.cumsum(grid.step * F, axis=1)
        resid = float(np.max(_rms(Ynew - Y)))
        residuals.append(resid)
        Y = Ynew
        done = resid <= tol if exact_iterations is None else it == n_iter
        if done:
            return SolutionEnsemble(paths=Y, drift=drift, noise=noise, x0=x,
                                    iterations_used=it, final_residual=resid,
                                    residuals=tuple(residuals))
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
        shape = ns * math.log(t_end) - np.array([math.lgamma(n + 1.0) for n in ns])
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


def _step_linear_equation(sol: SolutionEnsemble, j0: int, m_idx: int, g: np.ndarray,
                          mass: np.ndarray | None = None) -> np.ndarray:
    """Forward-solve the left-rule linearisation of the solve in direction m.

    ``g`` holds the noise perturbation at the nodes after s = t_{j0}.  The
    derivative is G_i = g_i e_m + R_i with R_{j0} = 0 and
    R_i = R_{i-1} + c_{i-1} J_{i-1}[:, m] + h J_{i-1} R_{i-1}, where J is the
    drift Jacobian along the path, the rule :func:`picard_solve` applies to
    the drift.  c is the exact cell mass of a singular g when ``mass`` is
    given (such as the weighted kernel column), and otherwise h g at the
    cell's left node, with g(s) = 0 (a bounded bump profile).
    """
    jac = getattr(sol.drift, "gradient_evaluator", None)
    if jac is None:
        raise DomainError("the derivative equation needs a drift with a Jacobian evaluator")
    grid = sol.grid
    h = grid.step
    d, n_nodes, m = sol.paths.shape
    c = mass if mass is not None else h * np.concatenate(([0.0], g[:-1]))
    out = np.zeros((d, n_nodes, m))
    R = np.zeros((d, m))
    for i in range(j0, n_nodes - 1):
        J = jac(grid.nodes[i], sol.paths[:, i, :])  # (d, d, m)
        R = R + c[i - j0] * J[:, m_idx, :] + h * np.einsum("klp,lp->kp", J, R)
        out[:, i + 1, :] = R
    out[m_idx, j0 + 1:, :] += g[:, None]
    return out


def malliavin_derivative(sol: SolutionEnsemble, s_index: int, m: int) -> np.ndarray:
    """Derivative of the solution in the direction of driving component m,
    based at grid node s_index: the left-rule linearisation of the solve,
    stepped forward in time with the kernel column's exact cell masses.

    Entry [k, i, p] is the k-th state coordinate of the derivative at node i
    on path p; entries at nodes up to the base index are zero.  With zero
    drift the derivative equals the weighted kernel column exactly.
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
    return _step_linear_equation(sol, s_index, m - 1, lam_m * kernel_col,
                                 mass=lam_m * kappa)


@dataclass(frozen=True)
class FdCheckResult:
    relative_error: float
    bump: float
    window_cells: int


def malliavin_fd_check(sol: SolutionEnsemble, s_index: int, m: int,
                       bump: float = 1e-4, window_cells: int = 2) -> FdCheckResult:
    """Finite-difference validation of the stochastic derivative.

    Perturbs driving component m by ``bump`` times the Cameron-Martin
    direction with density 1/window on the ``window_cells`` cells starting
    at s_index, chains the perturbation through the kernel discretization,
    re-solves, and compares (X_bumped - X)/bump at the final time against the
    window-averaged derivative: the left-rule linearisation driven by the
    same noise response.  They differ only by the bump's second-order term.
    """
    grid = sol.grid
    if not (1 <= m <= sol.d):
        raise DomainError("component index out of range")
    if not (0 <= s_index and 1 <= window_cells and s_index + window_cells <= grid.n_cells):
        raise DomainError("bump window must hold at least one cell of the grid")
    if bump == 0:
        raise DomainError("bump size must be nonzero")
    # noise response at the nodes t_1..t_N to the unit bump
    km = kernel_matrix(sol.noise.hursts.value(m), grid)
    profile = sol.noise.weights.value(m) * np.sum(
        km[:, s_index : s_index + window_cells], axis=1) / window_cells
    pert = np.zeros_like(sol.noise.values)
    pert[m - 1, 1:] = bump * profile[:, None]
    # increments dropped: they would no longer generate the perturbed values
    noise2 = replace(sol.noise, values=sol.noise.values + pert, increments=None)
    sol2 = picard_solve(sol.drift, sol.x0, noise2, t_index=grid.n_cells)
    fd = (sol2.paths[:, -1, :] - sol.paths[:, -1, :]) / bump
    avg = _step_linear_equation(sol, s_index, m - 1, profile[s_index:])[:, -1, :]
    num = math.sqrt(float(np.mean(np.sum((fd - avg) ** 2, axis=0))))
    den = math.sqrt(float(np.mean(np.sum(avg ** 2, axis=0))))
    rel = num / den if den > 0 else math.inf
    return FdCheckResult(relative_error=rel, bump=bump, window_cells=window_cells)


# ---------------------------------------------------------------------------
# approximation-schedule experiment
# ---------------------------------------------------------------------------


def converge_experiment(spec: drift_mod.DriftSpec, schedule, t: float, phi_ids,
                        hursts: HurstSequence, weights: WeightSequence,
                        grid: TimeGrid, x, n_paths: int, seed: int):
    """Solve along an approximation schedule on one noise sample and compare
    against the measure-change target for the original drift.

    Each block of :func:`cylfbm.girsanov.mc_blocks` draws one sample at the
    largest schedule level d_ref and solves every (truncation level dd,
    smoothing width) point on it.  Sampling is prefix-stable in the level,
    so a point solves only its first dd coordinates on a view of the sample;
    the others carry no drift and stay x + noise exactly.  On the same block
    a left-rule solve of the raw drift at d_ref is the reference of the
    paired gap, the mean of phi(X_point) - phi(X_ref), and its standard
    error.  The reweighting target at d_ref comes from a sample of its own.
    Returns the rows (value, target, their standard errors, the gap and the
    paired gap, per functional; no averaging across functionals) and the
    target's :class:`~cylfbm.girsanov.EstimatorResult`.  An empty schedule,
    a level above ``spec.d_max`` and the estimator's own bad sizes are
    rejected with a DomainError before any draw.

    A block is streamed in chunks of 3 * :data:`cylinder.PATH_CHUNK` paths
    (read at call time), sampled into one buffer allocated once per call by
    the block's per-component Generators, which continue across its chunks.
    Every solve stops at t, and only the per-path functional values are
    kept for the block; they enter the running sums once per block.  The
    kernel construction draws path-major and the chunk is a multiple of
    ``PATH_CHUNK``, so the rows are those of the whole block at once.  A
    chunk of noise holds as many floats as the estimator's three chunk
    buffers, so the target, not the schedule's noise, sets the memory peak.
    """
    schedule = [(int(dd), float(ee)) for dd, ee in schedule]
    if not schedule:
        raise DomainError("schedule: at least one (level, width) point is required")
    d_ref = max(dd for dd, _ in schedule)
    if d_ref > spec.d_max:
        raise DomainError(f"schedule level {d_ref} exceeds the drift's "
                          f"{spec.d_max} components")
    target_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    evaluators = [mollify(spec, dd, ee).evaluator for dd, ee in schedule]
    target = girsanov_mod.weak_solution_estimator(
        spec, phi_ids, x, t, hursts, weights, d_ref, grid, n_paths, target_seed)
    idx_t = girsanov_mod._node_index(grid, t)
    x = girsanov_mod._start_point(x, d_ref)
    phis = [girsanov_mod.make_functional(phi_id) for phi_id in phi_ids]
    moments = [(girsanov_mod.RunningMoments(), girsanov_mod.RunningMoments())
               for _ in schedule]
    width = min(3 * cylinder_mod.PATH_CHUNK, girsanov_mod.DEFAULT_BLOCK_SIZE, n_paths)
    buffer = np.empty(d_ref * grid.n_nodes * width)
    blocks = girsanov_mod.mc_blocks(n_paths, run_seed, girsanov_mod.DEFAULT_BLOCK_SIZE)
    for m, block_seed in blocks:
        rngs = [np.random.default_rng(child_seed(block_seed, k)) for k in range(d_ref)]
        ref_phi = np.empty((len(phis), m))
        point_phi = np.empty((len(schedule), len(phis), m))
        for a in range(0, m, width):
            s = slice(a, min(a + width, m))
            c = s.stop - s.start
            noise = sample_cyl_fbm(
                hursts, weights, d_ref, grid, c, rngs, method="kernel",
                out=(girsanov_mod._chunk(buffer, (d_ref, grid.n_nodes, c)), None))
            z_ref = picard_solve(lambda tt, yy: drift_mod.evaluate(spec, tt, yy), x, noise,
                                 t_index=idx_t).paths[:, -1, :]
            ref_phi[:, s] = [phi(z_ref) for phi in phis]
            driftless = x[:, None] + noise.values[:, idx_t, :]
            for (dd, _), fn, g in zip(schedule, evaluators, point_phi):
                z = driftless.copy()
                z[:dd] = picard_solve(fn, x, replace(noise, values=noise.values[:dd]),
                                      t_index=idx_t).paths[:, -1, :]
                g[:, s] = [phi(z) for phi in phis]
        for g, (value, paired) in zip(point_phi, moments):
            value.add(g)
            paired.add(g - ref_phi)
    rows = []
    for (dd, ee), (value, paired) in zip(schedule, moments):
        columns = zip(phi_ids, value.mean.tolist(), value.stderr.tolist(),
                      paired.mean.tolist(), paired.stderr.tolist())
        for phi_id, mean, se, paired_mean, paired_se in columns:
            tgt, tgt_se = target.estimates[phi_id]
            rows.append({
                "d": dd, "eps": ee, "t": t, "phi_id": phi_id,
                "value": mean, "stderr": se,
                "target": tgt, "target_stderr": tgt_se,
                "gap": mean - tgt,
                "paired_gap": paired_mean, "paired_stderr": paired_se,
            })
    return rows, target
