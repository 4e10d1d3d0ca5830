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
    """The global iterates hit the cap above tolerance; carries the update of
    every sweep."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class SolutionEnsemble:
    """Pathwise solution with its generating data.

    ``paths`` has shape (d, n_nodes, n_paths) and starts at x exactly.
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


def picard_solve(drift, x, noise: CylEnsemble) -> SolutionEnsemble:
    """Solve Y_i = x + B_i + h sum_{j<i} F(t_j, Y_j) by one forward sweep.

    The left rule is explicit: the drift is evaluated once per cell, at its
    left node, and never at the last node.  The sweep leaves no residual, so
    ``iterations_used`` is 1, ``final_residual`` 0 and ``residuals`` empty.
    """
    fn, x = _prepare(drift, x, noise)
    grid = noise.grid
    paths = x[:, None, None] + noise.values
    integral = np.zeros_like(paths[:, 0, :])
    for i in range(grid.n_cells):
        integral += grid.step * fn(grid.nodes[i], paths[:, i, :])
        paths[:, i + 1, :] += integral
    return SolutionEnsemble(paths=paths, drift=drift, noise=noise, x0=x,
                            iterations_used=1, final_residual=0.0, residuals=())


def picard_iterates(drift, x, noise: CylEnsemble, tol: float = 1e-9,
                    max_iter: int = 40,
                    exact_iterations: int | None = None) -> SolutionEnsemble:
    """Global Picard iteration of the left-rule system, kept as the
    contraction diagnostic.

    Every sweep re-evaluates the drift at the left node of every cell of the
    previous iterate, starting from x + noise, until the sup-over-grid RMS
    update is at most ``tol``; with ``exact_iterations`` it runs exactly that
    many sweeps.  Its fixed point is the path of :func:`picard_solve`.
    ``residuals`` holds the update of every sweep, the sequence
    :func:`picard_residual_curve` fits.
    """
    fn, x = _prepare(drift, x, noise)
    grid = noise.grid
    base = x[:, None, None] + noise.values
    Y = base.copy()
    residuals = []
    n_iter = exact_iterations if exact_iterations is not None else max_iter
    for it in range(1, n_iter + 1):
        F = np.stack([fn(grid.nodes[i], Y[:, i, :]) for i in range(grid.n_cells)], axis=1)
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


def malliavin_fd_check(sol: SolutionEnsemble, s_index: int, m: int,
                       bump: float = 1e-4, window_cells: int = 2) -> FdCheckResult:
    """Finite-difference validation of the stochastic derivative.

    Perturbs driving component m by ``bump`` times the Cameron-Martin
    direction with density 1/window on the bump window, chains the
    perturbation through the kernel discretization, re-solves, and compares
    (X_bumped - X)/bump at the final time against the window-averaged
    derivative.  Both follow the solve's left rule, so they differ only by
    the bump's second-order term.
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
    sol2 = picard_solve(sol.drift, sol.x0, noise2)
    fd = (sol2.paths[:, -1, :] - sol.paths[:, -1, :]) / bump
    avg = malliavin_directional(sol, s_index, m, window_cells)[:, -1, :]
    num = math.sqrt(float(np.mean(np.sum((fd - avg) ** 2, axis=0))))
    den = math.sqrt(float(np.mean(np.sum(avg ** 2, axis=0))))
    rel = num / den if den > 0 else math.inf
    return FdCheckResult(relative_error=rel, bump=bump, window_cells=window_cells)


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
        ref = picard_solve(lambda tt, yy: drift_mod.evaluate(spec, tt, yy), x, noise)
        z_ref = ref.paths[:, idx_t, :].copy()  # a view would keep all of ref.paths
        del ref
        ref_phi = {phi_id: phi(z_ref) for phi_id, phi in phis.items()}
        driftless = x[:, None] + noise.values[:, idx_t, :]
        for (dd, _), fn, point in zip(schedule, evaluators, moments):
            sol = picard_solve(fn, x, replace(noise, d=dd, values=noise.values[:dd]))
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
