"""Strong solver on the truncated space and its stochastic-derivative checks.

The additive noise enters exactly; only the drift time integral is
discretized, by the explicit left rule Y_i = x + B_i + h sum_{j<i} F(t_j, Y_j).
:func:`picard_solve` solves it by one causal forward sweep, one drift
evaluation per cell.  Global Picard iteration of the same system survives
only as the contraction diagnostic :func:`picard_iterates`, whose residual
history :func:`picard_residual_curve` fits.  The derivative of the solution
map with respect to the sampler's standard normals, for every component and
base index, comes from one backward sweep of the same rule; a re-solve with
one of them bumped validates it by finite differences.  The convergence
experiment solves in the blocks of :func:`cylfbm.girsanov.mc_blocks`: every
schedule point, stacked over a points axis in one sweep, and a raw-drift
reference run on one noise sample per block, and every functional's
reweighting target is priced on one sample of its own.
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
from .fbm import DomainError, TimeGrid, cholesky_factor


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
    dimension.  The noise values have shape (d, n_nodes, *batch): the paths,
    or trailing batch axes such as the points axis and paths of a stacked
    drift, over which x broadcasts.  The left rule is explicit: the drift is
    evaluated once per cell, at its left node, and never at the last node.
    The sweep keeps a running drift integral and writes each next state as
    (x + B_{i+1}) + integral, by default into every node of ``paths``.  With
    ``t_index`` it stops at that node after ``t_index`` drift evaluations,
    overwriting one state, so ``paths`` has shape (d, 1, *batch) and holds
    node ``t_index`` alone.  The sweep leaves no residual, so
    ``iterations_used`` is 1, ``final_residual`` 0 and ``residuals`` empty.
    """
    grid = noise.grid
    B = noise.values
    x = girsanov_mod._start_point(x, B.shape[0])
    xb = x.reshape(x.shape + (1,) * (B.ndim - 2))
    full = t_index is None
    n_cells = grid.n_cells if full else t_index
    if not 0 <= n_cells <= grid.n_cells:
        raise DomainError(f"node index {t_index} is outside the grid")
    paths = np.empty(B.shape if full else B.shape[:1] + (1,) + B.shape[2:])
    state = paths[:, 0]
    np.add(xb, B[:, 0], out=state)
    integral = np.zeros_like(state)
    for i in range(n_cells):
        integral += grid.step * drift(grid.nodes[i], state)
        if full:
            state = paths[:, i + 1]
        np.add(xb, B[:, i + 1], out=state)
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
# stochastic derivative in the sampler's Gaussian frame
# ---------------------------------------------------------------------------


def malliavin_derivative(sol: SolutionEnsemble, t_index: int | None = None) -> np.ndarray:
    """Derivative of the solution at node ``t_index`` (by default the last)
    with respect to every standard normal that drives it.

    Component k of the noise is B_k = lambda_k L_k Z_k at the nodes t_1..t_N,
    L_k the :func:`~cylfbm.fbm.cholesky_factor` of its node covariance: the
    sampler's Z_k, or the coordinates (lambda_k L_k)^-1 B_k of any other
    sample.  Entry [c, k, j, p] is dX^c_t / dZ_{k,j} on path p, zero for
    j >= ``t_index``.  One backward sweep of the left rule gives the response
    to the noise at every node: rho_n = I, dX_n/dB_l = h rho_{l+1} J_l and
    rho_l = rho_{l+1} + dX_n/dB_l, with J_l the drift Jacobian at node l;
    then dX/dZ_k = lambda_k L_k^T dX/dB_k.  This is the exact derivative of
    the map :func:`picard_solve` computes.  The Cameron-Martin directions
    e_j of the Z_j are orthonormal, so D_s X_t = sum_j (dX_t/dZ_j) e_j(s) and
    sum_j |dX_t/dZ_j|^2 is the integral of |D_s X_t|^2 over s.  With zero
    drift dX_t/dZ_k = lambda_k L_k[t_index - 1] in coordinate k.
    """
    jac = getattr(sol.drift, "gradient_evaluator", None)
    if jac is None:
        raise DomainError("the derivative needs a drift with a Jacobian evaluator")
    grid = sol.grid
    if sol.paths.shape[1] != grid.n_nodes:
        raise DomainError("the derivative needs the whole path; this solve stopped at one node")
    n = grid.n_cells if t_index is None else t_index
    if not 1 <= n <= grid.n_cells:
        raise DomainError(f"node index {t_index} is outside 1..{grid.n_cells}")
    d, _, m = sol.paths.shape
    out = np.zeros((d, d, grid.n_cells, m))
    rho = np.repeat(np.eye(d)[:, :, None], m, axis=2)
    out[:, :, n - 1] = rho
    for l in range(n - 1, 0, -1):  # node 0 holds no noise
        J = jac(grid.nodes[l], sol.paths[:, l, :])  # (d, d, m)
        dB = out[:, :, l - 1]
        np.einsum("cap,akp->ckp", rho, J, out=dB)
        dB *= grid.step
        rho += dB
    for k in range(d):
        L = cholesky_factor(sol.noise.hursts.value(k + 1), grid)[:n, :n]
        out[:, k, :n] = sol.noise.weights.value(k + 1) * np.matmul(L.T, out[:, k, :n])
    return out


@dataclass(frozen=True)
class FdCheckResult:
    relative_error: float
    bump: float
    window_cells: int


def malliavin_fd_check(sol: SolutionEnsemble, s_index: int, m: int,
                       bump: float = 1e-4, window_cells: int = 2) -> FdCheckResult:
    """Finite-difference validation of the stochastic derivative.

    Bumps the standard normals Z_{m,j} of driving component m on the
    ``window_cells`` base indices j from s_index by ``bump / window_cells``
    each, so the noise moves by ``bump`` times lambda_m times the window mean
    of the columns of L_m.  It re-solves and compares (X_bumped - X)/bump at
    the final node with the window mean of :func:`malliavin_derivative`.
    They differ only by the bump's second-order term.
    """
    grid = sol.grid
    if not (1 <= m <= sol.d):
        raise DomainError("component index out of range")
    if not (0 <= s_index and 1 <= window_cells and s_index + window_cells <= grid.n_cells):
        raise DomainError("bump window must hold at least one cell of the grid")
    if bump == 0:
        raise DomainError("bump size must be nonzero")
    window = slice(s_index, s_index + window_cells)
    avg = np.mean(malliavin_derivative(sol)[:, m - 1, window], axis=1)
    L = cholesky_factor(sol.noise.hursts.value(m), grid)
    pert = np.zeros_like(sol.noise.values)
    pert[m - 1, 1:] = bump * sol.noise.weights.value(m) * np.mean(L[:, window], axis=1)[:, None]
    # increments dropped: they would no longer generate the perturbed values
    noise2 = replace(sol.noise, values=sol.noise.values + pert, increments=None)
    sol2 = picard_solve(sol.drift, sol.x0, noise2, t_index=grid.n_cells)
    fd = (sol2.paths[:, -1, :] - sol.paths[:, -1, :]) / bump
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
    so the points share the sample: one solve of the points' stacked
    :func:`~cylfbm.drift.mollify` drift, on a zero-copy view of the sample
    broadcast over a points axis, calls each component once per step for
    all the points that keep it.  A point's coordinates past its dd carry
    no drift and stay x + noise exactly.  On the same block a left-rule
    solve of the raw drift at d_ref is the reference of the paired gap, the
    mean of phi(X_point) - phi(X_ref), and its standard error.  The
    reweighting target at d_ref comes from a sample of its own.
    Returns the rows (value, target, their standard errors, the gap and the
    paired gap, per functional; no averaging across functionals) and the
    target's :class:`~cylfbm.girsanov.EstimatorResult`.  An empty schedule,
    a point that :func:`~cylfbm.drift.mollify` rejects, a level above
    ``spec.d_max`` and the estimator's own bad sizes and functionals are
    rejected with a DomainError before any draw.

    A block is streamed in chunks of 3 * :data:`cylinder.PATH_CHUNK` paths
    (read at call time), sampled into one buffer allocated once per call by
    the block's per-component Generators, which continue across its chunks.
    Both solves of a chunk, the stack and the reference, stop at t, and
    only the per-path functional values are kept for the block; they enter
    the running sums once per block.  The kernel construction draws
    path-major and the chunk is a multiple of ``PATH_CHUNK``, so the rows
    are those of the whole block at once.  A
    chunk of noise holds as many floats as the estimator's three chunk
    buffers, so the target, not the schedule's noise, sets the memory peak.
    """
    schedule = list(schedule)
    if not schedule:
        raise DomainError("schedule: at least one (level, width) point is required")
    stack = mollify(spec, [dd for dd, _ in schedule], [ee for _, ee in schedule])
    schedule = list(zip(stack.d, stack.epsilon))
    d_ref = max(stack.d)
    if d_ref > spec.d_max:
        raise DomainError(f"schedule level {d_ref} exceeds the drift's "
                          f"{spec.d_max} components")
    target_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    target = girsanov_mod.weak_solution_estimator(
        spec, phi_ids, x, t, hursts, weights, d_ref, grid, n_paths, target_seed)
    idx_t = girsanov_mod._node_index(grid, t)
    x = girsanov_mod._start_point(x, d_ref)
    phis = [girsanov_mod.make_functional(phi_id, d_ref) for phi_id in phi_ids]
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
            points = np.broadcast_to(noise.values[:, :, None],
                                     (d_ref, grid.n_nodes, len(schedule), c))
            z = picard_solve(stack.evaluator, x, replace(noise, values=points),
                             t_index=idx_t).paths[:, -1]
            for p, g in enumerate(point_phi):
                g[:, s] = [phi(z[:, p]) for phi in phis]
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
