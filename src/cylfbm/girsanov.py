"""Measure-change machinery: stochastic exponentials of shifts inverted to the
Wiener frame and the reweighting estimator that prices functionals of the
drifted process from driftless samples.

The estimator and the strong-solve side of the convergence experiment share
one blocked Monte Carlo loop (:func:`mc_blocks` with :class:`RunningMoments`);
every functional of one estimator call is priced on the same weighted sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from .cylinder import (
    HurstSequence,
    WeightSequence,
    child_seed,
    path_chunks,
    run_component_lanes,
    sample_cyl_fbm,
)
from .fbm import DomainError, TimeGrid, kernel_fractional_norm
from .fraccalc import kh_inverse_matrix

DEFAULT_BLOCK_SIZE = 25_000
LOW_ESS_FRACTION = 0.10


def _inverse_matrices(hursts: HurstSequence, d: int, grid: TimeGrid) -> list:
    """The inverse-transform matrix of each of the first d components."""
    return [kh_inverse_matrix(hursts.value(k + 1), grid) for k in range(d)]


def component_log_weights(shifts: np.ndarray, grid: TimeGrid, increments,
                          hursts: HurstSequence, inverses=None) -> np.ndarray:
    """Log stochastic exponential per component of the shifts u_k(s) on the
    grid nodes, shape (d, n_nodes, n_paths); returns shape (d, n_paths).

    The Wiener-frame integrand is evaluated at the left node of each cell
    (the adapted choice), which makes the weights exactly mean one for
    adapted shifts, not just in the continuum limit.  The components run in
    :func:`cylfbm.cylinder.run_component_lanes`, one path chunk at a time,
    with the integrand in the lane's chunk-sized scratch.  ``inverses`` are
    the d :func:`cylfbm.fraccalc.kh_inverse_matrix` matrices of the grid,
    built here by default.
    """
    h = grid.step
    d = shifts.shape[0]
    if len(increments) < d:
        raise DomainError("one increment set per shift component is required")
    n_paths = increments[0].values.shape[0]
    n_nodes = grid.n_nodes
    if inverses is None:
        inverses = _inverse_matrices(hursts, d, grid)
    out = np.empty((d, n_paths))
    chunks = path_chunks(n_paths)

    def weigh(k, scratch):
        for s in chunks:
            v = scratch[: n_nodes * (s.stop - s.start)].reshape(n_nodes, -1)
            with np.errstate(invalid="ignore"):
                np.matmul(inverses[k], shifts[k][:, s], out=v)
            if not np.all(np.isfinite(v)):
                raise DomainError(f"non-finite Wiener integrand in component {k + 1}")
            stoch = np.einsum("jp,pj->p", v[:-1], increments[k].values[s])
            quad = np.sum(np.square(v[:-1], out=v[:-1]), axis=0) * h
            out[k, s] = -stoch - 0.5 * quad

    run_component_lanes(d, weigh, n_nodes * chunks[0].stop)
    return out


def stochastic_exponential(shifts: np.ndarray, grid: TimeGrid, increments,
                           hursts: HurstSequence, inverses=None) -> np.ndarray:
    """Joint log change-of-measure weight per path for a multi-component shift.

    The measure change acts dimension-wise: the joint log weight is the sum
    of the per-component log weights (:func:`component_log_weights`, with
    its ``inverses``) in component order.
    """
    logs = component_log_weights(shifts, grid, increments, hursts, inverses)
    total = np.zeros(logs.shape[1])
    for k in range(logs.shape[0]):
        total += logs[k]
    return total


# ---------------------------------------------------------------------------
# test functionals
# ---------------------------------------------------------------------------


def make_functional(phi_id: str):
    """Named functionals for estimator targets.

    "coordinate:<i>" picks the 1-based i-th coordinate (i >= 1);
    "clipped_norm:<cap>" is the Euclidean norm clipped at a finite cap > 0
    (bounded).
    """
    kind, _, arg = phi_id.partition(":")
    if kind not in ("coordinate", "clipped_norm"):
        raise DomainError(f"unknown functional id {phi_id!r}")
    try:
        num = int(arg or 1) if kind == "coordinate" else float(arg or 2.0)
    except ValueError:
        raise DomainError(f"functional {phi_id!r}: non-numeric argument {arg!r}") from None
    if kind == "coordinate":
        if num < 1:
            raise DomainError(f"functional {phi_id!r}: coordinates are numbered from 1")

        def phi(z: np.ndarray) -> np.ndarray:
            return z[num - 1]

        return phi
    if not (math.isfinite(num) and num > 0.0):
        raise DomainError(f"functional {phi_id!r}: the cap must be finite and positive")

    def phi(z: np.ndarray) -> np.ndarray:
        return np.minimum(np.sqrt(np.sum(z ** 2, axis=0)), num)

    return phi


# ---------------------------------------------------------------------------
# the blocked Monte Carlo loop and the reweighting estimator
# ---------------------------------------------------------------------------


def mc_blocks(n_paths: int, seed, block_size: int):
    """Yield (path count, seed) for each block of an n_paths sample; block
    b's seed is :func:`cylfbm.cylinder.child_seed` b of ``seed``."""
    for b, done in enumerate(range(0, n_paths, block_size)):
        yield min(block_size, n_paths - done), child_seed(seed, b)


class RunningMoments:
    """Running sum and sum of squares of a per-path quantity over blocks."""

    def __init__(self):
        self.n = 0
        self.sum = 0.0
        self.sum_sq = 0.0

    def add(self, values: np.ndarray) -> None:
        self.n += values.size
        self.sum += float(np.sum(values))
        self.sum_sq += float(np.sum(values * values))

    @property
    def mean(self) -> float:
        return self.sum / self.n

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.sum_sq / self.n - self.mean ** 2, 0.0) / self.n)


def drift_shift(drift_eval, X: np.ndarray, hursts: HurstSequence,
                weights: WeightSequence, grid: TimeGrid,
                out: np.ndarray | None = None) -> np.ndarray:
    """Pathwise shift -b_k(s, X_s)/(lambda_k * kernel_fractional_norm(H_k)) of
    states X with shape (d, n_nodes, n_paths), in an array of that shape.

    ``drift_eval(t, y, out=None)`` is called once, on all nodes at once (the
    node-time form of :func:`cylfbm.drift.evaluate`), and writes its rows
    into ``out`` (a fresh array by default); X is left intact.  The kernel
    normalization makes the discrete measure change reproduce the drift b
    exactly, cell by cell.
    """
    d = X.shape[0]
    U = drift_eval(grid.nodes, X, out=out)[:d]
    scale = weights.head_array(d) * np.array(
        [kernel_fractional_norm(hursts.value(k + 1)) for k in range(d)])
    U /= -scale[:, None, None]
    return U


@dataclass(frozen=True)
class EstimatorResult:
    """(estimate, standard error) per functional id, all priced on one
    weighted sample, with that sample's mean weight and ESS fraction."""

    estimates: dict
    mean_weight: float
    ess_fraction: float

    @property
    def low_ess(self) -> bool:
        return self.ess_fraction < LOW_ESS_FRACTION


def _node_index(grid: TimeGrid, t: float) -> int:
    idx = int(round(t / grid.step)) if math.isfinite(t) else -1
    if not (0 <= idx <= grid.n_cells) or abs(idx * grid.step - t) > 1e-9 * max(1.0, t):
        raise DomainError(f"evaluation time {t} is not a grid node")
    return idx


def _start_point(x, d: int) -> np.ndarray:
    """The initial point as d coordinates: padded with zeros, or cut."""
    x = np.asarray(x, dtype=float).reshape(-1)[:d]
    return np.concatenate([x, np.zeros(d - len(x))])


def _chunk(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """A contiguous array of ``shape`` at the front of a flat buffer."""
    return buffer[: math.prod(shape)].reshape(shape)


def weak_solution_estimator(spec: drift_mod.DriftSpec, phi_ids, x, t: float,
                            hursts: HurstSequence, weights: WeightSequence,
                            d: int, grid: TimeGrid, n_paths: int, seed,
                            block_size: int = DEFAULT_BLOCK_SIZE,
                            drift_eval=None) -> EstimatorResult:
    """Estimate the mean at time t of each functional in ``phi_ids`` for the
    drifted process by reweighting one sample of driftless paths.

    Paths of x + ensemble are drawn under the base measure; each path gets
    the stochastic-exponential weight of :func:`drift_shift`.  Returns the
    weighted average and standard error per functional, the mean weight and
    the effective-sample-size fraction (flagged when below 10%).

    Each block of :func:`mc_blocks` is streamed one path chunk
    (:func:`cylfbm.cylinder.path_chunks`) at a time: sample, states at t,
    drift shift and log-weights, in chunk buffers allocated once per call.
    Only the states at t and the log-weights are kept per path, so the
    memory held is set by the chunk, not by the block.  The per-component
    Generators continue across a block's chunks, so the sums equal those of
    the whole block at once.  The inverse-transform matrices are built once
    per call.

    ``drift_eval`` (default: :func:`cylfbm.drift.evaluate` of ``spec``)
    must follow the node-time contract of :func:`drift_shift`:
    ``drift_eval(t, y, out=None)`` with a vector t of node times and states
    y of shape (d, n_nodes, m), writing at least d rows of shape
    (n_nodes, m) into ``out`` (fresh when None) and returning it, as
    :func:`cylfbm.drift.evaluate` and a :class:`cylfbm.drift.MollifiedDrift`
    do.  A callable that does not take that form is rejected with a
    DomainError.
    """
    phis = {phi_id: make_functional(phi_id) for phi_id in phi_ids}
    x = _start_point(x, d)
    lam = weights.head_array(d)
    eval_fn = drift_eval if drift_eval is not None else functools.partial(
        drift_mod.evaluate, spec)
    try:
        probe = eval_fn(grid.nodes[:1], np.zeros((d, 1, 1)), out=None)
    except TypeError as exc:
        raise DomainError("drift_eval must take (node times, states of shape "
                          "(d, n_nodes, m), out=None) and return the drift rows") from exc
    # reject components whose shift b_k / lambda_k is undefined
    for k in range(d):
        if lam[k] == 0.0 and (spec.c_bounds[k] > 0 or abs(float(probe[k, 0, 0])) > 0):
            raise DomainError(f"component {k + 1} has zero weight but non-zero drift")
    idx_t = _node_index(grid, t)
    n_nodes, n_cells = grid.n_nodes, grid.n_cells
    width = path_chunks(min(block_size, n_paths))[0].stop
    # chunk buffers: the states, their Wiener increments and the drift rows
    states = np.empty(d * n_nodes * width)
    increments = np.empty(d * width * n_cells)
    shifts = np.empty(probe.shape[0] * n_nodes * width)
    inverses = _inverse_matrices(hursts, d, grid)
    moments = {phi_id: RunningMoments() for phi_id in phis}
    weight_moments = RunningMoments()
    for m, block_seed in mc_blocks(n_paths, seed, block_size):
        rngs = [np.random.default_rng(child_seed(block_seed, k)) for k in range(d)]
        X_t = np.empty((d, m))
        log_w = np.empty(m)
        for s in path_chunks(m):
            c = s.stop - s.start
            ens = sample_cyl_fbm(hursts, weights, d, grid, c, rngs, method="kernel",
                                 keep_increments=True,
                                 out=(_chunk(states, (d, n_nodes, c)),
                                      _chunk(increments, (d, c, n_cells))))
            X = ens.values
            X += x[:, None, None]
            X_t[:, s] = X[:, idx_t, :]
            shift = drift_shift(eval_fn, X, hursts, weights, grid,
                                out=_chunk(shifts, (probe.shape[0], n_nodes, c)))
            log_w[s] = stochastic_exponential(shift, grid, ens.increments, hursts, inverses)
        w = np.exp(log_w, out=log_w)
        weight_moments.add(w)
        for phi_id, phi in phis.items():
            moments[phi_id].add(phi(X_t) * w)
    sum_w, sum_w2 = weight_moments.sum, weight_moments.sum_sq
    ess = (sum_w ** 2 / sum_w2) / n_paths if sum_w2 > 0 else 0.0
    return EstimatorResult(
        estimates={phi_id: (mom.mean, mom.stderr) for phi_id, mom in moments.items()},
        mean_weight=weight_moments.mean, ess_fraction=ess)
