"""Measure-change machinery: stochastic exponentials of shifts inverted to the
Wiener frame and the reweighting estimator that prices functionals of the
drifted process from driftless samples.

The estimator and the strong-solve side of the convergence experiment share
one blocked Monte Carlo loop (:func:`mc_blocks` with :class:`RunningMoments`);
every functional of one estimator call is priced on the same weighted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from .cylinder import (
    HurstSequence,
    WeightSequence,
    path_chunks,
    run_component_lanes,
    sample_cyl_fbm,
)
from .fbm import DomainError, TimeGrid, kernel_fractional_norm
from .fraccalc import kh_inverse_matrix

DEFAULT_BLOCK_SIZE = 25_000
LOW_ESS_FRACTION = 0.10


@dataclass(frozen=True)
class ShiftProcess:
    """Per-component pathwise shift values u_k(s) on grid nodes, with shape
    (d, n_nodes, n_paths)."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def d(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GirsanovWeight:
    """Per-path change-of-measure weights, kept in log form."""

    log_values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)


def component_log_weights(shifts: ShiftProcess, increments, hursts: HurstSequence) -> np.ndarray:
    """Log stochastic exponential per component, shape (d, n_paths).

    The Wiener-frame integrand is evaluated at the left node of each cell
    (the adapted choice), which makes the weights exactly mean one for
    adapted shifts, not just in the continuum limit.  The components run in
    :func:`cylfbm.cylinder.run_component_lanes`, one path chunk at a time,
    with the integrand in the lane's chunk-sized scratch.
    """
    grid = shifts.grid
    h = grid.step
    d = shifts.d
    if len(increments) < d:
        raise DomainError("one increment set per shift component is required")
    n_paths = increments[0].values.shape[0]
    n_nodes = grid.n_nodes
    inverses = [kh_inverse_matrix(hursts.value(k + 1), grid) for k in range(d)]
    out = np.empty((d, n_paths))
    chunks = path_chunks(n_paths)

    def weigh(k, scratch):
        for s in chunks:
            v = scratch[: n_nodes * (s.stop - s.start)].reshape(n_nodes, -1)
            with np.errstate(invalid="ignore"):
                np.matmul(inverses[k], shifts.values[k][:, s], out=v)
            if not np.all(np.isfinite(v)):
                raise DomainError(f"non-finite Wiener integrand in component {k + 1}")
            stoch = np.einsum("jp,pj->p", v[:-1], increments[k].values[s])
            quad = np.sum(np.square(v[:-1], out=v[:-1]), axis=0) * h
            out[k, s] = -stoch - 0.5 * quad

    run_component_lanes(d, weigh, n_nodes * chunks[0].stop)
    return out


def stochastic_exponential(shifts: ShiftProcess, increments, hursts: HurstSequence) -> GirsanovWeight:
    """Joint change-of-measure weight for a multi-component shift.

    The measure change acts dimension-wise: the joint log weight is the sum
    of the per-component log weights in component order.
    """
    logs = component_log_weights(shifts, increments, hursts)
    total = np.zeros(logs.shape[1])
    for k in range(logs.shape[0]):
        total += logs[k]
    return GirsanovWeight(log_values=total)


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
    """Yield (path count, seed) for each block of an n_paths sample.

    Block b's seed is the b-th child of ``seed`` (an int or a SeedSequence),
    equal to what a first ``spawn()`` would give; the caller's SeedSequence
    is never mutated, so one seed always names one sample.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for b, done in enumerate(range(0, n_paths, block_size)):
        yield min(block_size, n_paths - done), np.random.SeedSequence(
            ss.entropy, spawn_key=ss.spawn_key + (b,), pool_size=ss.pool_size)


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
                weights: WeightSequence, grid: TimeGrid) -> ShiftProcess:
    """Pathwise shift -b_k(s, X_s)/(lambda_k * kernel_fractional_norm(H_k)) of
    states X with shape (d, n_nodes, n_paths).

    The drift is evaluated once per node for all d rows.  The kernel
    normalization makes the discrete measure change reproduce the drift b
    exactly, cell by cell.

    The shift is written over X, node by node (node i of the shift reads
    only node i of X), and the returned values are X itself: copy whatever
    of the states is still needed before the call.
    """
    d = X.shape[0]
    for i, s in enumerate(grid.nodes):
        X[:, i, :] = drift_eval(s, X[:, i, :])[:d]
    scale = weights.head_array(d) * np.array(
        [kernel_fractional_norm(hursts.value(k + 1)) for k in range(d)])
    X /= -scale[:, None, None]
    return ShiftProcess(grid, X)


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
    """
    phis = {phi_id: make_functional(phi_id) for phi_id in phi_ids}
    x = _start_point(x, d)
    lam = weights.head_array(d)
    eval_fn = drift_eval if drift_eval is not None else (
        lambda tt, yy: drift_mod.evaluate(spec, tt, yy))
    # reject components whose shift b_k / lambda_k is undefined
    probe = eval_fn(0.0, np.zeros((d, 1)))
    for k in range(d):
        if lam[k] == 0.0 and (spec.c_bounds[k] > 0 or abs(float(probe[k])) > 0):
            raise DomainError(f"component {k + 1} has zero weight but non-zero drift")
    idx_t = _node_index(grid, t)
    moments = {phi_id: RunningMoments() for phi_id in phis}
    weight_moments = RunningMoments()
    for m, block_seed in mc_blocks(n_paths, seed, block_size):
        ens = sample_cyl_fbm(hursts, weights, d, grid, m, block_seed,
                             method="kernel", keep_increments=True)
        X = ens.values
        X += x[:, None, None]  # in place: a second (d, nodes, paths) array raises peak memory
        X_t = X[:, idx_t, :].copy()  # drift_shift overwrites X
        shift = drift_shift(eval_fn, X, hursts, weights, grid)
        w = stochastic_exponential(shift, ens.increments, hursts).values
        weight_moments.add(w)
        for phi_id, phi in phis.items():
            moments[phi_id].add(phi(X_t) * w)
    sum_w, sum_w2 = weight_moments.sum, weight_moments.sum_sq
    ess = (sum_w ** 2 / sum_w2) / n_paths if sum_w2 > 0 else 0.0
    return EstimatorResult(
        estimates={phi_id: (mom.mean, mom.stderr) for phi_id, mom in moments.items()},
        mean_weight=weight_moments.mean, ess_fraction=ess)
