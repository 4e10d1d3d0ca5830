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
    adapted shifts, not just in the continuum limit.  The measure change acts
    dimension-wise: the joint log weight of a path is the sum of its rows in
    component order (``.sum(axis=0)``).  The components run in
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
            with np.errstate(invalid="ignore", over="ignore"):
                np.matmul(inverses[k], shifts[k][:, s], out=v)
                finite = np.all(np.isfinite(v))
                stoch = np.einsum("jp,pj->p", v[:-1], increments[k].values[s])
                quad = np.sum(np.square(v[:-1], out=v[:-1]), axis=0) * h
            # a finite integrand's squared sum can still overflow
            if not (finite and np.all(np.isfinite(quad))):
                raise DomainError(f"non-finite Wiener integrand in component {k + 1}")
            out[k, s] = -stoch - 0.5 * quad

    run_component_lanes(d, weigh, n_nodes * chunks[0].stop)
    return out


# ---------------------------------------------------------------------------
# test functionals
# ---------------------------------------------------------------------------


def make_functional(phi_id: str, d: int | None = None):
    """Named functionals for estimator targets.

    "coordinate:<i>" picks the 1-based i-th coordinate (i >= 1, and i <= d
    when the state dimension d is given);
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
        if d is not None and num > d:
            raise DomainError(f"functional {phi_id!r} reads past the {d}-dimensional state")

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
    """Running sums over blocks, one row per leading index, paths on the last axis.

    The standard error comes from sums about a shift, each row's first-block
    mean: sum_sq / n - mean^2 cancels catastrophically when the mean is far
    from 0 relative to the spread."""

    def __init__(self):
        self.n = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self._shift = None
        self._dev_sq = 0.0  # sum of (value - shift)^2

    def add(self, values: np.ndarray) -> None:
        if self._shift is None:
            self._shift = np.mean(values, axis=-1)
        self.n += values.shape[-1]
        self.sum = self.sum + np.sum(values, axis=-1)
        self.sum_sq = self.sum_sq + np.sum(values * values, axis=-1)
        dev = values - self._shift[..., None]
        self._dev_sq = self._dev_sq + np.sum(dev * dev, axis=-1)

    @property
    def mean(self) -> np.ndarray:
        return self.sum / self.n

    @property
    def stderr(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            var = self._dev_sq / self.n - (self.mean - self._shift) ** 2
        if not np.all(np.isfinite(var)):
            raise OverflowError(f"a sample variance over {self.n} values is not finite: {var}")
        return np.sqrt(np.maximum(var, 0.0) / self.n)


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
    with np.errstate(over="ignore"):  # an overflow is rejected by the log-weights
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
    # range first: t / step overflows to inf for t near the largest float
    idx = int(round(t / grid.step)) if 0.0 <= t <= grid.t_end else -1
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
                            drift_eval=None) -> EstimatorResult:
    """Estimate the mean at time t of each functional in ``phi_ids`` for the
    drifted process by reweighting one sample of driftless paths.

    Paths of x + ensemble are drawn under the base measure; each path gets
    the stochastic-exponential weight of :func:`drift_shift`, the exponential
    of its :func:`component_log_weights` summed over components.  Returns the
    weighted average and standard error per functional, the mean weight and
    the effective-sample-size fraction (flagged when below 10%).  A sample
    whose every weight underflows to 0 estimates nothing and is rejected
    with a DomainError, and so are, before any draw, an empty ``phi_ids``, a
    functional that reads past the d coordinates, n_paths < 1 and a drift
    with fewer than d rows.

    Each block of :func:`mc_blocks` (``DEFAULT_BLOCK_SIZE`` paths, read at
    call time) is streamed one path chunk
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
    phis = [make_functional(phi_id, d) for phi_id in phi_ids]
    if not phis:
        raise DomainError("phi_ids: at least one functional is required")
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    x = _start_point(x, d)
    lam = weights.head_array(d)
    eval_fn = drift_eval if drift_eval is not None else functools.partial(
        drift_mod.evaluate, spec)
    try:
        probe = eval_fn(grid.nodes[:1], np.zeros((d, 1, 1)), out=None)
    except TypeError as exc:
        raise DomainError("drift_eval must take (node times, states of shape "
                          "(d, n_nodes, m), out=None) and return the drift rows") from exc
    if probe.shape[0] < d:
        raise DomainError(f"the drift has {probe.shape[0]} rows, fewer than d = {d}")
    # reject components whose shift b_k / lambda_k is undefined
    for k in range(d):
        if lam[k] == 0.0 and (spec.c_bounds[k] > 0 or abs(float(probe[k, 0, 0])) > 0):
            raise DomainError(f"component {k + 1} has zero weight but non-zero drift")
    idx_t = _node_index(grid, t)
    n_nodes, n_cells = grid.n_nodes, grid.n_cells
    width = path_chunks(min(DEFAULT_BLOCK_SIZE, n_paths))[0].stop
    # chunk buffers: the states, their Wiener increments and the drift rows
    states = np.empty(d * n_nodes * width)
    increments = np.empty(d * width * n_cells)
    shifts = np.empty(probe.shape[0] * n_nodes * width)
    inverses = _inverse_matrices(hursts, d, grid)
    moments = RunningMoments()
    weight_moments = RunningMoments()
    for m, block_seed in mc_blocks(n_paths, seed, DEFAULT_BLOCK_SIZE):
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
            log_w[s] = component_log_weights(shift, grid, ens.increments, hursts,
                                             inverses).sum(axis=0)
        w = np.exp(log_w, out=log_w)
        weight_moments.add(w)
        moments.add(np.stack([phi(X_t) for phi in phis]) * w)
    sum_w, sum_w2 = float(weight_moments.sum), float(weight_moments.sum_sq)
    if sum_w == 0.0:
        raise DomainError("every reweighting weight underflowed to 0")
    ess = (sum_w ** 2 / sum_w2) / n_paths if sum_w2 > 0 else 0.0
    estimates = zip(moments.mean.tolist(), moments.stderr.tolist())
    return EstimatorResult(estimates=dict(zip(phi_ids, estimates)),
                           mean_weight=float(weight_moments.mean), ess_fraction=ess)
