"""Weighted cylindrical fractional Brownian motion on a truncated basis.

Hurst and weight sequences are geometric, first * ratio^(k-1), so the
summability constraints are certified in closed form instead of by numeric
truncation.  Ensembles carry one independent scalar component per basis
direction, each scaled by its weight.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import fbm
from .fbm import DomainError, TimeGrid, WienerIncrements

SUP_HURST_LIMIT = 1.0 / 12.0
SUM_HURST_LIMIT = 1.0 / 6.0


class SequenceConstraintError(ValueError):
    """A parameter sequence violates one of its summability constraints."""


@dataclass(frozen=True)
class _GeometricSequence:
    """value(k) = first * ratio^(k - 1) for the 1-based component index k."""

    first: float
    ratio: float

    def value(self, k: int) -> float:
        if k < 1:
            raise DomainError("component indices are 1-based")
        return self.first * self.ratio ** (k - 1)

    def head_array(self, d: int) -> np.ndarray:
        return np.array([self.value(k) for k in range(1, d + 1)])


@dataclass(frozen=True)
class HurstSequence(_GeometricSequence):
    """Hurst indices H_k = first * ratio^(k-1).

    Constraints certified at construction: ratio in (0, 1), so the indices
    decrease strictly to 0; the supremum H_1 = first in (0, 1/12); and the
    sum first / (1 - ratio) below 1/6.
    """

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise SequenceConstraintError(
                f"Hurst ratio must lie in (0,1) for decrease to 0, got {self.ratio}")
        if not 0.0 < self.first < 0.5:
            raise SequenceConstraintError(f"Hurst index {self.first} outside (0, 1/2)")
        if not self.first < SUP_HURST_LIMIT:
            raise SequenceConstraintError(
                f"sup_k H_k = {self.first} >= 1/12 = {SUP_HURST_LIMIT:.6f}")
        if not self.total_sum < SUM_HURST_LIMIT:
            raise SequenceConstraintError(
                f"sum_k H_k = {self.total_sum} >= 1/6 = {SUM_HURST_LIMIT:.6f}")

    @property
    def total_sum(self) -> float:
        return self.first / (1.0 - self.ratio)


@dataclass(frozen=True)
class WeightSequence(_GeometricSequence):
    """Component weights lambda_k = first * ratio^(k-1) >= 0.

    Square-summability is certified at construction; the mixed constraint
    sum_k lambda_k / sqrt(H_k) < infinity involves the Hurst sequence and is
    certified by :func:`validate_sequence_pair`.
    """

    def __post_init__(self):
        if not 0.0 <= self.ratio < 1.0:
            raise SequenceConstraintError(f"weight ratio must lie in [0,1), got {self.ratio}")
        if not self.first >= 0.0:
            raise SequenceConstraintError(f"weights must be non-negative, got {self.first}")
        # in Python floats a square past the largest float is inf
        if not math.isfinite(self.first * self.first / (1.0 - self.ratio * self.ratio)):
            raise SequenceConstraintError(
                f"sum lambda_k^2 overflows at weight_first = {self.first}")


def validate_sequence_pair(hs: HurstSequence, ws: WeightSequence) -> float:
    """Certify sum_k lambda_k / sqrt(H_k) < infinity; return the sum, the
    geometric series (w_1/sqrt(h_1)) / (1 - w_r/sqrt(h_r)), whose ratio
    w_r/sqrt(h_r) must be below 1."""
    ratio = ws.ratio / math.sqrt(hs.ratio)
    if not ratio < 1.0:
        raise SequenceConstraintError(
            "sum_k lambda_k/sqrt(H_k) diverges: ratio "
            f"{ws.ratio}/sqrt({hs.ratio}) = {ratio} >= 1")
    return ws.first / math.sqrt(hs.first) / (1.0 - ratio)


def make_sequences(params: dict) -> tuple:
    """Build a validated (HurstSequence, WeightSequence) pair.

    ``params`` holds the keys hurst_first, hurst_ratio, weight_first,
    weight_ratio and d_max; H_{d_max} must not underflow to 0.  Constraint
    violations raise with the violated inequality named.
    """
    hs = HurstSequence(params["hurst_first"], params["hurst_ratio"])
    ws = WeightSequence(params["weight_first"], params["weight_ratio"])
    validate_sequence_pair(hs, ws)
    d_max = int(params["d_max"])
    if hs.value(d_max) == 0.0:
        raise SequenceConstraintError(
            f"Hurst index 0.0 outside (0, 1/2) at d_max = {d_max}")
    return hs, ws


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylEnsemble:
    """Sampled weighted ensemble: values (d, n_nodes, n_paths), d and n_paths read off it.

    ``increments`` retains the per-component Wiener increments when the
    kernel construction produced the ensemble with ``keep_increments`` (the
    measure change's stochastic integrals read them); Cholesky sampling
    leaves it None.
    """

    grid: TimeGrid
    values: np.ndarray
    hursts: HurstSequence
    weights: WeightSequence
    increments: tuple | None = None

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n_paths(self) -> int:
        return self.values.shape[2]


def child_seed(seed, i: int) -> np.random.SeedSequence:
    """Child i of ``seed`` (an int or a SeedSequence), equal to what a first
    ``spawn()`` would give; the caller's SeedSequence is never mutated, so
    one seed always names one sample."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                  pool_size=ss.pool_size)


# ---------------------------------------------------------------------------
# component lanes
# ---------------------------------------------------------------------------

# paths per chunk of the per-component work; a multiple of the BLAS kernels'
# column blocking, so a chunked product equals the unchunked one unless the
# last chunk is narrow.  Measured at d = 4, N = 128 (BENCH_31.json): 512-path
# chunks are slower per operation, and 2048 doubles the chunk memory and is no
# faster
PATH_CHUNK = 1024


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def path_chunks(n_paths: int) -> list:
    """Slices of PATH_CHUNK consecutive paths covering 0..n_paths; the last
    one takes the remainder."""
    return [slice(a, min(a + PATH_CHUNK, n_paths)) for a in range(0, n_paths, PATH_CHUNK)]


def run_component_lanes(d: int, work, scratch_size: int, max_lanes: int | None = None) -> None:
    """Call ``work(k, scratch)`` for every component k < d, in
    min(d, :func:`usable_cpus`, ``max_lanes``) lanes.

    Lane i takes the components k = i, i + lanes, ... in order and runs on
    its own thread, lane 0 on the calling one; one lane is the plain loop.
    Each lane owns one float scratch array of ``scratch_size`` entries,
    allocated here on the calling thread, and ``work`` writes only its
    component's part of the outputs, so the results do not depend on the lane
    count.  ``work`` must release the interpreter lock to overlap (numpy
    kernels do) and must not call traced functions.  A lane stops at its
    first failing component; once every lane has finished, the error of the
    lowest-numbered failing component is raised.
    """
    n_lanes = max(1, min(d, usable_cpus(), max_lanes or d))
    scratch = [np.empty(scratch_size) for _ in range(n_lanes)]
    errors = {}

    def lane(i):
        for k in range(i, d, n_lanes):
            try:
                work(k, scratch[i])
            except Exception as exc:  # re-raised on the calling thread below
                errors[k] = exc
                return

    threads = [threading.Thread(target=lane, args=(i,)) for i in range(1, n_lanes)]
    for t in threads:
        t.start()
    try:
        lane(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]


def sample_cyl_fbm(hs: HurstSequence, ws: WeightSequence, d: int, grid: TimeGrid,
                   n_paths: int, seed, method: str = "cholesky",
                   keep_increments: bool = False, out: tuple | None = None) -> CylEnsemble:
    """Sample d independent weighted components on the grid.

    Component k is lambda_k times a scalar sample with index H_k, drawn from
    an independent substream per component, so the first d' components
    coincide path-by-path with a d'-truncated run.
    The default exact-law factorization (the Cholesky factor of the node
    covariance times standard normals drawn node-major) has no driving
    increments; request the kernel construction (the kernel matrix times
    N(0, step) cell increments drawn path-major) with ``keep_increments``
    when the measure-change machinery needs them.

    ``seed`` is an int or a SeedSequence, whose :func:`child_seed` k seeds
    component k, or the d per-component Generators themselves.  A Generator
    continues its stream across calls, and the kernel construction draws
    path-major, so consecutive kernel calls on the same Generators draw the
    increments of one call on all their paths.  ``out`` is a (values,
    increments) pair of arrays of shape (d, n_nodes, n_paths) and (d, n_paths,
    n_cells), the second None without kept increments, that the sample is
    written into in place of fresh arrays.

    Both methods run one loop in :func:`run_component_lanes`: each lane
    writes its components' products straight into their slices of
    ``values``, one path chunk at a time, so a call holds the ensemble,
    chunk-sized scratch per lane and, with ``keep_increments``, the d
    increment arrays.
    """
    if d < 1:
        raise DomainError("truncation level must be >= 1")
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    if isinstance(seed, (list, tuple)) and len(seed) < d:
        raise DomainError(f"{d} components need {d} Generators, got {len(seed)}")
    if method == "kernel":
        factors = [fbm.kernel_matrix(hs.value(k + 1), grid) for k in range(d)]
    elif method == "cholesky":
        factors = [fbm.cholesky_factor(hs.value(k + 1), grid) for k in range(d)]
    else:
        raise DomainError(f"unknown sampling method {method!r}")
    if isinstance(seed, (list, tuple)):
        rngs = seed[:d]
    else:
        rngs = [np.random.default_rng(child_seed(seed, k)) for k in range(d)]
    lam = ws.head_array(d)
    n, step_sd = grid.n_cells, math.sqrt(grid.step)
    kept = keep_increments and method == "kernel"
    if out is None:
        values = np.empty((d, grid.n_nodes, n_paths))
        incs = np.empty((d, n_paths, n)) if kept else None
    else:
        values, incs = out[0], (out[1] if kept else None)
    chunks = path_chunks(n_paths)

    def fill(k, scratch):
        rng = rngs[k]
        vals = values[k]
        vals[0] = 0.0
        if method == "cholesky":  # node-major normals, drawn in place
            rng.standard_normal(out=vals[1:])
        for s in chunks:
            width = s.stop - s.start
            if method == "kernel":
                dW = incs[k][s] if incs is not None else scratch[: width * n].reshape(width, n)
                rng.standard_normal(out=dW)
                dW *= step_sd
                z = dW.T
            else:  # a copy: the product cannot overwrite its own input
                z = scratch[: n * width].reshape(n, width)
                z[...] = vals[1:, s]
            np.matmul(factors[k], z, out=vals[1:, s])
            vals[1:, s] *= lam[k]

    run_component_lanes(d, fill, 0 if incs is not None else chunks[0].stop * n)
    return CylEnsemble(grid=grid, values=values, hursts=hs, weights=ws,
                       increments=None if incs is None else tuple(
                           WienerIncrements(grid=grid, values=v) for v in incs))


def composite_scaling(ws: WeightSequence, lnd: list, d: int) -> np.ndarray:
    """Per-component factors lambda_k * sqrt(K_k) used by the drift-class checks."""
    return ws.head_array(d) * np.sqrt(np.asarray(lnd[:d], dtype=float))
