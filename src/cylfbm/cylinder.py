"""Weighted cylindrical fractional Brownian motion on a truncated basis.

Hurst and weight sequences are explicit heads plus a geometric tail rule, so
the summability constraints are certified analytically instead of by numeric
truncation.  Ensembles carry one independent scalar component per basis
direction, each scaled by its weight.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import fbm
from .fbm import DomainError, TimeGrid, WienerIncrements

SUP_HURST_LIMIT = 1.0 / 12.0
SUM_HURST_LIMIT = 1.0 / 6.0


class SequenceConstraintError(ValueError):
    """A parameter sequence violates one of its summability constraints."""


def _geometric_tail_sum(last_head: float, ratio: float) -> float:
    """Sum of last_head * ratio^j for j >= 1 (the tail beyond the heads)."""
    return last_head * ratio / (1.0 - ratio)


@dataclass(frozen=True)
class _GeometricTailSequence:
    """Explicit heads for components 1..d_max, then a geometric tail
    value(k) = heads[-1] * tail_ratio^(k - d_max)."""

    heads: tuple
    tail_ratio: float

    @classmethod
    def geometric(cls, first: float, ratio: float, d_max: int):
        heads = tuple(first * ratio ** k for k in range(d_max))
        return cls(heads=heads, tail_ratio=ratio)

    @property
    def d_max(self) -> int:
        return len(self.heads)

    def value(self, k: int) -> float:
        """Entry k for a 1-based component index, following the tail rule beyond the heads."""
        if k < 1:
            raise DomainError("component indices are 1-based")
        if k <= len(self.heads):
            return self.heads[k - 1]
        return self.heads[-1] * self.tail_ratio ** (k - len(self.heads))

    def head_array(self, d: int) -> np.ndarray:
        return np.array([self.value(k) for k in range(1, d + 1)])


@dataclass(frozen=True)
class HurstSequence(_GeometricTailSequence):
    """Hurst indices H_k: explicit heads, then a geometric tail H_k = H_dmax * ratio^(k-dmax).

    Constraints certified at construction: every index in (0, 1/2), the
    supremum below 1/12, the full sum below 1/6, and strict decrease to 0.
    """

    sup_value: float = field(init=False, default=0.0)
    total_sum: float = field(init=False, default=0.0)

    def __post_init__(self):
        heads = tuple(float(h) for h in self.heads)
        object.__setattr__(self, "heads", heads)
        if not heads:
            raise SequenceConstraintError("at least one explicit head is required")
        if not (0.0 < self.tail_ratio < 1.0):
            raise SequenceConstraintError(
                f"tail ratio must lie in (0,1) for decrease to 0, got {self.tail_ratio}")
        for h in heads:
            if not (0.0 < h < 0.5):
                raise SequenceConstraintError(f"Hurst index {h} outside (0, 1/2)")
        diffs = np.diff(heads)
        if len(heads) > 1 and not np.all(diffs < 0):
            raise SequenceConstraintError("Hurst heads must be strictly decreasing")
        sup = max(heads)
        total = sum(heads) + _geometric_tail_sum(heads[-1], self.tail_ratio)
        if not sup < SUP_HURST_LIMIT:
            raise SequenceConstraintError(
                f"sup_k H_k = {sup} >= 1/12 = {SUP_HURST_LIMIT:.6f}")
        if not total < SUM_HURST_LIMIT:
            raise SequenceConstraintError(
                f"sum_k H_k = {total} >= 1/6 = {SUM_HURST_LIMIT:.6f}")
        object.__setattr__(self, "sup_value", sup)
        object.__setattr__(self, "total_sum", total)


@dataclass(frozen=True)
class WeightSequence(_GeometricTailSequence):
    """Component weights lambda_k >= 0: explicit heads plus a geometric tail.

    Square-summability is certified from the tail rule at construction; the
    mixed constraint sum_k lambda_k / sqrt(H_k) < infinity involves the Hurst
    sequence and is certified by :func:`validate_sequence_pair`.
    """

    sum_squares: float = field(init=False, default=0.0)

    def __post_init__(self):
        heads = tuple(float(w) for w in self.heads)
        object.__setattr__(self, "heads", heads)
        if not heads:
            raise SequenceConstraintError("at least one explicit head is required")
        if not (0.0 <= self.tail_ratio < 1.0):
            raise SequenceConstraintError(
                f"weight tail ratio must lie in [0,1), got {self.tail_ratio}")
        for w in heads:
            if w < 0.0:
                raise SequenceConstraintError(f"weights must be non-negative, got {w}")
        sq = sum(w * w for w in heads)
        if self.tail_ratio > 0.0:
            sq += _geometric_tail_sum(heads[-1] ** 2, self.tail_ratio ** 2)
        object.__setattr__(self, "sum_squares", sq)


def validate_sequence_pair(hs: HurstSequence, ws: WeightSequence) -> float:
    """Certify sum_k lambda_k / sqrt(H_k) < infinity; return the sum.

    Head terms are summed exactly; the tail is a geometric series with ratio
    w_ratio / sqrt(h_ratio), which must be below 1.
    """
    d = max(hs.d_max, ws.d_max)
    head = sum(ws.value(k) / np.sqrt(hs.value(k)) for k in range(1, d + 1))
    tail_ratio = ws.tail_ratio / np.sqrt(hs.tail_ratio)
    if ws.value(d) == 0.0:
        return head
    if not tail_ratio < 1.0:
        raise SequenceConstraintError(
            "sum_k lambda_k/sqrt(H_k) diverges: tail ratio "
            f"{ws.tail_ratio}/sqrt({hs.tail_ratio}) = {tail_ratio} >= 1")
    last = ws.value(d) / np.sqrt(hs.value(d))
    return head + _geometric_tail_sum(last, tail_ratio)


def make_sequences(params: dict) -> tuple:
    """Build a validated (HurstSequence, WeightSequence) pair.

    ``params`` holds the keys hurst_first, hurst_ratio, weight_first,
    weight_ratio and d_max.  Constraint violations raise with the violated
    inequality named.
    """
    d_max = int(params["d_max"])
    hs = HurstSequence.geometric(params["hurst_first"], params["hurst_ratio"], d_max)
    ws = WeightSequence.geometric(params["weight_first"], params["weight_ratio"], d_max)
    validate_sequence_pair(hs, ws)
    return hs, ws


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylEnsemble:
    """Sampled weighted ensemble: values (d, n_nodes, n_paths).

    ``increments`` retains the per-component Wiener increments when the
    kernel construction produced the ensemble (needed by measure-change and
    perturbation machinery); Cholesky sampling leaves it None.
    """

    d: int
    grid: TimeGrid
    values: np.ndarray
    hursts: HurstSequence
    weights: WeightSequence
    increments: tuple | None = None

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
# last chunk is narrow
PATH_CHUNK = 2048


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
    return CylEnsemble(d=d, grid=grid, values=values, hursts=hs, weights=ws,
                       increments=None if incs is None else tuple(
                           WienerIncrements(grid=grid, values=v) for v in incs))


def composite_scaling(ws: WeightSequence, lnd: list, d: int) -> np.ndarray:
    """Per-component factors lambda_k * sqrt(K_k) used by the drift-class checks."""
    return ws.head_array(d) * np.sqrt(np.asarray(lnd[:d], dtype=float))
