import tracemalloc

import numpy as np
import pytest

from cylfbm import cli, drift, fbm


@pytest.fixture(scope="session")
def grid64():
    return fbm.TimeGrid(1.0, 64)


@pytest.fixture(scope="session")
def grid128():
    return fbm.TimeGrid(1.0, 128)


@pytest.fixture(scope="session")
def sequences():
    """The (HurstSequence, WeightSequence) pair of the CLI's default model."""
    hs, ws, _, _ = cli._build_model(cli.load_config({}))
    return hs, ws


def covariance_se(cov, i, j, n):
    """Standard error of an empirical covariance entry for Gaussian samples."""
    return np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` holds at once, as tracemalloc counts them
    (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def constant_drift(values, weights) -> drift.DriftSpec:
    """Constant drift vector: bounded but not integrable."""
    values = np.asarray(values, dtype=float)
    comps = tuple(
        drift.DriftComponent(fn=(lambda t, y, v=float(v): np.full(y.shape[1], v)),
                             deps=(0,), sup_bound=abs(float(v)))
        for v in values
    )
    lam = weights.head_array(len(values))
    return drift.DriftSpec(components=comps, weights=weights,
                           c_bounds=np.abs(values) / np.where(lam > 0, lam, 1.0),
                           d_bounds=np.full(len(values), np.inf))
