import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from cylfbm import cli, cylinder, drift, fbm, girsanov, solver


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


@pytest.fixture
def no_sampling(monkeypatch):
    """Make the sampler bindings of the estimator and the convergence
    experiment fail, so a test sees that a check runs before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(girsanov, "sample_cyl_fbm", no_draw)
    monkeypatch.setattr(solver, "sample_cyl_fbm", no_draw)


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


def in_lanes(monkeypatch, lanes, fn):
    """``fn()`` with the components run in ``lanes`` lanes, thread switches
    forced often."""
    monkeypatch.setattr(cylinder, "usable_cpus", lambda: lanes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


def block_estimator_reference(spec, phi_ids, x, t, hs, ws, d, grid, n_paths, seed,
                              drift_eval=None) -> girsanov.EstimatorResult:
    """The reweighting estimator with each Monte Carlo block (of
    ``girsanov.DEFAULT_BLOCK_SIZE`` paths) at once: the block's whole sample
    and Wiener increments, the drift called node by node into a fresh shift
    array, the states at t copied out of the sample, and one 1-D
    accumulator per functional.  The streamed estimator must reproduce it
    bit for bit."""
    drift_eval = drift_eval or functools.partial(drift.evaluate, spec)
    x = girsanov._start_point(x, d)
    idx_t = girsanov._node_index(grid, t)
    scale = ws.head_array(d) * np.array(
        [fbm.kernel_fractional_norm(hs.value(k + 1)) for k in range(d)])
    phis = {phi_id: girsanov.make_functional(phi_id) for phi_id in phi_ids}
    moments = {phi_id: girsanov.RunningMoments() for phi_id in phi_ids}
    weights = girsanov.RunningMoments()
    for m, blk in girsanov.mc_blocks(n_paths, seed, girsanov.DEFAULT_BLOCK_SIZE):
        ens = cylinder.sample_cyl_fbm(hs, ws, d, grid, m, blk, method="kernel",
                                      keep_increments=True)
        X = ens.values + x[:, None, None]
        U = np.empty_like(X)
        for i, s in enumerate(grid.nodes):
            U[:, i, :] = drift_eval(s, X[:, i, :])[:d]
        U /= -scale[:, None, None]
        w = np.exp(girsanov.component_log_weights(U, grid, ens.increments, hs).sum(axis=0))
        weights.add(w)
        X_t = X[:, idx_t, :].copy()
        for phi_id, phi in phis.items():
            moments[phi_id].add(phi(X_t) * w)
    return girsanov.EstimatorResult(
        estimates={phi_id: (float(mom.mean), float(mom.stderr))
                   for phi_id, mom in moments.items()},
        mean_weight=float(weights.mean),
        ess_fraction=(float(weights.sum) ** 2 / float(weights.sum_sq)) / n_paths)


def block_converge_reference(spec, schedule, t, phi_ids, hs, ws, grid, x, n_paths, seed
                             ) -> list:
    """The rows of the convergence experiment with each Monte Carlo block (of
    ``girsanov.DEFAULT_BLOCK_SIZE`` paths) at once: the block's whole kernel
    sample at the largest level, full-grid solves read at t (the raw drift,
    and each schedule point on the first dd coordinates of the sample), one
    1-D accumulator pair per (point, functional), and the target of
    :func:`block_estimator_reference`.  The streamed experiment must
    reproduce them bit for bit."""
    d_ref = max(dd for dd, _ in schedule)
    target_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    target = block_estimator_reference(spec, phi_ids, x, t, hs, ws, d_ref, grid, n_paths,
                                       target_seed)
    x = girsanov._start_point(x, d_ref)
    idx_t = girsanov._node_index(grid, t)
    phis = {phi_id: girsanov.make_functional(phi_id) for phi_id in phi_ids}
    moments = {(p, phi_id): (girsanov.RunningMoments(), girsanov.RunningMoments())
               for p in range(len(schedule)) for phi_id in phi_ids}
    for m, blk in girsanov.mc_blocks(n_paths, run_seed, girsanov.DEFAULT_BLOCK_SIZE):
        noise = cylinder.sample_cyl_fbm(hs, ws, d_ref, grid, m, blk, method="kernel")
        ref = solver.picard_solve(functools.partial(drift.evaluate, spec), x,
                                  noise).paths[:, idx_t, :]
        for p, (dd, eps) in enumerate(schedule):
            z = x[:, None] + noise.values[:, idx_t, :]
            view = dataclasses.replace(noise, values=noise.values[:dd])
            z[:dd] = solver.picard_solve(drift.mollify(spec, dd, eps), x,
                                         view).paths[:, idx_t, :]
            for phi_id, phi in phis.items():
                value, paired = moments[p, phi_id]
                value.add(phi(z))
                paired.add(phi(z) - phi(ref))
    rows = []
    for p, (dd, eps) in enumerate(schedule):
        for phi_id in phi_ids:
            value, paired = moments[p, phi_id]
            tgt, tgt_se = target.estimates[phi_id]
            rows.append({
                "d": dd, "eps": eps, "t": t, "phi_id": phi_id,
                "value": float(value.mean), "stderr": float(value.stderr),
                "target": tgt, "target_stderr": tgt_se,
                "gap": float(value.mean) - tgt,
                "paired_gap": float(paired.mean), "paired_stderr": float(paired.stderr),
            })
    return rows


def constant_drift(values, weights) -> drift.DriftSpec:
    """Constant drift vector: bounded but not integrable."""
    values = np.asarray(values, dtype=float)
    comps = tuple(
        drift.DriftComponent(fn=(lambda t, y, v=float(v): np.full(y.shape[1:], v)),
                             deps=(0,), sup_bound=abs(float(v)))
        for v in values
    )
    lam = weights.head_array(len(values))
    return drift.DriftSpec(components=comps, weights=weights,
                           c_bounds=np.abs(values) / np.where(lam > 0, lam, 1.0),
                           d_bounds=np.full(len(values), np.inf))


def _zero_component(t, y: np.ndarray) -> np.ndarray:
    """Zero values for the states y: a read-only view, nothing allocated."""
    return np.broadcast_to(0.0, y.shape[1:])


def zero_drift(weights, d_max: int) -> drift.DriftSpec:
    """The zero drift in d_max components, with zero class bounds."""
    comps = tuple(drift.DriftComponent(fn=_zero_component, deps=(), sup_bound=0.0)
                  for _ in range(d_max))
    zeros = np.zeros(d_max)
    return drift.DriftSpec(components=comps, weights=weights, c_bounds=zeros, d_bounds=zeros)


# -- scalar quadrature references for the kernel, independent of the closed
# form the kernel matrix is built from


def kernel_K(H, t: float, s: float) -> float:
    """Volterra kernel value at 0 < s < t.

    The interior integral of u^(H-3/2) (u-s)^(H-1/2) is computed by adaptive
    quadrature after substituting away the endpoint singularity at u = s;
    relative error is far below 1e-8.
    """
    H = fbm.as_hurst(H)
    if s <= 0 or s >= t:
        raise fbm.DomainError("kernel requires 0 < s < t")
    p = H + 0.5

    def g(v):
        return (s + v ** (1.0 / p)) ** (H - 1.5) / p

    inner, _ = integrate.quad(g, 0.0, (t - s) ** p, epsabs=1e-14, epsrel=1e-11, limit=200)
    return fbm.c_factor(H) * (
        (t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
        + (0.5 - H) * s ** (0.5 - H) * inner
    )


def _singular_cell_integrand(v, H: float, t, q: float, power: int, at_top: bool):
    """Integrand in v of integral K(t,u)^power du over a singular cell.

    ``at_top`` selects the cell ending at t, substituted by v = (t-u)^q;
    otherwise the cell starting at 0, substituted by v = u^q.
    """
    if at_top:
        lk = fbm._log_kernel(H, t, t - v ** (1.0 / q), log_diff=np.log(v) / q)
    else:
        lk = fbm._log_kernel(H, t, v ** (1.0 / q))
    return np.exp(power * lk + (1.0 / q - 1.0) * np.log(v) - np.log(q))


def kernel_cell_integral(H, t: float, a: float, b: float, power: int = 1) -> float:
    """integral_a^b K(t,u)^power du for power in {1, 2}.

    Integrable endpoint singularities at u = t and u = 0 are removed by the
    substitution v = (t-u)^q resp. v = u^q with q = power*(H-1/2) + 1 and
    integrated by adaptive quadrature; other cells use 16-point
    Gauss-Legendre.
    """
    H = fbm.as_hurst(H)
    if not 0 <= a < b <= t:
        raise fbm.DomainError("cell integral requires 0 <= a < b <= t")
    if power not in (1, 2):
        raise fbm.DomainError("power must be 1 or 2")
    q = power * (H - 0.5) + 1.0
    touches_top = b >= t * (1 - 1e-14)
    touches_zero = a <= 0.0
    if touches_top and touches_zero:
        mid = 0.5 * (a + b)
        return kernel_cell_integral(H, t, a, mid, power) + kernel_cell_integral(
            H, t, mid, b, power
        )
    if touches_top or touches_zero:
        upper = (t - a) ** q if touches_top else b ** q
        val, _ = integrate.quad(_singular_cell_integrand, 0.0, upper,
                                args=(H, t, q, power, touches_top),
                                epsabs=1e-13, epsrel=1e-10, limit=200)
        return val
    x, w = np.polynomial.legendre.leggauss(16)
    u = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(w * np.exp(power * fbm._log_kernel(H, t, u))))


# -- the example drift family's formulas written pass by pass: references for
# the fused evaluations in cylfbm.drift, which must reproduce them bit for bit


def structure_eval_reference(st: drift.JumpExpStructure, t: float, y: np.ndarray) -> np.ndarray:
    m = y.shape[1]
    norm_w = st.scale * np.sqrt(y[st.coord] ** 2)
    amp = st.amp * math.exp(-t) * np.exp(-st.decay * norm_w / 2.0)
    reg = st.region
    if reg.kind == "halfspace":
        w_axis = st.scale * y[reg.axis, :] if reg.axis == st.coord else np.zeros(m)
        inside = w_axis <= reg.offset
    else:
        inside = norm_w <= reg.radius
    return amp * np.where(inside, st.a, st.b)


def mollified_value_reference(st: drift.JumpExpStructure, eps: float, t: float,
                              z: np.ndarray) -> np.ndarray:
    m = z.shape[1]
    rho = np.sqrt(z[st.coord] ** 2)
    amp = st.amp * math.exp(-t) * np.exp(-st.decay * (st.scale * rho) / 2.0)
    reg = st.region
    if reg.kind == "halfspace":
        if reg.axis == st.coord:
            c = reg.offset / st.scale
            smooth = st.b + (st.a - st.b) * drift._norm_cdf((c - z[reg.axis, :]) / eps)
        else:
            smooth = np.full(m, st.a if 0.0 <= reg.offset else st.b)
    else:
        smooth = st.b + (st.a - st.b) * drift._norm_cdf((reg.radius / st.scale - rho) / eps)
    return amp * smooth


def mollified_grad_reference(st: drift.JumpExpStructure, eps: float, t: float,
                             z: np.ndarray, d: int) -> np.ndarray:
    c = st.coord
    m = z.shape[1]
    out = np.zeros((d, m))
    rho = np.sqrt(z[c] ** 2)
    amp = st.amp * math.exp(-t) * np.exp(-st.decay * (st.scale * rho) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rho > 0, z[c] / rho, 0.0)
    damp = -(st.decay * st.scale / 2.0) * unit * amp
    reg = st.region
    if reg.kind == "halfspace":
        if reg.axis == c:
            u = (reg.offset / st.scale - z[c]) / eps
            out[c] = damp * (st.b + (st.a - st.b) * drift._norm_cdf(u))
            out[c] += amp * (-(st.a - st.b) * drift._norm_pdf(u) / eps)
        else:
            out[c] = damp * np.full(m, st.a if 0.0 <= reg.offset else st.b)
    else:
        u = (reg.radius / st.scale - rho) / eps
        smooth = st.b + (st.a - st.b) * drift._norm_cdf(u)
        out[c] = damp * smooth + amp * (-(st.a - st.b) * drift._norm_pdf(u) / eps) * unit
    return out
