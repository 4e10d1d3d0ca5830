"""Drift vector fields with componentwise sup and scaled-integral bounds.

A drift is a sequence of bounded component maps b_k(t, y).  The admissible
class requires sup |b_k| <= C_k lambda_k and an integral bound over the
coordinates a component actually reads, both with summable constant
sequences.  The bundled example family multiplies an exponentially damped
amplitude by a region indicator (a jump across a halfspace or ball), composed
with a per-component scaled finite-rank projection; truncation and Gaussian
mollification produce the smooth approximants handed to the solvers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .cylinder import WeightSequence, run_component_lanes
from .fbm import DomainError

_ENVELOPE_CUTOFF = 1e-8  # relative tail mass ignored when boxing a maximization
LND_FLOOR = 0.4  # non-determinism constants the family's integral constants assume
REGION_KINDS = ("halfspace", "ball")


def _norm_cdf(x):
    return 0.5 * (1.0 + special.erf(np.asarray(x) / np.sqrt(2.0)))


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Region:
    """Indicator region in the projected argument space.

    halfspace: membership is w[axis] <= offset (axis is a 0-based global
    coordinate index); ball: |w| <= radius.
    """

    kind: str
    axis: int = 0
    offset: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise DomainError(f"unknown region kind {self.kind!r}")
        if self.kind == "ball" and self.radius <= 0:
            raise DomainError("ball region needs a positive radius")


@dataclass(frozen=True)
class JumpExpStructure:
    """Closed-form data for one example-family component.

    value = amp * exp(-t) * exp(-decay*|w|/2) * (a inside region else b),
    where w is ``scale`` times the projection of y onto ``coords``.
    """

    amp: float
    decay: float
    scale: float
    coords: tuple
    region: Region
    a: float
    b: float


@dataclass(frozen=True)
class DriftComponent:
    """One component map b_k with its declared envelope.

    ``fn(t, y)`` takes a time t with states y of shape (dy, m), or a vector t
    of node times with states of shape (dy, n_nodes, m), node i at time t[i],
    and returns the y.shape[1:] values; coordinates beyond dy are treated as
    zero.  ``deps`` lists the 0-based coordinates the map reads,
    ``decay_rate`` r certifies |b_k| <= sup_bound * exp(-r * |y restricted
    to deps|).  A component with closed-form ``structure`` has
    ``fn = functools.partial(_structure_eval, structure)``, which also takes
    ``out`` and ``scratch`` (see :meth:`write`): direct calls and
    :func:`evaluate` run that one function.
    """

    fn: object
    deps: tuple
    sup_bound: float
    decay_rate: float = 0.0
    structure: JumpExpStructure | None = None

    def __call__(self, t, y: np.ndarray) -> np.ndarray:
        return self.fn(t, y)

    def write(self, t, y: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write ``fn(t, y)`` into ``out``.  A closed-form component's ``fn``
        is ``fn(t, y, out, scratch)``: it writes into ``out``, works in
        ``scratch`` (:func:`_workspace_size` floats) and allocates nothing."""
        if self.structure is not None:
            self.fn(t, y, out, scratch)
        else:
            out[...] = self.fn(t, y)


@dataclass(frozen=True)
class DriftSpec:
    """Drift with declared class bounds.

    ``c_bounds``/``d_bounds`` are the normalized constants: component k is
    bounded by c_bounds[k] * lambda_k, and its scaled integral by
    d_bounds[k] * lambda_k.
    """

    components: tuple
    weights: WeightSequence
    c_bounds: np.ndarray
    d_bounds: np.ndarray

    @property
    def d_max(self) -> int:
        return len(self.components)


def evaluate(spec: DriftSpec, t, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the first min(dy, d_max) components on states y with dy rows:
    a state has no coordinate for the rows past dy.

    A time t takes states of shape (dy, m); a vector t of node times takes
    states of shape (dy, n_nodes, m), node i at time t[i], and the values
    equal the per-node calls bit for bit.  The components run in
    :func:`cylfbm.cylinder.run_component_lanes`, in one lane at one time
    (:func:`_max_lanes`).  The rows are written into ``out`` (a fresh array
    by default) and returned.
    """
    y = np.asarray(y, dtype=float)
    if np.ndim(t) == 0:
        y = np.atleast_2d(y)
    comps = spec.components[: y.shape[0]]
    if out is None:
        out = np.empty((len(comps),) + y.shape[1:])
    run_component_lanes(len(comps), lambda k, scratch: comps[k].write(t, y, out[k], scratch),
                        _workspace_size(t, y.shape[1:]), _max_lanes(t))
    return out


def _max_lanes(t) -> int | None:
    """Lanes for one drift call: one at a single time, as the strong solver
    calls the drift once per step, where starting a lane thread per call
    costs more than the components' work (lanes there made converge-sched's
    run_s 48% slower); the usable CPUs at a vector of node times."""
    return 1 if np.ndim(t) == 0 else None


def _workspace_size(t, shape: tuple) -> int:
    """Floats of scratch one closed-form component needs on states with
    trailing shape ``shape`` at time(s) t: a float array, a mask and one
    float per node."""
    n = math.prod(shape)
    return n + -(-n // 8) + np.size(t)


def _workspace(scratch: np.ndarray, t, shape: tuple) -> tuple:
    """The float array, the boolean mask and the per-node floats of
    :func:`_workspace_size`, as views of ``scratch``."""
    n = math.prod(shape)
    nb = -(-n // 8)
    return (scratch[:n].reshape(shape), scratch[n : n + nb].view(np.bool_)[:n].reshape(shape),
            scratch[n + nb : n + nb + np.size(t)])


# ---------------------------------------------------------------------------
# the indicator-times-exponential example family
# ---------------------------------------------------------------------------


def _projection_norm(st: JumpExpStructure, y: np.ndarray, out: np.ndarray | None = None,
                     tmp: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm over the rows of y in ``st.coords`` (rows past y's
    first axis read as zero), written into ``out`` (fresh by default) with
    ``tmp`` as workspace.  One row gives |y_c|, which is exactly sqrt(y_c^2);
    several are summed in row order, as a sum over the first axis adds them."""
    avail = [c for c in st.coords if c < y.shape[0]]
    if out is None:
        out = np.empty(y.shape[1:])
    if not avail:
        out[...] = 0.0
    elif len(avail) == 1:
        np.abs(y[avail[0]], out=out)
    else:
        tmp = np.empty(y.shape[1:]) if tmp is None else tmp
        np.square(y[avail[0]], out=out)
        for c in avail[1:]:
            out += np.square(y[c], out=tmp)
        np.sqrt(out, out=out)
    return out


def _damped_amplitude(st: JumpExpStructure, t, rho: np.ndarray,
                      node: np.ndarray | None = None) -> np.ndarray:
    """amp e^-t exp(-decay |w| / 2) with |w| = scale * rho, computed in place
    over ``rho`` and returned.  Halving the decay rather than the product
    changes no value: halving is exact unless the product is subnormal
    (exp gives 1 either way) or overflows (exp gives 0 either way).  At a
    vector of node times the factor amp e^-t is formed per node, with
    math.exp as at one time, in ``node``."""
    rho *= st.scale
    rho *= -st.decay / 2.0
    np.exp(rho, out=rho)
    if np.ndim(t) == 0:
        rho *= st.amp * math.exp(-t)
    else:
        for i, s in enumerate(t):
            node[i] = st.amp * math.exp(-s)
        rho *= node[:, None]
    return rho


def _structure_eval(st: JumpExpStructure, t, y: np.ndarray, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """The component's values at t on states y, written into ``out`` (fresh
    by default); all workspace is taken from ``scratch``."""
    shape = y.shape[1:]
    out = np.empty(shape) if out is None else out
    if scratch is None:
        scratch = np.empty(_workspace_size(t, shape))
    tmp, inside, node = _workspace(scratch, t, shape)
    reg = st.region
    rho = _projection_norm(st, y, out, tmp)
    if reg.kind == "ball":
        np.less_equal(np.multiply(rho, st.scale, out=tmp), reg.radius, out=inside)
    elif reg.axis in st.coords and reg.axis < y.shape[0]:
        np.less_equal(np.multiply(y[reg.axis], st.scale, out=tmp), reg.offset, out=inside)
    else:  # a halfspace whose axis the component does not read
        inside = None
    amp = _damped_amplitude(st, t, rho, node)
    if inside is None:
        amp *= st.a if 0.0 <= reg.offset else st.b
    else:  # the indicator factor a or b, selected in place
        np.copyto(tmp, st.b)
        np.copyto(tmp, st.a, where=inside)
        amp *= tmp
    return amp


def indicator_exponential_family(
    weights: WeightSequence,
    d_max: int,
    amp_first: float = 0.4,
    amp_ratio: float = 0.45,
    decay_first: float = 1.0,
    decay_ratio: float = 1.0,
    a: float = 1.0,
    b: float = -0.5,
    region: Region | None = None,
    proj_sets: tuple | None = None,
    proj_scale_first: float = 1.0,
    proj_scale_ratio: float = 2.0,
) -> DriftSpec:
    """Bounded jump drift family: damped exponential amplitude times a region
    indicator, composed with per-component scaled projections.

    Component k reads the coordinates in proj_sets[k] (default: its own).
    The declared integral constants assume the non-determinism constants stay
    above ``LND_FLOOR``; the class validator measures against the actual
    scaling.  Summability of the declared constants is certified from the
    geometric parameter ratios.
    """
    if region is None:
        region = Region("halfspace", axis=0, offset=0.0)
    if proj_sets is None:
        proj_sets = tuple((k,) for k in range(d_max))
    amps = amp_first * amp_ratio ** np.arange(d_max)
    decays = decay_first * decay_ratio ** np.arange(d_max)
    scales = proj_scale_first * proj_scale_ratio ** np.arange(d_max)
    lam = weights.head_array(d_max)
    if np.any(lam == 0.0):
        raise DomainError("family components need positive weights")
    peak = max(abs(a), abs(b))
    comps = []
    c_bounds = np.empty(d_max)
    d_bounds = np.empty(d_max)
    for k in range(d_max):
        st = JumpExpStructure(amp=float(amps[k]), decay=float(decays[k]),
                              scale=float(scales[k]), coords=tuple(proj_sets[k]),
                              region=region, a=a, b=b)
        n_dep = len(st.coords)
        comps.append(DriftComponent(
            fn=functools.partial(_structure_eval, st),
            deps=st.coords,
            sup_bound=float(amps[k]) * peak,
            decay_rate=float(decays[k]) * float(scales[k]) / 2.0,
            structure=st,
        ))
        c_bounds[k] = amps[k] * peak / lam[k]
        # integral of the envelope over the n_dep scaled coordinates:
        # amp*peak * int exp(-decay*scale*sqrt(LND_FLOOR)*lam_dep|x|/2) dx
        rate = decays[k] * scales[k] * math.sqrt(LND_FLOOR) / 2.0
        dep_lam = np.array([weights.value(c + 1) for c in st.coords])
        vol = _exp_ball_integral(n_dep, rate) / np.prod(dep_lam)
        d_bounds[k] = amps[k] * peak * vol / lam[k]
    # certify summability of the declared sequences from the parameter ratios
    n_dep_max = max(len(s) for s in proj_sets)
    c_ratio = amp_ratio / weights.tail_ratio if weights.tail_ratio else 0.0
    d_ratio = c_ratio / (decay_ratio * proj_scale_ratio * weights.tail_ratio ** n_dep_max) \
        if weights.tail_ratio else 0.0
    if c_ratio >= 1.0:
        raise DomainError(f"sup-bound constants not summable: tail ratio {c_ratio} >= 1")
    if d_ratio >= 1.0:
        raise DomainError(f"integral-bound constants not summable: tail ratio {d_ratio} >= 1")
    return DriftSpec(components=tuple(comps), weights=weights,
                     c_bounds=c_bounds, d_bounds=d_bounds)


def _exp_ball_integral(n: int, rate: float) -> float:
    """integral over R^n of exp(-rate * |x|) dx."""
    if n == 0:
        return 1.0
    if rate <= 0.0:
        return math.inf
    surface = 2.0 * math.pi ** (n / 2.0) / special.gamma(n / 2.0)
    return surface * special.gamma(n) / rate ** n


def _zero_component(t, y: np.ndarray) -> np.ndarray:
    """Zero values for the states y: a read-only view, nothing allocated."""
    return np.broadcast_to(0.0, y.shape[1:])


def zero_drift(weights: WeightSequence, d_max: int) -> DriftSpec:
    comps = tuple(
        DriftComponent(fn=_zero_component, deps=(), sup_bound=0.0)
        for _ in range(d_max)
    )
    zeros = np.zeros(d_max)
    return DriftSpec(components=comps, weights=weights, c_bounds=zeros, d_bounds=zeros)


# ---------------------------------------------------------------------------
# class validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentBoundsCheck:
    component: int
    sup_measured: float
    sup_bound: float
    integral_measured: float
    integral_bound: float
    integral_stderr: float
    passed: bool

    @property
    def sup_margin(self) -> float:
        return self.sup_bound - self.sup_measured

    @property
    def integral_margin(self) -> float:
        return self.integral_bound - self.integral_measured


@dataclass(frozen=True)
class ClassBoundsReport:
    entries: tuple
    d_tested: int
    passed: bool


def _maximization_box(comp: DriftComponent) -> float:
    if comp.decay_rate > 0.0:
        return -math.log(_ENVELOPE_CUTOFF) / comp.decay_rate
    return 10.0


def _sampled_sup(comp: DriftComponent, d: int, t_end: float, rng, n: int = 4096) -> float:
    deps = [c for c in comp.deps if c < d]
    radius = _maximization_box(comp)
    # probes at the origin and just off it along each dependency axis catch
    # the peak of damped indicator profiles on either side of an interface
    probes = [np.zeros(d)]
    for c in deps:
        for delta in (1e-9, -1e-9, 0.1 * radius, -0.1 * radius):
            p = np.zeros(d)
            p[c] = delta
            probes.append(p)
    best = 0.0
    for t in np.linspace(0.0, t_end, 5):
        y = np.zeros((d, n + len(probes)))
        if deps:
            y[deps, : n] = rng.uniform(-radius, radius, size=(len(deps), n))
        y[:, n:] = np.stack(probes, axis=1)
        best = max(best, float(np.max(np.abs(comp(t, y)))))
    return best


def _integral_over_deps(comp: DriftComponent, d: int, scaling: np.ndarray,
                        t_end: float, rng, n_mc: int = 200_000):
    """integral over the dep coordinates of sup_t |b_k(t, scaled embedding)|.

    Components constant along a scanned direction make the integral diverge;
    that is detected by probing the envelope at the box edge.
    """
    deps = [c for c in comp.deps if c < d]
    sup_here = _sampled_sup(comp, d, t_end, rng, n=512)
    if not deps:
        return (0.0, 0.0) if sup_here == 0.0 else (math.inf, 0.0)

    def integrand(y_dep):  # y_dep shape (len(deps), m); sup over a t grid
        m = y_dep.shape[1]
        y = np.zeros((d, m))
        y[deps, :] = y_dep * scaling[deps][:, None]
        vals = np.zeros(m)
        for t in np.linspace(0.0, t_end, 5):
            vals = np.maximum(vals, np.abs(comp(t, y)))
        return vals

    radius = _maximization_box(comp) / min(scaling[deps])
    edge = np.zeros((len(deps), 2 * len(deps)))
    for i in range(len(deps)):
        edge[i, 2 * i] = radius
        edge[i, 2 * i + 1] = -radius
    if comp.decay_rate == 0.0 and np.max(integrand(edge)) > 1e-6 * max(sup_here, 1e-300):
        return math.inf, 0.0
    if len(deps) <= 3:
        npts = {1: 400, 2: 96, 3: 40}[len(deps)]
        x, w = np.polynomial.legendre.leggauss(npts)
        x = x * radius
        w = w * radius
        grids = np.meshgrid(*([x] * len(deps)), indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
        wgrids = np.meshgrid(*([w] * len(deps)), indexing="ij")
        wts = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
        return float(np.sum(wts * integrand(pts))), 0.0
    # importance sampling with a Laplace proposal matched to the envelope
    rate = max(comp.decay_rate * min(scaling[deps]) / math.sqrt(len(deps)), 1e-3)
    y = rng.laplace(scale=1.0 / rate, size=(len(deps), n_mc))
    q = np.prod(rate / 2.0 * np.exp(-rate * np.abs(y)), axis=0)
    ratio = integrand(y) / q
    return float(np.mean(ratio)), float(np.std(ratio, ddof=1) / math.sqrt(n_mc))


def validate_drift_class(spec: DriftSpec, d: int, scaling: np.ndarray,
                         t_end: float = 1.0, seed: int = 0) -> ClassBoundsReport:
    """Check the declared sup and scaled-integral bounds on the first d components.

    The sup bound is checked by sampled maximization over the envelope box;
    the integral over the component's dependency coordinates uses tensor
    quadrature up to dimension 3 and importance-sampled Monte Carlo beyond.
    Only finitely many truncation levels are checkable; ``d_tested`` records
    the largest one.
    """
    scaling = np.asarray(scaling, dtype=float)
    if np.any(scaling[:d] <= 0.0):
        raise DomainError("scaling factors must be positive")
    rng = np.random.default_rng(seed)
    lam = spec.weights.head_array(d)
    entries = []
    for k in range(min(d, spec.d_max)):
        comp = spec.components[k]
        sup_m = _sampled_sup(comp, d, t_end, rng)
        int_m, int_se = _integral_over_deps(comp, d, scaling, t_end, rng)
        sup_b = spec.c_bounds[k] * lam[k]
        int_b = spec.d_bounds[k] * lam[k]
        ok = (sup_m <= sup_b * (1 + 1e-9) + 1e-12) and (
            int_m <= int_b * (1 + 1e-9) + 3 * int_se + 1e-12)
        entries.append(ComponentBoundsCheck(
            component=k + 1, sup_measured=sup_m, sup_bound=float(sup_b),
            integral_measured=int_m, integral_bound=float(int_b),
            integral_stderr=int_se, passed=bool(ok)))
    return ClassBoundsReport(entries=tuple(entries), d_tested=d,
                             passed=all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# truncation and mollification
# ---------------------------------------------------------------------------


def truncate_drift(spec: DriftSpec, d: int) -> DriftSpec:
    """Project the drift onto the first d coordinates.

    Components past d become zero; the rest read only the first d coordinates
    of the state (missing coordinates enter as zero).  Zero components are
    kept as they are; a nonzero component needs its closed-form structure.
    """
    if d < 1:
        raise DomainError("truncation level must be >= 1")
    comps = []
    for k, comp in enumerate(spec.components):
        if k >= d:
            comps.append(DriftComponent(fn=_zero_component, deps=(), sup_bound=0.0))
        elif comp.structure is not None:
            kept = tuple(c for c in comp.deps if c < d)
            st = replace(comp.structure, coords=kept)
            comps.append(replace(comp, structure=st, deps=kept,
                                 fn=functools.partial(_structure_eval, st)))
        elif comp.sup_bound == 0.0:
            comps.append(comp)
        else:
            raise DomainError(f"component {k + 1} is nonzero and has no closed-form "
                              "structure to truncate and mollify")
    cb = spec.c_bounds.copy()
    db = spec.d_bounds.copy()
    cb[d:] = 0.0
    db[d:] = 0.0
    return replace(spec, components=tuple(comps), c_bounds=cb, d_bounds=db)


@dataclass(frozen=True)
class MollifiedDrift:
    """Smoothed truncated drift acting on d coordinates.

    ``evaluator(t, Z, out=None)`` maps states Z to d drift rows under the
    time contract of :func:`evaluate` (a time t with Z of shape (d, m), or
    node times with Z of shape (d, n_nodes, m), the components then in
    lanes); ``gradient_evaluator(t, Z)`` returns the Jacobian stack (d, d, m)
    at one time.
    For the example family the smoothing of the indicator factor is evaluated
    in closed form along the jump's normal coordinate (an error-function
    profile); the damped amplitude is kept pointwise, so the evaluator is
    smooth everywhere except on the measure-zero amplitude ridge, where it
    stays Lipschitz.
    """

    base: DriftSpec
    d: int
    epsilon: float
    evaluator: object
    gradient_evaluator: object

    def __call__(self, t, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.evaluator(t, z, out=out)


def _smoothed_step(st: JumpExpStructure, eps: float, u: np.ndarray) -> np.ndarray:
    """b + (a - b) Phi(u / eps), Phi the standard normal CDF, computed in
    place over ``u`` in the operation order of :func:`_norm_cdf`."""
    u /= eps
    u /= np.sqrt(2.0)
    special.erf(u, out=u)
    u += 1.0
    u *= 0.5
    u *= st.a - st.b
    u += st.b
    return u


def _mollified_structure_value(st: JumpExpStructure, eps: float, t, z: np.ndarray,
                               out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The mollified component's values at t on states z, written into
    ``out``; all workspace is taken from ``scratch``."""
    tmp, _, node = _workspace(scratch, t, z.shape[1:])
    reg = st.region
    rho = _projection_norm(st, z, out, tmp)
    if reg.kind == "halfspace":
        if reg.axis in st.coords:
            smooth = _smoothed_step(st, eps, np.subtract(reg.offset / st.scale, z[reg.axis],
                                                         out=tmp))
        else:
            smooth = st.a if 0.0 <= reg.offset else st.b
    else:
        smooth = _smoothed_step(st, eps, np.subtract(reg.radius / st.scale, rho, out=tmp))
    amp = _damped_amplitude(st, t, rho, node)
    amp *= smooth
    return amp


def _mollified_structure_grad(st: JumpExpStructure, eps: float, t: float,
                              z: np.ndarray, d: int) -> np.ndarray:
    """Gradient rows (d, m) of one mollified structured component."""
    avail = list(st.coords)
    m = z.shape[1]
    out = np.zeros((d, m))
    if not avail:
        return out
    rho = _projection_norm(st, z)
    amp = _damped_amplitude(st, t, rho.copy())
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rho > 0, z[avail, :] / rho, 0.0)
    damp = -(st.decay * st.scale / 2.0) * unit * amp  # (len(avail), m)
    reg = st.region
    if reg.kind == "halfspace":
        if reg.axis in avail:
            u = (reg.offset / st.scale - z[reg.axis, :]) / eps
            out[avail, :] = damp * (st.b + (st.a - st.b) * _norm_cdf(u))
            out[reg.axis, :] += amp * (-(st.a - st.b) * _norm_pdf(u) / eps)
        else:
            out[avail, :] = damp * (st.a if 0.0 <= reg.offset else st.b)
    else:
        u = (reg.radius / st.scale - rho) / eps
        smooth = st.b + (st.a - st.b) * _norm_cdf(u)
        dsmooth_drho = -(st.a - st.b) * _norm_pdf(u) / eps
        out[avail, :] = damp * smooth + amp * dsmooth_drho * unit
    return out


def mollify(spec: DriftSpec, d: int, eps: float) -> MollifiedDrift:
    """Gaussian smoothing (unit mass) of width eps > 0 of the d-truncated
    drift in its d spatial coordinates.  Each of the first d components must
    be zero or carry its closed-form structure (:func:`truncate_drift`)."""
    if not eps > 0.0:
        raise DomainError(f"mollifier width must be positive, got {eps}")
    trunc = truncate_drift(spec, d)
    comps = trunc.components[:d]

    def evaluator(t, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if np.ndim(t) == 0:
            z = np.atleast_2d(z)
        if out is None:
            out = np.empty((d,) + z.shape[1:])

        def work(k, scratch):
            if comps[k].sup_bound != 0.0:
                _mollified_structure_value(comps[k].structure, eps, t, z, out[k], scratch)
            else:
                out[k] = 0.0

        run_component_lanes(d, work, _workspace_size(t, z.shape[1:]), _max_lanes(t))
        return out

    def gradient_evaluator(t: float, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.zeros((d, d, z.shape[1]))
        for k, comp in enumerate(comps):
            if comp.sup_bound != 0.0:
                out[k] = _mollified_structure_grad(comp.structure, eps, t, z, d)
        return out

    return MollifiedDrift(base=trunc, d=d, epsilon=eps,
                          evaluator=evaluator, gradient_evaluator=gradient_evaluator)


# ---------------------------------------------------------------------------
# Lipschitz factorization
# ---------------------------------------------------------------------------


def lipschitz_estimate(md: MollifiedDrift, n_samples: int = 2048, seed: int = 0):
    """Estimate sup |d_i b_k| by sampled maximization and factor it as L_k M_i.

    The box covers the effective support from the declared envelopes; samples
    on the jump interface are included since the smoothed-step derivative
    peaks there.  The rank-1 factorization takes L as row maxima and M as the
    normalized column maxima, a conservative over-approximation with
    L_k * M_i >= measured sup for every pair.
    """
    rng = np.random.default_rng(seed)
    d = md.d
    radius = max(_maximization_box(c) for c in md.base.components[:d])
    z = rng.uniform(-radius, radius, size=(d, n_samples))
    # pin a disjoint block of columns per component onto its jump interface;
    # the remaining samples stay fully random
    block = max(min(n_samples // (2 * d), 64), 1)
    for k, comp in enumerate(md.base.components[:d]):
        st = comp.structure
        if st is not None and st.region.kind == "halfspace" and st.region.axis < d:
            z[st.region.axis, k * block : (k + 1) * block] = st.region.offset / st.scale
    G = np.zeros((d, d))
    for t in (0.0, 0.5, 1.0):
        J = md.gradient_evaluator(t, z)
        G = np.maximum(G, np.max(np.abs(J), axis=2))
    rowmax = G.max(axis=1)
    L = rowmax.copy()
    safe = np.where(rowmax > 0, rowmax, 1.0)
    M = (G / safe[:, None]).max(axis=0)
    return L, M, G
