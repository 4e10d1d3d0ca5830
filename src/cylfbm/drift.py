"""Drift vector fields with componentwise sup and scaled-integral bounds.

A drift is a sequence of bounded component maps b_k(t, y).  The admissible
class requires sup |b_k| <= C_k lambda_k and an integral bound over the
coordinate a component reads, both with summable constant sequences.  The
bundled example family multiplies an exponentially damped amplitude by a
region indicator (a jump across a halfspace or ball), component k reading
its own coordinate scaled by proj_scale_ratio^(k-1); truncation and Gaussian
mollification produce the smooth approximants handed to the solvers.  The
raw drift is the width-0 case of the mollified one: one kernel computes a
closed-form component at every width eps >= 0, the indicator at eps = 0,
and one driver runs the components for both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cylinder import WeightSequence, run_component_lanes
from .fbm import DomainError, gauss_legendre

_ENVELOPE_CUTOFF = 1e-8  # relative tail mass ignored when boxing a maximization
LND_FLOOR = 0.4  # non-determinism constants the family's integral constants assume
REGION_KINDS = ("halfspace", "ball")


# W. J. Cody's rational Chebyshev approximations to erf (Math. Comp. 23, 1969),
# highest power first: x P(x^2)/Q(x^2) for |x| <= _ERF_SMALL, and
# erf(x) = 1 - exp(-x^2) C(|x|)/D(|x|) above, with |x| clipped at _ERF_CLIP,
# past which erf rounds to +-1 (from 5.93 on)
_ERF_SMALL = 0.46875
_ERF_CLIP = 6.0
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_Q = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERF_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
          1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERF_D = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
          1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)


def _horner(coefs: tuple, y: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coefs`` (highest power first) at y,
    in place over one fresh array."""
    acc = y * coefs[0]
    for c in coefs[1:-1]:
        acc += c
        acc *= y
    acc += coefs[-1]
    return acc


def _erf(x, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of the array x (one dimension or more), written
    into ``out`` (fresh by default; it may be x itself).  The C/D branch runs
    on every entry, which on (4, 6] matches Cody's asymptotic branch to the
    last bit, since erfc < 1.6e-8 there; the small entries are then
    overwritten with x P/Q."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    small = y <= _ERF_SMALL
    xs = x[small]  # read before out, which may be x, is written
    np.minimum(y, _ERF_CLIP, out=y)
    r = _horner(_ERF_C, y)
    r /= _horner(_ERF_D, y)
    np.square(y, out=y)
    np.negative(y, out=y)
    r *= np.exp(y, out=y)  # erfc(|x|)
    np.subtract(1.0, r, out=r)
    out = np.copysign(r, x, out=out)
    ys = xs * xs
    out[small] = xs * _horner(_ERF_P, ys) / _horner(_ERF_Q, ys)
    return out


def _norm_cdf(x):
    return 0.5 * (1.0 + _erf(np.asarray(x) / np.sqrt(2.0)))


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Region:
    """Indicator region for a component's scaled coordinate w.

    halfspace: membership is w <= offset for the component that reads
    coordinate ``axis`` (a 0-based global index), and 0 <= offset for the
    others; ball: |w| <= radius.
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
    where w = ``scale`` * y[``coord``].
    """

    amp: float
    decay: float
    scale: float
    coord: int
    region: Region
    a: float
    b: float


@dataclass(frozen=True)
class DriftComponent:
    """One component map b_k with its declared envelope.

    ``fn(t, y)`` takes a time t with states y of shape (dy, m), or a vector t
    of node times with states of shape (dy, n_nodes, m), node i at time t[i],
    and returns the y.shape[1:] values; y has a row for every coordinate in
    ``deps``, the 0-based coordinates the map reads (at most one for
    :func:`validate_drift_class`), and ``decay_rate`` r certifies
    |b_k| <= sup_bound * exp(-r * |y restricted to deps|).  A component with
    closed-form ``structure`` has
    ``fn = functools.partial(_component_values, structure, 0.0)``, the
    raw (eps = 0) case of the one kernel that :func:`evaluate` and every
    mollified evaluator run on it.
    """

    fn: object
    deps: tuple
    sup_bound: float
    decay_rate: float = 0.0
    structure: JumpExpStructure | None = None

    def __call__(self, t, y: np.ndarray) -> np.ndarray:
        return self.fn(t, y)


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
    return _evaluate_components(spec.components, 0.0, t, y, out)


def _evaluate_components(comps: tuple, eps, t, y, out: np.ndarray | None = None
                         ) -> np.ndarray:
    """The first min(dy, len(comps)) components at mollifier width eps (0 for
    the raw drift) under the time contract of :func:`evaluate`: a closed-form
    component through :func:`_component_values` in its lane's scratch, any
    other through its ``fn``.  For a stack of points (:func:`mollify`) the
    states carry a points axis after the first, and eps holds, per component,
    the :func:`_point_runs` of the points: a run that drops the component
    gets 0, and each run that keeps it is one call on that slice."""
    y = np.asarray(y, dtype=float)
    if np.ndim(t) == 0:
        y = np.atleast_2d(y)
    comps = comps[: y.shape[0]]
    if out is None:
        out = np.empty((len(comps),) + y.shape[1:])

    def work(k, scratch):
        st = comps[k].structure
        for s, e in eps[k] if isinstance(eps, tuple) else ((slice(None), eps),):
            if e is None:
                out[k, s] = 0.0
            elif st is None:
                out[k, s] = comps[k].fn(t, y[:, s])
            else:
                _component_values(st, e, t, y[:, s], out[k, s], scratch)

    run_component_lanes(len(comps), work, _workspace_size(t, y.shape[1:]), _max_lanes(t))
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


def _smoothed_step(st: JumpExpStructure, eps: float, u: np.ndarray) -> np.ndarray:
    """b + (a - b) Phi(u / eps), Phi the standard normal CDF, computed in
    place over ``u`` in the operation order of :func:`_norm_cdf`.  A quotient
    that overflows saturates the step, as erf(+-inf) = +-1."""
    with np.errstate(over="ignore"):
        u /= eps
    u /= np.sqrt(2.0)
    _erf(u, out=u)
    u += 1.0
    u *= 0.5
    u *= st.a - st.b
    u += st.b
    return u


def _component_values(st: JumpExpStructure, eps: float, t, y: np.ndarray,
                      out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """The component's values at t on states y, its indicator factor smoothed
    at mollifier width eps (the raw jump at eps = 0; for a stack of points, a
    positive column of one width per point), written into ``out`` (fresh by
    default); all workspace is taken from ``scratch``."""
    shape = y.shape[1:]
    out = np.empty(shape) if out is None else out
    if scratch is None:
        scratch = np.empty(_workspace_size(t, shape))
    tmp, inside, node = _workspace(scratch, t, shape)
    reg = st.region
    rho = np.abs(y[st.coord], out=out)
    if reg.kind == "halfspace" and reg.axis != st.coord:  # an axis the component does not read
        factor = st.a if 0.0 <= reg.offset else st.b
    elif np.ndim(eps) == 0 and eps == 0.0:  # the indicator factor a or b, selected in place
        if reg.kind == "ball":
            np.less_equal(np.multiply(rho, st.scale, out=tmp), reg.radius, out=inside)
        else:
            np.less_equal(np.multiply(y[reg.axis], st.scale, out=tmp), reg.offset, out=inside)
        np.copyto(tmp, st.b)
        np.copyto(tmp, st.a, where=inside)
        factor = tmp
    elif reg.kind == "ball":
        factor = _smoothed_step(st, eps, np.subtract(reg.radius / st.scale, rho, out=tmp))
    else:
        factor = _smoothed_step(st, eps, np.subtract(reg.offset / st.scale, y[reg.axis], out=tmp))
    amp = _damped_amplitude(st, t, rho, node)
    amp *= factor
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
    proj_scale_ratio: float = 2.0,
) -> DriftSpec:
    """Bounded jump drift family: damped exponential amplitude times a region
    indicator, component k reading its own coordinate scaled by
    proj_scale_ratio^(k-1).

    The declared integral constants assume the non-determinism constants stay
    above ``LND_FLOOR``; the class validator measures against the actual
    scaling.  Summability of the declared constants is certified from the
    geometric parameter ratios, before any component is built.
    """
    if region is None:
        region = Region("halfspace", axis=0, offset=0.0)
    if weights.value(d_max) == 0.0:  # the weights never increase: the last is the least
        raise DomainError("family components need positive weights")
    # component d_max's decay rate holds the product of the two powers
    for name, ratio in (("proj_scale_ratio", proj_scale_ratio), ("decay_ratio", decay_ratio),
                        ("(decay_ratio * proj_scale_ratio)", decay_ratio * proj_scale_ratio)):
        try:
            top = ratio ** (d_max - 1)
        except OverflowError:  # a Python float power raises rather than give inf
            top = math.inf
        if not math.isfinite(top):
            raise DomainError(f"{name}^(d_max - 1) = {ratio}^{d_max - 1} overflows")
    c_ratio = amp_ratio / weights.ratio if weights.ratio else 0.0
    rate_ratio = decay_ratio * proj_scale_ratio * weights.ratio
    # a rate ratio that underflows to 0 lies far below any positive c_ratio
    d_ratio = c_ratio / rate_ratio if rate_ratio else (math.inf if c_ratio else 0.0)
    if c_ratio >= 1.0:
        raise DomainError(f"sup-bound constants not summable: tail ratio {c_ratio} >= 1")
    if d_ratio >= 1.0:
        raise DomainError(f"integral-bound constants not summable: tail ratio {d_ratio} >= 1")
    amps = amp_first * amp_ratio ** np.arange(d_max)
    decays = decay_first * decay_ratio ** np.arange(d_max)
    scales = proj_scale_ratio ** np.arange(d_max)
    lam = weights.head_array(d_max)
    peak = max(abs(a), abs(b))
    comps = []
    c_bounds = np.empty(d_max)
    d_bounds = np.empty(d_max)
    for k in range(d_max):
        st = JumpExpStructure(amp=float(amps[k]), decay=float(decays[k]),
                              scale=float(scales[k]), coord=k, region=region, a=a, b=b)
        comps.append(DriftComponent(
            fn=functools.partial(_component_values, st, 0.0),
            deps=(k,),
            sup_bound=float(amps[k]) * peak,
            decay_rate=float(decays[k]) * float(scales[k]) / 2.0,
            structure=st,
        ))
        # in Python floats a constant past the largest float is inf, which the
        # class check fails, and raises no overflow warning
        c_bounds[k] = st.amp * peak / float(lam[k])
        # integral of the envelope over the scaled coordinate:
        # amp*peak * int exp(-rate*lam_k|x|) dx = amp*peak * (2/rate) / lam_k
        rate = st.decay * st.scale * math.sqrt(LND_FLOOR) / 2.0
        vol = (math.inf if rate <= 0.0 else 2.0 / rate) / float(lam[k])
        d_bounds[k] = st.amp * peak * vol / float(lam[k])
    return DriftSpec(components=tuple(comps), weights=weights,
                     c_bounds=c_bounds, d_bounds=d_bounds)


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
                        t_end: float, rng) -> float:
    """integral over the dependency coordinate of sup_t |b_k(t, scaled
    embedding)|, by 400-node Gauss-Legendre quadrature over the envelope box.

    A component constant along the coordinate makes the integral diverge;
    that is detected by probing the envelope at the box edge.
    """
    deps = [c for c in comp.deps if c < d]
    sup_here = _sampled_sup(comp, d, t_end, rng, n=512)
    if not deps:
        return 0.0 if sup_here == 0.0 else math.inf
    if len(deps) > 1:
        raise DomainError(f"the class check integrates over one coordinate, not {len(deps)}")
    c = deps[0]

    def integrand(x):  # sup over a t grid
        y = np.zeros((d, x.size))
        y[c] = x * scaling[c]
        vals = np.zeros(x.size)
        for t in np.linspace(0.0, t_end, 5):
            vals = np.maximum(vals, np.abs(comp(t, y)))
        return vals

    radius = _maximization_box(comp) / scaling[c]
    edge = np.array([radius, -radius])
    if comp.decay_rate == 0.0 and np.max(integrand(edge)) > 1e-6 * max(sup_here, 1e-300):
        return math.inf
    x, w = gauss_legendre(400)
    return float(np.sum(w * radius * integrand(x * radius)))


def validate_drift_class(spec: DriftSpec, d: int, scaling: np.ndarray,
                         t_end: float = 1.0, seed: int = 0) -> ClassBoundsReport:
    """Check the declared sup and scaled-integral bounds on the first d components.

    The sup bound is checked by sampled maximization over the envelope box;
    the integral over the component's coordinate by Gauss-Legendre
    quadrature.
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
        int_m = _integral_over_deps(comp, d, scaling, t_end, rng)
        sup_b = spec.c_bounds[k] * lam[k]
        int_b = spec.d_bounds[k] * lam[k]
        # inf <= inf holds, so a non-finite measure or bound fails explicitly
        ok = np.all(np.isfinite([sup_m, sup_b, int_m, int_b])) and (
            sup_m <= sup_b * (1 + 1e-9) + 1e-12) and (
            int_m <= int_b * (1 + 1e-9) + 1e-12)
        entries.append(ComponentBoundsCheck(
            component=k + 1, sup_measured=sup_m, sup_bound=float(sup_b),
            integral_measured=int_m, integral_bound=float(int_b), passed=bool(ok)))
    return ClassBoundsReport(entries=tuple(entries), d_tested=d,
                             passed=all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# truncation and mollification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MollifiedDrift:
    """Smoothed truncation of the drift ``base`` to its first d components,
    acting on d coordinates.

    ``evaluator(t, Z, out=None)`` maps states Z to d drift rows under the
    time contract of :func:`evaluate` (a time t with Z of shape (d, m), or
    node times with Z of shape (d, n_nodes, m), the components then in
    lanes); ``gradient_evaluator(t, Z)`` returns the Jacobian stack (d, d, m)
    at one time.  The evaluator is the driver of :func:`evaluate` at width
    ``epsilon``, and calling the drift calls it.  A stack of P points has
    the tuples of their levels and widths as ``d`` and ``epsilon``, maps
    states of shape (max d, P, m) at one time to as many rows, and has no
    Jacobian (see :func:`mollify`).
    For the example family the smoothing of the indicator factor is evaluated
    in closed form along the jump's normal coordinate (an error-function
    profile); the damped amplitude is kept pointwise, so the evaluator is
    smooth everywhere except on the measure-zero amplitude ridge, where it
    stays Lipschitz.
    """

    base: DriftSpec
    d: int | tuple
    epsilon: float | tuple
    evaluator: object
    gradient_evaluator: object

    def __call__(self, t, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.evaluator(t, z, out=out)


def _mollified_structure_grad(st: JumpExpStructure, eps: float, t: float,
                              z: np.ndarray, d: int) -> np.ndarray:
    """Gradient rows (d, m) of one mollified structured component: only the
    row of its coordinate c is nonzero, and d|z_c|/dz_c = sign(z_c)."""
    c = st.coord
    out = np.zeros((d, z.shape[1]))
    rho = np.abs(z[c])
    amp = _damped_amplitude(st, t, rho.copy())
    sign = np.sign(z[c])
    damp = -(st.decay * st.scale / 2.0) * sign * amp
    reg = st.region
    if reg.kind == "halfspace":
        if reg.axis == c:
            u = (reg.offset / st.scale - z[c]) / eps
            out[c] = damp * (st.b + (st.a - st.b) * _norm_cdf(u))
            out[c] += amp * (-(st.a - st.b) * _norm_pdf(u) / eps)
        else:
            out[c] = damp * (st.a if 0.0 <= reg.offset else st.b)
    else:
        u = (reg.radius / st.scale - rho) / eps
        smooth = st.b + (st.a - st.b) * _norm_cdf(u)
        dsmooth_drho = -(st.a - st.b) * _norm_pdf(u) / eps
        out[c] = damp * smooth + amp * dsmooth_drho * sign
    return out


def _point_runs(keep: np.ndarray, widths: np.ndarray) -> tuple:
    """The maximal runs of consecutive points that all keep a component (the
    mask ``keep``) or all drop it, as (slice, their width column) or
    (slice, None) when dropped."""
    cut = [0, *(np.flatnonzero(keep[1:] != keep[:-1]) + 1).tolist(), keep.size]
    return tuple((slice(a, b), widths[a:b] if keep[a] else None) for a, b in zip(cut, cut[1:]))


def mollify(spec: DriftSpec, d, eps) -> MollifiedDrift:
    """Gaussian smoothing (unit mass) of width eps > 0 of the first d >= 1
    components of the drift in their d spatial coordinates; the rest are
    dropped.  Each of the d must be zero or carry its closed-form structure.

    With equal-length sequences d and eps, one entry per point, the result
    is their stack: one drift on states of shape (max d, P, m) at one time
    whose row k at point p is component k at width eps[p] if k < d[p] and
    exactly 0 otherwise, the floats of point p's own drift.  A component
    runs once per call on each run of consecutive points that keep it,
    which for points ordered by level is one prefix or suffix of the P
    axis.  Every point is checked: a finite positive width and an integer
    level >= 1."""
    stacked = np.ndim(d) > 0
    if np.ndim(eps) != np.ndim(d) or stacked and not 0 < len(d) == len(eps):
        raise DomainError("levels and widths must be two scalars or two equal-length, "
                          f"non-empty sequences, got {d!r} and {eps!r}")
    levels, widths = (list(d), list(eps)) if stacked else ([d], [eps])
    for dd, ee in zip(levels, widths):
        if not 0.0 < ee < math.inf:
            raise DomainError(f"mollifier width must be positive and finite, got {ee}")
        if not float(dd).is_integer():
            raise DomainError(f"truncation level must be an integer, got {dd}")
        if dd < 1:
            raise DomainError("truncation level must be >= 1")
    levels, widths = tuple(int(dd) for dd in levels), tuple(float(ee) for ee in widths)
    comps = spec.components[: max(levels)]
    for k, comp in enumerate(comps):
        if comp.structure is None and comp.sup_bound != 0.0:
            raise DomainError(f"component {k + 1} is nonzero and has no closed-form "
                              "structure to truncate and mollify")
    d, eps = (levels, widths) if stacked else (levels[0], widths[0])
    kernel_eps = eps
    if stacked:
        col = np.array(widths)[:, None]
        kernel_eps = tuple(_point_runs(np.array(levels) > k, col) for k in range(len(comps)))

    def gradient_evaluator(t: float, z: np.ndarray) -> np.ndarray:
        if stacked:
            raise DomainError("a stack of points has no Jacobian: mollify each point alone")
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.zeros((d, d, z.shape[1]))
        for k, comp in enumerate(comps):
            if comp.sup_bound != 0.0:
                out[k] = _mollified_structure_grad(comp.structure, eps, t, z, d)
        return out

    return MollifiedDrift(base=spec, d=d, epsilon=eps,
                          evaluator=functools.partial(_evaluate_components, comps, kernel_eps),
                          gradient_evaluator=gradient_evaluator)


# ---------------------------------------------------------------------------
# Lipschitz factorization
# ---------------------------------------------------------------------------


def lipschitz_estimate(md: MollifiedDrift, n_samples: int = 2048, seed: int = 0):
    """Estimate sup |d_i b_k| by sampled maximization and factor it as L_k M_i.

    The box covers the effective support from the declared envelopes; samples
    on the jump interface are included since the smoothed-step derivative
    peaks there.  The rank-1 factorization takes L as row maxima and M as the
    normalized column maxima, a conservative over-approximation with
    L_k * M_i >= measured sup for every pair.  A stack of points, which has
    no Jacobian, is rejected.
    """
    if isinstance(md.d, tuple):
        raise DomainError("a stack of points has no Jacobian: estimate each point alone")
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
    # an overflowing drift leaves the estimate non-finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (0.0, 0.5, 1.0):
            J = md.gradient_evaluator(t, z)
            G = np.maximum(G, np.max(np.abs(J), axis=2))
        rowmax = G.max(axis=1)
        L = rowmax.copy()
        safe = np.where(rowmax > 0, rowmax, 1.0)
        M = (G / safe[:, None]).max(axis=0)
    return L, M, G
