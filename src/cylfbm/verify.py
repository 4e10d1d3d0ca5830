"""Numerical checks for the combinatorial and Gaussian lemmas the construction
rests on: shuffle decompositions of simplex integrals, permanent bounds for
Gaussian absolute moments, conditioning identities, beta-function simplex
integrals, kernel increment bounds, the Haar-basis operator inequality, a
factorial-product bound, and the Fourier decay of the occupation measure of
the noise the commands sample.

Identities are asserted at fixed tolerances, their integrals evaluated by
fixed Gauss-Legendre rules (:func:`cylfbm.fbm.gauss_legendre`) rather than
sampled; inequalities with unspecified constants carry Monte Carlo
three-standard-error slack.  Every check returns a machine-readable result
with its measured slack.  The checks with large rules or samples evaluate
them in blocks of about :data:`BLOCK_ELEMENTS` elements per array, which
changes no result bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fbm import (
    DomainError,
    TimeGrid,
    as_hurst,
    c_factor,
    cholesky_factor,
    covariance_matrix,
    gauss_legendre,
    kernel_values,
    schur_conditional_variance,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one lemma check."""

    check_id: str
    status: bool
    measured: float
    bound: float
    slack: float
    details: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {"check_id": self.check_id, "status": "pass" if self.status else "FAIL",
                "measured": self.measured, "bound": self.bound, "slack": self.slack}


# array elements a blocked check evaluates at once: every block length derives from it
BLOCK_ELEMENTS = 2 ** 14


def _blocks(n: int, size: int, least: int = 2) -> list:
    """Consecutive slices covering range(n), each of as many items of ``size``
    elements as BLOCK_ELEMENTS holds but at least ``least`` (all n if fewer);
    a shorter last block joins the one before it.  Two items at least keep a
    block's numbers those of the whole array: a one-row matrix product takes
    another BLAS path, and a one-column array is summed in another order."""
    step = max(least, BLOCK_ELEMENTS // size)
    starts = list(range(0, max(n - least + 1, 1), step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

MAX_SHUFFLE_ITEMS = 12


@dataclass(frozen=True)
class MultiIndex:
    """Non-negative integer exponents arranged as d blocks of n entries."""

    entries: tuple  # shape (d, n), row k holds the exponents of block k

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=int)
        if arr.ndim != 2 or np.any(arr < 0):
            raise DomainError("a multi-index is a d x n array of non-negative integers")
        object.__setattr__(self, "entries", tuple(tuple(int(v) for v in row)
                                                  for row in arr))

    @property
    def norm(self) -> int:
        return int(np.sum(self.entries))

    def block_sums(self) -> np.ndarray:
        """Per-block exponent totals |alpha^(k)|."""
        return np.asarray(self.entries, dtype=int).sum(axis=1)


@dataclass(frozen=True)
class ShuffleSet:
    """All interleavings of two ordered blocks of sizes m and n.

    ``permutations[p][j]`` is the (0-based) item placed at position j; items
    0..m-1 form the first block, m..m+n-1 the second, each in its own order.
    """

    m: int
    n: int
    permutations: tuple

    def __len__(self) -> int:
        return len(self.permutations)


def shuffle_enumerate(m: int, n: int) -> ShuffleSet:
    """Exhaustively enumerate the two-block shuffles (cap m + n <= 12)."""
    if m < 1 or n < 1:
        raise DomainError("both block sizes must be at least 1")
    if m + n > MAX_SHUFFLE_ITEMS:
        raise DomainError(f"shuffle enumeration capped at {MAX_SHUFFLE_ITEMS} items")
    total = m + n
    perms = []
    for first_positions in itertools.combinations(range(total), m):
        second_positions = [p for p in range(total) if p not in first_positions]
        perm = [0] * total
        for item, pos in enumerate(first_positions):
            perm[pos] = item
        for item, pos in enumerate(second_positions):
            perm[pos] = m + item
        perms.append(tuple(perm))
    return ShuffleSet(m=m, n=n, permutations=tuple(perms))


def _right_cumulative_integral(gvals: np.ndarray, dx: float) -> np.ndarray:
    """I(x_i) = integral_{x_i}^{x_end} g by cumulative Simpson on equal steps
    (Cartwright 2017): each step's integral from the parabola through it and
    its right neighbour, the left one on every second step and the last.
    Needs at least three values."""
    def steps(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    fwd, bwd = steps(gvals), steps(gvals[::-1])[::-1]
    sub = np.empty(len(gvals) - 1)
    sub[:-1:2], sub[1::2], sub[-1] = fwd[::2], bwd[::2], bwd[-1]
    cum = np.concatenate(([0.0], np.cumsum(sub)))
    return cum[-1] - cum


def _simplex_integral(fvals: np.ndarray, order, dx: float) -> float:
    """Iterated integral over s < u_1 < ... < u_len < t of the ordered product."""
    G = np.ones(fvals.shape[1])
    for j in reversed(order):
        G = _right_cumulative_integral(fvals[j] * G, dx)
    return float(G[0])


def shuffle_integral_check(fs, s: float, t: float, m: int, n: int,
                           n_grid: int = 2000) -> CheckResult:
    """Product of two simplex integrals versus the sum over interleavings.

    ``fs`` holds m + n integrable callables; the first m belong to the first
    simplex factor.  Nested quadrature cost caps the check at m + n <= 5.
    """
    if m + n > 5:
        raise DomainError("nested quadrature capped at five variables")
    if len(fs) != m + n:
        raise DomainError("need one function per factor")
    if n_grid < 2:
        raise DomainError("cumulative Simpson needs at least two grid steps")
    xs = np.linspace(s, t, n_grid + 1)
    dx = (t - s) / n_grid
    fvals = np.stack([np.asarray([f(x) for x in xs], dtype=float) for f in fs])
    lhs = (_simplex_integral(fvals, range(m), dx)
           * _simplex_integral(fvals, range(m, m + n), dx))
    rhs = 0.0
    for perm in shuffle_enumerate(m, n).permutations:
        rhs += _simplex_integral(fvals, perm, dx)
    gap = abs(lhs - rhs)
    tol = 1e-6 * max(1.0, abs(lhs), abs(rhs))
    return CheckResult("shuffle_integral", gap <= tol, gap, tol, tol - gap,
                       {"lhs": lhs, "rhs": rhs, "m": m, "n": n})


def prod_sum_check(a, n: int, d: int) -> CheckResult:
    """Sum over index tuples of products versus the n-th power of the partial sum."""
    a = np.asarray(a, dtype=float)
    if d ** n > 10 ** 6:
        raise DomainError("enumeration capped at 1e6 terms")
    lhs = 0.0
    for combo in itertools.product(range(d), repeat=n):
        lhs += float(np.prod(a[list(combo)]))
    rhs = float(np.sum(a[:d]) ** n)
    gap = abs(lhs - rhs)
    tol = 1e-13 * max(1.0, abs(rhs))
    return CheckResult("prod_sum", gap <= tol, gap, tol, tol - gap,
                       {"lhs": lhs, "rhs": rhs})


# ---------------------------------------------------------------------------
# permanents and Gaussian moments
# ---------------------------------------------------------------------------

MAX_PERMANENT_SIZE = 10


def permanent(matrix) -> float:
    """Permanent by Ryser's inclusion-exclusion formula (size capped at 10)."""
    A = np.asarray(matrix, dtype=float)
    nn = A.shape[0]
    if A.shape != (nn, nn):
        raise DomainError("permanent needs a square matrix")
    if nn > MAX_PERMANENT_SIZE:
        raise DomainError(f"permanent capped at size {MAX_PERMANENT_SIZE}")
    total = 0.0
    for mask in range(1, 1 << nn):
        cols = [j for j in range(nn) if mask >> j & 1]
        rowsums = A[:, cols].sum(axis=1)
        total += (-1) ** (nn - len(cols)) * float(np.prod(rowsums))
    return total


def _permanent_naive(matrix) -> float:
    A = np.asarray(matrix, dtype=float)
    nn = A.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(nn)):
        total += float(np.prod(A[range(nn), perm]))
    return total


def permanent_check(seed: int = 0, size: int = 5) -> CheckResult:
    """Ryser versus direct factorial enumeration on a random matrix."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(size, size))
    ry = permanent(A)
    naive = _permanent_naive(A)
    gap = abs(ry - naive)
    tol = 1e-12 * max(1.0, abs(naive))
    return CheckResult("permanent", gap <= tol, gap, tol, tol - gap,
                       {"ryser": ry, "naive": naive})


def _replicated_covariance(cov: np.ndarray, counts) -> np.ndarray:
    idx = np.repeat(np.arange(cov.shape[0]), counts)
    return cov[np.ix_(idx, idx)]


def _abs_products(cov: np.ndarray, n_mc: int, seed: int) -> np.ndarray:
    """prod_i |X_i| for the n_mc draws X of ``rng.multivariate_normal(0, cov,
    n_mc, method="cholesky")``, bit for bit: rows of standard normals times
    the transposed Cholesky factor, drawn from one Generator a block of rows
    at a time."""
    rng = np.random.default_rng(seed)
    factor_t = np.linalg.cholesky(cov).T
    out = np.empty(n_mc)
    for b in _blocks(n_mc, len(cov)):
        out[b] = np.prod(np.abs(rng.standard_normal((b.stop - b.start, len(cov))) @ factor_t),
                         axis=1)
    return out


def gaussian_moment_bounds_check(cov, multi_index, n_mc: int = 200_000,
                                 seed: int = 0) -> CheckResult:
    """Absolute-moment bound through the permanent, and the diagonal
    factorial bound for the replicated covariance.

    Three-standard-error slack on the Monte Carlo side; the permanent
    comparison is deterministic.  The draws come in blocks of rows holding
    BLOCK_ELEMENTS normals (4096 rows in dimension 4); only the n_mc
    products outlive a block.  A multi-index that is not one exponent per
    coordinate, or that passes the permanent cap, is rejected before any draw.
    """
    cov = np.asarray(cov, dtype=float)
    nn = cov.shape[0]
    if nn > 8:
        raise DomainError("moment check capped at dimension 8")
    if n_mc < 2:
        raise DomainError("the Monte Carlo standard error needs n_mc >= 2")
    if isinstance(multi_index, MultiIndex):
        multi_index = multi_index.block_sums()
    counts = 2 * np.asarray(multi_index, dtype=int)
    if counts.shape != (nn,) or np.any(counts < 0):
        raise DomainError(f"need one exponent >= 0 per coordinate of the {nn}-dim covariance")
    if counts.sum() > MAX_PERMANENT_SIZE:
        raise DomainError("replicated covariance exceeds the permanent cap")
    prod_abs = _abs_products(cov, n_mc, seed)
    mean = float(np.mean(prod_abs))
    se = float(np.std(prod_abs, ddof=1) / math.sqrt(n_mc))
    bound = math.sqrt(permanent(cov))
    mc_ok = mean - 3 * se <= bound
    R = _replicated_covariance(cov, counts)
    perm_R = permanent(R) if R.size else 1.0
    fact_bound = math.factorial(int(counts.sum())) * float(np.prod(np.diag(R))) \
        if R.size else 1.0
    perm_ok = perm_R <= fact_bound * (1 + 1e-12)
    return CheckResult("gauss_moment_bounds", bool(mc_ok and perm_ok), mean,
                       bound, bound - (mean - 3 * se),
                       {"mc_mean": mean, "mc_se": se, "sqrt_perm": bound,
                        "perm_replicated": perm_R, "factorial_bound": fact_bound})


def gaussian_conditioning_check(cov, seed: int = 0) -> CheckResult:
    """Determinant factorization into conditional variances, monotonicity of
    conditional variance under larger conditioning sets (on ``seed``'s random
    subsets), and the reduction of a weighted Gaussian integral to a
    one-dimensional one, in dimension 1 to 3.

    The integral identity is checked, at 1e-4 relative, by a tensor 64-node
    Gauss-Legendre rule sheared along the Cholesky factor of cov^-1.  The rule
    is evaluated one slab of leading-axis nodes at a time, each slab holding
    BLOCK_ELEMENTS nodes but two leading nodes at least (4 in dimension 3):
    its trailing axes are contracted per slab, the leading axis once all
    slabs are in.
    """
    cov = np.asarray(cov, dtype=float)
    nn = cov.shape[0]
    if nn > 3:
        raise DomainError("conditioning check capped at dimension 3")
    # the rule's factor: cov^-1 = L L^T exists exactly when cov is positive definite
    try:
        L = np.linalg.cholesky(np.linalg.inv(cov))
    except np.linalg.LinAlgError:
        raise DomainError("covariance must be nonsingular positive definite") from None
    det = math.exp(np.linalg.slogdet(cov)[1])
    prod = 1.0
    for j in range(nn):
        prod *= schur_conditional_variance(cov, j, list(range(j)))
    det_gap = abs(det - prod) / max(det, 1e-30)
    det_ok = det_gap <= 1e-10

    rng = np.random.default_rng(seed)
    mono_ok = True
    worst_mono = 0.0
    for _ in range(10):
        tgt = int(rng.integers(nn))
        others = [j for j in range(nn) if j != tgt]
        rng.shuffle(others)
        cut = int(rng.integers(1, len(others) + 1)) if others else 0
        small = others[:max(cut - 1, 0)]
        big = others[:cut]
        v_small = schur_conditional_variance(cov, tgt, small)
        v_big = schur_conditional_variance(cov, tgt, big)
        worst_mono = max(worst_mono, v_big - v_small)
        if v_big > v_small + 1e-10:
            mono_ok = False

    # weighted integral reduction with g(v) = v^2
    sigma1_sq = schur_conditional_variance(cov, 0, list(range(1, nn)))
    rhs = (2 * math.pi) ** ((nn - 1) / 2.0) / math.sqrt(det) * math.sqrt(2 * math.pi) \
        / sigma1_sq
    # the integrand is a Gaussian in v with covariance cov^-1 = L L^T: at v = L (12 x),
    # v_i spans 12 conditional deviations around its mean given v_1 .. v_{i-1}; the
    # exponent reads cov itself, since L^T cov L = I would assume the identity checked
    x, wq = gauss_legendre(64)
    nodes = 12.0 * x
    lead = np.empty(64)
    for b in _blocks(64, 64 ** (nn - 1)):
        xs = np.ix_(nodes[b], *[nodes] * (nn - 1))
        v = [sum(L[i, j] * xs[j] for j in range(i + 1)) for i in range(nn)]
        vals = v[0] * v[0] * np.exp(-0.5 * sum(cov[i, j] * v[i] * v[j]
                                               for i in range(nn) for j in range(nn)))
        for _ in range(nn - 1):
            vals = vals @ wq
        lead[b] = vals
    lhs = 12.0 ** nn * float(np.prod(np.diag(L))) * float(lead @ wq)
    cd_gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    ok = bool(det_ok and mono_ok and cd_gap <= 1e-4)
    return CheckResult("gauss_conditioning", ok, cd_gap, 1e-4, 1e-4 - cd_gap,
                       {"det_gap": det_gap, "monotonicity_worst": worst_mono,
                        "cd_lhs": lhs, "cd_rhs": rhs})


# ---------------------------------------------------------------------------
# beta-function simplex integrals and kernel increment bounds
# ---------------------------------------------------------------------------


def _gauss01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, wq = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * wq


_DELTA_FLOOR = 1e-200
# graded panel edges in x: ratio 0.2 keeps the 16-node error on x^c near 1e-14
_GRADED_EDGES = 0.2 ** np.arange(1, 23)


def _graded_edges(p: float):
    """The substitution exponent kap and the fixed panel edges in x of
    :func:`_graded_half` for an integrand like delta^p at 0."""
    kap = p + 1.0 if p < 0.0 else 1.0
    n_uni = math.ceil(4.0 / kap)
    return kap, np.union1d(_GRADED_EDGES, np.arange(n_uni + 1) / n_uni)


def _graded_half(fn, p: float, half, breaks=()) -> np.ndarray:
    """integral_0^half fn(delta) d delta, one column per entry of ``half``.

    fn maps delta arrays of shape (columns, panels, nodes) to values, behaves
    like delta^p at 0 (p > -1), and is smooth between the column's ``breaks``
    (shape (columns, k); entries outside (0, half) are ignored).  delta =
    half x^(1/kap), kap = p + 1 for p < 0, flattens the endpoint; panels in x
    are graded toward 0 for the remaining fractional powers, plus ceil(4/kap)
    uniform ones for the fast variation near x = 1 at small kap.  A column's
    value depends on its own entries only, bit for bit among two columns or
    more.
    """
    half = np.asarray(half, dtype=float)
    kap, fixed = _graded_edges(p)
    breaks = np.asarray(breaks, dtype=float).reshape(len(half), -1)
    xb = np.clip(breaks / half[:, None], 0.0, 1.0) ** kap
    edges = np.sort(np.hstack([np.broadcast_to(fixed, (len(half), len(fixed))), xb]), axis=1)
    width = np.diff(edges, axis=1)[..., None]
    gx, gw = _gauss01(16)
    u = np.maximum((edges[:, :-1, None] + width * gx) ** (1.0 / kap), _DELTA_FLOOR)
    hc = half[:, None, None]
    return (fn(hc * u) * (hc * u ** (1.0 - kap) / kap) * (width * gw)).sum(axis=(1, 2))


def beta_identity_gap(a: float, b: float, theta: float, s2: float) -> float:
    """Gap in the two-exponent cell identity
    integral (s2-s)^a (s-theta)^b ds = G(a+1)G(b+1)/G(a+b+2) (s2-theta)^(a+b+1)."""
    if a <= -1 or b <= -1:
        raise DomainError("exponents must exceed -1")
    length = s2 - theta
    half = np.array([0.5 * length])
    val = float(_graded_half(lambda dl: (length - dl) ** a * dl ** b, b, half)[0]
                + _graded_half(lambda dr: dr ** a * (length - dr) ** b, a, half)[0])
    exact = (math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
             * length ** (a + b + 1))
    return abs(val - exact) / max(abs(exact), 1e-30)


def _kernel_increment_from_theta(H: float, theta: float, delta, theta_p: float) -> np.ndarray:
    """K(theta + delta, theta) - K(theta + delta, theta_p), stable for tiny delta."""
    from .fbm import _log_kernel

    return np.exp(_log_kernel(H, theta + delta, theta, log_diff=np.log(delta))) \
        - kernel_values(H, theta + delta, theta_p)


def _increment_sign_changes(H: float, theta: float, theta_p: float, span: float) -> np.ndarray:
    """Zeros in (0, span] of delta -> K(theta + delta, theta) - K(theta + delta,
    theta_p): the kinks of its absolute value, by a log-grid scan and the
    Illinois variant of regula falsi (Dowell & Jarratt 1971) in each bracket,
    to a width of 1e-15 + 4 eps |root|.  The refinement runs on Python floats,
    a tenth of the cost of a one-element array evaluation."""
    f = lambda delta: _kernel_increment_from_theta(H, theta, delta, theta_p)
    grid = span * np.logspace(-12.0, 0.0, 400)
    fg = f(grid)
    roots = []
    for i in np.flatnonzero(np.sign(fg[:-1]) * np.sign(fg[1:]) < 0):
        a, b, fa, fb = float(grid[i]), float(grid[i + 1]), float(fg[i]), float(fg[i + 1])
        while abs(b - a) > 1e-15 + 4 * math.ulp(1.0) * abs(b) and fb != 0.0:
            c = b - fb * (b - a) / (fb - fa)
            fc = float(f(c))
            # the root lies between b and c: b becomes the far end; else the
            # far end stays and its value halves, so it moves on the next step
            a, fa = (b, fb) if (fc < 0.0) != (fb < 0.0) else (a, 0.5 * fa)
            b, fb = c, fc
        roots.append(b)
    return np.array(roots)


def _pchip(x: np.ndarray, y: np.ndarray):
    """Monotone cubic Hermite interpolant of y at the increasing knots x (at
    least three; Fritsch & Carlson 1980), the PCHIP rule: inner slopes the
    weighted harmonic mean of the adjacent secants (0 where they differ in
    sign or one is 0), Moler's one-sided three-point slopes at the ends, and
    the end cubics extrapolated."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

    def end_slope(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0) else e

    d[0], d[-1] = end_slope(h[0], h[1], m[0], m[1]), end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def interp(xq):
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(h) - 1)
        s = xq - x[i]
        return c0[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)

    return interp


def _increment_shape(H: float, gamma: float, s, theta: float, theta_p: float):
    return ((theta - theta_p) / (theta * theta_p)) ** gamma \
        * theta ** (H - 0.5 - gamma) * (np.asarray(s) - theta) ** (H - 0.5 - gamma)


def _weighted_simplex_integral(H: float, w, eps_flags, theta: float, theta_p: float,
                               t: float, gamma: float, n_grid: int):
    """Nested quadrature of the weighted simplex integral with adjacent
    differences (s_j - s_{j-1})^{w_j}, s_0 = theta, and optional
    kernel-increment factors at the flagged levels.

    All level integrands are handled in distance-from-theta form so the
    kernel singularity at s = theta stays representable.  Each inner level is
    tabulated at the offsets by two graded-rule halves per offset and
    interpolated by :func:`_pchip`; a block of offsets (columns) holds about
    BLOCK_ELEMENTS rule nodes, two columns at least (28 columns at run_all's
    first level).  Returns the integral, the offsets and the level tables.
    """
    n = len(w)
    span = t - theta
    offsets = span * np.linspace(0.0, 1.0, n_grid + 1) ** 2.0
    col, half = offsets[1:, None, None], 0.5 * offsets[1:]
    kinks = _increment_sign_changes(H, theta, theta_p, span)

    def kappa(flag, delta):
        return np.abs(_kernel_increment_from_theta(H, theta, delta, theta_p)) if flag else 1.0

    # phi(delta) is the inner integrand at s = theta + delta, smooth between knots
    phi = lambda delta: kappa(eps_flags[0], delta) * delta ** w[0]
    knots = kinks if eps_flags[0] else np.empty(0)
    left_exp = w[0] + (H - 0.5 - gamma) * eps_flags[0]
    levels = []
    for j in range(n - 1):
        w_next = w[j + 1]
        vals = np.zeros(len(offsets))
        left_breaks, right_breaks = np.tile(knots, (n_grid, 1)), offsets[1:, None] - knots
        # rule nodes per column, at most: 16 per panel of the larger half
        nodes = 16 * (max(len(_graded_edges(p)[1]) for p in (left_exp, w_next)) + len(knots))
        for b in _blocks(n_grid, nodes):
            c = col[b]
            vals[1:][b] = _graded_half(lambda dl: phi(dl) * (c - dl) ** w_next,
                                       left_exp, half[b], left_breaks[b]) \
                + _graded_half(lambda dr: phi(c - dr) * dr ** w_next,
                               w_next, half[b], right_breaks[b])
        levels.append(vals)
        interp = _pchip(offsets, vals)
        phi = lambda delta, _ip=interp, _f=eps_flags[j + 1]: kappa(_f, delta) * _ip(delta)
        knots = np.concatenate([offsets, kinks if eps_flags[j + 1] else []])
        left_exp = left_exp + w_next + 1.0 + (H - 0.5 - gamma) * eps_flags[j + 1]
    total = float(_graded_half(phi, left_exp, np.array([span]), knots[None, :])[0])
    return total, offsets, levels


def simplex_beta_check(w, eps_flags, H, theta: float, theta_p: float, t: float,
                       n: int, gamma: float | None = None,
                       n_grid: int = 160) -> CheckResult:
    """Base two-exponent identity plus the n-fold weighted simplex bound.

    The n-fold integral carries adjacent-difference weights w_j and optional
    kernel-increment factors (eps flags); it is compared as an inequality
    against the closed-form bound with the fitted increment constant, and the
    achieved ratio is recorded.
    """
    H = as_hurst(H)
    if n > 3:
        raise DomainError("nested quadrature capped at n = 3")
    if n_grid < 2:
        raise DomainError("the level interpolant needs at least two grid steps")
    w = [float(x) for x in w]
    eps_flags = [int(e) for e in eps_flags]
    if len(w) != n or len(eps_flags) != n:
        raise DomainError("need one weight and one flag per level")
    gamma = gamma if gamma is not None else H / 2.0
    if not (0.0 < gamma < H):
        raise DomainError("gamma must lie in (0, H)")
    # level exponents with the increment envelope folded in; the bound is their
    # Dirichlet integral, since (s_j - theta)^(H-1/2-gamma) <= (s_j - s_{j-1})^(...)
    a = [wj + (H - 0.5 - gamma) * ej for wj, ej in zip(w, eps_flags)]
    for j in range(n):
        if a[j] <= -1.0:
            raise DomainError(f"level {j + 1} exponent violates the integrability constraint")

    base_gap = beta_identity_gap(-0.3, -0.4, theta, 0.5 * (theta + t))

    # fitted constant for the kernel-increment envelope on this (theta, theta');
    # fit over interior sample points, then use it in the bound
    s_fit = np.linspace(theta + 1e-4 * (t - theta), t - 1e-6, 400)
    ratios = np.abs(_kernel_increment_from_theta(H, theta, s_fit - theta, theta_p)) \
        / _increment_shape(H, gamma, s_fit, theta, theta_p)
    c_fit = float(np.max(ratios)) * 1.05

    kfac = c_fit * ((theta - theta_p) / (theta * theta_p)) ** gamma \
        * theta ** (H - 0.5 - gamma)

    lhs = _weighted_simplex_integral(H, w, eps_flags, theta, theta_p, t, gamma, n_grid)[0]

    pi_const = math.prod(math.gamma(aj + 1.0) for aj in a) / math.gamma(sum(a) + n + 1.0)
    bound = kfac ** sum(eps_flags) * pi_const * (t - theta) ** (sum(a) + n)
    ratio = lhs / bound if bound > 0 else math.inf
    ok = base_gap <= 1e-6 and lhs <= bound * (1 + 1e-9)
    return CheckResult("simplex_beta", bool(ok), lhs, bound, bound - lhs,
                       {"base_identity_gap": base_gap, "ratio": ratio,
                        "fitted_constant": c_fit})


def kernel_increment_bound_check(H, t: float, gamma: float, beta: float,
                                 n_samples: int = 1000, seed: int = 0) -> CheckResult:
    """Increment envelope of the kernel in its second argument, plus
    finiteness and refinement stability of the smoothness double integral.

    The constant is fitted on half the sampled pairs and verified with a
    factor-2 headroom on the other half; the double integral value must move
    less than 5% from the fixed 64-node Gauss-Legendre rules (per level and
    end) to the 128-node ones.
    """
    H = as_hurst(H)
    if not (0.0 < gamma < H):
        raise DomainError("gamma must lie in (0, H)")
    if not (0.0 < beta < 0.5):
        raise DomainError("beta must lie in (0, 1/2)")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.05 * t, 0.95 * t, size=n_samples)
    theta_p = theta * rng.uniform(0.05, 0.98, size=n_samples)
    lhs = np.abs(kernel_values(H, t, theta) - kernel_values(H, t, theta_p))
    shape = c_factor(H) * ((theta - theta_p) / (theta * theta_p)) ** gamma \
        * theta ** (H - 0.5 - gamma) * (t - theta) ** (H - 0.5 - gamma)
    ratio = lhs / shape
    half = n_samples // 2
    c_fit = float(np.max(ratio[:half]))
    holds = bool(np.all(ratio[half:] <= 2.0 * c_fit))

    def inner(th: np.ndarray, n_nodes: int) -> np.ndarray:
        """integral over theta' in (0, th) for a column of th, fixed rules after
        flattening the theta'->0 singularity; the quadratic-cancellation
        sliver right below th carries negligible mass and is skipped."""
        k_th = kernel_values(H, t, th)
        x, wq = _gauss01(n_nodes)
        mid = 0.5 * th
        # left part: theta' = v^(1/kapL), kapL matches the theta'^(2H-1) blowup
        kapL = 2 * H
        v = x * mid ** kapL
        wv = wq * mid ** kapL
        tp = v ** (1.0 / kapL)
        dk = kernel_values(H, t, tp) - k_th
        left = np.sum(wv * dk * dk / (th - tp) ** (1.0 + 2 * beta)
                      * tp ** (1.0 - kapL) / kapL, axis=1)
        # right part: theta' = th - delta; integrand ~ delta^(1-2beta) near 0
        delta = mid * (1e-9 + (1.0 - 1e-9) * x)
        wd = wq * mid
        dk = kernel_values(H, t, th - delta) - k_th
        right = np.sum(wd * dk * dk / delta ** (1.0 + 2 * beta), axis=1)
        return left + right

    def outer_value(n_nodes: int) -> float:
        # the inner integral behaves like offset^(2H-1-2beta) at both ends;
        # substitute v = offset^kap.  The right end is truncated where the
        # kernel values near t lose all precision; the discarded tail mass
        # fraction ~ off_min^kap stays below the stability threshold.
        kap = 2 * H - 2 * beta
        x, wq = _gauss01(n_nodes)
        total = 0.0
        for from_right in (False, True):
            off_min = 1e-10 * t if from_right else 1e-15 * t
            lo, hi = off_min ** kap, (0.5 * t) ** kap
            off = (lo + (hi - lo) * x) ** (1.0 / kap)
            th = t - off if from_right else off
            total += float(np.sum((hi - lo) * wq * inner(th[:, None], n_nodes)
                                  * off ** (1.0 - kap) / kap))
        return 2.0 * total  # symmetry in (theta, theta')

    coarse = outer_value(64)
    fine = outer_value(128)
    stable = abs(fine - coarse) <= 0.05 * abs(fine)
    ok = holds and math.isfinite(fine) and stable
    return CheckResult("kernel_increment", bool(ok), float(np.max(ratio)), 2.0 * c_fit,
                       2.0 * c_fit - float(np.max(ratio[half:])),
                       {"fitted_constant": c_fit, "double_integral": fine,
                        "refinement_change": abs(fine - coarse) / max(abs(fine), 1e-30)})


# ---------------------------------------------------------------------------
# Haar-basis operator inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaarCheckSpec:
    """Scaling exponents 0 < alpha < beta < 1/2, a positive rate gamma, and
    the dyadic resolution level of the check."""

    alpha: float
    beta: float
    gamma: float = 1.0
    level: int = 8

    def __post_init__(self):
        if not (0.0 < self.alpha < self.beta < 0.5):
            raise DomainError("need 0 < alpha < beta < 1/2")
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")
        if self.level > 12:
            raise DomainError("resolution level capped at 12")


def haar_coefficients(cell_values: np.ndarray) -> tuple:
    """Normalized Haar coefficients of a piecewise-constant f on 2^L cells.

    Returns (c0, details) with details[i] the level-i coefficient array; the
    expansion satisfies the Parseval identity with the L2([0,1]) norm.
    """
    vals = np.asarray(cell_values, dtype=float)
    L = int(round(math.log2(len(vals))))
    if 2 ** L != len(vals):
        raise DomainError("cell count must be a power of two")
    details = []
    current = vals.copy()
    width = 1.0 / len(vals)
    for lev in range(L - 1, -1, -1):
        a = current[0::2]
        b = current[1::2]
        cellw = width * 2 ** (L - 1 - lev)
        detail = 2 ** (lev / 2.0) * (a - b) * cellw
        details.append(detail)
        current = 0.5 * (a + b)
    details.reverse()
    c0 = float(current[0])
    return c0, details


def haar_operator_check(spec: HaarCheckSpec, f) -> CheckResult:
    """Scaling-operator norm inequality in the Haar basis.

    ``f`` is a callable on [0,1] or an array of cell values at the requested
    resolution.  The operator multiplies the level-i coefficients by 2^(i
    alpha) and fixes the constant; its squared norm must be bounded by twice
    the squared norm plus the weighted squared smoothness double integral,
    which is evaluated in closed form for the piecewise-constant projection.
    """
    L = spec.level
    ncells = 2 ** L
    width = 1.0 / ncells
    if callable(f):
        centers = (np.arange(ncells) + 0.5) * width
        vals = np.asarray([f(x) for x in centers], dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
        if len(vals) != ncells:
            raise DomainError("cell values must match the resolution level")
    c0, details = haar_coefficients(vals)
    norm_sq = c0 ** 2 + sum(float(np.sum(dd ** 2)) for dd in details)
    op_sq = c0 ** 2 + sum(
        float(np.sum((2.0 ** (i * spec.alpha) * dd) ** 2))
        for i, dd in enumerate(details)
    )
    # smoothness double integral of the piecewise-constant representative;
    # lag_sq sums (v_i - v_j)^2 over ordered cell pairs, binned by the lag |i - j|,
    # in row blocks of at most 2^18 pairs (one block up to level 9)
    b2 = spec.beta

    def phi(r):
        return r ** (1.0 - 2 * b2) / (2 * b2 * (1.0 - 2 * b2))

    cells = np.arange(ncells)
    rows = 2 ** 18 // ncells  # at least 64 rows: the level is capped at 12
    lag_sq = np.zeros(ncells)
    for lo in range(0, ncells, rows):
        blk = slice(lo, lo + rows)
        lag_sq += np.bincount(np.abs(cells[blk, None] - cells).ravel(),
                              weights=((vals[blk, None] - vals) ** 2).ravel(),
                              minlength=ncells)
    lag = cells[1:] * width
    Jk = 2 * phi(lag) - phi(lag - width) - phi(lag + width)
    dbl = float(lag_sq[1:] @ Jk)
    rhs = 2.0 * (norm_sq + dbl / (1.0 - 2.0 ** (-2 * (spec.beta - spec.alpha))))
    ok = op_sq <= rhs * (1 + 1e-12)
    return CheckResult("haar_operator", bool(ok), op_sq, rhs, rhs - op_sq,
                       {"norm_sq": norm_sq, "double_integral": dbl})


# ---------------------------------------------------------------------------
# factorial-product bound and occupation density
# ---------------------------------------------------------------------------


def stirling_bound_check(multi_indices) -> CheckResult:
    """Product of (2 a_k)! against the closed-form bound through Gamma(5|a|/2 + 1).

    Entries are MultiIndex objects (checked through their per-block sums) or
    plain sequences of block sums, each at least 1.
    """
    worst = -math.inf
    ok = True
    count = 0
    for count, alpha in enumerate(multi_indices, 1):
        if isinstance(alpha, MultiIndex):
            alpha = alpha.block_sums()
        alpha = np.asarray(alpha, dtype=int)
        if np.any(alpha < 1):
            raise DomainError("all block sums must be at least 1")
        d = len(alpha)
        if d > 8:
            raise DomainError("dimension capped at 8")
        tot = int(alpha.sum())
        log_lhs = sum(math.lgamma(2 * ak + 1.0) for ak in alpha.tolist())
        log_rhs = (d / 2.0) * math.log(2 * math.pi) + tot / 2.0 \
            + math.lgamma(2.5 * tot + 1.0) - 0.5 * math.log(5 * math.pi * tot)
        worst = max(worst, log_lhs - log_rhs)
        if log_lhs > log_rhs:
            ok = False
    return CheckResult("stirling_bound", bool(ok), worst, 0.0, -worst,
                       {"n_indices": count})


def _kummer(s: float, z: float) -> float:
    """Kummer's 1F1(s; 1 + s; -z) = s z^-s gamma(s, z) for s > 0, z >= 0, through
    the lower incomplete gamma: its power series e^-z sum_n z^n / ((s+1)...(s+n))
    below z = s + 1; above, Gamma(s + 1) z^-s less s e^-z z^-s Gamma(s, z), the
    upper one by its continued fraction (modified Lentz)."""
    if z < s + 1.0:
        term = total = 1.0
        n = 0
        while term > 1e-17 * total:
            n += 1
            term *= z / (s + n)
            total += term
        return math.exp(-z) * total
    # z^-s e^z Gamma(s, z) = 1/(z + 1 - s - 1 (1 - s)/(z + 3 - s - 2 (2 - s)/(z + 5 - s - ...)))
    b = z + 1.0 - s
    c, d = math.inf, 1.0 / b
    cf = d
    for i in range(1, 1000):
        an, b = -i * (i - s), b + 2.0
        d = 1.0 / (an * d + b or 1e-300)
        c = b + an / c or 1e-300
        delta = c * d
        cf *= delta
        if abs(delta - 1.0) <= 1e-15:
            break
    return math.exp(math.lgamma(s + 1.0) - s * math.log(z)) - s * math.exp(-z) * cf


def occupation_density_check(H, n_cells: int, n_paths: int, xis,
                             seed: int = 0) -> CheckResult:
    """Fourier transform of the fBm occupation measure on [0, 1] against its law.

    Paths are L Z, L the :func:`cholesky_factor` the commands' sampler uses.  Per xi,
    the path mean of |h sum_{j<N} exp(i xi B_{t_j})|^2 (B_{t_0} = 0) must lie within
    3 SE (1e-12 relative if all paths agree) of the exact grid value h^2 sum_{j,j'}
    exp(-xi^2 Var(B_{t_j} - B_{t_j'})/2), whose diagonal is the floor h.  ``details``
    adds the continuum 2 int_0^1 (1-u) exp(-xi^2 u^2H/2) du ~ |xi|^(-1/H), in closed
    form 2 M(1/2H) - M(1/H) with Kummer's M(s) = 1F1(s; 1 + s; -xi^2/2) (:func:`_kummer`).
    The phases xi B_{t_j} are formed for as many xi at once as BLOCK_ELEMENTS
    holds, one at least (one at run_all's 64 cells and 1000 paths); a sum
    over the nodes of one xi is taken in the same order at any block length.
    """
    H = as_hurst(H)
    xi = np.asarray(xis, dtype=float)
    if xi.size == 0:
        raise DomainError("need at least one frequency xi")
    if n_paths < 2:
        raise DomainError("the Monte Carlo standard error needs n_paths >= 2")
    grid, h = TimeGrid(1.0, n_cells), 1.0 / n_cells
    rng = np.random.default_rng(seed)
    left = np.zeros((n_cells, n_paths))
    left[1:] = (cholesky_factor(H, grid) @ rng.standard_normal((n_cells, n_paths)))[:-1]
    cov = covariance_matrix(H, grid.nodes[:-1])
    var = np.add.outer(np.diag(cov), np.diag(cov)) - 2.0 * cov
    sq = np.empty((len(xi), n_paths))
    for b in _blocks(len(xi), left.size, least=1):
        phase = np.multiply.outer(xi[b], left)
        sq[b] = h * h * (np.sum(np.cos(phase), axis=1) ** 2 + np.sum(np.sin(phase), axis=1) ** 2)
    mean, se = np.mean(sq, axis=1), np.std(sq, axis=1, ddof=1) / math.sqrt(n_paths)
    exact = h * h * np.array([np.sum(np.exp(-0.5 * x * x * var)) for x in xi])
    kummer = lambda s: np.array([_kummer(s, 0.5 * x * x) for x in xi])
    continuum = 2.0 * kummer(0.5 / H) - kummer(1.0 / H)
    worst = float(np.max(np.abs(mean - exact) / np.maximum(3.0 * se, 1e-12 * exact)))
    return CheckResult("occupation_density", worst <= 1.0, worst, 1.0, 1.0 - worst, {
        "xi": xis, "mean": mean, "stderr": se, "grid": exact, "continuum": continuum, "floor": h})


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _random_psd(rng, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A @ A.T + 0.1 * np.eye(n)


def run_all(seed: int = 0) -> list:
    """Run the standard battery in a fixed order; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    poly_coeffs = rng.uniform(-1, 1, size=(3, 3))

    def poly(c):
        return lambda x: c[0] + c[1] * x + c[2] * x * x

    tasks = [
        lambda: shuffle_integral_check([lambda x: 1.0] * 4, 0.2, 1.1, 2, 2),
        lambda: shuffle_integral_check([lambda x: x, lambda x: x], 0.0, 1.0, 1, 1),
        lambda: shuffle_integral_check([poly(poly_coeffs[0]), poly(poly_coeffs[1]),
                                        poly(poly_coeffs[2])], 0.1, 0.9, 2, 1),
        lambda: prod_sum_check(0.5 ** np.arange(1, 11), 3, 10),
        lambda: permanent_check(seed=seed + 1),
        lambda: gaussian_moment_bounds_check(_random_psd(np.random.default_rng(seed + 2), 4),
                                             [1, 1, 0, 0], n_mc=100_000, seed=seed + 3),
        lambda: gaussian_conditioning_check(_random_psd(np.random.default_rng(seed + 4), 2),
                                            seed=seed + 5),
        lambda: gaussian_conditioning_check(_random_psd(np.random.default_rng(seed + 6), 3),
                                            seed=seed + 7),
        lambda: simplex_beta_check([-0.2, -0.1], [1, 0], 0.1, 0.3, 0.2, 1.0, 2),
        lambda: kernel_increment_bound_check(0.1, 1.0, 0.05, 0.02, seed=seed + 8),
        lambda: haar_random_battery(seed + 9, count=20),
        lambda: stirling_battery(seed + 10, count=100),
        lambda: occupation_density_check(0.08, 64, 1000, (0.5, 1.0, 2.0, 3.0),
                                         seed=seed + 11),
    ]
    return [fn() for fn in tasks]


def haar_random_battery(seed: int, count: int = 20,
                        spec: HaarCheckSpec | None = None) -> CheckResult:
    """Operator inequality on ``count`` random smooth functions; worst slack kept."""
    spec = spec or HaarCheckSpec(alpha=0.2, beta=0.35, level=8)
    rng = np.random.default_rng(seed)
    x = (np.arange(2 ** spec.level) + 0.5) / 2 ** spec.level  # cell centers
    worst = math.inf
    ok = True
    for _ in range(count):
        c = rng.uniform(-1, 1, size=4)
        vals = c[0] + c[1] * np.sin(2 * math.pi * x) + c[2] * x ** 2 + c[3] * np.cos(6 * x)
        res = haar_operator_check(spec, vals)
        worst = min(worst, res.slack)
        ok = ok and res.status
    return CheckResult("haar_battery", bool(ok), worst, 0.0, worst,
                       {"count": count})


def stirling_battery(seed: int, count: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    indices = []
    for _ in range(count):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
        total_cap = 20
        hi = max(2, total_cap // (d * n) + 1)
        entries = rng.integers(1, hi + 1, size=(d, n))
        indices.append(MultiIndex(entries=tuple(map(tuple, entries))))
    return stirling_bound_check(indices)
