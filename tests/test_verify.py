import itertools
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.interpolate import PchipInterpolator

from conftest import traced_peak
from cylfbm import fbm, verify

TWO_OVER_PI = 0.63661977236758138  # E|Z1 Z2| for independent standard normals


def _abs_increment(H, theta, theta_p, d):
    return abs(float(verify._kernel_increment_from_theta(H, theta, d, theta_p)))


def _increment_zero(H, theta, theta_p, span):
    """The one sign change of the kernel increment in (0, span)."""
    grid = np.linspace(1e-6, span, 2001)
    vals = np.array([verify._kernel_increment_from_theta(H, theta, d, theta_p) for d in grid])
    (i,) = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    return optimize.brentq(lambda d: float(verify._kernel_increment_from_theta(
        H, theta, d, theta_p)), grid[i], grid[i + 1], xtol=1e-15)


def _scalar_half(fn, p, half, breaks):
    """Scalar oracle of integral_0^half fn: adaptive quad after d = v^(1/kap),
    kap = p + 1 for p < 0, with the breaks passed as quad points."""
    kap = p + 1.0 if p < 0 else 1.0
    pts = sorted(b ** kap for b in breaks if 0.0 < b < half)
    val, _ = integrate.quad(lambda v: fn(v ** (1.0 / kap)) * v ** (1.0 / kap - 1.0) / kap,
                            0.0, half ** kap, points=pts or None, epsabs=0.0, epsrel=1e-13,
                            limit=1000)
    return val


def _oracle_level(phi, p, w_next, off, breaks):
    """integral_0^off phi(d) (off - d)^w_next dd, split at off / 2."""
    half = 0.5 * off
    return _scalar_half(lambda d: phi(d) * (off - d) ** w_next, p, half, breaks) \
        + _scalar_half(lambda r: phi(off - r) * r ** w_next, w_next, half,
                       [off - b for b in breaks])


class TestShuffleEnumeration:
    def test_smallest_case(self):
        s = verify.shuffle_enumerate(1, 1)
        assert len(s) == 2

    def test_two_two(self):
        s = verify.shuffle_enumerate(2, 2)
        assert len(s) == 6

    def test_cardinality_bound(self):
        for n in range(1, 7):
            s = verify.shuffle_enumerate(n, n)
            assert len(s) == math.comb(2 * n, n) <= 4 ** n

    def test_blocks_stay_ordered(self):
        # every interleaving once: C(m + n, m) distinct permutations of the
        # m + n items, each keeping both blocks in order
        for m, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
            s = verify.shuffle_enumerate(m, n)
            assert len(s) == math.comb(m + n, m)
            assert len(set(s.permutations)) == len(s)
            for perm in s.permutations:
                assert sorted(perm) == list(range(m + n))
                firsts = [p for p in perm if p < m]
                seconds = [p for p in perm if p >= m]
                assert firsts == sorted(firsts) and seconds == sorted(seconds)

    def test_cap(self):
        with pytest.raises(fbm.DomainError):
            verify.shuffle_enumerate(7, 6)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 9, 10, 2001])
    def test_matches_scipy(self, n):
        # odd and even lengths: the last step always comes from the backward pass
        x = np.linspace(0.2, 1.1, n)
        g = np.exp(np.sin(3 * x)) + x ** 3
        dx = x[1] - x[0]
        cum = integrate.cumulative_simpson(g, dx=dx, initial=0.0)
        np.testing.assert_allclose(verify._right_cumulative_integral(g, dx), cum[-1] - cum,
                                   rtol=1e-14, atol=1e-15)


class TestShuffleIntegral:
    def test_constant_combinatorics(self):
        res = verify.shuffle_integral_check([lambda x: 1.0] * 4, 0.2, 1.2, 2, 2)
        assert res.status
        span = 1.0
        assert res.details["lhs"] == pytest.approx(span ** 2 / 2 * span ** 2 / 2, abs=1e-10)
        assert res.details["rhs"] == pytest.approx(6 * span ** 4 / math.factorial(4),
                                                   abs=1e-10)

    def test_linear_integrands(self):
        res = verify.shuffle_integral_check([lambda x: x, lambda x: x], 0.0, 1.0, 1, 1)
        assert res.status and res.measured <= 1e-8

    def test_random_polynomials(self):
        rng = np.random.default_rng(1)
        cs = rng.uniform(-1, 1, size=(3, 3))
        fs = [lambda x, c=c: c[0] + c[1] * x + c[2] * x * x for c in cs]
        res = verify.shuffle_integral_check(fs, 0.1, 0.9, 2, 1)
        assert res.status and res.measured <= 1e-6

    def test_size_cap(self):
        with pytest.raises(fbm.DomainError):
            verify.shuffle_integral_check([lambda x: 1.0] * 6, 0, 1, 3, 3)

    @pytest.mark.parametrize("n_grid", [0, 1])
    def test_grid_needs_two_steps(self, n_grid):
        # cumulative Simpson and the level interpolant need three nodes
        with pytest.raises(fbm.DomainError):
            verify.shuffle_integral_check([lambda x: 1.0] * 2, 0, 1, 1, 1, n_grid=n_grid)
        with pytest.raises(fbm.DomainError):
            verify.simplex_beta_check([-0.2, -0.1], [1, 0], 0.1, 0.3, 0.2, 1.0, 2,
                                      n_grid=n_grid)

    def test_bound_is_the_tolerance_used(self):
        # constant 2 on [0, 2]: each 2-simplex integral is 4 * 2^2 / 2 = 8
        res = verify.shuffle_integral_check([lambda x: 2.0] * 4, 0.0, 2.0, 2, 2)
        assert res.details["lhs"] == pytest.approx(64.0, rel=1e-10)
        assert res.bound == pytest.approx(1e-6 * 64.0, rel=1e-10)
        assert res.slack == res.bound - res.measured
        assert res.status


class TestProdSum:
    def test_single_factor_trivial(self):
        res = verify.prod_sum_check(np.array([0.3, 0.7, -0.1]), 1, 3)
        assert res.status and res.measured == 0.0

    def test_geometric_exact(self):
        res = verify.prod_sum_check(0.5 ** np.arange(1, 11), 3, 10)
        assert res.status
        assert res.measured <= 1e-14 * max(1.0, abs(res.details["rhs"]))

    def test_alternating_signs_exact(self):
        a = np.array([0.5, -0.25, 0.125, -0.0625])
        res = verify.prod_sum_check(a, 3, 4)
        assert res.status


class TestPermanent:
    def test_identity(self):
        assert verify.permanent(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_correlated_two_by_two(self):
        rho = 0.37
        got = verify.permanent(np.array([[1.0, rho], [rho, 1.0]]))
        assert got == pytest.approx(1 + rho ** 2, abs=1e-14)

    def test_against_local_enumeration(self):
        # independent brute-force oracle, written here from the definition
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, size=(5, 5))
        brute = 0.0
        for perm in itertools.permutations(range(5)):
            brute += float(np.prod(A[range(5), perm]))
        assert verify.permanent(A) == pytest.approx(brute, abs=1e-12)

    def test_row_column_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(0, 1, size=(4, 4))
        p = rng.permutation(4)
        assert verify.permanent(A[np.ix_(p, p)]) == pytest.approx(
            verify.permanent(A), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(fbm.DomainError):
            verify.permanent(np.eye(11))

    def test_check_bound_is_the_tolerance_used(self):
        res = verify.permanent_check(seed=4, size=5)
        assert abs(res.details["naive"]) > 1.0
        assert res.bound == 1e-12 * abs(res.details["naive"])
        assert res.slack == res.bound - res.measured


class TestGaussianMoments:
    def test_independent_pair_frozen_value(self):
        res = verify.gaussian_moment_bounds_check(np.eye(2), [1, 1], n_mc=400_000,
                                                  seed=1)
        assert res.status
        # E|Z1 Z2| = (2/pi) below sqrt(perm I) = 1
        se = res.details["mc_se"]
        assert abs(res.details["mc_mean"] - TWO_OVER_PI) < 3 * se
        assert res.details["sqrt_perm"] == pytest.approx(1.0)

    def test_perfectly_correlated_pair(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = verify.gaussian_moment_bounds_check(cov + 1e-12 * np.eye(2), [1, 1],
                                                  n_mc=100_000, seed=2)
        assert res.status
        assert res.details["sqrt_perm"] == pytest.approx(math.sqrt(2.0), rel=1e-5)

    def test_hundred_random_psd_draws(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            A = rng.standard_normal((4, 4))
            cov = A @ A.T + 0.05 * np.eye(4)
            res = verify.gaussian_moment_bounds_check(cov, [1, 1, 0, 0],
                                                      n_mc=20_000, seed=trial)
            assert res.status, f"draw {trial} violated the bound"

    @pytest.mark.parametrize("multi_index", [[1], [1, 1, 1], [3, 3], [1, -1]],
                             ids=["short", "long", "past-cap", "negative"])
    def test_bad_multi_index_rejected_before_drawing(self, monkeypatch, multi_index):
        def no_draws(*args):
            raise AssertionError("drew before checking the multi-index")

        monkeypatch.setattr(verify, "_abs_products", no_draws)
        with pytest.raises(fbm.DomainError):
            verify.gaussian_moment_bounds_check(np.eye(2), multi_index, n_mc=1000)


TWO_DIM_COVS = [
    verify._random_psd(np.random.default_rng(7 + 4), 2),  # run_all(7)'s matrix
    np.array([[1.0, 0.995], [0.995, 1.0]]),  # condition number 399
    *(verify._random_psd(np.random.default_rng(100 + k), 2) for k in range(3)),
    np.diag([100.0, 0.01]),  # a box as wide as cov^-1's largest entry misses the peak
    np.array([[1.0, 0.999], [0.999, 1.0]]),  # condition number 1999
]

THREE_DIM_COVS = [
    verify._random_psd(np.random.default_rng(7 + 6), 3),  # run_all(7)'s matrix
    *(verify._random_psd(np.random.default_rng(200 + k), 3) for k in range(3)),
    np.diag([100.0, 0.01, 1.0]),
    np.full((3, 3), 0.999) + 0.001 * np.eye(3),  # every pair 0.999-correlated
]


class TestGaussianConditioning:
    def test_two_by_two_closed_form(self):
        s1, s2, rho = 1.3, 0.8, 0.45
        cov = np.array([[s1 ** 2, rho * s1 * s2], [rho * s1 * s2, s2 ** 2]])
        res = verify.gaussian_conditioning_check(cov, seed=1)
        assert res.status
        det = np.linalg.det(cov)
        assert det == pytest.approx(s1 ** 2 * s2 ** 2 * (1 - rho ** 2), rel=1e-12)
        assert res.details["det_gap"] < 1e-10

    def test_constant_g_reduces_to_normalization(self):
        # with g = 1 both sides are plain Gaussian integrals
        cov = np.array([[1.0, 0.3], [0.3, 0.7]])
        det = np.linalg.det(cov)
        from scipy import integrate
        L = 12.0
        lhs, _ = integrate.dblquad(
            lambda v2, v1: math.exp(-0.5 * np.array([v1, v2]) @ cov @ [v1, v2]),
            -L, L, -L, L, epsabs=1e-12)
        rhs = (2 * math.pi) ** 0.5 / math.sqrt(det) * math.sqrt(2 * math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("cov", TWO_DIM_COVS)
    def test_two_dim_quadrature_matches_closed_form(self, cov):
        res = verify.gaussian_conditioning_check(cov, seed=1)
        assert res.details["cd_lhs"] == pytest.approx(res.details["cd_rhs"], rel=1e-8)

    @pytest.mark.parametrize("cov", TWO_DIM_COVS)
    def test_two_dim_rule_matches_adaptive_quadrature(self, cov):
        # the same integrand on the same sheared window of 12 deviations
        prec = np.linalg.inv(cov)
        L1 = 12.0 * math.sqrt(prec[0, 0])
        c00, c01, c11 = cov[0, 0], cov[0, 1] + cov[1, 0], cov[1, 1]
        L2, slope = 12.0 / math.sqrt(c11), -c01 / (2 * c11)
        want, _ = integrate.dblquad(
            lambda v2, v1: v1 * v1 * math.exp(-0.5 * (c00 * v1 * v1 + c01 * v1 * v2
                                                      + c11 * v2 * v2)),
            -L1, L1, lambda v1: slope * v1 - L2, lambda v1: slope * v1 + L2,
            epsabs=0.0, epsrel=1e-13)
        res = verify.gaussian_conditioning_check(cov, seed=1)
        assert res.details["cd_lhs"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_three_dim_rule_is_seed_free(self):
        cov = THREE_DIM_COVS[0]
        lhs = {verify.gaussian_conditioning_check(cov, seed=k).details["cd_lhs"]
               for k in range(20)}
        assert len(lhs) == 1

    @pytest.mark.parametrize("cov", THREE_DIM_COVS)
    def test_three_dim_rule_matches_closed_form(self, cov):
        res = verify.gaussian_conditioning_check(cov, seed=1)
        assert res.status
        assert res.details["cd_lhs"] == pytest.approx(res.details["cd_rhs"], rel=1e-12, abs=0.0)

    def test_one_dim_rule_matches_closed_form(self):
        res = verify.gaussian_conditioning_check([[0.3]], seed=1)
        assert res.status and res.measured < 1e-12

    def test_dimension_four_rejected(self):
        with pytest.raises(fbm.DomainError, match="capped at dimension 3"):
            verify.gaussian_conditioning_check(np.eye(4))

    def test_three_dim_monte_carlo(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        res = verify.gaussian_conditioning_check(A @ A.T + 0.1 * np.eye(3), seed=5)
        assert res.status

    def test_singular_rejected(self):
        with pytest.raises(fbm.DomainError):
            verify.gaussian_conditioning_check(np.ones((2, 2)))

    @pytest.mark.parametrize("diag", [(-1.0, -1.0, 1.0), (-2.0, -1.0, 3.0)])
    def test_even_negative_eigenvalues_rejected(self, diag):
        # an even number of negative eigenvalues gives a positive determinant
        with pytest.raises(fbm.DomainError, match="positive definite"):
            verify.gaussian_conditioning_check(np.diag(diag))


class TestSimplexBeta:
    def test_trivial_exponents(self):
        gap = verify.beta_identity_gap(0.0, 0.0, 0.3, 0.9)
        assert gap < 1e-12  # Gamma-ratio equals 1, integral equals the span

    def test_singular_exponents(self):
        gap = verify.beta_identity_gap(-0.3, -0.4, 0.2, 1.0)
        assert gap < 1e-6

    def test_two_level_with_kernel_factor(self):
        res = verify.simplex_beta_check([-0.2, -0.1], [1, 0], 0.1, 0.3, 0.2, 1.0, 2)
        assert res.status
        assert 0.0 < res.details["ratio"] < 1.0

    @pytest.mark.parametrize("w", [-0.5, 0.0, 0.3])
    def test_single_unflagged_level_meets_bound(self, w):
        # without a kernel factor the bound is the exact Dirichlet integral
        res = verify.simplex_beta_check([w], [0], 0.1, 0.3, 0.2, 1.0, 1)
        assert res.status
        assert res.details["ratio"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("w", [[-0.5, -0.5], [-0.2, 0.3], [0.0, -0.1],
                                   [-0.5, -0.5, -0.5], [-0.1, -0.2, -0.1], [0.3, 0.0, -0.5]])
    def test_unflagged_levels_meet_bound(self, w):
        n = len(w)
        res = verify.simplex_beta_check(w, [0] * n, 0.1, 0.3, 0.2, 1.0, n)
        assert res.details["ratio"] == pytest.approx(1.0, abs=1e-4)

    def test_flagged_level_bound_uses_shifted_exponent(self):
        # numerator Gamma(w + H - 1/2 - gamma + 1), denominator Gamma(... + n + 1)
        res = verify.simplex_beta_check([-0.1], [1], 0.1, 0.3, 0.2, 1.0, 1)
        assert res.status
        assert res.bound == pytest.approx(0.41364, rel=1e-4)
        assert res.details["ratio"] == pytest.approx(0.31682, rel=1e-4)

    def test_exponent_constraint_enforced(self):
        with pytest.raises(fbm.DomainError):
            verify.simplex_beta_check([-0.9], [1], 0.1, 0.3, 0.2, 1.0, 1)

    @pytest.mark.parametrize("a,b", [(-0.3, -0.4), (-0.9, -0.95), (0.5, -0.99), (-0.999, 2.0)])
    def test_graded_rule_beta_identity(self, a, b):
        assert verify.beta_identity_gap(a, b, 0.3, 0.65) <= 1e-12

    @pytest.mark.parametrize("H", [0.1, 0.2])
    @pytest.mark.parametrize("flags", [[1, 0], [1, 1]])
    def test_levels_match_kink_aware_oracle(self, H, flags):
        # run_all's configuration: |K(theta+d, theta) - K(theta+d, theta')| has
        # a kink at its sign change d*; offset 141 lies near 2 d* for H = 0.1
        theta, theta_p, t, gamma, w = 0.3, 0.2, 1.0, H / 2, [-0.2, -0.1]
        total, offsets, levels = verify._weighted_simplex_integral(
            H, w, flags, theta, theta_p, t, gamma, 160)
        kink = _increment_zero(H, theta, theta_p, t - theta)
        phi = lambda d: _abs_increment(H, theta, theta_p, d) * d ** w[0]
        p0 = w[0] + (H - 0.5 - gamma)
        for ix in (1, 30, 90, 120, 141, 150, 160):
            want = _oracle_level(phi, p0, w[1], offsets[ix], [kink])
            assert levels[0][ix] == pytest.approx(want, rel=1e-11, abs=0.0), ix
        interp = PchipInterpolator(offsets, levels[0])
        outer = (lambda d: _abs_increment(H, theta, theta_p, d) * float(interp(d))) \
            if flags[1] else (lambda d: float(interp(d)))
        p_out = p0 + w[1] + 1.0 + (H - 0.5 - gamma) * flags[1]
        want = _scalar_half(outer, p_out, t - theta, list(offsets[1:-1]) + [kink])
        assert total == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("H", [0.1, 0.2])
    def test_kinks_match_brentq(self, H):
        theta, theta_p, span = 0.3, 0.2, 0.7
        f = lambda d: float(verify._kernel_increment_from_theta(H, theta, d, theta_p))
        grid = span * np.logspace(-12.0, 0.0, 400)
        sign = np.sign([f(d) for d in grid])
        want = [optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-15)
                for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]
        got = verify._increment_sign_changes(H, theta, theta_p, span)
        assert len(want) == len(got) == 1
        np.testing.assert_array_less(np.abs(got - want),
                                     1e-15 + 4 * np.finfo(float).eps * np.abs(want))

    @pytest.mark.parametrize("y", [
        np.cumsum(np.linspace(0.1, 2.0, 12) ** 2),  # increasing
        np.r_[np.zeros(4), np.linspace(0.0, 1.0, 5), np.ones(3)],  # flat stretches
        np.sin(np.linspace(0.0, 7.0, 12)),  # sign-changing slopes
        np.array([0.0, 0.01, 5.0, 4.0, -6.0, -5.5, 3.0, 2.0]),  # end slopes set to 0 and 3 m
    ], ids=["monotone", "flat", "sign_changing", "end_slopes"])
    def test_pchip_matches_scipy(self, y):
        x = np.sort(np.random.default_rng(3).uniform(0.0, 2.0, len(y)))
        xq = np.concatenate([x, np.linspace(x[0] - 0.5, x[-1] + 0.5, 301)])
        want = PchipInterpolator(x, y)(xq)
        np.testing.assert_allclose(verify._pchip(x, y)(xq), want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))

    def test_three_levels(self):
        H, theta, theta_p, t, gamma = 0.1, 0.3, 0.2, 1.0, 0.05
        w, flags = [-0.1, -0.2, -0.1], [1, 0, 1]
        res = verify.simplex_beta_check(w, flags, H, theta, theta_p, t, 3)
        assert res.status
        assert 0.0 < res.details["ratio"] < 1.0
        total, offsets, levels = verify._weighted_simplex_integral(
            H, w, flags, theta, theta_p, t, gamma, 160)
        assert total == res.measured
        # the second level integrates the Pchip interpolant of the first
        interp = PchipInterpolator(offsets, levels[0])
        p1 = w[0] + (H - 0.5 - gamma) + w[1] + 1.0
        for ix in (5, 77, 160):
            want = _oracle_level(lambda d: float(interp(d)), p1, w[2], offsets[ix],
                                 list(offsets[1:-1]))
            assert levels[1][ix] == pytest.approx(want, rel=1e-11, abs=0.0), ix


class TestKernelIncrementBound:
    def test_zero_separation_zero_increment(self):
        th = 0.4
        assert float(fbm.kernel_values(0.1, 1.0, th)
                     - fbm.kernel_values(0.1, 1.0, th)) == 0.0

    def test_fitted_envelope_and_double_integral(self):
        res = verify.kernel_increment_bound_check(0.1, 1.0, 0.05, 0.02, seed=8)
        assert res.status
        assert math.isfinite(res.details["double_integral"])
        assert res.details["refinement_change"] < 0.05

    def test_parameter_domains(self):
        with pytest.raises(fbm.DomainError):
            verify.kernel_increment_bound_check(0.1, 1.0, 0.2, 0.02)  # gamma >= H
        with pytest.raises(fbm.DomainError):
            verify.kernel_increment_bound_check(0.1, 1.0, 0.05, 0.6)  # beta >= 1/2


class TestHaar:
    def test_parseval(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(256)
        c0, details = verify.haar_coefficients(vals)
        coef_sq = c0 ** 2 + sum(float(np.sum(d ** 2)) for d in details)
        norm_sq = float(np.mean(vals ** 2))  # cells have width 1/256
        assert coef_sq == pytest.approx(norm_sq, rel=1e-12)

    def test_constant_function_fixed(self):
        spec = verify.HaarCheckSpec(alpha=0.2, beta=0.35, level=6)
        res = verify.haar_operator_check(spec, lambda x: 1.0)
        assert res.status
        assert res.measured == pytest.approx(1.0, abs=1e-12)  # operator fixes constants
        assert res.bound >= 1.0

    def test_single_basis_function_scaling(self):
        spec = verify.HaarCheckSpec(alpha=0.2, beta=0.35, level=6)
        i, j = 3, 2
        cells = np.zeros(64)
        width = 2 ** -i
        start = int(j * width * 64)
        half = int(width * 64 / 2)
        cells[start : start + half] = 2 ** (i / 2.0)
        cells[start + half : start + 2 * half] = -(2 ** (i / 2.0))
        res = verify.haar_operator_check(spec, cells)
        assert res.status
        assert res.measured == pytest.approx(2 ** (2 * i * spec.alpha), rel=1e-12)

    def test_double_integral_matches_lag_loop(self):
        # level 8 is one bincount block, level 11 sums 32 of them
        for level in (8, 11):
            spec = verify.HaarCheckSpec(alpha=0.2, beta=0.35, level=level)
            ncells = 2 ** level
            vals = np.random.default_rng(3).standard_normal(ncells)
            width, b2 = 1.0 / ncells, spec.beta

            def phi(r):
                return r ** (1.0 - 2 * b2) / (2 * b2 * (1.0 - 2 * b2))

            want = 0.0
            for lag in range(1, ncells):
                diffs = vals[lag:] - vals[:-lag]
                Jk = 2 * phi(lag * width) - phi((lag - 1) * width) - phi((lag + 1) * width)
                want += 2.0 * float(np.sum(diffs ** 2)) * Jk
            got = verify.haar_operator_check(spec, vals).details["double_integral"]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_double_integral_memory_is_bounded(self):
        # at the largest level a single bincount would hold two 4^12 arrays (256 MiB)
        spec = verify.HaarCheckSpec(alpha=0.2, beta=0.35, level=12)
        vals = np.random.default_rng(5).standard_normal(2 ** 12)
        assert traced_peak(lambda: verify.haar_operator_check(spec, vals)) <= 16 * 2 ** 20

    def test_random_smooth_battery(self):
        res = verify.haar_random_battery(seed=9, count=20)
        assert res.status
        assert res.measured >= 0.0  # worst slack stays non-negative

    def test_spec_validation(self):
        with pytest.raises(fbm.DomainError):
            verify.HaarCheckSpec(alpha=0.4, beta=0.3)
        with pytest.raises(fbm.DomainError):
            verify.HaarCheckSpec(alpha=0.1, beta=0.3, level=13)


class TestStirlingBound:
    def test_single_block(self):
        res = verify.stirling_bound_check([[1]])
        assert res.status
        # 2! = 2 against the frozen bound value 3.4659...
        bound_value = math.sqrt(2 * math.pi) * math.exp(0.5) \
            * math.gamma(3.5) / math.sqrt(5 * math.pi)
        assert bound_value == pytest.approx(3.4659, abs=1e-3)
        assert 2.0 <= bound_value

    def test_two_blocks(self):
        res = verify.stirling_bound_check([[1, 1]])
        assert res.status  # 2! * 2! = 4 below the d = 2 bound

    def test_random_battery(self):
        res = verify.stirling_battery(seed=10, count=100)
        assert res.status

    def test_entry_constraint(self):
        with pytest.raises(fbm.DomainError):
            verify.stirling_bound_check([[0, 2]])

    def test_generator_input_counted(self):
        res = verify.stirling_bound_check(x for x in ([1, 2], [3]))
        assert res.details["n_indices"] == 2
        assert res.measured == verify.stirling_bound_check([[1, 2], [3]]).measured


def _occupation_row(seed):
    return next(r for r in verify.run_all(seed) if r.check_id == "occupation_density")


class TestOccupationDensity:
    # run_all checks H = 0.08; the kernel construction is the law girsanov and
    # converge price, its kernel matrix times the cell increments' sqrt(h)
    @pytest.mark.parametrize("factor", [
        lambda H, grid: fbm.cholesky_factor(0.12, grid),
        lambda H, grid: fbm.kernel_matrix(H, grid) * np.sqrt(grid.step),
    ], ids=["cholesky-H0.12", "kernel-construction"])
    def test_wrong_factor_fails(self, monkeypatch, factor):
        monkeypatch.setattr(verify, "cholesky_factor", factor)
        res = _occupation_row(0)
        assert not res.status and res.measured > res.bound

    def test_same_seed_same_result(self):
        a, b = (verify.occupation_density_check(0.08, 64, 1000, (0.5, 1.0, 2.0, 3.0), seed=11)
                for _ in range(2))
        assert a.measured == b.measured
        for key in ("mean", "stderr", "grid"):
            assert np.array_equal(a.details[key], b.details[key])

    def test_grid_value_is_the_stationary_increment_sum(self):
        H, n = 0.08, 64
        res = verify.occupation_density_check(H, n, 10, (0.5, 3.0), seed=0)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / n
        for xi, grid_value in zip((0.5, 3.0), res.details["grid"]):
            want = np.sum(np.exp(-0.5 * xi ** 2 * lag ** (2 * H))) / n ** 2
            assert grid_value == pytest.approx(want, rel=1e-12)
        # at xi = 3 the grid value sits above its diagonal floor h and above
        # the continuum value, which decays faster
        assert res.details["grid"][1] > res.details["continuum"][1] > res.details["floor"]

    def test_constant_is_exact(self):
        """At xi = 0 the transform is the total mass 1 on every path, with zero SE."""
        res = verify.occupation_density_check(0.08, 64, 100, (0.0, 1.0), seed=1)
        assert res.status
        assert res.details["mean"][0] == pytest.approx(1.0, abs=1e-12)
        assert res.details["grid"][0] == pytest.approx(1.0, abs=1e-12)
        assert res.details["stderr"][0] == 0.0

    def test_covering_indicator_is_exact(self):
        """One cell: its left node B_0 = 0 carries the whole mass, so every xi reads 1."""
        res = verify.occupation_density_check(0.08, 1, 100, (0.5, 3.0), seed=2)
        assert res.status and res.measured == 0.0
        assert np.array_equal(res.details["mean"], [1.0, 1.0])
        assert np.array_equal(res.details["grid"], [1.0, 1.0])

    def test_gaussian_bump_two_percent(self):
        """run_all's arguments at run_all(0)'s seed pass on the real factor."""
        res = _occupation_row(0)
        assert res.status and res.measured < res.bound

    @pytest.mark.parametrize("H", [-0.5, 1.0, 1.5, 1.0 - 2.0 ** -12])
    def test_theta_outside_window_rejected(self, H):
        """A Hurst index outside the window (0, 1/2) is rejected before any draw."""
        with pytest.raises(fbm.DomainError):
            verify.occupation_density_check(H, 64, 10, (1.0,), seed=1)

    @pytest.mark.parametrize("H", [0.01, 0.02, 0.04, 0.08, 0.2, 0.3, 0.49])
    def test_kummer_matches_hyp1f1(self, H):
        # both exponents of the continuum value, on both sides of z = s + 1.
        # hyp1f1 itself is off by 1.04e-10 relative at s = 50, xi = 14.75
        # (against a 40-digit evaluation), where _kummer is within 1e-14
        for s in (0.5 / H, 1.0 / H):
            for xi in np.linspace(0.0, 40.0, 161):
                z = 0.5 * xi * xi
                assert verify._kummer(s, z) == pytest.approx(
                    special.hyp1f1(s, 1.0 + s, -z), rel=2e-10, abs=0.0), (s, xi)

    def test_interior_theta_uses_the_tail(self):
        """At large xi the continuum value follows its tail
        2 Gamma(1 + 1/2H) (2 / xi^2)^(1/2H), the |xi|^(-1/H) decay; the (1 - u)
        weight and the cut at u = 1 change it by O(xi^(-1/H)) relative."""
        H, xis = 0.3, (20.0, 40.0)
        res = verify.occupation_density_check(H, 8, 10, xis, seed=1)
        for xi, value in zip(xis, res.details["continuum"]):
            tail = 2.0 * math.gamma(1.0 + 0.5 / H) * (2.0 / xi ** 2) ** (0.5 / H)
            assert value == pytest.approx(tail, rel=1e-3)


def _fgn_autocovariance(H, n, step):
    """gamma(k) = Cov(B(k+1) - B(k), B(1) - B(0)) on a grid of the given step."""
    k = np.arange(n + 1, dtype=float)
    return 0.5 * (np.abs(k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H)) \
        * step ** (2 * H)


def _fgn_from_factor(H, n_cells, step, z):
    """Increments of the paths L Z on n_cells cells of the given step, L the
    Cholesky factor the occupation check and the commands' sampler multiply."""
    L = fbm.cholesky_factor(H, fbm.TimeGrid(n_cells * step, n_cells))
    return np.diff(L @ z, axis=0, prepend=0.0)


class TestFgnCirculant:
    """Exact law of the fractional Gaussian noise the occupation check draws."""

    @pytest.mark.parametrize("H", [0.01, 0.08, 0.3, 0.45])
    @pytest.mark.parametrize("n", [16, 2 ** 14])
    def test_embedding_is_nonnegative_and_exact(self, H, n):
        """On the first 16 cells of step 1/n the factor has a positive diagonal
        and its increments have exactly the Toeplitz autocovariance."""
        L = fbm.cholesky_factor(H, fbm.TimeGrid(16.0 / n, 16))
        assert np.all(np.diag(L) > 0.0)
        D = np.diff(np.eye(17), axis=0)[:, 1:]  # increments of (0, B_{t_1}, ..., B_{t_16})
        D[0, 0] = 1.0
        gam = _fgn_autocovariance(H, 16, 1.0 / n)
        want = gam[np.abs(np.subtract.outer(np.arange(16), np.arange(16)))]
        assert np.max(np.abs(D @ L @ L.T @ D.T - want)) <= 1e-12 * gam[0]

    @pytest.mark.parametrize("H", [0.01, 0.3])
    def test_empirical_covariance_is_toeplitz(self, H):
        n, n_draws = 32, 20_000
        rng = np.random.default_rng(11)
        X = _fgn_from_factor(H, n, 1.0 / n, rng.standard_normal((n, n_draws))).T
        gam = _fgn_autocovariance(H, n, 1.0 / n)
        want = gam[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        # zero-mean estimator; Var(X_i X_j) = C_ii C_jj + C_ij^2
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / n_draws)
        assert np.all(np.abs(X.T @ X / n_draws - want) <= 5.0 * se)

    def test_same_seed_same_draw(self):
        a = _fgn_from_factor(0.3, 1000, 1e-3, np.random.default_rng(5).standard_normal(1000))
        b = _fgn_from_factor(0.3, 1000, 1e-3, np.random.default_rng(5).standard_normal(1000))
        assert np.array_equal(a, b)


class TestSuite:
    def test_rows_are_machine_readable(self):
        res = verify.permanent_check(seed=0)
        row = res.row()
        assert set(row) == {"check_id", "status", "measured", "bound", "slack"}

    def test_seed_that_failed_the_monte_carlo_gate_passes(self):
        # the 3-D conditioning identity once gated on three Monte Carlo standard
        # errors, which this seed's draw missed by 0.2 %
        results = verify.run_all(929346862)
        assert [r.check_id for r in results if not r.status] == []

    def test_run_all_memory_peak(self):
        # 2.45e6 bytes, set by kernel_increment_bound_check; 9.98e6 with the
        # whole rule or sample of each check at once
        assert traced_peak(lambda: verify.run_all(7)) <= 4 * 2 ** 20


# run_all(7)'s arguments of the four checks that evaluate their rule or sample in blocks
RUN_ALL_BLOCKED = {
    "gaussian_moment_bounds_check": lambda: verify.gaussian_moment_bounds_check(
        verify._random_psd(np.random.default_rng(7 + 2), 4), [1, 1, 0, 0], n_mc=100_000,
        seed=7 + 3),
    "gaussian_conditioning_check": lambda: verify.gaussian_conditioning_check(
        THREE_DIM_COVS[0], seed=7 + 7),
    "simplex_beta_check": lambda: verify.simplex_beta_check(
        [-0.2, -0.1], [1, 0], 0.1, 0.3, 0.2, 1.0, 2),
    "occupation_density_check": lambda: verify.occupation_density_check(
        0.08, 64, 1000, (0.5, 1.0, 2.0, 3.0), seed=7 + 11),
}


def _whole_grid_cd_lhs(cov):
    """The conditioning check's sheared 64^n rule on its whole tensor grid."""
    nn = len(cov)
    L = np.linalg.cholesky(np.linalg.inv(cov))
    x, wq = fbm.gauss_legendre(64)
    xs = np.ix_(*[12.0 * x] * nn)
    v = [sum(L[i, j] * xs[j] for j in range(i + 1)) for i in range(nn)]
    vals = v[0] * v[0] * np.exp(-0.5 * sum(cov[i, j] * v[i] * v[j]
                                           for i in range(nn) for j in range(nn)))
    for _ in range(nn):
        vals = vals @ wq
    return 12.0 ** nn * float(np.prod(np.diag(L))) * float(vals)


def _whole_column_levels(H, w, flags, theta, theta_p, t, gamma, n_grid):
    """The level tables of the weighted simplex integral, each level's graded
    halves on all n_grid columns at once."""
    span = t - theta
    offsets = span * np.linspace(0.0, 1.0, n_grid + 1) ** 2.0
    col, half = offsets[1:, None, None], 0.5 * offsets[1:]
    kinks = verify._increment_sign_changes(H, theta, theta_p, span)
    kappa = lambda flag, d: np.abs(verify._kernel_increment_from_theta(
        H, theta, d, theta_p)) if flag else 1.0
    phi = lambda d: kappa(flags[0], d) * d ** w[0]
    knots = kinks if flags[0] else np.empty(0)
    left_exp = w[0] + (H - 0.5 - gamma) * flags[0]
    levels = []
    for j in range(len(w) - 1):
        vals = np.zeros(len(offsets))
        vals[1:] = verify._graded_half(lambda dl: phi(dl) * (col - dl) ** w[j + 1], left_exp,
                                       half, np.tile(knots, (n_grid, 1))) \
            + verify._graded_half(lambda dr: phi(col - dr) * dr ** w[j + 1], w[j + 1], half,
                                  offsets[1:, None] - knots)
        levels.append(vals)
        phi = lambda d, _ip=verify._pchip(offsets, vals), _f=flags[j + 1]: kappa(_f, d) * _ip(d)
        knots = np.concatenate([offsets, kinks if flags[j + 1] else []])
        left_exp += w[j + 1] + 1.0 + (H - 0.5 - gamma) * flags[j + 1]
    return levels


class TestBlockedChecks:
    """The four checks that hold one block of their rule or sample at a time
    give the whole-array formulas' numbers bit for bit."""

    @pytest.mark.parametrize("call", [
        lambda: verify.occupation_density_check(0.08, 16, 1, (0.5,)),
        lambda: verify.occupation_density_check(0.08, 16, 10, ()),
        lambda: verify.gaussian_moment_bounds_check(np.eye(2), [1, 1], n_mc=1),
        lambda: verify.gaussian_moment_bounds_check(np.eye(2), [1, 1], n_mc=0),
    ], ids=["one-path", "no-xi", "one-draw", "no-draw"])
    def test_degenerate_sizes_rejected(self, call):
        with pytest.raises(fbm.DomainError):
            call()

    @pytest.mark.parametrize("name", list(RUN_ALL_BLOCKED))
    def test_working_memory(self, name):
        # 4.7e6 to 1.0e7 bytes with the whole rule or sample at once
        assert traced_peak(RUN_ALL_BLOCKED[name]) <= 2.5e6

    @pytest.mark.parametrize("nn", [2, 4])
    def test_moment_products_match_multivariate_normal(self, nn):
        cov = verify._random_psd(np.random.default_rng(nn), nn)
        rows = verify.BLOCK_ELEMENTS // nn
        for n_mc in (2, rows - 1, rows, rows + 1, 2 * rows + 1, 100_000):
            draws = np.random.default_rng(5).multivariate_normal(np.zeros(nn), cov, size=n_mc,
                                                                 method="cholesky")
            want = np.prod(np.abs(draws), axis=1)
            assert np.array_equal(verify._abs_products(cov, n_mc, 5), want), n_mc
        res = verify.gaussian_moment_bounds_check(cov, [1] * nn, n_mc=100_000, seed=5)
        assert res.details["mc_mean"] == float(np.mean(want))
        assert res.details["mc_se"] == float(np.std(want, ddof=1) / math.sqrt(100_000))

    @pytest.mark.parametrize("cov", TWO_DIM_COVS[:3] + THREE_DIM_COVS[:3])
    @pytest.mark.parametrize("lead", [None, 1, 3])
    def test_conditioning_rule_matches_whole_grid(self, monkeypatch, cov, lead):
        # lead: leading nodes per slab budgeted, None for BLOCK_ELEMENTS itself;
        # a budget of one node still gives slabs of two
        if lead is not None:
            monkeypatch.setattr(verify, "BLOCK_ELEMENTS", lead * 64 ** (len(cov) - 1))
        res = verify.gaussian_conditioning_check(cov, seed=1)
        assert res.details["cd_lhs"] == _whole_grid_cd_lhs(cov)

    @pytest.mark.parametrize("cols", ["1", "block-1", "block", "block+1", "160"])
    @pytest.mark.parametrize("w,flags", [([-0.2, -0.1], [1, 0]),  # run_all's
                                         ([-0.1, -0.2, -0.1], [1, 0, 1])])
    def test_simplex_levels_match_whole_columns(self, monkeypatch, cols, w, flags):
        args = (0.1, w, flags, 0.3, 0.2, 1.0, 0.05, 160)
        sizes = []
        blocks = verify._blocks
        monkeypatch.setattr(verify, "_blocks",
                            lambda n, size: sizes.append(size) or blocks(n, size))
        verify._weighted_simplex_integral(*args)
        # the first level's columns per block; a budget of one column still gives two
        block = verify.BLOCK_ELEMENTS // sizes[0]
        count = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                 "160": 160}[cols]
        monkeypatch.setattr(verify, "BLOCK_ELEMENTS", count * sizes[0])
        _, _, levels = verify._weighted_simplex_integral(*args)
        for got, want in zip(levels, _whole_column_levels(*args), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_cells,n_paths,xis", [
        (64, 1000, (0.5, 1.0, 2.0, 3.0)),  # run_all's: one xi per block
        (8, 10, (0.0, 0.5, 3.0, 20.0, 40.0)),  # all xi in one block
        (16, 500, (0.5, 1.0, 2.0, 3.0, 4.0)),  # two xi per block, the last one joins
    ])
    def test_occupation_matches_outer_product(self, n_cells, n_paths, xis):
        res = verify.occupation_density_check(0.08, n_cells, n_paths, xis, seed=3)
        rng = np.random.default_rng(3)
        left = np.zeros((n_cells, n_paths))
        left[1:] = (fbm.cholesky_factor(0.08, fbm.TimeGrid(1.0, n_cells))
                    @ rng.standard_normal((n_cells, n_paths)))[:-1]
        phase = np.multiply.outer(np.asarray(xis, dtype=float), left)
        sq = (np.sum(np.cos(phase), axis=1) ** 2 + np.sum(np.sin(phase), axis=1) ** 2) \
            / n_cells ** 2
        assert np.array_equal(res.details["mean"], np.mean(sq, axis=1))
        assert np.array_equal(res.details["stderr"],
                              np.std(sq, axis=1, ddof=1) / math.sqrt(n_paths))


class TestMultiIndex:
    def test_norm_and_block_sums(self):
        mi = verify.MultiIndex(entries=((1, 2), (0, 3)))
        assert mi.norm == 6
        assert list(mi.block_sums()) == [3, 3]

    def test_negative_rejected(self):
        with pytest.raises(fbm.DomainError):
            verify.MultiIndex(entries=((1, -1),))

    def test_accepted_by_checks(self):
        mi = verify.MultiIndex(entries=((1,), (1,)))
        res = verify.stirling_bound_check([mi])
        assert res.status
        res2 = verify.gaussian_moment_bounds_check(np.eye(2), mi, n_mc=5000, seed=0)
        assert res2.status
