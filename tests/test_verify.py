import itertools
import math

import numpy as np
import pytest

from cylfbm import fbm, verify

TWO_OVER_PI = 0.63661977236758138  # E|Z1 Z2| for independent standard normals


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
        s = verify.shuffle_enumerate(3, 2)
        for perm in s.permutations:
            firsts = [p for p in perm if p < 3]
            seconds = [p for p in perm if p >= 3]
            assert firsts == sorted(firsts) and seconds == sorted(seconds)

    def test_cap(self):
        with pytest.raises(fbm.DomainError):
            verify.shuffle_enumerate(7, 6)


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

    def test_three_dim_monte_carlo(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        res = verify.gaussian_conditioning_check(A @ A.T + 0.1 * np.eye(3), seed=5)
        assert res.status

    def test_singular_rejected(self):
        with pytest.raises(fbm.DomainError):
            verify.gaussian_conditioning_check(np.ones((2, 2)))


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

    def test_exponent_constraint_enforced(self):
        with pytest.raises(fbm.DomainError):
            verify.simplex_beta_check([-0.9], [1], 0.1, 0.3, 0.2, 1.0, 1)


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


class TestOccupationDensity:
    def test_constant_is_exact(self):
        res = verify.occupation_density_check(0.3, 2 ** 10, lambda z: np.ones_like(z),
                                              0.0, 1.0, bins=64, seed=1)
        assert res.status
        assert res.details["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert res.details["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_covering_indicator_is_exact(self):
        res = verify.occupation_density_check(
            0.3, 2 ** 10, lambda z: (np.abs(z) < 50.0).astype(float),
            0.0, 1.0, bins=64, seed=2)
        assert res.details["lhs"] == pytest.approx(res.details["rhs"], abs=1e-12)

    def test_gaussian_bump_two_percent(self):
        res = verify.occupation_density_check(
            0.3, 2 ** 14, lambda z: np.exp(-0.5 * (z - 0.2) ** 2), 0.0, 1.0,
            bins=256, seed=3)
        assert res.status and res.measured < 0.02


class TestSuite:
    def test_rows_are_machine_readable(self):
        res = verify.permanent_check(seed=0)
        row = res.row()
        assert set(row) == {"check_id", "status", "measured", "bound", "slack"}


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
