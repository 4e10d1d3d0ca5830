import numpy as np
import pytest

from cylfbm import fbm
from cylfbm.verify import _two_sided_quad

from conftest import covariance_se

# frozen high-precision oracle values (25-digit Gamma/quadrature arithmetic)
C_FACTOR_QUARTER = 0.64599800374075197
KERNEL_ORACLE = {
    (0.1, 1.0, 0.5): 0.57506223778620585,
    (0.3, 1.0, 0.25): 0.84720415049433005,
    (0.05, 2.0, 1.3): 0.32968528009283978,
}


class TestCovariance:
    def test_zero_time(self):
        assert fbm.covariance(0.25, 1.0, 0.0) == 0.0

    def test_half_time_cancellation(self):
        assert fbm.covariance(0.25, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_variance_is_power_law(self):
        for H in (0.05, 0.2, 0.45):
            for t in (0.3, 1.0, 2.5):
                assert fbm.covariance(H, t, t) == pytest.approx(t ** (2 * H), rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(fbm.DomainError):
            fbm.covariance(0.2, -0.1, 0.5)

    def test_hurst_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(fbm.DomainError):
                fbm.covariance(bad, 1.0, 1.0)


class TestCFactor:
    def test_frozen_gamma_oracle(self):
        assert fbm.c_factor(0.25) == pytest.approx(C_FACTOR_QUARTER, rel=1e-13)

    def test_limit_toward_half(self):
        assert fbm.c_factor(0.499) == pytest.approx(1.0, abs=1e-2)

    def test_positive(self):
        rng = np.random.default_rng(0)
        for H in rng.uniform(0.01, 0.49, size=20):
            assert fbm.c_factor(H) > 0.0


class TestKernel:
    def test_divergence_at_upper_endpoint(self):
        t = 1.0
        near = fbm.kernel_K(0.2, t, t * (1 - 1e-6))
        far = fbm.kernel_K(0.2, t, t * (1 - 1e-3))
        assert near > far

    def test_frozen_quadrature_oracle(self):
        for (H, t, s), val in KERNEL_ORACLE.items():
            assert fbm.kernel_K(H, t, s) == pytest.approx(val, rel=1e-6)

    def test_square_integral_matches_variance(self):
        # sum of exact cell integrals of K^2 over (0, t) equals t^(2H)
        for H in (0.1, 0.3):
            grid = fbm.TimeGrid(1.0, 32)
            t = 1.0
            total = sum(
                fbm.kernel_cell_integral(H, t, grid.nodes[j], grid.nodes[j + 1], 2)
                for j in range(32)
            )
            assert total == pytest.approx(t ** (2 * H), abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(fbm.DomainError):
            fbm.kernel_K(0.2, 1.0, 1.0)
        with pytest.raises(fbm.DomainError):
            fbm.kernel_K(0.2, 1.0, 0.0)
        with pytest.raises(fbm.DomainError):
            fbm.kernel_K(0.2, 0.5, 0.7)

    def test_vectorized_matches_scalar(self):
        s = np.array([0.2, 0.5, 0.9])
        vec = fbm.kernel_values(0.1, 1.0, s)
        for si, vi in zip(s, vec):
            assert vi == pytest.approx(fbm.kernel_K(0.1, 1.0, si), rel=1e-10)


class TestKernelMatrix:
    def test_row_variance_l2_rule(self):
        H = 0.1
        grid = fbm.TimeGrid(1.0, 256)
        km = fbm.kernel_matrix(H, grid, "l2_cell")
        var = np.sum(km.entries ** 2, axis=1) * grid.step
        target = grid.nodes[1:] ** (2 * H)
        assert np.max(np.abs(var - target) / target) < 0.02  # exact per cell

    def test_strictly_lower_triangular(self, grid64):
        km = fbm.kernel_matrix(0.2, grid64, "cell_average")
        assert np.all(km.entries[np.triu_indices(64, k=1)] == 0.0)
        assert np.all(np.isfinite(km.entries))
        assert np.all(km.entries[np.tril_indices(64)] >= 0.0)

    def test_cell_rules_differ_on_diagonal_agree_off(self):
        H = 0.3
        grid = fbm.TimeGrid(1.0, 256)
        avg = fbm.kernel_matrix(H, grid, "cell_average").entries
        l2 = fbm.kernel_matrix(H, grid, "l2_cell").entries
        diag = np.arange(256)
        assert np.all(l2[diag, diag] > avg[diag, diag])
        # off-singularity cells: at least two cells away from the diagonal,
        # and past the first column
        i, j = np.tril_indices(256, k=-2)
        keep = j >= 1
        gap = np.abs(avg[i[keep], j[keep]] - l2[i[keep], j[keep]])
        assert np.max(gap) < 1e-3

    def test_c_factor_stored(self, grid64):
        km = fbm.kernel_matrix(0.2, grid64)
        assert km.c_factor == pytest.approx(fbm.c_factor(0.2))

    @pytest.mark.parametrize("n_cells", [16, 128])
    @pytest.mark.parametrize("cell_rule", ["cell_average", "l2_cell"])
    @pytest.mark.parametrize("H", [0.01, 0.08, 0.3, 0.45])
    def test_singular_cells_match_scalar_oracle(self, H, cell_rule, n_cells):
        # first-column and diagonal cells against kernel_cell_integral row by row
        grid = fbm.TimeGrid(1.0, n_cells)
        h = grid.step
        power = 2 if cell_rule == "l2_cell" else 1
        cells = fbm.kernel_matrix(H, grid, cell_rule).entries ** power * h
        first, diag, first_oracle, diag_oracle = [], [], [], []
        for i in range(2, n_cells + 1):
            t = i * h
            first.append(cells[i - 1, 0])
            diag.append(cells[i - 1, i - 1])
            first_oracle.append(fbm.kernel_cell_integral(H, t, 0.0, h, power))
            diag_oracle.append(fbm.kernel_cell_integral(H, t, (i - 1) * h, t, power))
        np.testing.assert_allclose(first, first_oracle, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(diag, diag_oracle, rtol=1e-10, atol=0.0)

    def test_scalar_quad_calls_independent_of_grid(self, monkeypatch):
        # the singular cells of all rows are integrated together; a build
        # must not fall back to one scalar quad per row
        calls = []
        quad = fbm.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(fbm.integrate, "quad", counting_quad)
        counts = {}
        for n_cells in (16, 128):
            calls.clear()
            fbm._kernel_matrix_entries.__wrapped__(0.08, 1.0, n_cells, "cell_average")
            counts[n_cells] = len(calls)
        assert counts[16] == counts[128]


class TestSampling:
    def test_determinism_bitwise(self, grid64):
        for method in ("cholesky", "kernel"):
            a = fbm.sample_fbm(0.3, grid64, 50, seed=42, method=method)
            b = fbm.sample_fbm(0.3, grid64, 50, seed=42, method=method)
            assert np.array_equal(a.values, b.values)

    def test_node_zero_exact(self, grid64):
        p = fbm.sample_fbm(0.1, grid64, 10, seed=1)
        assert np.all(p.values[:, 0] == 0.0)

    def test_cholesky_variance_at_one(self, grid64):
        n = 100_000
        p = fbm.sample_fbm(0.3, grid64, n, seed=5, method="cholesky")
        v = np.var(p.values[:, -1])
        se = np.sqrt(2.0 / n)  # relative SE of a Gaussian variance estimate
        assert abs(v - 1.0) < 3 * se

    def test_kernel_vs_cholesky_covariance(self, grid128):
        # exact-law oracle comparison at a moderate roughness where the
        # cell discretization resolves the kernel mass
        H, n = 0.3, 20_000
        pc = fbm.sample_fbm(H, grid128, n, seed=7, method="cholesky")
        pk = fbm.sample_fbm(H, grid128, n, seed=8, method="kernel",
                            cell_rule="l2_cell")
        C = fbm.exact_covariance_matrix(H, grid128)
        emp_c = pc.values[:, 1:].T @ pc.values[:, 1:] / n
        emp_k = pk.values[:, 1:].T @ pk.values[:, 1:] / n
        N = grid128.n_cells
        worst = 0.0
        for i in range(0, N, 7):
            for j in range(0, N, 7):
                tol = max(3 * covariance_se(C, i, j, n) * 2, 0.02 * abs(C[i, j]))
                worst = max(worst, abs(emp_k[i, j] - emp_c[i, j]) - tol)
        assert worst <= 0.0

    def test_kernel_law_discrepancy_reported(self, grid128):
        # at very low roughness the single-coefficient-per-cell construction
        # biases the implied joint law; the diagnostic must expose it
        km = fbm.kernel_matrix(0.05, grid128, "cell_average")
        implied = fbm.implied_covariance(km)
        C = fbm.exact_covariance_matrix(0.05, grid128)
        rel = np.abs(implied - C) / np.abs(C)
        assert np.max(rel) > 0.02  # genuinely discrepant, not hidden

    def test_factorization_error_surfaces(self):
        with pytest.raises(fbm.FactorizationError):
            fbm._cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestConditioning:
    def test_empty_set_is_unconditional(self, grid64):
        v = fbm.conditional_variance(0.2, grid64, 10, [])
        assert v == pytest.approx(grid64.nodes[10] ** 0.4, rel=1e-12)

    def test_duplicate_time_gives_zero(self):
        times = [0.25, 0.5, 0.5, 1.0]
        v = fbm.fbm_conditional_variance_times(0.2, times, 1, [2, 3])
        assert abs(v) < 1e-10

    def test_monotone_under_inclusion(self, grid64):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tgt = int(rng.integers(1, 65))
            pool = [i for i in range(1, 65) if i != tgt]
            rng.shuffle(pool)
            small = pool[:5]
            big = pool[:12]
            v_small = fbm.conditional_variance(0.15, grid64, tgt, small)
            v_big = fbm.conditional_variance(0.15, grid64, tgt, big)
            assert v_big <= v_small + 1e-10

    def test_singular_conditioning_flagged(self):
        times = [0.5, 0.25, 0.25, 1.0]  # duplicated conditioning time
        v, info = fbm.fbm_conditional_variance_times(0.2, times, 0, [1, 2],
                                                     return_info=True)
        assert np.isfinite(v)
        # duplicate rows make the block singular; either the solve regularizes
        # or numpy handles the consistent system, but the call must not fail
        assert isinstance(info["regularized"], bool)


class TestLndConstant:
    def test_positive_and_normalized(self, grid128):
        c = fbm.estimate_lnd_constant(0.08, grid128, r=0.1)
        assert 0.0 < c.estimate <= 1.0

    def test_grid_refinement_stability(self):
        a = fbm.estimate_lnd_constant(0.08, fbm.TimeGrid(1.0, 128), r=0.1)
        b = fbm.estimate_lnd_constant(0.08, fbm.TimeGrid(1.0, 256), r=0.1)
        assert abs(a.estimate - b.estimate) / a.estimate < 0.10

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(fbm.DomainError):
            fbm.estimate_lnd_constant(0.2, fbm.TimeGrid(1.0, 16), r=1.0)


class TestLawInvariants:
    def test_empirical_covariance_matches(self, grid64):
        H, n = 0.2, 40_000
        p = fbm.sample_fbm(H, grid64, n, seed=11, method="cholesky")
        C = fbm.exact_covariance_matrix(H, grid64)
        emp = p.values[:, 1:].T @ p.values[:, 1:] / n
        rng = np.random.default_rng(1)
        for _ in range(10):
            i, j = rng.integers(0, 64, size=2)
            se = covariance_se(C, i, j, n)
            assert abs(emp[i, j] - C[i, j]) < 3 * se

    def test_stationary_increments(self, grid64):
        H, n = 0.25, 40_000
        p = fbm.sample_fbm(H, grid64, n, seed=13, method="cholesky")
        rng = np.random.default_rng(2)
        for _ in range(10):
            i, j = sorted(rng.integers(0, 65, size=2))
            if i == j:
                continue
            d = p.values[:, j] - p.values[:, i]
            target = (grid64.nodes[j] - grid64.nodes[i]) ** (2 * H)
            se = target * np.sqrt(2.0 / n)
            assert abs(np.mean(d ** 2) - target) < 3 * se

    def test_kernel_product_integral_is_covariance(self):
        rng = np.random.default_rng(4)
        for H in (0.05, 0.1, 0.3):
            for _ in range(10):
                s, t = np.sort(rng.uniform(0.05, 1.0, size=2))
                if t - s < 1e-3:
                    t = s + 0.1
                k_t = lambda u: float(fbm.kernel_values(H, t, u))
                k_s_of_delta = lambda dr: float(
                    fbm.kernel_values(H, t, s - dr)) * float(
                    np.exp(fbm._log_kernel(H, s, s - dr, log_diff=np.log(dr))))
                val = _two_sided_quad(
                    lambda dl: float(fbm.kernel_values(H, t, dl))
                    * float(fbm.kernel_values(H, s, dl)),
                    k_s_of_delta,
                    0.0, s, 2 * H - 1.0, H - 0.5)
                assert val == pytest.approx(fbm.covariance(H, t, s), abs=1e-3)
