import numpy as np
import pytest
from scipy import integrate, special

from cylfbm import fbm
from cylfbm.verify import _graded_half

from conftest import covariance_se, kernel_cell_integral, kernel_K

# frozen high-precision oracle values (25-digit Gamma/quadrature arithmetic)
C_FACTOR_QUARTER = 0.64599800374075197
KERNEL_ORACLE = {
    (0.1, 1.0, 0.5): 0.57506223778620585,
    (0.3, 1.0, 0.25): 0.84720415049433005,
    (0.05, 2.0, 1.3): 0.32968528009283978,
}


class TestTimeGrid:
    def test_nodes_built_once_and_read_only(self):
        grid = fbm.TimeGrid(2.0, 8)
        assert grid.nodes is grid.nodes
        assert np.array_equal(grid.nodes, np.linspace(0.0, 2.0, 9))
        with pytest.raises(ValueError):
            grid.nodes[1] = 0.5
        assert grid == fbm.TimeGrid(2.0, 8) and hash(grid) == hash(fbm.TimeGrid(2.0, 8))


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


def beta_families(H):
    """The (a, b) pairs of every incomplete beta the code evaluates: the
    kernel primitive, the beta tail, and the two moments of each
    weighted-integral matrix (the inverse transform and both factors of the
    forward transform)."""
    return [(1.5 - H, H + 0.5), (1 - 2 * H, H + 0.5),
            (1.5 - H, 0.5 - H), (2.5 - H, 0.5 - H),
            (H + 0.5, 0.5 - H), (H + 1.5, 0.5 - H),
            (1.5 - H, 2 * H), (2.5 - H, 2 * H)]


def ratio_grid(n_cells, first_row=1):
    """The ratios t_j / t_i, j <= i, of the grid rows first_row..n_cells."""
    return np.unique(np.concatenate([np.arange(i + 1) / i
                                     for i in range(first_row, n_cells + 1)]))


class TestBetaFunctions:
    # the last 32 rows of the 1024-cell grid carry its ratios nearest 0 and 1
    GRID = np.unique(np.concatenate([ratio_grid(16), ratio_grid(128), ratio_grid(1024, 993)]))

    @pytest.mark.parametrize("H", [0.01, 0.02, 0.04, 0.08, 0.3, 0.45])
    def test_both_tails_match_scipy(self, H):
        x = self.GRID
        assert x[0] == 0.0 and x[-1] == 1.0
        for a, b in beta_families(H):
            lower, upper = fbm.betainc(a, b, x)
            np.testing.assert_allclose(lower, special.betainc(a, b, x), rtol=0, atol=5e-15)
            np.testing.assert_allclose(upper, special.betainc(b, a, 1.0 - x), rtol=0, atol=5e-15)
            assert fbm.betainc(a, b, 0.0) == (0.0, 1.0) and fbm.betainc(a, b, 1.0) == (1.0, 0.0)

    @pytest.mark.parametrize("H", [0.01, 0.08, 0.45])
    def test_scalar_and_array_calls_agree(self, H):
        x = ratio_grid(128)
        for a, b in beta_families(H):
            lower, upper = fbm.betainc(a, b, x)
            scalar = np.array([fbm.betainc(a, b, v) for v in x])
            np.testing.assert_allclose(scalar[:, 0], lower, rtol=0, atol=4e-16)
            np.testing.assert_allclose(scalar[:, 1], upper, rtol=0, atol=4e-16)

    def test_gauss_legendre_is_built_once_and_read_only(self):
        x, w = fbm.gauss_legendre(64)
        again = fbm.gauss_legendre(64)
        assert again[0] is x and again[1] is w
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        want = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])

    def test_complete_beta_matches_scipy(self):
        for H in (0.001, 0.01, 0.02, 0.04, 0.08, 0.3, 0.45, 0.499):
            for a, b in beta_families(H):
                assert fbm.beta(a, b) == pytest.approx(special.beta(a, b), rel=1e-14)


class TestKernel:
    def test_divergence_at_upper_endpoint(self):
        t = 1.0
        near = kernel_K(0.2, t, t * (1 - 1e-6))
        far = kernel_K(0.2, t, t * (1 - 1e-3))
        assert near > far

    def test_frozen_quadrature_oracle(self):
        for (H, t, s), val in KERNEL_ORACLE.items():
            assert kernel_K(H, t, s) == pytest.approx(val, rel=1e-6)

    def test_square_integral_matches_variance(self):
        # sum of exact cell integrals of K^2 over (0, t) equals t^(2H)
        for H in (0.1, 0.3):
            grid = fbm.TimeGrid(1.0, 32)
            t = 1.0
            total = sum(
                kernel_cell_integral(H, t, grid.nodes[j], grid.nodes[j + 1], 2)
                for j in range(32)
            )
            assert total == pytest.approx(t ** (2 * H), abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(fbm.DomainError):
            kernel_K(0.2, 1.0, 1.0)
        with pytest.raises(fbm.DomainError):
            kernel_K(0.2, 1.0, 0.0)
        with pytest.raises(fbm.DomainError):
            kernel_K(0.2, 0.5, 0.7)

    def test_vectorized_matches_scalar(self):
        s = np.array([0.2, 0.5, 0.9])
        vec = fbm.kernel_values(0.1, 1.0, s)
        for si, vi in zip(s, vec):
            assert vi == pytest.approx(kernel_K(0.1, 1.0, si), rel=1e-10)


class TestKernelMatrix:
    def test_strictly_lower_triangular(self, grid64):
        M = fbm.kernel_matrix(0.2, grid64)
        assert np.all(M[np.triu_indices(64, k=1)] == 0.0)
        assert np.all(np.isfinite(M))
        assert np.all(M[np.tril_indices(64)] >= 0.0)
        assert not M.flags.writeable  # the cached entries are shared

    @pytest.mark.parametrize("n_cells", [16, 128])
    # the one cell rule left (the mean kernel value per cell), kept in the test id
    @pytest.mark.parametrize("cell_rule", ["cell_average"])
    @pytest.mark.parametrize("H", [0.01, 0.08, 0.3, 0.45])
    def test_singular_cells_match_scalar_oracle(self, H, cell_rule, n_cells):
        # first-column and diagonal cells against kernel_cell_integral row by row
        grid = fbm.TimeGrid(1.0, n_cells)
        h = grid.step
        cells = fbm.kernel_matrix(H, grid) * h
        first, diag, first_oracle, diag_oracle = [], [], [], []
        for i in range(2, n_cells + 1):
            t = i * h
            first.append(cells[i - 1, 0])
            diag.append(cells[i - 1, i - 1])
            first_oracle.append(kernel_cell_integral(H, t, 0.0, h))
            diag_oracle.append(kernel_cell_integral(H, t, (i - 1) * h, t))
        np.testing.assert_allclose(first, first_oracle, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(diag, diag_oracle, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("H", [0.01, 0.08, 0.3, 0.45])
    def test_every_cell_matches_scalar_oracle(self, H):
        grid = fbm.TimeGrid(1.0, 16)
        h = grid.step
        cells = fbm.kernel_matrix(H, grid) * h
        rows, cols = np.tril_indices(16)
        oracle = [kernel_cell_integral(H, (i + 1) * h, j * h, (j + 1) * h)
                  for i, j in zip(rows, cols)]
        np.testing.assert_allclose(cells[rows, cols], oracle, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("H", [0.01, 0.08, 0.3, 0.45])
    def test_row_sums_are_full_kernel_integrals(self, H):
        # h sum_j M[i, j] = integral_0^t K(t,u) du = c_H t^p B(3/2-H, p) / p
        grid = fbm.TimeGrid(1.0, 128)
        p = H + 0.5
        t = grid.nodes[1:]
        full = fbm.c_factor(H) * t ** p * special.beta(1.5 - H, p) / p
        np.testing.assert_allclose(fbm.kernel_matrix(H, grid).sum(axis=1) * grid.step,
                                   full, rtol=1e-12, atol=0.0)

    def test_build_runs_no_quadrature(self, monkeypatch):
        # every cell is a difference of a closed-form primitive
        def refuse(*args, **kwargs):
            raise AssertionError("kernel matrix build called scipy.integrate")

        monkeypatch.setattr(integrate, "quad", refuse)
        monkeypatch.setattr(integrate, "quad_vec", refuse)
        for n_cells in (16, 128):
            M = fbm._kernel_matrix_entries.__wrapped__(0.08, 1.0, n_cells)
            assert M.shape == (n_cells, n_cells)


def kernel_sample(H, grid, n_paths, seed) -> np.ndarray:
    """Kernel-construction paths, node-major with shape (n_nodes, n_paths):
    the kernel matrix times N(0, step) cell increments drawn path-major, as
    :func:`cylfbm.cylinder.sample_cyl_fbm` draws them (at any H, which the
    summable sequences it takes do not allow)."""
    rng = np.random.default_rng(seed)
    dW = rng.standard_normal((n_paths, grid.n_cells)) * np.sqrt(grid.step)
    out = np.zeros((grid.n_nodes, n_paths))
    out[1:] = fbm.kernel_matrix(H, grid) @ dW.T
    return out


def cholesky_sample(H, grid, n_paths, seed) -> np.ndarray:
    """Exact-law paths, node-major with shape (n_nodes, n_paths): the
    Cholesky factor of the node covariance times standard normals drawn
    node-major, as :func:`cylfbm.cylinder.sample_cyl_fbm` draws them (at any
    H, which the summable sequences it takes do not allow)."""
    rng = np.random.default_rng(seed)
    out = np.zeros((grid.n_nodes, n_paths))
    out[1:] = fbm.cholesky_factor(H, grid) @ rng.standard_normal((grid.n_cells, n_paths))
    return out


class TestSampling:
    def test_determinism_bitwise(self, grid64):
        assert np.array_equal(cholesky_sample(0.3, grid64, 50, 42),
                              cholesky_sample(0.3, grid64, 50, 42))
        assert np.array_equal(kernel_sample(0.3, grid64, 50, 42),
                              kernel_sample(0.3, grid64, 50, 42))

    def test_node_zero_exact(self, grid64):
        p = cholesky_sample(0.1, grid64, 10, seed=1)
        assert np.all(p[0] == 0.0)

    def test_cholesky_variance_at_one(self, grid64):
        n = 100_000
        p = cholesky_sample(0.3, grid64, n, seed=5)
        v = np.var(p[-1])
        se = np.sqrt(2.0 / n)  # relative SE of a Gaussian variance estimate
        assert abs(v - 1.0) < 3 * se

    def test_kernel_vs_cholesky_covariance(self, grid128):
        # exact-law oracle comparison at a moderate roughness where the
        # cell discretization resolves the kernel mass
        H, n = 0.3, 20_000
        pc = cholesky_sample(H, grid128, n, seed=7)
        pk = kernel_sample(H, grid128, n, seed=8)
        C = fbm.exact_covariance_matrix(H, grid128)
        emp_c = pc[1:] @ pc[1:].T / n
        emp_k = pk[1:] @ pk[1:].T / n
        N = grid128.n_cells
        worst = 0.0
        for i in range(0, N, 7):
            for j in range(0, N, 7):
                tol = max(3 * covariance_se(C, i, j, n) * 2, 0.02 * abs(C[i, j]))
                worst = max(worst, abs(emp_k[i, j] - emp_c[i, j]) - tol)
        assert worst <= 0.0

    def test_kernel_law_discrepancy_reported(self, grid128):
        # at very low roughness the single-coefficient-per-cell construction
        # biases the joint law it samples, M h M^T; the bias must show
        M = fbm.kernel_matrix(0.05, grid128)
        implied = M @ M.T * grid128.step
        C = fbm.exact_covariance_matrix(0.05, grid128)
        rel = np.abs(implied - C) / np.abs(C)
        assert np.max(rel) > 0.02  # genuinely discrepant, not hidden

    def test_factorization_error_surfaces(self, monkeypatch, grid64):
        # no jitter: an indefinite covariance is an error, never a nearby law
        monkeypatch.setattr(fbm, "exact_covariance_matrix",
                            lambda H, grid: np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(fbm.FactorizationError):
            fbm.cholesky_factor(0.3, grid64)


class TestConditioning:
    def test_empty_set_is_unconditional(self, grid64):
        v = fbm.schur_conditional_variance(fbm.covariance_matrix(0.2, grid64.nodes), 10, [])
        assert v == pytest.approx(grid64.nodes[10] ** 0.4, rel=1e-12)

    def test_duplicate_time_gives_zero(self):
        times = [0.25, 0.5, 0.5, 1.0]
        v = fbm.schur_conditional_variance(fbm.covariance_matrix(0.2, times), 1, [2, 3])
        assert abs(v) < 1e-10

    def test_monotone_under_inclusion(self, grid64):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tgt = int(rng.integers(1, 65))
            pool = [i for i in range(1, 65) if i != tgt]
            rng.shuffle(pool)
            small = pool[:5]
            big = pool[:12]
            cov = fbm.covariance_matrix(0.15, grid64.nodes)
            v_small = fbm.schur_conditional_variance(cov, tgt, small)
            v_big = fbm.schur_conditional_variance(cov, tgt, big)
            assert v_big <= v_small + 1e-10

    def test_singular_conditioning_flagged(self):
        times = [0.5, 0.25, 0.25, 1.0]  # duplicated conditioning time
        # duplicate rows make the block singular; either the solve regularizes
        # or numpy handles the consistent system, but the call must not fail
        v = fbm.schur_conditional_variance(fbm.covariance_matrix(0.2, times), 0, [1, 2])
        assert np.isfinite(v)


class TestLndConstant:
    def test_positive_and_normalized(self, grid128):
        c = fbm.estimate_lnd_constant(0.08, grid128, r=0.1)
        assert isinstance(c, float) and 0.0 < c <= 1.0

    def test_grid_refinement_stability(self):
        a = fbm.estimate_lnd_constant(0.08, fbm.TimeGrid(1.0, 128), r=0.1)
        b = fbm.estimate_lnd_constant(0.08, fbm.TimeGrid(1.0, 256), r=0.1)
        assert abs(a - b) / a < 0.10

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(fbm.DomainError):
            fbm.estimate_lnd_constant(0.2, fbm.TimeGrid(1.0, 16), r=1.0)

    def test_estimate_above_one_rejected(self, monkeypatch, grid64):
        # a conditional variance above r^2H breaks the normalization
        monkeypatch.setattr(fbm, "schur_conditional_variance", lambda *a, **kw: 2.0)
        with pytest.raises(fbm.DomainError, match=r"must lie in \(0, 1\]"):
            fbm.estimate_lnd_constant(0.08, grid64, r=0.1)


class TestLawInvariants:
    def test_empirical_covariance_matches(self, grid64):
        H, n = 0.2, 40_000
        p = cholesky_sample(H, grid64, n, seed=11)
        C = fbm.exact_covariance_matrix(H, grid64)
        emp = p[1:] @ p[1:].T / n
        rng = np.random.default_rng(1)
        for _ in range(10):
            i, j = rng.integers(0, 64, size=2)
            se = covariance_se(C, i, j, n)
            assert abs(emp[i, j] - C[i, j]) < 3 * se

    def test_stationary_increments(self, grid64):
        H, n = 0.25, 40_000
        p = cholesky_sample(H, grid64, n, seed=13)
        rng = np.random.default_rng(2)
        for _ in range(10):
            i, j = sorted(rng.integers(0, 65, size=2))
            if i == j:
                continue
            d = p[j] - p[i]
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
                half = np.array([0.5 * s])
                val = _graded_half(
                    lambda dl: fbm.kernel_values(H, t, dl) * fbm.kernel_values(H, s, dl),
                    2 * H - 1.0, half)[0] + _graded_half(
                    lambda dr: fbm.kernel_values(H, t, s - dr)
                    * np.exp(fbm._log_kernel(H, s, s - dr, log_diff=np.log(dr))),
                    H - 0.5, half)[0]
                assert val == pytest.approx(fbm.covariance(H, t, s), abs=1e-3)
