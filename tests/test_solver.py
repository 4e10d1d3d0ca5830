import numpy as np
import pytest
from scipy import integrate

from conftest import traced_peak
from cylfbm import cylinder, drift, fbm, solver


@pytest.fixture(scope="module")
def noise2(sequences, grid64):
    hs, ws = sequences
    return cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 400, seed=3,
                                   method="kernel", keep_increments=True)


@pytest.fixture(scope="module")
def jump_md(sequences):
    _, ws = sequences
    spec = drift.indicator_exponential_family(ws, 4)
    return drift.mollify(spec, 2, 0.1)


@pytest.fixture(scope="module")
def jump_sol(jump_md, noise2):
    return solver.picard_solve(jump_md, np.zeros(2), noise2)


def scalar_noise(H, lam, grid, n_paths, seed):
    hs = cylinder.HurstSequence(heads=(H, H / 2), tail_ratio=0.5)
    ws = cylinder.WeightSequence(heads=(lam, lam / 2), tail_ratio=0.5)
    return cylinder.sample_cyl_fbm(hs, ws, 1, grid, n_paths, seed,
                                   method="kernel", keep_increments=True)


def counted(md, calls):
    """The drift of ``md`` as a callable that logs each evaluation in ``calls``."""
    def fn(t, y):
        calls.append(t)
        return md.evaluator(t, y)
    return fn


class TestPicard:
    def test_zero_drift_exact(self, sequences, noise2):
        _, ws = sequences
        md = drift.mollify(drift.zero_drift(ws, 2), 2, 0.1)
        x = np.array([0.3, -0.2])
        sol = solver.picard_solve(md, x, noise2)
        assert sol.iterations_used == 1
        assert np.array_equal(sol.paths, x[:, None, None] + noise2.values)
        assert np.all(sol.paths[:, 0, :] == x[:, None])

    def test_constant_drift_linear_in_time(self, noise2, grid64):
        c = np.array([0.4, -0.2])
        fn = lambda t, y: np.broadcast_to(c[:, None], y.shape).copy()
        x = np.array([0.1, 0.0])
        sol = solver.picard_solve(fn, x, noise2)
        expect = x[:, None, None] + c[:, None, None] * grid64.nodes[None, :, None] \
            + noise2.values
        assert np.max(np.abs(sol.paths - expect)) < 1e-10

    def test_linear_drift_integrating_factor_oracle(self):
        # dX = -theta X dt + dB with the sampled path as driving polygon; the
        # integrating factor gives the exact per-cell recursion
        # X_{i+1} = e^(-theta h) X_i + (dB_i/h) (1 - e^(-theta h))/theta, an
        # independent route to the continuum solution.  The left rule is first
        # order, so its extrapolation 2 e_512 - e_256 over the same sample
        # restricted to every other node must meet the bound
        theta, lam, H = 0.8, 0.7, 0.08
        fine = fbm.TimeGrid(1.0, 512)
        noise = scalar_noise(H, lam, fine, 50, seed=5)
        fn = lambda t, y: -theta * y
        x = np.array([0.5])
        errs = []
        for grid, stride in ((fine, 1), (fbm.TimeGrid(1.0, 256), 2)):
            sub = cylinder.CylEnsemble(d=1, grid=grid, values=noise.values[:, ::stride, :],
                                       hursts=noise.hursts, weights=noise.weights)
            sol = solver.picard_solve(fn, x, sub)
            B = sub.values[0]  # (nodes, paths)
            h = grid.step
            left = np.full(B.shape[1], x[0])
            for i in range(grid.n_cells):
                left = (1.0 - theta * h) * left + (B[i + 1] - B[i])
            assert np.max(np.abs(sol.paths[0, -1, :] - left)) < 1e-12
            decay = np.exp(-theta * h)
            gain = (1.0 - decay) / theta
            oracle = np.full(B.shape[1], x[0])
            for i in range(grid.n_cells):
                oracle = decay * oracle + (B[i + 1] - B[i]) / h * gain
            errs.append(sol.paths[0, -1, :] - oracle)
        e512, e256 = errs
        assert np.max(np.abs(2 * e512 - e256)) < 1e-4
        assert 1.8 <= np.max(np.abs(e256)) / np.max(np.abs(e512)) <= 2.2

    def test_pathwise_uniqueness_proxy(self, jump_md, noise2):
        # the forward sweep and the global iterates reach one fixed point
        tol = 1e-11
        a = solver.picard_solve(jump_md, np.zeros(2), noise2)
        b = solver.picard_iterates(jump_md, np.zeros(2), noise2, tol=tol)
        gap = np.max(np.sqrt(np.mean(np.sum((a.paths - b.paths) ** 2, axis=0), axis=-1)))
        assert gap <= 2 * tol

    def test_causality(self, jump_md, sequences, grid64):
        hs, ws = sequences
        noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 50, seed=7, method="kernel")
        cut = 40
        trunc_vals = noise.values.copy()
        trunc_vals[:, cut + 1 :, :] = 0.0
        noise_cut = cylinder.CylEnsemble(d=2, grid=grid64, values=trunc_vals,
                                         hursts=hs, weights=ws)
        a = solver.picard_solve(jump_md, np.zeros(2), noise)
        b = solver.picard_solve(jump_md, np.zeros(2), noise_cut)
        assert np.array_equal(a.paths[:, : cut + 1, :], b.paths[:, : cut + 1, :])

    def test_matches_tight_global_reference(self, sequences, grid128):
        hs, ws = sequences
        md = drift.mollify(drift.indicator_exponential_family(ws, 4), 4, 0.0125)
        noise = cylinder.sample_cyl_fbm(hs, ws, 4, grid128, 2000, seed=41, method="kernel")
        tol = 1e-9
        sol = solver.picard_solve(md, np.zeros(4), noise)
        ref = solver.picard_iterates(md, np.zeros(4), noise, tol=1e-14)
        gap = np.sqrt(np.mean(np.sum((sol.paths - ref.paths) ** 2, axis=0), axis=-1))
        assert np.all(gap <= tol)
        # the explicit sweep leaves no residual
        assert (sol.iterations_used, sol.final_residual, sol.residuals) == (1, 0.0, ())

    def test_fewer_drift_evaluations_than_global(self, jump_md, noise2):
        sweep, iterates = [], []
        solver.picard_solve(counted(jump_md, sweep), np.zeros(2), noise2)
        solver.picard_iterates(counted(jump_md, iterates), np.zeros(2), noise2)
        assert len(sweep) < len(iterates) / 2

    def test_left_rule_available(self, jump_md, noise2):
        # explicit: one drift evaluation per cell, the same path as the
        # left-rule fixed point x + B_i + h sum_{j<i} F(t_j, X_j)
        calls = []
        sol = solver.picard_solve(counted(jump_md, calls), np.zeros(2), noise2)
        assert sol.iterations_used == 1 and len(calls) == noise2.grid.n_cells
        h = noise2.grid.step
        F = np.stack([jump_md.evaluator(t, sol.paths[:, i, :])
                      for i, t in enumerate(noise2.grid.nodes[:-1])], axis=1)
        expect = noise2.values.copy()
        expect[:, 1:, :] += np.cumsum(h * F, axis=1)
        assert np.max(np.abs(sol.paths - expect)) < 1e-12


class TestPicardIterates:
    def test_nonconvergence_carries_history(self, noise2):
        fn = lambda t, y: 60.0 * y  # expansive; the iteration cannot settle
        with pytest.raises(solver.PicardConvergenceError) as err:
            solver.picard_iterates(fn, np.zeros(2), noise2, tol=1e-12, max_iter=5)
        assert len(err.value.residuals) == 5


class TestResidualCurve:
    def test_zero_after_first(self, sequences, noise2):
        _, ws = sequences
        md = drift.mollify(drift.zero_drift(ws, 2), 2, 0.1)
        sol = solver.picard_iterates(md, np.zeros(2), noise2)
        assert sol.residuals[-1] == 0.0

    def test_lipschitz_ratio_bound(self, grid64):
        # contraction factor of the iteration is at most L * t_end
        theta, L = 0.9, 0.9
        noise = scalar_noise(0.08, 0.5, grid64, 300, seed=11)
        fn = lambda t, y: -theta * y
        sol = solver.picard_iterates(fn, np.array([0.4]), noise, tol=1e-12)
        diag = solver.picard_residual_curve(sol.residuals, grid64.t_end)
        assert all(r <= L * grid64.t_end * 1.1 for r in diag.ratios)
        assert diag.super_geometric

    def test_jump_family_ratios_decreasing(self, jump_md, noise2, grid64):
        sol = solver.picard_iterates(jump_md, np.zeros(2), noise2, tol=1e-11)
        diag = solver.picard_residual_curve(sol.residuals, grid64.t_end)
        assert diag.super_geometric
        assert np.isfinite(diag.fitted_rate) and diag.fitted_rate > 0

    def test_needs_three_iterates(self):
        with pytest.raises(fbm.DomainError):
            solver.picard_residual_curve([0.1, 0.01], 1.0)

    def test_fixed_count_solve_history(self, jump_md, noise2):
        # a fixed-count solve keeps every residual for the curve to read
        sol = solver.picard_iterates(jump_md, np.zeros(2), noise2, exact_iterations=6)
        assert sol.iterations_used == 6 and len(sol.residuals) == 6
        diag = solver.picard_residual_curve(sol.residuals, noise2.grid.t_end)
        assert diag.residuals == sol.residuals


class TestMalliavinDerivative:
    def test_zero_drift_is_weighted_kernel_column(self, sequences, grid64):
        hs, ws = sequences
        md = drift.mollify(drift.zero_drift(ws, 2), 2, 0.1)
        noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 30, seed=13,
                                        method="kernel", keep_increments=True)
        sol = solver.picard_solve(md, np.zeros(2), noise)
        j0, m = 16, 1
        blk = solver.malliavin_derivative(sol, j0, m)
        s = grid64.nodes[j0]
        expect = ws.value(m) * fbm.kernel_values(hs.value(m), grid64.nodes[j0 + 1 :], s)
        assert np.allclose(blk[m - 1, j0 + 1 :, 0], expect, rtol=1e-12)
        assert np.all(blk[1] == 0.0)  # other component untouched
        assert np.all(blk[:, : j0 + 1, :] == 0.0)

    def test_linear_drift_oracle(self):
        # scalar dX = -theta X dt + lam dB: the derivative solves a linear
        # equation with closed form lam*(K(t,s) - theta int_s^t e^(-theta(t-u)) K(u,s) du)
        # The left-rule linearisation is first order, so the check is on the
        # extrapolation 2 D_512 - D_256, the coarse grid taking the same sample
        # restricted to every other node
        theta, lam, H = 0.8, 0.7, 0.08
        fine = fbm.TimeGrid(1.0, 512)
        noise = scalar_noise(H, lam, fine, 5, seed=17)
        md_like = _LinearDrift(theta)  # the drift with its Jacobian evaluator
        s = 0.25
        blocks = []
        for grid, stride in ((fine, 1), (fbm.TimeGrid(1.0, 256), 2)):
            sub = cylinder.CylEnsemble(d=1, grid=grid, values=noise.values[:, ::stride, :],
                                       hursts=noise.hursts, weights=noise.weights)
            sol = solver.picard_solve(md_like, np.array([0.2]), sub)
            blocks.append(solver.malliavin_derivative(sol, 128 // stride, 1))
        fine_blk, coarse_blk = blocks
        q = H + 0.5

        def oracle(t):
            g = lambda v: np.exp(-theta * (t - (s + v ** (1.0 / q)))) * np.exp(
                fbm._log_kernel(H, s + v ** (1.0 / q), s, np.log(v) / q)) \
                * v ** (1.0 / q - 1.0) / q
            I, _ = integrate.quad(g, 0, (t - s) ** q, epsabs=1e-13, epsrel=1e-11,
                                  limit=300)
            return lam * (float(fbm.kernel_values(H, t, s)) - theta * I)

        for i in (136, 256, 384, 512):
            t = fine.nodes[i]
            d512, d256 = fine_blk[0, i, 0], coarse_blk[0, i // 2, 0]
            exact = oracle(t)
            assert 2 * d512 - d256 == pytest.approx(exact, rel=1e-4)
            assert 1.8 <= (d256 - exact) / (d512 - exact) <= 2.2

    def test_series_consistency_two_term(self):
        # adding the first iterated-integral term reproduces the solved value
        # up to the next-order remainder; with a constant Jacobian the
        # remainder scales like (t-s)^(H+3/2) in the elapsed time
        theta, lam, H = 0.8, 0.7, 0.08
        grid = fbm.TimeGrid(1.0, 256)
        noise = scalar_noise(H, lam, grid, 5, seed=37)
        md_like = _LinearDrift(theta)
        base = solver.picard_solve(md_like, np.array([0.2]), noise)
        j0 = 64
        s = grid.nodes[j0]
        blk = solver.malliavin_derivative(base, j0, 1)
        kappa = fbm.kernel_time_cell_integrals(H, s, grid, j0)
        gaps = []
        spans = (16, 32, 64)
        for span in spans:
            i = j0 + span
            two_term = lam * float(fbm.kernel_values(H, grid.nodes[i], s)) \
                - theta * lam * float(np.sum(kappa[: i - j0]))
            gaps.append(abs(blk[0, i, 0] - two_term))
        r1, r2 = gaps[1] / gaps[0], gaps[2] / gaps[1]
        expected = 2.0 ** (H + 1.5)
        assert r1 == pytest.approx(expected, rel=0.25)
        assert r2 == pytest.approx(expected, rel=0.25)

    def test_jacobian_required(self, grid64):
        noise = scalar_noise(0.08, 0.5, grid64, 5, seed=19)
        sol = solver.picard_solve(lambda t, y: 0.0 * y, np.array([0.0]), noise)
        with pytest.raises(fbm.DomainError):
            solver.malliavin_derivative(sol, 16, 1)


class _LinearDrift:
    """Callable drift with the Jacobian evaluator the derivative solver expects."""

    def __init__(self, theta):
        self.theta = theta

    def __call__(self, t, y):
        return -self.theta * y

    @property
    def evaluator(self):
        return self

    @property
    def gradient_evaluator(self):
        def jac(t, z):
            d, m = z.shape
            out = np.zeros((d, d, m))
            for i in range(d):
                out[i, i, :] = -self.theta
            return out

        return jac



class TestFdCheck:
    def test_zero_drift_machine_exact(self, sequences, grid64):
        hs, ws = sequences
        md = drift.mollify(drift.zero_drift(ws, 2), 2, 0.1)
        noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 50, seed=23,
                                        method="kernel", keep_increments=True)
        sol = solver.picard_solve(md, np.zeros(2), noise)
        res = solver.malliavin_fd_check(sol, 16, 1, bump=1e-4, window_cells=2)
        assert res.relative_error < 1e-8

    def test_smooth_drift_tolerance(self, jump_sol):
        res = solver.malliavin_fd_check(jump_sol, 16, 1, bump=1e-4, window_cells=2)
        assert res.relative_error < 1e-2

    def test_bump_refinement_trend(self, jump_sol):
        coarse = solver.malliavin_fd_check(jump_sol, 16, 1, bump=1e-3)
        fine = solver.malliavin_fd_check(jump_sol, 16, 1, bump=1e-4)
        assert fine.relative_error < coarse.relative_error


class TestGridRefinement:
    def test_estimates_stable_under_halving(self, sequences):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 2)
        md = drift.mollify(spec, 2, 0.1)
        n = 4000
        vals = {}
        for cells in (32, 64):
            grid = fbm.TimeGrid(1.0, cells)
            noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid, n, seed=29, method="kernel")
            sol = solver.picard_solve(md, np.zeros(2), noise)
            g = sol.paths[0, -1, :]
            vals[cells] = (float(np.mean(g)), float(np.std(g, ddof=1) / np.sqrt(n)))
        gap = abs(vals[32][0] - vals[64][0])
        assert gap < np.hypot(vals[32][1], vals[64][1]) * 3


class TestConvergeExperiment:
    def test_rows_shape_and_reporting(self, sequences, grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        rows, target = solver.converge_experiment(
            spec, [(1, 0.2), (2, 0.1)], 1.0, ["coordinate:1", "clipped_norm:2"],
            hs, ws, grid64, np.zeros(4), 2000, seed=31)
        assert len(rows) == 4  # one row per (schedule point, functional)
        for row in rows:
            assert set(row) == {"d", "eps", "t", "phi_id", "value", "stderr",
                                "target", "target_stderr", "gap",
                                "paired_gap", "paired_stderr"}
            assert row["gap"] == pytest.approx(row["value"] - row["target"])
            assert (row["target"], row["target_stderr"]) == target.estimates[row["phi_id"]]
        assert 0.0 < target.ess_fraction <= 1.0

    def test_paired_gap_sharper_than_independent(self, sequences, grid64):
        # component 2 has no jump, so from level 2 on its solve and the
        # raw-drift reference take the same left-rule steps on the same noise;
        # the clipped norm reads component 1 too, whose jump the mollifier
        # smooths, and its paired gap is far sharper than the independent one
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        rows, _ = solver.converge_experiment(
            spec, [(1, 0.1), (2, 0.05), (4, 0.025)], 1.0,
            ["coordinate:2", "clipped_norm:2"], hs, ws, grid64, np.zeros(4), 2000,
            seed=17)
        for row in rows:
            if row["phi_id"] == "coordinate:2" and row["d"] >= 2:
                assert row["paired_gap"] == 0.0 and row["paired_stderr"] == 0.0
        last = rows[-1]
        assert last["phi_id"] == "clipped_norm:2"
        assert 0.0 < last["paired_stderr"] < last["stderr"] / 10

    def test_driven_coordinates_match_padded_solve(self, sequences, grid64):
        # a schedule point solves only the coordinates its drift drives; the
        # solve with the drift padded by zero rows to the sample's dimension
        # is the same in those rows, bit for bit, and x + noise in the others
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        noise = cylinder.sample_cyl_fbm(hs, ws, 4, grid64, 500, seed=23, method="kernel")
        x = np.array([0.1, -0.2, 0.0, 0.3])
        for dd, eps in [(1, 0.1), (2, 0.05), (4, 0.025)]:
            md = drift.mollify(spec, dd, eps)

            def padded(t, z, md=md):
                out = np.zeros_like(z)
                out[:dd] = md.evaluator(t, z[:dd])
                return out

            full = solver.picard_solve(padded, x, noise)
            view = cylinder.CylEnsemble(d=dd, grid=grid64, values=noise.values[:dd],
                                        hursts=hs, weights=ws)
            trim = solver.picard_solve(md.evaluator, x, view)
            assert np.array_equal(trim.paths, full.paths[:dd])
            assert np.array_equal(full.paths[dd:], x[dd:, None, None] + noise.values[dd:])


    def test_block_memory_peak(self, sequences, grid64):
        # each block's noise and solution go before the next block is drawn
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        d, m = 4, 4000

        def run(n_paths):
            solver.converge_experiment(spec, [(1, 0.1), (4, 0.025)], 1.0,
                                       ["coordinate:2", "clipped_norm:2"], hs, ws, grid64,
                                       np.zeros(d), n_paths, seed=5)

        run(50)  # fill the kernel caches
        assert traced_peak(lambda: run(m)) <= 2.5 * d * grid64.n_nodes * m * 8


class TestConvergeSmoothDrift:
    def test_already_smooth_drift_gap_within_noise(self, sequences, grid64):
        # a jump-free family needs no regularization: any schedule point
        # reproduces the target up to Monte Carlo noise
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 2, a=0.6, b=0.6)
        rows, _ = solver.converge_experiment(
            spec, [(2, 0.05)], 1.0, ["coordinate:1"], hs, ws, grid64,
            np.zeros(2), 20_000, seed=47)
        row = rows[0]
        comb = np.hypot(row["stderr"], row["target_stderr"])
        assert abs(row["gap"]) < 3 * comb
