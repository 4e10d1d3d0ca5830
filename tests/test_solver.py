import functools
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conftest import block_converge_reference, in_lanes, traced_peak, zero_drift
from cylfbm import cylinder, drift, fbm, girsanov, solver


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


def scalar_noise(H, lam, grid, n_paths, seed, method="kernel"):
    hs = cylinder.HurstSequence(H, 0.5)
    ws = cylinder.WeightSequence(lam, 0.5)
    return cylinder.sample_cyl_fbm(hs, ws, 1, grid, n_paths, seed, method=method,
                                   keep_increments=True)


def counted(md, calls):
    """The drift of ``md`` as a callable that logs each evaluation in ``calls``."""
    def fn(t, y):
        calls.append(t)
        return md.evaluator(t, y)
    return fn


class TestPicard:
    def test_zero_drift_exact(self, sequences, noise2):
        _, ws = sequences
        md = drift.mollify(zero_drift(ws, 2), 2, 0.1)
        x = np.array([0.3, -0.2])
        sol = solver.picard_solve(md, x, noise2)
        assert sol.iterations_used == 1
        assert np.array_equal(sol.paths, x[:, None, None] + noise2.values)
        assert np.all(sol.paths[:, 0, :] == x[:, None])

    def test_zero_amplitude_family_is_driftless(self, monkeypatch, sequences, noise2, grid64):
        # amp_first 0 lies inside its domain: every component then evaluates
        # to zeros through the closed-form kernel, raw and mollified, at one
        # time and at the node times, in one lane and in two
        _, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4, amp_first=0.0)
        x = np.array([0.3, -0.2])
        y = x[:, None, None] + noise2.values
        for fn in (functools.partial(drift.evaluate, spec), drift.mollify(spec, 2, 0.1)):
            at_one = fn(grid64.nodes[3], y[:, 3, :])
            one = in_lanes(monkeypatch, 1, lambda: fn(grid64.nodes, y))
            two = in_lanes(monkeypatch, 2, lambda: fn(grid64.nodes, y))
            assert at_one.shape == (2, noise2.n_paths) and one.shape == y.shape
            assert not np.any(at_one) and not np.any(one) and np.array_equal(one, two)
            paths = [in_lanes(monkeypatch, lanes, lambda: solver.picard_solve(fn, x, noise2).paths)
                     for lanes in (1, 2)]
            assert np.array_equal(paths[0], y) and np.array_equal(paths[1], y)

    @pytest.mark.parametrize("i", [0, 1, 32, 64])
    def test_stopped_sweep_is_the_full_sweeps_node(self, jump_md, jump_sol, noise2, i):
        # the sweep stopped at node i holds that node alone, bit for bit,
        # after exactly i drift evaluations
        calls = []
        sol = solver.picard_solve(counted(jump_md, calls), np.zeros(2), noise2, t_index=i)
        assert sol.paths.shape == (2, 1, noise2.n_paths)
        assert np.array_equal(sol.paths[:, -1, :], jump_sol.paths[:, i, :])
        assert len(calls) == i

    @pytest.mark.parametrize("i", [-1, 65])
    def test_stopped_sweep_rejects_an_index_off_the_grid(self, jump_md, noise2, i):
        with pytest.raises(fbm.DomainError, match="outside the grid"):
            solver.picard_solve(jump_md, np.zeros(2), noise2, t_index=i)

    def test_stopped_sweep_holds_one_state(self, sequences, grid64):
        # the full sweep copies the noise block; the stopped one holds a
        # state, the drift integral and the drift's temporaries
        hs, ws = sequences
        d, m = 4, 4000
        md = drift.mollify(drift.indicator_exponential_family(ws, 4), d, 0.025)
        noise = cylinder.sample_cyl_fbm(hs, ws, d, grid64, m, seed=5, method="kernel")
        x = np.zeros(d)
        solver.picard_solve(md, x, noise, t_index=1)  # warm any lazy setup
        peak = traced_peak(lambda: solver.picard_solve(md, x, noise, t_index=grid64.n_cells))
        assert peak <= 0.25 * d * grid64.n_nodes * m * 8

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
            sub = cylinder.CylEnsemble(grid=grid, values=noise.values[:, ::stride, :],
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
        noise_cut = cylinder.CylEnsemble(grid=grid64, values=trunc_vals, hursts=hs, weights=ws)
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


class TestStackedSolve:
    @pytest.mark.parametrize("t_index", [None, 0, 40])
    def test_points_view_equals_per_point_solves(self, sequences, grid64, t_index):
        # one sweep of a stacked drift over a broadcast points axis gives each
        # point's own solve bit for bit in its driven coordinates, and
        # x + noise in the others
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        points = [(2, 0.05), (4, 0.025), (1, 0.1), (4, 0.0125)]
        noise = cylinder.sample_cyl_fbm(hs, ws, 4, grid64, 300, seed=41, method="kernel")
        x = np.array([0.1, -0.2, 0.0, 0.3])
        stack = drift.mollify(spec, [dd for dd, _ in points], [ee for _, ee in points])
        view = np.broadcast_to(noise.values[:, :, None], (4, grid64.n_nodes, 4, 300))
        sol = solver.picard_solve(stack, x, replace(noise, values=view), t_index=t_index)
        nodes = slice(None) if t_index is None else slice(t_index, t_index + 1)
        assert sol.paths.shape == (4, grid64.n_nodes if t_index is None else 1, 4, 300)
        for p, (dd, eps) in enumerate(points):
            own = solver.picard_solve(drift.mollify(spec, dd, eps), x,
                                      replace(noise, values=noise.values[:dd]), t_index=t_index)
            assert np.array_equal(sol.paths[:dd, :, p], own.paths)
            assert np.array_equal(sol.paths[dd:, :, p],
                                  x[dd:, None, None] + noise.values[dd:, nodes])


class TestPicardIterates:
    def test_nonconvergence_carries_history(self, noise2):
        fn = lambda t, y: 60.0 * y  # expansive; the iteration cannot settle
        with pytest.raises(solver.PicardConvergenceError) as err:
            solver.picard_iterates(fn, np.zeros(2), noise2, tol=1e-12, max_iter=5)
        assert len(err.value.residuals) == 5


class TestResidualCurve:
    def test_zero_after_first(self, sequences, noise2):
        _, ws = sequences
        md = drift.mollify(zero_drift(ws, 2), 2, 0.1)
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
        # with zero drift the derivative is the weighted row of the Cholesky
        # factor, the discrete kernel in the sampler's frame; its squared
        # norm over the base indices is the variance lambda^2 t^2H
        hs, ws = sequences
        md = drift.mollify(zero_drift(ws, 2), 2, 0.1)
        noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 30, seed=13)
        sol = solver.picard_solve(md, np.zeros(2), noise)
        for n in (16, 64):
            dz = solver.malliavin_derivative(sol, n)
            assert dz.shape == (2, 2, 64, 30)
            for k in (1, 2):
                row = ws.value(k) * fbm.cholesky_factor(hs.value(k), grid64)[n - 1]
                np.testing.assert_allclose(dz[k - 1, k - 1], np.repeat(row[:, None], 30, axis=1),
                                           rtol=0.0, atol=1e-12)
                assert np.all(dz[2 - k, k - 1] == 0.0)  # other coordinate untouched
                norm2 = np.sum(dz[:, k - 1] ** 2, axis=(0, 1))
                variance = ws.value(k) ** 2 * grid64.nodes[n] ** (2 * hs.value(k))
                np.testing.assert_allclose(norm2, variance, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k, j", [(1, 16), (2, 32), (1, 48), (2, 60)])
    def test_z_bump_matches(self, k, j, coupled_sol):
        # the derivative of the computed map: bumping Z_{k,j} moves component
        # k of the noise along lambda_k L_k[:, j]; the coupled drift makes
        # the coordinate other than k respond too
        sol = coupled_sol
        grid, bump = sol.grid, 1e-6
        L = fbm.cholesky_factor(sol.noise.hursts.value(k), grid)
        values = sol.noise.values.copy()
        values[k - 1, 1:] += bump * sol.noise.weights.value(k) * L[:, j][:, None]
        bumped = solver.picard_solve(sol.drift, sol.x0, replace(sol.noise, values=values))
        fd = (bumped.paths[:, -1] - sol.paths[:, -1]) / bump
        dz = solver.malliavin_derivative(sol)[:, k - 1, j]
        for c in (0, 1):
            assert np.linalg.norm(dz[c]) > 0.0
            assert np.linalg.norm(fd[c] - dz[c]) <= 1e-6 * np.linalg.norm(dz[c])

    def test_linear_drift_closed_form(self, grid64):
        # X_n = x + B_n - theta h sum_{l<n} X_l: dX_n/dB_l = -theta h (1 - theta h)^(n-1-l)
        # for 1 <= l < n and 1 at l = n, and dX_n/dZ = lambda L^T dX_n/dB
        theta, lam, H = 0.8, 0.7, 0.08
        h = grid64.step
        sol = solver.picard_solve(_LinearDrift(theta), np.array([0.2]),
                                  scalar_noise(H, lam, grid64, 3, seed=41, method="cholesky"))
        L = fbm.cholesky_factor(H, grid64)
        for n in (40, 64):
            l = np.arange(1, n)
            dB = np.zeros(64)
            dB[l - 1] = -theta * h * (1.0 - theta * h) ** (n - 1 - l)
            dB[n - 1] = 1.0
            dz = solver.malliavin_derivative(sol, n)[0, 0]
            np.testing.assert_allclose(dz, np.repeat(lam * (L.T @ dB)[:, None], 3, axis=1),
                                       rtol=0.0, atol=1e-14)

    def test_linear_drift_oracle(self):
        # scalar dX = -theta X dt + lam dB: the continuum derivative is
        # lam*(K(t,s) - theta int_s^t e^(-theta(t-u)) K(u,s) du).  The frame's
        # D_s X_t = sum_j (dX_t/dZ_j) e_j(s), e(s) = L^-1 K(t_., s), is the
        # left-rule derivative lam sum_i (dX_t/dB_i) K(t_i, s); its drift sum
        # misses the singular first cell after s, so it converges at order
        # H + 1/2, and the error ratio per grid halving tends to 2^(H+1/2)
        theta, lam, H = 0.8, 0.7, 0.08
        s, q = 0.25, H + 0.5

        def oracle(t):
            g = lambda v: np.exp(-theta * (t - (s + v ** (1.0 / q)))) * np.exp(
                fbm._log_kernel(H, s + v ** (1.0 / q), s, np.log(v) / q)) \
                * v ** (1.0 / q - 1.0) / q
            I, _ = integrate.quad(g, 0, (t - s) ** q, epsabs=1e-13, epsrel=1e-11,
                                  limit=300)
            return lam * (float(fbm.kernel_values(H, t, s)) - theta * I)

        times = (0.75, 1.0)
        exact = [oracle(t) for t in times]
        errors = []
        for n_cells in (128, 256, 512, 1024):
            grid = fbm.TimeGrid(1.0, n_cells)
            sol = solver.picard_solve(_LinearDrift(theta), np.array([0.2]),
                                      scalar_noise(H, lam, grid, 1, seed=17, method="cholesky"))
            e_s = frame_at(sol, s)
            errors.append([solver.malliavin_derivative(sol, round(t * n_cells))[0, 0, :, 0] @ e_s
                           - x for t, x in zip(times, exact)])
        errors = np.array(errors)
        ratios = errors[:-1] / errors[1:]
        np.testing.assert_allclose(ratios, 2.0 ** q, rtol=0.02)

    def test_series_consistency_two_term(self):
        # adding the first iterated-integral term, as the left-node sum
        # lam h sum_{j0<l<i} K(t_l, s), reproduces the solved value up to the
        # next-order remainder; with a constant Jacobian the remainder scales
        # like (t-s)^(H+3/2) in the elapsed time
        theta, lam, H = 0.8, 0.7, 0.08
        grid = fbm.TimeGrid(1.0, 256)
        base = solver.picard_solve(_LinearDrift(theta), np.array([0.2]),
                                   scalar_noise(H, lam, grid, 5, seed=37, method="cholesky"))
        j0 = 64
        s = grid.nodes[j0]
        e_s = frame_at(base, s)
        gaps = []
        spans = (16, 32, 64)
        for span in spans:
            i = j0 + span
            d_sx = solver.malliavin_derivative(base, i)[0, 0, :, 0] @ e_s
            two_term = lam * float(fbm.kernel_values(H, grid.nodes[i], s)) \
                - theta * lam * grid.step * float(np.sum(
                    fbm.kernel_values(H, grid.nodes[j0 + 1 : i], s)))
            gaps.append(abs(d_sx - two_term))
        r1, r2 = gaps[1] / gaps[0], gaps[2] / gaps[1]
        expected = 2.0 ** (H + 1.5)
        assert r1 == pytest.approx(expected, rel=0.25)
        assert r2 == pytest.approx(expected, rel=0.25)

    def test_jacobian_required(self, grid64):
        noise = scalar_noise(0.08, 0.5, grid64, 5, seed=19)
        sol = solver.picard_solve(lambda t, y: 0.0 * y, np.array([0.0]), noise)
        with pytest.raises(fbm.DomainError):
            solver.malliavin_derivative(sol)

    @pytest.mark.parametrize("t_index", [0, -1, 65])
    def test_node_outside_grid_rejected(self, jump_sol, t_index):
        with pytest.raises(fbm.DomainError, match="outside"):
            solver.malliavin_derivative(jump_sol, t_index)

    def test_stopped_solve_rejected(self, jump_md, noise2):
        # a solve stopped at one node holds no path for the sweep to read,
        # and the check refuses it before any re-solve
        calls = []
        drift_fn = counted(jump_md, calls)
        drift_fn.gradient_evaluator = jump_md.gradient_evaluator
        sol = solver.picard_solve(drift_fn, np.zeros(2), noise2, t_index=40)
        calls.clear()
        with pytest.raises(fbm.DomainError, match="whole path"):
            solver.malliavin_derivative(sol)
        with pytest.raises(fbm.DomainError, match="whole path"):
            solver.malliavin_fd_check(sol, 16, 1)
        assert calls == []


def frame_at(sol, s):
    """e(s) = L^-1 (K(t_1, s), ..., K(t_N, s)) of a scalar solve, the frame's
    functions at time s (K vanishes at nodes t_i <= s)."""
    grid, H = sol.grid, sol.noise.hursts.value(1)
    later = grid.nodes[1:] > s
    column = np.zeros(grid.n_cells)
    column[later] = fbm.kernel_values(H, grid.nodes[1:][later], s)
    return np.linalg.solve(fbm.cholesky_factor(H, grid), column)


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


class _CoupledDrift:
    """The mollified jump drift in two coordinates plus a sin(y) term that
    feeds each coordinate into the other's drift, with its Jacobian."""

    def __init__(self, md, a):
        self.md, self.a = md, a

    def __call__(self, t, y):
        return self.md(t, y) + self.a * np.sin(y[::-1])

    def gradient_evaluator(self, t, y):
        J = self.md.gradient_evaluator(t, y)
        J[0, 1] += self.a * np.cos(y[1])
        J[1, 0] += self.a * np.cos(y[0])
        return J


@pytest.fixture(scope="module")
def coupled_sol(sequences, jump_md, grid64):
    hs, ws = sequences
    noise = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 200, seed=43)
    return solver.picard_solve(_CoupledDrift(jump_md, 0.5), np.zeros(2), noise)


class TestFdCheck:
    def test_zero_drift_machine_exact(self, sequences, grid64):
        hs, ws = sequences
        md = drift.mollify(zero_drift(ws, 2), 2, 0.1)
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

    def test_jacobian_checked_before_resolve(self, jump_md, noise2):
        calls = []
        sol = solver.picard_solve(counted(jump_md, calls), np.zeros(2), noise2)
        calls.clear()
        with pytest.raises(fbm.DomainError, match="Jacobian"):
            solver.malliavin_fd_check(sol, 16, 1)
        assert calls == []

    @pytest.mark.parametrize("s_index, m, kwargs", [
        (8, 3, {}), (8, 0, {}), (-1, 1, {}), (8, 1, {"window_cells": 0}),
        (8, 1, {"bump": 0.0}), (63, 1, {"window_cells": 2}),
    ])
    def test_bad_arguments_rejected(self, jump_sol, s_index, m, kwargs):
        # d = 2: component 3 and base -1 would index out of range, an empty
        # window or a zero bump would divide by zero
        with pytest.raises(fbm.DomainError):
            solver.malliavin_fd_check(jump_sol, s_index, m, **kwargs)


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
            view = cylinder.CylEnsemble(grid=grid64, values=noise.values[:dd],
                                        hursts=hs, weights=ws)
            trim = solver.picard_solve(md.evaluator, x, view)
            assert np.array_equal(trim.paths, full.paths[:dd])
            assert np.array_equal(full.paths[dd:], x[dd:, None, None] + noise.values[dd:])

    def test_no_functional_rejected_before_sampling(self, no_sampling, sequences, grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError, match="^phi_ids: at least one functional"):
            solver.converge_experiment(spec, [(1, 0.1), (2, 0.05)], 1.0, [], hs, ws, grid64,
                                       np.zeros(2), 200, seed=5)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_no_paths_rejected_before_sampling(self, no_sampling, sequences, grid64, n_paths):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError, match="^n_paths must be at least 1$"):
            solver.converge_experiment(spec, [(1, 0.1), (2, 0.05)], 1.0, ["coordinate:1"],
                                       hs, ws, grid64, np.zeros(2), n_paths, seed=5)

    def test_empty_schedule_rejected_before_sampling(self, no_sampling, sequences, grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError, match="^schedule: at least one"):
            solver.converge_experiment(spec, [], 1.0, ["coordinate:1"], hs, ws, grid64,
                                       np.zeros(2), 200, seed=5)

    def test_level_above_the_drift_rejected_before_sampling(self, no_sampling, sequences,
                                                            grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError,
                           match="^schedule level 9 exceeds the drift's 4 components$"):
            solver.converge_experiment(spec, [[9, 0.1]], 1.0, ["coordinate:1"], hs, ws,
                                       grid64, np.zeros(2), 200, seed=5)

    @pytest.mark.parametrize("schedule", [[(2.7, 0.1)], [(1, 0.1), (2, float("inf"))]])
    def test_bad_point_rejected_before_sampling(self, no_sampling, sequences, grid64,
                                                schedule):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError):
            solver.converge_experiment(spec, schedule, 1.0, ["coordinate:1"], hs, ws,
                                       grid64, np.zeros(2), 200, seed=5)

    def test_functional_past_the_state_rejected_before_sampling(self, no_sampling,
                                                               sequences, grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        with pytest.raises(fbm.DomainError,
                           match="^functional 'coordinate:5' reads past the 2-dimensional"):
            solver.converge_experiment(spec, [(1, 0.1), (2, 0.05)], 1.0, ["coordinate:5"],
                                       hs, ws, grid64, np.zeros(2), 200, seed=5)

    def test_one_stacked_and_one_reference_solve_per_chunk(self, monkeypatch, sequences,
                                                           grid64):
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        shapes = []
        solve = solver.picard_solve

        def logged(fn, x, noise, t_index=None):
            shapes.append(noise.values.shape)
            return solve(fn, x, noise, t_index)

        monkeypatch.setattr(solver, "picard_solve", logged)
        solver.converge_experiment(spec, [(1, 0.1), (2, 0.05), (4, 0.025)], 1.0,
                                   ["coordinate:2"], hs, ws, grid64, np.zeros(4),
                                   3 * cylinder.PATH_CHUNK + 5, seed=5)
        n = grid64.n_nodes
        c = 3 * cylinder.PATH_CHUNK
        assert shapes == [(4, n, c), (4, n, 3, c), (4, n, 5), (4, n, 3, 5)]

    @pytest.mark.parametrize("n_paths, block_size", [
        (3073, girsanov.DEFAULT_BLOCK_SIZE),
        (2 * 3 * cylinder.PATH_CHUNK + 17, girsanov.DEFAULT_BLOCK_SIZE),
        (7500, 4000), (10_000, 7000)])
    def test_rows_equal_whole_block_loop(self, monkeypatch, sequences, grid64, n_paths,
                                         block_size):
        # the noise is streamed in chunks of 3 * PATH_CHUNK paths, each last
        # chunk narrow here, and the rows equal those of whole blocks
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", block_size)
        args = (spec, [(1, 0.1), (2, 0.05), (4, 0.025)], 1.0,
                ["coordinate:2", "clipped_norm:2"], hs, ws, grid64,
                np.array([0.1, -0.2, 0.0, 0.3]), n_paths, 29)
        assert solver.converge_experiment(*args)[0] == block_converge_reference(*args)

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
        assert traced_peak(lambda: run(m)) <= 2.0 * d * grid64.n_nodes * m * 8

    def test_memory_peak_is_the_estimators(self, sequences, grid128):
        # a chunk of the schedule's noise holds as many floats as the
        # estimator's three chunk buffers, so the target sets the peak
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 4)
        d, m = 4, 6000
        phi_ids = ["coordinate:2", "clipped_norm:2"]
        schedule = [(1, 0.1), (2, 0.05), (4, 0.025), (4, 0.0125)]

        def converge(n_paths):
            solver.converge_experiment(spec, schedule, 1.0, phi_ids, hs, ws, grid128,
                                       np.zeros(d), n_paths, seed=5)

        converge(50)  # fill the kernel caches
        target = traced_peak(lambda: girsanov.weak_solution_estimator(
            spec, phi_ids, np.zeros(d), 1.0, hs, ws, d, grid128, m, 5))
        assert traced_peak(lambda: converge(m)) <= 1.05 * target


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
