"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
watch them as they complete).  Tolerances are pinned here, not configurable.
"""

import functools
import math

import numpy as np
import pytest

from cylfbm import cli, cylinder, drift, fbm, fraccalc, girsanov, solver, verify

from conftest import covariance_se, zero_drift


def report(number: int, name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"CRITERION {number:2d} [{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {name} {detail}"


@pytest.fixture(scope="module")
def model():
    # the model the CLI builds at its defaults
    hs, ws, spec, _ = cli._build_model(cli.load_config({}))
    return hs, ws, spec


def test_criterion_01_fbm_law(model):
    # the sampler simulate and solve run, at the model's first three components
    hs, ws, _ = model
    grid = fbm.TimeGrid(1.0, 64)
    n, d = 100_000, 3
    worst = 0.0
    rng = np.random.default_rng(101)
    ens = cylinder.sample_cyl_fbm(hs, ws, d, grid, n, seed=11)
    for k in range(d):
        C = ws.value(k + 1) ** 2 * fbm.exact_covariance_matrix(hs.value(k + 1), grid)
        body = ens.values[k, 1:]
        for _ in range(10):
            i, j = rng.integers(0, 64, size=2)
            emp = float(np.mean(body[i] * body[j]))
            se = covariance_se(C, i, j, n)
            worst = max(worst, abs(emp - C[i, j]) / (3 * se))
    report(1, "exact-law sampling matches the covariance", worst <= 1.0,
           f"H = {', '.join(f'{hs.value(k + 1):g}' for k in range(d))}, "
           f"worst |gap|/3SE = {worst:.3f}")


def test_criterion_02_kernel_identity():
    from cylfbm.verify import _graded_half

    rng = np.random.default_rng(202)
    worst = 0.0
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
            worst = max(worst, abs(val - fbm.covariance(H, t, s)))
    report(2, "kernel product integral reproduces the covariance", worst <= 1e-3,
           f"worst abs gap = {worst:.2e}")


def test_criterion_03_fractional_round_trips():
    # the inverse is applied as the Girsanov weights apply it
    grid = fbm.TimeGrid(1.0, 1024)
    rng = np.random.default_rng(303)
    worst_kh = 0.0
    for _ in range(10):
        c = rng.uniform(-1, 1, size=3)
        smooth = c[0] * np.cos(2 * grid.nodes) + c[1] * grid.nodes \
            + c[2] * np.sin(5 * grid.nodes)
        for H in (0.2, 0.42):
            phi = grid.nodes * smooth  # vanishes at 0
            img = fraccalc.kh_operator(H, grid, phi)
            img_prime = np.gradient(img, grid.nodes, edge_order=2)
            back = fraccalc.kh_inverse_matrix(H, grid) @ img_prime
            worst_kh = max(worst_kh, float(np.max(np.abs(back - phi))))
    report(3, "kernel transform-pair round trip", worst_kh <= 1e-2,
           f"transform pair sup = {worst_kh:.2e}")


def test_criterion_04_martingale_weights(model):
    # the weights are built as the reweighting estimator builds them
    hs, ws, spec = model
    grid = fbm.TimeGrid(1.0, 128)
    d, n = 4, 100_000
    weights = girsanov.RunningMoments()
    additivity_gap = 0.0
    for m, blk in girsanov.mc_blocks(n, np.random.SeedSequence(404), n // 4):
        ens = cylinder.sample_cyl_fbm(hs, ws, d, grid, m, blk,
                                      method="kernel", keep_increments=True)
        shifts = girsanov.drift_shift(functools.partial(drift.evaluate, spec),
                                      ens.values, hs, ws, grid)
        logs = girsanov.component_log_weights(shifts, grid, ens.increments, hs)
        # each component's row is its measure change alone
        for k in range(d):
            alone = girsanov.component_log_weights(
                shifts[k : k + 1], grid, ens.increments[k : k + 1],
                cylinder.HurstSequence(hs.value(k + 1), hs.ratio))
            additivity_gap = max(additivity_gap, float(np.max(np.abs(alone[0] - logs[k]))))
        weights.add(np.exp(logs.sum(axis=0)))
    mean_w, se = weights.mean, weights.stderr
    ok = abs(mean_w - 1.0) <= 3 * se and additivity_gap <= 1e-10
    report(4, "change-of-measure weights are mean one and add dimension-wise", ok,
           f"E[w]-1 = {mean_w - 1:+.2e} (3SE = {3 * se:.2e}), "
           f"additivity gap = {additivity_gap:.1e}")


def test_criterion_05_weak_strong_agreement(model):
    hs, ws, spec = model
    grid = fbm.TimeGrid(1.0, 128)
    d, eps, n = 2, 0.1, 100_000
    x = np.zeros(d)
    md = drift.mollify(spec, d, eps)
    phi_ids = ("coordinate:1", "clipped_norm:2")
    girs_seed, pic_seed = np.random.SeedSequence(505).spawn(2)
    weak = girsanov.weak_solution_estimator(
        spec, phi_ids, x, 1.0, hs, ws, d, grid, n, girs_seed, drift_eval=md)
    strong = {phi_id: girsanov.RunningMoments() for phi_id in phi_ids}
    for m, blk in girsanov.mc_blocks(n, pic_seed, n // 4):
        noise = cylinder.sample_cyl_fbm(hs, ws, d, grid, m, blk, method="kernel")
        sol = solver.picard_solve(md, x, noise)
        for phi_id in phi_ids:
            strong[phi_id].add(girsanov.make_functional(phi_id)(sol.paths[:, -1, :]))
    worst = 0.0
    details = []
    for phi_id in phi_ids:
        g_est, g_se = weak.estimates[phi_id]
        p_est, p_se = strong[phi_id].mean, strong[phi_id].stderr
        ratio = abs(g_est - p_est) / (3 * math.hypot(g_se, p_se))
        worst = max(worst, ratio)
        details.append(f"{phi_id}: gap={g_est - p_est:+.4f} ({ratio:.2f} of 3SE)")
    report(5, "reweighting estimator agrees with the fixed-point solver",
           worst <= 1.0, "; ".join(details))


def test_criterion_06_picard_contraction(model):
    theta, lam, H = 0.9, 0.5, 0.08
    grid = fbm.TimeGrid(1.0, 256)
    hs = cylinder.HurstSequence(H, 0.5)
    ws = cylinder.WeightSequence(lam, 0.5)
    noise = cylinder.sample_cyl_fbm(hs, ws, 1, grid, 2000, seed=606, method="kernel")
    sol = solver.picard_iterates(lambda t, y: -theta * y, np.array([0.4]), noise,
                                 tol=1e-12, max_iter=40)
    diag = solver.picard_residual_curve(sol.residuals, grid.t_end)
    enough = len(sol.residuals) >= 5
    bound_ok = all(r <= theta * grid.t_end * 1.1 for r in diag.ratios)
    # the diagnostic iterates the solver the commands run: on the mollified
    # jump drift, sweep k holds the one-sweep solve's nodes 0..k bit for bit
    hs_m, ws_m, spec = model
    md = drift.mollify(spec, 2, 0.1)
    jump_noise = cylinder.sample_cyl_fbm(hs_m, ws_m, 2, fbm.TimeGrid(1.0, 64), 500, seed=616)
    solved = solver.picard_solve(md, np.zeros(2), jump_noise).paths
    tied = all(np.array_equal(
        solver.picard_iterates(md, np.zeros(2), jump_noise, exact_iterations=k).paths[:, : k + 1],
        solved[:, : k + 1]) for k in (1, 2, 5))
    ok = enough and bound_ok and diag.super_geometric and tied
    report(6, "fixed-point residuals contract super-geometrically", ok,
           f"{len(sol.residuals)} iterations, max ratio = {max(diag.ratios):.3f} "
           f"(bound {theta * grid.t_end * 1.1:.3f}), sweeps 1, 2, 5 equal the solve "
           f"on their nodes: {tied}")


def test_criterion_07_malliavin_validation(model):
    hs, ws, spec = model
    grid = fbm.TimeGrid(1.0, 128)
    d = 2
    # exactness with zero drift: dX_t/dZ_k is the weighted row lambda_k L_k[t-1]
    # of the Cholesky factor in coordinate k, and its squared norm over the
    # base indices is the variance lambda_k^2 t^(2 H_k)
    md0 = drift.mollify(zero_drift(ws, d), d, 0.1)
    noise = cylinder.sample_cyl_fbm(hs, ws, d, grid, 200, seed=707)
    sol0 = solver.picard_solve(md0, np.zeros(d), noise)
    gaps = []
    for n in (32, 128):
        dz = solver.malliavin_derivative(sol0, n)
        for k in range(1, d + 1):
            row = ws.value(k) * fbm.cholesky_factor(hs.value(k), grid)[n - 1]
            expect = np.zeros((d, grid.n_cells, 1))
            expect[k - 1] = row[:, None]
            variance = ws.value(k) ** 2 * grid.nodes[n] ** (2 * hs.value(k))
            gaps += [np.max(np.abs(dz[:, k - 1] - expect)),
                     np.max(np.abs(np.sum(dz[:, k - 1] ** 2, axis=(0, 1)) - variance))]
    exact_gap = float(max(gaps))
    # finite differences on the smooth mollified drift
    md = drift.mollify(spec, d, 0.1)
    sol = solver.picard_solve(md, np.zeros(d), noise)
    rels = [solver.malliavin_fd_check(sol, s_idx, mm, bump=1e-4,
                                      window_cells=2).relative_error
            for s_idx, mm in ((16, 1), (32, 2), (64, 1))]
    ok = exact_gap <= 1e-12 and max(rels) <= 1e-2
    report(7, "stochastic derivative validated by bump finite differences", ok,
           f"driftless gap = {exact_gap:.1e}, worst FD rel err = {max(rels):.2e}")


def test_criterion_08_convergence_trend(model):
    # the coordinate functional reads a component whose drift only enters at
    # truncation level 2, so the first schedule point carries a gap far above
    # the Monte Carlo noise; the clipped norm is reported alongside
    hs, ws, spec = model
    grid = fbm.TimeGrid(1.0, 128)
    rows, _ = solver.converge_experiment(
        spec, [(1, 0.1), (2, 0.05), (4, 0.025), (4, 0.0125)], 1.0,
        ["coordinate:2", "clipped_norm:2"], hs, ws, grid, np.zeros(4),
        100_000, seed=808)
    coord_rows = [r for r in rows if r["phi_id"] == "coordinate:2"]
    first, last = coord_rows[0], coord_rows[-1]
    spread = 3 * math.sqrt(first["stderr"] ** 2 + last["stderr"] ** 2
                           + 2 * first["target_stderr"] ** 2)
    improvement = abs(first["gap"]) - abs(last["gap"])
    ok = improvement > spread
    norm_rows = [r for r in rows if r["phi_id"] == "clipped_norm:2"]
    report(8, "approximation schedule closes the gap to the reweighting target",
           ok,
           f"coordinate gap {abs(first['gap']):.4f} -> {abs(last['gap']):.4f} "
           f"(needs > {spread:.4f} improvement); norm gap "
           f"{abs(norm_rows[0]['gap']):.4f} -> {abs(norm_rows[-1]['gap']):.4f}")


def test_criterion_09_lemma_suite():
    results = verify.run_all(seed=909)
    failures = [r.check_id for r in results if not r.status]
    # identity gates at their pinned tolerances
    by_id = {}
    for r in results:
        by_id.setdefault(r.check_id, []).append(r)
    shuffle_ok = all(r.measured <= 1e-6 for r in by_id["shuffle_integral"])
    perm_ok = by_id["permanent"][0].measured <= 1e-12
    det_ok = all(r.details["det_gap"] <= 1e-10 for r in by_id["gauss_conditioning"])
    cd_ok = all(r.measured <= 1e-4 for r in by_id["gauss_conditioning"])
    beta_ok = by_id["simplex_beta"][0].details["base_identity_gap"] <= 1e-6
    ok = (not failures) and shuffle_ok and perm_ok and det_ok and cd_ok and beta_ok
    report(9, "lemma verification suite", ok,
           f"{len(results)} checks, failures: {failures or 'none'}")


def test_criterion_10_determinism(tmp_path):
    cfg = cli.load_config({"command": "girsanov", "mc": {"n_paths": 2000, "seed": 1010},
                           "grid": {"n_cells": 32}, "d": 2, "phis": ["coordinate:1"]})
    bodies = []
    for i in range(2):
        out = tmp_path / f"det{i}"
        assert cli.run(cfg, out_dir=out) == cli.EXIT_OK
        bodies.append([ln for ln in (out / "results.csv").read_text().splitlines()
                       if not ln.startswith("#")])
    ok = bodies[0] == bodies[1]
    report(10, "reruns are byte-identical", ok, f"{len(bodies[0])} body lines compared")
