import numpy as np
import pytest

from conftest import in_lanes
from cylfbm import cylinder, fbm, girsanov


class TestSequences:
    def test_default_preset_accepted(self, sequences):
        hs, ws = sequences
        assert hs.sup_value == pytest.approx(0.08)
        assert hs.total_sum == pytest.approx(0.16)
        assert hs.sup_value < 1 / 12 and hs.total_sum < 1 / 6

    def test_geometric_examples(self):
        hs = cylinder.HurstSequence.geometric(0.08, 0.5, 8)
        assert hs.value(1) == pytest.approx(0.08)
        assert hs.value(3) == pytest.approx(0.02)
        assert hs.value(12) == pytest.approx(0.08 * 2.0 ** -11)  # tail rule
        ws = cylinder.WeightSequence.geometric(0.5, 0.5, 8)
        total = cylinder.validate_sequence_pair(hs, ws)
        # lambda_k/sqrt(H_k) sums to a finite geometric series
        exact = sum(0.5 ** k / np.sqrt(0.08 * 0.5 ** (k - 1)) for k in range(1, 200))
        assert total == pytest.approx(exact, rel=1e-10)

    def test_constant_hursts_rejected(self):
        with pytest.raises(cylinder.SequenceConstraintError) as err:
            cylinder.HurstSequence(heads=(0.1, 0.1, 0.1), tail_ratio=0.9)
        assert "decreasing" in str(err.value)
        with pytest.raises(cylinder.SequenceConstraintError) as err:
            cylinder.HurstSequence.geometric(0.1, 0.999999, 3)
        assert "1/6" in str(err.value) or "1/12" in str(err.value)

    def test_sup_violation_named(self):
        with pytest.raises(cylinder.SequenceConstraintError) as err:
            cylinder.HurstSequence.geometric(0.09, 0.2, 4)
        assert "1/12" in str(err.value)

    def test_mixed_tail_divergence_named(self):
        hs = cylinder.HurstSequence.geometric(0.08, 0.25, 4)
        ws = cylinder.WeightSequence.geometric(0.5, 0.6, 4)  # 0.6 > sqrt(0.25)
        with pytest.raises(cylinder.SequenceConstraintError) as err:
            cylinder.validate_sequence_pair(hs, ws)
        assert "diverges" in str(err.value)

    def test_out_of_range_hurst(self):
        with pytest.raises(cylinder.SequenceConstraintError):
            cylinder.HurstSequence(heads=(0.6,), tail_ratio=0.5)


class TestEnsembles:
    def test_determinism(self, sequences, grid64):
        hs, ws = sequences
        a = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, 40, seed=5)
        b = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, 40, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_kernel_sample_is_scaled_matrix_product(self, sequences, grid64):
        # the product is written into the ensemble, bit for bit the plain one
        hs, ws = sequences
        ens = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, 50, seed=8,
                                      method="kernel", keep_increments=True)
        for k, inc in enumerate(ens.increments):
            M = fbm.kernel_matrix(hs.value(k + 1), grid64)
            assert np.array_equal(ens.values[k, 1:], ws.value(k + 1) * (M @ inc.values.T))
            assert np.all(ens.values[k, 0] == 0.0)

    def test_truncation_consistency(self, sequences, grid64):
        hs, ws = sequences
        big = cylinder.sample_cyl_fbm(hs, ws, 4, grid64, 25, seed=9)
        small = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 25, seed=9)
        assert np.array_equal(big.values[:2], small.values)

    def test_component_variance(self, sequences, grid64):
        hs, ws = sequences
        n = 30_000
        ens = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, n, seed=17)
        for k in range(3):
            lam2 = ws.value(k + 1) ** 2
            v = np.var(ens.values[k, -1, :])
            se = lam2 * np.sqrt(2.0 / n)
            assert abs(v - lam2) < 3 * se

    def test_cross_covariance_vanishes(self, sequences, grid64):
        hs, ws = sequences
        n = 30_000
        ens = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, n, seed=23)
        for j in range(3):
            for k in range(j + 1, 3):
                a, b = ens.values[j, -1, :], ens.values[k, -1, :]
                cov = np.mean(a * b)
                se = np.std(a) * np.std(b) / np.sqrt(n)
                assert abs(cov) < 3 * se

    def test_norm_second_moment(self, sequences, grid64):
        hs, ws = sequences
        n, d = 30_000, 4
        ens = cylinder.sample_cyl_fbm(hs, ws, d, grid64, n, seed=29)
        t = grid64.nodes[-1]
        sq = np.sum(ens.values[:, -1, :] ** 2, axis=0)
        target = sum(ws.value(k) ** 2 * t ** (2 * hs.value(k)) for k in range(1, d + 1))
        se = np.std(sq, ddof=1) / np.sqrt(n)
        assert abs(np.mean(sq) - target) < 3 * se

    def test_per_component_law(self, sequences, grid64):
        # each component passes the scalar covariance check
        hs, ws = sequences
        n = 30_000
        ens = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, n, seed=31)
        for k in range(2):
            H, lam = hs.value(k + 1), ws.value(k + 1)
            i, j = 20, 50
            emp = np.mean(ens.values[k, i, :] * ens.values[k, j, :])
            target = lam ** 2 * fbm.covariance(H, grid64.nodes[i], grid64.nodes[j])
            se = np.std(ens.values[k, i, :] * ens.values[k, j, :], ddof=1) / np.sqrt(n)
            assert abs(emp - target) < 3 * se


class TestComponentLanes:
    @pytest.mark.parametrize("n_paths", [100, 2049, 10000])
    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("method", ["kernel", "cholesky"])
    def test_lane_count_changes_no_output(self, monkeypatch, sequences, grid64,
                                          method, keep, n_paths):
        # one lane is the reference; four lanes on a smaller box still work
        hs, ws = sequences
        d = 4

        def run():
            ens = cylinder.sample_cyl_fbm(hs, ws, d, grid64, n_paths, 61, method=method,
                                          keep_increments=keep)
            logs = None
            if ens.increments is not None:
                logs = girsanov.component_log_weights(np.sin(ens.values) * 0.3, grid64,
                                                      ens.increments, hs)
            return ens, logs

        ref, ref_logs = in_lanes(monkeypatch, 1, run)
        assert (ref.increments is not None) == (keep and method == "kernel")
        for lanes in (2, 4):
            ens, logs = in_lanes(monkeypatch, lanes, run)
            assert np.array_equal(ens.values, ref.values)
            if ref.increments is None:
                assert ens.increments is None
            else:
                for a, b in zip(ens.increments, ref.increments):
                    assert np.array_equal(a.values, b.values)
                assert np.array_equal(logs, ref_logs)

    @pytest.mark.parametrize("n_paths", [100, 2049, 10000])
    def test_chunked_increments_are_one_draw(self, monkeypatch, sequences, grid64, n_paths):
        hs, ws = sequences
        ens = in_lanes(monkeypatch, 2, lambda: cylinder.sample_cyl_fbm(
            hs, ws, 3, grid64, n_paths, 62, method="kernel", keep_increments=True))
        for k in range(3):
            rng = np.random.default_rng(cylinder.child_seed(62, k))
            whole = rng.standard_normal((n_paths, grid64.n_cells)) * np.sqrt(grid64.step)
            assert np.array_equal(ens.increments[k].values, whole)

    @pytest.mark.parametrize("n_paths", [100, 2049, 5000])
    def test_generators_continue_across_calls(self, sequences, grid64, n_paths):
        # calls on one path chunk each, on the same Generators and into one
        # pair of buffers, give the increments and values of one whole call
        hs, ws = sequences
        d, width = 3, cylinder.PATH_CHUNK
        whole = cylinder.sample_cyl_fbm(hs, ws, d, grid64, n_paths, 65, method="kernel",
                                        keep_increments=True)
        rngs = [np.random.default_rng(cylinder.child_seed(65, k)) for k in range(d)]
        values = np.empty((d, grid64.n_nodes, width))
        incs = np.empty((d, width, grid64.n_cells))
        for s in cylinder.path_chunks(n_paths):
            c = s.stop - s.start
            ens = cylinder.sample_cyl_fbm(hs, ws, d, grid64, c, rngs, method="kernel",
                                          keep_increments=True,
                                          out=(values[:, :, :c], incs[:, :c]))
            assert np.shares_memory(ens.values, values)
            assert np.array_equal(ens.values, whole.values[:, :, s])
            for k in range(d):
                assert np.shares_memory(ens.increments[k].values, incs)
                assert np.array_equal(ens.increments[k].values, whole.increments[k].values[s])

    def test_cholesky_sample_is_scaled_factor_product(self, sequences, grid64):
        # lambda_k L_k Z_k with node-major standard normals Z_k
        hs, ws = sequences
        ens = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 300, 63)
        for k in range(2):
            Z = np.random.default_rng(cylinder.child_seed(63, k)).standard_normal(
                (grid64.n_cells, 300))
            L = fbm.cholesky_factor(hs.value(k + 1), grid64)
            assert np.all(ens.values[k, 0] == 0.0)
            assert np.array_equal(ens.values[k, 1:], ws.value(k + 1) * (L @ Z))

    def test_seed_sequence_names_one_sample(self, sequences, grid64):
        # the per-component seeds are derived without spawning from the caller's
        hs, ws = sequences
        ss = np.random.SeedSequence(66)
        a = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 4, ss)
        b = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 4, ss)
        assert np.array_equal(a.values, b.values)
        assert ss.n_children_spawned == 0

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_lowest_failing_component_named(self, monkeypatch, sequences, grid64, lanes):
        hs, ws = sequences
        ens = cylinder.sample_cyl_fbm(hs, ws, 4, grid64, 50, 64, method="kernel",
                                      keep_increments=True)
        shift = np.zeros((4, grid64.n_nodes, 50))
        shift[2, 7, 3] = np.nan  # component 3
        shift[3, 9, 1] = np.inf  # component 4, in another lane
        with pytest.raises(fbm.DomainError, match="in component 3$"):
            in_lanes(monkeypatch, lanes, lambda: girsanov.component_log_weights(
                shift, grid64, ens.increments, hs))


class TestDiagonalOperators:
    def test_composite_scaling_product(self, sequences, grid64):
        hs, ws = sequences
        lnd = [fbm.estimate_lnd_constant(hs.value(k), grid64, 0.1) for k in (1, 2, 3)]
        combo = cylinder.composite_scaling(ws, lnd, 3)
        direct = np.array([ws.value(k) * np.sqrt(lnd[k - 1]) for k in (1, 2, 3)])
        assert np.max(np.abs(combo - direct)) < 1e-15


def expected_sup_norm(ens) -> float:
    """Monte Carlo estimate of E sup_t |ensemble(t)|."""
    return float(np.mean(np.max(np.sqrt(np.sum(ens.values ** 2, axis=0)), axis=0)))


class TestSupNormDiagnostic:
    def test_zero_weight_gives_zero(self, grid64):
        hs = cylinder.HurstSequence.geometric(0.08, 0.5, 2)
        ws = cylinder.WeightSequence(heads=(0.0, 0.0), tail_ratio=0.0)
        ens = cylinder.sample_cyl_fbm(hs, ws, 1, grid64, 200, seed=3)
        assert expected_sup_norm(ens) == 0.0

    def test_monotone_in_truncation_and_ratio_stable(self, grid64):
        hs, ws = cylinder.make_sequences({"hurst_first": 0.08, "hurst_ratio": 0.5,
                                          "weight_first": 0.5, "weight_ratio": 0.5,
                                          "d_max": 16})
        vals, ratios = [], []
        for d in (4, 8, 16):
            ens = cylinder.sample_cyl_fbm(hs, ws, d, grid64, 4000, seed=41)
            est = expected_sup_norm(ens)
            vals.append(est)
            # partial sum of lambda_k / sqrt(H_k) over the first d components
            ratios.append(est / np.sum(ws.head_array(d) / np.sqrt(hs.head_array(d))))
        assert vals[0] <= vals[1] <= vals[2]
        assert np.isfinite(vals[-1])
        assert max(ratios) <= 2.0 * min(ratios)

