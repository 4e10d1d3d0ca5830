import functools
import math

import numpy as np
import pytest

from conftest import block_estimator_reference, constant_drift, in_lanes, traced_peak
from cylfbm import cylinder, drift, fbm, fraccalc, girsanov


@pytest.fixture(scope="module")
def model(sequences):
    hs, ws = sequences
    spec = drift.indicator_exponential_family(ws, 4)
    return hs, ws, spec


class TestStochasticExponential:
    def _increments(self, sequences, grid, d, n, seed):
        hs, ws = sequences
        return cylinder.sample_cyl_fbm(hs, ws, d, grid, n, seed, method="kernel",
                                       keep_increments=True).increments

    def _pathwise(self, profiles, n):
        """The same (d, n_nodes) shift profiles on every one of n paths."""
        return np.broadcast_to(profiles[:, :, None], profiles.shape + (n,))

    def test_zero_shift_unit_weight(self, sequences, grid64):
        hs, _ = sequences
        incs = self._increments(sequences, grid64, 2, 100, 3)
        shifts = self._pathwise(np.zeros((2, grid64.n_nodes)), 100)
        log_w = girsanov.stochastic_exponential(shifts, grid64, incs, hs)
        assert np.all(np.exp(log_w) == 1.0)

    def test_unit_mean(self, sequences, grid64):
        hs, _ = sequences
        n = 50_000
        incs = self._increments(sequences, grid64, 2, n, 7)
        rng = np.random.default_rng(1)
        shifts = self._pathwise(np.clip(rng.standard_normal((2, grid64.n_nodes)), -1, 1), n)
        w = np.exp(girsanov.stochastic_exponential(shifts, grid64, incs, hs))
        se = np.std(w, ddof=1) / math.sqrt(n)
        assert abs(np.mean(w) - 1.0) < 3 * se

    def test_lognormal_moments(self, sequences, grid64):
        # a shift that is the same on every path: the log weight is Gaussian
        # with mean -s/2 and variance s, where s is the discrete quadratic
        # variation
        hs, _ = sequences
        n = 50_000
        incs = self._increments(sequences, grid64, 2, n, 11)
        profiles = np.stack([0.5 * np.ones(grid64.n_nodes), 0.3 * grid64.nodes])
        logs = girsanov.component_log_weights(self._pathwise(profiles, n), grid64, incs, hs)
        h = grid64.step
        for k in range(2):
            H = hs.value(k + 1)
            v = fraccalc.kh_inverse_matrix(H, grid64) @ profiles[k]
            s2 = float(np.sum(v[:-1] ** 2) * h)
            mean_se = math.sqrt(s2 / n)
            var_se = s2 * math.sqrt(2.0 / n)
            assert abs(np.mean(logs[k]) + 0.5 * s2) < 3 * mean_se
            assert abs(np.var(logs[k], ddof=1) - s2) < 3 * var_se

    def test_dimensionwise_additivity(self, sequences, grid64):
        hs, _ = sequences
        incs = self._increments(sequences, grid64, 3, 500, 13)
        rng = np.random.default_rng(2)
        shifts = self._pathwise(rng.standard_normal((3, grid64.n_nodes)), 500)
        joint = girsanov.stochastic_exponential(shifts, grid64, incs, hs)
        parts = np.zeros(500)
        for k in range(3):
            parts += girsanov.stochastic_exponential(shifts[k : k + 1], grid64,
                                                     incs[k : k + 1], hs_shifted(hs, k))
        assert np.max(np.abs(joint - parts)) < 1e-10

    def test_nonfinite_shift_rejected(self, sequences, grid64):
        hs, _ = sequences
        incs = self._increments(sequences, grid64, 1, 10, 17)
        bad = np.zeros((1, grid64.n_nodes))
        bad[0, 5] = np.inf
        with pytest.raises(fbm.DomainError):
            girsanov.stochastic_exponential(self._pathwise(bad, 10), grid64, incs, hs)


def hs_shifted(hs, k):
    """Sequence whose first entry is the k-th index of hs (single-component runs)."""
    return cylinder.HurstSequence(heads=tuple(hs.value(k + 1 + j) for j in range(2)),
                                  tail_ratio=hs.tail_ratio)


class TestWeakSolutionEstimator:
    def test_zero_drift_matches_unweighted_exactly(self, sequences, grid64):
        hs, ws = sequences
        spec = drift.zero_drift(ws, 2)
        x = np.array([0.2, -0.1])
        res = girsanov.weak_solution_estimator(spec, ["coordinate:1"], x, 1.0,
                                               hs, ws, 2, grid64, 2000, seed=19)
        ens = cylinder.sample_cyl_fbm(hs, ws, 2, grid64, 2000,
                                      np.random.SeedSequence(19).spawn(1)[0],
                                      method="kernel", keep_increments=True)
        plain = float(np.mean(x[0] + ens.values[0, -1, :]))
        assert res.estimates["coordinate:1"][0] == pytest.approx(plain, abs=1e-14)
        assert res.mean_weight == 1.0

    def test_constant_drift_oracle(self, sequences, grid128):
        hs, ws = sequences
        c = 0.2
        spec = constant_drift([c, 0.0], ws)
        x = np.array([0.1, 0.0])
        res = girsanov.weak_solution_estimator(spec, ["coordinate:1"], x, 1.0,
                                               hs, ws, 2, grid128, 40_000, seed=23)
        est, se = res.estimates["coordinate:1"]
        assert abs(est - (x[0] + c)) < 3 * se
        assert res.ess_fraction > 0.5
        assert not res.low_ess

    def test_zero_weight_with_drift_rejected(self, grid64):
        hs = cylinder.HurstSequence.geometric(0.08, 0.5, 2)
        ws = cylinder.WeightSequence(heads=(0.5, 0.0), tail_ratio=0.0)
        spec = constant_drift([0.1, 0.1], cylinder.WeightSequence.geometric(0.5, 0.5, 2))
        with pytest.raises(fbm.DomainError):
            girsanov.weak_solution_estimator(spec, ["coordinate:1"], [0.0, 0.0], 1.0,
                                             hs, ws, 2, grid64, 200, seed=1)

    def test_monte_carlo_rate(self, model, grid64):
        hs, ws, spec = model
        x = np.zeros(2)
        small = girsanov.weak_solution_estimator(spec, ["coordinate:1"], x, 1.0,
                                                 hs, ws, 2, grid64, 4000, seed=29)
        big = girsanov.weak_solution_estimator(spec, ["coordinate:1"], x, 1.0,
                                               hs, ws, 2, grid64, 16000, seed=31)
        ratio = small.estimates["coordinate:1"][1] / big.estimates["coordinate:1"][1]
        assert abs(ratio - 2.0) < 0.6  # halving the error costs 4x the paths

    def test_off_grid_time_rejected(self, model, grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError):
            girsanov.weak_solution_estimator(spec, ["coordinate:1"], np.zeros(2), 0.513,
                                             hs, ws, 2, grid64, 200, seed=1)

    def test_one_seed_one_sample(self, model, grid64):
        # a SeedSequence names one sample however often it is used, and
        # functionals priced together equal functionals priced one by one
        hs, ws, spec = model
        x = np.zeros(2)
        args = (x, 1.0, hs, ws, 2, grid64, 3000)
        phi_ids = ["coordinate:2", "clipped_norm:2"]
        ss = np.random.SeedSequence(37)
        first = girsanov.weak_solution_estimator(spec, phi_ids, *args, ss, block_size=1000)
        again = girsanov.weak_solution_estimator(spec, phi_ids, *args, ss, block_size=1000)
        assert first == again
        joint = girsanov.weak_solution_estimator(spec, phi_ids, *args, 37)
        for phi_id in phi_ids:
            alone = girsanov.weak_solution_estimator(spec, [phi_id], *args, 37)
            assert alone.estimates[phi_id] == joint.estimates[phi_id]
            assert (alone.mean_weight, alone.ess_fraction) == \
                (joint.mean_weight, joint.ess_fraction)


class TestBlockMemory:
    """The estimator streams each Monte Carlo block in path chunks: it holds
    the chunk's states, increments and drift shift, one chunk-sized scratch
    array per lane, and per path only the states at t and the weights."""

    def test_estimator_peak(self, model, grid64):
        hs, ws, spec = model
        d = 4
        args = (spec, ["coordinate:2", "clipped_norm:2"], np.zeros(d), 1.0, hs, ws, d, grid64)
        girsanov.weak_solution_estimator(*args, 50, seed=2)  # fill the kernel caches
        lanes = max(1, min(d, cylinder.usable_cpus()))
        chunk = d * grid64.n_nodes * cylinder.PATH_CHUNK * 8
        peaks = {}
        for m in (4000, 16000):
            peaks[m] = traced_peak(lambda: girsanov.weak_solution_estimator(*args, m, seed=3))
            # three chunk arrays, per-lane drift workspace and integrand
            # scratch, and a few (d + 1)-float vectors per path
            assert peaks[m] <= (3.1 + 1.2 * lanes / d) * chunk + 4 * (d + 1) * m * 8
        assert peaks[16000] - peaks[4000] <= 4 * (d + 1) * 12000 * 8

    def test_log_weights_match_fresh_integrands(self, sequences, grid64):
        # one reused integrand buffer gives the floats of a fresh one per component
        hs, ws = sequences
        n = 300
        rng = np.random.default_rng(12)
        incs = cylinder.sample_cyl_fbm(hs, ws, 3, grid64, n, 50, method="kernel",
                                       keep_increments=True).increments
        shifts = rng.standard_normal((3, grid64.n_nodes, n))
        got = girsanov.component_log_weights(shifts, grid64, incs, hs)
        for k in range(3):
            v = fraccalc.kh_inverse_matrix(hs.value(k + 1), grid64) @ shifts[k]
            stoch = np.einsum("jp,pj->p", v[:-1], incs[k].values)
            quad = np.sum(v[:-1] ** 2, axis=0) * grid64.step
            assert np.array_equal(got[k], -stoch - 0.5 * quad)


class TestStreamedEstimator:
    @pytest.mark.parametrize("n_paths, block_size", [
        (100, girsanov.DEFAULT_BLOCK_SIZE), (2048, girsanov.DEFAULT_BLOCK_SIZE),
        (2049, girsanov.DEFAULT_BLOCK_SIZE), (10000, girsanov.DEFAULT_BLOCK_SIZE),
        (7000, 3000), (2500, 1000)])
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("mollified", [False, True])
    def test_equals_block_at_once(self, monkeypatch, model, grid64, n_paths, block_size,
                                  lanes, mollified):
        hs, ws, spec = model
        d, x = 3, np.array([0.1, -0.2, 0.0])
        phi_ids = ["coordinate:2", "clipped_norm:2"]
        drift_eval = drift.mollify(spec, d, 0.1) if mollified else None
        args = (spec, phi_ids, x, 1.0, hs, ws, d, grid64, n_paths, 41, block_size, drift_eval)
        ref = block_estimator_reference(*args)
        res = in_lanes(monkeypatch, lanes, lambda: girsanov.weak_solution_estimator(*args))
        assert res.estimates == ref.estimates
        assert (res.mean_weight, res.ess_fraction) == (ref.mean_weight, ref.ess_fraction)

    def test_inverses_built_once_per_call(self, monkeypatch, model, grid64):
        hs, ws, spec = model
        built = []
        real = girsanov.kh_inverse_matrix
        monkeypatch.setattr(girsanov, "kh_inverse_matrix",
                            lambda H, grid: built.append(H) or real(H, grid))
        girsanov.weak_solution_estimator(spec, ["coordinate:1"], 0.0, 1.0, hs, ws, 3, grid64,
                                         7000, 41, block_size=3000)
        assert built == [hs.value(k + 1) for k in range(3)]

    def test_plain_drift_callable_rejected(self, model, grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="node times"):
            girsanov.weak_solution_estimator(
                spec, ["coordinate:1"], 0.0, 1.0, hs, ws, 3, grid64, 100, 41,
                drift_eval=lambda t, y: drift.evaluate(spec, t, y))


class TestMonteCarloBlocks:
    def test_blocks_are_first_spawn_children(self):
        ss = np.random.SeedSequence(41)
        blocks = list(girsanov.mc_blocks(2500, ss, 1000))
        assert [m for m, _ in blocks] == [1000, 1000, 500]
        children = np.random.SeedSequence(41).spawn(3)
        for (_, blk), child in zip(blocks, children):
            assert blk.generate_state(4).tolist() == child.generate_state(4).tolist()
        assert ss.n_children_spawned == 0

    def test_running_moments_match_numpy(self):
        values = np.random.default_rng(5).standard_normal(1000)
        mom = girsanov.RunningMoments()
        for chunk in np.split(values, 4):
            mom.add(chunk)
        assert mom.mean == pytest.approx(np.mean(values), abs=1e-14)
        assert mom.stderr == pytest.approx(np.std(values) / math.sqrt(1000), rel=1e-12)


class TestFunctionals:
    def test_coordinate(self):
        phi = girsanov.make_functional("coordinate:2")
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(phi(z), [3.0, 4.0])

    def test_clipped_norm(self):
        phi = girsanov.make_functional("clipped_norm:2")
        z = np.array([[3.0, 0.1], [4.0, 0.2]])
        assert np.allclose(phi(z), [2.0, np.hypot(0.1, 0.2)])

    def test_unknown_rejected(self):
        with pytest.raises(fbm.DomainError):
            girsanov.make_functional("nope:1")

    @pytest.mark.parametrize("phi_id", ["coordinate:0", "coordinate:-1", "coordinate:x",
                                        "clipped_norm:big"])
    def test_bad_argument_rejected(self, phi_id):
        with pytest.raises(fbm.DomainError):
            girsanov.make_functional(phi_id)


class TestWeightsAcrossGrid:
    def test_unit_mean_at_interior_times(self, sequences):
        # the martingale property holds at every grid time, not only the end
        hs, ws = sequences
        spec = drift.indicator_exponential_family(ws, 2)
        n = 30_000
        for cells in (16, 32, 64):  # prefixes of the same time horizon
            grid_t = fbm.TimeGrid(cells / 64.0, cells)
            ens = cylinder.sample_cyl_fbm(hs, ws, 2, grid_t, n, seed=43,
                                          method="kernel", keep_increments=True)
            shifts = girsanov.drift_shift(functools.partial(drift.evaluate, spec),
                                          ens.values, hs, ws, grid_t)
            w = np.exp(girsanov.stochastic_exponential(shifts, grid_t, ens.increments, hs))
            assert np.all(w > 0)
            se = np.std(w, ddof=1) / math.sqrt(n)
            assert abs(np.mean(w) - 1.0) < 3 * se
