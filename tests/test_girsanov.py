import functools
import math

import numpy as np
import pytest

from conftest import (
    block_estimator_reference,
    constant_drift,
    in_lanes,
    traced_peak,
    zero_drift,
)
from cylfbm import cylinder, drift, fbm, fraccalc, girsanov, solver


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
        log_w = girsanov.component_log_weights(shifts, grid64, incs, hs).sum(axis=0)
        assert np.all(np.exp(log_w) == 1.0)

    def test_unit_mean(self, sequences, grid64):
        hs, _ = sequences
        n = 50_000
        incs = self._increments(sequences, grid64, 2, n, 7)
        rng = np.random.default_rng(1)
        shifts = self._pathwise(np.clip(rng.standard_normal((2, grid64.n_nodes)), -1, 1), n)
        w = np.exp(girsanov.component_log_weights(shifts, grid64, incs, hs).sum(axis=0))
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
        # each component's row of a joint call is its measure change alone
        joint = girsanov.component_log_weights(shifts, grid64, incs, hs)
        for k in range(3):
            alone = girsanov.component_log_weights(shifts[k : k + 1], grid64,
                                                   incs[k : k + 1], hs_shifted(hs, k))
            assert np.max(np.abs(joint[k] - alone[0])) < 1e-10

    def test_nonfinite_shift_rejected(self, sequences, grid64):
        hs, _ = sequences
        incs = self._increments(sequences, grid64, 1, 10, 17)
        bad = np.zeros((1, grid64.n_nodes))
        bad[0, 5] = np.inf
        with pytest.raises(fbm.DomainError):
            girsanov.component_log_weights(self._pathwise(bad, 10), grid64, incs, hs)


def hs_shifted(hs, k):
    """Sequence whose first entry is the k-th index of hs (single-component runs)."""
    return cylinder.HurstSequence(hs.value(k + 1), hs.ratio)


class TestWeakSolutionEstimator:
    def test_zero_drift_matches_unweighted_exactly(self, sequences, grid64):
        hs, ws = sequences
        spec = zero_drift(ws, 2)
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
        hs = cylinder.HurstSequence(0.08, 0.5)
        ws = cylinder.WeightSequence(0.5, 0.0)
        spec = constant_drift([0.1, 0.1], cylinder.WeightSequence(0.5, 0.5))
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

    def test_no_functional_rejected_before_sampling(self, no_sampling, model, grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="^phi_ids: at least one functional"):
            girsanov.weak_solution_estimator(spec, [], np.zeros(2), 1.0,
                                             hs, ws, 2, grid64, 200, seed=1)

    def test_functional_past_the_state_rejected_before_sampling(self, no_sampling, model,
                                                               grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="^functional 'coordinate:3' reads past "
                           "the 2-dimensional state$"):
            girsanov.weak_solution_estimator(spec, ["coordinate:1", "coordinate:3"],
                                             np.zeros(2), 1.0, hs, ws, 2, grid64, 200, seed=1)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_no_paths_rejected_before_sampling(self, no_sampling, model, grid64, n_paths):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="^n_paths must be at least 1$"):
            girsanov.weak_solution_estimator(spec, ["coordinate:1"], np.zeros(2), 1.0,
                                             hs, ws, 2, grid64, n_paths, seed=1)

    def test_level_above_the_drift_rejected_before_sampling(self, no_sampling, model, grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="^the drift has 4 rows, fewer than d = 5$"):
            girsanov.weak_solution_estimator(spec, ["coordinate:1"], np.zeros(5), 1.0,
                                             hs, ws, 5, grid64, 200, seed=1)

    def test_one_seed_one_sample(self, monkeypatch, model, grid64):
        # a SeedSequence names one sample however often it is used, and
        # functionals priced together equal functionals priced one by one
        hs, ws, spec = model
        x = np.zeros(2)
        args = (x, 1.0, hs, ws, 2, grid64, 3000)
        phi_ids = ["coordinate:2", "clipped_norm:2"]
        ss = np.random.SeedSequence(37)
        with monkeypatch.context() as mp:
            mp.setattr(girsanov, "DEFAULT_BLOCK_SIZE", 1000)
            first = girsanov.weak_solution_estimator(spec, phi_ids, *args, ss)
            again = girsanov.weak_solution_estimator(spec, phi_ids, *args, ss)
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

    def test_benchmark_shape_peak(self, monkeypatch, model, grid128):
        # girsanov-d4's shape in two lanes: the chunk arrays and lane scratch
        # stay within an absolute budget, which a wider chunk would exceed
        hs, ws, spec = model
        d = 4
        args = (spec, ["coordinate:2", "clipped_norm:2"], np.zeros(d), 1.0, hs, ws, d, grid128)
        girsanov.weak_solution_estimator(*args, 50, seed=2)  # fill the kernel caches
        peak = in_lanes(monkeypatch, 2, lambda: traced_peak(
            lambda: girsanov.weak_solution_estimator(*args, 10_000, seed=3)))
        assert peak <= 18e6

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
        args = (spec, phi_ids, x, 1.0, hs, ws, d, grid64, n_paths, 41, drift_eval)
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", block_size)
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
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", 3000)
        girsanov.weak_solution_estimator(spec, ["coordinate:1"], 0.0, 1.0, hs, ws, 3, grid64,
                                         7000, 41)
        assert built == [hs.value(k + 1) for k in range(3)]

    def test_plain_drift_callable_rejected(self, model, grid64):
        hs, ws, spec = model
        with pytest.raises(fbm.DomainError, match="node times"):
            girsanov.weak_solution_estimator(
                spec, ["coordinate:1"], 0.0, 1.0, hs, ws, 3, grid64, 100, 41,
                drift_eval=lambda t, y: drift.evaluate(spec, t, y))


class TestChunkWidth:
    """Outputs do not depend on cylinder.PATH_CHUNK: at these path counts
    every last chunk is at least 368 paths wide."""

    WIDTHS = (512, 1024, 2048)

    def _at_widths(self, monkeypatch, fn):
        out = []
        for width in self.WIDTHS:
            monkeypatch.setattr(cylinder, "PATH_CHUNK", width)
            out.append(fn())
        return out

    def test_sampler(self, monkeypatch, model, grid128):
        hs, ws, _ = model

        def sample():
            kern = cylinder.sample_cyl_fbm(hs, ws, 4, grid128, 3000, 5, method="kernel",
                                           keep_increments=True)
            chol = cylinder.sample_cyl_fbm(hs, ws, 4, grid128, 3000, 5, method="cholesky")
            return kern.values, [inc.values for inc in kern.increments], chol.values

        (kv, ki, cv), *rest = self._at_widths(monkeypatch, sample)
        for kv2, ki2, cv2 in rest:
            assert np.array_equal(kv, kv2) and np.array_equal(cv, cv2)
            assert all(np.array_equal(a, b) for a, b in zip(ki, ki2))

    def test_estimator(self, monkeypatch, model, grid128):
        hs, ws, spec = model
        args = (spec, ["coordinate:2", "clipped_norm:2"], np.zeros(4), 1.0, hs, ws, 4,
                grid128, 6000, 9)
        first, *rest = self._at_widths(
            monkeypatch, lambda: girsanov.weak_solution_estimator(*args))
        for res in rest:
            assert res.estimates == first.estimates
            assert (res.mean_weight, res.ess_fraction) == (first.mean_weight,
                                                           first.ess_fraction)

    def test_converge(self, monkeypatch, model, grid128):
        hs, ws, spec = model
        schedule = [(1, 0.1), (2, 0.05), (4, 0.025), (4, 0.0125)]
        first, *rest = self._at_widths(monkeypatch, lambda: solver.converge_experiment(
            spec, schedule, 1.0, ["coordinate:2", "clipped_norm:2"], hs, ws, grid128,
            np.zeros(4), 3000, seed=13)[0])
        assert all(rows == first for rows in rest)


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

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_running_moments_stderr_at_an_offset_mean(self, offset):
        # sum_sq / n - mean^2 loses the whole variance once mean^2 dwarfs it
        values = offset + 0.3 * np.random.default_rng(6).standard_normal(2000)
        mom = girsanov.RunningMoments()
        for chunk in np.split(values, 4):
            mom.add(chunk)
        two_pass = np.std(values) / math.sqrt(values.size)
        assert mom.stderr == pytest.approx(two_pass, rel=0.01)
        # the raw sums, which the means and the ESS read, keep their bits
        chunks = np.split(values, 4)
        assert mom.sum == sum(float(np.sum(c)) for c in chunks)
        assert mom.sum_sq == sum(float(np.sum(c * c)) for c in chunks)

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    @pytest.mark.parametrize("splits", [[1000], [250, 750], [1, 998, 1], [300, 300, 400]])
    def test_running_moments_rows_equal_one_dimensional(self, shape, splits):
        # one accumulator of rows gives each row's floats of its own 1-D accumulator
        values = 5.0 + np.random.default_rng(9).standard_normal((*shape, 1000))
        rows = girsanov.RunningMoments()
        alone = [girsanov.RunningMoments() for _ in range(math.prod(shape))]
        for block in np.split(values, np.cumsum(splits)[:-1], axis=-1):
            rows.add(block)
            for mom, row in zip(alone, block.reshape(-1, block.shape[-1])):
                mom.add(row)
        for name in ("sum", "sum_sq", "mean", "stderr"):
            got = getattr(rows, name)
            assert got.shape == shape
            assert got.ravel().tolist() == [float(getattr(mom, name)) for mom in alone], name

    def test_running_moments_overflowing_variance_raises(self):
        # an infinite standard error must not reach a CSV body
        mom = girsanov.RunningMoments()
        with np.errstate(over="ignore"):
            mom.add(np.array([1e300, -1e300]))
        with pytest.raises(ArithmeticError):
            mom.stderr


class TestFunctionals:
    def test_coordinate(self):
        phi = girsanov.make_functional("coordinate:2")
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(phi(z), [3.0, 4.0])

    def test_clipped_norm(self):
        phi = girsanov.make_functional("clipped_norm:2")
        z = np.array([[3.0, 0.1], [4.0, 0.2]])
        assert np.allclose(phi(z), [2.0, np.hypot(0.1, 0.2)])

    def test_coordinate_within_the_dimension(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(girsanov.make_functional("coordinate:2", 2)(z), [3.0, 4.0])
        with pytest.raises(fbm.DomainError, match="reads past the 2-dimensional state"):
            girsanov.make_functional("coordinate:3", 2)

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
            w = np.exp(girsanov.component_log_weights(shifts, grid_t, ens.increments,
                                                      hs).sum(axis=0))
            assert np.all(w > 0)
            se = np.std(w, ddof=1) / math.sqrt(n)
            assert abs(np.mean(w) - 1.0) < 3 * se
