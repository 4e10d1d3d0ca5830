import functools

import numpy as np
import pytest
from scipy import integrate

from conftest import (
    constant_drift,
    in_lanes,
    mollified_grad_reference,
    mollified_value_reference,
    structure_eval_reference,
)
from cylfbm import cli, cylinder, drift, fbm


@pytest.fixture(scope="module")
def weights():
    return cylinder.WeightSequence.geometric(0.5, 0.5, 4)


@pytest.fixture(scope="module")
def jump_spec(weights):
    return drift.indicator_exponential_family(weights, 4)


def scaling_for(weights, d):
    # measured non-determinism constants sit near 0.55; any positive scaling
    # works for the checks that only need the composite product shape
    return cylinder.composite_scaling(weights, [0.55] * d, d)


class TestFamily:
    def test_sup_bound_reached_within_one_percent(self, jump_spec, weights):
        rng = np.random.default_rng(0)
        for k in (0, 1):
            comp = jump_spec.components[k]
            measured = drift._sampled_sup(comp, 4, 1.0, rng)
            assert measured <= comp.sup_bound * (1 + 1e-12)
            assert measured >= comp.sup_bound * 0.99

    def test_integral_bound_finite_low_dims(self, jump_spec, weights):
        # closed-form check of the declared envelope integral in 1 dimension
        st = jump_spec.components[0].structure
        scale = scaling_for(weights, 1)[0]
        fn = lambda y: st.amp * max(abs(st.a), abs(st.b)) * np.exp(
            -st.decay * st.scale * abs(scale * y) / 2.0)
        val, _ = integrate.quad(fn, -np.inf, np.inf)
        lam1 = weights.value(1)
        assert val <= jump_spec.d_bounds[0] * lam1 * (1 + 1e-9)
        assert np.isfinite(val)

    def test_evaluates_only_the_rows_a_state_has(self):
        # the CLI's default drift has 8 components; a 4-row state gets 4 rows
        _, _, spec, _ = cli._build_model(cli.load_config({}))
        y = np.random.default_rng(8).standard_normal((4, 5))
        out = drift.evaluate(spec, 0.3, y)
        assert spec.d_max == 8 and out.shape == (4, 5)
        for k in range(4):
            assert np.array_equal(out[k], spec.components[k](0.3, y))

    def test_continuous_when_no_jump(self, weights):
        spec = drift.indicator_exponential_family(weights, 2, a=0.7, b=0.7)
        y = np.zeros((2, 3))
        y[0] = [-1e-9, 0.0, 1e-9]
        vals = drift.evaluate(spec, 0.0, y)[0]
        assert np.max(np.abs(np.diff(vals))) < 1e-8

    def test_lipschitz_blows_up_only_with_jump(self, weights):
        smooth = drift.indicator_exponential_family(weights, 2, a=0.7, b=0.7)
        jumpy = drift.indicator_exponential_family(weights, 2, a=1.0, b=-0.5)
        L_s1, _, _ = drift.lipschitz_estimate(drift.mollify(smooth, 2, 0.1))
        L_s2, _, _ = drift.lipschitz_estimate(drift.mollify(smooth, 2, 0.01))
        L_j1, _, _ = drift.lipschitz_estimate(drift.mollify(jumpy, 2, 0.1))
        L_j2, _, _ = drift.lipschitz_estimate(drift.mollify(jumpy, 2, 0.01))
        assert L_s2[0] < 2.0 * L_s1[0]  # stable without a jump
        ratio = L_j2[0] / L_j1[0]  # ~ 1/eps scaling at the interface
        assert 5.0 < ratio < 20.0


class TestClassValidation:
    def test_zero_drift_margins_equal_bounds(self, weights):
        spec = drift.zero_drift(weights, 3)
        report = drift.validate_drift_class(spec, 3, scaling_for(weights, 3))
        assert report.passed
        for e in report.entries:
            assert e.sup_measured == 0.0
            assert e.integral_measured == 0.0
            assert e.sup_margin == e.sup_bound
            assert e.integral_margin == e.integral_bound

    def test_family_passes(self, jump_spec, weights, grid64):
        lnd = [fbm.estimate_lnd_constant(0.08 * 0.5 ** k, grid64, 0.1) for k in range(3)]
        scaling = cylinder.composite_scaling(weights, lnd, 3)
        report = drift.validate_drift_class(jump_spec, 3, scaling)
        assert report.passed
        assert report.d_tested == 3

    def test_constant_drift_fails_integral(self, weights):
        spec = constant_drift([1.0], weights)
        # claim a finite integral bound, then watch the test falsify it
        spec = drift.DriftSpec(components=spec.components, weights=weights,
                               c_bounds=spec.c_bounds,
                               d_bounds=np.array([10.0]))
        report = drift.validate_drift_class(spec, 1, scaling_for(weights, 1))
        assert not report.passed
        assert report.entries[0].integral_measured == np.inf


class TestTruncation:
    def test_full_level_is_identity(self, jump_spec):
        trunc = drift.truncate_drift(jump_spec, 4)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4, 50))
        for t in (0.0, 0.7):
            assert np.allclose(drift.evaluate(trunc, t, y),
                               drift.evaluate(jump_spec, t, y), atol=1e-14)

    def test_higher_components_vanish(self, jump_spec):
        trunc = drift.truncate_drift(jump_spec, 2)
        y = np.random.default_rng(2).standard_normal((4, 20))
        out = drift.evaluate(trunc, 0.3, y)
        assert np.all(out[2:] == 0.0)

    def test_pointwise_convergence_to_full(self, jump_spec):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((4, 100))
        ts = rng.uniform(0, 1, size=100)
        full = np.stack([drift.evaluate(jump_spec, t, y[:, i : i + 1])[:, 0]
                         for i, t in enumerate(ts)])
        gaps = []
        for d in (1, 2, 3, 4):
            trunc = drift.truncate_drift(jump_spec, d)
            vals = np.stack([drift.evaluate(trunc, t, y[:, i : i + 1])[:, 0]
                             for i, t in enumerate(ts)])
            gaps.append(np.max(np.abs(vals - full)))
        assert gaps[-1] < 1e-14
        assert gaps[0] >= gaps[1] >= gaps[2] >= gaps[3]


class TestMollification:
    def test_interface_midpoint_value(self, weights):
        a, b = 1.0, -0.5
        spec = drift.indicator_exponential_family(weights, 2, a=a, b=b)
        md = drift.mollify(spec, 2, 0.1)
        st = spec.components[0].structure
        z = np.zeros((2, 1))  # on the interface, at the amplitude peak
        got = md(0.3, z)[0, 0]
        expect = 0.5 * (a + b) * st.amp * np.exp(-0.3)
        assert got == pytest.approx(expect, abs=1e-6)
        # off the amplitude peak but on the interface plane of component 1
        z2 = np.array([[0.0], [0.8]])
        got2 = md(0.0, z2)[0, 0]
        assert got2 == pytest.approx(0.5 * (a + b) * st.amp, abs=1e-6)

    def test_pointwise_recovery_off_jump_set(self, jump_spec):
        rng = np.random.default_rng(5)
        z = rng.uniform(-2, 2, size=(2, 100))
        z[0][np.abs(z[0]) < 0.05] = 0.5  # keep clear of the interface
        raw = drift.evaluate(drift.truncate_drift(jump_spec, 2), 0.2, z)[:2]
        md = drift.mollify(jump_spec, 2, 1e-3)
        assert np.max(np.abs(md(0.2, z) - raw)) < 1e-6

    def test_gradient_matches_finite_differences(self, jump_spec, weights):
        md = drift.mollify(jump_spec, 2, 0.1)
        rng = np.random.default_rng(6)
        z = rng.uniform(-1, 1, size=(2, 40))
        z[np.abs(z) < 0.05] = 0.3  # stay off the amplitude ridge
        J = md.gradient_evaluator(0.3, z)
        h = 1e-6
        for i in range(2):
            zp = z.copy(); zp[i] += h
            zm = z.copy(); zm[i] -= h
            fd = (md(0.3, zp) - md(0.3, zm)) / (2 * h)
            assert np.max(np.abs(J[:, i, :] - fd)) < 1e-6

    def test_generic_high_dim_unsupported(self, weights):
        # smoothing needs the closed-form structure of every nonzero component
        with pytest.raises(fbm.DomainError):
            drift.mollify(constant_drift([1.0, 0.5, 0.2, 0.1], weights), 4, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
    def test_width_must_be_positive(self, jump_spec, eps):
        with pytest.raises(fbm.DomainError):
            drift.mollify(jump_spec, 2, eps)

    def test_mollified_keeps_class_bounds(self, jump_spec, weights):
        # smoothing the indicator cannot raise the sup or integral envelopes
        md = drift.mollify(jump_spec, 2, 0.1)
        rng = np.random.default_rng(7)
        z = rng.uniform(-30, 30, size=(2, 5000))
        lam = weights.head_array(2)
        for k in range(2):
            assert np.max(np.abs(md(0.0, z)[k])) <= jump_spec.c_bounds[k] * lam[k] * (1 + 1e-9)

    def test_l1_in_law_proxy_decreases(self, jump_spec, sequences, grid64):
        hs, ws4 = sequences
        ens = cylinder.sample_cyl_fbm(hs, ws4, 4, grid64, 4000, seed=11)
        x = np.zeros(4)
        states = x[:, None] + ens.values[:, 32, :]
        full = drift.evaluate(jump_spec, 0.5, states)[:4]
        gaps = []
        for d, eps in ((1, 0.2), (2, 0.1), (4, 0.05), (4, 0.01)):
            md = drift.mollify(jump_spec, d, eps)
            approx = np.zeros_like(full)
            approx[:d] = md(0.5, states[:d])
            gaps.append(float(np.mean(np.sum((approx - full) ** 2, axis=0))))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


class TestLipschitzFactorization:
    def test_zero_drift_all_zero(self, weights):
        md = drift.mollify(drift.zero_drift(weights, 2), 2, 0.1)
        L, M, G = drift.lipschitz_estimate(md)
        assert np.all(L == 0.0) and np.all(G == 0.0)

    def test_rank_one_dominance(self, jump_spec):
        md = drift.mollify(jump_spec, 3, 0.1)
        L, M, G = drift.lipschitz_estimate(md)
        assert np.all(L[:, None] * M[None, :] >= G - 1e-12)

    def test_interface_derivative_scale(self, weights):
        # dominant derivative grows like |a-b|/eps at the interface
        spec = drift.indicator_exponential_family(weights, 1, a=1.0, b=-0.5)
        st = spec.components[0].structure
        for eps in (0.1, 0.05):
            md = drift.mollify(spec, 1, eps)
            L, _, _ = drift.lipschitz_estimate(md)
            predicted = st.amp * abs(st.a - st.b) / (eps * np.sqrt(2 * np.pi))
            assert L[0] == pytest.approx(predicted, rel=0.05)


class TestMollifiedStaysInClass:
    def test_validator_passes_with_same_bounds(self, jump_spec, weights, grid64):
        # smoothing must not enlarge the declared envelopes
        d = 2
        md = drift.mollify(jump_spec, d, 0.1)
        comps = []
        for k in range(d):
            base = jump_spec.components[k]
            comps.append(drift.DriftComponent(
                fn=(lambda t, z, _k=k, _md=md: _md(t, z[:_md.d])[_k]),
                deps=base.deps, sup_bound=base.sup_bound,
                decay_rate=base.decay_rate))
        molli_spec = drift.DriftSpec(
            components=tuple(comps), weights=weights,
            c_bounds=jump_spec.c_bounds[:d], d_bounds=jump_spec.d_bounds[:d])
        lnd = [fbm.estimate_lnd_constant(0.08 * 0.5 ** k, grid64, 0.1) for k in range(d)]
        scaling = cylinder.composite_scaling(weights, lnd, d)
        report = drift.validate_drift_class(molli_spec, d, scaling)
        assert report.passed


class TestFusedEvaluation:
    """The fused evaluations give the pass-by-pass formulas' floats exactly
    (at scales and decay rates that are not powers of two, where regrouping
    their products would round differently)."""

    REGIONS = {
        "halfspace-axis0": drift.Region("halfspace", axis=0, offset=0.0),
        "halfspace-axis1": drift.Region("halfspace", axis=1, offset=0.3),
        "halfspace-axis3-negative-offset": drift.Region("halfspace", axis=3, offset=-0.2),
        "ball": drift.Region("ball", radius=0.8),
    }
    PROJ_SETS = {
        "own": None,
        # two coordinates each; the fourth reads coordinate 4, past a 4-row
        # state
        "pairs": ((0, 1), (1, 2), (2, 0), (3, 4), (4, 0)),
    }

    @staticmethod
    def states(n_rows, scale_first):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((n_rows, 400)) * 1.5
        z[:, :10] = 0.0  # the origin and a vanishing norm
        z[1, 10:20] = 0.3 / (4.5 * scale_first)  # on the axis-1 interface
        z[:, 20:25] = 40.0  # an underflowing amplitude
        return z

    @pytest.mark.parametrize("region", sorted(REGIONS))
    @pytest.mark.parametrize("proj", sorted(PROJ_SETS))
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_raw_mollified_and_gradient_bitwise(self, weights, region, proj, t):
        ws5 = cylinder.WeightSequence.geometric(0.5, 0.5, 5)
        spec = drift.indicator_exponential_family(
            ws5, 5, region=self.REGIONS[region], proj_sets=self.PROJ_SETS[proj],
            decay_first=0.7, decay_ratio=0.9, proj_scale_first=1.3, proj_scale_ratio=4.5)
        y = self.states(4, spec.components[0].structure.scale)
        raw = drift.evaluate(spec, t, y)
        for k in range(4):
            st = spec.components[k].structure
            assert np.array_equal(raw[k], structure_eval_reference(st, t, y))
        for d in (2, 4):
            md = drift.mollify(spec, d, 0.05)
            z = y[:d]
            val = md.evaluator(t, z)
            grad = md.gradient_evaluator(t, z)
            for k in range(d):
                st = md.base.components[k].structure
                assert np.array_equal(val[k], mollified_value_reference(st, 0.05, t, z))
                assert np.array_equal(grad[k], mollified_grad_reference(st, 0.05, t, z, d))


class TestNodeTimeContract:
    """At a vector of node times with states of shape (dy, n_nodes, m), a
    drift equals its per-node calls stacked along the node axis, bit for
    bit, in one lane and in two."""

    @pytest.mark.parametrize("region", sorted(TestFusedEvaluation.REGIONS))
    @pytest.mark.parametrize("proj", sorted(TestFusedEvaluation.PROJ_SETS))
    def test_matches_stacked_node_calls(self, monkeypatch, region, proj):
        ws5 = cylinder.WeightSequence.geometric(0.5, 0.5, 5)
        spec = drift.indicator_exponential_family(
            ws5, 5, region=TestFusedEvaluation.REGIONS[region],
            proj_sets=TestFusedEvaluation.PROJ_SETS[proj],
            decay_first=0.7, decay_ratio=0.9, proj_scale_first=1.3, proj_scale_ratio=4.5)
        grid = fbm.TimeGrid(1.0, 8)
        base = TestFusedEvaluation.states(4, spec.components[0].structure.scale)
        # every node keeps the interface, origin and underflow columns
        y = np.stack([np.roll(base, 7 * i, axis=1) for i in range(grid.n_nodes)], axis=1)
        evaluators = {
            "raw": functools.partial(drift.evaluate, spec),
            "mollified": drift.mollify(spec, 4, 0.05),
            "truncated": functools.partial(drift.evaluate, drift.truncate_drift(spec, 2)),
            "zero": functools.partial(drift.evaluate, drift.zero_drift(ws5, 4)),
            "constant": functools.partial(drift.evaluate,
                                          constant_drift([0.2, -0.1, 0.0, 0.3], ws5)),
        }
        for name, fn in evaluators.items():
            ref = np.stack([fn(s, y[:, i, :]) for i, s in enumerate(grid.nodes)], axis=1)
            one = in_lanes(monkeypatch, 1, lambda: fn(grid.nodes, y))
            out = np.empty_like(ref)
            two = in_lanes(monkeypatch, 2, lambda: fn(grid.nodes, y, out=out))
            assert np.array_equal(one, ref), name
            assert two is out and np.array_equal(two, one), name

    def test_one_time_starts_no_lane(self, monkeypatch, jump_spec):
        # the solver calls the drift once per step, where a lane thread per
        # call costs more than the components' work
        monkeypatch.setattr(cylinder, "usable_cpus", lambda: 2)
        started = []
        monkeypatch.setattr(cylinder.threading.Thread, "start", lambda th: started.append(th))
        y = np.random.default_rng(3).standard_normal((4, 50))
        drift.evaluate(jump_spec, 0.5, y)
        drift.mollify(jump_spec, 4, 0.1)(0.5, y)
        assert started == []
