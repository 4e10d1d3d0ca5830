import functools

import numpy as np
import pytest
from scipy import integrate, special

from conftest import (
    constant_drift,
    in_lanes,
    mollified_grad_reference,
    mollified_value_reference,
    structure_eval_reference,
    zero_drift,
)
from cylfbm import cli, cylinder, drift, fbm


@pytest.fixture(scope="module")
def weights():
    return cylinder.WeightSequence(0.5, 0.5)


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
        spec = zero_drift(weights, 3)
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

    def test_infinite_bound_fails(self, weights):
        # no decay: the envelope integral and its declared bound are both
        # infinite, and inf <= inf must not pass
        spec = drift.indicator_exponential_family(weights, 2, decay_first=0.0)
        report = drift.validate_drift_class(spec, 2, scaling_for(weights, 2))
        assert np.isinf(report.entries[0].integral_bound)
        assert not report.entries[0].passed and not report.passed


class TestTruncation:
    def test_pointwise_convergence_to_full(self, jump_spec):
        # truncating at d neglects the components k > d, and the largest
        # neglected |b_k| falls with d
        rng = np.random.default_rng(3)
        y = rng.standard_normal((4, 100))
        ts = rng.uniform(0, 1, size=100)
        full = np.stack([drift.evaluate(jump_spec, t, y[:, i : i + 1])[:, 0]
                         for i, t in enumerate(ts)], axis=1)
        gaps = [np.max(np.abs(full[d:]), initial=0.0) for d in (1, 2, 3, 4)]
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
        raw = drift.evaluate(jump_spec, 0.2, z)
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
        with pytest.raises(fbm.DomainError, match="^component 1 is nonzero and has no "
                           "closed-form structure to truncate and mollify$"):
            drift.mollify(constant_drift([1.0, 0.5, 0.2, 0.1], weights), 4, 0.1)
        # only the first d components are smoothed, and a zero one needs none
        md = drift.mollify(constant_drift([0.0, 0.5], weights), 1, 0.1)
        assert np.array_equal(md(0.3, np.ones((1, 3))), np.zeros((1, 3)))

    @pytest.mark.parametrize("d", [0, -1])
    def test_level_must_be_positive(self, jump_spec, d):
        with pytest.raises(fbm.DomainError, match="^truncation level must be >= 1$"):
            drift.mollify(jump_spec, d, 0.1)

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


class TestErf:
    """The numpy erf of the mollified drift against scipy.special.erf: a
    dense grid, geometric points down to the least subnormal, and the
    neighbours of the branch edges and of the clip."""

    @staticmethod
    def points():
        edges = np.array([drift._ERF_SMALL, 4.0, drift._ERF_CLIP])
        near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
        x = np.concatenate([np.linspace(-7.0, 7.0, 200001), np.geomspace(5e-324, 1.0, 2000),
                            near])
        return np.concatenate([x, -x])

    def test_matches_scipy(self):
        x = self.points()
        want = special.erf(x)
        gap = np.abs(drift._erf(x) - want)
        assert gap.max() <= 5e-16
        normal = np.abs(want) >= 1e-300
        assert np.all(gap[normal] <= 8 * np.spacing(np.abs(want[normal])))

    def test_signed_zeros_infinities_and_nan(self):
        got = drift._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert np.array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
        assert np.array_equal(np.signbit(got[:2]), [False, True])
        assert np.isnan(got[4])

    def test_in_place_equals_out_of_place(self):
        x = self.points()
        y = x.copy()
        assert drift._erf(y, out=y) is y
        assert np.array_equal(y, drift._erf(x))


class TestLipschitzFactorization:
    def test_zero_drift_all_zero(self, weights):
        md = drift.mollify(zero_drift(weights, 2), 2, 0.1)
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
    (at decay rates and, past component 1, scales that are not powers of
    two, where regrouping their products would round differently)."""

    REGIONS = {
        "halfspace-axis0": drift.Region("halfspace", axis=0, offset=0.0),
        "halfspace-axis1": drift.Region("halfspace", axis=1, offset=0.3),
        "halfspace-axis3-negative-offset": drift.Region("halfspace", axis=3, offset=-0.2),
        "ball": drift.Region("ball", radius=0.8),
    }
    PROJ_SETS = ("own",)  # each component reads its own coordinate

    @staticmethod
    def states(n_rows):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((n_rows, 400)) * 1.5
        z[:, :10] = 0.0  # the origin and a vanishing norm
        z[1, 10:20] = 0.3 / 4.5  # on the axis-1 interface
        z[:, 20:25] = 40.0  # an underflowing amplitude
        return z

    @pytest.mark.parametrize("region", sorted(REGIONS))
    @pytest.mark.parametrize("proj", PROJ_SETS)
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_raw_mollified_and_gradient_bitwise(self, weights, region, proj, t):
        spec = drift.indicator_exponential_family(
            weights, 5, region=self.REGIONS[region],
            decay_first=0.7, decay_ratio=0.9, proj_scale_ratio=4.5)
        y = self.states(4)
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


class TestStackedPoints:
    """A stack of (level, width) points is one drift on states with a points
    axis: each point's rows are its own drift's floats, and 0 past its
    level."""

    # unsorted, with two points at level 4 and a level not at either end
    LEVELS = [2, 4, 1, 4, 3]
    WIDTHS = [0.05, 0.025, 0.1, 0.0125, 0.2]

    @pytest.mark.parametrize("region", sorted(TestFusedEvaluation.REGIONS))
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_rows_are_each_points_own_drift(self, weights, region, t):
        spec = drift.indicator_exponential_family(
            weights, 5, region=TestFusedEvaluation.REGIONS[region],
            decay_first=0.7, decay_ratio=0.9, proj_scale_ratio=4.5)
        stack = drift.mollify(spec, self.LEVELS, self.WIDTHS)
        assert (stack.d, stack.epsilon) == (tuple(self.LEVELS), tuple(self.WIDTHS))
        y = TestFusedEvaluation.states(4)
        rng = np.random.default_rng(8)
        z = y[:, None, :] + 0.1 * rng.standard_normal((4, len(self.LEVELS), 1))
        out = stack.evaluator(t, z)
        assert out.shape == z.shape
        for p, (dd, eps) in enumerate(zip(self.LEVELS, self.WIDTHS)):
            own = drift.mollify(spec, dd, eps).evaluator(t, np.ascontiguousarray(z[:dd, p]))
            assert np.array_equal(out[:dd, p], own)
            assert np.all(out[dd:, p] == 0.0) and not np.any(np.signbit(out[dd:, p]))

    def test_points_in_level_order_run_each_component_once(self, monkeypatch, jump_spec):
        calls = []
        monkeypatch.setattr(drift, "_component_values", lambda st, eps, t, y, out, scratch:
                            calls.append((st.coord, y.shape[1], eps.shape)))
        z = np.zeros((4, 4, 3))
        drift.mollify(jump_spec, [1, 2, 4, 4], [0.1, 0.05, 0.025, 0.0125]).evaluator(0.5, z)
        assert calls == [(0, 4, (4, 1)), (1, 3, (3, 1)), (2, 2, (2, 1)), (3, 2, (2, 1))]

    def test_zero_components_stack(self, weights):
        stack = drift.mollify(zero_drift(weights, 3), [3, 1], [0.1, 0.2])
        assert np.array_equal(stack.evaluator(0.3, np.ones((3, 2, 5))), np.zeros((3, 2, 5)))

    def test_stack_has_no_jacobian(self, jump_spec):
        stack = drift.mollify(jump_spec, [1, 2], [0.1, 0.05])
        with pytest.raises(fbm.DomainError, match="no Jacobian"):
            stack.gradient_evaluator(0.5, np.zeros((2, 2, 3)))
        with pytest.raises(fbm.DomainError, match="no Jacobian"):
            drift.lipschitz_estimate(stack)

    @pytest.mark.parametrize("d, eps", [
        (2, float("inf")), ([1, 2], [0.1, float("inf")]), ([1, 2], [0.1, float("nan")]),
        ([2, 1], [0.1, 0.0]), (2.7, 0.1), ([1, 2.7], [0.1, 0.05]), ([1, 2], [0.1]),
        ([1], 0.1), (1, [0.1]), ([], []), ([1, 0], [0.1, 0.05])])
    def test_every_point_checked(self, jump_spec, d, eps):
        with pytest.raises(fbm.DomainError):
            drift.mollify(jump_spec, d, eps)

    def test_integral_float_level_accepted(self, jump_spec):
        assert drift.mollify(jump_spec, 2.0, 0.1).d == 2
        assert drift.mollify(jump_spec, [2.0, 1], [0.1, 0.2]).d == (2, 1)


class TestNodeTimeContract:
    """At a vector of node times with states of shape (dy, n_nodes, m), a
    drift equals its per-node calls stacked along the node axis, bit for
    bit, in one lane and in two."""

    @pytest.mark.parametrize("region", sorted(TestFusedEvaluation.REGIONS))
    @pytest.mark.parametrize("proj", TestFusedEvaluation.PROJ_SETS)
    def test_matches_stacked_node_calls(self, monkeypatch, weights, region, proj):
        spec = drift.indicator_exponential_family(
            weights, 5, region=TestFusedEvaluation.REGIONS[region],
            decay_first=0.7, decay_ratio=0.9, proj_scale_ratio=4.5)
        grid = fbm.TimeGrid(1.0, 8)
        base = TestFusedEvaluation.states(4)
        # every node keeps the interface, origin and underflow columns
        y = np.stack([np.roll(base, 7 * i, axis=1) for i in range(grid.n_nodes)], axis=1)
        evaluators = {
            "raw": functools.partial(drift.evaluate, spec),
            "mollified": drift.mollify(spec, 4, 0.05),
            "truncated": drift.mollify(spec, 2, 0.05),
            "zero": functools.partial(drift.evaluate, zero_drift(weights, 4)),
            "constant": functools.partial(drift.evaluate,
                                          constant_drift([0.2, -0.1, 0.0, 0.3], weights)),
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
