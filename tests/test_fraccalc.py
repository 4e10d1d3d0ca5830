import numpy as np
from scipy import special

from cylfbm import fbm, fraccalc


class TestKernelTransformPair:
    def test_zero_maps_to_zero(self):
        g = fbm.TimeGrid(1.0, 64)
        z = np.zeros(g.n_nodes)
        for H in (0.1, 0.12, 0.2):
            assert np.all(fraccalc.kh_operator(H, g, z) == 0.0)
            assert np.all(fraccalc.kh_inverse_matrix(H, g) @ z == 0.0)

    def test_linearity_machine_precision(self):
        g = fbm.TimeGrid(1.0, 128)
        p1 = g.nodes * np.sin(g.nodes)
        p2 = g.nodes ** 2
        lhs = fraccalc.kh_operator(0.2, g, 2.0 * p1 - 3.0 * p2)
        rhs = 2.0 * fraccalc.kh_operator(0.2, g, p1) - 3.0 * fraccalc.kh_operator(0.2, g, p2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        g = fbm.TimeGrid(1.0, 1024)
        for H in (0.08, 0.42):
            c = rng.standard_normal(3)
            phi = g.nodes * (c[0] + c[1] * np.sin(3 * g.nodes) + c[2] * g.nodes ** 2)
            img = fraccalc.kh_operator(H, g, phi)
            img_prime = np.gradient(img, g.nodes, edge_order=2)
            back = fraccalc.kh_inverse_matrix(H, g) @ img_prime
            scale = max(1.0, np.max(np.abs(phi)))
            assert np.max(np.abs(back - phi)) / scale < 1e-2

    def test_inverse_constant_closed_form(self):
        # constant weak derivative: the output follows the beta-function profile
        for H, cells in ((0.1, 256), (0.1, 64), (0.12, 64), (0.3, 256)):
            c = 0.8
            g = fbm.TimeGrid(1.0, cells)
            out = fraccalc.kh_inverse_matrix(H, g) @ np.full(g.n_nodes, c)
            exact = c * g.nodes ** (0.5 - H) * special.beta(1.5 - H, 0.5 - H) \
                / special.gamma(0.5 - H)
            assert np.max(np.abs(out - exact)) < 1e-12

    def test_inverse_bounded_for_bounded_input(self):
        rng = np.random.default_rng(5)
        for H, cap, cells in ((0.1, 1.0, 256), (0.12, 0.9, 64)):
            g = fbm.TimeGrid(1.0, cells)
            up = np.clip(rng.standard_normal(g.n_nodes), -cap, cap)
            out = fraccalc.kh_inverse_matrix(H, g) @ up
            # bounded inputs map to outputs below the constant-profile envelope
            env = g.t_end ** (0.5 - H) * special.beta(1.5 - H, 0.5 - H) / special.gamma(0.5 - H)
            assert np.max(np.abs(out)) <= env * cap + 1e-12
            assert out[0] == 0.0
