import numpy as np
import pytest

from genalpha import (AmplificationMatrix, ConvergenceReport, GenAlphaParams,
                      StatePair, amplification_matrix, observed_order,
                      params_from_rho_inf, spectral_radius, step)
from genalpha.odes import ScalarLinear


class TestAmplificationMatrix:
    def test_z_zero_hand_solved(self):
        # at z = 0 the residual forces (1-am)*w0 + am*w1 = 0, so
        # w1 = -((1-am)/am) w0 and u1 = u0 + (1-g)w0 + g*w1:
        # column 2 = (1 - g - g(1-am)/am, -(1-am)/am), column 1 = (1, 0)
        for rho in (0.0, 0.5, 1.0):
            p = params_from_rho_inf(rho)
            am, g = p.alpha_m, p.gamma
            a = amplification_matrix(0.0, p).entries
            ratio = (1.0 - am) / am
            expected = np.array([[1.0, 1.0 - g - g * ratio], [0.0, -ratio]])
            assert np.allclose(a, expected, rtol=0, atol=1e-13)

    def test_midpoint_top_left(self):
        a = amplification_matrix(-0.1, params_from_rho_inf(1.0)).entries
        assert a[0, 0] == pytest.approx(0.95 / 1.05, abs=1e-14)

    @pytest.mark.parametrize("z", [0.0, -0.3, -2.0, 1.5])
    def test_columns_match_step_on_unit_states(self, z):
        p = params_from_rho_inf(0.4)
        a = amplification_matrix(z, p).entries
        system = ScalarLinear(z)
        for j, (u0, w0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            out = step(system, StatePair([u0], [w0], 0.0), 1.0, p)
            assert abs(a[0, j] - out.u[0]) <= 1e-14
            assert abs(a[1, j] - out.u_dot[0]) <= 1e-14

    def test_complex_z(self):
        a = amplification_matrix(-0.5 + 1.0j, params_from_rho_inf(0.5)).entries
        assert np.iscomplexobj(a)
        assert np.all(np.isfinite(a))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AmplificationMatrix(np.zeros((3, 2)))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(AmplificationMatrix(np.eye(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        m = AmplificationMatrix(np.diag([0.5, 0.25]))
        assert spectral_radius(m) == pytest.approx(0.5)

    def test_rho_limit_at_large_negative_z(self):
        m = amplification_matrix(-1e8, params_from_rho_inf(0.4))
        assert spectral_radius(m) == pytest.approx(0.4, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75, 1.0])
    def test_rho_limit_family(self, rho):
        m = amplification_matrix(-1e8, params_from_rho_inf(rho))
        assert spectral_radius(m) == pytest.approx(rho, abs=1e-6)

    def test_rho_zero_defective_limit_rate(self):
        # rho_inf = 0 gives a nilpotent infinite-step matrix; the finite-z
        # eigenvalue pair has modulus sqrt(det) = sqrt(0.5/(1.5+|z|)),
        # so the limit is approached only at the |z|^(-1/2) rate
        z = -1e8
        m = amplification_matrix(z, params_from_rho_inf(0.0))
        expected = np.sqrt(0.5 / (1.5 - z))
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("z", [-0.01, -1.0, -100.0, -1e6])
    def test_midpoint_entry_formula(self, z):
        a = amplification_matrix(z, params_from_rho_inf(1.0)).entries
        assert a[0, 0] == pytest.approx((1 + z / 2) / (1 - z / 2), abs=1e-12)


class TestObservedOrder:
    def test_second_order_window(self):
        rep = observed_order(ScalarLinear(-1.0), 1.0, [0.1, 0.05, 0.025, 0.0125],
                             params_from_rho_inf(0.5))
        assert 1.9 <= rep.observed_order <= 2.1
        assert not rep.degenerate

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.75, 1.0])
    def test_second_order_across_family(self, rho):
        # strongly damped members reach the asymptotic regime at smaller dt
        rep = observed_order(ScalarLinear(-1.0), 1.0,
                             [0.025, 0.0125, 0.00625, 0.003125],
                             params_from_rho_inf(rho))
        assert rep.observed_order >= 1.9

    def test_first_order_when_gamma_wrong(self):
        base = params_from_rho_inf(0.5)
        p = GenAlphaParams(base.alpha_m, base.alpha_f, base.gamma + 0.25)
        rep = observed_order(ScalarLinear(-1.0), 1.0, [0.1, 0.05, 0.025, 0.0125], p)
        assert 0.8 <= rep.observed_order <= 1.2

    def test_degenerate_fit_flagged(self):
        class ConstantExact:
            def residual(self, u_dot, u, t):
                return np.array(u_dot, copy=True)

            def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
                return c_dot * np.eye(1)

            def exact(self, t):
                return np.array([4.0])

        rep = observed_order(ConstantExact(), 1.0, [0.1, 0.05, 0.025],
                             params_from_rho_inf(0.5))
        assert rep.degenerate
        assert all(e == 0.0 for e in rep.errors)

    def test_rejects_nonmultiple_dt(self):
        with pytest.raises(ValueError):
            observed_order(ScalarLinear(-1.0), 1.0, [0.1, 0.07, 0.025],
                           params_from_rho_inf(0.5))

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport((0.1, 0.2, 0.05), (1.0, 1.0, 1.0), 2.0)
        with pytest.raises(ValueError):
            ConvergenceReport((0.1, 0.05), (1.0, 1.0), 2.0)
