import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genalpha import (NewtonSettings, StatePair, consistent_initial_rate,
                      integrate, params_from_rho_inf)
from genalpha.advdiff import (AdvDiffConfig, AdvDiffSystem, Mesh1D,
                              element_advection, element_mass, element_stiffness,
                              outflow_flux, project_initial, stabilization_form,
                              supg_tau)

RNG = np.random.default_rng(20260809)


def bump(x):
    return np.exp(-((x - 0.3) / 0.08) ** 2)


class TestMesh:
    def test_uniform(self):
        mesh = Mesh1D(8)
        assert mesh.dx * mesh.n_elements == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh1D(0)


class TestElementMatrices:
    def test_mass_hand_integrated(self):
        dx = 0.125
        expected = dx / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(element_mass(dx), expected, rtol=0, atol=1e-14)

    def test_stiffness_hand_integrated(self):
        dx, kappa = 0.2, 0.7
        expected = kappa / dx * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(element_stiffness(dx, kappa), expected, rtol=0,
                           atol=1e-13)

    def test_advection_hand_integrated(self):
        dx, a = 0.1, 1.3
        expected = a / 2.0 * np.array([[-1.0, 1.0], [-1.0, 1.0]])
        assert np.allclose(element_advection(dx, a), expected, rtol=0, atol=1e-14)


class TestSupgTau:
    def test_diffusive_limit(self):
        # a = 0, large kappa: tau -> dx^2/(4 kappa)
        assert supg_tau(0.1, 0.0, 50.0, np.inf) == pytest.approx(
            0.1 ** 2 / (4 * 50.0), rel=1e-12)

    def test_advective_limit(self):
        assert supg_tau(0.1, 1.0, 0.0, np.inf) == pytest.approx(0.05, rel=1e-12)

    def test_mixed_example(self):
        tau = supg_tau(0.1, 1.0, 0.01, 0.05)
        assert tau == pytest.approx((400.0 + 16.0 + 1600.0) ** -0.5, rel=1e-12)


class TestResidual:
    def test_constants_in_kernel_of_pure_diffusion(self):
        mesh = Mesh1D(16)
        system = AdvDiffSystem(mesh, AdvDiffConfig(a=0.0, kappa=1.0))
        u = np.full(system.dimension(), 3.7)
        r = system.residual(np.zeros_like(u), u, 0.3)
        assert np.max(np.abs(r)) <= 1e-13

    def test_advective_term_on_linear_field(self):
        # with u = x and kappa exactly cancelling on linears, the interior
        # residual rows reduce to -int(a*x*phi_i') = a*dx per hat function
        mesh = Mesh1D(10)
        system = AdvDiffSystem(mesh, AdvDiffConfig(a=1.0, kappa=1e-6))
        u = mesh.nodes.copy()
        r = system.residual(np.zeros_like(u), u, 0.0)
        assert np.allclose(r[1:-1], 1.0 * mesh.dx, rtol=0, atol=1e-13)
        # test-function-one: boundary rows complete the total to a*u(1)
        assert np.sum(r) == pytest.approx(1.0 * u[-1], abs=1e-13)

    def test_test_function_one_identity_with_supg(self):
        mesh = Mesh1D(24)
        config = AdvDiffConfig(
            a=0.8, kappa=0.05,
            f=lambda x, t: np.sin(2 * np.pi * x) + t,
            h_in=lambda t: 0.3 * t, h_out=lambda t: -0.1,
            stabilization="supg")
        system = AdvDiffSystem(mesh, config, dt=0.01)
        u = RNG.normal(size=system.dimension())
        u_dot = RNG.normal(size=system.dimension())
        t = 0.37
        lhs = float(np.sum(system.residual(u_dot, u, t)))
        rhs = (float(np.sum(system.mass @ u_dot)) + outflow_flux(system, u, t)
               - float(system.balance_source(u, t)[0]))
        assert abs(lhs - rhs) <= 1e-12

    def test_iteration_matrix_matches_finite_differences(self):
        mesh = Mesh1D(12)
        config = AdvDiffConfig(a=1.0, kappa=0.02, stabilization="supg")
        system = AdvDiffSystem(mesh, config, dt=0.05)
        m = system.dimension()
        u, u_dot = RNG.normal(size=m), RNG.normal(size=m)
        d = RNG.normal(size=m)
        c_dot, c_u, t = 0.7, 0.3, 0.2
        eps = 1e-6 * max(1.0, np.max(np.abs(u)), np.max(np.abs(u_dot)))
        fd = (system.residual(u_dot + eps * c_dot * d, u + eps * c_u * d, t)
              - system.residual(u_dot - eps * c_dot * d, u - eps * c_u * d, t)
              ) / (2 * eps)
        action = system.iteration_matrix(c_dot, c_u, u_dot, u, t) @ d
        assert np.max(np.abs(action - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


class TestProjection:
    def test_constants_reproduced(self):
        mesh = Mesh1D(9)
        c = project_initial(mesh, lambda x: np.ones_like(x))
        assert np.allclose(c, 1.0, rtol=0, atol=1e-13)

    def test_linears_reproduced(self):
        mesh = Mesh1D(10)
        c = project_initial(mesh, lambda x: np.asarray(x))
        assert np.allclose(c, mesh.nodes, rtol=0, atol=1e-12)

    def test_sine_total_matches_analytic_integral(self):
        mesh = Mesh1D(256)
        system = AdvDiffSystem(mesh, AdvDiffConfig(a=0.0, kappa=1.0))
        c = project_initial(mesh, lambda x: np.sin(np.pi * x))
        assert system.total(c) == pytest.approx(2.0 / np.pi, abs=1e-10)


class TestTotals:
    def test_domain_measure(self):
        system = AdvDiffSystem(Mesh1D(7), AdvDiffConfig())
        assert system.total(np.ones(8)) == pytest.approx(1.0, abs=1e-14)

    def test_linear_total(self):
        mesh = Mesh1D(13)
        system = AdvDiffSystem(mesh, AdvDiffConfig())
        assert system.total(mesh.nodes) == pytest.approx(0.5, abs=1e-14)

    def test_odd_sine_total_vanishes(self):
        mesh = Mesh1D(64)
        system = AdvDiffSystem(mesh, AdvDiffConfig())
        c = project_initial(mesh, lambda x: np.sin(2 * np.pi * x))
        assert abs(system.total(c)) <= 1e-12


class TestOutflow:
    def test_positive_advection(self):
        system = AdvDiffSystem(Mesh1D(4), AdvDiffConfig(a=2.0))
        u = np.array([0.0, 0.0, 0.0, 0.0, 3.0])
        assert outflow_flux(system, u) == pytest.approx(6.0)

    def test_zero_advection(self):
        system = AdvDiffSystem(Mesh1D(4), AdvDiffConfig(a=0.0))
        assert outflow_flux(system, np.ones(5)) == 0.0

    def test_negative_advection_outflow_at_left(self):
        system = AdvDiffSystem(Mesh1D(4), AdvDiffConfig(a=-1.0))
        u = np.array([5.0, 0.0, 0.0, 0.0, 9.0])
        assert outflow_flux(system, u) == pytest.approx(5.0)


class TestStabilizationKernel:
    def test_annihilates_constants(self):
        mesh = Mesh1D(32)
        system = AdvDiffSystem(
            mesh, AdvDiffConfig(a=1.0, kappa=0.01, stabilization="supg"), dt=0.01)
        ones = np.ones(system.dimension())
        for _ in range(100):
            v = RNG.normal(size=system.dimension())
            assert stabilization_form(system, v, ones) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(0.01, 2.0))
    def test_annihilates_constants_property(self, a, kappa):
        system = AdvDiffSystem(
            Mesh1D(8), AdvDiffConfig(a=a, kappa=kappa, stabilization="supg"),
            dt=0.1)
        v = RNG.normal(size=9)
        assert stabilization_form(system, v, np.ones(9)) == 0.0


class TestConsistentInitialization:
    def test_matches_direct_mass_solve(self):
        mesh = Mesh1D(32)
        system = AdvDiffSystem(mesh, AdvDiffConfig(a=1.0, kappa=0.01))
        u0 = project_initial(mesh, lambda x: np.sin(np.pi * x))
        u_dot = consistent_initial_rate(system, u0, 0.0)
        direct = np.linalg.solve(system.mass,
                                 system.load_vector(0.0) - system.stiffness @ u0)
        assert np.max(np.abs(u_dot - direct)) <= 1e-12
        assert np.max(np.abs(system.residual(u_dot, u0, 0.0))) <= 1e-12


class TestGenAlphaOnAdvDiff:
    def test_short_run_is_stable_and_conservative_per_step(self):
        mesh = Mesh1D(32)
        system = AdvDiffSystem(
            mesh, AdvDiffConfig(a=1.0, kappa=0.01, u0=bump,
                                stabilization="supg"), dt=1e-3)
        u0 = project_initial(mesh, bump)
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
        states = integrate(system, state, [1e-3] * 20, params_from_rho_inf(0.5))
        assert np.all(np.isfinite(states[-1].u))
        # per-step discrete balance with w = 1
        p = params_from_rho_inf(0.5)
        for s0, s1 in zip(states, states[1:]):
            t_plus = system.shifted_balance_total(s1, 1e-3, p.alpha_f)[0]
            t_minus = system.shifted_balance_total(s0, 1e-3, p.alpha_f)[0]
            u_af = (1 - p.alpha_f) * s0.u + p.alpha_f * s1.u
            out = outflow_flux(system, u_af)
            assert t_plus - t_minus == pytest.approx(-1e-3 * out, abs=1e-14)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdvDiffConfig(kappa=0.0)
        with pytest.raises(ValueError):
            AdvDiffConfig(stabilization="glitter")
