import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genalpha
from genalpha import (NewtonSettings, StatePair, consistent_initial_rate,
                      integrate, params_from_rho_inf)
from genalpha.advdiff import (_QP, _QW, AdvDiffConfig, AdvDiffSystem, Mesh1D,
                              Tridiagonal, element_advection, element_mass,
                              element_stiffness, project_initial, supg_tau)
from genalpha.config import parse_config
from genalpha.experiments import run_experiment
from model_systems import advdiff_stabilization_form as stabilization_form

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
        u = np.full(system.m, 3.7)
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
            stabilization="supg")
        system = AdvDiffSystem(mesh, config, dt=0.01)
        u = RNG.normal(size=system.m)
        u_dot = RNG.normal(size=system.m)
        t = 0.37
        lhs = float(np.sum(system.residual(u_dot, u, t)))
        rhs = (float(np.sum(system.mass @ u_dot)) + system.balance_outflow(u, t)
               - float(system.balance_source(u, t)[0]))
        assert abs(lhs - rhs) <= 1e-12

    def test_iteration_matrix_matches_finite_differences(self):
        mesh = Mesh1D(12)
        config = AdvDiffConfig(a=1.0, kappa=0.02, stabilization="supg")
        system = AdvDiffSystem(mesh, config, dt=0.05)
        m = system.m
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
        assert system.balance_outflow(u, 0.0) == pytest.approx(6.0)

    def test_zero_advection(self):
        system = AdvDiffSystem(Mesh1D(4), AdvDiffConfig(a=0.0))
        assert system.balance_outflow(np.ones(5), 0.0) == 0.0

    def test_negative_advection_outflow_at_left(self):
        system = AdvDiffSystem(Mesh1D(4), AdvDiffConfig(a=-1.0))
        u = np.array([5.0, 0.0, 0.0, 0.0, 9.0])
        assert system.balance_outflow(u, 0.0) == pytest.approx(5.0)


class TestStabilizationKernel:
    def test_annihilates_constants(self):
        mesh = Mesh1D(32)
        system = AdvDiffSystem(
            mesh, AdvDiffConfig(a=1.0, kappa=0.01, stabilization="supg"), dt=0.01)
        ones = np.ones(system.m)
        for _ in range(100):
            v = RNG.normal(size=system.m)
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
            mesh, AdvDiffConfig(a=1.0, kappa=0.01,
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
            out = system.balance_outflow(u_af, 0.0)
            assert t_plus - t_minus == pytest.approx(-1e-3 * out, abs=1e-14)

    def test_run_allocates_no_dense_matrix(self, tmp_path):
        # one 1025×1025 float array takes 8.4 MB; the tridiagonal run is O(m)
        config = parse_config("[experiment]\nname = advdiff-balance\n"
                              "[integrator]\nn_steps = 3\n[spatial]\n"
                              "n_elements = 1024\nstabilization = supg\n")
        tracemalloc.start()
        try:
            assert run_experiment(config, tmp_path, quiet=True) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdvDiffConfig(kappa=0.0)
        with pytest.raises(ValueError):
            AdvDiffConfig(stabilization="glitter")


class LoopOracle:
    """The per-element dense assembly that the tridiagonal operators replaced.

    Test-only reference: every element matrix is added into a dense m×m
    array as the loop over elements meets it, and the projection is a dense
    `np.linalg.solve`.
    """

    def __init__(self, system):
        m, dx, a, tau = system.m, system.mesh.dx, system.config.a, system.tau
        mass = np.zeros((m, m))
        mass_supg = np.zeros((m, m))
        stiff = np.zeros((m, m))
        m_el = element_mass(dx)
        k_el = element_stiffness(dx, system.config.kappa)
        flux_el = -element_advection(dx, a).T
        dphi = np.array([-1.0 / dx, 1.0 / dx])
        supg_mass_el = np.zeros((2, 2))
        supg_adv_el = np.zeros((2, 2))
        for xi, w in zip(_QP, _QW):
            phi = np.array([1.0 - xi, xi])
            supg_mass_el += dx * w * tau * a * np.outer(dphi, phi)
            supg_adv_el += dx * w * tau * a * a * np.outer(dphi, dphi)
        for e in range(system.mesh.n_elements):
            sl = slice(e, e + 2)
            mass[sl, sl] += m_el
            mass_supg[sl, sl] += supg_mass_el
            stiff[sl, sl] += k_el + flux_el + supg_adv_el
        for i, nrm in ((0, -1.0), (m - 1, 1.0)):
            if a * nrm >= 0.0:
                stiff[i, i] += a * nrm
        self.mass, self.mass_dot, self.stiffness = mass, mass + mass_supg, stiff

    def iteration_matrix(self, c_dot, c_u):
        return c_dot * self.mass_dot + c_u * self.stiffness

    @staticmethod
    def project_initial(mesh, u0):
        m = mesh.n_elements + 1
        mass = np.zeros((m, m))
        rhs = np.zeros(m)
        m_el = element_mass(mesh.dx)
        x_quad = mesh.nodes[:-1, None] + mesh.dx * np.asarray(_QP)[None, :]
        u0_q = np.asarray(u0(x_quad), dtype=float)
        for e in range(mesh.n_elements):
            sl = slice(e, e + 2)
            mass[sl, sl] += m_el
            for q, (xi, w) in enumerate(zip(_QP, _QW)):
                phi = np.array([1.0 - xi, xi])
                rhs[sl] += mesh.dx * w * u0_q[e, q] * phi
        return np.linalg.solve(mass, rhs)


def assert_close(value, oracle, tol):
    value = np.asarray(value)
    assert value.shape == oracle.shape
    scale = max(1.0, np.max(np.abs(oracle)))
    assert np.max(np.abs(value - oracle)) <= tol * scale


class TestOperatorsMatchLoopOracle:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("stabilization", ["none", "supg"])
    @pytest.mark.parametrize("a", [-0.7, 0.0, 1.3])   # outflow at x=0, none, x=1
    def test_assembled_operators(self, n, stabilization, a):
        config = AdvDiffConfig(a=a, kappa=0.05, stabilization=stabilization)
        system = AdvDiffSystem(Mesh1D(n), config, dt=0.01)
        oracle = LoopOracle(system)
        for name in ("mass", "mass_dot", "stiffness"):
            assert isinstance(getattr(system, name), Tridiagonal)
            assert_close(getattr(system, name), getattr(oracle, name), 1e-15)
        u = RNG.normal(size=system.m)
        assert_close(system.iteration_matrix(0.8, 0.15, u, u, 0.3),
                     oracle.iteration_matrix(0.8, 0.15), 1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("u0", [bump, np.cos, lambda x: x ** 3 - x],
                             ids=["bump", "cos", "cubic"])
    def test_project_initial(self, n, u0):
        mesh = Mesh1D(n)
        assert_close(project_initial(mesh, u0),
                     LoopOracle.project_initial(mesh, u0), 1e-13)


def random_tridiagonal(m, kind, rng):
    """Random nonsymmetric tridiagonal matrix of one of `SOLVE_KINDS`.

    "zero-diagonal" forces a row swap at least at every other column, and is
    exactly singular for odd m.  "swap-every-column" has |sub| > 1 >= |diag|
    and a tiny superdiagonal, so the row carried down by each swap stays
    below 1 in magnitude and the subdiagonal entry is the pivot at every
    column, while the matrix stays well conditioned.
    """
    data = rng.normal(size=(3, m))
    if kind == "zero-diagonal":
        data[1] = 0.0
    elif kind == "swap-every-column":
        data[0] = 1e-3 * rng.uniform(-1.0, 1.0, m)
        data[1] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.999, 1.0, m)
        data[2] = rng.choice([-1.0, 1.0], m) * rng.uniform(1.001, 1.002, m)
    data[0, 0] = data[2, -1] = 0.0
    return Tridiagonal(data)


SOLVE_SIZES = [2, 3, 4, 7, 64, 1025]
SOLVE_KINDS = ["random", "zero-diagonal", "swap-every-column"]


class TestTridiagonal:
    def test_dense_layout(self):
        a = Tridiagonal([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 0.0]])
        assert np.array_equal(np.asarray(a), [[3.0, 1.0, 0.0],
                                              [6.0, 4.0, 2.0],
                                              [0.0, 7.0, 5.0]])
        assert a.nnz == 7

    @pytest.mark.parametrize("m", SOLVE_SIZES)
    @pytest.mark.parametrize("kind", SOLVE_KINDS)
    def test_matvec_matches_dense(self, m, kind):
        rng = np.random.default_rng(m)
        a = random_tridiagonal(m, kind, rng)
        dense, x = np.asarray(a), rng.normal(size=m)
        bound = 4.5e-16 * (np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(a @ x - dense @ x) <= bound)
        with pytest.raises(ValueError):
            a @ np.ones((m, 1))

    @pytest.mark.parametrize("m", SOLVE_SIZES)
    @pytest.mark.parametrize("kind", SOLVE_KINDS)
    def test_solve_is_backward_stable_and_matches_numpy(self, m, kind):
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            a = random_tridiagonal(m, kind, rng)
            dense, b = np.asarray(a), rng.normal(size=m)
            if kind == "zero-diagonal" and m % 2:
                continue                       # singular: see the test below
            x = a.solve(b)
            backward = np.max(np.abs(dense @ x - b)) / (
                np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(x))
                + np.max(np.abs(b)))
            assert backward <= 1e-14
            expected = np.linalg.solve(dense, b)
            cond = np.linalg.cond(dense, np.inf)
            assert (np.max(np.abs(x - expected))
                    <= 4.0 * cond * np.finfo(float).eps * np.max(np.abs(expected)))

    @pytest.mark.parametrize("case", ["zero-diagonal-odd", "zero-row",
                                      "zero-column", "zero"])
    @pytest.mark.parametrize("m", [3, 7, 1025])
    def test_singular_raises_like_numpy(self, case, m):
        rng = np.random.default_rng(200 + m)
        a = random_tridiagonal(m, "zero-diagonal" if case == "zero-diagonal-odd"
                               else "random", rng)
        k = m // 2
        if case == "zero-row":
            a.data[2, k - 1] = a.data[1, k] = a.data[0, k + 1] = 0.0
        elif case == "zero-column":
            a.data[:, k] = 0.0
        elif case == "zero":
            a.data[:] = 0.0
        b = rng.normal(size=m)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.asarray(a), b)
        with pytest.raises(np.linalg.LinAlgError):
            a.solve(b)


def test_package_imports_no_scipy():
    # a fresh interpreter's start-up is part of every run's cost
    code = ("import genalpha, genalpha.advdiff, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    src = str(Path(genalpha.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
