import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genalpha import (AdmissibilityError, ConfigurationError, GenAlphaParams,
                      NewtonSettings, StatePair, consistent_initial_rate,
                      integrate, params_from_rho_inf, step)
from genalpha.advdiff import AdvDiffConfig
from genalpha.audit import BalanceLedger
from genalpha.conslaw import (_QP, _QW, Burgers1D, ConservedSystem, Euler1D,
                              ModifiedNonconservativeSystem,
                              NonconservativeSystem, PeriodicFemSpace,
                              PressurePrimitiveMap, _field_values,
                              project_periodic)
from model_systems import (IdentityMap,
                           conslaw_stabilization_form as stabilization_form)

RNG = np.random.default_rng(42)
GAS = 1.4


def euler_primitive_fields(x):
    """Generic smooth periodic state: all primitive fields vary (amplitude 0.1)."""
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    vel = 0.1 * np.cos(2 * np.pi * x)
    pres = 1.0 + 0.1 * np.sin(4 * np.pi * x)
    return rho, vel, pres


def ic_conserved(x):
    rho, vel, pres = euler_primitive_fields(x)
    return np.array([rho, rho * vel, pres / (GAS - 1) + 0.5 * rho * vel ** 2])


def ic_primitive(x):
    rho, vel, pres = euler_primitive_fields(x)
    return np.array([pres, vel, pres / rho])  # T = p/(rho R) with R = 1


class TestSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicFemSpace(1)

    def test_unit_vectors_representable(self):
        space = PeriodicFemSpace(8)
        for j in range(3):
            coeffs = np.zeros(24)
            coeffs[j::3] = 1.0
            vals, derivs = _field_values(space, coeffs, 3)
            assert np.allclose(vals[:, :, j], 1.0, atol=1e-15)
            assert np.allclose(derivs, 0.0, atol=1e-15)


@pytest.mark.parametrize("build, value", [
    (lambda: AdvDiffConfig(kappa=np.inf), "inf"),
    (lambda: AdvDiffConfig(kappa=np.nan), "nan"),
    (lambda: AdvDiffConfig(a=np.nan), "nan"),
    (lambda: AdvDiffConfig(a=-np.inf), "-inf"),
    (lambda: Euler1D(np.inf), "inf"),
    (lambda: Euler1D(np.nan), "nan"),
    (lambda: Burgers1D(np.nan), "nan"),
    (lambda: Burgers1D(np.inf), "inf"),
    (lambda: PressurePrimitiveMap(np.inf), "inf"),
], ids=["advdiff-kappa-inf", "advdiff-kappa-nan", "advdiff-a-nan",
        "advdiff-a-neg-inf", "euler-gamma-inf", "euler-gamma-nan",
        "burgers-kappa-nan", "burgers-kappa-inf", "varmap-gamma-inf"])
def test_constructors_reject_nonfinite_data(build, value):
    with pytest.raises(ValueError, match=f"finite.*got {value}$"):
        build()


class TestModels:
    def test_burgers_flux(self):
        model = Burgers1D(kappa_visc=0.5)
        f = model.flux(np.array([2.0]), np.array([3.0]), 0.1, 0.0)
        assert f[0] == pytest.approx(2.0 - 1.5)

    def test_burgers_jacobian_fd(self):
        model = Burgers1D(kappa_visc=0.2)
        u, du = np.array([0.7]), np.array([-0.4])
        a_u, a_ux = model.flux_jacobian(u, du, 0.0, 0.0)
        eps = 1e-7
        fd_u = (model.flux(u + eps, du, 0, 0) - model.flux(u - eps, du, 0, 0)) / (2 * eps)
        fd_ux = (model.flux(u, du + eps, 0, 0) - model.flux(u, du - eps, 0, 0)) / (2 * eps)
        assert a_u[0, 0] == pytest.approx(fd_u[0], rel=1e-6)
        assert a_ux[0, 0] == pytest.approx(fd_ux[0], rel=1e-6)

    def test_euler_flux_jacobian_fd(self):
        model = Euler1D(GAS)
        u = np.array([1.1, 0.2, 2.4])
        a_u, _ = model.flux_jacobian(u, np.zeros(3), 0.0, 0.0)
        eps = 1e-7
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (model.flux(u + e, np.zeros(3), 0, 0)
                  - model.flux(u - e, np.zeros(3), 0, 0)) / (2 * eps)
            assert np.allclose(a_u[:, k], fd, rtol=1e-6, atol=1e-8)

    def test_euler_admissibility_names_location(self):
        model = Euler1D(GAS)
        with pytest.raises(AdmissibilityError, match="x=0.25"):
            model.flux(np.array([-1.0, 0.0, 1.0]), np.zeros(3), 0.25, 0.0)
        with pytest.raises(AdmissibilityError, match="pressure"):
            model.flux(np.array([1.0, 10.0, 1.0]), np.zeros(3), 0.5, 0.0)


class TestPressurePrimitiveMap:
    def test_reference_state(self):
        vm = PressurePrimitiveMap(GAS)
        assert np.allclose(vm.to_conserved(np.array([1.0, 0.0, 1.0])),
                           [1.0, 0.0, 2.5], atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-0.5, 0.5), st.floats(0.5, 2.0))
    def test_jacobian_matches_fd(self, pres, vel, temp):
        vm = PressurePrimitiveMap(GAS)
        v = np.array([pres, vel, temp])
        eps = 1e-6
        fd = np.column_stack([
            (vm.to_conserved(v + eps * e) - vm.to_conserved(v - eps * e)) / (2 * eps)
            for e in np.eye(3)])
        j = vm.jacobian(v)
        assert np.max(np.abs(j - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_hessian_matches_fd_of_jacobian(self):
        vm = PressurePrimitiveMap(GAS)
        v = np.array([1.3, -0.2, 0.8])
        eps = 1e-6
        fd = np.stack([(vm.jacobian(v + eps * e) - vm.jacobian(v - eps * e))
                       / (2 * eps) for e in np.eye(3)], axis=2)
        assert np.max(np.abs(vm.hessian(v) - fd)) <= 1e-6

    def test_round_trip_by_newton_inversion(self):
        # invert U(V) numerically as an independent oracle
        vm = PressurePrimitiveMap(GAS)
        v_true = np.array([1.05, 0.1, 0.95])
        u_target = vm.to_conserved(v_true)
        v = np.array([1.0, 0.0, 1.0])
        for _ in range(50):
            r = vm.to_conserved(v) - u_target
            if np.linalg.norm(r, np.inf) <= 1e-14:
                break
            v = v - np.linalg.solve(vm.jacobian(v), r)
        assert np.max(np.abs(v - v_true)) <= 1e-10

    def test_admissibility(self):
        vm = PressurePrimitiveMap(GAS)
        with pytest.raises(AdmissibilityError):
            vm.to_conserved(np.array([1.0, 0.0, -0.1]))
        with pytest.raises(ValueError):
            PressurePrimitiveMap(1.0)


class TestProjection:
    def test_constants_reproduced(self):
        space = PeriodicFemSpace(12)
        coeffs = project_periodic(space, lambda x: np.array([2.0, -1.0, 0.5]), 3)
        assert np.allclose(coeffs.reshape(12, 3), [2.0, -1.0, 0.5], atol=1e-13)


class TestConservedSystem:
    def test_euler_constant_state_steady(self):
        space = PeriodicFemSpace(8)
        system = ConservedSystem(space, Euler1D(GAS))
        u = system.project(lambda x: np.array([1.0, 0.0, 2.5]))
        r = system.residual(np.zeros_like(u), u, 0.0)
        assert np.max(np.abs(r)) <= 1e-13

    def test_burgers_flux_total_vanishes_periodically(self):
        space = PeriodicFemSpace(32)
        system = ConservedSystem(space, Burgers1D())
        nodes = np.arange(32) / 32.0
        u = np.sin(2 * np.pi * nodes)
        r = system.residual(np.zeros_like(u), u, 0.0)
        assert abs(np.sum(r)) <= 1e-13

    @pytest.mark.parametrize("model, ic", [
        (Burgers1D(), lambda x: np.array([0.3 * np.sin(2 * np.pi * x)])),
        (Euler1D(GAS), ic_conserved),
    ])
    def test_iteration_matrix_matches_fd(self, model, ic):
        space = PeriodicFemSpace(8)
        system = ConservedSystem(space, model)
        u = system.project(ic)
        u_dot = 0.1 * RNG.normal(size=u.size)
        d = RNG.normal(size=u.size)
        c_dot, c_u, t = 0.8, 0.15, 0.1
        eps = 1e-6 * max(1.0, np.max(np.abs(u)))
        fd = (system.residual(u_dot + eps * c_dot * d, u + eps * c_u * d, t)
              - system.residual(u_dot - eps * c_dot * d, u - eps * c_u * d, t)
              ) / (2 * eps)
        action = system.iteration_matrix(c_dot, c_u, u_dot, u, t) @ d
        assert np.max(np.abs(action - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_burgers_step_newton_budget_and_drift(self):
        space = PeriodicFemSpace(32)
        system = ConservedSystem(space, Burgers1D())
        u0 = system.project(lambda x: np.array([0.1 * np.sin(2 * np.pi * x)]))
        params = params_from_rho_inf(0.5)
        budget = NewtonSettings(max_iters=5)
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
        ledger = BalanceLedger()
        for _ in range(20):
            nxt = step(system, state, 1e-3, params, budget)  # <= 5 iterations
            ledger.record_step(system, state, nxt, params, 1e-3)
            state = nxt
        assert np.max(np.abs(ledger.drift())) <= 1e-12


class TestTotals:
    def test_burgers_constant(self):
        space = PeriodicFemSpace(10)
        total = ConservedSystem(space, Burgers1D()).total(np.full(10, 0.7))
        assert total[0] == pytest.approx(0.7, abs=1e-14)

    def test_euler_constant(self):
        space = PeriodicFemSpace(10)
        system = ConservedSystem(space, Euler1D(GAS))
        coeffs = system.project(lambda x: np.array([1.0, 0.0, 2.5]))
        assert np.allclose(system.total(coeffs),
                           [1.0, 0.0, 2.5], atol=1e-13)

    def test_burgers_sine_total_vanishes(self):
        space = PeriodicFemSpace(64)
        system = ConservedSystem(space, Burgers1D())
        coeffs = system.project(lambda x: np.array([np.sin(2 * np.pi * x)]))
        assert abs(system.total(coeffs)[0]) <= 1e-12

    def test_nonconserved_representation_constant(self):
        space = PeriodicFemSpace(10)
        system = NonconservativeSystem(space, Euler1D(GAS),
                                       PressurePrimitiveMap(GAS))
        coeffs = project_periodic(space, lambda x: np.array([1.0, 0.0, 1.0]), 3)
        total = system.total(coeffs)
        assert np.allclose(total, [1.0, 0.0, 2.5], atol=1e-13)


class TestStabilization:
    def test_annihilates_unit_vectors(self):
        space = PeriodicFemSpace(16)
        system = ConservedSystem(space, Euler1D(GAS),
                                 stabilization="supg-like")
        for j in range(3):
            e_j = np.zeros(48)
            e_j[j::3] = 1.0
            for _ in range(100):
                v = RNG.normal(size=48)
                assert stabilization_form(system, v, e_j) == 0.0

    def test_iteration_matrix_with_stabilization_matches_fd(self):
        space = PeriodicFemSpace(8)
        system = ConservedSystem(space, Burgers1D(),
                                 stabilization="supg-like")
        u = system.project(lambda x: np.array([0.2 * np.sin(2 * np.pi * x)]))
        u_dot, d = 0.1 * RNG.normal(size=8), RNG.normal(size=8)
        eps = 1e-6
        fd = (system.residual(u_dot + eps * 0.5 * d, u + eps * 0.4 * d, 0.0)
              - system.residual(u_dot - eps * 0.5 * d, u - eps * 0.4 * d, 0.0)
              ) / (2 * eps)
        action = system.iteration_matrix(0.5, 0.4, u_dot, u, 0.0) @ d
        assert np.max(np.abs(action - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


class SourceEuler(Euler1D):
    """Euler with a source -0.1 U + 0.3 U_x, so the source Jacobian has a
    value and an x-derivative part."""

    def source(self, u, du_dx, x, t):
        return -0.1 * u + 0.3 * du_dx

    def source_jacobian(self, u, du_dx, x, t):
        eye = np.broadcast_to(np.eye(3), np.shape(u) + (3,))
        return -0.1 * eye, 0.3 * eye


NONCONSERVATIVE_MODELS = pytest.mark.parametrize(
    "model", [Euler1D(GAS), SourceEuler(GAS)], ids=["euler", "euler-source"])


class TestNonconservative:
    def setup_method(self):
        self.space = PeriodicFemSpace(8)
        self.vm = PressurePrimitiveMap(GAS)
        self.model = Euler1D(GAS)

    def test_constant_state_steady_both_modes(self):
        v_const = lambda x: np.array([1.0, 0.0, 1.0])
        params = params_from_rho_inf(0.5)
        std = NonconservativeSystem(self.space, self.model, self.vm)
        v0 = std.project(v_const)
        r = std.residual(np.zeros_like(v0), v0, 0.0)
        assert np.max(np.abs(r)) <= 1e-13
        mod = ModifiedNonconservativeSystem(self.space, self.model, self.vm)
        state = StatePair(v0, np.zeros_like(v0), 0.0)
        out = step(mod, state, 1e-3, params)
        assert np.max(np.abs(out.u - v0)) <= 1e-12

    def test_modified_initial_rate_is_the_standard_rate(self):
        std = NonconservativeSystem(self.space, self.model, self.vm)
        mod = ModifiedNonconservativeSystem(self.space, self.model, self.vm)
        v0 = std.project(ic_primitive)
        assert (consistent_initial_rate(mod, v0, 0.0).tobytes()
                == consistent_initial_rate(std, v0, 0.0).tobytes())

    @NONCONSERVATIVE_MODELS
    def test_standard_iteration_matrix_matches_fd(self, model):
        system = NonconservativeSystem(self.space, model, self.vm)
        v = system.project(ic_primitive)
        v_dot = 0.1 * RNG.normal(size=v.size)
        d = RNG.normal(size=v.size)
        c_dot, c_u = 0.9, 0.2
        eps = 1e-7
        fd = (system.residual(v_dot + eps * c_dot * d, v + eps * c_u * d, 0.0)
              - system.residual(v_dot - eps * c_dot * d, v - eps * c_u * d, 0.0)
              ) / (2 * eps)
        action = system.iteration_matrix(c_dot, c_u, v_dot, v, 0.0) @ d
        assert np.max(np.abs(action - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    @NONCONSERVATIVE_MODELS
    def test_modified_jacobian_matches_fd(self, model):
        system = ModifiedNonconservativeSystem(self.space, model, self.vm)
        params = params_from_rho_inf(0.5)
        v0 = system.project(ic_primitive)
        vd0 = 0.1 * RNG.normal(size=v0.size)
        state = StatePair(v0, vd0, 0.0)
        w = 0.1 * RNG.normal(size=v0.size)
        d = RNG.normal(size=v0.size)
        dt = 1e-2
        eps = 1e-7
        residual, jacobian = system.step_problem(state, dt, params)
        fd = (residual(w + eps * d) - residual(w - eps * d)) / (2 * eps)
        action = jacobian(w) @ d
        assert np.max(np.abs(action - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_alpha_f_half_reduces_to_plain_difference_quotient(self):
        # at alpha_f = 1/2 the shift vanishes: temporal term is
        # (U(V_{n+1}) - U(V_n))/dt tested against W
        system = ModifiedNonconservativeSystem(self.space, self.model, self.vm)
        params = params_from_rho_inf(1.0)  # alpha_f = gamma = 1/2
        v0 = system.project(ic_primitive)
        vd0 = 0.05 * RNG.normal(size=v0.size)
        state = StatePair(v0, vd0, 0.0)
        w = 0.05 * RNG.normal(size=v0.size)
        dt = 1e-2
        res = system.step_problem(state, dt, params)[0](w)

        v1 = v0 + dt * (0.5 * vd0 + 0.5 * w)
        v_af = 0.5 * (v0 + v1)
        vals0, _ = _field_values(self.space, v0, 3)
        vals1, _ = _field_values(self.space, v1, 3)
        vaf, dvaf = _field_values(self.space, v_af, 3)
        from genalpha.conslaw import _QP, _QW
        n, dx = self.space.n_elements, self.space.dx
        expected = np.zeros((n, 3))
        for e in range(n):
            left, right = e, (e + 1) % n
            for q, (xi, wq) in enumerate(zip(_QP, _QW)):
                x = system.x_quad[e, q]
                du = (self.vm.to_conserved(vals1[e, q])
                      - self.vm.to_conserved(vals0[e, q])) / dt
                a0 = self.vm.jacobian(vaf[e, q])
                f = self.model.flux(self.vm.to_conserved(vaf[e, q]),
                                    a0 @ dvaf[e, q], x, state.t + 0.5 * dt)
                expected[left] += dx * wq * du * (1 - xi) + wq * f
                expected[right] += dx * wq * du * xi - wq * f
        assert np.max(np.abs(res - expected.reshape(-1))) <= 1e-13

    def test_modified_refuses_non_second_order(self):
        system = ModifiedNonconservativeSystem(self.space, self.model, self.vm)
        bad = GenAlphaParams(0.5, 0.5, 1.0)
        v0 = system.project(lambda x: np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            step(system, StatePair(v0, np.zeros_like(v0), 0.0), 1e-3, bad)

    def test_run_modified_refuses_nonuniform_dt(self):
        system = ModifiedNonconservativeSystem(self.space, self.model, self.vm)
        v0 = system.project(lambda x: np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            integrate(system, StatePair(v0, np.zeros_like(v0), 0.0),
                      [1e-3, 2e-3], params_from_rho_inf(0.5))


class TestDriftComparison:
    def _run(self, system_class, ic, n_steps, dt):
        space = PeriodicFemSpace(32)
        vm = PressurePrimitiveMap(GAS)
        system = system_class(space, Euler1D(GAS), vm)
        v0 = system.project(ic)
        params = params_from_rho_inf(0.5)
        state = StatePair(v0, consistent_initial_rate(system, v0, 0.0), 0.0)
        ledger = BalanceLedger()
        integrate(system, state, [dt] * n_steps, params, ledger=ledger)
        return ledger

    def test_standard_drifts_modified_does_not(self):
        std = self._run(NonconservativeSystem, ic_primitive, 20, 2e-3)
        mod = self._run(ModifiedNonconservativeSystem, ic_primitive, 20, 2e-3)
        assert np.max(np.abs(std.drift())) > 1e-10
        assert not std.certified
        assert np.max(np.abs(mod.drift())) <= 1e-12
        assert mod.certified

    def test_contact_flow_degeneracy(self):
        # with uniform velocity and pressure the discrete dynamics stays on the
        # contact manifold and the standard scheme's drift collapses far below
        # its generic O(dt^3)-per-step size; documents why the drift
        # demonstration must use data with all fields varying
        def contact(x):
            rho = 1.0 + 0.1 * np.sin(2 * np.pi * x)
            return np.array([1.0, 0.1, 1.0 / rho])

        std = self._run(NonconservativeSystem, contact, 20, 1e-3)
        assert np.max(np.abs(std.drift())) <= 1e-12


class LoopOracle:
    """The per-quadrature-point loops that the batched kernels replaced.

    Test-only reference: every model and variable-map call sees one point,
    and every contribution is added to its node as the loop meets it.
    """

    def __init__(self, system):
        self.system = system
        self.space, self.p = system.space, system.p
        self.model = system.model
        self.varmap = getattr(system, "varmap", None)

    def _fields(self, coeffs):
        return _field_values(self.space, coeffs, self.p)

    def _points(self):
        n = self.space.n_elements
        for e in range(n):
            for q, (xi, w) in enumerate(zip(_QP, _QW)):
                yield e, (e, (e + 1) % n), q, xi, w, self.system.x_quad[e, q]

    def _integrate(self, point_fn):
        total = np.zeros(self.p)
        for e, _, q, _, w, x in self._points():
            total += self.space.dx * w * point_fn(e, q, x)
        return total

    def _add_rows(self, res, nodes, xi, w, grad, f):
        dx = self.space.dx
        res[nodes[0]] += dx * w * grad * (1.0 - xi) + w * f
        res[nodes[1]] += dx * w * grad * xi - w * f

    def _add_blocks(self, out, nodes, xi, w, block_fn):
        p, dx = self.p, self.space.dx
        phi, dphi = (1.0 - xi, xi), (-1.0 / dx, 1.0 / dx)
        for la, node_a in enumerate(nodes):
            for lb, node_b in enumerate(nodes):
                out[node_a * p:node_a * p + p, node_b * p:node_b * p + p] += \
                    dx * w * block_fn(phi[la], phi[lb], dphi[la], dphi[lb])

    # conservation variables

    def conserved_residual(self, u_dot, u, t):
        vals, derivs = self._fields(u)
        dot_vals, _ = self._fields(u_dot)
        res = np.zeros((self.space.n_elements, self.p))
        for e, nodes, q, xi, w, x in self._points():
            f = self.model.flux(vals[e, q], derivs[e, q], x, t)
            s = self.model.source(vals[e, q], derivs[e, q], x, t)
            if self.system.stab != 0.0:
                f = f - self.system.stab * derivs[e, q]
            self._add_rows(res, nodes, xi, w, dot_vals[e, q] - s, f)
        return res.reshape(-1)

    def conserved_matrix(self, c_dot, c_u, u_dot, u, t):
        vals, derivs = self._fields(u)
        out = np.zeros((self.system.m, self.system.m))
        eye, stab = np.eye(self.p), self.system.stab
        for e, nodes, q, xi, w, x in self._points():
            a_u, a_ux = self.model.flux_jacobian(vals[e, q], derivs[e, q], x, t)
            s_u, s_ux = self.model.source_jacobian(vals[e, q], derivs[e, q], x, t)
            self._add_blocks(out, nodes, xi, w, lambda pa, pb, da, db: (
                c_dot * pa * pb * eye
                + c_u * (-da * (a_u * pb + a_ux * db - stab * db * eye)
                         - pa * (s_u * pb + s_ux * db))))
        return out

    def conserved_total(self, coeffs):
        vals, _ = self._fields(coeffs)
        return self._integrate(lambda e, q, x: vals[e, q])

    def conserved_shifted_total(self, state, dt, alpha_f):
        return self.conserved_total(state.u + (alpha_f - 0.5) * dt * state.u_dot)

    def conserved_source(self, u_af, t_af):
        vals, derivs = self._fields(u_af)
        return self._integrate(
            lambda e, q, x: self.model.source(vals[e, q], derivs[e, q], x, t_af))

    # nonconservation variables

    def _model_blocks(self, v, dv, x, t):
        """The V-derivative value and x-derivative blocks of the flux and of
        the source, by the chain rule through U(V) and U_x = (dU/dV) V_x."""
        a0 = self.varmap.jacobian(v, x)
        u = self.varmap.to_conserved(v, x)
        du = a0 @ dv
        a_u, a_ux = self.model.flux_jacobian(u, du, x, t)
        s_u, s_ux = self.model.source_jacobian(u, du, x, t)
        h_dv = np.einsum("jkl,k->jl", self.varmap.hessian(v, x), dv)
        return (a_u @ a0 + a_ux @ h_dv, a_ux @ a0,
                s_u @ a0 + s_ux @ h_dv, s_ux @ a0)

    def _shifted(self, v, v_dot, shift, x):
        return (self.varmap.to_conserved(v, x)
                + shift * (self.varmap.jacobian(v, x) @ v_dot))

    def standard_residual(self, v_dot, v, t):
        vals, derivs = self._fields(v)
        dot_vals, _ = self._fields(v_dot)
        res = np.zeros((self.space.n_elements, self.p))
        for e, nodes, q, xi, w, x in self._points():
            a0 = self.varmap.jacobian(vals[e, q], x)
            u = self.varmap.to_conserved(vals[e, q], x)
            du = a0 @ derivs[e, q]
            f = self.model.flux(u, du, x, t)
            s = self.model.source(u, du, x, t)
            self._add_rows(res, nodes, xi, w, a0 @ dot_vals[e, q] - s, f)
        return res.reshape(-1)

    def standard_matrix(self, c_dot, c_u, v_dot, v, t):
        vals, derivs = self._fields(v)
        dot_vals, _ = self._fields(v_dot)
        out = np.zeros((self.system.m, self.system.m))
        for e, nodes, q, xi, w, x in self._points():
            a0 = self.varmap.jacobian(vals[e, q], x)
            h_vdot = np.einsum("jkl,k->jl", self.varmap.hessian(vals[e, q], x),
                               dot_vals[e, q])
            df_val, df_der, ds_val, ds_der = self._model_blocks(
                vals[e, q], derivs[e, q], x, t)
            self._add_blocks(out, nodes, xi, w, lambda pa, pb, da, db: (
                c_dot * pa * pb * a0 + c_u * pa * pb * h_vdot
                - c_u * da * (df_val * pb + df_der * db)
                - c_u * pa * (ds_val * pb + ds_der * db)))
        return out

    def _step_fields(self, w_unknown, state_n, dt, params):
        af, g = params.alpha_f, params.gamma
        v_np1 = state_n.u + dt * (1.0 - g) * state_n.u_dot + dt * g * w_unknown
        return v_np1, (1.0 - af) * state_n.u + af * v_np1

    def step_residual(self, w_unknown, state_n, dt, params):
        shift = (params.alpha_f - 0.5) * dt
        t_af = state_n.t + params.alpha_f * dt
        v_np1, v_af = self._step_fields(w_unknown, state_n, dt, params)
        vn, _ = self._fields(state_n.u)
        vdn, _ = self._fields(state_n.u_dot)
        vp, _ = self._fields(v_np1)
        wv, _ = self._fields(w_unknown)
        vaf, dvaf = self._fields(v_af)
        res = np.zeros((self.space.n_elements, self.p))
        for e, nodes, q, xi, w, x in self._points():
            uhat_minus = self._shifted(vn[e, q], vdn[e, q], shift, x)
            uhat_plus = self._shifted(vp[e, q], wv[e, q], shift, x)
            a0 = self.varmap.jacobian(vaf[e, q], x)
            u = self.varmap.to_conserved(vaf[e, q], x)
            du = a0 @ dvaf[e, q]
            f = self.model.flux(u, du, x, t_af)
            s = self.model.source(u, du, x, t_af)
            self._add_rows(res, nodes, xi, w, (uhat_plus - uhat_minus) / dt - s, f)
        return res.reshape(-1)

    def step_jacobian(self, w_unknown, state_n, dt, params):
        af, g = params.alpha_f, params.gamma
        shift, t_af, c_u = af - 0.5, state_n.t + af * dt, af * g * dt
        v_np1, v_af = self._step_fields(w_unknown, state_n, dt, params)
        vp, _ = self._fields(v_np1)
        wv, _ = self._fields(w_unknown)
        vaf, dvaf = self._fields(v_af)
        out = np.zeros((self.system.m, self.system.m))
        for e, nodes, q, xi, w, x in self._points():
            h_w = np.einsum("jkl,k->jl", self.varmap.hessian(vp[e, q], x), wv[e, q])
            temporal = ((g + shift) * self.varmap.jacobian(vp[e, q], x)
                        + shift * g * dt * h_w)
            df_val, df_der, ds_val, ds_der = self._model_blocks(
                vaf[e, q], dvaf[e, q], x, t_af)
            self._add_blocks(out, nodes, xi, w, lambda pa, pb, da, db: (
                pa * pb * temporal - c_u * da * (df_val * pb + df_der * db)
                - c_u * pa * (ds_val * pb + ds_der * db)))
        return out

    def primitive_total(self, coeffs):
        vals, _ = self._fields(coeffs)
        return self._integrate(lambda e, q, x: self.varmap.to_conserved(vals[e, q], x))

    def primitive_shifted_total(self, state, dt, alpha_f):
        vals, _ = self._fields(state.u)
        dot_vals, _ = self._fields(state.u_dot)
        shift = (alpha_f - 0.5) * dt
        return self._integrate(
            lambda e, q, x: self._shifted(vals[e, q], dot_vals[e, q], shift, x))

    def primitive_source(self, v_af, t_af):
        vals, derivs = self._fields(v_af)

        def point(e, q, x):
            a0 = self.varmap.jacobian(vals[e, q], x)
            return self.model.source(self.varmap.to_conserved(vals[e, q], x),
                                     a0 @ derivs[e, q], x, t_af)

        return self._integrate(point)


def _burgers_source(x, t):
    return np.sin(2 * np.pi * x) * np.cos(3.0 * t) + 0.25


class GradientSourceBurgers(Burgers1D):
    """Burgers with a source 0.3 u_x, so the source Jacobian has an x-derivative part."""

    def source(self, u, du_dx, x, t):
        return super().source(u, du_dx, x, t) + 0.3 * du_dx

    def source_jacobian(self, u, du_dx, x, t):
        s_u, s_ux = super().source_jacobian(u, du_dx, x, t)
        return s_u, s_ux + 0.3


ORACLE_CASES = {
    "burgers-viscous-source": (
        lambda space: ConservedSystem(
            space, Burgers1D(kappa_visc=0.05, s=_burgers_source)), "conserved"),
    "burgers-gradient-source": (
        lambda space: ConservedSystem(space, GradientSourceBurgers(0.05)),
        "conserved"),
    "euler": (lambda space: ConservedSystem(space, Euler1D(GAS)),
              "conserved"),
    "euler-supg": (lambda space: ConservedSystem(space, Euler1D(GAS),
                                                 "supg-like"), "conserved"),
    "primitive-standard": (lambda space: NonconservativeSystem(
        space, Euler1D(GAS), PressurePrimitiveMap(GAS)), "primitive"),
    "primitive-modified": (lambda space: ModifiedNonconservativeSystem(
        space, Euler1D(GAS), PressurePrimitiveMap(GAS)), "primitive"),
    "primitive-standard-source": (lambda space: NonconservativeSystem(
        space, SourceEuler(GAS), PressurePrimitiveMap(GAS)), "primitive"),
    "primitive-modified-source": (lambda space: ModifiedNonconservativeSystem(
        space, SourceEuler(GAS), PressurePrimitiveMap(GAS)), "primitive"),
}


def random_admissible(system, kind, rng):
    """Random nodal state with density, pressure (and T) in [0.5, 1.5]."""
    n = system.space.n_elements
    if system.p == 1:
        return rng.uniform(-1.0, 1.0, n)
    pres, vel = rng.uniform(0.5, 1.5, n), rng.uniform(-0.5, 0.5, n)
    other = rng.uniform(0.5, 1.5, n)  # density or temperature
    if kind == "primitive":
        return np.column_stack([pres, vel, other]).reshape(-1)
    return np.column_stack([other, other * vel, pres / (GAS - 1.0)
                            + 0.5 * other * vel ** 2]).reshape(-1)


def assert_close(batched, oracle):
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(np.asarray(batched) - oracle)) <= 1e-13 * scale


class TestBatchedKernelsMatchLoopOracle:
    @pytest.mark.parametrize("n", [2, 7, 64])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_kernels(self, case, n):
        build, kind = ORACLE_CASES[case]
        rng = np.random.default_rng(1000 + n)
        system = build(PeriodicFemSpace(n))
        oracle = LoopOracle(system)
        u = random_admissible(system, kind, rng)
        u_dot = 0.1 * rng.normal(size=u.size)
        t, dt = 0.3, 1e-2
        params = params_from_rho_inf(0.5)
        state = StatePair(u, u_dot, t)
        total, shifted, source = (
            (oracle.conserved_total, oracle.conserved_shifted_total,
             oracle.conserved_source) if kind == "conserved" else
            (oracle.primitive_total, oracle.primitive_shifted_total,
             oracle.primitive_source))
        assert_close(system.total(u), total(u))
        assert_close(system.shifted_balance_total(state, dt, params.alpha_f),
                     shifted(state, dt, params.alpha_f))
        assert_close(system.balance_source(u, t), source(u, t))
        if isinstance(system, ModifiedNonconservativeSystem):
            w = 0.1 * rng.normal(size=u.size)
            residual, jacobian = system.step_problem(state, dt, params)
            assert_close(residual(w), oracle.step_residual(w, state, dt, params))
            assert_close(jacobian(w), oracle.step_jacobian(w, state, dt, params))
            return
        residual, matrix = (
            (oracle.conserved_residual, oracle.conserved_matrix)
            if kind == "conserved" else
            (oracle.standard_residual, oracle.standard_matrix))
        assert_close(system.residual(u_dot, u, t), residual(u_dot, u, t))
        assert_close(system.iteration_matrix(0.8, 0.15, u_dot, u, t),
                     matrix(0.8, 0.15, u_dot, u, t))

    def test_burgers_source_enters_residual_and_balance(self):
        # guards the oracle comparison above against a source that is ignored
        space = PeriodicFemSpace(16)
        plain = ConservedSystem(space, Burgers1D(kappa_visc=0.05))
        forced = ConservedSystem(
            space, Burgers1D(kappa_visc=0.05, s=_burgers_source))
        u = np.zeros(16)
        assert forced.balance_source(u, 0.0)[0] == pytest.approx(0.25, abs=1e-14)
        assert np.max(np.abs(plain.residual(u, u, 0.0)
                             - forced.residual(u, u, 0.0))) > 1e-3


@pytest.mark.parametrize("n", [2, 7, 64])
@pytest.mark.parametrize("case", ["burgers-viscous-source",
                                  "burgers-gradient-source", "euler"])
def test_identity_map_is_the_conserved_system(case, n):
    # the V-variable kernels under U(V) = V give the conserved kernels' bits;
    # the shifted total integrates U + shift*U̇ pointwise, not the shifted
    # coefficients, so it agrees to rounding
    build, kind = ORACLE_CASES[case]
    rng = np.random.default_rng(2000 + n)
    conserved = build(PeriodicFemSpace(n))
    mapped = NonconservativeSystem(conserved.space, conserved.model,
                                   IdentityMap(conserved.p))
    u = random_admissible(conserved, kind, rng)
    u_dot = 0.1 * rng.normal(size=u.size)
    t, dt, alpha_f = 0.3, 1e-2, params_from_rho_inf(0.5).alpha_f

    def outputs(system):
        return (system.residual(u_dot, u, t),
                system.iteration_matrix(0.8, 0.15, u_dot, u, t))

    for got, want in zip(outputs(mapped), outputs(conserved)):
        assert got.tobytes() == want.tobytes()
    state = StatePair(u, u_dot, t)
    for total in (lambda s: s.total(u),
                  lambda s: s.shifted_balance_total(state, dt, alpha_f),
                  lambda s: s.balance_source(u, t)):
        want = total(conserved)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(total(mapped) - want)) <= 1e-15 * scale


def _one_bad_element(kind, n, k):
    """Nodal state whose only inadmissible quadrature point is the first
    Gauss point of element k: node k is bad, node k - 1 outweighs it."""
    good = np.array([1.0, 0.0, 2.5] if kind == "conserved" else [1.0, 0.0, 1.0])
    bad_index = 0 if kind == "conserved" else 2  # density or temperature
    nodes = np.tile(good, (n, 1))
    nodes[k, bad_index] = -0.5
    nodes[k - 1, bad_index] = 5.0
    return nodes.reshape(-1)


class TestBatchedAdmissibility:
    N, K = 8, 3

    def _expect_same_error(self, batched, oracle, system):
        with pytest.raises(AdmissibilityError) as got:
            batched()
        with pytest.raises(AdmissibilityError) as want:
            oracle()
        assert str(got.value) == str(want.value)
        assert f"x={system.x_quad[self.K, 0]}" in str(got.value)

    def test_state_has_one_bad_element(self):
        space = PeriodicFemSpace(self.N)
        for kind, col in (("conserved", 0), ("primitive", 2)):
            vals, _ = _field_values(space, _one_bad_element(kind, self.N, self.K), 3)
            bad = np.argwhere(vals[:, :, col] <= 0.0)
            assert bad.tolist() == [[self.K, 0]]

    def test_conserved_residual(self):
        system = ConservedSystem(PeriodicFemSpace(self.N), Euler1D(GAS))
        u = _one_bad_element("conserved", self.N, self.K)
        zero = np.zeros_like(u)
        self._expect_same_error(
            lambda: system.residual(zero, u, 0.0),
            lambda: LoopOracle(system).conserved_residual(zero, u, 0.0), system)

    def test_standard_iteration_matrix(self):
        system = NonconservativeSystem(
            PeriodicFemSpace(self.N), Euler1D(GAS), PressurePrimitiveMap(GAS))
        v = _one_bad_element("primitive", self.N, self.K)
        zero = np.zeros_like(v)
        self._expect_same_error(
            lambda: system.iteration_matrix(1.0, 0.1, zero, v, 0.0),
            lambda: LoopOracle(system).standard_matrix(1.0, 0.1, zero, v, 0.0),
            system)

    def test_modified_step_residual(self):
        system = ModifiedNonconservativeSystem(
            PeriodicFemSpace(self.N), Euler1D(GAS), PressurePrimitiveMap(GAS))
        v = _one_bad_element("primitive", self.N, self.K)
        # V_n, V_{n+1} and V_{n+af} differ, so the message shows which
        # of them the first bad point names
        state = StatePair(v, np.full_like(v, 0.5), 0.0)
        params = params_from_rho_inf(0.5)
        w = np.full_like(v, 2.0)
        self._expect_same_error(
            lambda: system.step_problem(state, 1e-3, params)[0](w),
            lambda: LoopOracle(system).step_residual(w, state, 1e-3, params),
            system)


def add_at_assemble(space, t_val, f_val, f_der, t_der):
    """`assemble_matrix` with its element blocks scattered by np.add.at: the
    reference for its sliced scatter."""
    n, dx = space.n_elements, space.dx
    phi = np.stack([1.0 - np.asarray(_QP), np.asarray(_QP)], axis=1)
    dphi = np.array([-1.0, 1.0]) / dx
    temporal = (np.einsum("qb,eqij->eqbij", phi, t_val)
                + np.einsum("b,eqij->eqbij", dphi, t_der))
    flux = (np.einsum("qb,eqij->eqbij", phi, f_val)
            + np.einsum("b,eqij->eqbij", dphi, f_der))
    local = dx * (np.einsum("q,qa,eqbij->eabij", np.asarray(_QW), phi, temporal)
                  - np.einsum("q,a,eqbij->eabij", np.asarray(_QW), dphi, flux))
    e = np.arange(n)
    nodes = np.stack([e, (e + 1) % n], axis=1)
    p = t_val.shape[-1]
    out = np.zeros((n, n, p, p))
    np.add.at(out, (nodes[:, :, None], nodes[:, None, :]), local)
    return out.transpose(0, 2, 1, 3).reshape(n * p, n * p)


class TestAssembleMatrix:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_matches_add_at_scatter_bitwise(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        space = PeriodicFemSpace(n)
        blocks = [rng.normal(size=(n, 3, p, p)) for _ in range(4)]
        for block in blocks:
            block[n // 2] = 0.0  # an element whose blocks are all zero
        got = space.assemble_matrix(*blocks[:3], t_der=blocks[3])
        want = add_at_assemble(space, *blocks)
        assert got.shape == (n * p, n * p)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_out_matches_add_at_scatter_bitwise(self, n, p):
        # every entry of `out` is written, whatever it held before
        rng = np.random.default_rng(n * 10 + p + 5)
        space = PeriodicFemSpace(n)
        full = (n, 3, p, p)
        cases = [
            # the conserved system's c_dot*eye, a (p, p) block
            (0.8 * np.eye(p), rng.normal(size=full), rng.normal(size=full),
             rng.normal(size=full)),
            # project_periodic's mass matrix: scalar 0.0 and (n, 3, 1, 1)
            (np.ones((n, 3, 1, 1)), 0.0, 0.0, None),
            tuple(rng.normal(size=full) for _ in range(4)),
        ]
        for t_val, f_val, f_der, t_der in cases:
            shape = np.broadcast_shapes(np.shape(t_val), np.shape(f_val),
                                        np.shape(f_der), (n, 3, 1, 1))
            out = np.full((n * shape[-1],) * 2, np.nan)
            got = space.assemble_matrix(t_val, f_val, f_der, t_der=t_der, out=out)
            want = add_at_assemble(
                space, *(np.broadcast_to(b, shape) for b in
                         (t_val, f_val, f_der, 0.0 if t_der is None else t_der)))
            assert got is out
            assert got.tobytes() == want.tobytes()


class _CountingMap(PressurePrimitiveMap):
    """Records the points each conserved-state and Jacobian call sees."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = {"to_conserved": [], "jacobian": []}

    def _to_conserved(self, v):
        self.seen["to_conserved"].append(np.array(v))
        return super()._to_conserved(v)

    def _jacobian(self, v):
        self.seen["jacobian"].append(np.array(v))
        return super()._jacobian(v)


class _CountingModified(ModifiedNonconservativeSystem):
    residuals = 0

    def step_residual(self, *args):
        self.residuals += 1
        return super().step_residual(*args)


class TestModifiedStepProblem:
    def test_start_state_work_done_once_per_step(self):
        space = PeriodicFemSpace(16)
        varmap = _CountingMap(GAS)
        system = _CountingModified(space, Euler1D(GAS), varmap)
        v0 = system.project(ic_primitive)
        state = StatePair(v0, consistent_initial_rate(system, v0, 0.0), 0.0)
        vn, _ = _field_values(space, state.u, 3)
        for seen in varmap.seen.values():
            seen.clear()
        step(system, state, 2e-3, params_from_rho_inf(0.5))
        assert system.residuals >= 3  # at least two Newton iterations
        for name, seen in varmap.seen.items():
            at_vn = [v for v in seen if v.shape == vn.shape and np.array_equal(v, vn)]
            assert len(at_vn) == 1, name

    def test_residual_and_jacobian_share_an_iterate(self):
        # the Jacobian after the residual at one iterate, the residual after
        # the Jacobian, and each alone give the same bits
        system = ModifiedNonconservativeSystem(
            PeriodicFemSpace(8), Euler1D(GAS), PressurePrimitiveMap(GAS))
        v0 = system.project(ic_primitive)
        state = StatePair(v0, 0.1 * RNG.normal(size=v0.size), 0.0)
        params = params_from_rho_inf(0.5)
        w = 0.1 * RNG.normal(size=v0.size)
        r1, j1 = system.step_problem(state, 1e-2, params)
        r2, j2 = system.step_problem(state, 1e-2, params)
        # each Jacobian is copied out of the system's buffer before the next
        first = (r1(w), j1(w).copy())
        second = (j2(w).copy(), r2(w))[::-1]
        alone = (system.step_problem(state, 1e-2, params)[0](w),
                 system.step_problem(state, 1e-2, params)[1](w))
        for a, b, c in zip(first, second, alone):
            assert a.tobytes() == b.tobytes() == c.tobytes()


class _FreshMatrices:
    """A system's residual and iteration matrix without its step problem,
    so `step` solves `_blended_step_problem` with a new matrix per call."""

    def __init__(self, system):
        self.system = system

    def residual(self, u_dot, u, t):
        return self.system.residual(u_dot, u, t)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return self.system.iteration_matrix(c_dot, c_u, u_dot, u, t)


def _burgers_viscous_source():
    return ConservedSystem(PeriodicFemSpace(16), Burgers1D(
        0.02, lambda x, t: np.sin(2 * np.pi * x) * np.cos(t)))


def _euler_conserved_64():
    return ConservedSystem(PeriodicFemSpace(64), Euler1D(GAS))


def _standard_primitive():
    return NonconservativeSystem(PeriodicFemSpace(16), Euler1D(GAS),
                                 PressurePrimitiveMap(GAS))


def _modified_primitive():
    return ModifiedNonconservativeSystem(PeriodicFemSpace(16), Euler1D(GAS),
                                         PressurePrimitiveMap(GAS))


def _initial(system):
    if isinstance(system, NonconservativeSystem):
        return system.project(ic_primitive)
    if system.p == 3:
        return system.project(ic_conserved)
    return system.project(lambda x: np.array([0.1 * np.sin(2 * np.pi * x)]))


BUILDERS = {"burgers-viscous-source": _burgers_viscous_source,
            "euler-conserved-64": _euler_conserved_64,
            "standard-primitive": _standard_primitive,
            "modified-primitive": _modified_primitive}


class TestJacobianBuffer:
    """Each system builds its step-problem Jacobians in one (m, m) buffer."""

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_public_iteration_matrix_is_new_and_kept(self, build):
        system = build()
        u = _initial(system)
        u_dot = 0.01 * RNG.normal(size=u.size)
        first = system.iteration_matrix(0.8, 1e-3, u_dot, u, 0.0)
        kept = first.copy()
        state = StatePair(u, consistent_initial_rate(system, u), 0.0)
        step(system, state, 1e-3, params_from_rho_inf(0.5))
        second = system.iteration_matrix(0.5, 2e-3, 2.0 * u_dot, u, 0.1)
        assert second is not first
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_step_problem_jacobians_share_one_buffer(self, build):
        system = build()
        u = _initial(system)
        state = StatePair(u, consistent_initial_rate(system, u), 0.0)
        params = params_from_rho_inf(0.5)
        jacobians = []
        for dt in (1e-3, 2e-3):
            _, jacobian = system.step_problem(state, dt, params)
            for scale in (0.0, 0.01):
                jacobians.append(jacobian(scale * np.ones(u.size)))
        assert jacobians[0].shape == (system.m, system.m)
        assert all(j is jacobians[0] for j in jacobians)

    @pytest.mark.parametrize("build", [_euler_conserved_64,
                                       _burgers_viscous_source,
                                       _standard_primitive],
                             ids=["euler-conserved-64", "burgers-viscous-source",
                                  "standard-primitive"])
    def test_buffered_steps_equal_fresh_matrix_steps_bitwise(self, build):
        system = build()
        u = _initial(system)
        state = StatePair(u, consistent_initial_rate(system, u), 0.0)
        params = params_from_rho_inf(0.4)
        newton = NewtonSettings(abs_tol=1e-13, rel_tol=1e-13, max_iters=40)
        buffered = integrate(system, state, [1e-3] * 4, params, newton)
        fresh = integrate(_FreshMatrices(system), state, [1e-3] * 4, params,
                          newton)
        for a, b in zip(buffered, fresh):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.u_dot.tobytes() == b.u_dot.tobytes()

    def test_warm_step_allocates_less_than_one_matrix(self):
        # Euler at n = 128 (m = 384): the step's Jacobians reuse the buffer
        # made at the first step, so no (m, m) array is allocated after it
        system = ConservedSystem(PeriodicFemSpace(128), Euler1D(GAS))
        u = system.project(ic_conserved)
        state = StatePair(u, consistent_initial_rate(system, u), 0.0)
        params = params_from_rho_inf(0.5)
        state = step(system, state, 1e-3, params)
        tracemalloc.start()
        try:
            step(system, state, 1e-3, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < system.m * system.m * 8
