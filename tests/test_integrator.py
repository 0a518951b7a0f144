import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genalpha import (AdmissibilityError, GenAlphaParams,
                      NewtonConvergenceError, NewtonSettings,
                      SecondOrderState, StatePair, consistent_initial_acceleration,
                      consistent_initial_rate, integrate, make_params,
                      midpoint_identity_residual, params_from_rho_inf,
                      second_order_identity_residual, shifted_state, step,
                      step_second_order)
from genalpha.advdiff import Tridiagonal
from genalpha.integrator import _solve
from genalpha.odes import (GenericFirstOrder, HarmonicOscillator, PureDrift,
                           ScalarLinear, SecondOrderDrift)


def logistic():
    return GenericFirstOrder(lambda u, t: u * (1.0 - u),
                             lambda u, t: np.diag(1.0 - 2.0 * u), 1)


class TestParams:
    @pytest.mark.parametrize("rho, expected", [
        (1.0, (0.5, 0.5, 0.5)),
        (0.0, (1.5, 1.0, 1.0)),
        (0.5, (5.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0)),
    ])
    def test_rho_inf_triples(self, rho, expected):
        p = params_from_rho_inf(rho)
        assert abs(p.alpha_m - expected[0]) <= 1e-14
        assert abs(p.alpha_f - expected[1]) <= 1e-14
        assert abs(p.gamma - expected[2]) <= 1e-14
        assert p.is_second_order() and p.is_unconditionally_stable()
        assert p.rho_inf == rho

    @pytest.mark.parametrize("rho", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rho_inf_domain(self, rho):
        with pytest.raises(ValueError):
            params_from_rho_inf(rho)

    def test_make_params_flags(self):
        assert make_params(0.5, 0.5, 0.5).is_second_order()
        assert make_params(0.5, 0.5, 0.5).is_unconditionally_stable()
        assert not make_params(0.5, 0.5, 1.0).is_second_order()
        assert not make_params(0.5, 0.75, 0.25).is_unconditionally_stable()
        assert make_params(0.5, 0.5, 1.0).rho_inf is None

    def test_make_params_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_params(float("nan"), 0.5, 0.5)

    @given(st.floats(0.0, 1.0))
    def test_rho_inf_always_second_order_and_stable(self, rho):
        p = params_from_rho_inf(rho)
        assert p.is_second_order()
        assert p.is_unconditionally_stable()
        assert abs(p.gamma - p.alpha_f) <= 1e-14


class TestStatePair:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            StatePair([1.0, 2.0], [1.0], 0.0)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            StatePair([np.nan], [1.0], 0.0)


FIELDS_OK = ([1.0, 2.0], [0.5, -0.5], [3.0, 4.0])


@pytest.mark.parametrize("make, n_fields", [
    (lambda f: StatePair(f[0], f[1], 0.0), 2),
    (lambda f: SecondOrderState(f[0], f[1], f[2], 0.0), 3),
], ids=["StatePair", "SecondOrderState"])
class TestStateGuarantees:
    """The checks and the copy that the states keep on the stepper's hot path."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_in_each_field(self, make, n_fields, bad):
        for i in range(n_fields):
            fields = [list(f) for f in FIELDS_OK]
            fields[i][1] = bad
            with pytest.raises(ValueError, match="finite"):
                make(fields)

    def test_rejects_shape_mismatch_in_each_field(self, make, n_fields):
        for i in range(n_fields):
            fields = list(FIELDS_OK)
            fields[i] = [1.0, 2.0, 3.0]
            with pytest.raises(ValueError, match="differ"):
                make(fields)

    def test_does_not_alias_caller_float_arrays(self, make, n_fields):
        arrays = [np.array(f) for f in FIELDS_OK]
        state = make(arrays)
        for name, arr in zip(("u", "u_dot", "u_ddot"), arrays[:n_fields]):
            assert getattr(state, name) is not arr
            arr[0] = 99.0
            assert getattr(state, name)[0] != 99.0

    def test_coerces_to_float_and_keeps_complex(self, make, n_fields):
        state = make([[1, 2], [3, 4], [5, 6]])
        assert state.u.dtype == np.float64 and state.u_dot.dtype == np.float64
        state = make([np.array([1j, 2.0])] * 3)
        assert state.u.dtype == np.complex128


class TestSolveDispatch:
    def test_real_1x1_equals_lapack_bitwise(self):
        rng = np.random.default_rng(20261018)
        n = 20000
        pivots = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        rhs = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        for pivot, b in zip(pivots, rhs):
            matrix, b = np.array([[pivot]]), np.array([b])
            assert (_solve(matrix, b).tobytes()
                    == np.linalg.solve(matrix, b).tobytes())

    @pytest.mark.parametrize("pivot", [0.0, -0.0])
    def test_zero_1x1_pivot_raises(self, pivot):
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.array([[pivot]]), np.array([1.0]))

    @pytest.mark.parametrize("matrix, b", [
        (np.array([[2.0 + 1.0j]]), np.array([1.0 - 3.0j])),
        (np.array([[2.0]]), np.array([1.0 - 3.0j])),
        (np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])),
    ], ids=["complex-matrix", "complex-rhs", "2x2"])
    def test_lapack_keeps_complex_and_larger_systems(self, monkeypatch,
                                                     matrix, b):
        calls = []
        lapack = np.linalg.solve

        def spy(a, rhs):
            calls.append(a.shape)
            return lapack(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        x = _solve(matrix, b)
        assert calls == [matrix.shape]
        assert x.tobytes() == lapack(matrix, b).tobytes()

    def test_structured_matrix_solves_itself(self):
        class Solves:
            def solve(self, b):
                return 2.0 * b

        assert np.array_equal(_solve(Solves(), np.array([1.0, 3.0])), [2.0, 6.0])


class TestConsistentInitialRate:
    def test_linear_decay(self):
        v = consistent_initial_rate(ScalarLinear(-1.0), [1.0], 0.0)
        assert abs(v[0] + 1.0) <= 1e-12

    def test_pure_drift(self):
        v = consistent_initial_rate(PureDrift(3), [2.0, -1.0, 7.0], 0.0)
        assert np.all(np.abs(v) <= 1e-12)


class TestStep:
    def test_midpoint_amplification(self):
        # closed form for rho_inf = 1: u1 = u0 (1 - dt/2) / (1 + dt/2)
        out = step(ScalarLinear(-1.0), StatePair([1.0], [-1.0], 0.0), 0.1,
                   params_from_rho_inf(1.0))
        assert out.u[0] == pytest.approx((1 - 0.05) / (1 + 0.05), rel=1e-14)
        assert out.t == pytest.approx(0.1)

    def test_rho_zero_scalar(self):
        # solve the two scheme equations by hand for (am, af, g) = (3/2, 1, 1),
        # lam = -1: v1 (3/2 + dt) = v0/2 - u0, u1 = u0 + dt*v1 -> u1 = 14.5/16
        out = step(ScalarLinear(-1.0), StatePair([1.0], [-1.0], 0.0), 0.1,
                   params_from_rho_inf(0.0))
        assert out.u[0] == pytest.approx(14.5 / 16.0, rel=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.37, 1.0])
    def test_drift_fixed_point(self, rho):
        out = step(PureDrift(2), StatePair([3.0, -1.0], [0.0, 0.0], 0.0), 0.5,
                   params_from_rho_inf(rho))
        assert np.array_equal(out.u, [3.0, -1.0])
        assert np.all(out.u_dot == 0.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(ScalarLinear(-1.0), StatePair([1.0], [-1.0], 0.0), 0.0,
                 params_from_rho_inf(0.5))

    def test_update_relation_to_rounding(self):
        p = params_from_rho_inf(0.3)
        s0 = StatePair([0.7], [0.21], 0.0)
        s1 = step(logistic(), s0, 0.17, p)
        lhs = s1.u - s0.u - 0.17 * ((1 - p.gamma) * s0.u_dot + p.gamma * s1.u_dot)
        assert np.max(np.abs(lhs)) <= 1e-15

    def test_newton_failure_carries_trace(self):
        # a genuinely nonlinear solve with too few allowed iterations
        with pytest.raises(NewtonConvergenceError) as info:
            step(logistic(), StatePair([0.5], [0.25], 0.0), 5.0,
                 params_from_rho_inf(0.5), NewtonSettings(max_iters=2))
        assert len(info.value.residual_norms) >= 2

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_rejects_nonfinite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            step(ScalarLinear(-1.0), StatePair([1.0], [-1.0], 0.0), dt,
                 params_from_rho_inf(0.5))
        with pytest.raises(ValueError, match="dt must be finite"):
            step_second_order(HarmonicOscillator(),
                              SecondOrderState([1.0], [0.0], [-1.0], 0.0), dt,
                              params_from_rho_inf(0.5))
        with pytest.raises(ValueError, match="dt must be finite"):
            shifted_state(StatePair([1.0], [0.0], 0.0), dt, 0.6)

    def test_newton_stops_at_first_nonfinite_residual(self):
        # the residual turns NaN after the first Newton update
        class TurnsNaN(ScalarLinear):
            evaluations = 0

            def residual(self, u_dot, u, t):
                self.evaluations += 1
                r = super().residual(u_dot, u, t)
                return r if self.evaluations == 1 else r * np.nan

        system = TurnsNaN(-1.0)
        with pytest.raises(NewtonConvergenceError, match="iteration 1") as info:
            step(system, StatePair([1.0], [-1.0], 0.0), 0.1,
                 params_from_rho_inf(0.5), NewtonSettings(max_iters=30))
        assert system.evaluations == 2
        assert len(info.value.residual_norms) == 2
        assert np.isnan(info.value.residual_norms[-1])


class TestShiftedState:
    def test_minus_example(self):
        s = StatePair([1.0], [-1.0], 0.0)
        assert shifted_state(s, 0.1, 1.0, "minus")[0] == pytest.approx(0.95)

    def test_midpoint_no_shift(self):
        s = StatePair([1.7, -0.3], [2.0, 5.0], 0.0)
        assert np.array_equal(shifted_state(s, 0.2, 0.5, "plus"), s.u)

    def test_plus_example(self):
        s = StatePair([2.0], [4.0], 0.5)
        assert shifted_state(s, 0.5, 2.0 / 3.0, "plus")[0] == pytest.approx(7.0 / 3.0)

    def test_plus_chains_to_next_minus_on_uniform_mesh(self):
        p = params_from_rho_inf(0.4)
        states = integrate(ScalarLinear(-1.0), StatePair([1.0], [-1.0], 0.0),
                           [0.05] * 4, p)
        for s_a, s_b in zip(states, states[1:]):
            assert np.array_equal(shifted_state(s_b, 0.05, p.alpha_f, "plus"),
                                  shifted_state(s_b, 0.05, p.alpha_f, "minus")
                                  + 0.0)  # same formula at the same state
        # U+ at step n is computed from state_{n+1}, as is U- of step n+1
        plus = shifted_state(states[1], 0.05, p.alpha_f, "plus")
        minus = shifted_state(states[1], 0.05, p.alpha_f, "minus")
        assert np.array_equal(plus, minus)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            shifted_state(StatePair([1.0], [0.0], 0.0), 0.1, 0.6, "sideways")


class TestMidpointIdentity:
    def test_holds_for_second_order_params(self):
        p = params_from_rho_inf(0.5)
        s0 = StatePair([0.8], [0.16], 0.0)
        s1 = step(logistic(), s0, 0.05, p)
        scale = max(1.0, np.max(np.abs((1 - p.alpha_m) * s0.u_dot
                                       + p.alpha_m * s1.u_dot)))
        assert midpoint_identity_residual(s0, s1, 0.05, p) <= 1e-13 * scale

    def test_zero_rates_exact_zero(self):
        p = params_from_rho_inf(0.2)
        s0 = StatePair([1.0], [0.0], 0.0)
        s1 = StatePair([1.0], [0.0], 0.1)
        assert midpoint_identity_residual(s0, s1, 0.1, p) == 0.0

    def test_violated_for_non_second_order(self):
        p = make_params(0.5, 0.5, 1.0)
        s0 = StatePair([1.0], [-1.0], 0.0)
        s1 = step(ScalarLinear(-1.0), s0, 0.1, p)
        assert midpoint_identity_residual(s0, s1, 0.1, p) > 1e-3

    def test_defect_formula(self):
        # defect = |gamma - 1/2 - am + af| * |u̇_{n+1} - u̇_n| for gen-alpha pairs
        p = make_params(0.9, 0.6, 0.5 + 0.9 - 0.6 + 0.13)
        s0 = StatePair([1.0], [-1.0], 0.0)
        s1 = step(ScalarLinear(-1.0), s0, 0.1, p)
        expected = 0.13 * np.max(np.abs(s1.u_dot - s0.u_dot))
        assert midpoint_identity_residual(s0, s1, 0.1, p) == pytest.approx(
            expected, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.35, 1.5), st.floats(0.35, 1.1), st.floats(0.01, 0.3),
           st.floats(0.05, 0.95), st.floats(-1.0, 1.0))
    def test_identity_property(self, alpha_m, alpha_f, dt, u0, v0):
        # dt is kept away from 0: the measured defect carries float noise of
        # size eps*|u|/dt even though the identity is exact algebra
        from hypothesis import assume
        assume(0.5 + alpha_m - alpha_f >= 0.05)
        p = make_params(alpha_m, alpha_f, 0.5 + alpha_m - alpha_f)
        s0 = StatePair([u0], [v0], 0.0)
        try:
            s1 = step(logistic(), s0, dt, p)
        except NewtonConvergenceError:
            pytest.skip("hostile parameter combination")
        v_am = (1 - alpha_m) * s0.u_dot + alpha_m * s1.u_dot
        scale = max(1.0, float(np.max(np.abs(v_am))))
        assert midpoint_identity_residual(s0, s1, dt, p) <= 1e-13 * scale


class TestMidpointEquivalence:
    @staticmethod
    def _midpoint_step(system, state, dt):
        # independent implicit-midpoint oracle: Newton in u_{n+1} on
        # R((u1-u0)/dt, (u0+u1)/2, t + dt/2) = 0
        u0, t_mid = state.u, state.t + 0.5 * dt
        u1 = np.array(u0, copy=True)
        for _ in range(50):
            r = system.residual((u1 - u0) / dt, 0.5 * (u0 + u1), t_mid)
            if np.linalg.norm(r, np.inf) <= 1e-14:
                break
            j = system.iteration_matrix(1.0 / dt, 0.5, (u1 - u0) / dt,
                                        0.5 * (u0 + u1), t_mid)
            u1 = u1 - np.linalg.solve(j, r)
        return u1

    @pytest.mark.parametrize("system, u0", [
        (ScalarLinear(-1.0), [1.0]),
        (logistic(), [0.3]),
    ])
    def test_rho_one_matches_midpoint(self, system, u0):
        p = params_from_rho_inf(1.0)
        tight = NewtonSettings(abs_tol=1e-14, rel_tol=1e-14, max_iters=50)
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
        u_mid = np.array(u0, dtype=float)
        for _ in range(100):
            state = step(system, state, 0.01, p, tight)
            u_mid = self._midpoint_step(system, StatePair(u_mid, 0 * u_mid,
                                                          state.t - 0.01), 0.01)
        assert np.max(np.abs(state.u - u_mid)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(u_mid))))


class TestSecondOrder:
    def test_free_drift(self):
        p = params_from_rho_inf(0.5)
        s0 = SecondOrderState([2.0], [0.0], [0.0], 0.0)
        s1 = step_second_order(SecondOrderDrift(), s0, 0.25, p)
        assert np.array_equal(s1.u, s0.u)
        assert s1.t == pytest.approx(0.25)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_oscillator_accuracy_and_identity(self, rho):
        p = params_from_rho_inf(rho)
        osc = HarmonicOscillator()
        a0 = consistent_initial_acceleration(osc, [1.0], [0.0], 0.0)
        state = SecondOrderState([1.0], [0.0], a0, 0.0)
        for _ in range(100):
            nxt = step_second_order(osc, state, 0.01, p)
            a_am = (1 - p.alpha_m) * state.u_ddot + p.alpha_m * nxt.u_ddot
            scale = max(1.0, float(np.max(np.abs(a_am))))
            assert second_order_identity_residual(state, nxt, 0.01, p) \
                <= 1e-13 * scale
            state = nxt
        assert abs(state.u[0] - np.cos(1.0)) <= 1e-4

    def test_identity_defect_when_gamma_perturbed(self):
        base = params_from_rho_inf(0.5)
        p = make_params(base.alpha_m, base.alpha_f, base.gamma + 0.2,
                        beta=base.beta)
        osc = HarmonicOscillator()
        state = SecondOrderState([1.0], [0.0], [-1.0], 0.0)
        nxt = step_second_order(osc, state, 0.5, p)
        assert second_order_identity_residual(state, nxt, 0.5, p) > 1e-3

    def test_zero_rates_identity_zero(self):
        p = params_from_rho_inf(0.5)
        a = SecondOrderState([1.0], [0.0], [0.0], 0.0)
        b = SecondOrderState([1.0], [0.0], [0.0], 0.1)
        assert second_order_identity_residual(a, b, 0.1, p) == 0.0

    def test_stacked_states_give_each_step_defect_bitwise(self):
        p = params_from_rho_inf(0.3)
        osc = HarmonicOscillator(2.0)
        states = [SecondOrderState([1.0], [0.5], [-4.0], 0.0)]
        dts = [0.01, 0.03, 0.02] * 4
        for dt in dts:
            states.append(step_second_order(osc, states[-1], dt, p))
        rows = [np.array([getattr(s, name) for s in states])
                for name in ("u", "u_dot", "u_ddot")]
        stacked = second_order_identity_residual(
            SecondOrderState(*(r[:-1] for r in rows), 0.0),
            SecondOrderState(*(r[1:] for r in rows), 0.0),
            np.array(dts)[:, None], p)
        pairwise = [second_order_identity_residual(a, b, dt, p)
                    for a, b, dt in zip(states, states[1:], dts)]
        assert stacked.tobytes() == np.array(pairwise).tobytes()

    def test_requires_beta(self):
        p = make_params(0.5, 0.5, 0.5)  # no beta attached
        with pytest.raises(ValueError):
            step_second_order(HarmonicOscillator(),
                              SecondOrderState([1.0], [0.0], [-1.0], 0.0),
                              0.1, p)


class _NoDense(Tridiagonal):
    def __array__(self, dtype=None, copy=None):
        raise AssertionError("the iteration matrix was densified")


class SpringChain:
    """R = M Ü + C U̇ + K U + U^3 for a chain of masses with tridiagonal M, C, K,
    iteration matrices returned as `matrix(data)`."""

    def __init__(self, m, matrix):
        self.m, self.matrix = m, matrix
        one = np.ones(m)
        self.mass = np.array([one / 6.0, 2.0 * one / 3.0, one / 6.0])
        self.damp = 0.1 * np.array([0.0 * one, one, 0.0 * one])
        self.stiff = np.array([-one, 2.0 * one, -one])
        for band in (self.mass, self.damp, self.stiff):
            band[0, 0] = band[2, -1] = 0.0

    def dimension(self):
        return self.m

    def residual(self, u_ddot, u_dot, u, t):
        return (Tridiagonal(self.mass) @ u_ddot + Tridiagonal(self.damp) @ u_dot
                + Tridiagonal(self.stiff) @ u + u ** 3)

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        data = c_ddot * self.mass + c_dot * self.damp + c_u * self.stiff
        data[1] += c_u * 3.0 * u ** 2
        return self.matrix(data)


class TestSecondOrderStructuredMatrix:
    def test_tridiagonal_steps_without_densifying(self):
        m, p = 12, params_from_rho_inf(0.6)
        u0 = np.sin(np.linspace(0.0, np.pi, m))
        v0 = np.zeros(m)
        runs = []
        for matrix in (_NoDense, lambda data: np.asarray(Tridiagonal(data))):
            chain = SpringChain(m, matrix)
            a0 = consistent_initial_acceleration(chain, u0, v0, 0.0)
            state = SecondOrderState(u0, v0, a0, 0.0)
            for _ in range(5):
                state = step_second_order(chain, state, 0.05, p)
            runs.append(state)
        structured, dense = runs
        for name in ("u", "u_dot", "u_ddot"):
            assert np.max(np.abs(getattr(structured, name)
                                 - getattr(dense, name))) <= 1e-14


class TestNewtonSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iters=0)


class _LeavesAdmissibleSet(ScalarLinear):
    """Raises AdmissibilityError once the residual's time passes 0.25."""

    def residual(self, u_dot, u, t):
        if t > 0.25:
            raise AdmissibilityError("left the admissible set")
        return super().residual(u_dot, u, t)


class TestIntegrateErrorContext:
    def test_newton_failure_names_step_t_and_dt(self):
        p, newton = params_from_rho_inf(0.5), NewtonSettings(max_iters=2)
        dts = [0.01, 0.01, 5.0]
        states = integrate(logistic(), StatePair([0.5], [0.25], 0.0), dts[:2],
                           p, newton)
        with pytest.raises(NewtonConvergenceError) as direct:
            step(logistic(), states[-1], 5.0, p, newton)
        with pytest.raises(NewtonConvergenceError) as info:
            integrate(logistic(), StatePair([0.5], [0.25], 0.0), dts, p, newton)
        assert type(info.value) is NewtonConvergenceError
        assert str(info.value) == (f"step 2 (t={states[-1].t!r}, dt=5.0): "
                                   f"{direct.value}")
        assert info.value.residual_norms == direct.value.residual_norms
        assert type(info.value.__cause__) is NewtonConvergenceError

    def test_admissibility_error_names_step_t_and_dt(self):
        with pytest.raises(AdmissibilityError) as info:
            integrate(_LeavesAdmissibleSet(-1.0), StatePair([1.0], [-1.0], 0.0),
                      [0.1] * 5, params_from_rho_inf(0.5))
        assert type(info.value) is AdmissibilityError
        assert str(info.value) == "step 2 (t=0.2, dt=0.1): left the admissible set"
