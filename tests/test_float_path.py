"""One real component stepped in Python floats, against the array stepper.

`step` and `step_second_order` carry a state whose every field has shape
(1,) and dtype float64 as Python floats, when the system has no
`step_problem`.  `ArrayOracle` keeps the array stepper for such a state:
every field, Newton iterate and residual an array, a real 1x1 Jacobian
divided as an array, each new state built by the public constructor.  Over
seeded cases the package must give the same state bytes, the same Newton
norms and the same errors.
"""

import numpy as np
import pytest

from genalpha import (GenAlphaParams, NewtonConvergenceError, NewtonSettings,
                      SecondOrderState, StatePair, integrate,
                      params_from_rho_inf, step, step_second_order)
from genalpha import integrator
from genalpha.integrator import _float_state
from genalpha.odes import HarmonicOscillator, ScalarLinear
from model_systems import GenericFirstOrder, SecondOrderDrift


class ArrayOracle:
    """The array stepper, for systems without a step problem.

    Test-only reference.  `step` and `step_second_order` return the new
    state and the Newton residual norms.
    """

    @staticmethod
    def solve(matrix, b):
        if hasattr(matrix, "solve"):
            return matrix.solve(b)
        if (type(matrix) is np.ndarray and matrix.shape == (1, 1)
                and matrix.dtype.kind == "f" and b.dtype.kind == "f"):
            pivot = matrix[0, 0]
            if pivot == 0.0:
                raise np.linalg.LinAlgError("Singular matrix")
            return b / pivot
        return np.linalg.solve(matrix, b)

    @classmethod
    def newton(cls, residual, jacobian, x0, settings):
        x = x0
        r = residual(x)
        norms = [float(np.abs(r).max())]
        tol = max(settings.abs_tol, settings.rel_tol * norms[0])
        while True:
            if not np.isfinite(norms[-1]):
                raise NewtonConvergenceError(
                    f"non-finite residual norm at Newton iteration "
                    f"{len(norms) - 1}; residual norms {norms}", norms)
            if norms[-1] <= tol:
                return x, norms
            if len(norms) > settings.max_iters:
                raise NewtonConvergenceError(
                    f"Newton failed to converge in {settings.max_iters} "
                    f"iterations; residual norms {norms}", norms)
            x = x - cls.solve(jacobian(x), r)
            r = residual(x)
            norms.append(float(np.abs(r).max()))

    @classmethod
    def step(cls, system, state_n, dt, params, newton):
        am, af, g = params.alpha_m, params.alpha_f, params.gamma
        u_n, v_n = state_n.u, state_n.u_dot
        t_af = state_n.t + af * dt
        u_base = u_n + dt * (1.0 - g) * v_n
        v_am0, u_af0 = (1.0 - am) * v_n, (1.0 - af) * u_n
        dt_g, c_u = dt * g, af * g * dt

        def blend(v):
            return v_am0 + am * v, u_af0 + af * (u_base + dt_g * v)

        v_np1, norms = cls.newton(
            lambda v: system.residual(*blend(v), t_af),
            lambda v: system.iteration_matrix(am, c_u, *blend(v), t_af),
            ((g - 1.0) / g) * v_n, newton)
        return StatePair(u_base + dt * g * v_np1, v_np1, state_n.t + dt), norms

    @classmethod
    def step_second_order(cls, system, state_n, dt, params, newton):
        am, af, g, beta = params.alpha_m, params.alpha_f, params.gamma, params.beta
        u_n, v_n, a_n = state_n.u, state_n.u_dot, state_n.u_ddot
        t_af = state_n.t + af * dt
        u_base = u_n + dt * v_n + dt * dt * (0.5 - beta) * a_n
        v_base = v_n + dt * (1.0 - g) * a_n
        dt_g, dt2_beta = dt * g, dt * dt * beta
        a_am0, v_af0, u_af0 = (1.0 - am) * a_n, (1.0 - af) * v_n, (1.0 - af) * u_n
        c_dot, c_u = af * g * dt, af * beta * dt * dt

        def parts(a):
            return (a_am0 + am * a, v_af0 + af * (v_base + dt_g * a),
                    u_af0 + af * (u_base + dt2_beta * a))

        a_np1, norms = cls.newton(
            lambda a: system.residual(*parts(a), t_af),
            lambda a: system.iteration_matrix(am, c_dot, c_u, *parts(a), t_af),
            ((g - 1.0) / g) * a_n, newton)
        return SecondOrderState(u_base + dt2_beta * a_np1, v_base + dt_g * a_np1,
                                a_np1, state_n.t + dt), norms


@pytest.fixture
def package(monkeypatch):
    """The package's steppers, returning (state, norms, type of Newton's x0)."""
    seen = []
    newton = integrator._newton

    def spy(residual, jacobian, x0, settings, *args):
        x, norms = newton(residual, jacobian, x0, settings, *args)
        seen.append((norms, type(x0)))
        return x, norms

    monkeypatch.setattr(integrator, "_newton", spy)

    def stepped(stepper):
        def run(*args):
            state = stepper(*args)
            return (state, *seen.pop())
        return run
    return stepped(step), stepped(step_second_order)


def assert_same_state(ours, oracle):
    for name in oracle.__match_args__[:-1]:
        a, b = getattr(ours, name), getattr(oracle, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert repr(ours.t) == repr(oracle.t)


def amplification_newton(lam, dt):
    """The settings `linear_analysis.amplification_matrix` steps with."""
    return NewtonSettings(abs_tol=1e-12 * max(1.0, abs(lam * dt)),
                          rel_tol=1e-15, max_iters=12)


def draw_params(rng, second_order: bool):
    base = params_from_rho_inf(rng.uniform(0.0, 1.0))
    if second_order:
        return base
    return GenAlphaParams(base.alpha_m, base.alpha_f,
                          base.gamma + rng.uniform(0.05, 0.3))


def run_both(ours, oracle, system, state, dts, params, newton):
    """Step `state` over `dts` on both paths; the Newton norms and x0 types
    of our steps."""
    runs = []
    ours_state, oracle_state = state, state
    for dt in dts:
        ours_state, norms, x0_type = ours(system, ours_state, dt, params, newton)
        oracle_state, oracle_norms = oracle(system, oracle_state, dt, params,
                                            newton)
        assert_same_state(ours_state, oracle_state)
        assert repr(norms) == repr(oracle_norms)
        runs.append((norms, x0_type))
    return runs


class TestFloatPathMatchesArrayOracle:
    @pytest.mark.parametrize("second_order", [True, False],
                             ids=["second-order", "mis-parameterized"])
    @pytest.mark.parametrize("settings", ["default", "amplification"])
    def test_scalar_linear(self, package, second_order, settings):
        ours, _ = package
        rng = np.random.default_rng(20261019)
        for _ in range(150):
            lam = (-10.0 ** rng.uniform(-2.0, 8.0) if rng.uniform() < 0.7
                   else rng.uniform(-1.0, 2.0))
            params = draw_params(rng, second_order)
            if settings == "amplification":
                # one unit-sized step at dt = 1, as a sweep takes it
                state = StatePair([rng.uniform(-1, 1)], [rng.uniform(-1, 1)], 0.0)
                dts, newton = [1.0], amplification_newton(lam, 1.0)
            else:
                state = StatePair([rng.normal()], [rng.normal()], rng.uniform())
                dts, newton = [10.0 ** rng.uniform(-4, 0)] * 4, NewtonSettings()
            runs = run_both(ours, ArrayOracle.step, ScalarLinear(lam), state,
                            dts, params, newton)
            assert all(x0_type is float for _, x0_type in runs)

    @pytest.mark.parametrize("second_order", [True, False],
                             ids=["second-order", "mis-parameterized"])
    def test_harmonic_oscillator(self, package, second_order):
        _, ours = package
        rng = np.random.default_rng(7)
        for _ in range(150):
            state = SecondOrderState([rng.normal()], [rng.normal()],
                                     [rng.normal()], rng.uniform())
            dts = 10.0 ** rng.uniform(-4, -0.5, 4)
            runs = run_both(ours, ArrayOracle.step_second_order,
                            HarmonicOscillator(), state, dts,
                            draw_params(rng, second_order),
                            NewtonSettings())
            assert all(x0_type is float for _, x0_type in runs)

    def test_nonlinear_cubic_decay(self, package):
        ours, _ = package
        rng = np.random.default_rng(3)
        cubic = Cubic()
        for _ in range(150):
            state = StatePair([rng.uniform(0.5, 2.0)], [rng.normal()], 0.0)
            runs = run_both(ours, ArrayOracle.step, cubic, state,
                            [rng.uniform(0.05, 0.3)] * 3,
                            draw_params(rng, rng.uniform() < 0.5),
                            NewtonSettings())
            assert all(len(norms) - 1 >= 2 for norms, _ in runs)

    def test_second_order_drift(self, package):
        _, ours = package
        rng = np.random.default_rng(4)
        for _ in range(50):
            state = SecondOrderState([rng.normal()], [rng.normal()],
                                     [rng.normal()], 0.0)
            run_both(ours, ArrayOracle.step_second_order, SecondOrderDrift(),
                     state, [rng.uniform(0.01, 0.5)] * 3,
                     draw_params(rng, True), NewtonSettings())

    def test_complex_scalar_linear_stays_on_arrays(self, package):
        ours, _ = package
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = complex(-10.0 ** rng.uniform(-2, 4), rng.normal())
            state = StatePair(np.array([complex(*rng.normal(size=2))]),
                              np.array([complex(*rng.normal(size=2))]), 0.0)
            runs = run_both(ours, ArrayOracle.step, ScalarLinear(lam), state,
                            [0.1] * 3, draw_params(rng, True), NewtonSettings())
            assert all(x0_type is np.ndarray for _, x0_type in runs)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


def assert_same_error(ours, oracle):
    assert type(ours) is type(oracle)
    assert str(ours) == str(oracle)
    assert (repr(getattr(ours, "residual_norms", None))
            == repr(getattr(oracle, "residual_norms", None)))


class Cubic(GenericFirstOrder):
    """R = u̇ + u^3."""

    def __init__(self):
        super().__init__(lambda u, t: -u ** 3, lambda u, t: np.diag(-3.0 * u ** 2),
                         1)


class Duffing(HarmonicOscillator):
    """R = ü + u + u^3."""

    def residual(self, u_ddot, u_dot, u, t):
        return u_ddot + u + u ** 3

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        return np.array([[c_ddot + c_u * (1.0 + 3.0 * u[0] ** 2)]])


class _TurnsNaN:
    """The residual turns NaN from its evaluation `k` on (counted from 0)."""

    def __init__(self, k):
        super().__init__()
        self.k, self.evaluations = k, 0

    def residual(self, *args):
        self.evaluations += 1
        r = super().residual(*args)
        return r * np.nan if self.evaluations > self.k else r


class _ZeroPivot:
    """The iteration matrix is [[pivot]]."""

    def __init__(self, pivot):
        super().__init__()
        self.pivot = pivot

    def iteration_matrix(self, *args):
        return np.array([[self.pivot]])


# (package stepper, oracle stepper, start state, a nonlinear system class)
FIRST = (step, ArrayOracle.step, StatePair([1.5], [-0.5], 0.25), Cubic)
SECOND = (step_second_order, ArrayOracle.step_second_order,
          SecondOrderState([1.5], [-0.5], [0.3], 0.25), Duffing)


@pytest.mark.parametrize("order", [FIRST, SECOND], ids=["first", "second"])
class TestErrorParity:
    """Each failure has the same type, message and norms on both paths."""

    @staticmethod
    def both(order, make_system, newton, dt=0.2):
        stepper, oracle, state, _ = order
        p = params_from_rho_inf(0.4)
        ours = raised(stepper, make_system(), state, dt, p, newton)
        theirs = raised(oracle, make_system(), state, dt, p, newton)
        assert_same_error(ours, theirs)
        return ours

    @pytest.mark.parametrize("pivot", [0.0, -0.0])
    def test_zero_pivot(self, order, pivot):
        system = type("Singular", (_ZeroPivot, order[3]), {})
        error = self.both(order, lambda: system(pivot), NewtonSettings())
        assert type(error) is np.linalg.LinAlgError

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_residual_at_iteration_k(self, order, k):
        system = type("TurnsNaN", (_TurnsNaN, order[3]), {})
        error = self.both(order, lambda: system(k), NewtonSettings())
        assert f"iteration {k};" in str(error)

    def test_max_iters_runs_out(self, order):
        error = self.both(order, order[3], NewtonSettings(max_iters=1), dt=0.5)
        assert "failed to converge in 1 iterations" in str(error)


class TestIntegrateAndStateErrors:
    """`integrate`'s step prefix and the new state's finiteness check."""

    def test_integrate_names_the_failed_step(self):
        p, newton, dts = params_from_rho_inf(0.5), NewtonSettings(max_iters=2), [
            0.01, 0.01, 5.0]
        logistic = GenericFirstOrder(lambda u, t: u * (1.0 - u),
                                     lambda u, t: np.diag(1.0 - 2.0 * u), 1)
        state = StatePair([0.5], [0.25], 0.0)
        for dt in dts[:-1]:
            state, _ = ArrayOracle.step(logistic, state, dt, p, newton)
        oracle = raised(ArrayOracle.step, logistic, state, dts[-1], p, newton)
        ours = raised(integrate, logistic, StatePair([0.5], [0.25], 0.0), dts, p,
                      newton)
        assert type(ours) is type(oracle) is NewtonConvergenceError
        assert str(ours) == f"step 2 (t={state.t!r}, dt=5.0): {oracle}"
        assert repr(ours.residual_norms) == repr(oracle.residual_norms)

    @pytest.mark.parametrize("cls, fields", [
        (StatePair, (1.0, np.nan)), (SecondOrderState, (1.0, 2.0, np.inf))])
    def test_nonfinite_new_state(self, cls, fields):
        # the float path builds its state without the public constructor
        public = raised(cls, *([f] for f in fields), 0.0)
        assert_same_error(raised(_float_state, cls, *fields, 0.0), public)
