"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion asserts at its stated tolerance; expected values are either closed
forms derived in-line, independently implemented oracles (implicit midpoint,
exact ODE solutions, analytic integrals), or run-based ledger quantities.
"""

import numpy as np
import pytest

from genalpha import (GenAlphaParams, NewtonSettings, SecondOrderState,
                      StatePair, consistent_initial_acceleration,
                      consistent_initial_rate, integrate,
                      midpoint_identity_residual, params_from_rho_inf,
                      second_order_identity_residual, shifted_state, step,
                      step_second_order)
from genalpha.advdiff import (AdvDiffConfig, AdvDiffSystem, Mesh1D,
                              project_initial)
from genalpha.audit import BalanceLedger
from genalpha.conslaw import (Burgers1D, ConservedSystem, Euler1D,
                              ModifiedNonconservativeSystem,
                              NonconservativeSystem, PeriodicFemSpace,
                              PressurePrimitiveMap)
from genalpha.linear_analysis import (amplification_matrix, observed_order,
                                      spectral_radius)
from genalpha.odes import HarmonicOscillator, ScalarLinear
from model_systems import (GenericFirstOrder,
                           advdiff_stabilization_form as stabilization_form,
                           conslaw_stabilization_form as system_stabilization_form)

LEDGER_NEWTON = NewtonSettings(abs_tol=1e-13, rel_tol=1e-13, max_iters=40)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _bump(x):
    return np.exp(-((x - 0.3) / 0.08) ** 2)


def _two_component_nonlinear():
    def f(u, t):
        return np.array([-u[1] + 0.2 * np.sin(u[0]), u[0] - 0.3 * u[1] ** 3])

    def jac(u, t):
        return np.array([[0.2 * np.cos(u[0]), -1.0],
                         [1.0, -0.9 * u[1] ** 2]])

    return GenericFirstOrder(f, jac, 2)


def _euler_primitive_fields(x, amplitude=0.1):
    rho = 1.0 + amplitude * np.sin(2 * np.pi * x)
    vel = amplitude * np.cos(2 * np.pi * x)
    pres = 1.0 + amplitude * np.sin(4 * np.pi * x)
    return rho, vel, pres


def _run_ledger(system, u0, dts, params):
    state = StatePair(u0, consistent_initial_rate(system, u0, 0.0,
                                                  LEDGER_NEWTON), 0.0)
    ledger = BalanceLedger()
    integrate(system, state, dts, params, LEDGER_NEWTON, ledger)
    return ledger


def test_criterion_01_parameter_formulas():
    cases = {1.0: (0.5, 0.5, 0.5), 0.5: (5 / 6, 2 / 3, 2 / 3),
             0.0: (1.5, 1.0, 1.0)}
    worst = 0.0
    for rho, (am, af, g) in cases.items():
        p = params_from_rho_inf(rho)
        worst = max(worst, abs(p.alpha_m - am), abs(p.alpha_f - af),
                    abs(p.gamma - g))
    ok = worst <= 1e-14
    assert _report(1, ok, f"rho_inf parameter triples, max error {worst:.2e}")


def test_criterion_02_midpoint_identity_randomized():
    rng = np.random.default_rng(1234)
    logistic = GenericFirstOrder(lambda u, t: u * (1.0 - u),
                                 lambda u, t: np.diag(1.0 - 2.0 * u), 1)
    systems = [(ScalarLinear(-1.0), 1), (logistic, 1),
               (_two_component_nonlinear(), 2)]
    checked, worst = 0, 0.0
    for system, m in systems:
        for _ in range(350):
            alpha_m = rng.uniform(0.35, 1.5)
            alpha_f = rng.uniform(0.35, min(alpha_m + 0.4, 1.2))
            params = GenAlphaParams(alpha_m, alpha_f, 0.5 + alpha_m - alpha_f)
            dt = rng.uniform(0.01, 0.25)
            u0 = rng.uniform(0.05, 0.95, size=m)
            v0 = rng.uniform(-1.0, 1.0, size=m)
            s0 = StatePair(u0, v0, 0.0)
            s1 = step(system, s0, dt, params)
            v_am = (1 - alpha_m) * s0.u_dot + alpha_m * s1.u_dot
            scale = max(1.0, float(np.max(np.abs(v_am))))
            worst = max(worst,
                        midpoint_identity_residual(s0, s1, dt, params) / scale)
            checked += 1
    identity_ok = checked >= 1000 and worst <= 1e-13

    # gamma perturbed by 0.2: the defect is visible on generic steps
    base = params_from_rho_inf(0.5)
    broken = GenAlphaParams(base.alpha_m, base.alpha_f, base.gamma + 0.2)
    defects = []
    state = StatePair([1.0], [-1.0], 0.0)
    for _ in range(20):
        nxt = step(ScalarLinear(-1.0), state, 0.1, broken)
        defects.append(midpoint_identity_residual(state, nxt, 0.1, broken))
        state = nxt
    broken_ok = min(defects) > 1e-3
    ok = identity_ok and broken_ok
    assert _report(2, ok, f"{checked} randomized steps, worst scaled residual "
                          f"{worst:.2e}; perturbed-gamma defect "
                          f"{min(defects):.2e} > 1e-3")


def _implicit_midpoint_step(system, u0, t0, dt):
    u1 = np.array(u0, copy=True)
    t_mid = t0 + 0.5 * dt
    for _ in range(60):
        r = system.residual((u1 - u0) / dt, 0.5 * (u0 + u1), t_mid)
        if np.linalg.norm(r, np.inf) <= 1e-14:
            break
        j = system.iteration_matrix(1.0 / dt, 0.5, (u1 - u0) / dt,
                                    0.5 * (u0 + u1), t_mid)
        u1 = u1 - np.linalg.solve(j, r)
    return u1


def test_criterion_03_midpoint_equivalence():
    params = params_from_rho_inf(1.0)
    tight = NewtonSettings(abs_tol=1e-14, rel_tol=1e-14, max_iters=60)
    worst = 0.0
    for system, u0, dt in ((ScalarLinear(-1.0), np.array([1.0]), 0.01),
                           (_two_component_nonlinear(),
                            np.array([0.8, -0.2]), 0.02)):
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0, tight),
                          0.0)
        u_mid = u0.copy()
        for n in range(100):
            state = step(system, state, dt, params, tight)
            u_mid = _implicit_midpoint_step(system, u_mid, n * dt, dt)
            rel = (np.max(np.abs(state.u - u_mid))
                   / max(1.0, float(np.max(np.abs(u_mid)))))
            worst = max(worst, rel)
    ok = worst <= 1e-12
    assert _report(3, ok, f"rho_inf=1 vs independent implicit midpoint, worst "
                          f"relative difference {worst:.2e}")


def test_criterion_04_spectral_radius_limit():
    deviations = {}
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        sr = spectral_radius(amplification_matrix(-1e8, params_from_rho_inf(rho)))
        deviations[rho] = abs(sr - rho)
    ok = all(dev <= 1e-6 for dev in deviations.values())
    detail = ", ".join(f"rho={r}: dev {d:.2e}" for r, d in deviations.items())
    assert _report(4, ok, f"spectral radius at z=-1e8; {detail}")


def test_criterion_05_temporal_order():
    dts = [0.1, 0.05, 0.025, 0.0125]
    good = observed_order(ScalarLinear(-1.0), 1.0, dts, params_from_rho_inf(0.5))
    base = params_from_rho_inf(0.5)
    broken = GenAlphaParams(base.alpha_m, base.alpha_f, base.gamma + 0.25)
    bad = observed_order(ScalarLinear(-1.0), 1.0, dts, broken)
    ok = (1.9 <= good.observed_order <= 2.1) and (0.8 <= bad.observed_order <= 1.2)
    assert _report(5, ok, f"observed order {good.observed_order:.3f} (second "
                          f"order), {bad.observed_order:.3f} (gamma violated)")


def test_criterion_06_advdiff_balance():
    params = params_from_rho_inf(0.5)
    mesh = Mesh1D(64)

    config = AdvDiffConfig(a=1.0, kappa=0.01, stabilization="supg")
    system = AdvDiffSystem(mesh, config, 1e-3)
    ledger = _run_ledger(system, project_initial(mesh, _bump), [1e-3] * 200,
                         params)
    drift_a = abs(ledger.drift()[0])
    ok_a = ledger.certified and drift_a <= 1e-12

    forced = AdvDiffConfig(a=0.0, kappa=1.0,
                           f=lambda x, t: np.ones_like(x))
    system_b = AdvDiffSystem(mesh, forced, 1e-3)
    ledger_b = _run_ledger(system_b, project_initial(mesh, _bump), [1e-3] * 200,
                           params)
    drift_b = abs(ledger_b.drift()[0])
    growth = (ledger_b.entries[-1].shifted_total_plus[0]
              - ledger_b.entries[0].shifted_total_minus[0])
    ok_b = drift_b <= 1e-12 and abs(growth - 200 * 1e-3) <= 1e-12
    ok = ok_a and ok_b
    assert _report(6, ok, f"certified drift {drift_a:.2e}; forced drift "
                          f"{drift_b:.2e}, growth error "
                          f"{abs(growth - 0.2):.2e}")


def _euler_conserved_ic(x):
    rho, vel, pres = _euler_primitive_fields(x)
    return np.array([rho, rho * vel, pres / 0.4 + 0.5 * rho * vel ** 2])


def _euler_primitive_ic(x):
    rho, vel, pres = _euler_primitive_fields(x)
    return np.array([pres, vel, pres / rho])


def test_criterion_07_conservation_law_balance():
    params = params_from_rho_inf(0.5)
    space = PeriodicFemSpace(32)

    burgers = ConservedSystem(space, Burgers1D())
    u0 = burgers.project(lambda x: np.array([0.1 * np.sin(2 * np.pi * x)]))
    drift_b = np.max(np.abs(_run_ledger(burgers, u0, [1e-3] * 100,
                                        params).drift()))

    euler = ConservedSystem(space, Euler1D(1.4))
    u0e = euler.project(_euler_conserved_ic)
    drift_e = np.max(np.abs(_run_ledger(euler, u0e, [1e-3] * 100,
                                        params).drift()))
    ok = drift_b <= 1e-12 and drift_e <= 1e-12
    assert _report(7, ok, f"Burgers drift {drift_b:.2e}, Euler drift "
                          f"{drift_e:.2e}")


def test_criterion_08_nonconservative_demonstration():
    params = params_from_rho_inf(0.5)
    space = PeriodicFemSpace(32)
    varmap = PressurePrimitiveMap(1.4)
    model = Euler1D(1.4)

    standard = NonconservativeSystem(space, model, varmap)
    v0 = standard.project(_euler_primitive_ic)
    drift_std = _run_ledger(standard, v0, [1e-3] * 100, params).drift()

    modified = ModifiedNonconservativeSystem(space, model, varmap)
    drift_mod = _run_ledger(modified, v0, [1e-3] * 100, params).drift()

    ok = (np.max(np.abs(drift_std)) > 1e-10
          and np.max(np.abs(drift_mod)) <= 1e-12)
    assert _report(8, ok, f"standard drift {np.max(np.abs(drift_std)):.2e} > "
                          f"1e-10; modified drift "
                          f"{np.max(np.abs(drift_mod)):.2e} <= 1e-12")


def test_criterion_09_nonuniform_mesh_demonstration():
    params = params_from_rho_inf(0.5)
    space = PeriodicFemSpace(32)
    burgers = ConservedSystem(space, Burgers1D())
    u0 = burgers.project(lambda x: np.array([0.1 * np.sin(2 * np.pi * x)]))
    dts = [1e-3 if i % 2 == 0 else 2e-3 for i in range(100)]
    ledger = _run_ledger(burgers, u0, dts, params)
    ok = (not ledger.certified) and ledger.max_mismatch > 1e-10
    assert _report(9, ok, f"uncertified = {not ledger.certified}, shifted-state "
                          f"mismatch {ledger.max_mismatch:.2e} > 1e-10")


def test_criterion_10_second_order_identity():
    osc = HarmonicOscillator()
    worst_identity, worst_error = 0.0, 0.0
    for rho in (0.0, 0.5, 1.0):
        params = params_from_rho_inf(rho)
        a0 = consistent_initial_acceleration(osc, [1.0], [0.0], 0.0)
        state = SecondOrderState([1.0], [0.0], a0, 0.0)
        for _ in range(100):
            nxt = step_second_order(osc, state, 0.01, params)
            a_am = ((1 - params.alpha_m) * state.u_ddot
                    + params.alpha_m * nxt.u_ddot)
            scale = max(1.0, float(np.max(np.abs(a_am))))
            worst_identity = max(
                worst_identity,
                second_order_identity_residual(state, nxt, 0.01, params) / scale)
            state = nxt
        worst_error = max(worst_error, abs(state.u[0] - np.cos(1.0)))
    ok = worst_identity <= 1e-13 and worst_error <= 1e-4
    assert _report(10, ok, f"identity residual {worst_identity:.2e} <= 1e-13, "
                           f"oscillator error {worst_error:.2e} <= 1e-4")


def test_criterion_11_stabilization_kernel():
    rng = np.random.default_rng(99)
    mesh = Mesh1D(32)
    scalar = AdvDiffSystem(
        mesh, AdvDiffConfig(a=1.0, kappa=0.01, stabilization="supg"), 1e-3)
    ones = np.ones(scalar.m)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=scalar.m)
        worst = max(worst, abs(stabilization_form(scalar, v, ones)))

    space = PeriodicFemSpace(16)
    system = ConservedSystem(space, Euler1D(1.4), stabilization="supg-like")
    for j in range(3):
        e_j = np.zeros(system.m)
        e_j[j::3] = 1.0
        for _ in range(100):
            v = rng.normal(size=system.m)
            worst = max(worst, abs(system_stabilization_form(system, v, e_j)))
    ok = worst <= 1e-14
    assert _report(11, ok, f"S(v, constant test function) max |value| "
                           f"{worst:.2e} <= 1e-14")
