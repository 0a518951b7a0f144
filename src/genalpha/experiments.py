"""Config-driven experiment drivers behind the CLI.

Each driver returns (summary lines, {csv name: csv text}, ok flag); the
caller handles file IO and maps ok=False to exit code 2.  All output is
deterministic for a fixed config: fixed sweep grids, fixed seeds, floats at
17 significant digits.
"""

from __future__ import annotations

import numpy as np

from . import advdiff, conslaw
from .audit import BalanceLedger, LedgerReport, report_to_csv
from .config import ExperimentConfig
from .integrator import (NewtonSettings, SecondOrderState, StatePair,
                         consistent_initial_acceleration,
                         consistent_initial_rate, integrate,
                         second_order_identity_residual, step_second_order)
from .linear_analysis import amplification_matrix, observed_order, spectral_radius
from .odes import HarmonicOscillator, ScalarLinear

# ledger experiments solve to near machine precision so the audited
# identities are limited by rounding, not by the Newton stopping test
_LEDGER_NEWTON = NewtonSettings(abs_tol=1e-13, rel_tol=1e-13, max_iters=40)

ORDER_WINDOW = (1.9, 2.1)
DRIFT_TOL = 1e-12
MISMATCH_FLOOR = 1e-10
IDENTITY_TOL = 1e-13
OSCILLATOR_ERR_TOL = 1e-4

_SWEEP_EXPONENTS = range(-2, 9)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _bump(x):
    return np.exp(-((x - 0.3) / 0.08) ** 2)


def euler_primitive_fields(x, amplitude: float):
    """Smooth periodic state with all primitive fields varying."""
    rho = 1.0 + amplitude * np.sin(2 * np.pi * x)
    vel = amplitude * np.cos(2 * np.pi * x)
    pres = 1.0 + amplitude * np.sin(4 * np.pi * x)
    return rho, vel, pres


def run_ode_convergence(config: ExperimentConfig):
    params = config.params()
    rep = observed_order(ScalarLinear(-1.0), config.t_final, config.dt_list,
                         params)
    ok = (not rep.degenerate
          and ORDER_WINDOW[0] <= rep.observed_order <= ORDER_WINDOW[1])
    lines = [f"model: du/dt = -u, exact exp(-t), t_final = {config.t_final}",
             f"observed_order = {_fmt(rep.observed_order)}",
             f"window = [{ORDER_WINDOW[0]}, {ORDER_WINDOW[1]}]",
             f"{'PASS' if ok else 'FAIL'}: observed order in window"]
    csv = ["dt,error,observed_order"]
    for dt, err in zip(rep.dt_values, rep.errors):
        csv.append(f"{_fmt(dt)},{_fmt(err)},{_fmt(rep.observed_order)}")
    return lines, {"convergence.csv": "\n".join(csv) + "\n"}, ok


def run_amplification_sweep(config: ExperimentConfig):
    params = config.params()
    csv = ["z,rho"]
    lines = []
    for k in _SWEEP_EXPONENTS:
        z = -(10.0 ** k)
        rho = spectral_radius(amplification_matrix(z, params))
        csv.append(f"{_fmt(z)},{_fmt(rho)}")
    rho_limit = spectral_radius(amplification_matrix(-1e8, params))
    lines.append(f"spectral radius at z = -1e8: {_fmt(rho_limit)}")
    if config.rho_inf is not None:
        lines.append(f"rho_inf = {_fmt(config.rho_inf)}, deviation = "
                     f"{_fmt(abs(rho_limit - config.rho_inf))}")
    lines.append("PASS: sweep completed")
    return lines, {"amplification.csv": "\n".join(csv) + "\n"}, True


def _ledger_lines(ledger: BalanceLedger):
    rep = ledger.report()
    lines = [f"certified = {rep.certified}",
             f"uniform_dt = {rep.uniform_dt}",
             f"n_steps = {rep.n_steps}",
             "drift per component = " + ", ".join(_fmt(d) for d in rep.drift),
             f"max |drift| = {_fmt(rep.max_abs_drift)}",
             f"max shifted-state mismatch = {_fmt(rep.max_mismatch)}"]
    return rep, lines


def _check_balance(rep: LedgerReport, lines):
    """Certified runs must not drift; uncertified runs must show the mismatch."""
    if rep.certified:
        ok = rep.max_abs_drift <= DRIFT_TOL
        lines.append(f"{'PASS' if ok else 'FAIL'}: certified drift <= "
                     f"{_fmt(DRIFT_TOL)}")
    else:
        ok = rep.max_mismatch > MISMATCH_FLOOR
        lines.append(f"{'PASS' if ok else 'FAIL'}: uncertified run exhibits "
                     f"shifted-state mismatch > {_fmt(MISMATCH_FLOOR)}")
    return ok


def run_advdiff_balance(config: ExperimentConfig):
    params = config.params()
    dts = config.step_sizes()
    mesh = advdiff.Mesh1D(config.n_elements)
    forcing = (lambda x, t: np.ones_like(x)) if config.forcing == "unit" else None
    pde = advdiff.AdvDiffConfig(a=config.a, kappa=config.kappa, f=forcing,
                                u0=_bump, stabilization=config.stabilization)
    system = advdiff.AdvDiffSystem(mesh, pde, dts[0])
    u0 = advdiff.project_initial(mesh, _bump)
    state = StatePair(u0, consistent_initial_rate(system, u0, 0.0,
                                                  _LEDGER_NEWTON), 0.0)
    ledger = BalanceLedger()
    integrate(system, state, dts, params, _LEDGER_NEWTON, ledger)
    rep, lines = _ledger_lines(ledger)
    ok = _check_balance(rep, lines)
    if config.forcing == "unit" and ledger.uniform_dt:
        growth = (ledger.entries[-1].shifted_total_plus[0]
                  - ledger.entries[0].shifted_total_minus[0])
        expected = len(dts) * dts[0]
        grew = abs(growth - expected) <= DRIFT_TOL
        lines.append(f"shifted total growth = {_fmt(growth)} "
                     f"(n_steps*dt = {_fmt(expected)})")
        lines.append(f"{'PASS' if grew else 'FAIL'}: unit forcing grows the "
                     f"total by n_steps*dt")
        ok = ok and grew
    return lines, {"balance.csv": report_to_csv(rep)}, ok


def _conserved_initial(config: ExperimentConfig):
    if config.model == "burgers":
        model = conslaw.Burgers1D()
        amp = config.amplitude

        def ic(x):
            return np.array([amp * np.sin(2 * np.pi * x)])
    else:
        model = conslaw.Euler1D(config.gamma_gas)
        g = config.gamma_gas

        def ic(x):
            rho, vel, pres = euler_primitive_fields(x, config.amplitude)
            return np.array([rho, rho * vel,
                             pres / (g - 1.0) + 0.5 * rho * vel ** 2])
    return model, ic


def run_conslaw_balance(config: ExperimentConfig):
    params = config.params()
    dts = config.step_sizes()
    space = conslaw.PeriodicFemSpace(config.n_elements)
    model, ic = _conserved_initial(config)
    stabilization = "supg-like" if config.stabilization == "supg" else "none"
    system = conslaw.ConservedSystem(space, model, stabilization)
    u0 = system.project(ic)
    state = StatePair(u0, consistent_initial_rate(system, u0, 0.0,
                                                  _LEDGER_NEWTON), 0.0)
    ledger = BalanceLedger()
    integrate(system, state, dts, params, _LEDGER_NEWTON, ledger)
    rep, lines = _ledger_lines(ledger)
    lines.insert(0, f"model = {config.model}, {config.n_elements} elements")
    ok = _check_balance(rep, lines)
    return lines, {"balance.csv": report_to_csv(rep)}, ok


def run_nonconservative_compare(config: ExperimentConfig):
    params = config.params()
    dts = config.step_sizes()
    space = conslaw.PeriodicFemSpace(config.n_elements)
    model = conslaw.Euler1D(config.gamma_gas)
    varmap = conslaw.PressurePrimitiveMap(config.gamma_gas, 1.0)

    def ic(x):
        rho, vel, pres = euler_primitive_fields(x, config.amplitude)
        return np.array([pres, vel, pres / rho])

    standard = conslaw.NonconservativeSystem(space, model, varmap)
    modified = conslaw.ModifiedNonconservativeSystem(space, model, varmap)
    v0 = standard.project(ic)
    state0 = StatePair(v0, consistent_initial_rate(standard, v0, 0.0,
                                                   _LEDGER_NEWTON), 0.0)

    # the modified system refuses nonuniform schedules, as the scheme requires
    drifts = []
    for system in (standard, modified):
        ledger = BalanceLedger()
        integrate(system, state0, dts, params, _LEDGER_NEWTON, ledger)
        drifts.append(ledger.drift())
    std, mod = drifts
    std_visible = bool(np.max(np.abs(std)) > MISMATCH_FLOOR)
    mod_small = bool(np.max(np.abs(mod)) <= DRIFT_TOL)
    lines = ["pressure-primitive Euler, standard vs modified temporal term",
             "standard drift = " + ", ".join(_fmt(d) for d in std),
             "modified drift = " + ", ".join(_fmt(d) for d in mod),
             f"{'PASS' if std_visible else 'FAIL'}: standard scheme drifts "
             f"beyond {_fmt(MISMATCH_FLOOR)}",
             f"{'PASS' if mod_small else 'FAIL'}: modified scheme conserves "
             f"to {_fmt(DRIFT_TOL)}"]
    csv = ["component,drift_standard,drift_modified"]
    for c in range(model.p):
        csv.append(f"{c},{_fmt(std[c])},{_fmt(mod[c])}")
    return lines, {"compare.csv": "\n".join(csv) + "\n"}, std_visible and mod_small


def _scaled_identity_residuals(fields, dts, params):
    """Each step's velocity-level identity residual over max(1, |Ü_{n+am}|),
    from the (u, u_dot, u_ddot) rows `fields` of a trajectory."""
    before = SecondOrderState(*fields[:, :-1], 0.0)
    after = SecondOrderState(*fields[:, 1:], 0.0)
    am = params.alpha_m
    a_am = (1 - am) * before.u_ddot + am * after.u_ddot
    return (second_order_identity_residual(before, after,
                                           np.array(dts)[:, None], params)
            / np.maximum(1.0, np.abs(a_am).max(axis=1)))


def run_second_order_identity(config: ExperimentConfig):
    params = config.params()
    dts = config.step_sizes()
    osc = HarmonicOscillator()
    a0 = consistent_initial_acceleration(osc, [1.0], [0.0], 0.0)
    state = SecondOrderState([1.0], [0.0], a0, 0.0)
    # the trajectory as rows, so the identity is checked for all steps at once
    fields = np.empty((3, len(dts) + 1, osc.dimension()))
    times = np.empty(len(dts))
    fields[:, 0] = state.u, state.u_dot, state.u_ddot
    for n, dt in enumerate(dts):
        state = step_second_order(osc, state, dt, params)
        fields[:, n + 1] = state.u, state.u_dot, state.u_ddot
        times[n] = state.t
    scaled = _scaled_identity_residuals(fields, dts, params)
    del fields   # the csv lines need only the times and residuals
    worst = float(scaled.max(initial=0.0))
    csv = ["step,t,identity_residual"]
    csv += [f"{n},{_fmt(t)},{_fmt(r)}"
            for n, (t, r) in enumerate(zip(times, scaled))]
    identity_ok = worst <= IDENTITY_TOL
    lines = [f"oscillator d2u/dt2 = -u over {len(dts)} steps",
             f"max scaled velocity-level identity residual = {_fmt(worst)}",
             f"{'PASS' if identity_ok else 'FAIL'}: identity residual <= "
             f"{_fmt(IDENTITY_TOL)}"]
    ok = identity_ok
    if abs(state.t - 1.0) <= 1e-12:
        err = abs(state.u[0] - np.cos(1.0))
        err_ok = err <= OSCILLATOR_ERR_TOL
        lines.append(f"|u(1) - cos(1)| = {_fmt(err)}")
        lines.append(f"{'PASS' if err_ok else 'FAIL'}: solution error <= "
                     f"{_fmt(OSCILLATOR_ERR_TOL)}")
        ok = ok and err_ok
    return lines, {"identity.csv": "\n".join(csv) + "\n"}, ok


_RUNNERS = {
    "ode-convergence": run_ode_convergence,
    "amplification-sweep": run_amplification_sweep,
    "advdiff-balance": run_advdiff_balance,
    "conslaw-balance": run_conslaw_balance,
    "nonconservative-compare": run_nonconservative_compare,
    "second-order-identity": run_second_order_identity,
}


def run_experiment(config: ExperimentConfig, out_dir=None, quiet: bool = False) -> int:
    """Run one experiment; write CSVs and summary; return the exit code.

    0: all asserted tolerances met; 2: a tolerance failed.  Runtime errors
    propagate to the caller (the CLI maps them to exit 1).
    """
    from pathlib import Path

    target = Path(out_dir if out_dir is not None else config.out_dir)
    lines, csvs, ok = _RUNNERS[config.experiment](config)
    header = [f"experiment = {config.experiment}",
              f"integrator = {config.params()}"]
    summary = "\n".join(header + lines) + "\n"
    target.mkdir(parents=True, exist_ok=True)
    (target / "summary.txt").write_text(summary)
    if config.write_csv:
        for name, text in csvs.items():
            (target / f"{config.experiment}-{name}").write_text(text)
    if not quiet:
        print(summary, end="")
        print(f"exit code: {0 if ok else 2}")
    return 0 if ok else 2
