import numpy as np
import pytest

from genalpha import (GenAlphaParams, StatePair, consistent_initial_rate,
                      integrate, params_from_rho_inf, step)
from genalpha.advdiff import AdvDiffConfig, AdvDiffSystem, Mesh1D, project_initial
from genalpha.audit import BalanceLedger, report_to_csv
from genalpha.conslaw import Burgers1D, ConservedSystem, PeriodicFemSpace

P = params_from_rho_inf(0.5)


def bump(x):
    return np.exp(-((x - 0.3) / 0.08) ** 2)


def advdiff_run(config, dts, n_elements=32, dt_tau=None):
    mesh = Mesh1D(n_elements)
    system = AdvDiffSystem(mesh, config,
                           dt_tau if dt_tau is not None else dts[0])
    u0 = project_initial(mesh, bump)
    state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
    ledger = BalanceLedger()
    states = integrate(system, state, dts, P, ledger=ledger)
    return system, states, ledger


class TestRecordStep:
    def test_zero_source_zero_flux(self):
        config = AdvDiffConfig(a=0.0, kappa=1.0)
        _, _, ledger = advdiff_run(config, [1e-3] * 3)
        for entry in ledger.entries:
            assert entry.source_integral[0] == 0.0
            assert entry.boundary_outflow == 0.0

    def test_unit_forcing_source_integral_is_dt(self):
        config = AdvDiffConfig(a=0.0, kappa=1.0,
                               f=lambda x, t: np.ones_like(x))
        _, _, ledger = advdiff_run(config, [1e-3] * 3)
        for entry in ledger.entries:
            assert entry.source_integral[0] == pytest.approx(1e-3, abs=1e-18)

    def test_burgers_source_free(self):
        space = PeriodicFemSpace(16)
        system = ConservedSystem(space, Burgers1D())
        u0 = system.project(lambda x: np.array([0.1 * np.sin(2 * np.pi * x)]))
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
        ledger = BalanceLedger()
        for _ in range(3):
            nxt = step(system, state, 1e-3, P)
            ledger.record_step(system, state, nxt, P, 1e-3)
            state = nxt
        assert all(np.all(e.source_integral == 0.0) for e in ledger.entries)

    def test_mismatch_zero_on_uniform_mesh(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        _, _, ledger = advdiff_run(config, [1e-3] * 5)
        assert ledger.max_mismatch == 0.0
        assert ledger.uniform_dt


class TestDrift:
    def test_certified_advection_diffusion_run(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01, stabilization="supg")
        _, _, ledger = advdiff_run(config, [1e-3] * 50, n_elements=64)
        assert ledger.certified
        assert abs(ledger.drift()[0]) <= 1e-12

    def test_forced_run_total_grows_by_n_dt(self):
        config = AdvDiffConfig(a=0.0, kappa=1.0,
                               f=lambda x, t: np.ones_like(x))
        system, states, ledger = advdiff_run(config, [1e-3] * 40)
        assert abs(ledger.drift()[0]) <= 1e-12
        t_first = ledger.entries[0].shifted_total_minus[0]
        t_last = ledger.entries[-1].shifted_total_plus[0]
        assert t_last - t_first == pytest.approx(40 * 1e-3, abs=1e-12)

    def test_nonuniform_run_drifts_and_is_uncertified(self):
        config = AdvDiffConfig(a=0.0, kappa=1.0,
                               f=lambda x, t: np.ones_like(x))
        dts = [1e-3 if i % 2 == 0 else 2e-3 for i in range(40)]
        _, _, ledger = advdiff_run(config, dts, dt_tau=1e-3)
        assert not ledger.certified
        assert not ledger.uniform_dt
        assert abs(ledger.drift()[0]) > 1e-10
        assert ledger.max_mismatch > 1e-10

    def test_non_second_order_params_uncertified(self):
        mesh = Mesh1D(16)
        config = AdvDiffConfig(a=0.0, kappa=1.0)
        system = AdvDiffSystem(mesh, config)
        u0 = project_initial(mesh, bump)
        bad = GenAlphaParams(0.5, 0.5, 1.0)
        state = StatePair(u0, consistent_initial_rate(system, u0, 0.0), 0.0)
        ledger = BalanceLedger()
        nxt = step(system, state, 1e-3, bad)
        ledger.record_step(system, state, nxt, bad, 1e-3)
        assert ledger.uniform_dt
        assert not ledger.certified

    def test_telescoping(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        system, states, full = advdiff_run(config, [1e-3] * 12)
        for k in (3, 7):
            head, tail = BalanceLedger(), BalanceLedger()
            for i in range(k):
                head.record_step(system, states[i], states[i + 1], P, 1e-3)
            for i in range(k, 12):
                tail.record_step(system, states[i], states[i + 1], P, 1e-3)
            assert head.drift()[0] + tail.drift()[0] == pytest.approx(
                full.drift()[0], abs=1e-14)

    def test_reconstruction_matches_incremental(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        system, states, incremental = advdiff_run(config, [1e-3] * 10)
        rebuilt = BalanceLedger()
        for s0, s1 in zip(states, states[1:]):
            rebuilt.record_step(system, s0, s1, P, 1e-3)
        assert abs(rebuilt.drift()[0] - incremental.drift()[0]) <= 1e-14

    def test_empty_ledger_error(self):
        with pytest.raises(ValueError):
            BalanceLedger().drift()


class TestReport:
    def test_single_step_table(self):
        config = AdvDiffConfig(a=0.0, kappa=1.0)
        _, _, ledger = advdiff_run(config, [1e-3])
        rep = ledger.report()
        assert rep.n_steps == 1
        assert len(rep.table) == 1
        assert rep.certified

    def test_certified_flag_propagates(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        _, _, ledger = advdiff_run(config, [1e-3] * 4)
        assert ledger.report().certified
        dts = [1e-3, 2e-3, 1e-3, 2e-3]
        _, _, uncert = advdiff_run(config, dts, dt_tau=1e-3)
        assert not uncert.report().certified

    def test_csv_shape_and_precision(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        _, _, ledger = advdiff_run(config, [1e-3] * 3)
        text = report_to_csv(ledger.report())
        lines = text.strip().split("\n")
        assert lines[0] == ("step,t_alpha_f,component,shifted_total_minus,"
                            "source_accum,outflow_accum,drift")
        assert len(lines) == 4
        # 17 significant digits round-trip exactly
        minus = float(lines[1].split(",")[3])
        assert minus == ledger.entries[0].shifted_total_minus[0]

    def test_final_row_drift_matches_drift_op(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        _, _, ledger = advdiff_run(config, [1e-3] * 5)
        rep = ledger.report()
        assert rep.table[-1][-1] == pytest.approx(ledger.drift()[0], abs=1e-17)

    def test_csv_deterministic(self):
        config = AdvDiffConfig(a=1.0, kappa=0.01)
        _, _, l1 = advdiff_run(config, [1e-3] * 3)
        _, _, l2 = advdiff_run(config, [1e-3] * 3)
        assert report_to_csv(l1.report()) == report_to_csv(l2.report())
