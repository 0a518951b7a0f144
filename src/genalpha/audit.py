"""Per-step ledger for the fully-discrete balance laws.

Each recorded step stores the shifted total before the step, the source and
boundary-flux integrals at t_{n+alpha_f}, and the coefficient-space mismatch
between this step's shifted minus-state and the previous step's shifted
plus-state (identically zero on a uniform mesh).  The ledger certifies the
balance law only under its hypotheses: uniform dt, second-order parameters,
and a discretization that admits the law in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import _REL_DT_TOL, GenAlphaParams, StatePair, shifted_state


@dataclass(frozen=True)
class LedgerEntry:
    step: int
    t_alpha_f: float
    shifted_total_minus: np.ndarray
    shifted_total_plus: np.ndarray
    source_integral: np.ndarray
    boundary_outflow: float
    mismatch: float


@dataclass(frozen=True)
class LedgerReport:
    """Deterministic, serializable summary of a ledger."""

    certified: bool
    uniform_dt: bool
    n_steps: int
    drift: tuple[float, ...]
    max_abs_drift: float
    max_mismatch: float
    table: tuple[tuple, ...]  # rows of (step, t_alpha_f, comp, minus, src, out, drift)


class BalanceLedger:
    """Accumulates the two sides of a discrete balance law over a run.

    Starts empty; entry k of `entries` is the k-th step recorded, from 0.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.uniform_dt = True
        self._dt0: float | None = None
        self._second_order = True
        self._admits = True
        self._prev_plus_vec: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        """Balance guaranteed only for uniform dt, second-order params, and a
        discretization admitting the law."""
        return self.uniform_dt and self._second_order and self._admits

    def record_step(self, system, state_n: StatePair, state_np1: StatePair,
                    params: GenAlphaParams, dt: float) -> "BalanceLedger":
        """Append one step's ledger row from two consecutive stepper states."""
        if state_n.u.shape != state_np1.u.shape:
            raise ValueError("inconsistent state dimensions")
        af = params.alpha_f
        if self._dt0 is None:
            self._dt0 = dt
        elif abs(dt - self._dt0) > _REL_DT_TOL * abs(self._dt0):
            self.uniform_dt = False
        self._second_order = self._second_order and params.is_second_order()
        self._admits = self._admits and getattr(system, "admits_balance_law", True)

        u_af = (1.0 - af) * state_n.u + af * state_np1.u
        t_af = state_n.t + af * dt
        minus_vec = shifted_state(state_n, dt, af)
        mismatch = 0.0
        if self._prev_plus_vec is not None:
            mismatch = float(np.linalg.norm(minus_vec - self._prev_plus_vec, np.inf))
        self._prev_plus_vec = shifted_state(state_np1, dt, af)

        self.entries.append(LedgerEntry(
            step=len(self.entries),
            t_alpha_f=t_af,
            shifted_total_minus=np.asarray(
                system.shifted_balance_total(state_n, dt, af), dtype=float),
            shifted_total_plus=np.asarray(
                system.shifted_balance_total(state_np1, dt, af), dtype=float),
            source_integral=dt * np.asarray(
                system.balance_source(u_af, t_af), dtype=float),
            boundary_outflow=dt * float(system.balance_outflow(u_af, t_af)),
            mismatch=mismatch,
        ))
        return self

    def drift(self) -> np.ndarray:
        """(final shifted total) - (first shifted total) - sum(sources) + sum(outflow)."""
        if not self.entries:
            raise ValueError("ledger is empty")
        first = self.entries[0].shifted_total_minus
        last = self.entries[-1].shifted_total_plus
        sources = np.sum([e.source_integral for e in self.entries], axis=0)
        outflow = sum(e.boundary_outflow for e in self.entries)
        return last - first - sources + outflow

    @property
    def max_mismatch(self) -> float:
        return max((e.mismatch for e in self.entries), default=0.0)

    def report(self) -> LedgerReport:
        if not self.entries:
            raise ValueError("ledger is empty")
        drift = self.drift()
        p = drift.shape[0]
        first = self.entries[0].shifted_total_minus
        rows = []
        src_accum = np.zeros(p)
        out_accum = 0.0
        for e in self.entries:
            src_accum = src_accum + e.source_integral
            out_accum += e.boundary_outflow
            for c in range(p):
                running = (e.shifted_total_plus[c] - first[c]
                           - src_accum[c] + out_accum)
                rows.append((e.step, e.t_alpha_f, c, e.shifted_total_minus[c],
                             src_accum[c], out_accum, running))
        return LedgerReport(
            certified=self.certified,
            uniform_dt=self.uniform_dt,
            n_steps=len(self.entries),
            drift=tuple(float(d) for d in drift),
            max_abs_drift=float(np.max(np.abs(drift))),
            max_mismatch=self.max_mismatch,
            table=tuple(rows),
        )


def report_to_csv(rep: LedgerReport) -> str:
    """CSV serialization, 17 significant digits throughout."""
    lines = ["step,t_alpha_f,component,shifted_total_minus,source_accum,"
             "outflow_accum,drift"]
    for row in rep.table:
        step, t_af, comp, minus, src, out, drift = row
        lines.append(f"{step},{t_af:.17g},{comp},{minus:.17g},{src:.17g},"
                     f"{out:.17g},{drift:.17g}")
    return "\n".join(lines) + "\n"
