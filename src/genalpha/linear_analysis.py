"""Amplification-matrix and order-of-accuracy diagnostics on u̇ = lam*u."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrator import (GenAlphaParams, NewtonSettings, StatePair,
                         consistent_initial_rate, integrate, step)
from .odes import ScalarLinear

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AmplificationMatrix:
    """2x2 map of (U_n, dt*U̇_n) to (U_{n+1}, dt*U̇_{n+1}) at fixed z = lam*dt."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("amplification entries must be finite")
        object.__setattr__(self, "entries", entries)


def amplification_matrix(z, params: GenAlphaParams) -> AmplificationMatrix:
    """Amplification matrix for u̇ = lam*u at z = lam*dt.

    Column j is one exact generalized-alpha step applied to the j-th unit
    state of (U, dt*U̇); taking dt = 1 and lam = z, the Newton solve inside
    `step` is exact in a single iteration because the problem is linear.
    """
    system = ScalarLinear(z)
    # the residual evaluates terms of size |z|, so its rounding floor scales
    # with |z|; the solve itself is exact after one iteration
    newton = NewtonSettings(abs_tol=1e-12 * max(1.0, abs(z)), rel_tol=1e-15,
                            max_iters=12)
    dtype = complex if np.iscomplexobj(z) else float
    cols = []
    for unit in ((1.0, 0.0), (0.0, 1.0)):
        state = StatePair(np.array([unit[0]], dtype=dtype),
                          np.array([unit[1]], dtype=dtype), 0.0)
        out = step(system, state, 1.0, params, newton)
        cols.append((out.u[0], out.u_dot[0]))
    return AmplificationMatrix(np.array(cols).T)


def spectral_radius(matrix: AmplificationMatrix) -> float:
    """Max modulus of the two eigenvalues, via the closed-form 2x2 formula."""
    a = matrix.entries
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.lib.scimath.sqrt(tr * tr - 4.0 * det)
    return float(max(abs((tr + disc) / 2.0), abs((tr - disc) / 2.0)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Final-time errors over a dt sweep and the fitted observed order."""

    dt_values: tuple[float, ...]
    errors: tuple[float, ...]
    observed_order: float
    degenerate: bool = False

    def __post_init__(self):
        if len(self.dt_values) != len(self.errors):
            raise ValueError("dt_values and errors must have equal length")
        _check_ladder(self.dt_values)


def _check_ladder(dt_values: Sequence[float]) -> None:
    if len(dt_values) < 3:
        raise ValueError("need at least 3 dt values")
    if any(b >= a for a, b in zip(dt_values, dt_values[1:])):
        raise ValueError("dt values must be strictly decreasing")


def ladder_steps(t_final: float, dt_values: Sequence[float]) -> list[int]:
    """Steps each dt takes to t_final in an order study, whose dt ladder
    needs at least 3 strictly decreasing dts, each dividing t_final into a
    finite number of steps."""
    _check_ladder(dt_values)
    steps = []
    for dt in dt_values:
        ratio = t_final / dt
        if not math.isfinite(ratio):
            raise ValueError(f"t_final/dt = {t_final}/{dt} is not finite")
        steps.append(round(ratio))
        if abs(steps[-1] * dt - t_final) > 1e-9 * t_final:
            raise ValueError(f"t_final={t_final} is not a multiple of dt={dt}")
    return steps


def observed_order(system, t_final: float, dt_values: Sequence[float],
                   params: GenAlphaParams) -> ConvergenceReport:
    """Integrate to t_final for each dt of a `ladder_steps` ladder and fit
    the error slope.

    The system must expose an `exact(t)` solution.  Errors at the rounding
    floor (below 1e3*eps*max(1, |exact|)) are excluded from the least-squares
    fit; if fewer than two points survive, the report is flagged degenerate.
    """
    dt_values = tuple(float(dt) for dt in dt_values)
    u_ref = np.atleast_1d(system.exact(t_final))
    errors = []
    for dt, n_steps in zip(dt_values, ladder_steps(t_final, dt_values)):
        state0 = StatePair(system.exact(0.0),
                           consistent_initial_rate(system, system.exact(0.0)), 0.0)
        state = integrate(system, state0, [dt] * n_steps, params)[-1]
        errors.append(float(np.linalg.norm(state.u - u_ref, np.inf)))

    floor = 1e3 * _EPS * max(1.0, float(np.linalg.norm(u_ref, np.inf)))
    keep = [i for i, e in enumerate(errors) if e > floor]
    if len(keep) < 2:
        return ConvergenceReport(dt_values, tuple(errors), float("nan"),
                                 degenerate=True)
    log_dt = np.log([dt_values[i] for i in keep])
    log_err = np.log([errors[i] for i in keep])
    slope = np.polyfit(log_dt, log_err, 1)[0]
    return ConvergenceReport(dt_values, tuple(errors), float(slope))
