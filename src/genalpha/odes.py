"""Small model ODE systems used by diagnostics, experiments, and tests."""

from __future__ import annotations

from typing import Callable

import numpy as np


class ScalarLinear:
    """u̇ = lam*u as a residual system: R = u̇ - lam*u.

    `lam` may be complex, in which case states are complex as well.  Carries
    the exact solution u0*exp(lam*t) for convergence studies.
    """

    def __init__(self, lam, u0=1.0):
        self.lam = lam
        self.u0 = u0

    def dimension(self) -> int:
        return 1

    def residual(self, u_dot, u, t):
        return u_dot - self.lam * u

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        dtype = np.result_type(type(self.lam), u.dtype, float)
        return np.array([[c_dot - c_u * self.lam]], dtype=dtype)

    def exact(self, t: float) -> np.ndarray:
        return np.atleast_1d(self.u0 * np.exp(self.lam * t))


class GenericFirstOrder:
    """u̇ = f(u, t) with analytic Jacobian df/du; R = u̇ - f(u, t).

    `f` returns an m-vector and `jac` the m-by-m derivative of f in u.
    An optional `exact` callable enables convergence studies.
    """

    def __init__(self, f: Callable, jac: Callable, m: int,
                 exact: Callable | None = None):
        self.f = f
        self.jac = jac
        self.m = m
        self._exact = exact

    def dimension(self) -> int:
        return self.m

    def residual(self, u_dot, u, t):
        return u_dot - self.f(u, t)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return c_dot * np.eye(self.m) - c_u * np.asarray(self.jac(u, t))

    def exact(self, t: float) -> np.ndarray:
        if self._exact is None:
            raise AttributeError("no exact solution attached")
        return np.atleast_1d(self._exact(t))


class PureDrift:
    """R = u̇ (every constant state is steady)."""

    def __init__(self, m: int = 1):
        self.m = m

    def dimension(self) -> int:
        return self.m

    def residual(self, u_dot, u, t):
        return np.array(u_dot, copy=True)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return c_dot * np.eye(self.m)


class HarmonicOscillator:
    """R = ü + omega^2 u, the scalar second-order test problem."""

    def __init__(self, omega: float = 1.0):
        self.omega = omega

    def dimension(self) -> int:
        return 1

    def residual(self, u_ddot, u_dot, u, t):
        return u_ddot + self.omega ** 2 * u

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        return np.array([[c_ddot + c_u * self.omega ** 2]])


class SecondOrderDrift:
    """R = ü (free drift in the second-order setting)."""

    def dimension(self) -> int:
        return 1

    def residual(self, u_ddot, u_dot, u, t):
        return np.array(u_ddot, copy=True)

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        return np.array([[c_ddot]])
