"""Model systems that only the tests use: a generic first-order ODE with an
analytic Jacobian, and free drift in the first- and second-order settings."""

from __future__ import annotations

from typing import Callable

import numpy as np


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

    def residual(self, u_dot, u, t):
        return np.array(u_dot, copy=True)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return c_dot * np.eye(self.m)


class SecondOrderDrift:
    """R = ü (free drift in the second-order setting)."""

    def residual(self, u_ddot, u_dot, u, t):
        return np.array(u_ddot, copy=True)

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        return np.array([[c_ddot]])
