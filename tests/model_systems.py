"""Model systems that only the tests use: a generic first-order ODE with an
analytic Jacobian, free drift in the first- and second-order settings, and
the identity variable map; and the stabilization forms of the advection-
diffusion and conservation-law systems."""

from __future__ import annotations

from typing import Callable

import numpy as np

from genalpha.conslaw import _field_values


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


class IdentityMap:
    """The variable map U(V) = V on p components, in the unchecked form the
    conservation-law systems call: `NonconservativeSystem` with it is the
    conserved discretization."""

    def __init__(self, p: int):
        self.p = p

    def check(self, v, x=None):
        pass

    def _to_conserved(self, v):
        return v

    def _jacobian(self, v):
        return np.broadcast_to(np.eye(self.p), np.shape(v) + (self.p,))

    def _hessian(self, v):
        return np.zeros(np.shape(v) + (self.p, self.p))


def advdiff_stabilization_form(system, v, w) -> float:
    """SUPG form S(v, w) = sum_e int tau (a w') (a v') of an `AdvDiffSystem`;
    zero for constant w."""
    if system.tau == 0.0:
        return 0.0
    dx, a = system.mesh.dx, system.config.a
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    dv = (v[1:] - v[:-1]) / dx
    dw = (w[1:] - w[:-1]) / dx
    return float(np.sum(dx * system.tau * (a * dw) * (a * dv)))


def conslaw_stabilization_form(system, v, w) -> float:
    """Componentwise gradient-penalty form S(v, w) of a `ConservedSystem`;
    zero when w is constant."""
    if system.stab == 0.0:
        return 0.0
    _, dv = _field_values(system.space, v, system.p)
    _, dw = _field_values(system.space, w, system.p)
    return float(np.sum(system.space.integrate(system.stab * dv * dw)))
