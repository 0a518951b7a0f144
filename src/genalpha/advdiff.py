"""1D stabilized Galerkin semi-discretization of advection-diffusion.

Solves u_t + (a*u - kappa*u_x)_x = f on (0,1) with flux boundary data h at
both endpoints and the advective outflow term on the a*n >= 0 part of the
boundary.  Continuous piecewise-linear elements on a uniform mesh, 2-point
Gauss quadrature for every integral (residual, loads, projections, and
totals all share the rule, so the discrete balance law is an identity of
the assembled operators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .integrator import StatePair

# 2-point Gauss rule on the reference element [0, 1]
_QP = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
_QW = (0.5, 0.5)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of the unit interval with n_elements linear elements."""

    n_elements: int
    nodes: np.ndarray = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be positive")
        object.__setattr__(self, "dx", 1.0 / self.n_elements)
        object.__setattr__(self, "nodes", np.linspace(0.0, 1.0, self.n_elements + 1))


def _zero(x, t=0.0):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AdvDiffConfig:
    """Problem data: constant advection a, diffusivity kappa > 0, loads, IC."""

    a: float = 1.0
    kappa: float = 0.01
    f: Callable | None = None          # body force f(x, t), vectorized in x
    h_in: Callable | None = None       # applied flux at x = 0, function of t
    h_out: Callable | None = None      # applied flux at x = 1, function of t
    u0: Callable | None = None         # initial condition u0(x)
    stabilization: str = "none"

    def __post_init__(self):
        if not (self.kappa > 0.0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.stabilization not in ("none", "supg"):
            raise ValueError(f"unknown stabilization {self.stabilization!r}")


def supg_tau(dx: float, a: float, kappa: float, dt: float) -> float:
    """Transient SUPG parameter ((2|a|/dx)^2 + (4 kappa/dx^2)^2 + (2/dt)^2)^(-1/2)."""
    return float(((2.0 * abs(a) / dx) ** 2 + (4.0 * kappa / dx ** 2) ** 2
                  + (2.0 / dt) ** 2) ** -0.5)


def element_mass(dx: float) -> np.ndarray:
    """Element mass matrix via the shared quadrature (= dx/6 * [[2,1],[1,2]])."""
    m = np.zeros((2, 2))
    for xi, w in zip(_QP, _QW):
        phi = np.array([1.0 - xi, xi])
        m += dx * w * np.outer(phi, phi)
    return m


def element_stiffness(dx: float, kappa: float) -> np.ndarray:
    """Element diffusion matrix kappa * int(phi_i' phi_j')."""
    dphi = np.array([-1.0 / dx, 1.0 / dx])
    k = np.zeros((2, 2))
    for _, w in zip(_QP, _QW):
        k += dx * w * kappa * np.outer(dphi, dphi)
    return k


def element_advection(dx: float, a: float) -> np.ndarray:
    """Element convective matrix a * int(phi_i phi_j') (= a/2 * [[-1,1],[-1,1]])."""
    dphi = np.array([-1.0 / dx, 1.0 / dx])
    c = np.zeros((2, 2))
    for xi, w in zip(_QP, _QW):
        phi = np.array([1.0 - xi, xi])
        c += dx * w * a * np.outer(phi, dphi)
    return c


class AdvDiffSystem:
    """Assembled residual system R(u̇, u, t) for the advection-diffusion problem.

    R(u̇, u, t) = M_dot u̇ + K u - F(t) where M_dot and K include the SUPG
    perturbation when enabled; F(t) gathers body-force, boundary-flux, and
    SUPG load terms; dt enters only the SUPG parameter.  Immutable after
    construction; evaluation is pure.
    """

    admits_balance_law = True

    def __init__(self, mesh: Mesh1D, config: AdvDiffConfig, dt: float = np.inf):
        self.mesh = mesh
        self.config = config
        self.m = mesh.n_elements + 1
        self.f = config.f if config.f is not None else _zero
        self.h_in = config.h_in if config.h_in is not None else (lambda t: 0.0)
        self.h_out = config.h_out if config.h_out is not None else (lambda t: 0.0)
        self.tau = (supg_tau(mesh.dx, config.a, config.kappa, dt)
                    if config.stabilization == "supg" else 0.0)

        # quadrature points, element by element
        self.x_quad = (mesh.nodes[:-1, None]
                       + mesh.dx * np.asarray(_QP)[None, :])  # (n_el, 2)

        n, dx, a, kappa = mesh.n_elements, mesh.dx, config.a, config.kappa
        mass = np.zeros((self.m, self.m))
        mass_supg = np.zeros((self.m, self.m))
        stiff = np.zeros((self.m, self.m))
        m_el = element_mass(dx)
        k_el = element_stiffness(dx, kappa)
        flux_el = -element_advection(dx, a).T    # weak term -int(a u phi_i')
        dphi = np.array([-1.0 / dx, 1.0 / dx])
        supg_mass_el = np.zeros((2, 2))          # tau * int(a phi_i' phi_j)
        supg_adv_el = np.zeros((2, 2))           # tau * int(a phi_i' a phi_j')
        for xi, w in zip(_QP, _QW):
            phi = np.array([1.0 - xi, xi])
            supg_mass_el += dx * w * self.tau * a * np.outer(dphi, phi)
            supg_adv_el += dx * w * self.tau * a * a * np.outer(dphi, dphi)
        for e in range(n):
            sl = slice(e, e + 2)
            mass[sl, sl] += m_el
            mass_supg[sl, sl] += supg_mass_el
            stiff[sl, sl] += k_el + flux_el + supg_adv_el

        # outflow boundary term (a*n >= 0 convention); n = -1 at x=0, +1 at x=1
        self._outflow_points = [(i, nrm) for i, nrm in ((0, -1.0), (self.m - 1, 1.0))
                                if a * nrm >= 0.0]
        for i, nrm in self._outflow_points:
            stiff[i, i] += a * nrm

        self.mass = mass                  # plain Galerkin mass, used by totals
        self.mass_dot = mass + mass_supg  # multiplies u̇ in the residual
        self.stiffness = stiff

    def dimension(self) -> int:
        return self.m

    def load_vector(self, t: float) -> np.ndarray:
        """Body force, boundary flux, and SUPG load at time t."""
        out = np.zeros(self.m)
        dx, a = self.mesh.dx, self.config.a
        f_q = np.asarray(self.f(self.x_quad, t), dtype=float)
        for q, (xi, w) in enumerate(zip(_QP, _QW)):
            phi = np.array([1.0 - xi, xi])
            contrib = dx * w * f_q[:, q]
            np.add.at(out, np.arange(self.mesh.n_elements), contrib * phi[0])
            np.add.at(out, np.arange(1, self.m), contrib * phi[1])
            if self.tau != 0.0:
                supg = w * self.tau * a * f_q[:, q]   # dx * (±1/dx) cancels
                np.add.at(out, np.arange(self.mesh.n_elements), -supg)
                np.add.at(out, np.arange(1, self.m), supg)
        out[0] += self.h_in(t)
        out[-1] += self.h_out(t)
        return out

    def residual(self, u_dot, u, t):
        return self.mass_dot @ u_dot + self.stiffness @ u - self.load_vector(t)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return c_dot * self.mass_dot + c_u * self.stiffness

    # -- balance-law audit surface -------------------------------------------

    n_balance_components = 1

    def total(self, u) -> float:
        """Integral of u^h over the domain, with the residual's mass operator."""
        return float(np.sum(self.mass @ u))

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        return np.array([self.total(state.u + (alpha_f - 0.5) * dt * state.u_dot)])

    def balance_source(self, u_alpha_f, t_alpha_f: float) -> np.ndarray:
        dx = self.mesh.dx
        f_q = np.asarray(self.f(self.x_quad, t_alpha_f), dtype=float)
        body = float(sum(dx * w * f_q[:, q].sum() for q, w in enumerate(_QW)))
        return np.array([body + self.h_in(t_alpha_f) + self.h_out(t_alpha_f)])

    def balance_outflow(self, u_alpha_f, t_alpha_f: float) -> float:
        return outflow_flux(self, u_alpha_f, t_alpha_f)


def project_initial(mesh: Mesh1D, u0: Callable) -> np.ndarray:
    """L2 projection of u0 onto the linear nodal basis (quadrature-consistent)."""
    m = mesh.n_elements + 1
    mass = np.zeros((m, m))
    rhs = np.zeros(m)
    m_el = element_mass(mesh.dx)
    x_quad = mesh.nodes[:-1, None] + mesh.dx * np.asarray(_QP)[None, :]
    u0_q = np.asarray(u0(x_quad), dtype=float)
    for e in range(mesh.n_elements):
        sl = slice(e, e + 2)
        mass[sl, sl] += m_el
        for q, (xi, w) in enumerate(zip(_QP, _QW)):
            phi = np.array([1.0 - xi, xi])
            rhs[sl] += mesh.dx * w * u0_q[e, q] * phi
    return np.linalg.solve(mass, rhs)


def outflow_flux(system: AdvDiffSystem, u, t: float = 0.0) -> float:
    """Advective outflow (a*n) u^h summed over boundary points with a*n >= 0."""
    a = system.config.a
    return float(sum(a * nrm * u[i] for i, nrm in system._outflow_points))


def stabilization_form(system: AdvDiffSystem, v, w) -> float:
    """SUPG form S(v, w) = sum_e int tau (a w') (a v'); zero for constant w."""
    if system.tau == 0.0:
        return 0.0
    dx, a = system.mesh.dx, system.config.a
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    dv = (v[1:] - v[:-1]) / dx
    dw = (w[1:] - w[:-1]) / dx
    return float(np.sum(dx * system.tau * (a * dw) * (a * dv)))
