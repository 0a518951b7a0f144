"""1D stabilized Galerkin semi-discretization of advection-diffusion.

Solves u_t + (a*u - kappa*u_x)_x = f on (0,1) with flux boundary data h at
both endpoints and the advective outflow term on the a*n >= 0 part of the
boundary.  Continuous piecewise-linear elements on a uniform mesh, 2-point
Gauss quadrature for every integral (residual, loads, projections, and
totals all share the rule, so the discrete balance law is an identity of
the assembled operators).  The operators are tridiagonal and stored as
`Tridiagonal`, so a step costs O(m) with no dense m×m array.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a}")
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


class Tridiagonal:
    """m×m tridiagonal matrix stored as its three diagonals.

    `data` is (3, m) in LAPACK's band layout: `data[0, 1:]` holds the
    superdiagonal A[i, i+1], `data[1]` the diagonal and `data[2, :-1]` the
    subdiagonal A[i+1, i]; `data[0, 0]` and `data[2, -1]` are unused zeros.
    `data` and `nnz` carry scipy.sparse's names, so code that sizes a sparse
    matrix from them sees 3m floats, not m^2.  `np.asarray` densifies.
    """

    def __init__(self, data):
        self.data = np.asarray(data, dtype=float)
        self.m = self.data.shape[1]
        self.nnz = 3 * self.m - 2

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.shape != (self.m,):
            raise ValueError(f"expected a vector of length {self.m}, got shape "
                             f"{x.shape}")
        sup, diag, sub = self.data
        y = diag * x
        y[:-1] += sup[1:] * x[1:]
        y[1:] += sub[:-1] * x[:-1]
        return y

    def __array__(self, dtype=None, copy=None):
        sup, diag, sub = self.data
        dense = np.diag(diag) + np.diag(sup[1:], 1) + np.diag(sub[:-1], -1)
        return dense if dtype is None else dense.astype(dtype)

    def solve(self, b) -> np.ndarray:
        """x with A x = b, by LU with partial pivoting in O(m).

        A port of LAPACK's dgttrf (factor) and dgttrs (solve): at each
        column the row with the larger of the diagonal and subdiagonal
        entry is the pivot row, which is the choice `np.linalg.solve` makes
        on a tridiagonal matrix.  A row swap fills a second superdiagonal.
        Raises `numpy.linalg.LinAlgError` on an exactly zero pivot.
        """
        b = np.asarray(b)
        if b.shape != (self.m,):
            raise ValueError(f"expected a right-hand side of length {self.m}, "
                             f"got shape {b.shape}")
        m = self.m
        sup, diag, sub = self.data
        d, du, dl = diag.tolist(), sup[1:].tolist(), sub[:-1].tolist()
        du2 = [0.0] * m
        swapped = [False] * m
        for i in range(m - 1):
            if not abs(d[i]) < abs(dl[i]):      # keep row i (also when nan)
                if d[i] != 0.0:
                    dl[i] /= d[i]
                    d[i + 1] -= dl[i] * du[i]
            else:                               # swap rows i and i+1
                fact = d[i] / dl[i]
                d[i], dl[i] = dl[i], fact
                du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
                if i < m - 2:
                    du2[i] = du[i + 1]
                    du[i + 1] = -fact * du[i + 1]
                swapped[i] = True
        if 0.0 in d:
            raise np.linalg.LinAlgError("Singular matrix")

        x = b.tolist()
        for i in range(m - 1):                  # L y = P b
            if swapped[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
            else:
                x[i + 1] -= dl[i] * x[i]
        x[m - 1] /= d[m - 1]                    # U x = y
        if m > 1:
            x[m - 2] = (x[m - 2] - du[m - 2] * x[m - 1]) / d[m - 2]
        for i in range(m - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return np.array(x)


def _assemble(element: np.ndarray, m: int) -> Tridiagonal:
    """Sum one 2×2 element matrix over the m - 1 elements of a uniform mesh."""
    data = np.zeros((3, m))
    data[0, 1:] = element[0, 1]
    data[1, :-1] += element[0, 0]
    data[1, 1:] += element[1, 1]
    data[2, :-1] = element[1, 0]
    return Tridiagonal(data)


def _load(dx: float, values_q: np.ndarray, tau: float = 0.0,
          a: float = 0.0) -> np.ndarray:
    """Assembled int(g phi_i) + tau*int(a g phi_i') from g at the (n_el, 2)
    quadrature points."""
    out = np.zeros(len(values_q) + 1)
    for q, (xi, w) in enumerate(zip(_QP, _QW)):
        contrib = dx * w * values_q[:, q]
        out[:-1] += contrib * (1.0 - xi)
        out[1:] += contrib * xi
        if tau != 0.0:
            supg = w * tau * a * values_q[:, q]   # dx * (±1/dx) cancels
            out[:-1] -= supg
            out[1:] += supg
    return out


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

        dx, a = mesh.dx, config.a
        m_el = element_mass(dx)
        k_el = element_stiffness(dx, config.kappa)
        flux_el = -element_advection(dx, a).T    # weak term -int(a u phi_i')
        dphi = np.array([-1.0 / dx, 1.0 / dx])
        supg_mass_el = np.zeros((2, 2))          # tau * int(a phi_i' phi_j)
        supg_adv_el = np.zeros((2, 2))           # tau * int(a phi_i' a phi_j')
        for xi, w in zip(_QP, _QW):
            phi = np.array([1.0 - xi, xi])
            supg_mass_el += dx * w * self.tau * a * np.outer(dphi, phi)
            supg_adv_el += dx * w * self.tau * a * a * np.outer(dphi, dphi)
        mass = _assemble(m_el, self.m)
        mass_supg = _assemble(supg_mass_el, self.m)
        stiff = _assemble(k_el + flux_el + supg_adv_el, self.m)

        # outflow boundary term (a*n >= 0 convention); n = -1 at x=0, +1 at x=1
        self._outflow_points = [(i, nrm) for i, nrm in ((0, -1.0), (self.m - 1, 1.0))
                                if a * nrm >= 0.0]
        for i, nrm in self._outflow_points:
            stiff.data[1, i] += a * nrm

        self.mass = mass                  # plain Galerkin mass, used by totals
        self.mass_dot = Tridiagonal(mass.data + mass_supg.data)  # multiplies u̇
        self.stiffness = stiff

    def dimension(self) -> int:
        return self.m

    def load_vector(self, t: float) -> np.ndarray:
        """Body force, boundary flux, and SUPG load at time t."""
        f_q = np.asarray(self.f(self.x_quad, t), dtype=float)
        out = _load(self.mesh.dx, f_q, self.tau, self.config.a)
        out[0] += self.h_in(t)
        out[-1] += self.h_out(t)
        return out

    def residual(self, u_dot, u, t):
        return self.mass_dot @ u_dot + self.stiffness @ u - self.load_vector(t)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return Tridiagonal(c_dot * self.mass_dot.data + c_u * self.stiffness.data)

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
    x_quad = mesh.nodes[:-1, None] + mesh.dx * np.asarray(_QP)[None, :]
    rhs = _load(mesh.dx, np.asarray(u0(x_quad), dtype=float))
    return _assemble(element_mass(mesh.dx), mesh.n_elements + 1).solve(rhs)


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
