"""Periodic 1D Galerkin semi-discretizations of conservation-law systems.

Three discretizations of U_t + F(U, U_x)_x = S on the periodic unit interval:

* conservation variables (ConservedSystem), a plain residual system;
* nonconservation variables V with the temporal term
  (dU/dV)(V_{n+af}) V̇_{n+am} (NonconservativeSystem), also a plain residual
  system but one whose fully-discrete totals drift;
* the modified scheme (ModifiedNonconservativeSystem) whose temporal term is
  the difference quotient of shifted conserved states
  Û± = U(V) + (af - 1/2)*dt*(dU/dV)(V)*V̇, restoring the discrete balance
  law.  It supplies the step problem, the step residual and Jacobian in
  V̇_{n+1} that the generic `step` solves.

Linear nodal basis, 3-point Gauss quadrature per element everywhere, so the
balance totals are identities of the same discrete integrals the residual
uses.  Every kernel works on all quadrature points at once: fields are
(n_el, 3, p) arrays, the models and the variable map take stacked points
(..., p), and `PeriodicFemSpace` integrates and assembles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AdmissibilityError
from .integrator import GenAlphaParams, StatePair, _reuse_last, _update_base

# 3-point Gauss rule on the reference element [0, 1]
_QP = (0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6))
_QW = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
_W = np.asarray(_QW)
_PHI = np.stack([1.0 - np.asarray(_QP), np.asarray(_QP)], axis=1)  # (q, local node)
_LEFT, _RIGHT = _PHI[None, :, 0, None], _PHI[None, :, 1, None]  # (1, q, 1)
_DPHI_REF = np.array([-1.0, 1.0])  # dx * dphi/dx of the (left, right) basis


def _first_bad(bad, x):
    """Index of the first True of `bad` in element-major (C) order, and the
    location to name there: x at that index, or x itself if it is scalar."""
    i = np.unravel_index(np.argmax(bad), np.shape(bad))
    return i, (x if np.ndim(x) == 0 else np.broadcast_to(x, np.shape(bad))[i])


def _stack_matrix(rows):
    """(..., r, c) array from nested rows of broadcastable entries."""
    shape = np.broadcast(*(e for row in rows for e in row)).shape
    out = np.empty(shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _matvec(a, v):
    return np.einsum("...jk,...k->...j", a, v)


@dataclass(frozen=True)
class PeriodicFemSpace:
    """Periodic linear nodal basis on a uniform mesh of (0, 1).

    Also the quadrature and assembly kernel the discretizations share: per-
    point terms are (n_el, 3, ...) arrays indexed by element and Gauss point.
    """

    n_elements: int

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("need at least 2 elements for a periodic mesh")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_elements

    def quad_points(self) -> np.ndarray:
        """Global quadrature coordinates, shape (n_elements, 3)."""
        left = np.arange(self.n_elements) * self.dx
        return left[:, None] + self.dx * np.asarray(_QP)[None, :]

    def integrate(self, values) -> np.ndarray:
        """Domain integral of per-point values (n_el, 3, ...)."""
        return self.dx * np.einsum("q,eq...->...", _W, values)

    def assemble_rows(self, temporal, flux=None) -> np.ndarray:
        """Rows int(temporal W) - int(flux W') from per-point (n_el, 3, p) terms."""
        local = self.dx * np.einsum("q,qa,eqp->eap", _W, _PHI, temporal)
        if flux is not None:
            local -= np.einsum("a,q,eqp->eap", _DPHI_REF, _W, flux)
        # node e is the left node of element e and the right node of e - 1
        return (local[:, 0] + np.concatenate((local[-1:, 1], local[:-1, 1]))
                ).reshape(-1)

    def assemble_matrix(self, t_val, f_val, f_der, t_der=None) -> np.ndarray:
        """Dense (m, m) derivative of `assemble_rows` from per-point blocks.

        With (n_el, 3, p, p) blocks (or broadcastable ones), the block of
        rows a and columns b is int (t_val phi_b + t_der phi_b') phi_a
        - int (f_val phi_b + f_der phi_b') phi_a'.  Element e's blocks are
        added into zeros at the periodic nodes (e, e+1) by slicing, one
        statement per block diagonal and periodic corner, so at n_el = 2,
        where two of them meet, both are added.  Each entry is 0 plus at
        most two terms, the same bits in either order, so the result equals
        a np.add.at scatter bit for bit.
        """
        n, dx = self.n_elements, self.dx
        dphi = _DPHI_REF / dx
        shape = np.broadcast_shapes(np.shape(t_val), np.shape(f_val),
                                    np.shape(f_der), (n, 3, 1, 1))
        temporal = np.einsum("qb,eqij->eqbij", _PHI, np.broadcast_to(t_val, shape))
        if t_der is not None:
            temporal = temporal + np.einsum("b,eqij->eqbij", dphi,
                                            np.broadcast_to(t_der, shape))
        flux = (np.einsum("qb,eqij->eqbij", _PHI, np.broadcast_to(f_val, shape))
                + np.einsum("b,eqij->eqbij", dphi, np.broadcast_to(f_der, shape)))
        local = dx * (np.einsum("q,qa,eqbij->eabij", _W, _PHI, temporal)
                      - np.einsum("q,a,eqbij->eabij", _W, dphi, flux))
        p = shape[-1]
        out = np.zeros((n, n, p, p))
        blocks = out.reshape(n * n, p, p)
        diag = blocks[::n + 1]
        diag += local[:, 0, 0]
        diag[1:] += local[:-1, 1, 1]
        diag[0] += local[-1, 1, 1]
        blocks[1::n + 1] += local[:-1, 0, 1]    # (e, e+1)
        blocks[n * (n - 1)] += local[-1, 0, 1]  # (n-1, 0)
        blocks[n::n + 1] += local[:-1, 1, 0]    # (e+1, e)
        blocks[n - 1] += local[-1, 1, 0]        # (0, n-1)
        return out.transpose(0, 2, 1, 3).reshape(n * p, n * p)


class Burgers1D:
    """Viscous Burgers flux u^2/2 - kappa_visc * u_x, optional source s(x, t).

    Evaluates on stacked points u, du_dx of shape (..., 1) with x of shape
    (...), so a source s must accept an array x.
    """

    p = 1

    def __init__(self, kappa_visc: float = 0.0, s: Callable | None = None):
        if not (math.isfinite(kappa_visc) and kappa_visc >= 0.0):
            raise ValueError(f"kappa_visc must be finite and nonnegative, "
                             f"got {kappa_visc}")
        self.kappa_visc = kappa_visc
        self.s = s

    def flux(self, u, du_dx, x, t):
        return 0.5 * u ** 2 - self.kappa_visc * du_dx

    def flux_jacobian(self, u, du_dx, x, t):
        return u[..., None], np.full(np.shape(u) + (1,), -self.kappa_visc)

    def source(self, u, du_dx, x, t):
        if self.s is None:
            return np.zeros(np.shape(u))
        return np.zeros(np.shape(u)) + np.asarray(self.s(x, t), dtype=float)[..., None]

    def source_jacobian(self, u, du_dx, x, t):
        return np.zeros(np.shape(u) + (1,)), np.zeros(np.shape(u) + (1,))


class Euler1D:
    """Compressible Euler in conserved variables (rho, rho*u, E), ideal gas.

    Evaluates on stacked points of shape (..., 3); the first inadmissible
    point in element-major order raises, naming its x.
    """

    p = 3

    def __init__(self, gamma_gas: float = 1.4):
        if not (math.isfinite(gamma_gas) and gamma_gas > 1.0):
            raise ValueError(f"gamma_gas must be finite and exceed 1, got {gamma_gas}")
        self.gamma_gas = gamma_gas

    def pressure(self, u, x=None):
        rho, mom, energy = u[..., 0], u[..., 1], u[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            pres = (self.gamma_gas - 1.0) * (energy - 0.5 * mom ** 2 / rho)
        bad = (rho <= 0.0) | (pres <= 0.0)
        if np.any(bad):
            i, where = _first_bad(bad, x)
            if rho[i] <= 0.0:
                raise AdmissibilityError(f"nonpositive density {rho[i]} at x={where}")
            raise AdmissibilityError(f"nonpositive pressure {pres[i]} at x={where}")
        return pres

    def flux(self, u, du_dx, x, t):
        rho, mom, energy = u[..., 0], u[..., 1], u[..., 2]
        pres = self.pressure(u, x)
        vel = mom / rho
        return np.stack([mom, mom * vel + pres, vel * (energy + pres)], axis=-1)

    def flux_jacobian(self, u, du_dx, x, t):
        rho, mom, energy = u[..., 0], u[..., 1], u[..., 2]
        pres = self.pressure(u, x)
        g = self.gamma_gas
        vel = mom / rho
        enthalpy = (energy + pres) / rho
        a_u = _stack_matrix([
            [0.0, 1.0, 0.0],
            [0.5 * (g - 3.0) * vel ** 2, (3.0 - g) * vel, g - 1.0],
            [0.5 * (g - 1.0) * vel ** 3 - vel * enthalpy,
             enthalpy - (g - 1.0) * vel ** 2, g * vel],
        ])
        return a_u, np.zeros_like(a_u)

    def source(self, u, du_dx, x, t):
        return np.zeros(np.shape(u))

    def source_jacobian(self, u, du_dx, x, t):
        return np.zeros(np.shape(u) + (3,)), np.zeros(np.shape(u) + (3,))


class PressurePrimitiveMap:
    """Map V = (p, u, T) to conserved U = (rho, rho*u, E) for an ideal gas.

    rho = p/(R*T), E = p/(gamma-1) + rho*u^2/2.  Provides the analytic
    Jacobian dU/dV and its derivative (the Hessian of U), which the modified
    scheme's Newton linearization consumes.  Each method takes stacked
    points v of shape (..., 3) and an optional x of matching shape (...),
    which an AdmissibilityError names.  The public methods check v first;
    the unchecked formulas `_to_conserved`, `_jacobian` and `_hessian` serve
    callers that have already passed v through `check`.
    """

    p = 3

    def __init__(self, gamma_gas: float, r_gas: float):
        if not (math.isfinite(gamma_gas) and gamma_gas > 1.0):
            raise ValueError(f"gamma_gas must be finite and exceed 1, got {gamma_gas}")
        if not (math.isfinite(r_gas) and r_gas > 0.0):
            raise ValueError(f"r_gas must be finite and positive, got {r_gas}")
        self.gamma_gas = gamma_gas
        self.r_gas = r_gas

    def check(self, v, x=None):
        """Raise at the first point, element-major, with pressure or T <= 0."""
        v = np.asarray(v)
        bad = (v[..., 0] <= 0.0) | (v[..., 2] <= 0.0)
        if np.any(bad):
            i, where = _first_bad(bad, x)
            at = "" if x is None else f" at x={where}"
            raise AdmissibilityError(
                f"nonpositive pressure or temperature in V={tuple(v[i])}{at}")

    def to_conserved(self, v, x=None):
        self.check(v, x)
        return self._to_conserved(np.asarray(v))

    def jacobian(self, v, x=None):
        self.check(v, x)
        return self._jacobian(np.asarray(v))

    def hessian(self, v, x=None):
        """Second derivatives H[..., j, k, l] = d^2 U_j / dV_k dV_l."""
        self.check(v, x)
        return self._hessian(np.asarray(v))

    def _to_conserved(self, v):
        pres, vel, temp = v[..., 0], v[..., 1], v[..., 2]
        rho = pres / (self.r_gas * temp)
        return np.stack([rho, rho * vel,
                         pres / (self.gamma_gas - 1.0) + 0.5 * rho * vel ** 2],
                        axis=-1)

    def _jacobian(self, v):
        pres, vel, temp = v[..., 0], v[..., 1], v[..., 2]
        rt = self.r_gas * temp
        rho = pres / rt
        return _stack_matrix([
            [1.0 / rt, 0.0, -rho / temp],
            [vel / rt, rho, -rho * vel / temp],
            [1.0 / (self.gamma_gas - 1.0) + 0.5 * vel ** 2 / rt, rho * vel,
             -0.5 * rho * vel ** 2 / temp],
        ])

    def _hessian(self, v):
        pres, vel, temp = v[..., 0], v[..., 1], v[..., 2]
        rt = self.r_gas * temp
        h = np.zeros(np.shape(v) + (3, 3))
        # U_0 = p/(R T)
        h[..., 0, 0, 2] = h[..., 0, 2, 0] = -1.0 / (rt * temp)
        h[..., 0, 2, 2] = 2.0 * pres / (rt * temp ** 2)
        # U_1 = p u/(R T)
        h[..., 1, 0, 1] = h[..., 1, 1, 0] = 1.0 / rt
        h[..., 1, 0, 2] = h[..., 1, 2, 0] = -vel / (rt * temp)
        h[..., 1, 1, 2] = h[..., 1, 2, 1] = -pres / (rt * temp)
        h[..., 1, 2, 2] = 2.0 * pres * vel / (rt * temp ** 2)
        # U_2 = p/(g-1) + p u^2/(2 R T)
        h[..., 2, 0, 1] = h[..., 2, 1, 0] = vel / rt
        h[..., 2, 0, 2] = h[..., 2, 2, 0] = -0.5 * vel ** 2 / (rt * temp)
        h[..., 2, 1, 1] = pres / rt
        h[..., 2, 1, 2] = h[..., 2, 2, 1] = -pres * vel / (rt * temp)
        h[..., 2, 2, 2] = pres * vel ** 2 / (rt * temp ** 2)
        return h


def _field_values(space: PeriodicFemSpace, coeffs: np.ndarray, p: int):
    """FE values and x-derivatives at quadrature points: (n_el, nq, p) each."""
    c = np.asarray(coeffs, dtype=float).reshape(space.n_elements, p)
    c_right = np.concatenate((c[1:], c[:1]))  # right node of each element
    vals = _LEFT * c[:, None, :] + _RIGHT * c_right[:, None, :]
    derivs = ((c_right - c) / space.dx)[:, None, :].repeat(len(_QP), axis=1)
    return vals, derivs


def project_periodic(space: PeriodicFemSpace, fn: Callable, p: int) -> np.ndarray:
    """Componentwise L2 projection of fn(x) -> p-vector onto the periodic basis.

    fn is pointwise, so it is called once per quadrature point; the mass
    matrix and the right-hand side are assembled in one pass each.
    """
    point = np.vectorize(lambda x: np.asarray(fn(x), dtype=float).reshape(p),
                         signature="()->(k)")
    vals = point(space.quad_points())
    mass = space.assemble_matrix(np.ones(vals.shape[:2] + (1, 1)), 0.0, 0.0)
    rhs = space.assemble_rows(vals).reshape(space.n_elements, p)
    return np.linalg.solve(mass, rhs).reshape(space.n_elements * p)


class _PeriodicGalerkinBase:
    """Shared geometry and audit plumbing for the three systems."""

    def __init__(self, space: PeriodicFemSpace, p: int):
        self.space = space
        self.p = p
        self.m = space.n_elements * p
        self.x_quad = space.quad_points()

    def dimension(self) -> int:
        return self.m

    @property
    def n_balance_components(self) -> int:
        return self.p

    def project(self, fn: Callable) -> np.ndarray:
        return project_periodic(self.space, fn, self.p)

    def balance_outflow(self, u_alpha_f, t_alpha_f: float) -> float:
        return 0.0  # periodic domain has no boundary flux


class ConservedSystem(_PeriodicGalerkinBase):
    """Galerkin residual in conservation variables, R(U̇, U, t).

    R rows are int(U̇ W) - int(F W') - int(S W) plus the optional
    componentwise gradient-penalty stabilization (a fixed-coefficient
    streamline operator; it vanishes against constant test functions).
    """

    admits_balance_law = True

    def __init__(self, space: PeriodicFemSpace, model, stabilization: str = "none",
                 stab_coefficient: float | None = None):
        super().__init__(space, model.p)
        if stabilization not in ("none", "supg-like"):
            raise ValueError(f"unknown stabilization {stabilization!r}")
        self.model = model
        self.stab = 0.0
        if stabilization == "supg-like":
            self.stab = (0.5 * space.dx if stab_coefficient is None
                         else float(stab_coefficient))

    def residual(self, u_dot, u, t):
        vals, derivs = _field_values(self.space, u, self.p)
        dot_vals, _ = _field_values(self.space, u_dot, self.p)
        x = self.x_quad
        flux = self.model.flux(vals, derivs, x, t) - self.stab * derivs
        temporal = dot_vals - self.model.source(vals, derivs, x, t)
        return self.space.assemble_rows(temporal, flux)

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        vals, derivs = _field_values(self.space, u, self.p)
        x, eye = self.x_quad, np.eye(self.p)
        a_u, a_ux = self.model.flux_jacobian(vals, derivs, x, t)
        s_u, s_ux = self.model.source_jacobian(vals, derivs, x, t)
        return self.space.assemble_matrix(
            c_dot * eye - c_u * s_u, c_u * a_u, c_u * (a_ux - self.stab * eye),
            t_der=-c_u * s_ux)

    def total(self, coeffs) -> np.ndarray:
        return self.space.integrate(_field_values(self.space, coeffs, self.p)[0])

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        return self.total(state.u + (alpha_f - 0.5) * dt * state.u_dot)

    def balance_source(self, u_alpha_f, t_alpha_f: float) -> np.ndarray:
        vals, derivs = _field_values(self.space, u_alpha_f, self.p)
        return self.space.integrate(
            self.model.source(vals, derivs, self.x_quad, t_alpha_f))


def stabilization_form(system: ConservedSystem, v, w) -> float:
    """Componentwise gradient-penalty form S(v, w); zero when w is constant."""
    if system.stab == 0.0:
        return 0.0
    _, dv = _field_values(system.space, v, system.p)
    _, dw = _field_values(system.space, w, system.p)
    return float(np.sum(system.space.integrate(system.stab * dv * dw)))


class NonconservativeSystem(_PeriodicGalerkinBase):
    """Standard V-variable discretization: temporal term (dU/dV)(V_af) V̇_am.

    A plain residual system for the generic stepper.  Its fully-discrete
    conserved totals drift even for second-order parameters on a uniform
    mesh; the audit records that drift.
    """

    admits_balance_law = False

    def __init__(self, space: PeriodicFemSpace, model, varmap):
        if model.p != varmap.p:
            raise ValueError("model and variable map disagree on p")
        super().__init__(space, model.p)
        self.model = model
        self.varmap = varmap

    def _check(self, *fields):
        """Admissibility of V fields, each (n_el, 3, p): the first bad point
        in the order a pointwise loop over (element, point, field) meets it.
        The unchecked varmap formulas are then called on them."""
        if len(fields) == 1:
            self.varmap.check(fields[0], self.x_quad)
        else:
            self.varmap.check(np.stack(fields, axis=2), self.x_quad[:, :, None])

    def _conserved_fields(self, v, dv):
        """dU/dV, U and U_x at checked stacked points."""
        a0 = self.varmap._jacobian(v)
        return a0, self.varmap._to_conserved(v), _matvec(a0, dv)

    def _flux_blocks(self, v, dv, conserved, t):
        """The Hessian of U and the flux's V-derivative blocks at checked
        points, given their `_conserved_fields`.

        The flux depends on V through U(V) and U_x = (dU/dV) V_x, so its
        derivative splits into a value part (A_U A0 + A_Ux (H : V_x)) and an
        x-derivative part (A_Ux A0).
        """
        a0, u, du = conserved
        a_u, a_ux = self.model.flux_jacobian(u, du, self.x_quad, t)
        h = self.varmap._hessian(v)
        h_dv = np.einsum("...jkl,...k->...jl", h, dv)
        return h, a_u @ a0 + a_ux @ h_dv, a_ux @ a0

    def _shifted(self, v, v_dot, shift):
        """Û = U(V) + shift * (dU/dV)(V) V̇ at checked stacked points."""
        return (self.varmap._to_conserved(v)
                + shift * _matvec(self.varmap._jacobian(v), v_dot))

    def total(self, coeffs) -> np.ndarray:
        """Integral of the pointwise conserved field U(V^h)."""
        vals, _ = _field_values(self.space, coeffs, self.p)
        self._check(vals)
        return self.space.integrate(self.varmap._to_conserved(vals))

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        """Integral of Û = U(V^h) + (alpha_f - 1/2)*dt*(dU/dV)(V^h) V̇^h."""
        vals, _ = _field_values(self.space, state.u, self.p)
        dot_vals, _ = _field_values(self.space, state.u_dot, self.p)
        self._check(vals)
        return self.space.integrate(
            self._shifted(vals, dot_vals, (alpha_f - 0.5) * dt))

    def balance_source(self, u_alpha_f, t_alpha_f: float) -> np.ndarray:
        vals, derivs = _field_values(self.space, u_alpha_f, self.p)
        self._check(vals)
        _, u, du = self._conserved_fields(vals, derivs)
        return self.space.integrate(
            self.model.source(u, du, self.x_quad, t_alpha_f))

    def residual(self, v_dot, v, t):
        vals, derivs = _field_values(self.space, v, self.p)
        dot_vals, _ = _field_values(self.space, v_dot, self.p)
        self._check(vals)
        a0, u, du = self._conserved_fields(vals, derivs)
        flux = self.model.flux(u, du, self.x_quad, t)
        temporal = _matvec(a0, dot_vals) - self.model.source(u, du, self.x_quad, t)
        return self.space.assemble_rows(temporal, flux)

    def iteration_matrix(self, c_dot, c_u, v_dot, v, t):
        vals, derivs = _field_values(self.space, v, self.p)
        dot_vals, _ = _field_values(self.space, v_dot, self.p)
        self._check(vals)
        conserved = self._conserved_fields(vals, derivs)
        h, df_val, df_der = self._flux_blocks(vals, derivs, conserved, t)
        h_vdot = np.einsum("...jkl,...k->...jl", h, dot_vals)
        return self.space.assemble_matrix(c_dot * conserved[0] + c_u * h_vdot,
                                          c_u * df_val, c_u * df_der)


class _Iterate(NamedTuple):
    """One Newton iterate's fields at the points, shared by the modified
    scheme's step residual and Jacobian at that iterate."""

    v_np1: np.ndarray     # V_{n+1}
    w: np.ndarray         # V̇_{n+1}, the Newton unknown
    v_af: np.ndarray      # V_{n+af} and its x-derivative
    dv_af: np.ndarray
    conserved_af: tuple   # dU/dV, U and U_x at V_{n+af}
    a0_np1: np.ndarray    # dU/dV at V_{n+1}


class ModifiedNonconservativeSystem(NonconservativeSystem):
    """V-variable discretization with the conservative shifted-state temporal term.

    The temporal term is (Û+_{n+af+1/2} - Û-_{n+af-1/2})/dt tested against
    W, which requires the whole step context, so the system supplies the
    step problem that `step` solves.  The shifted-state quotient represents
    the rate only for second-order parameters, and the shifted states chain
    only on a uniform time mesh.  The inherited `residual` is the
    semi-discrete equation, which gives the consistent initial rate; `step`
    uses the step problem instead.
    """

    admits_balance_law = True
    requires_shifted_midpoint = True

    def step_problem(self, state_n: StatePair, dt: float, params: GenAlphaParams):
        """The modified scheme's residual and its exact Jacobian in V̇_{n+1}.

        Û- = Û(V_n, V̇_n) depends on the step's start alone and is computed
        once per step.  Each iterate's fields (`_Iterate`) and their
        admissibility check, jointly with V_n's, are computed once for the
        residual and the Jacobian at that iterate.
        """
        af, g = params.alpha_f, params.gamma
        shift = (af - 0.5) * dt
        t_af = state_n.t + af * dt
        v_base = _update_base(state_n, dt, g)
        v_af0, dt_g = (1.0 - af) * state_n.u, dt * g
        vn, _ = _field_values(self.space, state_n.u, self.p)
        try:
            self._check(vn)
        except AdmissibilityError:
            minus = None  # each iterate's joint check raises first
        else:
            minus = self._shifted(
                vn, _field_values(self.space, state_n.u_dot, self.p)[0], shift)

        @_reuse_last
        def fields(w):
            v_np1 = v_base + dt_g * w
            vp, _ = _field_values(self.space, v_np1, self.p)
            vaf, dvaf = _field_values(self.space, v_af0 + af * v_np1, self.p)
            self._check(vn, vp, vaf)
            return _Iterate(vp, _field_values(self.space, w, self.p)[0], vaf, dvaf,
                            self._conserved_fields(vaf, dvaf),
                            self.varmap._jacobian(vp))

        def residual(w):
            return self.step_residual(fields(w), minus, dt, t_af, shift)

        def jacobian(w):
            return self.step_jacobian(fields(w), dt, t_af, params)
        return residual, jacobian

    def step_residual(self, it: _Iterate, minus, dt: float, t_af: float,
                      shift: float):
        """Residual at one iterate; `minus` is Û- and shift (af - 1/2)*dt."""
        _, u, du = it.conserved_af
        flux = self.model.flux(u, du, self.x_quad, t_af)
        plus = (self.varmap._to_conserved(it.v_np1)
                + shift * _matvec(it.a0_np1, it.w))
        temporal = ((plus - minus) / dt
                    - self.model.source(u, du, self.x_quad, t_af))
        return self.space.assemble_rows(temporal, flux)

    def step_jacobian(self, it: _Iterate, dt: float, t_af: float,
                      params: GenAlphaParams):
        """Exact derivative of `step_residual` in V̇_{n+1} (chain rule incl. H)."""
        af, g = params.alpha_f, params.gamma
        shift = af - 0.5
        h_w = np.einsum("...jkl,...k->...jl",
                        self.varmap._hessian(it.v_np1), it.w)
        temporal = (g + shift) * it.a0_np1 + shift * g * dt * h_w
        _, df_val, df_der = self._flux_blocks(it.v_af, it.dv_af, it.conserved_af,
                                              t_af)
        c_u = af * g * dt  # dV_af/dW
        return self.space.assemble_matrix(temporal, c_u * df_val, c_u * df_der)
