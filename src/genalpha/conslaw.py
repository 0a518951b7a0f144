"""Periodic 1D Galerkin semi-discretizations of conservation-law systems.

Three discretizations of U_t + F(U, U_x)_x = S on the periodic unit interval:

* conservation variables (ConservedSystem), a plain residual system;
* nonconservation variables V with the temporal term
  (dU/dV)(V_{n+af}) V̇_{n+am} (NonconservativeSystem), also a plain residual
  system but one whose fully-discrete totals drift;
* the modified scheme (ModifiedNonconservativeSystem) whose temporal term is
  the difference quotient of shifted conserved states
  Û± = U(V) + (af - 1/2)*dt*(dU/dV)(V)*V̇, restoring the discrete balance
  law.  It advances through `step_modified`, not the generic stepper.

Linear nodal basis, 3-point Gauss quadrature per element everywhere, so the
balance totals are identities of the same discrete integrals the residual
uses.  Every kernel works on all quadrature points at once: fields are
(n_el, 3, p) arrays, the models and the variable map take stacked points
(..., p), and `PeriodicFemSpace` integrates and assembles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AdmissibilityError, ConfigurationError
from .integrator import GenAlphaParams, NewtonSettings, StatePair, _newton

# 3-point Gauss rule on the reference element [0, 1]
_QP = (0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6))
_QW = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
_W = np.asarray(_QW)
_PHI = np.stack([1.0 - np.asarray(_QP), np.asarray(_QP)], axis=1)  # (q, local node)
_DPHI_REF = np.array([-1.0, 1.0])  # dx * dphi/dx of the (left, right) basis


def _first_bad(bad, x):
    """Index of the first True of `bad` in element-major (C) order, and the
    location to name there: x at that index, or x itself if it is scalar."""
    i = np.unravel_index(np.argmax(bad), np.shape(bad))
    return i, (x if np.ndim(x) == 0 else np.broadcast_to(x, np.shape(bad))[i])


def _stack_matrix(rows):
    """(..., r, c) array from nested rows of broadcastable entries."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=float)
                                    for row in rows for e in row))
    return np.stack(entries, axis=-1).reshape(
        entries[0].shape + (len(rows), len(rows[0])))


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
        return (local[:, 0] + np.roll(local[:, 1], 1, axis=0)).reshape(-1)

    def assemble_matrix(self, t_val, f_val, f_der, t_der=None) -> np.ndarray:
        """Dense (m, m) derivative of `assemble_rows` from per-point blocks.

        With (n_el, 3, p, p) blocks (or broadcastable ones), the block of
        rows a and columns b is int (t_val phi_b + t_der phi_b') phi_a
        - int (f_val phi_b + f_der phi_b') phi_a'.  np.add.at scatters onto
        the periodic nodes, so it is also right at n_el = 2, where an
        element's two nodes are each other's neighbours.
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
        e = np.arange(n)
        nodes = np.stack([e, (e + 1) % n], axis=1)
        p = shape[-1]
        out = np.zeros((n, n, p, p))
        np.add.at(out, (nodes[:, :, None], nodes[:, None, :]), local)
        return out.transpose(0, 2, 1, 3).reshape(n * p, n * p)


class Burgers1D:
    """Viscous Burgers flux u^2/2 - kappa_visc * u_x, optional source s(x, t).

    Evaluates on stacked points u, du_dx of shape (..., 1) with x of shape
    (...), so a source s must accept an array x.
    """

    p = 1

    def __init__(self, kappa_visc: float = 0.0, s: Callable | None = None):
        if kappa_visc < 0.0:
            raise ValueError("kappa_visc must be nonnegative")
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
        if gamma_gas <= 1.0:
            raise ValueError("gamma_gas must exceed 1")
        self.gamma_gas = gamma_gas

    def pressure(self, u, x=None):
        rho, mom, energy = np.moveaxis(u, -1, 0)
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
        rho, mom, energy = np.moveaxis(u, -1, 0)
        pres = self.pressure(u, x)
        vel = mom / rho
        return np.stack([mom, mom * vel + pres, vel * (energy + pres)], axis=-1)

    def flux_jacobian(self, u, du_dx, x, t):
        rho, mom, energy = np.moveaxis(u, -1, 0)
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
    which an AdmissibilityError names.
    """

    p = 3

    def __init__(self, gamma_gas: float, r_gas: float):
        if gamma_gas <= 1.0 or r_gas <= 0.0:
            raise ValueError("require gamma_gas > 1 and r_gas > 0")
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
        pres, vel, temp = np.moveaxis(v, -1, 0)
        rho = pres / (self.r_gas * temp)
        return np.stack([rho, rho * vel,
                         pres / (self.gamma_gas - 1.0) + 0.5 * rho * vel ** 2],
                        axis=-1)

    def jacobian(self, v, x=None):
        self.check(v, x)
        pres, vel, temp = np.moveaxis(v, -1, 0)
        rt = self.r_gas * temp
        rho = pres / rt
        return _stack_matrix([
            [1.0 / rt, 0.0, -rho / temp],
            [vel / rt, rho, -rho * vel / temp],
            [1.0 / (self.gamma_gas - 1.0) + 0.5 * vel ** 2 / rt, rho * vel,
             -0.5 * rho * vel ** 2 / temp],
        ])

    def hessian(self, v, x=None):
        """Second derivatives H[..., j, k, l] = d^2 U_j / dV_k dV_l."""
        self.check(v, x)
        pres, vel, temp = np.moveaxis(v, -1, 0)
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


def pressure_primitive_map(gamma_gas: float, r_gas: float) -> PressurePrimitiveMap:
    """Pressure-primitive variable map V = (p, u, T) for the ideal gas."""
    return PressurePrimitiveMap(gamma_gas, r_gas)


def _field_values(space: PeriodicFemSpace, coeffs: np.ndarray, p: int):
    """FE values and x-derivatives at quadrature points: (n_el, nq, p) each."""
    c = np.asarray(coeffs, dtype=float).reshape(space.n_elements, p)
    c_left, c_right = c, np.roll(c, -1, axis=0)
    xi = np.asarray(_QP)
    vals = (1.0 - xi)[None, :, None] * c_left[:, None, :] \
        + xi[None, :, None] * c_right[:, None, :]
    derivs = np.broadcast_to(((c_right - c_left) / space.dx)[:, None, :],
                             vals.shape).copy()
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

    def iteration_matrix_action(self, c_dot, c_u, u_dot, u, t, direction):
        return self.iteration_matrix(c_dot, c_u, u_dot, u, t) @ direction

    def total(self, coeffs) -> np.ndarray:
        return self.space.integrate(_field_values(self.space, coeffs, self.p)[0])

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        return self.total(state.u + (alpha_f - 0.5) * dt * state.u_dot)

    def balance_source(self, u_alpha_f, t_alpha_f: float) -> np.ndarray:
        vals, derivs = _field_values(self.space, u_alpha_f, self.p)
        return self.space.integrate(
            self.model.source(vals, derivs, self.x_quad, t_alpha_f))


def build_conslaw_system(space: PeriodicFemSpace, model, stabilization: str = "none",
                         stab_coefficient: float | None = None) -> ConservedSystem:
    """Conservation-variable Galerkin semi-discretization as a residual system."""
    return ConservedSystem(space, model, stabilization, stab_coefficient)


def stabilization_form(system: ConservedSystem, v, w) -> float:
    """Componentwise gradient-penalty form S(v, w); zero when w is constant."""
    if system.stab == 0.0:
        return 0.0
    _, dv = _field_values(system.space, v, system.p)
    _, dw = _field_values(system.space, w, system.p)
    return float(np.sum(system.space.integrate(system.stab * dv * dw)))


class _NonconservativeBase(_PeriodicGalerkinBase):
    """Common machinery for the V-variable discretizations of Euler-type models."""

    def __init__(self, space: PeriodicFemSpace, model, varmap):
        if model.p != varmap.p:
            raise ValueError("model and variable map disagree on p")
        super().__init__(space, model.p)
        self.model = model
        self.varmap = varmap

    def _conserved_fields(self, v, dv):
        """dU/dV, U and U_x at stacked points."""
        a0 = self.varmap.jacobian(v, self.x_quad)
        return a0, self.varmap.to_conserved(v, self.x_quad), _matvec(a0, dv)

    def _flux_blocks(self, v, dv, t):
        """dU/dV, the Hessian of U and the flux's V-derivative blocks.

        The flux depends on V through U(V) and U_x = (dU/dV) V_x, so its
        derivative splits into a value part (A_U A0 + A_Ux (H : V_x)) and an
        x-derivative part (A_Ux A0).
        """
        a0, u, du = self._conserved_fields(v, dv)
        a_u, a_ux = self.model.flux_jacobian(u, du, self.x_quad, t)
        h = self.varmap.hessian(v, self.x_quad)
        h_dv = np.einsum("...jkl,...k->...jl", h, dv)
        return a0, h, a_u @ a0 + a_ux @ h_dv, a_ux @ a0

    def _shifted(self, v, v_dot, shift):
        """Û = U(V) + shift * (dU/dV)(V) V̇ at stacked points."""
        return (self.varmap.to_conserved(v, self.x_quad)
                + shift * _matvec(self.varmap.jacobian(v, self.x_quad), v_dot))

    def _check_first(self, *fields):
        """Admissibility of several V fields, first bad point in the order a
        pointwise loop over (element, point, field) would meet it."""
        self.varmap.check(np.stack(fields, axis=2), self.x_quad[:, :, None])

    def total(self, coeffs) -> np.ndarray:
        """Integral of the pointwise conserved field U(V^h)."""
        vals, _ = _field_values(self.space, coeffs, self.p)
        return self.space.integrate(self.varmap.to_conserved(vals, self.x_quad))

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        """Integral of Û = U(V^h) + (alpha_f - 1/2)*dt*(dU/dV)(V^h) V̇^h."""
        vals, _ = _field_values(self.space, state.u, self.p)
        dot_vals, _ = _field_values(self.space, state.u_dot, self.p)
        return self.space.integrate(
            self._shifted(vals, dot_vals, (alpha_f - 0.5) * dt))

    def balance_source(self, u_alpha_f, t_alpha_f: float) -> np.ndarray:
        vals, derivs = _field_values(self.space, u_alpha_f, self.p)
        _, u, du = self._conserved_fields(vals, derivs)
        return self.space.integrate(
            self.model.source(u, du, self.x_quad, t_alpha_f))


class NonconservativeSystem(_NonconservativeBase):
    """Standard V-variable discretization: temporal term (dU/dV)(V_af) V̇_am.

    A plain residual system for the generic stepper.  Its fully-discrete
    conserved totals drift even for second-order parameters on a uniform
    mesh; the audit records that drift.
    """

    admits_balance_law = False

    def residual(self, v_dot, v, t):
        vals, derivs = _field_values(self.space, v, self.p)
        dot_vals, _ = _field_values(self.space, v_dot, self.p)
        a0, u, du = self._conserved_fields(vals, derivs)
        flux = self.model.flux(u, du, self.x_quad, t)
        temporal = _matvec(a0, dot_vals) - self.model.source(u, du, self.x_quad, t)
        return self.space.assemble_rows(temporal, flux)

    def iteration_matrix(self, c_dot, c_u, v_dot, v, t):
        vals, derivs = _field_values(self.space, v, self.p)
        dot_vals, _ = _field_values(self.space, v_dot, self.p)
        a0, h, df_val, df_der = self._flux_blocks(vals, derivs, t)
        h_vdot = np.einsum("...jkl,...k->...jl", h, dot_vals)
        return self.space.assemble_matrix(c_dot * a0 + c_u * h_vdot,
                                          c_u * df_val, c_u * df_der)

    def iteration_matrix_action(self, c_dot, c_u, v_dot, v, t, direction):
        return self.iteration_matrix(c_dot, c_u, v_dot, v, t) @ direction


class ModifiedNonconservativeSystem(_NonconservativeBase):
    """V-variable discretization with the conservative shifted-state temporal term.

    The temporal term is (Û+_{n+af+1/2} - Û-_{n+af-1/2})/dt tested against
    W, which requires the whole step context; use `step_modified` rather
    than the generic stepper.
    """

    admits_balance_law = True

    def _step_fields(self, w_unknown, state_n: StatePair, dt: float,
                     params: GenAlphaParams):
        """V_{n+1} and V_{n+af} implied by the Newton unknown V̇_{n+1}."""
        af, g = params.alpha_f, params.gamma
        v_np1 = state_n.u + dt * (1.0 - g) * state_n.u_dot + dt * g * w_unknown
        return v_np1, (1.0 - af) * state_n.u + af * v_np1

    def step_residual(self, w_unknown, state_n: StatePair, dt: float,
                      params: GenAlphaParams):
        """Residual of the modified scheme as a function of V̇_{n+1}."""
        shift = (params.alpha_f - 0.5) * dt
        t_af = state_n.t + params.alpha_f * dt
        v_np1, v_af = self._step_fields(w_unknown, state_n, dt, params)
        vn, vdn, vp, w = (_field_values(self.space, c, self.p)[0] for c in
                          (state_n.u, state_n.u_dot, v_np1, w_unknown))
        vaf, dvaf = _field_values(self.space, v_af, self.p)
        self._check_first(vn, vp, vaf)
        _, u, du = self._conserved_fields(vaf, dvaf)
        flux = self.model.flux(u, du, self.x_quad, t_af)
        temporal = ((self._shifted(vp, w, shift) - self._shifted(vn, vdn, shift)) / dt
                    - self.model.source(u, du, self.x_quad, t_af))
        return self.space.assemble_rows(temporal, flux)

    def step_jacobian(self, w_unknown, state_n: StatePair, dt: float,
                      params: GenAlphaParams):
        """Exact derivative of `step_residual` in V̇_{n+1} (chain rule incl. H)."""
        af, g = params.alpha_f, params.gamma
        shift = af - 0.5
        t_af = state_n.t + af * dt
        v_np1, v_af = self._step_fields(w_unknown, state_n, dt, params)
        vp, _ = _field_values(self.space, v_np1, self.p)
        w, _ = _field_values(self.space, w_unknown, self.p)
        vaf, dvaf = _field_values(self.space, v_af, self.p)
        self._check_first(vp, vaf)
        h_w = np.einsum("...jkl,...k->...jl", self.varmap.hessian(vp, self.x_quad), w)
        temporal = ((g + shift) * self.varmap.jacobian(vp, self.x_quad)
                    + shift * g * dt * h_w)
        _, _, df_val, df_der = self._flux_blocks(vaf, dvaf, t_af)
        c_u = af * g * dt  # dV_af/dW
        return self.space.assemble_matrix(temporal, c_u * df_val, c_u * df_der)


def build_nonconservative_system(space: PeriodicFemSpace, model, varmap,
                                 mode: str = "standard"):
    """V-variable semi-discretization; mode selects the temporal treatment."""
    if mode == "standard":
        return NonconservativeSystem(space, model, varmap)
    if mode == "modified":
        return ModifiedNonconservativeSystem(space, model, varmap)
    raise ConfigurationError(f"unknown nonconservative mode {mode!r}")


def step_modified(system: ModifiedNonconservativeSystem, state_n: StatePair,
                  dt: float, params: GenAlphaParams,
                  newton: NewtonSettings = NewtonSettings()) -> StatePair:
    """One step of the modified scheme; Newton unknown is V̇_{n+1}.

    Refuses parameters that are not second-order accurate: the shifted-state
    temporal term represents the rate only under gamma = 1/2 + am - af.
    """
    if not isinstance(system, ModifiedNonconservativeSystem):
        raise ConfigurationError("step_modified requires a modified-mode system")
    if not params.is_second_order():
        raise ConfigurationError(
            "the modified scheme requires second-order parameters "
            f"(gamma = 1/2 + alpha_m - alpha_f); got {params}")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    g = params.gamma
    v_n, vd_n = state_n.u, state_n.u_dot

    w0 = ((g - 1.0) / g) * vd_n
    w_star, _ = _newton(
        lambda w: system.step_residual(w, state_n, dt, params),
        lambda w: system.step_jacobian(w, state_n, dt, params),
        w0, newton)
    v_np1 = v_n + dt * ((1.0 - g) * vd_n + g * w_star)
    return StatePair(v_np1, w_star, state_n.t + dt)


def run_modified(system: ModifiedNonconservativeSystem, state0: StatePair,
                 dts, params: GenAlphaParams,
                 newton: NewtonSettings = NewtonSettings()) -> list[StatePair]:
    """Advance the modified scheme over a dt schedule; refuses nonuniform dt."""
    dts = [float(dt) for dt in dts]
    if dts and any(abs(dt - dts[0]) > 1e-14 * abs(dts[0]) for dt in dts):
        raise ConfigurationError(
            "the modified scheme is only conservative on a uniform time mesh; "
            "got a nonuniform dt schedule")
    states = [state0]
    for dt in dts:
        states.append(step_modified(system, states[-1], dt, params, newton))
    return states


def total_conserved(space: PeriodicFemSpace, model, coefficients,
                    varmap=None) -> np.ndarray:
    """Componentwise integral of the conserved field over the domain.

    With `varmap` given, `coefficients` are nonconservation variables and
    U(V^h) is integrated pointwise at the quadrature points; otherwise the
    coefficients are conserved-variable DOFs.
    """
    vals, _ = _field_values(space, coefficients, model.p)
    if varmap is not None:
        vals = varmap.to_conserved(vals, space.quad_points())
    return space.integrate(vals)
