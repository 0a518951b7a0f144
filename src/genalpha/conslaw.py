"""Periodic 1D Galerkin semi-discretizations of conservation-law systems.

Three discretizations of U_t + F(U, U_x)_x = S on the periodic unit interval:

* nonconservation variables V with the temporal term
  (dU/dV)(V_{n+af}) V̇_{n+am} (NonconservativeSystem), whose fully-discrete
  totals drift;
* conservation variables (ConservedSystem), the identity-map case V = U;
* the modified scheme (ModifiedNonconservativeSystem), whose temporal term,
  the difference quotient of shifted conserved states
  Û± = U(V) + (af - 1/2)*dt*(dU/dV)(V)*V̇, restores the discrete balance law.

The three share one set of kernels and one step problem, those of
`_PeriodicGalerkinBase`; the modified scheme supplies only its temporal
term and Û⁻ to the step problem that the generic `step` solves.

Linear nodal basis, 3-point Gauss quadrature per element everywhere, so the
balance totals are identities of the same discrete integrals the residual
uses.  Every kernel works on all quadrature points at once: fields are
(n_el, 3, p) arrays, the models and the variable map take stacked points
(..., p), and `PeriodicFemSpace` integrates and assembles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import AdmissibilityError
from .integrator import (GenAlphaParams, StatePair, _reuse_last, _update_base,
                         shifted_state)

# 3-point Gauss rule on the reference element [0, 1]
_QP = (0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6))
_QW = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
_W = np.asarray(_QW)
_PHI = np.stack([1.0 - np.asarray(_QP), np.asarray(_QP)], axis=1)  # (q, local node)
_LEFT, _RIGHT = _PHI[None, :, 0, None], _PHI[None, :, 1, None]  # (1, q, 1)
_DPHI_REF = np.array([-1.0, 1.0])  # dx * dphi/dx of the (left, right) basis
_PHI_B = _PHI[:, :, None, None]  # (q, b, 1, 1)


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


def _at_basis(phi, block):
    """phi[q, b] * block[e, q, i, j], broadcast, for a phi shaped to stand
    before block's last two axes."""
    block = np.asarray(block)
    return phi * (block[..., None, :, :] if block.ndim >= 2 else block)


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

    def assemble_matrix(self, t_val, f_val, f_der, t_der=None,
                        out=None) -> np.ndarray:
        """Dense (m, m) derivative of `assemble_rows` from per-point blocks.

        With (n_el, 3, p, p) blocks (or broadcastable ones), the block of
        rows a and columns b is int (t_val phi_b + t_der phi_b') phi_a
        - int (f_val phi_b + f_der phi_b') phi_a'.  The matrix is written
        into `out`, a C-contiguous (m, m) float64 array, when one is given,
        else into a new one, and returned.  Element e's blocks are added
        into zeros at the periodic nodes (e, e+1) through strided views of
        the (m, m) layout, one statement per block diagonal and periodic
        corner, so at n_el = 2, where two of them meet, both are added.
        Each entry is 0 plus at most two terms, the same bits in either
        order, so the result equals a np.add.at scatter bit for bit.
        """
        n, dx = self.n_elements, self.dx
        dphi = _DPHI_REF / dx
        dphi_b = dphi[:, None, None]  # (b, 1, 1)
        shape = np.broadcast_shapes(np.shape(t_val), np.shape(f_val),
                                    np.shape(f_der), np.shape(t_der),
                                    (n, 3, 1, 1))
        points = shape[:2] + (2,) + shape[2:]  # (n_el, 3, b, p, p)
        temporal = _at_basis(_PHI_B, t_val)
        if t_der is not None:
            temporal = temporal + _at_basis(dphi_b, t_der)
        flux = _at_basis(_PHI_B, f_val) + _at_basis(dphi_b, f_der)
        temporal, flux = (x if x.shape == points else np.broadcast_to(x, points)
                          for x in (temporal, flux))
        local = dx * (np.einsum("q,qa,eqbij->eabij", _W, _PHI, temporal)
                      - np.einsum("q,a,eqbij->eabij", _W, dphi, flux))
        p = shape[-1]
        m = n * p
        if out is None:
            out = np.empty((m, m))
        elif not (out.shape == (m, m) and out.dtype == np.float64
                  and out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous ({m}, {m}) float64 "
                             f"array, got {out.dtype} {out.shape}")
        out.fill(0.0)
        row, col = out.strides

        def band(first_row, first_col, count):
            """Blocks (first_row + k, first_col + k) for k < count."""
            return np.ndarray((count, p, p), out.dtype, out,
                              p * (first_row * row + first_col * col),
                              (p * (row + col), row, col))

        diag = band(0, 0, n)
        diag += local[:, 0, 0]
        diag[1:] += local[:-1, 1, 1]
        diag[0] += local[-1, 1, 1]
        upper, lower = band(0, 1, n - 1), band(1, 0, n - 1)
        upper += local[:-1, 0, 1]           # (e, e+1)
        out[m - p:, :p] += local[-1, 0, 1]  # (n-1, 0)
        lower += local[:-1, 1, 0]           # (e+1, e)
        out[:p, m - p:] += local[-1, 1, 0]  # (0, n-1)
        return out


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

    rho = p/T (gas constant 1), E = p/(gamma-1) + rho*u^2/2.  Provides the
    analytic Jacobian dU/dV and its derivative (the Hessian of U), which the
    modified scheme's Newton linearization consumes.  Each method takes stacked
    points v of shape (..., 3) and an optional x of matching shape (...),
    which an AdmissibilityError names.  The public methods check v first;
    the unchecked formulas `_to_conserved`, `_jacobian` and `_hessian` serve
    callers that have already passed v through `check`.
    """

    p = 3

    def __init__(self, gamma_gas: float):
        if not (math.isfinite(gamma_gas) and gamma_gas > 1.0):
            raise ValueError(f"gamma_gas must be finite and exceed 1, got {gamma_gas}")
        self.gamma_gas = gamma_gas

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
        rho = pres / temp
        return np.stack([rho, rho * vel,
                         pres / (self.gamma_gas - 1.0) + 0.5 * rho * vel ** 2],
                        axis=-1)

    def _jacobian(self, v):
        pres, vel, temp = v[..., 0], v[..., 1], v[..., 2]
        rho = pres / temp
        return _stack_matrix([
            [1.0 / temp, 0.0, -rho / temp],
            [vel / temp, rho, -rho * vel / temp],
            [1.0 / (self.gamma_gas - 1.0) + 0.5 * vel ** 2 / temp, rho * vel,
             -0.5 * rho * vel ** 2 / temp],
        ])

    def _hessian(self, v):
        pres, vel, temp = v[..., 0], v[..., 1], v[..., 2]
        h = np.zeros(np.shape(v) + (3, 3))
        # U_0 = p/T
        h[..., 0, 0, 2] = h[..., 0, 2, 0] = -1.0 / (temp * temp)
        h[..., 0, 2, 2] = 2.0 * pres / (temp * temp ** 2)
        # U_1 = p u/T
        h[..., 1, 0, 1] = h[..., 1, 1, 0] = 1.0 / temp
        h[..., 1, 0, 2] = h[..., 1, 2, 0] = -vel / (temp * temp)
        h[..., 1, 1, 2] = h[..., 1, 2, 1] = -pres / (temp * temp)
        h[..., 1, 2, 2] = 2.0 * pres * vel / (temp * temp ** 2)
        # U_2 = p/(g-1) + p u^2/(2 T)
        h[..., 2, 0, 1] = h[..., 2, 1, 0] = vel / temp
        h[..., 2, 0, 2] = h[..., 2, 2, 0] = -0.5 * vel ** 2 / (temp * temp)
        h[..., 2, 1, 1] = pres / temp
        h[..., 2, 1, 2] = h[..., 2, 2, 1] = -pres * vel / (temp * temp)
        h[..., 2, 2, 2] = pres * vel ** 2 / (temp * temp ** 2)
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


class _Iterate(NamedTuple):
    """One iterate's fields at the points, shared by its residual and Jacobian."""

    v: np.ndarray         # V (V_{n+af} in a step) and its x-derivative
    dv: np.ndarray
    conserved: tuple      # their `_conserved_fields`: dU/dV, U and U_x
    temporal: object      # the fields the scheme's temporal term needs


class _PeriodicGalerkinBase:
    """The kernels of the three systems over a variable map U(V), with
    their geometry, step problem and audit plumbing.

    R rows are int(T W) - int(F W') - int(S W) at U(V), plus a
    componentwise gradient penalty of coefficient `stab` (it vanishes
    against constant test functions), from `step_residual` and its Jacobian
    `step_jacobian` alone.  The temporal term T is (dU/dV) V̇ except in the
    modified scheme's step.  The conserved system is the identity-map case:
    `varmap=None` means V = U, and the kernels skip dU/dV = I, H = 0.

    Every Jacobian a system's step problem builds is written into one (m, m)
    buffer of that system, allocated at its first step, so a step-problem
    Jacobian is valid until the system's next Jacobian call.  Public
    `iteration_matrix` returns a new array.
    """

    def __init__(self, space: PeriodicFemSpace, model, varmap=None,
                 stab: float = 0.0):
        self.space = space
        self.model = model
        self.varmap = varmap
        self.stab = stab
        self.p = model.p
        self.m = space.n_elements * self.p
        self.x_quad = space.quad_points()
        self._jacobian = None

    def step_problem(self, state_n: StatePair, dt: float, params: GenAlphaParams):
        """The kernels in w = V̇_{n+1} at V_{n+af} and t_{n+af}, each iterate
        built once for both by the scheme's `_step_terms`, which also gives
        T and T's Jacobian; the Jacobians are built in the system's buffer."""
        af, g = params.alpha_f, params.gamma
        t_af = state_n.t + af * dt
        v_base = _update_base(state_n.u, state_n.u_dot, dt, g)
        v_af0, dt_g, c_u = (1.0 - af) * state_n.u, dt * g, af * g * dt
        iterate_at, term, term_jacobian = self._step_terms(state_n, dt, params)
        if self._jacobian is None:
            self._jacobian = np.empty((self.m, self.m))

        @_reuse_last
        def iterate(w):
            v_np1 = v_base + dt_g * w
            return iterate_at(w, v_np1, v_af0 + af * v_np1)

        def residual(w):
            return self.step_residual(iterate(w), term, t_af)

        def jacobian(w):
            return self.step_jacobian(iterate(w), term_jacobian, c_u, t_af,
                                      self._jacobian)
        return residual, jacobian

    def _step_terms(self, state_n, dt, params):
        """A step's iterate at (w, V_{n+1}, V_{n+af}), T at an iterate and
        T's Jacobian, for T = (dU/dV)(V_{n+af}) V̇_{n+am}."""
        am = params.alpha_m
        v_am0, c_u = (1.0 - am) * state_n.u_dot, params.alpha_f * params.gamma * dt
        return (lambda w, v_np1, v_af: self._iterate(v_am0 + am * w, v_af),
                self._rate, partial(self._rate_jacobian, am, c_u))

    def project(self, fn: Callable) -> np.ndarray:
        return project_periodic(self.space, fn, self.p)

    def balance_outflow(self, u_alpha_f, t_alpha_f: float) -> float:
        return 0.0  # periodic domain has no boundary flux

    def _check(self, *fields):
        """Admissibility of V fields, each (n_el, 3, p): the first bad point
        in the order a pointwise loop over (element, point, field) meets it.
        The unchecked varmap formulas are then called on them.  Conserved
        fields are left to the model, which checks what it evaluates."""
        if self.varmap is None:
            return
        if len(fields) == 1:
            self.varmap.check(fields[0], self.x_quad)
        else:
            self.varmap.check(np.stack(fields, axis=2), self.x_quad[:, :, None])

    def _conserved_fields(self, v, dv):
        """dU/dV (None when V = U), U and U_x at checked stacked points."""
        if self.varmap is None:
            return None, v, dv
        a0 = self.varmap._jacobian(v)
        return a0, self.varmap._to_conserved(v), _matvec(a0, dv)

    def _shifted(self, v, v_dot, shift):
        """Û = U(V) + shift * (dU/dV)(V) V̇ at checked stacked points."""
        return (self.varmap._to_conserved(v)
                + shift * _matvec(self.varmap._jacobian(v), v_dot))

    def _iterate(self, v_dot, v, *checked_with) -> _Iterate:
        """The iterate at (V̇, V) with V̇ as its temporal field, V checked
        jointly with the V fields `checked_with`."""
        vals, derivs = _field_values(self.space, v, self.p)
        dot_vals, _ = _field_values(self.space, v_dot, self.p)
        self._check(*checked_with, vals)
        return _Iterate(vals, derivs, self._conserved_fields(vals, derivs),
                        dot_vals)

    @staticmethod
    def _rate(it: _Iterate):
        """The semi-discrete temporal term (dU/dV)(V) V̇ at an iterate."""
        a0 = it.conserved[0]
        return it.temporal if a0 is None else _matvec(a0, it.temporal)

    def _rate_jacobian(self, c_dot: float, c_u: float, it: _Iterate, h):
        """c_dot*d/dV̇ + c_u*d/dV of `_rate` at an iterate, H the Hessian there."""
        if h is None:
            return c_dot * np.eye(self.p)
        return (c_dot * it.conserved[0]
                + c_u * np.einsum("...jkl,...k->...jl", h, it.temporal))

    def step_residual(self, it: _Iterate, temporal: Callable, t: float):
        """Rows of R at an iterate, with T = temporal(it) at the points."""
        _, u, du = it.conserved
        x = self.x_quad
        flux = self.model.flux(u, du, x, t) - self.stab * it.dv
        return self.space.assemble_rows(
            temporal(it) - self.model.source(u, du, x, t), flux)

    def step_jacobian(self, it: _Iterate, temporal_jacobian: Callable,
                      c_u: float, t: float, out) -> np.ndarray:
        """The Jacobian of `step_residual` at an iterate, in `out` (a new
        array when None).

        `temporal_jacobian(it, H)` is T's block, given the Hessian H of U at
        V (None when V = U), and c_u = dV/dw scales the flux and source
        blocks.  F and S depend on V through U(V) and U_x = (dU/dV) V_x, so
        each V-derivative splits into a value part (A_U A0 + A_Ux (H : V_x))
        and an x-derivative part (A_Ux A0), with A0 = dU/dV.
        """
        a0, u, du = it.conserved
        f_val, f_der = self.model.flux_jacobian(u, du, self.x_quad, t)
        s_val, s_der = self.model.source_jacobian(u, du, self.x_quad, t)
        h = None
        if a0 is not None:
            h = self.varmap._hessian(it.v)
            h_dv = np.einsum("...jkl,...k->...jl", h, it.dv)
            f_val, f_der = f_val @ a0 + f_der @ h_dv, f_der @ a0
            s_val, s_der = s_val @ a0 + s_der @ h_dv, s_der @ a0
        return self.space.assemble_matrix(
            temporal_jacobian(it, h) - c_u * s_val, c_u * f_val,
            c_u * (f_der - self.stab * np.eye(self.p)), t_der=-c_u * s_der,
            out=out)

    def residual(self, v_dot, v, t):
        return self.step_residual(self._iterate(v_dot, v), self._rate, t)

    def iteration_matrix(self, c_dot, c_u, v_dot, v, t):
        return self.step_jacobian(self._iterate(v_dot, v),
                                  partial(self._rate_jacobian, c_dot, c_u),
                                  c_u, t, None)

    def total(self, coeffs) -> np.ndarray:
        """Integral of the pointwise conserved field U(V^h)."""
        vals, _ = _field_values(self.space, coeffs, self.p)
        self._check(vals)
        return self.space.integrate(
            vals if self.varmap is None else self.varmap._to_conserved(vals))

    def shifted_balance_total(self, state: StatePair, dt: float,
                              alpha_f: float) -> np.ndarray:
        """Integral of Û = U(V^h) + (alpha_f - 1/2)*dt*(dU/dV)(V^h) V̇^h; for
        V = U, the total of the `shifted_state` coefficients."""
        if self.varmap is None:
            return self.total(shifted_state(state, dt, alpha_f))
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


class ConservedSystem(_PeriodicGalerkinBase):
    """Galerkin residual in conservation variables, R(U̇, U, t): the kernels'
    identity-map case, with the optional `supg-like` gradient penalty of
    coefficient dx/2.
    """

    admits_balance_law = True

    def __init__(self, space: PeriodicFemSpace, model, stabilization: str = "none"):
        if stabilization not in ("none", "supg-like"):
            raise ValueError(f"unknown stabilization {stabilization!r}")
        stab = 0.5 * space.dx if stabilization == "supg-like" else 0.0
        super().__init__(space, model, stab=stab)


class NonconservativeSystem(_PeriodicGalerkinBase):
    """Standard V-variable discretization: temporal term (dU/dV)(V_af) V̇_am.

    Its fully-discrete conserved totals drift even for second-order
    parameters on a uniform mesh; the audit records that drift.
    """

    admits_balance_law = False

    def __init__(self, space: PeriodicFemSpace, model, varmap):
        if model.p != varmap.p:
            raise ValueError("model and variable map disagree on p")
        super().__init__(space, model, varmap)


class ModifiedNonconservativeSystem(NonconservativeSystem):
    """V-variable discretization with the conservative shifted-state temporal term.

    In a step, the temporal term is (Û+_{n+af+1/2} - Û-_{n+af-1/2})/dt
    tested against W: it represents the rate only for second-order
    parameters, and the shifted states chain only on a uniform time mesh.
    The inherited `residual` is the semi-discrete equation, which gives the
    consistent initial rate.
    """

    admits_balance_law = True
    requires_shifted_midpoint = True

    def _step_terms(self, state_n, dt, params):
        """Û- = Û(V_n, V̇_n) once per step, each iterate's joint check of V_n,
        V_{n+1} and V_{n+af}, and the temporal term (Û+ - Û-)/dt with its
        exact w-derivative (chain rule incl. H), Û+ = Û(V_{n+1}, w)."""
        af, g = params.alpha_f, params.gamma
        shift = (af - 0.5) * dt
        vn, _ = _field_values(self.space, state_n.u, self.p)
        try:
            self._check(vn)
        except AdmissibilityError:
            minus = None  # each iterate's joint check raises first
        else:
            minus = self._shifted(
                vn, _field_values(self.space, state_n.u_dot, self.p)[0], shift)

        def iterate_at(w, v_np1, v_af):
            vp, _ = _field_values(self.space, v_np1, self.p)
            it = self._iterate(w, v_af, vn, vp)  # checked with V_n, V_{n+1}
            return it._replace(temporal=(vp, it.temporal,
                                         self.varmap._jacobian(vp)))

        def term(it):
            vp, w, a0_np1 = it.temporal
            plus = self.varmap._to_conserved(vp) + shift * _matvec(a0_np1, w)
            return (plus - minus) / dt

        def jacobian(it, h):
            vp, w, a0_np1 = it.temporal
            h_w = np.einsum("...jkl,...k->...jl", self.varmap._hessian(vp), w)
            return (g + (af - 0.5)) * a0_np1 + (af - 0.5) * g * dt * h_w
        return iterate_at, term, jacobian
