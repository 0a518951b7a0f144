"""Generalized-alpha stepping kernel for first- and second-order IVPs.

The first-order scheme advances a solution/rate pair (U_n, U̇_n) by solving

    R(U̇_{n+am}, U_{n+af}, t_{n+af}) = 0,
    U_{n+1} = U_n + dt*((1-gamma)*U̇_n + gamma*U̇_{n+1}),

with U̇_{n+am} = (1-am)*U̇_n + am*U̇_{n+1} and
U_{n+af} = (1-af)*U_n + af*U_{n+1}.  When gamma = 1/2 + am - af the scheme
is second-order accurate and, on a uniform time mesh, coincides with an
implicit midpoint method acting on states shifted by (af - 1/2)*dt; the
helpers `shifted_state` and `midpoint_identity_residual` expose that
structure for diagnostics and balance-law audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import ConfigurationError, NewtonConvergenceError

_FLAG_TOL = 1e-14
_REL_DT_TOL = 1e-14  # relative spread below which a dt schedule is uniform


def _as_vector(x) -> np.ndarray:
    """Coerce scalar-or-array input to a 1D float or complex vector."""
    arr = np.atleast_1d(np.asarray(x))
    if not np.issubdtype(arr.dtype, np.complexfloating):
        arr = arr.astype(float)
    return arr


@dataclass(frozen=True)
class GenAlphaParams:
    """The (alpha_m, alpha_f, gamma) triple, optionally with rho_inf provenance.

    `beta` is only consumed by the second-order-IVP stepper; it is attached
    automatically by `params_from_rho_inf` and may be supplied to
    `make_params` by hand.
    """

    alpha_m: float
    alpha_f: float
    gamma: float
    rho_inf: float | None = None
    beta: float | None = None

    def is_second_order(self) -> bool:
        return abs(self.gamma - (0.5 + self.alpha_m - self.alpha_f)) <= _FLAG_TOL

    def is_unconditionally_stable(self) -> bool:
        return (self.alpha_m >= self.alpha_f - _FLAG_TOL
                and self.alpha_f >= 0.5 - _FLAG_TOL)


def params_from_rho_inf(rho_inf: float) -> GenAlphaParams:
    """Parameters with prescribed high-frequency damping rho_inf in [0, 1].

    alpha_m = (3 - rho_inf) / (2*(1 + rho_inf)), alpha_f = 1/(1 + rho_inf),
    gamma = alpha_f.  The returned params are second-order accurate and
    unconditionally stable for the linear model problem; beta is set to
    (1 + alpha_m - alpha_f)^2 / 4 for second-order-IVP use.
    """
    if not (0.0 <= rho_inf <= 1.0) or not np.isfinite(rho_inf):
        raise ValueError(f"rho_inf must lie in [0, 1], got {rho_inf}")
    alpha_m = 0.5 * (3.0 - rho_inf) / (1.0 + rho_inf)
    alpha_f = 1.0 / (1.0 + rho_inf)
    gamma = alpha_f
    beta = 0.25 * (1.0 + alpha_m - alpha_f) ** 2
    return GenAlphaParams(alpha_m, alpha_f, gamma, rho_inf=rho_inf, beta=beta)


def make_params(alpha_m: float, alpha_f: float, gamma: float,
                beta: float | None = None) -> GenAlphaParams:
    """Store an explicit parameter triple verbatim (no rho_inf provenance).

    Deliberately admits non-second-order and unstable combinations so that
    negative tests can exercise the diagnostics.
    """
    vals = (alpha_m, alpha_f, gamma) + (() if beta is None else (beta,))
    if not all(np.isfinite(v) for v in vals):
        raise ValueError(f"parameters must be finite, got {vals}")
    return GenAlphaParams(float(alpha_m), float(alpha_f), float(gamma), beta=beta)


@dataclass(frozen=True)
class StatePair:
    """Solution/rate pair (U_n, U̇_n) at time t, the integrator's per-step state."""

    u: np.ndarray
    u_dot: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "u", _as_vector(self.u))
        object.__setattr__(self, "u_dot", _as_vector(self.u_dot))
        if self.u.shape != self.u_dot.shape:
            raise ValueError(f"u and u_dot dimensions differ: "
                             f"{self.u.shape} vs {self.u_dot.shape}")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.u_dot))):
            raise ValueError("state entries must be finite")


@dataclass(frozen=True)
class SecondOrderState:
    """Solution/velocity/acceleration triple for second-order IVPs."""

    u: np.ndarray
    u_dot: np.ndarray
    u_ddot: np.ndarray
    t: float

    def __post_init__(self):
        for name in ("u", "u_dot", "u_ddot"):
            object.__setattr__(self, name, _as_vector(getattr(self, name)))
        if not (self.u.shape == self.u_dot.shape == self.u_ddot.shape):
            raise ValueError("u, u_dot, u_ddot dimensions differ")
        for name in ("u", "u_dot", "u_ddot"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("state entries must be finite")


@runtime_checkable
class ResidualSystem(Protocol):
    """Capability contract for a first-order semi-discrete system R(U̇, U, t).

    A system whose temporal term needs the whole step context defines
    `step_residual(w, state_n, dt, params)` and `step_jacobian` in the Newton
    unknown w = U̇_{n+1} instead, which `step` then solves.  It sets
    `requires_shifted_midpoint = True` if it holds only where the scheme is
    a shifted midpoint rule: second-order parameters on a uniform time mesh.
    """

    def dimension(self) -> int: ...

    def residual(self, u_dot: np.ndarray, u: np.ndarray, t: float) -> np.ndarray: ...

    def iteration_matrix(self, c_dot: float, c_u: float, u_dot: np.ndarray,
                         u: np.ndarray, t: float) -> np.ndarray:
        """c_dot*dR/dU̇ + c_u*dR/dU at (u_dot, u, t).

        A dense ndarray, or an object with `@` (matrix-vector product) and
        `solve(b)`, which Newton then calls in place of `np.linalg.solve`.
        """
        ...


class SecondOrderResidualSystem(Protocol):
    """Capability contract for a second-order system R(Ü, U̇, U, t)."""

    def dimension(self) -> int: ...

    def residual(self, u_ddot: np.ndarray, u_dot: np.ndarray, u: np.ndarray,
                 t: float) -> np.ndarray: ...

    def iteration_matrix(self, c_ddot: float, c_dot: float, c_u: float,
                         u_ddot: np.ndarray, u_dot: np.ndarray, u: np.ndarray,
                         t: float) -> np.ndarray: ...


@dataclass(frozen=True)
class NewtonSettings:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iters: int = 30

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("Newton tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _check_dt(dt) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")


def _solve(matrix, b: np.ndarray) -> np.ndarray:
    """`matrix.solve(b)` when the matrix provides one, else a dense LAPACK solve."""
    return matrix.solve(b) if hasattr(matrix, "solve") else np.linalg.solve(matrix, b)


def _newton(residual: Callable[[np.ndarray], np.ndarray],
            jacobian: Callable[[np.ndarray], np.ndarray],
            x0: np.ndarray, settings: NewtonSettings,
            use_rel_tol: bool = True) -> tuple[np.ndarray, list[float]]:
    """Newton iteration with a scaled infinity-norm stopping rule.

    Stops at the first non-finite residual norm rather than iterating on it.
    """
    x = np.array(x0, copy=True)
    r = residual(x)
    norms = [float(np.linalg.norm(r, np.inf))]
    tol = settings.abs_tol
    if use_rel_tol:
        tol = max(tol, settings.rel_tol * norms[0])
    while True:
        if not math.isfinite(norms[-1]):
            raise NewtonConvergenceError(
                f"non-finite residual norm at Newton iteration {len(norms) - 1}; "
                f"residual norms {norms}", norms)
        if norms[-1] <= tol:
            return x, norms
        if len(norms) > settings.max_iters:
            raise NewtonConvergenceError(
                f"Newton failed to converge in {settings.max_iters} iterations; "
                f"residual norms {norms}", norms)
        x = x - _solve(jacobian(x), r)   # frees J before the next one is built
        r = residual(x)
        norms.append(float(np.linalg.norm(r, np.inf)))


def consistent_initial_rate(system: ResidualSystem, u0, t0: float = 0.0,
                            newton: NewtonSettings = NewtonSettings()) -> np.ndarray:
    """Rate U̇0 with R(U̇0, U0, t0) = 0, by Newton in the rate argument.

    Starts from the zero vector; converges in one iteration whenever R is
    linear in U̇ (the usual mass-matrix case).
    """
    u0 = _as_vector(u0)

    def res(v):
        return system.residual(v, u0, t0)

    def jac(v):
        return system.iteration_matrix(1.0, 0.0, v, u0, t0)

    v, _ = _newton(res, jac, np.zeros_like(u0), newton, use_rel_tol=False)
    return v


def step(system: ResidualSystem, state_n: StatePair, dt: float,
         params: GenAlphaParams,
         newton: NewtonSettings = NewtonSettings()) -> StatePair:
    """One generalized-alpha step; Newton unknown is U̇_{n+1}.

    The predictor is the constant-solution choice U̇_{n+1} = ((gamma-1)/gamma)*U̇_n
    and the iteration matrix is alpha_m*dR/dU̇ + alpha_f*gamma*dt*dR/dU, or
    the system's own `step_residual`/`step_jacobian` when it defines them.
    The returned state satisfies the update relation
    U_{n+1} = U_n + dt*((1-gamma)*U̇_n + gamma*U̇_{n+1}) to rounding.
    """
    _check_dt(dt)
    if (getattr(system, "requires_shifted_midpoint", False)
            and not params.is_second_order()):
        raise ConfigurationError(
            f"{type(system).__name__} requires second-order parameters "
            f"(gamma = 1/2 + alpha_m - alpha_f); got {params}")
    am, af, g = params.alpha_m, params.alpha_f, params.gamma
    if g == 0.0:
        raise ValueError("gamma = 0 leaves U̇_{n+1} undetermined")
    u_n, v_n = state_n.u, state_n.u_dot
    t_af = state_n.t + af * dt
    u_base = u_n + dt * (1.0 - g) * v_n

    if hasattr(system, "step_residual"):
        def res(v):
            return system.step_residual(v, state_n, dt, params)

        def jac(v):
            return system.step_jacobian(v, state_n, dt, params)
    else:
        def blend(v):
            """(U̇_{n+am}, U_{n+af}) implied by U̇_{n+1} = v."""
            return ((1.0 - am) * v_n + am * v,
                    (1.0 - af) * u_n + af * (u_base + dt * g * v))

        def res(v):
            return system.residual(*blend(v), t_af)

        def jac(v):
            return system.iteration_matrix(am, af * g * dt, *blend(v), t_af)

    v0 = ((g - 1.0) / g) * v_n
    v_np1, _ = _newton(res, jac, v0, newton)
    return StatePair(u_base + dt * g * v_np1, v_np1, state_n.t + dt)


def integrate(system: ResidualSystem, state0: StatePair, dts: Sequence[float],
              params: GenAlphaParams, newton: NewtonSettings = NewtonSettings(),
              ledger=None) -> list[StatePair]:
    """Run `step` over a per-step dt schedule; returns all states incl. state0.

    Each step is recorded into `ledger` (an `audit.BalanceLedger`) when one
    is given.  A system with `requires_shifted_midpoint` refuses a
    nonuniform schedule before the first step.
    """
    if (getattr(system, "requires_shifted_midpoint", False)
            and any(abs(dt - dts[0]) > _REL_DT_TOL * abs(dts[0]) for dt in dts)):
        raise ConfigurationError(
            f"{type(system).__name__} is only conservative on a uniform time "
            f"mesh; got a nonuniform dt schedule")
    states = [state0]
    for dt in dts:
        states.append(step(system, states[-1], dt, params, newton))
        if ledger is not None:
            ledger.record_step(system, states[-2], states[-1], params, dt)
    return states


def shifted_state(state: StatePair, dt: float, alpha_f: float,
                  side: str = "minus") -> np.ndarray:
    """Shifted solution U + (alpha_f - 1/2)*dt*U̇ at the given state.

    With the state taken at t_{n+1} this is U+_{n+af} (side="plus"); taken at
    t_n it is U-_{n+af} (side="minus"), which on a uniform mesh is the
    shifted-mesh value U_{n+af-1/2}.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    _check_dt(dt)
    return state.u + (alpha_f - 0.5) * dt * state.u_dot


def midpoint_identity_residual(state_n: StatePair, state_np1: StatePair,
                               dt: float, params: GenAlphaParams) -> float:
    """Inf-norm defect of U̇_{n+am} = (U+_{n+af} - U-_{n+af})/dt.

    Vanishes identically (to rounding) for consecutive outputs of `step`
    whenever the parameters are second-order accurate; the defect equals
    (gamma - 1/2 - alpha_m + alpha_f)*(U̇_n - U̇_{n+1}) otherwise.
    """
    am, af = params.alpha_m, params.alpha_f
    v_am = (1.0 - am) * state_n.u_dot + am * state_np1.u_dot
    u_plus = shifted_state(state_np1, dt, af, "plus")
    u_minus = shifted_state(state_n, dt, af, "minus")
    return float(np.linalg.norm(v_am - (u_plus - u_minus) / dt, np.inf))


def consistent_initial_acceleration(system: SecondOrderResidualSystem, u0, v0,
                                    t0: float = 0.0,
                                    newton: NewtonSettings = NewtonSettings()
                                    ) -> np.ndarray:
    """Acceleration Ü0 with R(Ü0, U̇0, U0, t0) = 0, by Newton from zero."""
    u0, v0 = _as_vector(u0), _as_vector(v0)

    def res(a):
        return system.residual(a, v0, u0, t0)

    def jac(a):
        return np.asarray(system.iteration_matrix(1.0, 0.0, 0.0, a, v0, u0, t0))

    a, _ = _newton(res, jac, np.zeros_like(u0), newton, use_rel_tol=False)
    return a


def step_second_order(system: SecondOrderResidualSystem, state_n: SecondOrderState,
                      dt: float, params: GenAlphaParams,
                      newton: NewtonSettings = NewtonSettings()) -> SecondOrderState:
    """One generalized-alpha step for R(Ü, U̇, U, t) = 0 with Newmark updates.

    U_{n+1} = U_n + dt*U̇_n + dt^2*((1/2-beta)*Ü_n + beta*Ü_{n+1}),
    U̇_{n+1} = U̇_n + dt*((1-gamma)*Ü_n + gamma*Ü_{n+1}),
    and the residual is enforced at (Ü_{n+am}, U̇_{n+af}, U_{n+af}, t_{n+af}).
    Newton unknown is Ü_{n+1}.
    """
    if params.beta is None:
        raise ValueError("second-order stepping requires params.beta")
    _check_dt(dt)
    am, af, g, beta = params.alpha_m, params.alpha_f, params.gamma, params.beta
    if g == 0.0:
        raise ValueError("gamma = 0 leaves Ü_{n+1} undetermined")
    u_n, v_n, a_n = state_n.u, state_n.u_dot, state_n.u_ddot
    t_af = state_n.t + af * dt
    u_base = u_n + dt * v_n + dt * dt * (0.5 - beta) * a_n
    v_base = v_n + dt * (1.0 - g) * a_n

    def parts(a):
        a_am = (1.0 - am) * a_n + am * a
        v_af = (1.0 - af) * v_n + af * (v_base + dt * g * a)
        u_af = (1.0 - af) * u_n + af * (u_base + dt * dt * beta * a)
        return a_am, v_af, u_af

    def res(a):
        a_am, v_af, u_af = parts(a)
        return system.residual(a_am, v_af, u_af, t_af)

    def jac(a):
        a_am, v_af, u_af = parts(a)
        return np.asarray(system.iteration_matrix(
            am, af * g * dt, af * beta * dt * dt, a_am, v_af, u_af, t_af))

    a0 = ((g - 1.0) / g) * a_n
    a_np1, _ = _newton(res, jac, a0, newton)
    return SecondOrderState(u_base + dt * dt * beta * a_np1,
                            v_base + dt * g * a_np1, a_np1, state_n.t + dt)


def second_order_identity_residual(state_n: SecondOrderState,
                                   state_np1: SecondOrderState,
                                   dt: float, params: GenAlphaParams) -> float:
    """Inf-norm defect of Ü_{n+am} = (U̇_{n+af+1/2} - U̇_{n+af-1/2})/dt.

    U̇_{n+af±1/2} := U̇ + (alpha_f - 1/2)*dt*Ü at the respective interval end.
    """
    am, af = params.alpha_m, params.alpha_f
    a_am = (1.0 - am) * state_n.u_ddot + am * state_np1.u_ddot
    v_plus = state_np1.u_dot + (af - 0.5) * dt * state_np1.u_ddot
    v_minus = state_n.u_dot + (af - 0.5) * dt * state_n.u_ddot
    return float(np.linalg.norm(a_am - (v_plus - v_minus) / dt, np.inf))
