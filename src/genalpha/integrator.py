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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import AdmissibilityError, ConfigurationError, NewtonConvergenceError

_FLAG_TOL = 1e-14
_REL_DT_TOL = 1e-14  # relative spread below which a dt schedule is uniform


def _as_vector(x) -> np.ndarray:
    """Coerce scalar-or-array input to a 1D float or complex vector."""
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype.kind != "c":
        arr = arr.astype(float)
    return arr


def _all_finite(x: np.ndarray) -> bool:
    """`np.isfinite(x).all()`, counted rather than reduced, which is cheaper."""
    return np.count_nonzero(np.isfinite(x)) == x.size


@dataclass(frozen=True)
class GenAlphaParams:
    """The (alpha_m, alpha_f, gamma) triple, optionally with rho_inf provenance.

    An explicit triple is stored verbatim: non-second-order and unstable
    combinations are admitted so that the diagnostics can be exercised;
    only non-finite values and gamma = 0 are rejected.  `beta`, read only by
    the second-order-IVP stepper, is derived, not given: Chung and
    Hulbert's (1 + alpha_m - alpha_f)^2/4, which must be finite too.
    """

    alpha_m: float
    alpha_f: float
    gamma: float
    rho_inf: float | None = None
    beta: float = field(init=False)

    def __post_init__(self):
        try:
            beta = 0.25 * (1.0 + self.alpha_m - self.alpha_f) ** 2
        except OverflowError:
            beta = math.inf
        vals = (self.alpha_m, self.alpha_f, self.gamma)
        if not all(np.isfinite(v) for v in vals + (beta,)):
            raise ValueError(f"parameters and beta = (1 + alpha_m - alpha_f)^2/4 "
                             f"must be finite, got {vals}")
        if self.gamma == 0.0:
            raise ValueError("gamma = 0 leaves U̇_{n+1} (Ü_{n+1}) undetermined")
        object.__setattr__(self, "beta", beta)

    def is_second_order(self) -> bool:
        return abs(self.gamma - (0.5 + self.alpha_m - self.alpha_f)) <= _FLAG_TOL

    def is_unconditionally_stable(self) -> bool:
        return (self.alpha_m >= self.alpha_f - _FLAG_TOL
                and self.alpha_f >= 0.5 - _FLAG_TOL)


def params_from_rho_inf(rho_inf: float) -> GenAlphaParams:
    """Parameters with prescribed high-frequency damping rho_inf in [0, 1].

    alpha_m = (3 - rho_inf) / (2*(1 + rho_inf)), alpha_f = 1/(1 + rho_inf),
    gamma = alpha_f.  The returned params are second-order accurate and
    unconditionally stable for the linear model problem; their beta is
    derived by `GenAlphaParams`.
    """
    if not (0.0 <= rho_inf <= 1.0) or not np.isfinite(rho_inf):
        raise ValueError(f"rho_inf must lie in [0, 1], got {rho_inf}")
    alpha_m = 0.5 * (3.0 - rho_inf) / (1.0 + rho_inf)
    alpha_f = 1.0 / (1.0 + rho_inf)
    gamma = alpha_f
    return GenAlphaParams(alpha_m, alpha_f, gamma, rho_inf=rho_inf)


def _check_state(state) -> None:
    """`__post_init__` of the state classes: every field but t coerced by
    `_as_vector`, all of one shape, with finite entries."""
    *names, _ = state.__match_args__
    arrays = [_as_vector(getattr(state, name)) for name in names]
    if any(arr.shape != arrays[0].shape for arr in arrays):
        raise ValueError(f"{', '.join(names)} dimensions differ: "
                         f"{' vs '.join(str(arr.shape) for arr in arrays)}")
    for name, arr in zip(names, arrays):
        if not _all_finite(arr):
            raise ValueError("state entries must be finite")
        object.__setattr__(state, name, arr)


@dataclass(frozen=True)
class StatePair:
    """Solution/rate pair (U_n, U̇_n) at time t, the integrator's per-step state."""

    u: np.ndarray
    u_dot: np.ndarray
    t: float

    __post_init__ = _check_state


@dataclass(frozen=True)
class SecondOrderState:
    """Solution/velocity/acceleration triple for second-order IVPs."""

    u: np.ndarray
    u_dot: np.ndarray
    u_ddot: np.ndarray
    t: float

    __post_init__ = _check_state


class ResidualSystem(Protocol):
    """Capability contract for a first-order semi-discrete system R(U̇, U, t).

    A system needs only `residual` and `iteration_matrix`; the
    `step_problem` and `requires_shifted_midpoint` below are optional.

    `step` solves each step's problem in the Newton unknown w = U̇_{n+1}.  A
    system may define `step_problem(state_n, dt, params) -> (residual,
    jacobian)`, two functions of w, and `step` solves those; a system whose
    temporal term needs the whole step context does so, and can compute
    what depends on the step's start state once per step.  Otherwise the
    residual is `residual`, and the Jacobian `iteration_matrix`, at the
    generalized-alpha blend of w.  Newton calls the residual and then the
    Jacobian at one iterate with the same array, so both may share work
    done for it.  A step problem may build every Jacobian into one buffer of
    its system: each is then valid until that system's next Jacobian call,
    which is how `_newton` uses it (one solve, then the next iterate), and
    one system must not be stepped from two threads at once.  `step`
    returns U_{n+1} = `_update_base(state_n, dt, gamma)` + dt*gamma*U̇_{n+1};
    a step problem that needs U_{n+1} as a function of w forms it the same
    way, so the two agree bit for bit.
    A system sets `requires_shifted_midpoint = True` if it holds only
    where the scheme is a shifted midpoint rule: second-order
    parameters on a uniform time mesh.  `residual` and `iteration_matrix`
    must not write into their array arguments: at one Newton iterate, both
    are given the same arrays.
    """

    def residual(self, u_dot: np.ndarray, u: np.ndarray, t: float) -> np.ndarray: ...

    def iteration_matrix(self, c_dot: float, c_u: float, u_dot: np.ndarray,
                         u: np.ndarray, t: float) -> np.ndarray:
        """c_dot*dR/dU̇ + c_u*dR/dU at (u_dot, u, t).

        A dense ndarray, or an object with `@` (matrix-vector product) and
        `solve(b)`.  Newton solves with the matrix's own `solve(b)` when it
        has one, and else with `np.linalg.solve`.  A state of one real
        component is stepped in Python floats (`_FLOATS`): the 1x1 ndarray
        is then solved by division, which equals LAPACK's result bit for
        bit.  A singular matrix raises `np.linalg.LinAlgError` on every
        path.
        """
        ...


class SecondOrderResidualSystem(Protocol):
    """Capability contract for a second-order system R(Ü, U̇, U, t): its
    residual and its iteration matrix c_ddot*dR/dÜ + c_dot*dR/dU̇ + c_u*dR/dU."""

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


def require_shifted_midpoint(system, params: GenAlphaParams,
                             dts: Sequence[float]) -> None:
    """Refuse parameters or a dt schedule that `system` does not admit.

    A system (or system class) with `requires_shifted_midpoint` holds only
    where the scheme is a shifted midpoint rule: it needs second-order
    parameters, checked first, and a uniform schedule.
    """
    if not getattr(system, "requires_shifted_midpoint", False):
        return
    name = (system if isinstance(system, type) else type(system)).__name__
    if not params.is_second_order():
        raise ConfigurationError(
            f"{name} requires second-order parameters "
            f"(gamma = 1/2 + alpha_m - alpha_f); got {params}")
    if any(abs(dt - dts[0]) > _REL_DT_TOL * abs(dts[0]) for dt in dts):
        raise ConfigurationError(
            f"{name} is only conservative on a uniform time mesh; got a "
            f"nonuniform dt schedule")


def _solve(matrix, b: np.ndarray) -> np.ndarray:
    """`matrix.solve(b)` when the matrix provides one; else a dense LAPACK solve."""
    if hasattr(matrix, "solve"):
        return matrix.solve(b)
    return np.linalg.solve(matrix, b)


def _divide(matrix, r: float) -> float:
    """r solved with the 1x1 Jacobian of one real component, by division.

    LAPACK solves a real 1x1 system by dividing by its pivot, so division
    gives `np.linalg.solve`'s bits without its call overhead, and a +-0
    pivot is singular on both.  A Jacobian that is not an ndarray goes to
    `_solve`.
    """
    if type(matrix) is not np.ndarray:
        return _solve(matrix, np.array((r,))).item()
    pivot = matrix.item()
    if pivot == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return r / pivot


def _inf_norm(r: np.ndarray) -> float:
    return float(np.abs(r).max())


class _Carrier(NamedTuple):
    """How a stepper carries a state's fields through one step: `read` takes
    a field, or a system's residual, to the value the stepper computes
    with, `wrap` one computed field to the array a system is called with,
    and `state(cls, *fields, t)` builds the result."""

    read: Callable
    wrap: Callable
    state: Callable


def _float_state(cls, *fields):
    """`cls(*fields)` from float fields and a time: fresh (1,) arrays, checked
    finite as the public constructor checks them, without its copy."""
    *values, t = fields
    for value in values:
        if not math.isfinite(value):
            raise ValueError("state entries must be finite")
    state = object.__new__(cls)
    vars(state).update(zip(cls.__match_args__, [*map(_FLOATS.wrap, values), t]))
    return state


# every field as its array: the general path
_ARRAYS = _Carrier(lambda x: x, lambda x: x, lambda cls, *fields: cls(*fields))
# one real component as Python floats, which round each +, -, *, / as numpy
# rounds it on one element, so both paths give the same bits
_FLOATS = _Carrier(lambda field: field.item(), lambda x: np.array((x,)),
                   _float_state)
_FLOAT64 = np.dtype(np.float64)


def _carrier(*fields: np.ndarray) -> _Carrier:
    """`_FLOATS` when every field holds one float64 component, else `_ARRAYS`."""
    for field in fields:
        if field.shape != (1,) or field.dtype is not _FLOAT64:
            return _ARRAYS
    return _FLOATS


def _reuse_last(blend: Callable[[np.ndarray], tuple]) -> Callable[[np.ndarray], tuple]:
    """`blend` that returns its last result again when given the same iterate.

    Newton evaluates the residual and then the matrix at one iterate, so a
    stepper's blend of each iterate is computed once for both.
    """
    last = [None, None]

    def reused(x):
        if x is not last[0]:
            last[0], last[1] = x, blend(x)
        return last[1]
    return reused


def _newton(residual: Callable[[np.ndarray], np.ndarray],
            jacobian: Callable[[np.ndarray], np.ndarray],
            x0: np.ndarray, settings: NewtonSettings,
            use_rel_tol: bool = True) -> tuple[np.ndarray, list[float]]:
    """Newton iteration with a scaled infinity-norm stopping rule.

    Stops at the first non-finite residual norm rather than iterating on it.
    The iterate and the residual are arrays, and `_solve` solves each
    Jacobian; or, when `x0` is a float, one real component carried as
    Python floats (`_FLOATS`): the residual is then a float with norm |r|,
    and the system's 1x1 Jacobian is solved by `_divide`.  Both give the
    same bits.
    """
    norm, solve = (abs, _divide) if isinstance(x0, float) else (_inf_norm, _solve)
    x = x0
    r = residual(x)
    norms = [norm(r)]
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
        # J is used for this one solve: the next Jacobian call may build
        # the next J in the same buffer, or free this one first
        x = x - solve(jacobian(x), r)
        r = residual(x)
        norms.append(norm(r))


def _consistent_top(system, lower: tuple, t0: float,
                    newton: NewtonSettings) -> np.ndarray:
    """The top derivative X with R(X, *lower, t0) = 0, by Newton from zero
    with the lower fields held fixed; converges in one iteration whenever R
    is linear in X (the usual mass-matrix case)."""
    lower = tuple(map(_as_vector, lower))
    zeros = (0.0,) * len(lower)

    def res(x):
        return system.residual(x, *lower, t0)

    def jac(x):
        return system.iteration_matrix(1.0, *zeros, x, *lower, t0)

    x, _ = _newton(res, jac, np.zeros_like(lower[-1]), newton, use_rel_tol=False)
    return x


def consistent_initial_rate(system: ResidualSystem, u0, t0: float = 0.0,
                            newton: NewtonSettings = NewtonSettings()) -> np.ndarray:
    """Rate U̇0 with R(U̇0, U0, t0) = 0, by Newton in the rate from zero."""
    return _consistent_top(system, (u0,), t0, newton)


def _update_base(u_n, v_n, dt: float, gamma: float):
    """U_n + dt*(1-gamma)*U̇_n: the update U_{n+1} less its dt*gamma*U̇_{n+1}."""
    return u_n + dt * (1.0 - gamma) * v_n


def _blended_step_problem(system: ResidualSystem, state_n: StatePair,
                          dt: float, params: GenAlphaParams, u_base,
                          carry: _Carrier = _ARRAYS) -> tuple[Callable, Callable]:
    """The default step problem: R at the generalized-alpha blend of w.

    The residual is R(U̇_{n+am}, U_{n+af}, t_{n+af}) and the Jacobian
    alpha_m*dR/dU̇ + alpha_f*gamma*dt*dR/dU, both as functions of
    w = U̇_{n+1}; one iterate's blend is computed once for both.  `u_base`
    is `step`'s `_update_base`, carried as `carry` carries the fields.
    """
    am, af, g = params.alpha_m, params.alpha_f, params.gamma
    read, wrap = carry.read, carry.wrap
    u_n, v_n = read(state_n.u), read(state_n.u_dot)
    t_af = state_n.t + af * dt
    v_am0, u_af0 = (1.0 - am) * v_n, (1.0 - af) * u_n
    dt_g, c_u = dt * g, af * g * dt

    @_reuse_last
    def blend(v):
        """(U̇_{n+am}, U_{n+af}) implied by U̇_{n+1} = v."""
        return wrap(v_am0 + am * v), wrap(u_af0 + af * (u_base + dt_g * v))

    def res(v):
        return read(system.residual(*blend(v), t_af))

    def jac(v):
        return system.iteration_matrix(am, c_u, *blend(v), t_af)
    return res, jac


def step(system: ResidualSystem, state_n: StatePair, dt: float,
         params: GenAlphaParams,
         newton: NewtonSettings = NewtonSettings()) -> StatePair:
    """One generalized-alpha step; Newton unknown is U̇_{n+1}.

    Newton solves the system's `step_problem(state_n, dt, params)`, or
    `_blended_step_problem` when the system defines none, from the
    constant-solution predictor U̇_{n+1} = ((gamma-1)/gamma)*U̇_n.  The
    returned state satisfies the update relation
    U_{n+1} = U_n + dt*((1-gamma)*U̇_n + gamma*U̇_{n+1}) to rounding.
    Without a step problem, a state of one real component is stepped in
    Python floats (`_FLOATS`), with the same bits.
    """
    _check_dt(dt)
    require_shifted_midpoint(system, params, ())
    g = params.gamma
    problem = getattr(system, "step_problem", None)
    carry = _ARRAYS if problem is not None else _carrier(state_n.u, state_n.u_dot)
    v_n = carry.read(state_n.u_dot)
    u_base = _update_base(carry.read(state_n.u), v_n, dt, g)
    res, jac = (problem(state_n, dt, params) if problem is not None
                else _blended_step_problem(system, state_n, dt, params, u_base,
                                           carry=carry))
    v_np1, _ = _newton(res, jac, ((g - 1.0) / g) * v_n, newton)
    return carry.state(StatePair, u_base + dt * g * v_np1, v_np1, state_n.t + dt)


def _at_step(exc: Exception, index: int, t: float, dt: float) -> Exception:
    """`exc` again, its message led by the step index, t and dt."""
    message = f"step {index} (t={t!r}, dt={dt!r}): {exc}"
    if isinstance(exc, NewtonConvergenceError):
        return type(exc)(message, exc.residual_norms)
    return type(exc)(message)


def integrate(system: ResidualSystem, state0: StatePair, dts: Sequence[float],
              params: GenAlphaParams, newton: NewtonSettings = NewtonSettings(),
              ledger=None) -> list[StatePair]:
    """Run `step` over a per-step dt schedule; returns all states incl. state0.

    Each step is recorded into `ledger` (an `audit.BalanceLedger`) when one
    is given.  `require_shifted_midpoint` checks the parameters and the
    schedule before the first step.  A `NewtonConvergenceError`
    or `AdmissibilityError` from a step is raised again, same type, with
    the step's index (from 0), t and dt before its message.
    """
    require_shifted_midpoint(system, params, dts)
    states = [state0]
    for dt in dts:
        try:
            states.append(step(system, states[-1], dt, params, newton))
        except (NewtonConvergenceError, AdmissibilityError) as exc:
            raise _at_step(exc, len(states) - 1, states[-1].t, dt) from exc
        if ledger is not None:
            ledger.record_step(system, states[-2], states[-1], params, dt)
    return states


def shifted_state(state: StatePair, dt: float, alpha_f: float) -> np.ndarray:
    """Shifted solution U + (alpha_f - 1/2)*dt*U̇ at the given state.

    With the state taken at t_{n+1} this is U+_{n+af}; taken at t_n it is
    U-_{n+af}, which on a uniform mesh is the shifted-mesh value
    U_{n+af-1/2}.
    """
    _check_dt(dt)
    return state.u + (alpha_f - 0.5) * dt * state.u_dot


def _identity_defect(top_n, top_np1, low_n, low_np1, dt,
                     params: GenAlphaParams) -> np.ndarray:
    """Inf-norm over the last axis of top_{n+am} - (low+ - low-)/dt.

    low± := low + (alpha_f - 1/2)*dt*top at the interval's two ends, and
    top_{n+am} := (1-alpha_m)*top_n + alpha_m*top_{n+1}.  The fields may
    stack k steps as the rows of (k, m) arrays, with dt a (k, 1) column;
    each row's defect then equals that step's alone to the bit.
    """
    am, af = params.alpha_m, params.alpha_f
    top_am = (1.0 - am) * top_n + am * top_np1
    low_plus = low_np1 + (af - 0.5) * dt * top_np1
    low_minus = low_n + (af - 0.5) * dt * top_n
    return np.abs(top_am - (low_plus - low_minus) / dt).max(axis=-1)


def midpoint_identity_residual(state_n: StatePair, state_np1: StatePair,
                               dt: float, params: GenAlphaParams) -> float:
    """Inf-norm defect of U̇_{n+am} = (U+_{n+af} - U-_{n+af})/dt.

    Vanishes identically (to rounding) for consecutive outputs of `step`
    whenever the parameters are second-order accurate; the defect equals
    (gamma - 1/2 - alpha_m + alpha_f)*(U̇_n - U̇_{n+1}) otherwise.
    """
    _check_dt(dt)
    return float(_identity_defect(state_n.u_dot, state_np1.u_dot, state_n.u,
                                  state_np1.u, dt, params))


def consistent_initial_acceleration(system: SecondOrderResidualSystem, u0, v0,
                                    t0: float = 0.0,
                                    newton: NewtonSettings = NewtonSettings()
                                    ) -> np.ndarray:
    """Acceleration Ü0 with R(Ü0, U̇0, U0, t0) = 0, by Newton from zero."""
    return _consistent_top(system, (v0, u0), t0, newton)


def step_second_order(system: SecondOrderResidualSystem, state_n: SecondOrderState,
                      dt: float, params: GenAlphaParams,
                      newton: NewtonSettings = NewtonSettings()) -> SecondOrderState:
    """One generalized-alpha step for R(Ü, U̇, U, t) = 0 with Newmark updates.

    U_{n+1} = U_n + dt*U̇_n + dt^2*((1/2-beta)*Ü_n + beta*Ü_{n+1}),
    U̇_{n+1} = U̇_n + dt*((1-gamma)*Ü_n + gamma*Ü_{n+1}),
    and the residual is enforced at (Ü_{n+am}, U̇_{n+af}, U_{n+af}, t_{n+af}).
    Newton unknown is Ü_{n+1}.  A state of one real component is stepped in
    Python floats (`_FLOATS`), with the same bits.
    """
    _check_dt(dt)
    am, af, g, beta = params.alpha_m, params.alpha_f, params.gamma, params.beta
    carry = _carrier(state_n.u, state_n.u_dot, state_n.u_ddot)
    read, wrap = carry.read, carry.wrap
    u_n, v_n, a_n = read(state_n.u), read(state_n.u_dot), read(state_n.u_ddot)
    t_af = state_n.t + af * dt
    u_base = u_n + dt * v_n + dt * dt * (0.5 - beta) * a_n
    v_base = v_n + dt * (1.0 - g) * a_n
    dt_g, dt2_beta = dt * g, dt * dt * beta
    a_am0, v_af0, u_af0 = (1.0 - am) * a_n, (1.0 - af) * v_n, (1.0 - af) * u_n
    c_dot, c_u = af * g * dt, af * beta * dt * dt

    @_reuse_last
    def parts(a):
        """(Ü_{n+am}, U̇_{n+af}, U_{n+af}) implied by Ü_{n+1} = a."""
        return (wrap(a_am0 + am * a), wrap(v_af0 + af * (v_base + dt_g * a)),
                wrap(u_af0 + af * (u_base + dt2_beta * a)))

    def res(a):
        return read(system.residual(*parts(a), t_af))

    def jac(a):
        return system.iteration_matrix(am, c_dot, c_u, *parts(a), t_af)

    a0 = ((g - 1.0) / g) * a_n
    a_np1, _ = _newton(res, jac, a0, newton)
    return carry.state(SecondOrderState, u_base + dt2_beta * a_np1,
                       v_base + dt_g * a_np1, a_np1, state_n.t + dt)


def second_order_identity_residual(state_n: SecondOrderState,
                                   state_np1: SecondOrderState,
                                   dt: float, params: GenAlphaParams) -> float:
    """Inf-norm defect of Ü_{n+am} = (U̇_{n+af+1/2} - U̇_{n+af-1/2})/dt.

    U̇_{n+af±1/2} := U̇ + (alpha_f - 1/2)*dt*Ü at the respective interval end.
    """
    return float(_identity_defect(state_n.u_ddot, state_np1.u_ddot,
                                  state_n.u_dot, state_np1.u_dot, dt, params))
