"""Correctness checks of the runner's outputs, computed apart from the program.

Each checker takes a `workloads.Run` and the files the run wrote
({file name: text}) and returns a list of problems; an empty list passes.
The references are closed forms (integrals of the seeded fields, exp(-t),
cos(t)) and the generalized-alpha recurrences for the scalar model problems,
written out here from the method's update formulas rather than taken from
the package.  `PERTURBATIONS` holds, for every checker, outputs it must
reject; `selftest.py` applies them.
"""

from __future__ import annotations

import cmath
import math

EPS = 2.0 ** -52
DRIFT_TOL = 1e-12        # certified runs conserve their shifted totals
MISMATCH_FLOOR = 1e-10   # uncertified / standard runs must show it
TOTAL_TOL = 1e-12        # shifted totals against their closed forms
ORDER_WINDOWS = {0: (1.9, 2.1), 2: (0.9, 1.1)}   # by expected exit code
ERROR_REL_TOL = 1e-5     # program's order-study errors vs the recurrence
RHO_TOL = 1e-6           # spectral radius at z = -1e8 vs rho_inf > 0
RHO0_REL_TOL = 1e-9      # ... vs sqrt(0.5/(1.5+1e8)) at rho_inf = 0
SWEEP_TOL = 1e-9         # every sweep row vs the closed-form matrix
OSC_ERR_TOL = 1e-4       # |u(1) - cos 1|
OSC_ERR_REL_TOL = 1e-3   # program's printed error vs the recurrence's
IDENTITY_FLOOR_MULTIPLE = 4.0
Z_LIMIT = -1e8
BUMP_CENTER, BUMP_WIDTH = 0.3, 0.08

KNOWN_FAULT = ("known fault: experiments.IDENTITY_TOL = 1e-13 is compared "
               "with a difference quotient whose rounding floor is about "
               "eps*max|U'|/dt = {floor:.2g} at dt = {dt:g}, so the run exits 2 "
               "although the identity holds to rounding")


# -- references ---------------------------------------------------------------

def rho_inf_params(rho_inf: float):
    """(alpha_m, alpha_f, gamma, beta) of the second-order family."""
    am = 0.5 * (3.0 - rho_inf) / (1.0 + rho_inf)
    af = 1.0 / (1.0 + rho_inf)
    return am, af, af, 0.25 * (1.0 + am - af) ** 2


def _params(keys: dict):
    if "rho_inf" in keys:
        return rho_inf_params(keys["rho_inf"])[:3]
    return keys["alpha_m"], keys["alpha_f"], keys["gamma"]


def linear_step(z: float, u: float, w: float, am: float, af: float, g: float):
    """One step on u' = lam*u in (U, W = dt*U'), with z = lam*dt.

    From (1-am)W_n + am W_{n+1} = z((1-af)U_n + af U_{n+1}) and
    U_{n+1} = U_n + (1-g)W_n + g W_{n+1}.
    """
    w_new = (z * u + (z * af * (1.0 - g) - (1.0 - am)) * w) / (am - z * af * g)
    return u + (1.0 - g) * w + g * w_new, w_new


def decay_error(dt: float, t_final: float, am, af, g) -> float:
    """|U_N - exp(-t_final)| for u' = -u, u(0) = 1, consistent initial rate."""
    u, w = 1.0, -dt
    for _ in range(round(t_final / dt)):
        u, w = linear_step(-dt, u, w, am, af, g)
    return abs(u - math.exp(-t_final))


def spectral_radius(z: float, am, af, g) -> float:
    """Spectral radius of the 2x2 amplification matrix at z."""
    (a00, a10), (a01, a11) = (linear_step(z, 1.0, 0.0, am, af, g),
                              linear_step(z, 0.0, 1.0, am, af, g))
    tr, det = a00 + a11, a00 * a11 - a01 * a10
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return max(abs((tr + disc) / 2.0), abs((tr - disc) / 2.0))


def oscillator(dt: float, n_steps: int, rho_inf: float):
    """(u(n*dt), max|U'|) of u'' = -u, u(0) = 1, u'(0) = 0, Newmark updates."""
    am, af, g, beta = rho_inf_params(rho_inf)
    u, v, a = 1.0, 0.0, -1.0
    v_max = 0.0
    for _ in range(n_steps):
        a_new = (-(1.0 - am) * a - u - af * dt * v
                 - af * dt * dt * (0.5 - beta) * a) / (am + af * beta * dt * dt)
        u = u + dt * v + dt * dt * ((0.5 - beta) * a + beta * a_new)
        v = v + dt * ((1.0 - g) * a + g * a_new)
        a = a_new
        v_max = max(v_max, abs(v))
    return u, v_max


def bump_integral() -> float:
    """Closed form of the initial bump's integral over (0, 1)."""
    s = BUMP_WIDTH
    return 0.5 * s * math.sqrt(math.pi) * (math.erf((1.0 - BUMP_CENTER) / s)
                                           + math.erf(BUMP_CENTER / s))


def bump_quadrature_bound(n_elements: int) -> float:
    """Error bound of the composite 2-point Gauss rule on the bump.

    |E| <= (b - a) h^4 max|f''''| / 4320, and max|f''''| = 12 / s^4 for
    f(x) = exp(-((x - c)/s)^2).
    """
    h = 1.0 / n_elements
    return h ** 4 * (12.0 / BUMP_WIDTH ** 4) / 4320.0


# -- output parsing -----------------------------------------------------------

def _summary(files: dict, prefix: str) -> str:
    for line in files["summary.txt"].splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise KeyError(f"summary has no line starting {prefix!r}")


def _rows(files: dict) -> list[list[str]]:
    (csv,) = [text for name, text in files.items() if name.endswith(".csv")]
    return [line.split(",") for line in csv.splitlines()[1:]]


def _ledger(files: dict, n_steps: int, p: int):
    """Step-0 and final shifted totals and final drift per component."""
    rows = _rows(files)
    if len(rows) != n_steps * p:
        raise ValueError(f"ledger has {len(rows)} rows, expected {n_steps * p}")
    first = [float(r[3]) for r in rows[:p]]
    last = rows[-p:]
    drift = [float(r[6]) for r in last]
    final = [d + f0 + float(r[4]) - float(r[5])
             for d, f0, r in zip(drift, first, last)]
    return first, final, drift


def _far(values, targets, tol) -> list[str]:
    return [f"component {c}: {v!r} vs {t!r}" for c, (v, t) in
            enumerate(zip(values, targets)) if not abs(v - t) <= tol]


# -- checkers -----------------------------------------------------------------

def conslaw_certified(run, files):
    k = run.keys
    first, final, drift = _ledger(files, run.steps, 3)
    closed = [1.0, 0.0, 1.0 / (k["gamma_gas"] - 1.0) + k["amplitude"] ** 2 / 4.0]
    problems = []
    if _summary(files, "certified =") != "True":
        problems.append("Euler run on a uniform dt is not certified")
    problems += [f"drift {p}" for p in _far(drift, [0.0] * 3, DRIFT_TOL)]
    problems += [f"step-0 total {p}" for p in _far(first, closed, TOTAL_TOL)]
    problems += [f"final total {p}" for p in _far(final, closed, TOTAL_TOL)]
    return problems


def conslaw_uncertified(run, files):
    first, final, _ = _ledger(files, run.steps, 1)
    problems = []
    if _summary(files, "certified =") != "False":
        problems.append("Burgers run on an alternating dt is certified")
    if not float(_summary(files, "max shifted-state mismatch =")) > MISMATCH_FLOOR:
        problems.append(f"shifted-state mismatch not above {MISMATCH_FLOOR}")
    problems += [f"step-0 total {p}" for p in _far(first, [0.0], TOTAL_TOL)]
    problems += [f"final total {p}" for p in _far(final, [0.0], TOTAL_TOL)]
    return problems


def compare(run, files):
    rows = _rows(files)
    if len(rows) != 3:
        return [f"compare table has {len(rows)} rows, expected 3"]
    std = max(abs(float(r[1])) for r in rows)
    mod = max(abs(float(r[2])) for r in rows)
    problems = []
    if not std > MISMATCH_FLOOR:
        problems.append(f"standard-scheme drift {std!r} not above {MISMATCH_FLOOR}")
    if not mod <= DRIFT_TOL:
        problems.append(f"modified-scheme drift {mod!r} above {DRIFT_TOL}")
    return problems


def advdiff_certified(run, files):
    first, _, drift = _ledger(files, run.steps, 1)
    tol = bump_quadrature_bound(run.keys["n_elements"]) + TOTAL_TOL
    problems = []
    if _summary(files, "certified =") != "True":
        problems.append("SUPG run on a uniform dt is not certified")
    problems += [f"drift {p}" for p in _far(drift, [0.0], DRIFT_TOL)]
    problems += [f"initial total vs erf closed form {p}"
                 for p in _far(first, [bump_integral()], tol)]
    return problems


def advdiff_forced(run, files):
    first, final, drift = _ledger(files, run.steps, 1)
    growth = final[0] - first[0]
    expected = run.steps * run.keys["dt"]
    problems = []
    if _summary(files, "certified =") != "True":
        problems.append("forced run on a uniform dt is not certified")
    problems += [f"drift {p}" for p in _far(drift, [0.0], DRIFT_TOL)]
    if not abs(growth - expected) <= DRIFT_TOL:
        problems.append(f"shifted total grew by {growth!r}, not n_steps*dt = "
                        f"{expected!r}")
    return problems


def order(run, files):
    k = run.keys
    params = _params(k)
    rows = _rows(files)
    problems = []
    if [float(r[0]) for r in rows] != list(k["dt_list"]):
        return [f"order study ran dt = {[r[0] for r in rows]}"]
    errors = []
    for row in rows:
        dt, err = float(row[0]), float(row[1])
        ref = decay_error(dt, k["t_final"], *params)
        errors.append(ref)
        if not abs(err - ref) <= ERROR_REL_TOL * ref:
            problems.append(f"error at dt = {dt}: {err!r}, recurrence gives {ref!r}")
    lo, hi = ORDER_WINDOWS[run.expect_exit]
    reported = float(rows[0][2])
    logs = [(math.log(dt), math.log(e)) for dt, e in zip(k["dt_list"], errors)]
    mx = sum(x for x, _ in logs) / len(logs)
    my = sum(y for _, y in logs) / len(logs)
    fitted = (sum((x - mx) * (y - my) for x, y in logs)
              / sum((x - mx) ** 2 for x, _ in logs))
    for label, value in (("reported", reported), ("recurrence", fitted)):
        if not lo <= value <= hi:
            problems.append(f"{label} order {value!r} outside [{lo}, {hi}]")
    return problems


def sweep(run, files):
    rho_inf = run.keys["rho_inf"]
    params = rho_inf_params(rho_inf)[:3]
    problems = []
    for z, rho in ((float(r[0]), float(r[1])) for r in _rows(files)):
        ref = spectral_radius(z, *params)
        if not abs(rho - ref) <= SWEEP_TOL * max(1.0, ref):
            problems.append(f"spectral radius at z = {z:g}: {rho!r} vs {ref!r}")
    limit = float(_summary(files, "spectral radius at z = -1e8:"))
    if rho_inf > 0.0:
        if not abs(limit - rho_inf) <= RHO_TOL:
            problems.append(f"spectral radius at z = -1e8 is {limit!r}, "
                            f"rho_inf = {rho_inf}")
    else:
        target = math.sqrt(0.5 / (1.5 - Z_LIMIT))
        if not abs(limit - target) <= RHO0_REL_TOL * target:
            problems.append(f"spectral radius at z = -1e8 is {limit!r}, "
                            f"sqrt(0.5/(1.5+1e8)) = {target!r}")
    return problems


def identity_floor(run) -> float:
    """eps * max|U'| / dt, the rounding floor of the identity quotient."""
    k = run.keys
    _, v_max = oscillator(k["dt"], k["n_steps"], k["rho_inf"])
    return EPS * v_max / k["dt"]


def oscillator_check(run, files):
    k = run.keys
    u_end, _ = oscillator(k["dt"], k["n_steps"], k["rho_inf"])
    ref_err = abs(u_end - math.cos(k["dt"] * k["n_steps"]))
    rows = _rows(files)
    problems = []
    if len(rows) != k["n_steps"]:
        problems.append(f"identity table has {len(rows)} rows")
    if not ref_err <= OSC_ERR_TOL:
        problems.append(f"recurrence |u(1) - cos 1| = {ref_err!r}")
    err = float(_summary(files, "|u(1) - cos(1)| ="))
    if not (err <= OSC_ERR_TOL and abs(err - ref_err) <= OSC_ERR_REL_TOL * ref_err):
        problems.append(f"|u(1) - cos 1| = {err!r}, recurrence gives {ref_err!r}")
    worst = max(float(r[2]) for r in rows)
    bound = IDENTITY_FLOOR_MULTIPLE * identity_floor(run)
    if not worst <= bound:
        problems.append(f"identity residual {worst!r} above "
                        f"{IDENTITY_FLOOR_MULTIPLE:g}*eps*max|U'|/dt = {bound!r}")
    return problems


CHECKERS = {"conslaw_certified": conslaw_certified,
            "conslaw_uncertified": conslaw_uncertified,
            "compare": compare,
            "advdiff_certified": advdiff_certified,
            "advdiff_forced": advdiff_forced,
            "order": order,
            "sweep": sweep,
            "oscillator": oscillator_check}


def classify(run, exit_code: int, error: str | None, files: dict | None):
    """('ok' | 'known' | 'failed', detail) for one config run.

    'known' is the oscillator run failing only on `IDENTITY_TOL`: it counts
    as a failed operation but its outputs are correct.
    """
    if error is not None:
        return "failed", error
    try:
        problems = CHECKERS[run.check](run, files)
    except (KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        return "failed", "; ".join(problems)
    if exit_code == run.expect_exit:
        return "ok", ""
    fails = [line for line in files["summary.txt"].splitlines()
             if line.startswith("FAIL")]
    if (run.check == "oscillator" and exit_code == 2 and len(fails) == 1
            and fails[0].startswith("FAIL: identity residual")):
        return "known", KNOWN_FAULT.format(floor=identity_floor(run),
                                           dt=run.keys["dt"])
    return "failed", f"exit {exit_code}, expected {run.expect_exit}"


# -- perturbed outputs every checker must reject ------------------------------

def _edit_cells(rows, col: int, fn):
    """Apply fn to column `col` of the given CSV rows (0 is the header)."""
    def edit(files):
        out = dict(files)
        (name,) = [n for n in files if n.endswith(".csv")]
        lines = files[name].splitlines()
        for row in rows:
            cells = lines[row].split(",")
            cells[col] = repr(fn(float(cells[col])))
            lines[row] = ",".join(cells)
        out[name] = "\n".join(lines) + "\n"
        return out
    return edit


def _edit_summary(prefix: str, fn):
    """Apply fn to the value on the summary line starting with `prefix`."""
    def edit(files):
        out = dict(files)
        out["summary.txt"] = "\n".join(
            prefix + " " + repr(fn(float(line[len(prefix):])))
            if line.startswith(prefix) else line
            for line in files["summary.txt"].splitlines()) + "\n"
        return out
    return edit


PERTURBATIONS = {
    "conslaw_certified": [
        ("energy total at step 0 shifted by 1e-9",
         _edit_cells([3], 3, lambda v: v + 1e-9)),
        ("final drift set to 1e-11", _edit_cells([-1], 6, lambda v: 1e-11)),
    ],
    "conslaw_uncertified": [
        ("mismatch set to 0",
         _edit_summary("max shifted-state mismatch =", lambda v: 0.0)),
        ("step-0 total shifted by 1e-9", _edit_cells([1], 3, lambda v: v + 1e-9)),
    ],
    "compare": [
        ("standard drift set to 0", _edit_cells([1, 2, 3], 1, lambda v: 0.0)),
        ("modified drift set to 1e-11", _edit_cells([2], 2, lambda v: 1e-11)),
    ],
    "advdiff_certified": [
        ("initial total shifted by 1e-9", _edit_cells([1], 3, lambda v: v + 1e-9)),
        ("final drift set to 1e-11", _edit_cells([-1], 6, lambda v: 1e-11)),
    ],
    "advdiff_forced": [
        ("source sum shifted by 1e-9", _edit_cells([-1], 4, lambda v: v + 1e-9)),
    ],
    "order": [
        ("finest error scaled by 1.01", _edit_cells([-1], 1, lambda v: v * 1.01)),
        ("reported order set to 1.5", _edit_cells([1], 2, lambda v: 1.5)),
    ],
    "sweep": [
        ("limit radius shifted by 1e-5",
         _edit_summary("spectral radius at z = -1e8:", lambda v: v + 1e-5)),
        ("radius at z = -1 shifted by 1e-6",
         _edit_cells([3], 1, lambda v: v + 1e-6)),
    ],
    "oscillator": [
        ("solution error scaled by 1.1",
         _edit_summary("|u(1) - cos(1)| =", lambda v: v * 1.1)),
        ("one identity residual raised by 1e-9",
         _edit_cells([5], 2, lambda v: v + 1e-9)),
    ],
}
