"""INI-style experiment configuration: [section] headers, key = value, # comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .integrator import GenAlphaParams, make_params, params_from_rho_inf

EXPERIMENTS = ("ode-convergence", "amplification-sweep", "advdiff-balance",
               "conslaw-balance", "nonconservative-compare",
               "second-order-identity")

_SCHEMA = {
    "experiment": {"name": "str", "model": "str"},
    "integrator": {"rho_inf": "float", "alpha_m": "float", "alpha_f": "float",
                   "gamma": "float", "dt": "float", "dt_list": "floats",
                   "dt_schedule": "schedule", "n_steps": "int",
                   "t_final": "float"},
    "spatial": {"n_elements": "int", "a": "float", "kappa": "float",
                "gamma_gas": "float", "amplitude": "float",
                "stabilization": "str", "forcing": "str"},
    "output": {"directory": "str", "csv": "bool"},
}

# the keys each experiment reads: these, the name, the parameters and the
# [output] keys; any other key is rejected with its line
_STEPS = ("dt", "dt_schedule", "n_steps")
_READS = {
    "ode-convergence": ("dt_list", "t_final"),
    "amplification-sweep": (),
    "advdiff-balance": _STEPS + ("n_elements", "a", "kappa", "stabilization",
                                 "forcing"),
    "conslaw-balance": _STEPS + ("model", "n_elements", "amplitude",
                                 "stabilization"),
    "nonconservative-compare": _STEPS + ("n_elements", "amplitude", "gamma_gas"),
    "second-order-identity": _STEPS,
}
_READ_BY_ALL = ("name", "rho_inf", "alpha_m", "alpha_f", "gamma", "directory",
                "csv")

_DEFAULT_DT_LIST = (0.1, 0.05, 0.025, 0.0125)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: str = "burgers"
    rho_inf: float | None = 0.5
    alpha_m: float | None = None
    alpha_f: float | None = None
    gamma: float | None = None
    dt: float | None = None
    dt_list: tuple[float, ...] | None = None
    dt_schedule: tuple[float, ...] | None = None
    schedule_repeats: bool = False
    n_steps: int = 100
    t_final: float = 1.0
    n_elements: int = 32
    a: float = 1.0
    kappa: float = 0.01
    gamma_gas: float = 1.4
    amplitude: float = 0.1
    stabilization: str = "none"
    forcing: str = "none"
    out_dir: str = "out"
    write_csv: bool = True

    def params(self) -> GenAlphaParams:
        if self.rho_inf is not None:
            return params_from_rho_inf(self.rho_inf)
        beta = 0.25 * (1.0 + self.alpha_m - self.alpha_f) ** 2
        return make_params(self.alpha_m, self.alpha_f, self.gamma, beta=beta)

    def step_sizes(self) -> list[float]:
        """Per-step dt schedule for run-style experiments."""
        if self.dt_schedule is not None:
            if self.schedule_repeats:
                return [self.dt_schedule[i % len(self.dt_schedule)]
                        for i in range(self.n_steps)]
            return list(self.dt_schedule)
        dt = self.dt if self.dt is not None else 1e-3
        return [dt] * self.n_steps


def _convert(kind: str, raw: str, where: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = int(raw)
            return value
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError(raw)
        if kind == "floats":
            return tuple(float(tok) for tok in raw.split(","))
        if kind == "schedule":
            tokens = [tok.strip() for tok in raw.split(",")]
            repeats = tokens and tokens[-1] == "repeat"
            if repeats:
                tokens = tokens[:-1]
            if not tokens:
                raise ValueError("empty schedule")
            return tuple(float(tok) for tok in tokens), repeats
        return raw
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse {raw!r} as {kind}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; errors carry the offending line number."""
    values: dict[tuple[str, str], object] = {}
    lines: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigurationError(f"line {lineno}: unknown section "
                                         f"[{section}]")
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, "
                                     f"got {line!r}")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside any [section]")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r} in "
                                     f"[{section}]")
        if (section, key) in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[(section, key)] = _convert(_SCHEMA[section][key], raw,
                                          f"line {lineno}")
        lines[(section, key)] = lineno

    def got(section_key):
        return values.get(section_key)

    def line_of(section_key):
        return lines.get(section_key, 0)

    name = got(("experiment", "name"))
    if name is None:
        raise ConfigurationError("missing required key 'name' in [experiment]")
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"line {line_of(('experiment', 'name'))}: unknown experiment "
            f"{name!r}; choose from {', '.join(EXPERIMENTS)}")
    model = _or(got(("experiment", "model")), "burgers")
    reads, runner = _READ_BY_ALL + _READS[name], name
    if name == "conslaw-balance":
        runner += f" with model = {model}"
        if model == "euler":
            reads += ("gamma_gas",)
    for (_, key), lineno in lines.items():  # in line order
        if key not in reads:
            raise ConfigurationError(
                f"line {lineno}: key {key!r} does not apply to {runner}")

    rho_inf = got(("integrator", "rho_inf"))
    if rho_inf is not None and not 0.0 <= rho_inf <= 1.0:
        raise ConfigurationError(
            f"line {line_of(('integrator', 'rho_inf'))}: rho_inf must be "
            f"finite and lie in [0, 1]")
    triple = {k: got(("integrator", k)) for k in ("alpha_m", "alpha_f", "gamma")}
    triple_given = [k for k, v in triple.items() if v is not None]
    if rho_inf is not None and triple_given:
        offender = ("integrator", triple_given[0])
        raise ConfigurationError(
            f"line {line_of(offender)}: rho_inf and explicit "
            f"(alpha_m, alpha_f, gamma) are mutually exclusive")
    if triple_given and len(triple_given) != 3:
        missing = sorted(set(triple) - set(triple_given))
        raise ConfigurationError(
            f"line {line_of(('integrator', triple_given[0]))}: explicit "
            f"parameters need alpha_m, alpha_f and gamma; missing {missing}")

    dt_forms = [k for k in ("dt", "dt_list", "dt_schedule")
                if got(("integrator", k)) is not None]
    if len(dt_forms) > 1:
        offender = ("integrator", dt_forms[1])
        raise ConfigurationError(
            f"line {line_of(offender)}: dt, dt_list and dt_schedule are "
            f"mutually exclusive")
    for key in dt_forms:
        entries = got(("integrator", key))
        if key == "dt":
            entries = (entries,)
        elif key == "dt_schedule":
            entries = entries[0]  # (steps, repeats)
        if not all(math.isfinite(dt) and dt > 0.0 for dt in entries):
            raise ConfigurationError(
                f"line {line_of(('integrator', key))}: {key} must be finite "
                f"and > 0")

    if model not in ("burgers", "euler"):
        raise ConfigurationError(
            f"line {line_of(('experiment', 'model'))}: unknown model {model!r}")
    stabilization = _or(got(("spatial", "stabilization")), "none")
    if stabilization not in ("none", "supg"):
        raise ConfigurationError(
            f"line {line_of(('spatial', 'stabilization'))}: stabilization must "
            f"be 'none' or 'supg'")
    forcing = _or(got(("spatial", "forcing")), "none")
    if forcing not in ("none", "unit"):
        raise ConfigurationError(
            f"line {line_of(('spatial', 'forcing'))}: forcing must be 'none' "
            f"or 'unit'")

    schedule = got(("integrator", "dt_schedule"))
    dt_schedule, repeats = (schedule if schedule is not None else (None, False))

    dt_list = got(("integrator", "dt_list"))
    if name == "ode-convergence" and dt_list is None:
        dt_list = _DEFAULT_DT_LIST
    if dt_list is not None and not all(x > y for x, y in zip(dt_list, dt_list[1:])):
        raise ConfigurationError(
            f"line {line_of(('integrator', 'dt_list'))}: dt_list must be "
            f"strictly decreasing")

    n_steps = got(("integrator", "n_steps"))
    if n_steps is None:
        n_steps = 100
        if dt_schedule is not None and not repeats:
            n_steps = len(dt_schedule)
    if n_steps < 1:
        raise ConfigurationError(
            f"line {line_of(('integrator', 'n_steps'))}: n_steps must be >= 1")

    n_elements = _or(got(("spatial", "n_elements")), 32)
    if n_elements < 2:
        raise ConfigurationError(
            f"line {line_of(('spatial', 'n_elements'))}: n_elements must be >= 2")

    t_final = _or(got(("integrator", "t_final")), 1.0)
    if not t_final > 0.0:
        raise ConfigurationError(
            f"line {line_of(('integrator', 't_final'))}: t_final must be > 0")

    kappa = _or(got(("spatial", "kappa")), 0.01)
    if name == "advdiff-balance" and not (math.isfinite(kappa) and kappa > 0.0):
        raise ConfigurationError(
            f"line {line_of(('spatial', 'kappa'))}: kappa must be finite and > 0")
    a = _or(got(("spatial", "a")), 1.0)
    if name == "advdiff-balance" and not math.isfinite(a):
        raise ConfigurationError(
            f"line {line_of(('spatial', 'a'))}: a must be finite")

    # the Euler runs' initial density and pressure are 1 + amplitude*sin(...)
    amplitude = _or(got(("spatial", "amplitude")), 0.1)
    euler = (name == "nonconservative-compare"
             or (name == "conslaw-balance" and model == "euler"))
    if euler and not abs(amplitude) < 1.0:
        raise ConfigurationError(
            f"line {line_of(('spatial', 'amplitude'))}: |amplitude| must be "
            f"< 1 for Euler runs")
    gamma_gas = _or(got(("spatial", "gamma_gas")), 1.4)
    if euler and not (math.isfinite(gamma_gas) and gamma_gas > 1.0):
        raise ConfigurationError(
            f"line {line_of(('spatial', 'gamma_gas'))}: gamma_gas must be "
            f"finite and > 1 for Euler runs")
    out_dir = _or(got(("output", "directory")), "out")
    if not out_dir:
        raise ConfigurationError(
            f"line {line_of(('output', 'directory'))}: directory must not be "
            f"empty")

    return ExperimentConfig(
        experiment=name,
        model=model,
        rho_inf=(rho_inf if rho_inf is not None
                 else (None if triple_given else 0.5)),
        alpha_m=triple["alpha_m"], alpha_f=triple["alpha_f"],
        gamma=triple["gamma"],
        dt=got(("integrator", "dt")),
        dt_list=dt_list,
        dt_schedule=dt_schedule,
        schedule_repeats=repeats,
        n_steps=n_steps,
        t_final=t_final,
        n_elements=n_elements,
        a=a,
        kappa=kappa,
        gamma_gas=gamma_gas,
        amplitude=amplitude,
        stabilization=stabilization,
        forcing=forcing,
        out_dir=out_dir,
        write_csv=_or(got(("output", "csv")), True),
    )


def _or(value, default):
    return default if value is None else value
