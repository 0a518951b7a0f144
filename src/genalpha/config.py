"""INI-style experiment configuration: [section] headers, key = value, # comments.

`parse_config` checks each value with the code that consumes it, such as
`params_from_rho_inf`, `GenAlphaParams`, `_check_dt`, `AdvDiffConfig`,
`Euler1D`, `ladder_steps` or `require_shifted_midpoint`, and reports its
`ValueError` with the value's line.  Only rules that no library code owns
live here: the format, which keys apply, exclusive forms, `n_steps` only
with a schedule that ends in `repeat`, and the `_rule`s of `_CHECKS`.
Every default lives in `ExperimentConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .advdiff import AdvDiffConfig
from .conslaw import Euler1D, ModifiedNonconservativeSystem
from .errors import ConfigurationError
from .integrator import (GenAlphaParams, _check_dt, params_from_rho_inf,
                         require_shifted_midpoint)
from .linear_analysis import ladder_steps

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
_TRIPLE = ("alpha_m", "alpha_f", "gamma")
_READ_BY_ALL = ("name", "rho_inf") + _TRIPLE + ("directory", "csv")

# keys whose ExperimentConfig field has another name
_FIELDS = {"name": "experiment", "directory": "out_dir", "csv": "write_csv"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: str = "burgers"
    rho_inf: float | None = 0.5
    alpha_m: float | None = None
    alpha_f: float | None = None
    gamma: float | None = None
    dt: float = 1e-3
    dt_list: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
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
        return GenAlphaParams(self.alpha_m, self.alpha_f, self.gamma)

    def step_sizes(self) -> list[float]:
        """Per-step dt schedule for run-style experiments."""
        if self.dt_schedule is None:
            return [self.dt] * self.n_steps
        if self.schedule_repeats:
            return [self.dt_schedule[i % len(self.dt_schedule)]
                    for i in range(self.n_steps)]
        return list(self.dt_schedule)


def _schedule(raw: str):
    """(steps, repeats) of `dt_schedule = 0.001,0.002[,repeat]`."""
    tokens = [tok.strip() for tok in raw.split(",")]
    repeats = tokens[-1] == "repeat"
    steps = tuple(float(tok) for tok in (tokens[:-1] if repeats else tokens))
    if not steps:
        raise ValueError("empty schedule")
    return steps, repeats


# kind -> parser of the raw text, raising ValueError or KeyError
_PARSE = {"str": str, "float": float, "int": int,
          "bool": lambda raw: {"true": True, "false": False}[raw.lower()],
          "floats": lambda raw: tuple(float(tok) for tok in raw.split(",")),
          "schedule": _schedule}


def _rule(holds, message: str):
    """A check that raises ValueError(message) unless `holds(value)`."""
    def check(value):
        if not holds(value):
            raise ValueError(message)
    return check


def _each_dt(dts) -> None:
    for dt in dts:
        _check_dt(dt)


# key -> check of its value alone, raising ValueError
_CHECKS = {
    "model": _rule(("burgers", "euler").__contains__,
                   "model must be 'burgers' or 'euler'"),
    "stabilization": _rule(("none", "supg").__contains__,
                           "stabilization must be 'none' or 'supg'"),
    "forcing": _rule(("none", "unit").__contains__,
                     "forcing must be 'none' or 'unit'"),
    "directory": _rule(bool, "directory must not be empty"),
    "n_steps": _rule(lambda n: n >= 1, "n_steps must be >= 1"),
    "n_elements": _rule(lambda n: n >= 2, "n_elements must be >= 2"),
    "t_final": _rule(lambda t: 0.0 < t < math.inf,
                     "t_final must be finite and > 0"),
    "amplitude": _rule(math.isfinite, "amplitude must be finite"),
    "rho_inf": params_from_rho_inf,
    "dt": _check_dt,
    "dt_list": _each_dt,
    "dt_schedule": lambda schedule: _each_dt(schedule[0]),  # (steps, repeats)
    "a": lambda a: AdvDiffConfig(a=a),
    "kappa": lambda kappa: AdvDiffConfig(kappa=kappa),
    "gamma_gas": Euler1D,
}
# the Euler runs' initial density and pressure are 1 + amplitude*sin(...)
_EULER_CHECKS = {**_CHECKS, "amplitude": _rule(
    lambda amplitude: abs(amplitude) < 1.0,
    "|amplitude| must be < 1 for Euler runs")}


def _error(lineno: int, message: str) -> ConfigurationError:
    return ConfigurationError(f"line {lineno}: {message}")


def _at(lineno: int, check, *args) -> None:
    """`check(*args)`, its ValueError raised with the line it concerns."""
    try:
        check(*args)
    except ValueError as exc:
        raise _error(lineno, str(exc)) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and check a config; errors carry the offending line number."""
    values: dict[str, object] = {}  # keys are unique across sections
    lines: dict[str, int] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise _error(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise _error(lineno, f"expected key = value, got {line!r}")
        if section is None:
            raise _error(lineno, "key outside any [section]")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise _error(lineno, f"unknown key {key!r} in [{section}]")
        if key in values:
            raise _error(lineno, f"duplicate key {key!r}")
        kind = _SCHEMA[section][key]
        try:
            values[key] = _PARSE[kind](raw)
        except (ValueError, KeyError):
            raise _error(lineno, f"cannot parse {raw!r} as {kind}") from None
        lines[key] = lineno

    name = values.get("name")
    if name is None:
        raise ConfigurationError("missing required key 'name' in [experiment]")
    if name not in EXPERIMENTS:
        raise _error(lines["name"], f"unknown experiment {name!r}; choose from "
                                    f"{', '.join(EXPERIMENTS)}")
    model = values.get("model", ExperimentConfig.model)
    reads, runner = _READ_BY_ALL + _READS[name], name
    if name == "conslaw-balance":
        runner += f" with model = {model}"
        if model == "euler":
            reads += ("gamma_gas",)
    checks = (_EULER_CHECKS if name == "nonconservative-compare"
              or model == "euler" else _CHECKS)
    for key, value in values.items():  # in line order
        if key not in reads:
            raise _error(lines[key], f"key {key!r} does not apply to {runner}")
        if key in checks:
            _at(lines[key], checks[key], value)

    triple = [key for key in values if key in _TRIPLE]
    triple_line = lines[triple[0]] if triple else 0
    if triple and "rho_inf" in values:
        raise _error(triple_line, "rho_inf and explicit (alpha_m, alpha_f, "
                                  "gamma) are mutually exclusive")
    if triple and len(triple) != 3:
        raise _error(triple_line, "explicit parameters need alpha_m, alpha_f "
                     f"and gamma; missing {sorted(set(_TRIPLE) - set(triple))}")
    dt_forms = [key for key in values if key in ("dt", "dt_list", "dt_schedule")]
    if len(dt_forms) > 1:
        raise _error(lines[dt_forms[1]],
                     "dt, dt_list and dt_schedule are mutually exclusive")

    # the keys given, plus what they imply; ExperimentConfig has the defaults
    fields = {_FIELDS.get(key, key): value for key, value in values.items()}
    if "dt_schedule" in values:
        fields["dt_schedule"], fields["schedule_repeats"] = values["dt_schedule"]
        if not fields["schedule_repeats"]:
            if "n_steps" in values:
                raise _error(lines["n_steps"], "n_steps applies to a "
                             "dt_schedule only if it ends in 'repeat'")
            fields["n_steps"] = len(fields["dt_schedule"])
    if triple:
        fields["rho_inf"] = None
    config = ExperimentConfig(**fields)

    if triple:
        _at(triple_line, config.params)
    if name == "ode-convergence":
        _at(lines.get("dt_list", lines.get("t_final", 0)), ladder_steps,
            config.t_final, config.dt_list)
    if name == "nonconservative-compare":  # what its modified scheme admits
        modified = (require_shifted_midpoint, ModifiedNonconservativeSystem,
                    config.params())
        _at(triple_line, *modified, ())  # the parameters are checked first
        _at(lines.get("dt_schedule", 0), *modified, config.step_sizes())
    return config
