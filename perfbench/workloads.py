"""Seeded inputs of the four benchmark workloads.

A workload is a list of config runs for the experiment runner.  The seed
draws only `amplitude`, `rho_inf`, `a` and `kappa`, each from a range in
which every check of `checks.py` holds; sizes, step counts and all other
keys are fixed, so every seed schedules the same operations.  The program
receives only the generated INI text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# mis-parameterized triple: gamma = 1/2 + alpha_m - alpha_f + 0.25
BROKEN_TRIPLE = {"alpha_m": 0.83333333333333337, "alpha_f": 0.66666666666666663,
                 "gamma": 0.91666666666666674}
ORDER_LADDER = (0.01, 0.005, 0.0025, 0.00125)
SETUP_LADDER = (0.01, 0.005, 0.0025)

WORKLOADS = {
    "conslaw-conserved": "conservation-variable Euler (p=3) and Burgers (p=1): "
                         "the per-point residual and iteration-matrix loops dominate",
    "conslaw-primitive": "pressure-primitive Euler, standard vs modified scheme: "
                         "the variable-map chain rule and the modified stepper",
    "advdiff-fine": "linear SUPG advection-diffusion on 1024 elements: "
                    "the dense 1025x1025 matrices and solve dominate",
    "scalar-ode": "m = 1 order studies, sweeps and a 10^4-step oscillator: "
                  "the stepper's fixed per-step cost",
}


@dataclass(frozen=True)
class Run:
    """One config run: its INI text, the same config cut to one step, and
    what the checker needs to know about it."""

    name: str
    experiment: str
    keys: dict                 # config values besides the experiment name
    steps: int                 # time steps the config makes the runner take
    check: str                 # name of the checker in checks.py
    expect_exit: int = 0
    setup_overrides: dict = field(default_factory=dict)

    @property
    def ini(self) -> str:
        return _ini(self.experiment, self.keys)

    @property
    def setup_ini(self) -> str:
        """The config cut to one time step (per dt, for an order study)."""
        return _ini(self.experiment, {**self.keys, **self.setup_overrides})


_SECTION = {"model": "experiment",
            "rho_inf": "integrator", "alpha_m": "integrator",
            "alpha_f": "integrator", "gamma": "integrator", "dt": "integrator",
            "dt_list": "integrator", "dt_schedule": "integrator",
            "n_steps": "integrator", "t_final": "integrator"}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _ini(experiment: str, keys: dict) -> str:
    sections = {"experiment": [f"name = {experiment}"], "integrator": [],
                "spatial": []}
    for key, value in keys.items():
        sections[_SECTION.get(key, "spatial")].append(f"{key} = {_fmt(value)}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items() if lines)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _conslaw_conserved(rng):
    one_step = {"n_steps": 1}
    return [
        Run("euler-uniform", "conslaw-balance",
            {"model": "euler", "rho_inf": _draw(rng, 0.3, 0.8), "dt": 0.001,
             "n_steps": 20, "n_elements": 64, "amplitude": _draw(rng, 0.05, 0.2),
             "gamma_gas": 1.4},
            steps=20, check="conslaw_certified", setup_overrides=one_step),
        Run("burgers-alternating", "conslaw-balance",
            {"model": "burgers", "rho_inf": _draw(rng, 0.3, 0.8),
             "dt_schedule": "0.001,0.002,repeat", "n_steps": 20,
             "n_elements": 64, "amplitude": _draw(rng, 0.05, 0.2)},
            steps=20, check="conslaw_uncertified", setup_overrides=one_step),
    ]


def _conslaw_primitive(rng):
    return [
        Run("euler-primitive", "nonconservative-compare",
            {"rho_inf": _draw(rng, 0.2, 0.5), "dt": 0.001, "n_steps": 12,
             "n_elements": 32, "amplitude": _draw(rng, 0.12, 0.2),
             "gamma_gas": 1.4},
            steps=24, check="compare", setup_overrides={"n_steps": 1}),
    ]


def _advdiff_fine(rng):
    one_step = {"n_steps": 1}
    return [
        Run("supg-advection", "advdiff-balance",
            {"rho_inf": _draw(rng, 0.3, 0.8), "dt": 0.001, "n_steps": 30,
             "n_elements": 1024, "a": _draw(rng, 0.5, 1.5),
             "kappa": _draw(rng, 0.005, 0.02), "stabilization": "supg"},
            steps=30, check="advdiff_certified", setup_overrides=one_step),
        Run("unit-forced-diffusion", "advdiff-balance",
            {"rho_inf": _draw(rng, 0.3, 0.8), "dt": 0.001, "n_steps": 30,
             "n_elements": 1024, "a": 0.0, "kappa": _draw(rng, 0.005, 0.02),
             "forcing": "unit"},
            steps=30, check="advdiff_forced", setup_overrides=one_step),
    ]


def _scalar_ode(rng):
    ladder_steps = sum(round(1.0 / dt) for dt in ORDER_LADDER)
    cut = {"dt_list": SETUP_LADDER, "t_final": SETUP_LADDER[0]}
    runs = [
        Run("order-second", "ode-convergence",
            {"rho_inf": _draw(rng, 0.2, 0.9), "dt_list": ORDER_LADDER,
             "t_final": 1.0},
            steps=ladder_steps, check="order", setup_overrides=cut),
        Run("order-misparameterized", "ode-convergence",
            {**BROKEN_TRIPLE, "dt_list": ORDER_LADDER, "t_final": 1.0},
            steps=ladder_steps, check="order", expect_exit=2,
            setup_overrides=cut),
        Run("sweep-rho0", "amplification-sweep", {"rho_inf": 0.0},
            steps=0, check="sweep"),
    ]
    runs += [Run(f"sweep-{i}", "amplification-sweep",
                 {"rho_inf": _draw(rng, 0.1, 1.0)}, steps=0, check="sweep")
             for i in (1, 2, 3)]
    # fixed inputs: this run fails on every seed (see checks.KNOWN_FAULT)
    runs.append(Run("oscillator-dt1e-4", "second-order-identity",
                    {"rho_inf": 0.5, "dt": 0.0001, "n_steps": 10000},
                    steps=10000, check="oscillator",
                    setup_overrides={"n_steps": 1}))
    return runs


_BUILDERS = {"conslaw-conserved": _conslaw_conserved,
             "conslaw-primitive": _conslaw_primitive,
             "advdiff-fine": _advdiff_fine,
             "scalar-ode": _scalar_ode}


def build(workload: str, seed: int) -> list[Run]:
    """The workload's config runs, drawn from `seed`."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
