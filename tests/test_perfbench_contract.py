"""What the benchmark in `perfbench/` relies on in the package, checked
without running it: every config it generates parses, and every callable
its tracer wraps still exists."""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genalpha.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def _perfbench(name):
    """perfbench/<name>.py, loaded by path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")),
                         ids=lambda path: path.name)
def test_example_config_parses(path):
    parse_config(path.read_text())


@pytest.mark.parametrize("workload", sorted(_perfbench("workloads").WORKLOADS))
def test_benchmark_configs_parse(workload):
    for seed in range(20):
        for run in _perfbench("workloads").build(workload, seed):
            for text in (run.ini, run.setup_ini):
                parse_config(text)


# tracer targets that name callables the package no longer has
STALE_TARGETS = {"conslaw:step_modified", "advdiff:build_advdiff_system"}


def _resolves(target):
    """Whether the tracer would find `module:qualname` to wrap: a module
    function, or a method that a class defines or inherits."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(f"genalpha.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        return any(attr in vars(k) for k in getattr(cls, "__mro__", ()))
    return callable(getattr(module, attr, None))


def test_tracer_targets_resolve():
    tracing = _perfbench("tracing")
    targets = [t for group in (tracing.SPANS, tracing.COUNTED)
               for targets in group.values() for t in targets]
    missing = [t for t in targets + [tracing.NEWTON_TARGET] if not _resolves(t)]
    # a span or counter all of whose targets are gone reads null
    assert tracing._missing_sources(missing) == set()
    # one more gone target would shrink its span or counter silently
    assert set(missing) <= STALE_TARGETS
    module_name, attr = tracing.NEWTON_TARGET.split(":")
    newton = getattr(importlib.import_module(f"genalpha.{module_name}"), attr)
    assert list(inspect.signature(newton).parameters)[:2] == ["residual",
                                                              "jacobian"]


# one residual and one iteration matrix on each of two systems, traced; run
# in a fresh interpreter, since the tracer patches the package's classes
_TRACED_KERNELS = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer("kernels")
tracer.install()
from genalpha.conslaw import (Burgers1D, ConservedSystem, Euler1D,
                              NonconservativeSystem, PeriodicFemSpace,
                              PressurePrimitiveMap)
space = PeriodicFemSpace(8)
u = 0.1 * np.sin(np.arange(8.0))
v = np.tile([1.0, 0.1, 1.0], 8)
for system, x in ((ConservedSystem(space, Burgers1D(0.01)), u),
                  (NonconservativeSystem(space, Euler1D(1.4),
                                         PressurePrimitiveMap(1.4)), v)):
    system.residual(0.5 * x, x, 0.0)
    system.iteration_matrix(0.8, 0.1, 0.5 * x, x, 0.0)
print(json.dumps({"spans": [span[:3] for span in tracer.spans]}))
"""


def _traced(script):
    """Spans {id: (parent, name)} and output of `script` run under the
    tracer in a fresh interpreter, which prints its spans and counts."""
    run = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    out = json.loads(run.stdout)
    return {sid: (parent, name) for sid, parent, name in out["spans"]}, out


def _ancestors(spans, sid):
    parent = spans[sid][0]
    while parent is not None:
        yield spans[parent][1]
        parent = spans[parent][0]


def test_tracer_spans_each_kernel_call_once():
    # both classes' targets resolve to the one base-class kernel, which must
    # be wrapped once: one span per call, none inside a span of its own kind
    spans, _ = _traced(_TRACED_KERNELS)
    for kind in ("conslaw.residual", "conslaw.iteration_matrix"):
        own = [sid for sid, (_, name) in spans.items() if name == kind]
        assert len(own) == 2
        assert all(kind not in _ancestors(spans, sid) for sid in own)


# one step of each conslaw scheme, traced
_TRACED_STEPS = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import NEWTON_COUNTS, Tracer
tracer = Tracer("steps")
tracer.install()
from genalpha.conslaw import (Burgers1D, ConservedSystem, Euler1D,
                              ModifiedNonconservativeSystem,
                              NonconservativeSystem, PeriodicFemSpace,
                              PressurePrimitiveMap)
from genalpha.integrator import StatePair, params_from_rho_inf, step
space = PeriodicFemSpace(8)
u = 0.1 * np.sin(np.arange(8.0))
v = np.tile([1.0, 0.1, 1.0], 8) + 0.01 * np.sin(np.arange(24.0))
args = (space, Euler1D(1.4), PressurePrimitiveMap(1.4))
for system, x in ((ConservedSystem(space, Burgers1D(0.01)), u),
                  (NonconservativeSystem(*args), v),
                  (ModifiedNonconservativeSystem(*args), v)):
    step(system, StatePair(x, np.zeros_like(x), 0.0), 1e-3,
         params_from_rho_inf(0.5))
print(json.dumps({"spans": [span[:3] for span in tracer.spans],
                  "residual_evals": tracer.counts[NEWTON_COUNTS[1]]}))
"""


def test_step_spans_are_the_shared_kernels():
    # every scheme's step evaluates the one kernel pair, not the public
    # semi-discrete residual and iteration matrix
    spans, out = _traced(_TRACED_STEPS)
    in_steps = [name for sid, (_, name) in spans.items()
                if "integrator.step" in _ancestors(spans, sid)]
    assert not {"conslaw.residual", "conslaw.iteration_matrix"} & set(in_steps)
    assert in_steps.count("conslaw.step_residual") == out["residual_evals"] > 3
