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
print(json.dumps([span[:3] for span in tracer.spans]))
"""


def test_tracer_spans_each_kernel_call_once():
    # both classes' targets resolve to the one base-class kernel, which must
    # be wrapped once: one span per call, none inside a span of its own kind
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_KERNELS, str(ROOT / "perfbench")],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    spans = {sid: (parent, name) for sid, parent, name in json.loads(run.stdout)}

    def ancestors(sid):
        parent = spans[sid][0]
        while parent is not None:
            yield spans[parent][1]
            parent = spans[parent][0]

    for kind in ("conslaw.residual", "conslaw.iteration_matrix"):
        own = [sid for sid, (_, name) in spans.items() if name == kind]
        assert len(own) == 2
        assert all(kind not in ancestors(sid) for sid in own)

