"""Spans and counters around the program's public callables, from outside it.

`Tracer.install` replaces each callable named in `SPANS` and `COUNTED` with a
wrapper: module functions in every `genalpha` module that refers to them
(so names a module imported directly, such as `experiments.step`, are
covered too), methods on the class that defines them.  A span records its
run id, name, start, end and parent span; spans stay in memory and `write`
stores them as JSON lines.  Pointwise model and variable-map calls are only
counted.  A target that no longer exists is listed in `missing`, and a
metric whose targets are all missing is reported as missing, not as 0.

`layer_metrics` turns one traced round into the per-layer metrics.  A
group's busy time sums its outermost spans; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter

_CONSLAW_SYSTEMS = ("ConservedSystem", "NonconservativeSystem",
                    "ModifiedNonconservativeSystem")
_TOTALS = ("total", "shifted_balance_total", "balance_source", "balance_outflow")

# span name -> targets "module:qualname"
SPANS = {
    "config.parse": ["config:parse_config"],
    "experiments.run": ["experiments:run_experiment"],
    "integrator.step": ["integrator:step", "integrator:step_second_order",
                        "conslaw:step_modified"],
    "integrator.init": ["integrator:consistent_initial_rate",
                        "integrator:consistent_initial_acceleration"],
    "integrator.identity": ["integrator:midpoint_identity_residual",
                            "integrator:second_order_identity_residual"],
    "conslaw.residual": ["conslaw:ConservedSystem.residual",
                         "conslaw:NonconservativeSystem.residual"],
    "conslaw.iteration_matrix": ["conslaw:ConservedSystem.iteration_matrix",
                                 "conslaw:NonconservativeSystem.iteration_matrix"],
    "conslaw.step_residual": ["conslaw:ModifiedNonconservativeSystem.step_residual"],
    "conslaw.step_jacobian": ["conslaw:ModifiedNonconservativeSystem.step_jacobian"],
    "conslaw.totals": [f"conslaw:{cls}.{m}" for cls in _CONSLAW_SYSTEMS
                       for m in _TOTALS],
    "conslaw.project": ["conslaw:project_periodic", "conslaw:ConservedSystem.project"],
    "advdiff.build": ["advdiff:build_advdiff_system", "advdiff:AdvDiffSystem.__init__",
                      "advdiff:project_initial"],
    "advdiff.residual": ["advdiff:AdvDiffSystem.residual"],
    "advdiff.iteration_matrix": ["advdiff:AdvDiffSystem.iteration_matrix"],
    "advdiff.totals": [f"advdiff:AdvDiffSystem.{m}" for m in _TOTALS],
    "odes.system": [f"odes:{cls}.{m}" for cls in ("ScalarLinear", "HarmonicOscillator")
                    for m in ("residual", "iteration_matrix")],
    "audit.record": ["audit:BalanceLedger.record_step"],
    "audit.report": ["audit:BalanceLedger.report", "audit:BalanceLedger.drift",
                     "audit:report_to_csv"],
    "linear_analysis.order": ["linear_analysis:observed_order"],
    "linear_analysis.amplification": ["linear_analysis:amplification_matrix",
                                      "linear_analysis:spectral_radius"],
}

# counter name -> targets whose calls it counts
COUNTED = {
    "conslaw.model_calls": [f"conslaw:{cls}.{m}" for cls in ("Burgers1D", "Euler1D")
                            for m in ("flux", "flux_jacobian", "source",
                                      "source_jacobian")],
    "conslaw.varmap_calls": [f"conslaw:PressurePrimitiveMap.{m}"
                             for m in ("to_conserved", "jacobian", "hessian")],
}

# counters the Newton hook and the report hook fill
NEWTON_TARGET = "integrator:_newton"
NEWTON_COUNTS = ("integrator.newton_iters", "integrator.residual_evals",
                 "integrator.matrix_bytes")
ROWS_COUNT = "audit.rows"

# metric -> (unit, kind, source); kinds: busy/self/calls/p50/p90 of span
# groups, or count of a counter
LAYER_METRICS = {
    "conslaw.residual_s": ("s", "busy", ("conslaw.residual",)),
    "conslaw.iteration_matrix_s": ("s", "busy", ("conslaw.iteration_matrix",)),
    "conslaw.residual_calls": ("count", "calls",
                               ("conslaw.residual", "conslaw.step_residual")),
    "conslaw.model_calls": ("count", "count", "conslaw.model_calls"),
    "conslaw.step_residual_s": ("s", "busy", ("conslaw.step_residual",)),
    "conslaw.step_jacobian_s": ("s", "busy", ("conslaw.step_jacobian",)),
    "conslaw.varmap_calls": ("count", "count", "conslaw.varmap_calls"),
    "conslaw.totals_s": ("s", "busy", ("conslaw.totals",)),
    "conslaw.project_s": ("s", "busy", ("conslaw.project",)),
    "advdiff.build_s": ("s", "busy", ("advdiff.build",)),
    "advdiff.residual_s": ("s", "busy", ("advdiff.residual",)),
    "advdiff.iteration_matrix_s": ("s", "busy", ("advdiff.iteration_matrix",)),
    "advdiff.totals_s": ("s", "busy", ("advdiff.totals",)),
    "integrator.step_calls": ("count", "calls", ("integrator.step",)),
    "integrator.step_s": ("s", "busy", ("integrator.step",)),
    "integrator.step_s_p50": ("s", "p50", ("integrator.step",)),
    "integrator.step_s_p90": ("s", "p90", ("integrator.step",)),
    "integrator.self_s": ("s", "self", ("integrator.step",)),
    "integrator.matrix_bytes": ("bytes_computed", "count", "integrator.matrix_bytes"),
    "integrator.newton_iters": ("count", "count", "integrator.newton_iters"),
    "integrator.residual_evals": ("count", "count", "integrator.residual_evals"),
    "integrator.init_s": ("s", "busy", ("integrator.init",)),
    "audit.record_s": ("s", "busy", ("audit.record",)),
    "audit.self_s": ("s", "self", ("audit.record",)),
    "audit.report_s": ("s", "busy", ("audit.report",)),
    "audit.rows": ("count", "count", ROWS_COUNT),
    "linear_analysis.order_s": ("s", "busy", ("linear_analysis.order",)),
    "linear_analysis.amplification_s": ("s", "busy",
                                        ("linear_analysis.amplification",)),
    "config.parse_s": ("s", "busy", ("config.parse",)),
    "experiments.self_s": ("s", "self", ("experiments.run",)),
}


def _matrix_bytes(matrix) -> int:
    """Bytes of a dense matrix from its shape; of a sparse one from its arrays."""
    if hasattr(matrix, "nnz"):
        return sum(getattr(matrix, a).nbytes for a in ("data", "indices", "indptr",
                                                       "row", "col")
                   if hasattr(matrix, a))
    return matrix.shape[0] * matrix.shape[1] * matrix.dtype.itemsize


class Tracer:
    """Installs the wrappers and holds the spans and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [id, parent, name, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []     # targets not found
        self._done: set = set()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _newton(self, name, fn):
        counts = self.counts
        iters, evals, nbytes = NEWTON_COUNTS

        @functools.wraps(fn)
        def wrapper(residual, jacobian, *args, **kwargs):
            def counted_residual(x):
                counts[evals] += 1
                return residual(x)

            def measured_jacobian(x):
                matrix = jacobian(x)
                counts[nbytes] += _matrix_bytes(matrix)
                return matrix

            x, norms = fn(counted_residual, measured_jacobian, *args, **kwargs)
            counts[iters] += len(norms) - 1
            return x, norms
        return wrapper

    def _report_rows(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts[ROWS_COUNT] += len(report.table)
            return report
        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, target: str, group: str, make) -> bool:
        """Wrap one target with make(original) once per group; False when the
        target does not exist."""
        module_name, qualname = target.split(":")
        try:
            module = importlib.import_module(f"genalpha.{module_name}")
        except ImportError:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            owner = next((k for k in getattr(cls, "__mro__", ())
                          if attr in vars(k)), None)
            if owner is None:
                return False
            if (group, owner, attr) not in self._done:
                self._done.add((group, owner, attr))
                setattr(owner, attr, make(vars(owner)[attr]))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        if (group, original) not in self._done:
            self._done.add((group, original))
            wrapped = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "genalpha" or mod_name.startswith("genalpha."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return True

    def _install_group(self, name, targets, make):
        found = [self._patch(t, name, functools.partial(make, name))
                 for t in targets]
        self.missing += [t for t, ok in zip(targets, found) if not ok]

    def install(self):
        for name, targets in COUNTED.items():
            self._install_group(name, targets, self._count)
        self._install_group(ROWS_COUNT, ["audit:BalanceLedger.report"],
                            self._report_rows)
        module_name, attr = NEWTON_TARGET.split(":")
        newton = getattr(importlib.import_module(f"genalpha.{module_name}"),
                         attr, None)
        params = list(inspect.signature(newton).parameters)[:2] if newton else []
        if params == ["residual", "jacobian"]:
            self._install_group("newton", [NEWTON_TARGET], self._newton)
        else:
            self.missing.append(NEWTON_TARGET)
        for name, targets in SPANS.items():
            self._install_group(name, targets, self._span)

    def write(self, path):
        with open(path, "w") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"run": self.run_id, "id": sid,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")


# -- metrics from one traced round ---------------------------------------------

def read_spans(path) -> list[dict]:
    with open(path) as spans:
        return [json.loads(line) for line in spans]


def _missing_sources(missing) -> set:
    """Span groups and counters all of whose targets are missing."""
    gone = set(missing)
    out = {name for name, targets in {**SPANS, **COUNTED}.items()
           if all(t in gone for t in targets)}
    if NEWTON_TARGET in gone:
        out.update(NEWTON_COUNTS)
    if "audit:BalanceLedger.report" in gone:
        out.add(ROWS_COUNT)
    return out


def layer_metrics(spans: list[dict], counts: dict, missing: list) -> dict:
    """{metric: value or None when its callables no longer exist}."""
    by_id = {s["id"]: s for s in spans}
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def outermost(names):
        def nested(s):
            parent = s["parent"]
            while parent is not None:
                if by_id[parent]["name"] in names:
                    return True
                parent = by_id[parent]["parent"]
            return False
        return [s for s in spans if s["name"] in names and not nested(s)]

    gone = _missing_sources(missing)
    out = {}
    for metric, (_, kind, source) in LAYER_METRICS.items():
        sources = (source,) if isinstance(source, str) else source
        if all(name in gone for name in sources):
            out[metric] = None
            continue
        if kind == "count":
            out[metric] = counts.get(source, 0)
            continue
        group = outermost(set(sources))
        durations = sorted(s["end"] - s["start"] for s in group)
        if kind == "calls":
            out[metric] = len(group)
        elif kind == "busy":
            out[metric] = sum(durations)
        elif kind == "self":
            out[metric] = sum(s["end"] - s["start"] - child_time[s["id"]]
                              for s in group)
        elif len(durations) < 2:
            out[metric] = durations[0] if durations else 0.0
        else:
            cuts = statistics.quantiles(durations, n=10, method="inclusive")
            out[metric] = cuts[4] if kind == "p50" else cuts[8]
    return out
