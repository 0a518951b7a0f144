"""Benchmark of the genalpha experiment runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py          # every workload, seed 0, untraced

Each workload (see workloads.py) is a set of seeded configs.  A round runs
all of them in one fresh interpreter (worker.py), through
`genalpha.config.parse_config` and `genalpha.experiments.run_experiment`,
with outputs in a temporary directory under `.perfbench/`; every output is
then checked (checks.py).  Rounds repeat until `--seconds` is used up.

--trace 0 alternates set-up rounds (every config cut to one step) and full
rounds, and prints the end-to-end metrics: `setup_s` and `run_s` (upper
decile of the wall times), `steps_per_s` and `peak_rss_mb` (median).
--trace 1 alternates plain and traced rounds and prints the per-layer
metrics of the traced rounds (lower medians) and `trace.overhead_s`; the spans of
the last traced round are written to `.perfbench/spans-<workload>-seed<n>.jsonl`.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
ROUND_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _blas_threads() -> str:
    return str(len(os.sched_getaffinity(0)))


def _worker_env() -> dict:
    threads = _blas_threads()
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


class Tally:
    """Operations attempted and failed, and each config run's outcomes.

    A config run is one operation and each time step it schedules is one
    more.  A failed run counts one failed operation; one that raised also
    fails all its steps, since none of them reached a checked result.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.outcomes: dict[str, dict] = {}

    def add(self, run, status: str, detail: str, raised: bool):
        self.attempted += 1 + run.steps
        if status != "ok":
            self.failed += 1 + (run.steps if raised else 0)
        self.correct = self.correct and status != "failed"
        self.outcomes.setdefault(run.name, {}).setdefault((status, detail), 0)
        self.outcomes[run.name][(status, detail)] += 1


def run_round(runs, setup: bool = False, spans=None, run_id: str = ""):
    """Run the configs in one fresh worker; (wall seconds, report, out dir)."""
    out = Path(tempfile.mkdtemp(dir=WORK))
    job = {"src": str(ROOT / "src"), "run_id": run_id,
           "spans": str(spans) if spans else None,
           "runs": [{"name": r.name, "ini": r.setup_ini if setup else r.ini,
                     "out": str(out / r.name)} for r in runs]}
    job_file = out / "job.json"
    job_file.write_text(json.dumps(job))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               str(job_file)], env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out)
        raise BenchmarkError(f"a round took over {ROUND_TIMEOUT_S} s")
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        shutil.rmtree(out)
        raise BenchmarkError(f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return seconds, json.loads(proc.stdout.splitlines()[-1]), out


def read_outputs(out: Path, run) -> dict:
    """{file name: text} of one config run's outputs."""
    run_dir = out / run.name
    return ({p.name: p.read_text() for p in run_dir.iterdir()}
            if run_dir.is_dir() else {})


def _check(runs, report, out, tally: Tally):
    for run, result in zip(runs, report["results"]):
        status, detail = checks.classify(run, result["exit"], result["error"],
                                         read_outputs(out, run))
        tally.add(run, status, detail, raised=result["error"] is not None)
    shutil.rmtree(out)


def upper_decile(values: list[float]) -> float:
    """The 90th percentile of a run's round times.

    On a shared host the rounds of one run sit at a steady slow level with
    spells of faster rounds that can last a whole run.  The median follows
    those spells; the upper decile stays at the steady level.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runs, seconds: float, tally: Tally):
    """(end-to-end metrics, set-up round times, full round times)."""
    deadline = time.perf_counter() + seconds
    _, _, out = run_round(runs, setup=True)   # fills bytecode and file caches
    shutil.rmtree(out)
    setup_times, run_times, rss_mb = [], [], []
    while True:
        wall, _, out = run_round(runs, setup=True)
        shutil.rmtree(out)
        setup_times.append(wall)
        wall, report, out = run_round(runs)
        _check(runs, report, out, tally)
        run_times.append(wall)
        rss_mb.append(report["peak_rss_kb"] / 1024.0)
        if time.perf_counter() + setup_times[-1] + run_times[-1] > deadline:
            break
    setup_s = upper_decile(setup_times)
    run_s = upper_decile(run_times)
    steps = sum(r.steps for r in runs)
    metrics = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
               "steps_per_s": (steps / (run_s - setup_s), "1/s"),
               "peak_rss_mb": (statistics.median(rss_mb), "MB")}
    return metrics, setup_times, run_times


def per_layer(runs, seconds: float, tally: Tally, spans_file: Path,
              run_id: str):
    """(per-layer metrics, traced rounds, missing callables)."""
    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    while True:
        wall, report, out = run_round(runs)
        _check(runs, report, out, tally)
        plain.append(wall)
        wall, report, out = run_round(runs, spans=spans_file,
                                   run_id=f"{run_id}-round{len(traced)}")
        _check(runs, report, out, tally)
        traced.append(wall)
        missing = report["missing"]
        layers.append(tracing.layer_metrics(tracing.read_spans(spans_file),
                                            report["counts"], missing))
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    metrics = {}
    for name, (unit, _, _) in tracing.LAYER_METRICS.items():
        values = [layer[name] for layer in layers]
        metrics[name] = (None if None in values
                         else statistics.median_low(values), unit)
    metrics["trace.overhead_s"] = (upper_decile(traced) - upper_decile(plain),
                                   "s")
    return metrics, len(traced), missing


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runs = workloads.build(workload, seed)
    tally = Tally()
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace "
          f"{int(trace)}  BLAS threads {_blas_threads()}")
    for run in runs:
        seeded = ", ".join(f"{k}={v}" for k, v in run.keys.items()
                           if k in ("amplitude", "rho_inf", "a", "kappa"))
        print(f"  {run.name:24s} {run.experiment:24s} {run.steps:6d} steps  "
              f"{seeded}")
    if trace:
        spans_file = WORK / f"spans-{workload}-seed{seed}.jsonl"
        metrics, rounds, missing = per_layer(runs, seconds, tally, spans_file,
                                             f"{workload}-seed{seed}")
        print(f"traced rounds {rounds}; spans of the last in "
              f"{spans_file.relative_to(ROOT)}")
        for target in missing:
            print(f"  missing callable: genalpha.{target}")
    else:
        metrics, setup_times, run_times = end_to_end(runs, seconds, tally)
        for label, times in (("setups", setup_times), ("rounds", run_times)):
            print(f"{label} {len(times)}: "
                  + " ".join(f"{t:.3f}" for t in times) + " s")
    for name, outcomes in tally.outcomes.items():
        for (status, detail), count in outcomes.items():
            label = {"ok": "ok", "known": "FAILED", "failed": "FAILED"}[status]
            print(f"  {name:24s} {label} x{count}  {detail}".rstrip())
    print(f"operations attempted {tally.attempted}  failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:34s} {shown}")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "genalpha" / "__init__.py").is_file():
        print(f"error: no genalpha source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    WORK.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
