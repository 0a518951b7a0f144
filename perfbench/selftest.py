"""Self-test of the output checkers.

    python3 perfbench/selftest.py [--seed N]

Runs every workload once, requires each checker to pass the program's real
outputs (the oscillator run as the known fault), then requires it to reject
every perturbed copy listed in `checks.PERTURBATIONS`.  Exits 1 on any miss.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import checks
import run as bench
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args(argv).seed
    bench.WORK.mkdir(exist_ok=True)
    misses = 0
    for workload in workloads.WORKLOADS:
        runs = workloads.build(workload, seed)
        _, report, out = bench.run_round(runs)
        for run, result in zip(runs, report["results"]):
            files = bench.read_outputs(out, run)
            status, detail = checks.classify(run, result["exit"],
                                             result["error"], files)
            passed = status != "failed"
            misses += not passed
            print(f"{'ok  ' if passed else 'MISS'} {workload}/{run.name}: real "
                  f"output -> {status} {detail[:70]}".rstrip())
            for label, perturb in checks.PERTURBATIONS[run.check]:
                status, detail = checks.classify(run, result["exit"], None,
                                                 perturb(files))
                rejected = status == "failed"
                misses += not rejected
                print(f"{'ok  ' if rejected else 'MISS'} {workload}/{run.name}: "
                      f"{label} -> {status} {detail[:70]}".rstrip())
        shutil.rmtree(out)
    print(f"{misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
