"""One workload round in a fresh interpreter, as `genalpha run` does it.

Usage: python3 perfbench/worker.py JOB.json

JOB.json names the source tree, the config runs ({name, ini, out}) and, for
a traced round, the spans file and run id.  Each config is parsed with
`genalpha.config.parse_config` and run with
`genalpha.experiments.run_experiment`; an exception is reported as exit 1,
as the CLI does.  The last line of stdout is a JSON report with each run's
exit code and error, the process's peak RSS and, when traced, the counters.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import genalpha

    if not Path(genalpha.__file__).resolve().is_relative_to(src):
        print(f"genalpha imported from {genalpha.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    tracer = None
    if job.get("spans"):
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracer.install()
    from genalpha import config, experiments

    results = []
    for run in job["runs"]:
        try:
            code = experiments.run_experiment(config.parse_config(run["ini"]),
                                              out_dir=run["out"], quiet=True)
            error = None
        except Exception as exc:  # the CLI's exit 1: report and go on
            code, error = 1, f"{type(exc).__name__}: {exc}"
        results.append({"name": run["name"], "exit": code, "error": error})
    report = {"results": results,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.write(job["spans"])
        report.update(counts=tracer.counts, missing=tracer.missing)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
