#!/usr/bin/env python3
"""Run every example experiment config and summarize the exit codes.

    python3 scripts/run_all.py           # write each config's outputs to out/
    python3 scripts/run_all.py --check   # run into a temporary directory and
                                         # compare with the files under out/

The broken convergence config is expected to exit 2 (it deliberately
violates the second-order condition); everything else must exit 0.
`--check` leaves out/ untouched, lists every file under out/ whose fresh
output differs from it byte for byte or is missing, and exits 1 if any does.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from genalpha.cli import main as cli_main

EXPECTED = {"ode_convergence_broken.ini": 2}
ROOT = Path(__file__).resolve().parent.parent


def run_configs(configs, out_root: Path) -> int:
    """Run each config into out_root/<stem>; the number that exit unexpectedly."""
    failures = 0
    for config in configs:
        code = cli_main(["run", str(config), "--out", str(out_root / config.stem),
                         "--quiet"])
        expected = EXPECTED.get(config.name, 0)
        if code != expected:
            failures += 1
        print(f"{config.name:32s} exit={code} (expected {expected}) "
              f"{'ok' if code == expected else 'UNEXPECTED'}")
    print(f"\n{len(configs) - failures}/{len(configs)} configs behaved as expected")
    return failures


def differing_files(reference: Path, fresh: Path) -> list[str]:
    """Files under `reference` whose copy under `fresh` differs or is missing."""
    differ = []
    for path in sorted(p for p in reference.rglob("*") if p.is_file()):
        rel = path.relative_to(reference)
        other = fresh / rel
        if not other.is_file() or other.read_bytes() != path.read_bytes():
            differ.append(str(rel))
    return differ


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh outputs with out/ instead of "
                             "overwriting it")
    args = parser.parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.ini"))
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1
    if not args.check:
        return 1 if run_configs(configs, ROOT / "out") else 0
    with tempfile.TemporaryDirectory() as tmp:
        failures = run_configs(configs, Path(tmp))
        reference = ROOT / "out"
        compared = sum(1 for p in reference.rglob("*") if p.is_file())
        differ = differing_files(reference, Path(tmp))
    for rel in differ:
        print(f"differs: out/{rel}")
    print(f"{compared - len(differ)}/{compared} files under out/ byte-identical")
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(run())
