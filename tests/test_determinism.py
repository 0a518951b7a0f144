"""Every config, run twice in one process, writes byte-identical files and
exits with the code `scripts/run_all.py` expects of it; `run_all.py --check`
names every reference file that a fresh run changes or does not write."""

import runpy
from pathlib import Path

import pytest

from genalpha.config import parse_config
from genalpha.experiments import run_experiment

ROOT = Path(__file__).resolve().parent.parent
RUN_ALL = runpy.run_path(str(ROOT / "scripts" / "run_all.py"))
EXPECTED = RUN_ALL["EXPECTED"]
CONFIGS = sorted(path.name for path in (ROOT / "configs").glob("*.ini"))


@pytest.mark.parametrize("name", CONFIGS)
def test_repeated_runs_are_byte_identical(tmp_path, name):
    config = parse_config((ROOT / "configs" / name).read_text())
    outputs = []
    for run in ("first", "second"):
        code = run_experiment(config, out_dir=tmp_path / run, quiet=True)
        assert code == EXPECTED.get(name, 0)
        outputs.append({f.name: f.read_bytes()
                        for f in sorted((tmp_path / run).iterdir())})
    assert len(outputs[0]) >= 2  # summary.txt and the experiment's CSV
    assert outputs[0] == outputs[1]


def test_check_lists_changed_and_missing_files(tmp_path):
    reference, fresh = tmp_path / "reference", tmp_path / "fresh"
    for root in (reference, fresh):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("1,2\n")
        (root / "run" / "changed.csv").write_text("1,2\n")
    (fresh / "run" / "changed.csv").write_text("1,3\n")
    (reference / "run" / "missing.csv").write_text("x\n")
    (fresh / "run" / "extra.csv").write_text("y\n")
    assert RUN_ALL["differing_files"](reference, fresh) == [
        "run/changed.csv", "run/missing.csv"]
