"""Every config, run twice in one process, writes byte-identical files and
exits with the code `scripts/run_all.py` expects of it."""

import runpy
from pathlib import Path

import pytest

from genalpha.config import parse_config
from genalpha.experiments import run_experiment

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = runpy.run_path(str(ROOT / "scripts" / "run_all.py"))["EXPECTED"]
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
