"""Repeated runs of a config in one process write byte-identical files."""

from pathlib import Path

import pytest

from genalpha.config import parse_config
from genalpha.experiments import run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["burgers_balance.ini", "euler_balance.ini",
                                  "nonconservative_compare.ini"])
def test_repeated_runs_are_byte_identical(tmp_path, name):
    config = parse_config((CONFIGS / name).read_text())
    outputs = []
    for run in ("first", "second"):
        assert run_experiment(config, out_dir=tmp_path / run, quiet=True) == 0
        outputs.append({f.name: f.read_bytes()
                        for f in sorted((tmp_path / run).iterdir())})
    assert len(outputs[0]) >= 2  # summary.txt and the experiment's CSV
    assert outputs[0] == outputs[1]
