"""The README's Python examples and the scripts it documents run against
the current API."""

import re
import runpy
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SCRIPTS = README.parent / "scripts"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {"__name__": "readme"}  # later blocks continue earlier ones
    for i, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)


def _script_rows(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return [line.split() for line in capsys.readouterr().out.splitlines()[1:]]


def test_order_study_script(capsys):
    rows = _script_rows("order_study.py", capsys)
    assert len(rows) == 7
    orders = {(row[0], row[1]): float(row[2]) for row in rows}
    assert all(order > 1.75 for (_, offset), order in orders.items()
               if offset == "0.00")
    assert 0.9 < orders[("0.50", "0.10")] < 1.1
    assert 0.9 < orders[("0.50", "0.25")] < 1.1


def test_damping_sweep_script(capsys):
    rows = _script_rows("damping_sweep.py", capsys)
    assert len(rows) == 11
    # at z = -1e8 the radii approach rho_inf, slowly for rho_inf = 0
    radii = [float(r) for r in rows[-1][1:]]
    assert radii[0] < 1e-4
    assert abs(radii[1] - 0.5) < 1e-6
    assert abs(radii[2] - 1.0) < 1e-12
