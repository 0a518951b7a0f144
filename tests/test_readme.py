"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {"__name__": "readme"}  # later blocks continue earlier ones
    for i, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
