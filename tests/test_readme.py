"""The README's Python examples run, in order, against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
