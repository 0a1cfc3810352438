"""The Python examples of README.md run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_examples_run():
    assert BLOCKS
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
