"""The Python examples of README.md run as written, in order, in one
namespace, and its status table names exactly the solver's statuses."""

import re
from pathlib import Path

from mmopt import core

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_examples_run():
    assert BLOCKS
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)


def test_status_table_lists_every_status():
    # the rows between "`res.status` is one of:" and the next blank line
    table = README.read_text(encoding="utf-8").split("`res.status` is one of:\n\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    listed = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    statuses = [v for k, v in vars(core).items() if k.startswith("STATUS_")]
    assert sorted(listed) == sorted(statuses)
