"""The README runs as written: its quick start without warnings, and its demo list is complete."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_without_warnings(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {})
    estimated, predicted = map(float, capsys.readouterr().out.split())
    assert estimated > 0 and predicted > 0


def test_demos_block_lists_every_demo():
    section = README.read_text().split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    listed = re.findall(r"^python3 demos/(\S+)", block, flags=re.M)
    shipped = sorted(path.name for path in (README.parent / "demos").glob("*.py"))
    assert sorted(listed) == shipped
