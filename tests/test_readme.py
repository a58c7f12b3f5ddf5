"""The README's library quick start runs as written, without warnings."""

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
