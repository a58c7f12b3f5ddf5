"""The narrative demos run as shipped."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_contraction_demo_respects_the_envelope(capsys):
    demo = runpy.run_path(str(DEMOS / "contraction.py"))
    demo["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "envelope respected at every round: True"
