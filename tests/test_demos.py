"""The narrative demos run as shipped."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_contraction_demo_respects_the_envelope(capsys):
    demo = runpy.run_path(str(DEMOS / "contraction.py"))
    demo["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "envelope respected at every round: True"


def test_speedup_demo_prints_a_row_per_client_count(capsys):
    demo = runpy.run_path(str(DEMOS / "speedup.py"))
    demo["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("shared step size gamma = 1/(24 L)")
    assert lines[1].split() == ["N", "trace(cov)", "predicted", "N*trace"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["2", "4", "8"]
    assert all(float(x) > 0 for row in rows for x in row[1:])
