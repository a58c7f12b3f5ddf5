"""The narrative demos run as shipped: each `main()`, with no argument.

Every file in `demos/` has a checker for the report it prints, and a guard
test fails when one has none, so a new demo cannot land unrun.
"""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def check_contraction(lines):
    assert lines[-1] == "envelope respected at every round: True"


def check_speedup(lines):
    assert lines[0].startswith("shared step size gamma = 1/(24 L)")
    assert lines[1].split() == ["N", "trace(cov)", "predicted", "N*trace"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["2", "4", "8"]
    assert all(float(x) > 0 for row in rows for x in row[1:])


def check_bias(lines):
    assert lines[0].split() == ["gamma", "|bias|", "|predicted|", "cosine"]
    rows = [[float(x) for x in line.split()] for line in lines[1:3]]
    assert all(len(row) == 4 and min(row[:3]) > 0 and -1 <= row[3] <= 1 for row in rows)
    # gamma prints with five decimals, so the halving holds to that rounding
    assert rows[1][0] == pytest.approx(rows[0][0] / 2, abs=1e-5)
    assert lines[3:-1] == [""]
    assert re.fullmatch(r"bias ratio after halving gamma: \d+\.\d\d "
                        r"\(first-order theory says 2\)", lines[-1])


def check_figure1(lines):
    assert lines[0].split() == ["algorithm", "N", "final", "mse", "plateau", "mse"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["fedavg", "10"], ["fedavg", "100"], ["scaffold", "10"], ["scaffold", "100"]]
    assert all(len(row) == 4 and float(row[2]) > 0 and float(row[3]) > 0 for row in rows)


CHECKS = {
    "bias.py": check_bias,
    "contraction.py": check_contraction,
    "figure1.py": check_figure1,
    "speedup.py": check_speedup,
}


def test_every_demo_has_a_checker():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_demo_prints_its_report(name, capsys):
    runpy.run_path(str(DEMOS / name))["main"]()
    CHECKS[name](capsys.readouterr().out.splitlines())
