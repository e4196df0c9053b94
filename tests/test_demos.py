"""The quick narrative demos run to completion against the current API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", [
    "01_world_and_arm.py",
    "02_motivation_and_gate.py",
    "03_selection_strategies.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "===" in capsys.readouterr().out
