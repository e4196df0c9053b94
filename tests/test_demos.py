"""The narrative demos run to completion against the current API."""

import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


# (demo, its arguments, text its output must hold); "{tmp}" is the test's
# temporary directory. 04 and 05 run on small budgets and look for text
# they print only after their last experiment or trial.
@pytest.mark.parametrize("name, argv, marker", [
    pytest.param("01_world_and_arm.py", [], "===", id="01_world_and_arm.py"),
    pytest.param("02_motivation_and_gate.py", [], "===", id="02_motivation_and_gate.py"),
    pytest.param("03_selection_strategies.py", [], "===", id="03_selection_strategies.py"),
    pytest.param("04_three_experiments.py", ["--out", "{tmp}"], "CSVs and SVGs under {tmp}/",
                 id="04_three_experiments.py"),
    pytest.param("05_actor_critic_reach.py", ["--trials", "100"], "\n  100 ",
                 id="05_actor_critic_reach.py"),
])
def test_demo_runs(name, argv, marker, tmp_path, capsys, monkeypatch):
    path = os.path.join(DEMOS, name)
    monkeypatch.setattr(sys, "argv", [path] + [a.format(tmp=tmp_path) for a in argv])
    runpy.run_path(path, run_name="__main__")
    assert marker.format(tmp=tmp_path) in capsys.readouterr().out
