"""The narrative demos and the README's Python example run to completion against the current API."""

import csv
import os
import runpy
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
README = os.path.join(ROOT, "README.md")


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


def test_readme_python_example_runs(tmp_path, capsys, monkeypatch):
    # The block under "From Python", run as written from an empty working
    # directory: it writes runs/m3 and prints replication 0's final competence.
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("From Python:\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, README, "exec"), {})
    out = tmp_path / "runs" / "m3"
    assert sorted(os.listdir(out)) == ["competence.csv", "competence_agg.csv", "run.yaml", "trials.csv",
                                       "wasted.csv", "wasted_agg.csv"]
    with open(out / "competence.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["replication"] == "0"]
    final = {row["goal"]: float(row["competence"]) for row in rows if row["trial_index"] == rows[-1]["trial_index"]}
    assert capsys.readouterr().out == f"{final}\n"
