"""The benchmark's workloads: which ``lightup`` commands each one runs.

A workload is a list of ``lightup`` command lines (the argv that
``lightup.cli.main`` receives), made from the workload seed and an output
directory. Every run is closed-loop and single-process: ``--jobs 1``, one
command after the other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import yaml

# ac_reach: the A6 single-reach scenario. The budget is split over many short
# replications rather than one long one: how fast a single replication
# learns, and so how many arm steps its trials take and how often it replays
# a success, depends strongly on its seed (its time varies by about 20%),
# while the sum over sixteen replications varies about four times less.
AC_REACH_REPLICATIONS = 16
AC_REACH_TRIALS = 40

IDEAL_EXPERIMENTS = (("1", "grail"), ("2", "c_grail"), ("3", "m_grail"))
IDEAL_REPLICATIONS = 10
IDEAL_TRIALS = IDEAL_REPLICATIONS * (3000 + 4000 + 6000)
IDEAL_DIRS = tuple(f"s{sc}_{system}" for sc, system in IDEAL_EXPERIMENTS)

REACH_CONFIG = {
    "scenario": {
        "name": "single_reach",
        "goals": ["a"],
        "positions": {"a": [0.0, 0.6]},
        "context_prob_on": 0.0,
        "trials_per_epoch": 1,
        "total_trials": AC_REACH_TRIALS,
        "reset_policy": "per_trial",
        "context_mode": "none",
    },
    "system": "grail",
    "backend": "actor_critic",
    "replications": AC_REACH_REPLICATIONS,
    "timeout_steps": 800,
    "eval_trials": 10,
    "jobs": 1,
}


def _ideal_commands(seed: str, out: str) -> list[list[str]]:
    dirs = [os.path.join(out, d) for d in IDEAL_DIRS]
    runs = [["run", "--scenario", sc, "--system", system,
             "--replications", str(IDEAL_REPLICATIONS), "--seed", seed, "--jobs", "1", "--out", d]
            for (sc, system), d in zip(IDEAL_EXPERIMENTS, dirs)]
    return runs + [["plot", *dirs, "--out", os.path.join(out, "curves.svg")]]


def _reach_commands(seed: str, out: str) -> list[list[str]]:
    return [["run", "--config", os.path.join(out, "reach.yaml"), "--seed", seed,
             "--out", os.path.join(out, "run")]]


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int            # trials every iteration must complete
    run_dirs: tuple        # directories the `run` commands write, relative to the output dir
    build: Callable        # (seed, output dir) -> lightup command lines
    inputs: dict = field(default_factory=dict)  # file name -> YAML data the commands read
    files: tuple = ()      # outputs besides the run directories

    def commands(self, seed: int, out: str) -> list[list[str]]:
        return self.build(str(seed), out)

    def write_inputs(self, out: str) -> None:
        """Input files the commands read; written before the timed process starts."""
        os.makedirs(out, exist_ok=True)
        for name, data in self.inputs.items():
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                yaml.safe_dump(data, fh, sort_keys=True)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ideal_paper",
            trials=IDEAL_TRIALS,
            run_dirs=IDEAL_DIRS,
            build=_ideal_commands,
            files=("curves.svg",),
        ),
        Workload(
            name="ac_reach",
            trials=AC_REACH_REPLICATIONS * AC_REACH_TRIALS,
            run_dirs=("run",),
            build=_reach_commands,
            inputs={"reach.yaml": REACH_CONFIG},
        ),
    )
}
