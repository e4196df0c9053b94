"""One timed workload iteration in a fresh process; ``run.py`` starts it.

    python3 benches/worker.py --workload W --seed N --out DIR --mode MODE --result FILE

Modes: ``setup`` stops where the first replication starts (a set-up probe),
``run`` runs the whole workload with tracing off, ``trace`` runs it with
every layer traced.
The process start is timed by the parent, so set-up covers interpreter
start, imports, config and scenario resolution, the reachability check and
``Simulation`` construction. The result file holds monotonic-clock
timestamps, which the parent compares with its own (one clock per machine).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class SetupDone(Exception):
    """Raised by the set-up probe when the first replication starts."""


def import_lightup():
    """Import the checkout's own lightup, never an installed copy."""
    sys.path.insert(0, SRC)
    import lightup.cli

    if not os.path.abspath(lightup.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lightup imported from {lightup.cli.__file__}, not from {SRC}")
    return lightup.cli


def hook_first_replication(simulation_cls, marks: dict, stop: bool) -> None:
    """Record when the first constructed Simulation starts running, then unhook.

    That is where set-up ends: the next thing a replication does is its
    trial-0 competence probe and then its first trial.
    """
    original = simulation_cls.run

    def first_run(self):
        marks["first_replication"] = time.monotonic()
        simulation_cls.run = original
        if stop:
            raise SetupDone
        return original(self)

    simulation_cls.run = first_run


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    Not ``getrusage``: on Linux its ``ru_maxrss`` also counts the parent's
    resident set at fork time, which would mix the runner's memory in.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def count_calls(module, name: str, counter: dict) -> None:
    """Count calls of a function looked up as a module global (no timing)."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    cli = import_lightup()
    import lightup.experiment as experiment

    from workloads import WORKLOADS

    tracer = missing = None
    steps = {"step_toward": 0}
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    elif args.mode == "run":
        # Arm steps with tracing off: one counter, no clock reads.
        count_calls(experiment, "step_toward", steps)
    marks: dict = {}
    hook_first_replication(experiment.Simulation, marks, stop=args.mode == "setup")

    result = {}
    try:
        for argv in WORKLOADS[args.workload].commands(args.seed, args.out):
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"lightup {argv[0]} exited with {code}")
    except SetupDone:
        pass
    result["end"] = time.monotonic()
    result["first_replication"] = marks["first_replication"]
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["unwrapped"] = missing
        result["arm_steps"] = tracer.calls_of("arm.step_toward")
    else:
        result["arm_steps"] = steps["step_toward"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
