"""Benchmark runner: runs one workload through ``lightup.cli.main`` and reports it.

    python3 benches/run.py --workload ideal_paper --seed 42 --seconds 45 --trace 0

Each workload iteration runs in a fresh process (``worker.py``), one at a
time, so set-up is timed from process start. ``--trace 0`` repeats the
workload while ``--seconds`` allows and prints the end-to-end metrics;
``--trace 1`` runs it once untraced and once traced and prints the
per-layer metrics. Every iteration's outputs are checked: invariants,
byte-identity across iterations, and, for pinned seeds, the SHA-256 of every
CSV plus the deterministic counts in ``pins.json``. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prefixes metric names.
``--repin`` records the observed hashes and counts as the pins for the seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORK = os.path.join(ROOT, ".bench_runs")
SETUP_PROBES = 10  # at least: one before each iteration, the rest after the last
DEADLINE_S = 170.0  # a run must end within 180 s

RUN_FILES = ("trials.csv", "competence.csv", "wasted.csv", "competence_agg.csv",
             "wasted_agg.csv", "run.yaml")

# Span -> the workloads meant to exercise it (README.md maps each to the
# end-to-end metric it should move there). Every traced span is listed.
EXERCISED_BY = {
    "world.is_achievable": ("ideal_paper",),
    "world.apply_touch": ("ideal_paper",),
    "world.state_key": ("ideal_paper",),
    "world.key_string": ("ideal_paper",),
    "world.reset": ("ideal_paper",),
    "selection.select": ("ideal_paper",),
    "selection.softmax": ("ideal_paper",),
    "selection.update": ("ideal_paper",),
    "motivation.update_and_reward": ("ideal_paper",),
    "motivation.learning_gate": ("ideal_paper",),
    "skills.expert_select": ("ideal_paper",),
    "skills.idealized_attempt": ("ideal_paper",),
    "skills.idealized_learn": ("ideal_paper",),
    "skills.ac_act": ("ac_reach",),
    "skills.ac_learn": ("ac_reach",),
    "skills.ac_features": ("ac_reach",),
    "arm.step_toward": ("ac_reach",),
    "arm.forward_kinematics": ("ac_reach",),
    "arm.check_touch": ("ac_reach",),
    "arm.home_joints": ("ac_reach",),
    "arm.unreachable_goals": ("ideal_paper", "ac_reach"),
    "experiment.train": ("ac_reach",),
    "experiment.eval": ("ac_reach",),
    "experiment.replication": ("ideal_paper",),
    "experiment.aggregate": ("ideal_paper",),
    "experiment.output": ("ideal_paper",),
    "svgplot.render": ("ideal_paper",),
    "cli.main": ("ideal_paper",),
}
# Spans reported by one total instead of calls and self time.
TOTALS = {"experiment.aggregate": ("experiment.aggregate_s", "self_s"),
          "experiment.output": ("experiment.output_s", "total_s"),
          "svgplot.render": ("svgplot.render_s", "total_s")}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_rows(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)


def observe_outputs(workload, out: str, arm_steps: int) -> tuple[dict, list[str]]:
    """Hashes and deterministic counts of one iteration, plus invariant violations."""
    problems, hashes = [], {}
    trials = train_steps = 0
    finals = []
    for d in workload.run_dirs:
        run_dir = os.path.join(out, d)
        missing = [name for name in RUN_FILES if not os.path.isfile(os.path.join(run_dir, name))]
        if missing:
            problems.append(f"missing {d}/{', '.join(missing)}")
            continue
        for name in sorted(os.listdir(run_dir)):
            if name.endswith(".csv"):
                hashes[f"{d}/{name}"] = sha256(os.path.join(run_dir, name))
        for r in read_rows(os.path.join(run_dir, "trials.csv")):
            trials += 1
            train_steps += int(r["steps"])
            if r["achieved"] == "1" and r["achievable"] != "1":
                problems.append(f"{d}: trial {r['trial']} achieved an unachievable goal")
        last: dict = {}
        for r in read_rows(os.path.join(run_dir, "competence.csv")):
            v = float(r["competence"])
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                problems.append(f"{d}: competence {v} outside [0, 1]")
            key = (r["replication"], r["goal"])
            t = int(r["trial_index"])
            if t >= last.get(key, (-1, 0.0))[0]:
                last[key] = (t, v)
        finals += [v for _, v in last.values()]
    problems += [f"missing {name}" for name in workload.files
                 if not os.path.isfile(os.path.join(out, name))]
    if trials != workload.trials:
        problems.append(f"{trials} trials written, expected {workload.trials}")
    if arm_steps < train_steps:
        problems.append(f"{arm_steps} arm steps counted, fewer than {train_steps} training steps")
    observed = {
        "sha256": hashes,
        "trials": trials,
        "train_steps": train_steps,
        "eval_steps": arm_steps - train_steps,
        "final_competence": sum(finals) / len(finals) if finals else float("nan"),
    }
    return observed, problems


def coverage_problems(workload: str, calls: dict, unwrapped: list) -> list[str]:
    """Why a traced run's per-layer metrics cannot be trusted.

    A target that was not found, or a layer mapped to this workload that made
    no calls, would report zero calls and zero time, which reads as a gain.
    """
    problems = [f"not found, so not traced: {name}" for name in unwrapped]
    idle = [n for n, where in EXERCISED_BY.items() if workload in where and not calls.get(n)]
    if idle:
        problems.append(f"no calls on {workload} to {', '.join(idle)}")
    return problems


def differences(expected: dict, observed: dict, label: str) -> list[str]:
    diffs = [f"{label}: {name} {observed['sha256'].get(name, 'missing')} != {h}"
             for name, h in expected["sha256"].items() if observed["sha256"].get(name) != h]
    diffs += [f"{label}: {key} {observed[key]!r} != {expected[key]!r}"
              for key in ("trials", "train_steps", "eval_steps", "final_competence")
              if observed[key] != expected[key]]
    return diffs


class Bench:
    """Runs iterations of one workload at one seed and keeps their results."""

    def __init__(self, workload, seed: int, pins: dict, started: float):
        self.workload, self.seed, self.started = workload, seed, started
        self.pinned = pins.get(workload.name, {}).get(str(seed))
        self.expected = None  # observed outputs of the first completed iteration
        self.attempted = self.failed = self.spawned = 0
        self.latest_failed = False  # the latest worker process already counts as failed
        self.setup, self.runs, self.problems = [], [], []
        self.metrics = {}
        self.dir = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")

    def spawn(self, mode: str, sample: bool = True) -> dict | None:
        """Run one worker process; returns its result, or None if it did not complete."""
        self.spawned += 1
        self.latest_failed = False
        out = os.path.join(self.dir, f"{self.spawned}-{mode}")
        self.workload.write_inputs(out)
        result_path = os.path.join(out, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--out", out, "--mode", mode, "--result", result_path]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        self.attempted += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} process timed out after {timeout:.0f} s", out)
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return self.fail(f"{mode} process exited {proc.returncode}: {' | '.join(tail)}", out)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["first_replication"] - spawned
        result["wall_s"] = result["end"] - result["first_replication"]
        if mode != "setup":
            result.update(self._check(out, result["arm_steps"]))
        shutil.rmtree(out)
        if sample:
            (self.setup if mode == "setup" else self.runs).append(result)
        return result

    def _check(self, out: str, arm_steps: int) -> dict:
        observed, problems = observe_outputs(self.workload, out, arm_steps)
        if self.expected is None:
            self.expected = observed
            if self.pinned is not None:
                problems += differences(self.pinned, observed, f"seed {self.seed} pins")
        else:
            problems += differences(self.expected, observed, "repeat of the first iteration")
        if problems:
            # The timing stands; the iteration counts as failed.
            self.fail("; ".join(problems[:5]))
        return observed

    def fail(self, problem: str, out: str | None = None) -> None:
        """Record a problem of the latest worker process, which counts as failed once."""
        if not self.latest_failed:
            self.failed += 1
            self.latest_failed = True
        self.problems.append(problem)
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        return None

    def setup_samples(self) -> list[float]:
        return [r["setup_s"] for r in self.setup + self.runs]


def median_spread(values: list[float]) -> tuple[float, float, float]:
    return statistics.median(values), min(values), max(values)


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.spawn("setup", sample=False)  # fills __pycache__ as an installed package has it
    loop_start = time.monotonic()
    durations = []
    # Set-up probes alternate with iterations, so that their median does not
    # hang on one stretch of a noisy machine.
    while not bench.failed:
        bench.spawn("setup")
        began = time.monotonic()
        bench.spawn("run")
        durations.append(time.monotonic() - began)
        if time.monotonic() - loop_start + statistics.median(durations) > seconds:
            break
    while len(bench.setup) < SETUP_PROBES and not bench.failed:
        bench.spawn("setup")
    runs = bench.runs
    if not runs:
        return {}
    rows = {
        "setup_s": ("s", bench.setup_samples()),
        "wall_s": ("s", [r["wall_s"] for r in runs]),
        "trials_per_s": ("1/s", [r["trials"] / r["wall_s"] for r in runs]),
        "peak_rss_mb": ("MB", [r["peak_rss_kb"] / 1024.0 for r in runs]),
    }
    metrics = {}
    for name, (unit, values) in rows.items():
        mid, lo, hi = median_spread(values)
        print(f"  {name:<18} {mid:12.4f} {unit:<5} (min {lo:.4f}, max {hi:.4f}, n={len(values)})")
        metrics[name] = {"value": mid, "unit": unit}
    steps = [(r["train_steps"] + r["eval_steps"]) / r["wall_s"] for r in runs]
    if any(steps):
        mid, lo, hi = median_spread(steps)
        print(f"  {'arm_steps_per_s':<18} {mid:12.1f} {'1/s':<5} (min {lo:.1f}, max {hi:.1f}, n={len(steps)}; "
              f"{runs[0]['train_steps']} training + {runs[0]['eval_steps']} evaluation steps)")
    print(f"  {'final_competence':<18} {runs[0]['final_competence']:12.6f} {'1':<5} "
          f"(mean of the last competence point over goals and replications)")
    return metrics


def per_layer(bench: Bench) -> dict:
    untraced = bench.spawn("run")
    traced = bench.spawn("trace") if untraced is not None else None
    if traced is None:
        return {}
    trace = traced["trace"]
    calls: dict = {}
    for name, _, n in trace["calls"]:
        calls[name] = calls.get(name, 0) + n

    def under(name, parent):
        return sum(n for span, p, n in trace["calls"] if span == name and p == parent)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in EXERCISED_BY:
        if name in TOTALS:
            metric, field = TOTALS[name]
            metrics[metric] = (trace[field].get(name, 0.0), "s")
        else:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (trace["self_s"].get(name, 0.0), "s")
    counts = trace["counts"]
    steps = calls.get("arm.step_toward", 0)
    train_s = trace["total_s"].get("experiment.train", 0.0)
    eval_s = trace["total_s"].get("experiment.eval", 0.0)
    metrics.update({
        "world.state_key.per_trial": (ratio(calls.get("world.state_key", 0), calls.get("experiment.train", 0)), "ratio"),
        "selection.keys": (counts.get("selection.keys", 0), "count"),
        "motivation.gate_blocked_ratio": (ratio(counts.get("motivation.gate_blocked", 0),
                                                calls.get("motivation.learning_gate", 0)), "ratio"),
        "skills.ac_features.per_step": (ratio(calls.get("skills.ac_features", 0), steps), "ratio"),
        "skills.ac_learn.gated_off_ratio": (ratio(counts.get("skills.ac_learn.gated_off", 0),
                                                  calls.get("skills.ac_learn", 0)), "ratio"),
        "arm.touch_checks.per_step": (ratio(calls.get("arm.check_touch", 0), steps), "ratio"),
        "experiment.train_steps": (under("arm.step_toward", "experiment.train"), "count"),
        "experiment.eval_steps": (under("arm.step_toward", "experiment.eval"), "count"),
        "experiment.eval_share": (ratio(eval_s, train_s + eval_s), "ratio"),
        "experiment.output_bytes": (counts.get("experiment.output_bytes", 0), "bytes"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    })
    problems = coverage_problems(bench.workload.name, calls, traced["unwrapped"])
    if metrics["experiment.eval_steps"][0] != traced["eval_steps"]:
        problems.append("traced evaluation steps disagree with the steps in the outputs")
    for problem in problems:
        bench.fail(problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6f} {unit}" if isinstance(value, float) else
              f"  {name:<36} {value:14d} {unit}")
    print(f"  untraced wall_s {untraced['wall_s']:.4f} s, traced wall_s {traced['wall_s']:.4f} s, "
          f"tracing overhead {traced['wall_s'] - untraced['wall_s']:.4f} s")
    if not problems:
        print("  coverage: every mapped layer was called")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(workload, seed: int, seconds: float, trace: bool, pins: dict, started: float) -> Bench:
    bench = Bench(workload, seed, pins, started)
    print(f"{workload.name} seed {seed} ({'pinned' if bench.pinned else 'not pinned'})")
    try:
        bench.metrics = per_layer(bench) if trace else end_to_end(bench, seconds)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(f"  failed_share {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(1, bench.attempted):.3f} (base: workload processes started)")
    return bench


def repin(bench: Bench) -> None:
    if bench.failed or bench.expected is None:
        raise SystemExit("not re-pinning: the run failed")
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    pins.setdefault(bench.workload.name, {})[str(bench.seed)] = bench.expected
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {bench.workload.name} seed {bench.seed}")


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lightup", "cli.py")):
        print(f"error: no lightup sources under {ROOT}/src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    done = []
    for name in names:
        # With several workloads, each gets its own deadline.
        # Re-pinning records what the code writes now, so old pins are not checked.
        bench = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                             {} if args.repin else pins,
                             started if len(names) == 1 else time.monotonic())
        if args.repin:
            repin(bench)
        done.append(bench)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run is still using it
    if any(not s.metrics for s in done):
        print("error: no iteration completed, so there is nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    for s in done:
        prefix = f"{s.workload.name}." if len(done) > 1 else ""
        metrics.update({prefix + k: v for k, v in s.metrics.items()})
    failed = sum(s.failed for s in done)
    print(json.dumps({"correct": failed == 0, "attempted": sum(s.attempted for s in done),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
