"""Reproduce the three benchmark experiments end to end.

Runs each system on its scenario with the idealized expert backend, writes
the CSV metrics plus an SVG chart per comparison, and prints a compact
summary. Defaults to 4 replications for a fast tour; pass --full for the
10-replication version (still well under a minute).

Output lands in ./demo_runs/ unless --out is given.
"""

import argparse
import os

from lightup import ExperimentConfig, run_experiment
from lightup.cli import main as cli_main


def summarize(cfg, series, name):
    finals = [s.competence[-1] for s in series]
    mean_final = {lab: sum(f[g] for f in finals) / len(finals)
                  for g, lab in enumerate(cfg.scenario.labels)}
    wasted = sum(s.achievable.count(0) for s in series) / len(series)
    pretty = " ".join(f"{lab}={v:.2f}" for lab, v in sorted(mean_final.items()))
    print(f"{name:22s} final competence {pretty}  mean wasted {wasted:.0f}")
    return mean_final


def run(scenario, system, reps, seed, out_root):
    out = os.path.join(out_root, f"s{scenario}_{system}")
    cfg = ExperimentConfig(scenario=scenario, system=system, replications=reps,
                           seed=seed, out_dir=out)
    summarize(cfg, run_experiment(cfg), f"scenario {scenario} / {system}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true", help="10 replications instead of 4")
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--out", default="demo_runs")
    args = ap.parse_args()
    reps = 10 if args.full else 4

    print("=== experiment 1: independent tasks (bandit suffices) ===")
    s1 = run(1, "grail", reps, args.seed, args.out)
    cli_main(["plot", s1, "--out", os.path.join(args.out, "experiment1.svg")])

    print("\n=== experiment 2: context-gated tasks (contextual bandit wins) ===")
    s2g = run(2, "grail", reps, args.seed, args.out)
    s2c = run(2, "c_grail", reps, args.seed, args.out)
    cli_main(["plot", s2g, s2c, "--out", os.path.join(args.out, "experiment2.svg")])

    print("\n=== experiment 3: interrelated chains (Q-learning wins) ===")
    s3c = run(3, "c_grail", reps, args.seed, args.out)
    s3m = run(3, "m_grail", reps, args.seed, args.out)
    cli_main(["plot", s3c, s3m, "--out", os.path.join(args.out, "experiment3.svg")])

    print(f"\nCSVs and SVGs under {args.out}/")


if __name__ == "__main__":
    main()
