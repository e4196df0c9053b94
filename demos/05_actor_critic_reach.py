"""Train the real low-level learner: an actor-critic reaching one sphere.

The selection-level demos use the idealized expert; this one runs the full
loop with the actor-critic backend on a single always-achievable sphere and
reports training hits and frozen-policy evaluation as learning progresses.
Takes on the order of a minute.
"""

import argparse
import time

from lightup import ExperimentConfig, Simulation
from lightup.world import Goal, ScenarioSpec


def single_goal_scenario(trials):
    return ScenarioSpec(
        name="single_reach",
        goals=(Goal("a", (0.0, 0.6)),),
        total_trials=trials,
        context_mode="none",
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = single_goal_scenario(args.trials)
    cfg = ExperimentConfig(scenario=spec, system="grail", backend="actor_critic",
                           replications=1, seed=args.seed, timeout_steps=800,
                           eval_trials=10)
    sim = Simulation(cfg)

    t0 = time.time()
    hits = 0
    print("trial   train-hits   eval-success   sigma")
    for t in range(1, spec.total_trials + 1):
        sim.run_trial()
        hits += sim.series.achieved[-1]
        if t % 100 == 0:
            ev = sim.measure_competence(0)
            expert = sim.experts[0][sim.selectors[0].greedy()]
            print(f"{t:5d}   {hits:10d}   {ev:12.1f}   {expert.sigma:.2f}")
            hits = 0
            if ev >= 1.0:
                print(f"\npolicy reaches the sphere reliably after {t} trials "
                      f"({time.time() - t0:.0f}s)")
                break
    else:
        print(f"\nstopped at {spec.total_trials} trials ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
