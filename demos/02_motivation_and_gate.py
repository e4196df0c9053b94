"""How the intrinsic reward rises, fades, and gates low-level learning.

The achievement predictor tracks per-goal success probability; its one-step
improvement is the intrinsic reward. While a skill improves, the reward is
positive; once outcomes are fully predicted it vanishes; and while a goal's
prediction is pinned at zero (preconditions unmet), the learning gate shields
the low-level policy from rewardless trials.
"""

import numpy as np

from lightup import AchievementPredictor, ExperimentConfig, IdealizedExpert, WorldState

# The predictor, gate and expert settings of a default run.
cfg = ExperimentConfig()
epsilon = cfg.gate_epsilon


def predictor():
    # State-blind, as grail keys it: the demo stays in one state anyway.
    return AchievementPredictor(6, eta=cfg.predictor_eta, context_mode="none",
                                clip_negative_reward=cfg.clip_reward)


def expert_at(competence):
    return IdealizedExpert(competence=competence, learning_rate=cfg.idealized_learning_rate,
                           disruption=cfg.idealized_disruption,
                           exploration_floor=cfg.idealized_exploration_floor)


state = WorldState(sphere_on=(False,) * 6, context_feature=0.0)

print("=== reward transient while a skill is learned ===")
pred = predictor()
expert = expert_at(cfg.idealized_init_competence)
rng = np.random.default_rng(7)
for block in range(6):
    rewards = []
    for _ in range(50):
        achieved = expert.attempt(True, rng)
        gate = pred.learning_gate(0, state, achieved, epsilon)
        rewards.append(pred.update_and_reward(0, state, achieved))
        expert.learn(achieved=achieved, achievable=True, gate=gate)
    print(f"trials {block*50:3d}-{block*50+49:3d}: competence {expert.competence:.2f}  "
          f"prediction {pred.predict(0, state):.2f}  mean reward {np.mean(rewards):.4f}")
print("reward has faded: nothing left to learn, selection moves elsewhere")

print("\n=== the gate in action ===")
pred = predictor()
print("prediction 0 + failure -> gate", pred.learning_gate(0, state, achieved=False, epsilon=epsilon),
      "(expert protected from a hopeless trial)")
print("prediction 0 + success -> gate", pred.learning_gate(0, state, achieved=True, epsilon=epsilon),
      "(a surprise success always trains)")
pred.table[(0, ())] = 0.7
print("prediction 0.7 + failure -> gate", pred.learning_gate(0, state, achieved=False, epsilon=epsilon),
      "(an expected-to-work policy must feel its misses)")

print("\n=== gated vs ungated experts under wasted trials ===")
protected = expert_at(0.9)
exposed = expert_at(0.9)
for _ in range(100):
    protected.learn(achieved=False, achievable=False, gate=False)
    exposed.learn(achieved=False, achievable=False, gate=True)
print(f"after 100 wasted trials: gated expert {protected.competence:.2f}, "
      f"ungated expert {exposed.competence:.2f}")
