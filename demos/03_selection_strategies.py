"""The three goal-selection systems and why value propagation matters.

All three are one value table with different update parameters. A
stateless bandit EMA (grail) forgets a goal as soon as its reward fades. A
per-context EMA (c_grail) does the same, just per state. Q-learning
(m_grail) instead lets a goal's value include the discounted rewards of the
goals it unlocks, so mastered preconditions keep being selected while
anything downstream still pays out.
"""

import numpy as np

from lightup import SelectionStrategy, softmax_probabilities
from lightup.experiment import SYSTEMS

for system, (lr, discount) in SYSTEMS.items():
    print(f"{system:8s} learning rate {lr}, discount {discount}")

print("\n=== EMA value tables ===")
bandit = SelectionStrategy(6, 0.01, *SYSTEMS["grail"], context_mode="none")
bandit.update((), 2, 1.0, (), True)
print("bandit after one reward of 1.0 on goal 2:", np.round(bandit.goal_values(()), 3))

ctx = SelectionStrategy(6, 0.01, *SYSTEMS["c_grail"], context_mode="context_feature")
ctx.update((1,), 0, 0.5, (0,), False)
print("contextual cell (cf=1, goal a):", ctx.goal_values((1,))[0],
      " cf=0 row untouched:", ctx.goal_values((0,)).tolist())

print("\n=== softmax selection ===")
values = np.array([0.5, 0, 0, 0, 0, 0])
for tau in (1.0, 0.1, 0.01):
    p = softmax_probabilities(values, tau)
    print(f"temperature {tau:5.2f}: leader probability {p[0]:.4f}")

print("\n=== value propagation along a chain ===")
# Deterministic two-step chain: the start goal never pays by itself, the end
# goal pays 0.1 per trial. The bandit forgets the start; Q keeps it alive.
q = SelectionStrategy(2, 0.001, *SYSTEMS["m_grail"], context_mode="full_state")
bandit = SelectionStrategy(2, 0.01, *SYSTEMS["grail"], context_mode="none")
bandit.goal_values(())[0] = 0.05  # pretend the start goal was once intrinsically rewarding
start, end = ("start",), ("end",)
for _ in range(2000):
    q.update(start, 0, 0.0, end, False)     # start goal: reward long gone
    q.update(end, 1, 0.1, ("done",), True)  # end goal still yields reward
    bandit.update((), 0, 0.0, (), False)
print("after 2000 trials:")
print(f"  bandit value of the chain start: {bandit.goal_values(())[0]:.6f} (faded to nothing)")
print(f"  Q value of the chain start:      {q.goal_values(start)[0]:.4f} "
      f"(~ discount x end value = 0.3 x {q.goal_values(end)[1]:.3f})")

p_bandit = softmax_probabilities(np.array([bandit.goal_values(())[0], 0.0]), bandit.temperature)
p_q = softmax_probabilities(np.array([q.goal_values(start)[0], 0.0]), q.temperature)
print(f"  selection probability of the start vs an idle goal: "
      f"bandit {p_bandit[0]:.2f}, Q {p_q[0]:.2f}")
