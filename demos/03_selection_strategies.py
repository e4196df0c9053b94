"""The three goal-selection systems and why value propagation matters.

All three are one value table with different update parameters. A
stateless bandit EMA (grail) forgets a goal as soon as its reward fades. A
per-context EMA (c_grail) does the same, just per state. Q-learning
(m_grail) instead lets a goal's value include the discounted rewards of the
goals it unlocks, so mastered preconditions keep being selected while
anything downstream still pays out.
"""

import numpy as np

from lightup import SelectionStrategy, WorldState, softmax_probabilities
from lightup.experiment import SYSTEMS

for name, system in SYSTEMS.items():
    print(f"{name:8s} learning rate {system.learning_rate}, discount {system.discount}")


def value_table(system, n_goals, temperature, context_mode):
    """A selection strategy with ``system``'s learning rate and discount."""
    return SelectionStrategy(n_goals, temperature, SYSTEMS[system].learning_rate,
                             SYSTEMS[system].discount, context_mode=context_mode)


print("\n=== EMA value tables ===")
bandit = value_table("grail", 6, 0.01, "none")
bandit.update((), 2, 1.0, None)  # no next key: the update does not bootstrap
print("bandit after one reward of 1.0 on goal 2:", np.round(bandit.goal_values(()), 3))

# A contextual table keys on the full state: after a reset, every sphere off and the context.
ctx = value_table("c_grail", 6, 0.01, "full_state")
on, off = (ctx.state_key(WorldState((False,) * 6, cf)) for cf in (1.0, 0.0))
ctx.update(on, 0, 0.5, off)
print(f"contextual cell (state {on}, goal a):", ctx.goal_values(on)[0],
      f" state {off} row untouched:", ctx.goal_values(off))

print("\n=== softmax selection ===")
values = np.array([0.5, 0, 0, 0, 0, 0])
for tau in (1.0, 0.1, 0.01):
    p = softmax_probabilities(values, tau)
    print(f"temperature {tau:5.2f}: leader probability {p[0]:.4f}")

print("\n=== value propagation along a chain ===")
# Deterministic two-step chain: the start goal never pays by itself, the end
# goal pays 0.1 per trial. The bandit forgets the start; Q keeps it alive.
q = value_table("m_grail", 2, 0.001, "full_state")
bandit = value_table("grail", 2, 0.01, "none")
bandit.goal_values(())[0] = 0.05  # pretend the start goal was once intrinsically rewarding
start, end = ("start",), ("end",)
for _ in range(2000):
    q.update(start, 0, 0.0, end)   # start goal: reward long gone
    q.update(end, 1, 0.1, None)    # end goal still yields reward; the epoch ends
    bandit.update((), 0, 0.0, ())
print("after 2000 trials:")
print(f"  bandit value of the chain start: {bandit.goal_values(())[0]:.6f} (faded to nothing)")
print(f"  Q value of the chain start:      {q.goal_values(start)[0]:.4f} "
      f"(~ discount x end value = 0.3 x {q.goal_values(end)[1]:.3f})")

p_bandit = softmax_probabilities(np.array([bandit.goal_values(())[0], 0.0]), bandit.temperature)
p_q = softmax_probabilities(np.array([q.goal_values(start)[0], 0.0]), q.temperature)
print(f"  selection probability of the start vs an idle goal: "
      f"bandit {p_bandit[0]:.2f}, Q {p_q[0]:.2f}")
