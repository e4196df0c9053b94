"""Goal selection: one tabular value update under one softmax rule.

``SelectionStrategy`` keeps a table of per-goal values for each state key
and updates the selected cell by ``v += lr * (r + discount * max v' - v)``.
The three systems differ only in the parameters of that update:

* ``grail``   - context mode ``none``, lr 0.01, discount 0: one reward EMA
                per goal, state-blind.
* ``c_grail`` - context-keyed, lr 0.1, discount 0: one reward EMA per goal
                per context key.
* ``m_grail`` - context-keyed, lr 0.1, discount 0.3: tabular Q-learning, so
                the value of practicing a goal includes the discounted
                rewards that downstream goals can later provide.

Goals are sampled from a softmax over the current values at the strategy's
temperature. Value rows start at zero: no reward, no preference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .world import WorldState, state_key


def softmax_probabilities(values: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax distribution over values at the given temperature.

    Numerically stable for any finite values; sums to 1 within 1e-12. The
    strictly largest value always gets the largest probability, and the
    distribution flattens to uniform as temperature grows. Raises
    ``NumericsError`` when the result is not finite (a temperature so small
    that ``values / temperature`` overflows).
    """
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z = np.asarray(values, dtype=float) / temperature
    z = z - z.max()
    p = np.exp(z)
    total = p.sum()
    # z - z.max() is at most 0 unless it is NaN, so a NaN anywhere shows in the sum.
    if not math.isfinite(total):
        raise NumericsError(f"softmax at temperature {temperature} is not finite")
    return p / total


def sample_index(values: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    probs = softmax_probabilities(values, temperature)
    return int(rng.choice(len(probs), p=probs))


class SelectionStrategy:
    """A value table keyed by state, sampled by softmax.

    ``context_mode`` controls what part of the world state the strategy can
    condition on (``none`` collapses every state to one key). The one-step
    target bootstraps on the best value of the post-trial key only when the
    trial is not terminal and ``discount`` is positive: across an epoch
    boundary the post-reset state is independent of the last choice, so
    bootstrapping there would inject spurious value.
    """

    def __init__(self, n_goals: int, temperature: float, learning_rate: float,
                 discount: float, context_mode: str):
        self.n_goals = n_goals
        self.temperature = temperature
        self.learning_rate = learning_rate
        self.discount = discount
        self.context_mode = context_mode
        self.table: dict[tuple, np.ndarray] = {}

    def state_key(self, state: WorldState) -> tuple:
        return state_key(state, self.context_mode)

    def goal_values(self, key: tuple) -> np.ndarray:
        if key not in self.table:
            self.table[key] = np.zeros(self.n_goals)
        return self.table[key]

    def select(self, state: WorldState, rng: np.random.Generator) -> tuple[int, tuple]:
        """Sample a goal for the current state; returns (goal index, key used)."""
        key = self.state_key(state)
        goal = sample_index(self.goal_values(key), self.temperature, rng)
        return goal, key

    def update(self, key: tuple, goal: int, reward: float, next_key: tuple, terminal: bool) -> None:
        """Move the selected cell toward its one-step target; no other cell changes."""
        values = self.goal_values(key)
        target = reward
        if not terminal and self.discount > 0:
            target += self.discount * float(self.goal_values(next_key).max())
        values[goal] += self.learning_rate * (target - values[goal])

    def dump_rows(self):
        """(state_key, goal, value) triples for every stored cell, sorted."""
        for key, values in sorted(self.table.items()):
            key_text = "|".join(str(k) for k in key)
            for goal, value in enumerate(values):
                yield key_text, goal, float(value)
