"""Goal selection: one tabular value update under one softmax rule.

``SelectionStrategy`` keeps a table of per-goal values for each state key
and updates the selected cell by ``v += lr * (r + discount * max v' - v)``.
The three systems differ only in the parameters of that update:

* ``grail``   - context mode ``none``, lr 0.01, discount 0: one reward EMA
                per goal, state-blind.
* ``c_grail`` - state-keyed, lr 0.1, discount 0: one reward EMA per goal
                per state key.
* ``m_grail`` - state-keyed, lr 0.1, discount 0.3: tabular Q-learning, so
                the value of practicing a goal includes the discounted
                rewards that downstream goals can later provide.

Goals are sampled from a softmax over the current values at the strategy's
temperature. Value rows start at zero: no reward, no preference.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .world import WorldState, state_key


def softmax_probabilities(values: Sequence[float], temperature: float) -> list[float]:
    """Softmax distribution over values at the given temperature, as a list.

    Numerically stable for any finite values; sums to 1 within 1e-12. The
    strictly largest value always gets the largest probability, and the
    distribution flattens to uniform as temperature grows. Raises
    ``NumericsError`` when the result is not finite (a temperature so small
    that ``values / temperature`` overflows).

    The arithmetic is numpy's (divide, subtract the max, exponentiate,
    normalize) in Python floats, with ``math.exp`` in place of ``np.exp``.
    The two differ in the last bit for a few percent of arguments, so these
    probabilities are not bit-identical to a numpy softmax; a draw from them
    can differ only when the uniform number falls within an ulp of a bin
    edge, about 1e-16 per draw. The max is taken before dividing, in one
    pass fewer: dividing by a positive temperature keeps the order, so
    ``max(values) / temperature`` is ``max(v / temperature for v in values)``
    wherever the exponent can tell (ties, signed zeros and NaN included).
    """
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    top = max(values) / temperature
    p = [math.exp(v / temperature - top) for v in values]
    # Added in order, as numpy sums fewer than eight values (Python 3.12's
    # sum() compensates, so its last bit can differ).
    total = functools.reduce(operator.add, p)
    # x - top is at most 0 unless it is NaN, so a NaN anywhere shows in the sum.
    if not math.isfinite(total):
        raise NumericsError(f"softmax at temperature {temperature} is not finite")
    return [x / total for x in p]


def cumulative_probabilities(probs: Sequence[float]) -> list[float]:
    """The bin edges ``rng.choice(len(probs), p=probs)`` searches: numpy's
    arithmetic, the running sum of ``probs`` divided by its last element.

    It skips numpy's checks (no negative probability, a sum within
    ``sqrt(eps)`` of 1): its inputs are softmax outputs, which are
    non-negative and sum to 1 within a few ulps, so neither could fail.
    """
    cdf = list(itertools.accumulate(probs))
    last = cdf[-1]
    return [c / last for c in cdf]


def choose_index(probs: Sequence[float], rng: np.random.Generator) -> int:
    """An index drawn with probabilities ``probs``; the same draw as
    ``rng.choice(len(probs), p=probs)``: ``cumulative_probabilities`` searched
    on the right for one ``rng.random()``, the one double ``choice`` consumes.
    """
    return bisect.bisect_right(cumulative_probabilities(probs), rng.random())


class SelectionStrategy:
    """A value table keyed by state, sampled by softmax.

    ``context_mode`` controls what part of the world state the strategy can
    condition on (``none`` collapses every state to one key); ``state_key``
    makes the key the other methods take. The one-step target bootstraps on
    the best value at ``next_key``, the post-trial key, when one is given and
    ``discount`` is positive; the caller gives none on an epoch's last trial.
    A table without a discount adds no row for a next key. Each row is a list
    of Python floats.
    """

    def __init__(self, n_goals: int, temperature: float, learning_rate: float,
                 discount: float, context_mode: str):
        self.n_goals = n_goals
        self.temperature = temperature
        self.learning_rate = learning_rate
        self.discount = discount
        self.context_mode = context_mode
        self.table: dict[tuple, list[float]] = {}

    def state_key(self, state: WorldState) -> tuple:
        return state_key(state, self.context_mode)

    def goal_values(self, key: tuple) -> list[float]:
        values = self.table.get(key)
        if values is None:
            values = self.table[key] = [0.0] * self.n_goals
        return values

    def select(self, key: tuple, rng: np.random.Generator) -> int:
        """Sample a goal index for the state keyed ``key``."""
        return choose_index(softmax_probabilities(self.goal_values(key), self.temperature), rng)

    def update(self, key: tuple, goal: int, reward: float, next_key: tuple | None) -> None:
        """Move the selected cell toward its one-step target, which bootstraps
        on ``next_key`` when it is given; no other cell changes."""
        values = self.goal_values(key)
        target = reward
        if next_key is not None and self.discount > 0:
            target += self.discount * max(self.goal_values(next_key))
        value = values[goal]
        values[goal] = value + self.learning_rate * (target - value)

    def dump_rows(self):
        """(state_key, goal, value) triples for every stored cell, sorted."""
        for key, values in sorted(self.table.items()):
            key_text = "|".join(str(k) for k in key)
            for goal, value in enumerate(values):
                yield key_text, goal, value
