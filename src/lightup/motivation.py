"""Competence-based intrinsic motivation.

An achievement predictor tracks, per goal (and optionally per context key),
the probability of achieving that goal within a trial, learned by a delta
rule. The intrinsic reward for a trial is the one-step improvement of that
prediction: positive while the skill is being acquired, zero once mastery
is fully predicted, and zero (under the default clipping) when attempts
fail. The same predictor drives the learning gate that protects low-level
policies from training on trials whose goal was never going to activate.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .world import WorldState, state_key

DEFAULT_ETA = 0.1
DEFAULT_GATE_EPSILON = 0.05


class AchievementPredictor:
    """Tabular per-(goal, context key) achievement-probability predictor.

    Entries start at 0.0: a prediction of zero is what arms the learning
    gate, and an optimistic start would disable it exactly when it matters.
    The delta rule keeps every entry inside [0, 1] for any outcome sequence.
    """

    def __init__(
        self,
        n_goals: int,
        eta: float = DEFAULT_ETA,
        context_mode: str = "none",
        clip_negative_reward: bool = True,
    ):
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        self.n_goals = n_goals
        self.eta = eta
        self.context_mode = context_mode
        self.clip_negative_reward = clip_negative_reward
        self.table: dict[tuple[int, tuple], float] = {}

    def key(self, state: WorldState) -> tuple:
        return state_key(state, self.context_mode)

    def predict(self, goal: int, state: WorldState) -> float:
        return self.table.get((goal, self.key(state)), 0.0)

    def update_and_reward(self, goal: int, state: WorldState, achieved: bool) -> float:
        """Delta-rule update toward the trial outcome; returns the intrinsic reward.

        Reward is the prediction improvement ``p_new - p_old``, clipped to
        zero from below unless the signed variant was configured.
        """
        cell = (goal, self.key(state))
        p_old = self.table.get(cell, 0.0)
        p_new = p_old + self.eta * ((1.0 if achieved else 0.0) - p_old)
        self.table[cell] = p_new
        reward = p_new - p_old
        if self.clip_negative_reward:
            reward = max(0.0, reward)
        if not np.isfinite(reward):
            raise NumericsError(f"non-finite intrinsic reward for goal {goal}")
        return reward

    def learning_gate(
        self, goal: int, state: WorldState, achieved: bool, epsilon: float = DEFAULT_GATE_EPSILON
    ) -> bool:
        """False (block expert learning) iff the prediction is ~zero and the trial failed.

        A goal that was achieved always trains, whatever was predicted.
        Evaluate before update_and_reward: the gate reads the prediction the
        system held when it committed to the trial.
        """
        if achieved:
            return True
        return self.predict(goal, state) > epsilon
