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

import math

from .errors import NumericsError
from .world import WorldState, state_key


class AchievementPredictor:
    """Tabular per-(goal, context key) achievement-probability predictor.

    Entries start at 0.0: a prediction of zero is what arms the learning
    gate, and an optimistic start would disable it exactly when it matters.
    The delta rule keeps every entry inside [0, 1] for any outcome sequence.
    ``Simulation`` passes ``eta`` and ``clip_negative_reward`` from
    ``ExperimentConfig`` (``predictor_eta``, ``clip_reward``) and the
    scenario's ``context_mode`` (``"none"`` for grail).
    """

    def __init__(self, eta: float, context_mode: str, clip_negative_reward: bool):
        self.eta = eta
        self.context_mode = context_mode
        self.clip_negative_reward = clip_negative_reward
        self.table: dict[tuple[int, tuple], float] = {}

    def key(self, state: WorldState) -> tuple:
        """The key the other methods take: ``SelectionStrategy.state_key`` at the same mode."""
        return state_key(state, self.context_mode)

    def predict(self, goal: int, key: tuple) -> float:
        return self.table.get((goal, key), 0.0)

    def update_and_reward(self, goal: int, key: tuple, achieved: bool) -> float:
        """Delta-rule update toward the trial outcome; returns the intrinsic reward.

        Reward is the prediction improvement ``p_new - p_old``, clipped to
        zero from below unless the signed variant was configured.
        """
        cell = (goal, key)
        p_old = self.table.get(cell, 0.0)
        p_new = p_old + self.eta * ((1.0 if achieved else 0.0) - p_old)
        self.table[cell] = p_new
        reward = p_new - p_old
        if self.clip_negative_reward:
            reward = max(0.0, reward)
        if not math.isfinite(reward):
            raise NumericsError(f"non-finite intrinsic reward for goal {goal}")
        return reward

    def learning_gate(self, goal: int, key: tuple, achieved: bool, epsilon: float) -> bool:
        """False (block expert learning) iff the prediction is ~zero and the trial failed.

        A goal that was achieved always trains, whatever was predicted.
        Evaluate before update_and_reward: the gate reads the prediction the
        system held when it committed to the trial.
        """
        if achieved:
            return True
        return self.predict(goal, key) > epsilon
