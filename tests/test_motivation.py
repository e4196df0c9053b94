"""Achievement predictor, intrinsic reward, and the learning gate."""

import numpy as np
import pytest

from lightup.motivation import AchievementPredictor
from lightup.world import WorldState


def state(cf=0.0, on=(False,) * 6):
    return WorldState(sphere_on=on, context_feature=cf)


def test_fresh_predictor_predicts_zero_everywhere():
    pred = AchievementPredictor(6, context_mode="full_state")
    for goal in range(6):
        assert pred.predict(goal, state()) == 0.0
        assert pred.predict(goal, state(cf=1.0)) == 0.0


def test_keying_none_collapses_states():
    pred = AchievementPredictor(6, context_mode="none")
    pred.update_and_reward(0, state(cf=0.0), True)
    assert pred.predict(0, state(cf=1.0)) == pred.predict(0, state(cf=0.0)) > 0.0


def test_fifty_successes_saturate_prediction():
    pred = AchievementPredictor(6, eta=0.1)
    for _ in range(50):
        pred.update_and_reward(0, state(), True)
    # 1 - 0.9^50 = 0.99485
    assert pred.predict(0, state()) >= 0.99


def test_update_success_delta_and_reward():
    pred = AchievementPredictor(6, eta=0.1)
    pred.table[(0, ())] = 0.5
    reward = pred.update_and_reward(0, state(), True)
    assert pred.predict(0, state()) == pytest.approx(0.55)
    assert reward == pytest.approx(0.05)


def test_reward_zero_at_saturation():
    pred = AchievementPredictor(6, eta=0.1)
    pred.table[(0, ())] = 1.0
    assert pred.update_and_reward(0, state(), True) == 0.0


def test_failure_reward_clipped_to_zero():
    pred = AchievementPredictor(6, eta=0.1)
    pred.table[(0, ())] = 0.5
    reward = pred.update_and_reward(0, state(), False)
    assert pred.predict(0, state()) == pytest.approx(0.45)
    assert reward == 0.0


def test_signed_variant_returns_negative_changes():
    pred = AchievementPredictor(6, eta=0.1, clip_negative_reward=False)
    pred.table[(0, ())] = 0.5
    assert pred.update_and_reward(0, state(), False) == pytest.approx(-0.05)


def test_gate_truth_table():
    pred = AchievementPredictor(6, eta=0.1)
    # prediction 0, not achieved -> blocked
    assert pred.learning_gate(0, state(), achieved=False) is False
    # prediction 0, achieved -> learn anyway
    assert pred.learning_gate(0, state(), achieved=True) is True
    # high prediction, not achieved -> learn (the policy needs the correction)
    pred.table[(0, ())] = 0.7
    assert pred.learning_gate(0, state(), achieved=False) is True


def test_gate_epsilon_threshold():
    pred = AchievementPredictor(6)
    pred.table[(0, ())] = 0.04
    assert pred.learning_gate(0, state(), achieved=False, epsilon=0.05) is False
    pred.table[(0, ())] = 0.06
    assert pred.learning_gate(0, state(), achieved=False, epsilon=0.05) is True


def test_prediction_stays_in_unit_interval():
    rng = np.random.default_rng(17)
    pred = AchievementPredictor(3, eta=0.3, context_mode="context_feature")
    for _ in range(2000):
        goal = int(rng.integers(3))
        st = state(cf=float(rng.integers(2)))
        pred.update_and_reward(goal, st, bool(rng.integers(2)))
    assert all(0.0 <= p <= 1.0 for p in pred.table.values())


def test_prediction_tracks_bernoulli_rate():
    rng = np.random.default_rng(23)
    pred = AchievementPredictor(1, eta=0.1)
    p_true = 0.3
    tail = []
    for i in range(3000):
        pred.update_and_reward(0, state(), bool(rng.random() < p_true))
        if i >= 2000:
            tail.append(pred.predict(0, state()))
    assert abs(np.mean(tail) - p_true) < 0.05


def test_reward_fades_under_constant_success():
    pred = AchievementPredictor(1, eta=0.1)
    rewards = [pred.update_and_reward(0, state(), True) for _ in range(400)]
    # Geometric tail: everything after the first hundred updates is negligible.
    assert sum(rewards[:100]) > 0.99
    assert sum(rewards[100:]) < 1e-4
    assert sum(rewards) <= 1.0 + 1e-12


def test_context_table_isolation_under_full_keying():
    pred = AchievementPredictor(6, context_mode="full_state")
    ctx_a = state(on=(True,) + (False,) * 5)
    ctx_b = state(on=(False,) * 6)
    for _ in range(10):
        pred.update_and_reward(2, ctx_a, True)
    assert pred.predict(2, ctx_b) == 0.0
    assert pred.predict(2, ctx_a) > 0.6

