"""Experts (idealized and actor-critic) and the expert selector."""

import copy
import math

import numpy as np
import pytest

from lightup.arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward
from lightup.skills import (
    ActorCriticConfig,
    ActorCriticExpert,
    ExpertSelector,
    IdealizedExpert,
)


# -- idealized expert ---------------------------------------------------------


def test_idealized_success_update():
    ex = IdealizedExpert(competence=0.5, learning_rate=0.1)
    ex.learn(achieved=True, achievable=True, gate=True)
    assert ex.competence == pytest.approx(0.55)


def test_idealized_competence_clamped_at_one():
    ex = IdealizedExpert(competence=1.0, learning_rate=0.1)
    ex.learn(achieved=True, achievable=True, gate=True)
    assert ex.competence == 1.0


def test_idealized_gate_false_is_strict_noop():
    ex = IdealizedExpert(competence=0.37)
    before = ex.snapshot()
    for achieved in (False, True):
        for achievable in (False, True):
            ex.learn(achieved=achieved, achievable=achievable, gate=False)
    assert ex.snapshot() == before


def test_idealized_attempt_never_succeeds_when_unachievable():
    ex = IdealizedExpert(competence=1.0)
    rng = np.random.default_rng(0)
    assert not any(ex.attempt(False, rng) for _ in range(1000))


def test_idealized_attempt_always_succeeds_at_full_competence():
    ex = IdealizedExpert(competence=1.0)
    rng = np.random.default_rng(1)
    assert all(ex.attempt(True, rng) for _ in range(1000))


def test_idealized_attempt_rate_matches_competence():
    # 0.5 is above the exploration floor, so the rate is the plain Bernoulli one.
    ex = IdealizedExpert(competence=0.5)
    rng = np.random.default_rng(2)
    rate = np.mean([ex.attempt(True, rng) for _ in range(10000)])
    assert abs(rate - 0.5) < 0.05


def test_idealized_attempt_rate_is_exact_bernoulli_without_floor():
    ex = IdealizedExpert(competence=0.1, exploration_floor=0.0)
    rng = np.random.default_rng(3)
    rate = np.mean([ex.attempt(True, rng) for _ in range(20000)])
    assert abs(rate - 0.1) < 0.01


def test_idealized_untrained_attempt_succeeds_at_exploration_floor():
    ex = IdealizedExpert(competence=0.02, exploration_floor=0.22)
    rng = np.random.default_rng(4)
    rate = np.mean([ex.attempt(True, rng) for _ in range(20000)])
    assert abs(rate - 0.22) < 0.01


def test_idealized_monotone_under_successes():
    ex = IdealizedExpert(competence=0.02)
    last = ex.competence
    for _ in range(500):
        ex.learn(achieved=True, achievable=True, gate=True)
        assert ex.competence >= last
        last = ex.competence
    assert ex.competence <= 1.0


def test_idealized_disruption_erodes_on_wasted_ungated_trial():
    ex = IdealizedExpert(competence=0.8, disruption=0.03)
    ex.learn(achieved=False, achievable=False, gate=True)
    assert ex.competence == pytest.approx(0.8 * 0.97)


def test_idealized_achievable_miss_leaves_competence_alone():
    ex = IdealizedExpert(competence=0.8)
    ex.learn(achieved=False, achievable=True, gate=True)
    assert ex.competence == pytest.approx(0.8)


# -- expert selector ------------------------------------------------------------


def test_selector_even_split_when_emas_equal():
    sel = ExpertSelector()
    rng = np.random.default_rng(5)
    picks = [sel.select(rng) for _ in range(4000)]
    assert abs(np.mean(picks) - 0.5) < 0.03


def test_selector_softmax_point_value():
    sel = ExpertSelector(temperature=0.1)
    sel.success_ema = np.array([0.9, 0.1])
    from lightup.selection import softmax_probabilities
    p = softmax_probabilities(sel.success_ema, sel.temperature)
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-8.0)), abs=1e-12)
    assert p[0] == pytest.approx(0.99966, abs=1e-5)


def test_selector_concentrates_after_repeated_single_arm_success():
    sel = ExpertSelector()
    rng = np.random.default_rng(6)
    for _ in range(200):
        sel.update(0, True)
    picks = [sel.select(rng) for _ in range(1000)]
    assert picks.count(0) > 900
    assert sel.greedy() == 0


def test_selector_emas_stay_in_unit_interval():
    sel = ExpertSelector()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        sel.update(int(rng.integers(2)), bool(rng.integers(2)))
        assert np.all(sel.success_ema >= 0.0) and np.all(sel.success_ema <= 1.0)


# -- actor-critic expert -----------------------------------------------------------


ARM = ArmConfig()
AC = ActorCriticConfig()


def make_expert(seed=0):
    return ActorCriticExpert(ARM, AC, np.random.default_rng(seed))


def test_actor_critic_eval_act_is_deterministic():
    ex = make_expert()
    joints = np.array([0.1, -0.2, 0.3, 0.0])
    a1 = ex.act(joints, explore=False)
    a2 = ex.act(joints, explore=False)
    assert np.array_equal(a1, a2)


def test_actor_critic_untrained_output_within_limits():
    ex = make_expert(3)
    rng = np.random.default_rng(8)
    for _ in range(100):
        joints = rng.uniform(-math.pi, math.pi, 4)
        a = ex.act(joints, rng, explore=True)
        assert np.all(a >= ARM.joint_min) and np.all(a <= ARM.joint_max)


def _tiny_trajectory(ex, rng, reward_last=1.0, n=5):
    """An unbroken rollout: each step's next joints are the next step's joints."""
    traj = []
    joints = home_joints(ARM)
    ex.begin_trial(rng)
    for i in range(n):
        action = ex.act(joints, rng)
        nxt = step_toward(joints, action, ARM)
        done = i == n - 1
        traj.append((joints, action, reward_last if done else 0.0, nxt, done))
        joints = nxt
    return traj


def _reference_learn(ex, trajectory):
    """The per-step TD loop that recomputes features and the bootstrap value
    on every pass. Returns how many steps clipped the TD error and how many
    stepped the actor."""
    cfg = ex.cfg
    success = any(reward > 0.0 for _, _, reward, _, _ in trajectory)
    passes = 1 + (cfg.success_replays if success else 0)
    length = len(trajectory)
    clipped = actor_steps = 0
    for _ in range(passes):
        for i, (joints, action, reward, next_joints, done) in enumerate(trajectory):
            feat = ex.features(joints)
            v = float(ex.w_critic @ feat + ex.b_critic[0])
            next_value = float(ex.w_critic @ ex.features(next_joints) + ex.b_critic[0])
            target = reward if done else reward + cfg.discount * next_value
            delta = float(np.clip(target - v, -cfg.td_clip, cfg.td_clip))
            clipped += delta != target - v
            ex.w_critic += cfg.critic_lr * delta * feat
            ex.b_critic += cfg.critic_lr * delta
            if delta > cfg.actor_delta_margin or (success and i >= length - cfg.imitate_window):
                ex._actor_step(feat, action)
                actor_steps += 1
            ex.td_error_ema += 0.01 * (abs(delta) - ex.td_error_ema)
    ex.success_ema += cfg.success_smoothing * ((1.0 if success else 0.0) - ex.success_ema)
    ex.trials_trained += 1
    return clipped, actor_steps


def test_actor_critic_learn_matches_per_step_reference_bit_for_bit():
    # Successes (replayed success_replays extra times) and failures, with a
    # TD clip small enough to bind and trajectories longer and shorter than
    # the imitation window.
    cfg = ActorCriticConfig(td_clip=0.5, imitate_window=40)
    ex = ActorCriticExpert(ARM, cfg, np.random.default_rng(21))
    ref = copy.deepcopy(ex)
    rng = np.random.default_rng(21)
    clipped = actor_steps = 0
    for trial in range(40):
        reward = 0.0 if trial % 3 == 2 else 1.0
        traj = _tiny_trajectory(ex, rng, reward_last=reward, n=1 + trial % 7 * 20)
        # The contract learn relies on: unbroken, done on the last step only.
        for (_, _, _, nxt, done), (joints, *_) in zip(traj, traj[1:]):
            assert nxt is joints and not done
        assert traj[-1][4]
        ex.learn(traj, gate=True)
        counts = _reference_learn(ref, traj)
        clipped += counts[0]
        actor_steps += counts[1]
        new, old = ex.snapshot(), ref.snapshot()
        assert new.keys() == old.keys()
        for name in new:
            assert np.array_equal(np.asarray(new[name]), np.asarray(old[name])), (trial, name)
    assert clipped > 0 and actor_steps > 0


def test_actor_critic_gate_false_is_bitwise_noop():
    ex = make_expert(4)
    rng = np.random.default_rng(9)
    traj = _tiny_trajectory(ex, rng)
    before = ex.snapshot()
    ex.learn(traj, gate=False)
    after = ex.snapshot()
    for name in before:
        assert np.array_equal(np.asarray(before[name]), np.asarray(after[name]))


def test_actor_critic_learn_updates_and_stays_finite():
    ex = make_expert(5)
    rng = np.random.default_rng(10)
    before = ex.snapshot()
    for _ in range(30):
        ex.learn(_tiny_trajectory(ex, rng), gate=True)
    moved = any(
        not np.array_equal(np.asarray(before[k]), np.asarray(v))
        for k, v in ex.snapshot().items()
    )
    assert moved
    for p in ex.parameters().values():
        assert np.all(np.isfinite(p))


def test_actor_critic_identical_seeds_identical_parameters():
    def train(seed):
        ex = make_expert(seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            ex.learn(_tiny_trajectory(ex, rng), gate=True)
        return ex.snapshot()

    s1, s2 = train(7), train(7)
    for name in s1:
        assert np.array_equal(np.asarray(s1[name]), np.asarray(s2[name]))


def test_actor_critic_td_error_shrinks_on_fixed_reaching_task():
    # One always-achievable sphere; TD error magnitude should fall well below
    # its peak once the critic has fit the trial's return structure.
    sphere = np.array([0.0, 0.6])
    ex = make_expert(12)
    rng = np.random.default_rng(12)
    ema_trace = []
    for _ in range(250):
        joints = home_joints(ARM)
        ex.begin_trial(rng)
        traj = []
        for step in range(200):
            action = ex.act(joints, rng)
            nxt = step_toward(joints, action, ARM)
            touched = check_touch(forward_kinematics(nxt, ARM), sphere, ARM)
            done = touched or step == 199
            traj.append((joints, action, 1.0 if touched else 0.0, nxt, done))
            joints = nxt
            if done:
                break
        ex.learn(traj, gate=True)
        ema_trace.append(ex.td_error_ema)
    peak = max(ema_trace)
    assert peak > 0.0
    assert ema_trace[-1] < 0.6 * peak
