"""Experts (idealized and actor-critic) and the expert selector."""

import copy
import math

import numpy as np
import pytest

from lightup.arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward
from lightup.errors import ConfigError, NumericsError
from lightup.experiment import ExperimentConfig, Simulation
from lightup.skills import (
    ActorCriticConfig,
    ActorCriticExpert,
    ExpertSelector,
    IdealizedExpert,
)
from lightup.world import scenario_from_dict

from conftest import expert_state


# -- idealized expert ---------------------------------------------------------


def idealized(**fields):
    """An IdealizedExpert at the ExperimentConfig defaults, with ``fields`` replaced."""
    cfg = ExperimentConfig()
    defaults = dict(
        competence=cfg.idealized_init_competence,
        learning_rate=cfg.idealized_learning_rate,
        disruption=cfg.idealized_disruption,
        exploration_floor=cfg.idealized_exploration_floor,
    )
    return IdealizedExpert(**{**defaults, **fields})


def test_idealized_success_update():
    ex = idealized(competence=0.5, learning_rate=0.1)
    ex.learn(achieved=True, achievable=True, gate=True)
    assert ex.competence == pytest.approx(0.55)


def test_idealized_competence_clamped_at_one():
    ex = idealized(competence=1.0, learning_rate=0.1)
    ex.learn(achieved=True, achievable=True, gate=True)
    assert ex.competence == 1.0


def test_idealized_gate_false_is_strict_noop():
    ex = idealized(competence=0.37)
    before = expert_state(ex)
    for achieved in (False, True):
        for achievable in (False, True):
            ex.learn(achieved=achieved, achievable=achievable, gate=False)
    assert expert_state(ex) == before


def test_idealized_attempt_never_succeeds_when_unachievable():
    ex = idealized(competence=1.0)
    rng = np.random.default_rng(0)
    assert not any(ex.attempt(False, rng) for _ in range(1000))


def test_idealized_attempt_always_succeeds_at_full_competence():
    ex = idealized(competence=1.0)
    rng = np.random.default_rng(1)
    assert all(ex.attempt(True, rng) for _ in range(1000))


def test_idealized_attempt_rate_matches_competence():
    # 0.5 is above the exploration floor, so the rate is the plain Bernoulli one.
    ex = idealized(competence=0.5)
    rng = np.random.default_rng(2)
    rate = np.mean([ex.attempt(True, rng) for _ in range(10000)])
    assert abs(rate - 0.5) < 0.05


def test_idealized_attempt_rate_is_exact_bernoulli_without_floor():
    ex = idealized(competence=0.1, exploration_floor=0.0)
    rng = np.random.default_rng(3)
    rate = np.mean([ex.attempt(True, rng) for _ in range(20000)])
    assert abs(rate - 0.1) < 0.01


def test_idealized_untrained_attempt_succeeds_at_exploration_floor():
    ex = idealized(competence=0.02, exploration_floor=0.22)
    rng = np.random.default_rng(4)
    rate = np.mean([ex.attempt(True, rng) for _ in range(20000)])
    assert abs(rate - 0.22) < 0.01


def test_idealized_monotone_under_successes():
    ex = idealized(competence=0.02)
    last = ex.competence
    for _ in range(500):
        ex.learn(achieved=True, achievable=True, gate=True)
        assert ex.competence >= last
        last = ex.competence
    assert ex.competence <= 1.0


def test_idealized_disruption_erodes_on_wasted_ungated_trial():
    ex = idealized(competence=0.8, disruption=0.03)
    ex.learn(achieved=False, achievable=False, gate=True)
    assert ex.competence == pytest.approx(0.8 * 0.97)


def test_idealized_achievable_miss_leaves_competence_alone():
    ex = idealized(competence=0.8)
    ex.learn(achieved=False, achievable=True, gate=True)
    assert ex.competence == pytest.approx(0.8)


# -- expert selector ------------------------------------------------------------


def selector(**fields):
    """An ExpertSelector at the ExperimentConfig defaults, with ``fields`` replaced."""
    cfg = ExperimentConfig()
    defaults = dict(smoothing=cfg.expert_smoothing, temperature=cfg.expert_temperature)
    return ExpertSelector(**{**defaults, **fields})


def test_selector_even_split_when_emas_equal():
    sel = selector()
    rng = np.random.default_rng(5)
    picks = [sel.select(rng) for _ in range(4000)]
    assert abs(np.mean(picks) - 0.5) < 0.03


def test_selector_softmax_point_value():
    sel = selector(temperature=0.1)
    sel.success_ema = [0.9, 0.1]
    from lightup.selection import softmax_probabilities
    p = softmax_probabilities(sel.success_ema, sel.temperature)
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-8.0)), abs=1e-12)
    assert p[0] == pytest.approx(0.99966, abs=1e-5)


def test_selector_concentrates_after_repeated_single_arm_success():
    sel = selector()
    rng = np.random.default_rng(6)
    for _ in range(200):
        sel.update(0, True)
    picks = [sel.select(rng) for _ in range(1000)]
    assert picks.count(0) > 900
    assert sel.greedy() == 0


def test_selector_emas_stay_in_unit_interval():
    sel = selector()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        sel.update(int(rng.integers(2)), bool(rng.integers(2)))
        assert all(0.0 <= ema <= 1.0 for ema in sel.success_ema)


def test_selector_draws_match_a_fresh_softmax_and_leave_the_emas_alone(monkeypatch):
    import lightup.skills
    from lightup.selection import choose_index, softmax_probabilities

    softmaxes = []

    def counted(values, temperature):
        softmaxes.append(list(values))
        return softmax_probabilities(values, temperature)

    monkeypatch.setattr(lightup.skills, "softmax_probabilities", counted)
    sel = selector()
    params = (sel.smoothing, sel.temperature)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    # Between draws: nothing, updates that leave both EMAs at zero or move
    # one, and an EMA pair assigned from outside.
    script = [(), (), [(0, False)], [(1, False), (0, False)], [(0, True)], (), [(0, True)],
              [(1, True)], (), "assign", (), [(1, False)], ()] * 3
    for between in script:
        if between == "assign":
            sel.success_ema = [0.25, 0.75]
        else:
            for arm, success in between:
                sel.update(arm, success)
        ema = sel.success_ema.copy()
        drawn = sel.select(rng)
        assert drawn == choose_index(softmax_probabilities(ema, sel.temperature), twin)
        # select reads the learner and changes none of it, bit for bit.
        assert [x.hex() for x in sel.success_ema] == [x.hex() for x in ema]
        assert (sel.smoothing, sel.temperature) == params
    assert rng.random() == twin.random()
    # Only a changed EMA pair is softmaxed again.
    assert len(softmaxes) < len(script)
    assert all(a != b for a, b in zip(softmaxes, softmaxes[1:]))


def test_selector_checks_each_new_softmax_once(monkeypatch):
    import lightup.skills
    from lightup.selection import cumulative_probabilities, softmax_probabilities

    softmaxes, checked = [], []

    def counted_softmax(values, temperature):
        softmaxes.append(softmax_probabilities(values, temperature))
        return softmaxes[-1]

    def counted_cdf(probs):
        checked.append(probs)
        return cumulative_probabilities(probs)

    monkeypatch.setattr(lightup.skills, "softmax_probabilities", counted_softmax)
    monkeypatch.setattr(lightup.skills, "cumulative_probabilities", counted_cdf)
    sel = selector()
    rng = np.random.default_rng(3)
    for step in range(200):
        sel.select(rng)
        if step % 3 == 0:
            sel.update(step % 2, step % 4 == 0)
    # Every new probability vector, and only those, passes numpy's checks.
    assert 1 < len(checked) < 200
    assert len(checked) == len(softmaxes) and all(c is s for c, s in zip(checked, softmaxes))


# -- actor-critic expert -----------------------------------------------------------


ARM = ArmConfig()
NARROW = ArmConfig(joint_min=(-1.0, -0.5, 0.0, -2.0), joint_max=(1.0, 0.5, 2.0, 0.0))
AC = ActorCriticConfig()


def make_expert(seed=0):
    return ActorCriticExpert(ARM, AC, np.random.default_rng(seed))


def exploration(ex, rng):
    """The noise of one training rollout, step by step, as ArmBackend.rollout
    draws it: an AR(1) process at the expert's sigma, whose first state is
    drawn before the first step."""
    sigma, c = ex.sigma, ex.cfg.noise_correlation
    noise = rng.normal(0.0, sigma, size=ex.n)
    while True:
        noise = c * noise + math.sqrt(1.0 - c * c) * rng.normal(0.0, sigma, size=ex.n)
        yield noise.tolist()


@pytest.mark.parametrize("kwargs, message", [
    ({"hidden_units": 0}, r"actor_critic: hidden_units must be in \[1, inf\), got 0"),
    ({"sigma_min": 5.0}, "actor_critic: sigma_min 5.0 exceeds sigma_start 0.8"),
    ({"td_clip": "abc"}, "actor_critic.td_clip must be a number, got 'abc'"),
], ids=["hidden_units-zero", "sigma_min-above_start", "td_clip-text"])
def test_actor_critic_config_checks_itself_when_built_alone(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ActorCriticConfig(**kwargs)


def test_actor_critic_feature_layer_that_overflows_is_a_numerics_error():
    # The feature layer never changes, so it is checked once, when it is drawn.
    with pytest.raises(NumericsError, match="parameter w_feat went non-finite"):
        ActorCriticExpert(ARM, ActorCriticConfig(feature_scale=1e308), np.random.default_rng(0))


def test_actor_critic_eval_act_is_deterministic():
    ex = make_expert()
    feat = ex.features((0.1, -0.2, 0.3, 0.0))
    a1 = ex.act(feat)
    a2 = ex.act(feat)
    assert np.array_equal(a1, a2)


def test_actor_critic_untrained_output_within_limits():
    ex = make_expert(3)
    rng = np.random.default_rng(8)
    noise = exploration(ex, rng)
    for _ in range(100):
        joints = rng.uniform(-math.pi, math.pi, 4)
        a = np.array(ex.act(ex.features(joints), next(noise)))
        assert np.all(a >= ARM.joint_min) and np.all(a <= ARM.joint_max)


def _tiny_rollout(ex, rng, success=True, n=5):
    """An unbroken rollout of n steps that ends in success or not, recorded
    twice: as the (features, action) trajectory that learn reads with the
    success flag, and as the (joints, action, reward, next joints, done)
    steps that _reference_learn reads, rewarded and done, as a rollout
    ends, on the last step only."""
    traj, joint_steps = [], []
    joints = home_joints(ARM)
    noise = exploration(ex, rng)
    for i in range(n):
        feat = ex.features(joints)
        action = ex.act(feat, next(noise))
        nxt = step_toward(joints, action, ARM)
        done = i == n - 1
        reward = 1.0 if done and success else 0.0
        traj.append((feat, action))
        joint_steps.append((joints, action, reward, nxt, done))
        joints = nxt
    return traj, joint_steps


def _tiny_trajectory(ex, rng, success=True, n=5):
    return _tiny_rollout(ex, rng, success, n)[0]


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
    return clipped, actor_steps


def test_actor_critic_learn_matches_per_step_reference_bit_for_bit():
    # Successes (replayed success_replays extra times) and failures, with a
    # TD clip small enough to bind and trajectories longer and shorter than
    # the imitation window. learn reads the features the rollout carried;
    # the reference recomputes them from the joints on every pass.
    cfg = ActorCriticConfig(td_clip=0.5, imitate_window=40)
    ex = ActorCriticExpert(ARM, cfg, np.random.default_rng(21))
    ref = copy.deepcopy(ex)
    rng = np.random.default_rng(21)
    clipped = actor_steps = 0
    for trial in range(40):
        success = trial % 3 != 2
        traj, joint_steps = _tiny_rollout(ex, rng, success=success, n=1 + trial % 7 * 20)
        # The contract learn relies on: each step carries the features of its
        # own posture, the rollout is unbroken, and only the last step is done.
        for (feat, _), (joints, *_) in zip(traj, joint_steps):
            assert np.array_equal(feat, ex.features(joints))
        for (_, _, _, nxt, done), (joints, *_) in zip(joint_steps, joint_steps[1:]):
            assert nxt is joints and not done
        assert joint_steps[-1][4]
        ex.learn(traj, success, gate=True)
        counts = _reference_learn(ref, joint_steps)
        clipped += counts[0]
        actor_steps += counts[1]
        assert expert_state(ex) == expert_state(ref), trial
    assert clipped > 0 and actor_steps > 0


class DotCounter(np.ndarray):
    """A critic weight array that counts the dot products taken with it."""

    calls = 0

    def dot(self, other):
        DotCounter.calls += 1
        return np.ndarray.dot(self, other)


def test_actor_critic_zero_critic_skips_the_sweep_only_on_rewardless_trials():
    # Rewardless trials met by a critic that is still exactly zero take no
    # TD sweep; the first rewarded trial, and every trial after it, does.
    # Each must leave every attribute of the expert bit-for-bit as the per-step
    # reference does, the decayed TD-error EMA included.
    ex = ActorCriticExpert(ARM, AC, np.random.default_rng(41))
    ex.td_error_ema = 0.37
    ref = copy.deepcopy(ex)
    ex.w_critic = ex.w_critic.view(DotCounter)
    rng = np.random.default_rng(42)
    swept = []
    for trial, success in enumerate([False] * 5 + [True] + [False] * 3):
        traj, joint_steps = _tiny_rollout(ex, rng, success=success, n=25 + trial)
        DotCounter.calls = 0
        ex.learn(traj, success, gate=True)
        _reference_learn(ref, joint_steps)
        assert expert_state(ex) == expert_state(ref), trial
        swept.append(DotCounter.calls > 0)
    assert swept == [False] * 5 + [True] * 4
    assert ex.td_error_ema != 0.37


@pytest.mark.parametrize("arm", (ARM, NARROW), ids=["full", "narrow"])
def test_actor_critic_dot_is_bitwise_the_matmul(arm):
    # features, the act mean and the critic value use ndarray.dot; @ calls
    # the same BLAS routine, and they must agree to the bit.
    ex = ActorCriticExpert(arm, AC, np.random.default_rng(51))
    rng = np.random.default_rng(52)
    for _ in range(3000):
        joints = tuple(rng.uniform(-math.pi, math.pi, 4).tolist())
        feat = ex.features(joints)
        expected = np.tanh(ex.w_feat @ (np.asarray(joints, dtype=float) / ex.scale) + ex.b_feat)
        assert feat.tobytes() == expected.tobytes()
        ex.w_actor = rng.normal(0.0, 0.5, ex.w_actor.shape)
        ex.b_actor = rng.normal(0.0, 0.5, ex.n)
        mean, _ = numpy_act(ex, arm, feat, None, None)
        assert np.array(ex.act(feat)).tobytes() == mean.tobytes()
        w_critic = rng.normal(0.0, 0.5, feat.shape)
        assert w_critic.dot(feat).tobytes() == (w_critic @ feat).tobytes()


# act and the actor step as numpy array formulas, the way they were written
# before their per-joint arithmetic moved to Python floats.
def numpy_limits(arm):
    lo, hi = np.array(arm.joint_min, dtype=float), np.array(arm.joint_max, dtype=float)
    return lo, hi, 0.5 * (lo + hi), 0.5 * (hi - lo)


def numpy_act(ex, arm, feat, noise, draws):
    lo, hi, mid, half = numpy_limits(arm)
    mean = mid + half * np.tanh(ex.w_actor @ feat + ex.b_actor)
    if noise is None:
        return np.minimum(np.maximum(mean, lo), hi), None
    c = ex.cfg.noise_correlation
    noise = c * noise + math.sqrt(1.0 - c * c) * draws
    return np.minimum(np.maximum(mean + noise, lo), hi), noise


def numpy_actor_step(ex, arm, feat, action):
    _, _, mid, half = numpy_limits(arm)
    t = np.tanh(ex.w_actor @ feat + ex.b_actor)
    grad_z = (np.asarray(action) - (mid + half * t)) * (1.0 - t * t) / half
    ex.w_actor += ex.cfg.actor_lr * np.outer(grad_z, feat)
    ex.b_actor += ex.cfg.actor_lr * grad_z


@pytest.mark.parametrize("arm", (ARM, NARROW), ids=["full", "narrow"])
def test_actor_critic_act_and_actor_step_are_bitwise_the_numpy_formulas(arm):
    # A trained-looking actor, so means reach the limits and the clamps bind.
    ex = ActorCriticExpert(arm, AC, np.random.default_rng(31))
    ex.w_actor = np.random.default_rng(32).normal(0.0, 0.5, ex.w_actor.shape)
    ex.b_actor = np.random.default_rng(33).normal(0.0, 0.5, ex.n)
    ref = copy.deepcopy(ex)
    rng = np.random.default_rng(34)
    postures = np.random.default_rng(35).uniform(-math.pi, math.pi, (600, 4))
    noise = rng.normal(0.0, ref.sigma, size=ref.n)
    clamped = 0
    for i, joints in enumerate(postures):
        feat = ex.features(joints)
        frozen = ex.act(feat)
        expected, _ = numpy_act(ref, arm, feat, None, None)
        assert np.array(frozen).tobytes() == expected.tobytes()
        expected, noise = numpy_act(ref, arm, feat, noise, rng.normal(0.0, ref.sigma, size=ref.n))
        action = ex.act(feat, noise.tolist())
        assert np.array(action).tobytes() == expected.tobytes()
        clamped += np.any((expected == arm.joint_min) | (expected == arm.joint_max))
        if i % 3 == 0:
            ex._actor_step(feat, action)
            numpy_actor_step(ref, arm, feat, action)
            assert ex.w_actor.tobytes() == ref.w_actor.tobytes()
            assert ex.b_actor.tobytes() == ref.b_actor.tobytes()
    assert clamped > 0


@pytest.mark.parametrize("arm", (ARM, NARROW), ids=["full", "narrow"])
@pytest.mark.parametrize("seeded", (False, True), ids=["zero", "seeded"])
def test_actor_critic_frozen_act_is_the_clamped_mean(arm, seeded):
    # A frozen act runs the exploring loop with 0.0 noise. It must give the
    # per-joint clamp of mid + half * tanh(w . f + b) to the bit, with or
    # without features for a zero actor, and leave the expert alone.
    ex = ActorCriticExpert(arm, AC, np.random.default_rng(61))
    if seeded:
        ex.w_actor = np.random.default_rng(62).normal(0.0, 0.5, ex.w_actor.shape)
        ex.b_actor = np.random.default_rng(63).normal(0.0, 0.5, ex.n)
    before = expert_state(ex)
    for joints in np.random.default_rng(65).uniform(-math.pi, math.pi, (500, 4)):
        feat = ex.features(joints)
        t = np.tanh(ex.w_actor @ feat + ex.b_actor).tolist()
        expected = []
        for tj, lo, hi in zip(t, map(float, arm.joint_min), map(float, arm.joint_max)):
            expected.append(min(max(0.5 * (lo + hi) + 0.5 * (hi - lo) * tj, lo), hi))
        assert np.array(ex.act(feat)).tobytes() == np.array(expected).tobytes()
        if not seeded:
            assert np.array(ex.act(None)).tobytes() == np.array(expected).tobytes()
    assert expert_state(ex) == before


def near_home_simulation(seed):
    """An actor-critic simulation of one sphere near the home posture, which
    exploring rollouts of 40 steps touch or miss, and experts whose success
    EMA puts sigma between sigma_min and sigma_start."""
    spec = scenario_from_dict({
        "name": "near_home", "goals": ["a"], "positions": {"a": [0.97, 0.1]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1, seed=seed)
    sim = Simulation(cfg)
    for expert in sim.experts[0]:
        expert.success_ema = 0.3
    return sim


def test_rollouts_leave_every_attribute_of_the_expert_unchanged():
    # Only __init__ and learn write to an expert: a training rollout keeps
    # its exploration noise itself, and a probe acts on the mean.
    sim = near_home_simulation(3)
    endings = set()
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for trained in (False, True):
            if trained:
                expert.w_actor = np.random.default_rng(arm_index).normal(0.0, 0.5, expert.w_actor.shape)
            before = expert_state(expert)
            for _ in range(3):
                endings.add(sim.backend.rollout(0, arm_index, expert, sim.state, explore=True)[1])
                assert expert_state(expert) == before
                sim.backend.rollout(0, arm_index, expert, sim.state)
                assert expert_state(expert) == before
    assert endings == {True, False}


def test_training_rollout_draws_the_noise_of_a_twin_generator():
    # A training rollout draws normal(0.0, sigma, n) once before its first
    # step and once before each act, and nothing else, and acts on the mean
    # plus the AR(1) filter of those draws: a twin generator making 1 + steps
    # such draws ends in the same state and gives every action to the bit.
    sim = near_home_simulation(5)
    endings = set()
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for trained in (False, True):
            if trained:
                expert.w_actor = np.random.default_rng(arm_index).normal(0.0, 0.5, expert.w_actor.shape)
            for _ in range(3):
                twin = copy.deepcopy(sim.rng)
                _, achieved, steps, traj = sim.backend.rollout(0, arm_index, expert, sim.state, explore=True)
                noise = exploration(expert, twin)
                for feat, action in traj:
                    assert np.array(action).tobytes() == np.array(expert.act(feat, next(noise))).tobytes()
                assert len(traj) == steps
                assert twin.bit_generator.state == sim.rng.bit_generator.state
                endings.add(achieved)
    assert endings == {True, False}


def test_actor_critic_gate_false_is_bitwise_noop():
    ex = make_expert(4)
    rng = np.random.default_rng(9)
    traj = _tiny_trajectory(ex, rng)
    before = expert_state(ex)
    ex.learn(traj, True, gate=False)
    assert expert_state(ex) == before


def test_actor_critic_learn_updates_and_stays_finite():
    ex = make_expert(5)
    rng = np.random.default_rng(10)
    before = expert_state(ex)
    for _ in range(30):
        ex.learn(_tiny_trajectory(ex, rng), True, gate=True)
    assert expert_state(ex) != before
    for p in vars(ex).values():
        if isinstance(p, np.ndarray):
            assert np.all(np.isfinite(p))


def test_actor_critic_identical_seeds_identical_parameters():
    def train(seed):
        ex = make_expert(seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            ex.learn(_tiny_trajectory(ex, rng), True, gate=True)
        return expert_state(ex)

    assert train(7) == train(7)


def test_actor_critic_td_error_shrinks_on_fixed_reaching_task():
    # One always-achievable sphere; TD error magnitude should fall well below
    # its peak once the critic has fit the trial's return structure.
    sphere = np.array([0.0, 0.6])
    ex = make_expert(12)
    rng = np.random.default_rng(12)
    ema_trace = []
    for _ in range(250):
        joints = home_joints(ARM)
        noise = exploration(ex, rng)
        traj = []
        for step in range(200):
            feat = ex.features(joints)
            action = ex.act(feat, next(noise))
            joints = step_toward(joints, action, ARM)
            touched = check_touch(forward_kinematics(joints, ARM), sphere, ARM)
            traj.append((feat, action))
            if touched:
                break
        ex.learn(traj, touched, gate=True)
        ema_trace.append(ex.td_error_ema)
    peak = max(ema_trace)
    assert peak > 0.0
    assert ema_trace[-1] < 0.6 * peak
