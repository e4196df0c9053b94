"""Kinematics, position control, touch sensing, reachability."""

import math

import numpy as np
import pytest

from lightup import arm as arm_module
from lightup.arm import (
    ArmConfig,
    check_touch,
    forward_kinematics,
    home_joints,
    reach_target,
    step_toward,
    unreachable_goals,
)
from lightup.errors import ConfigError
from lightup.experiment import ARMS, ExperimentConfig, Simulation
from lightup.world import builtin_scenario, scenario_from_dict


CFG = ArmConfig()


def oracle_fk(angles, cfg):
    # Per-link cumulative-angle chain, written independently of the vectorized path.
    x = y = 0.0
    heading = 0.0
    for angle, length in zip(angles, cfg.link_lengths):
        heading += angle
        x += length * math.cos(heading)
        y += length * math.sin(heading)
    return np.array([x, y])


def test_fk_fully_extended():
    eff = forward_kinematics(np.zeros(4), CFG)
    assert np.allclose(eff, [sum(CFG.link_lengths), 0.0])


def test_fk_rigid_rotation():
    eff = forward_kinematics(np.array([math.pi / 2, 0, 0, 0]), CFG)
    assert np.allclose(eff, [0.0, sum(CFG.link_lengths)], atol=1e-12)


def test_fk_matches_per_link_oracle_on_random_joints():
    rng = np.random.default_rng(3)
    for _ in range(200):
        joints = rng.uniform(-math.pi, math.pi, 4)
        assert np.allclose(forward_kinematics(joints, CFG), oracle_fk(joints, CFG), atol=1e-12)


# The default arm, and one whose joint limits bind inside the sampled range.
EXACT_CFGS = (CFG, ArmConfig(joint_min=(-1.0, -0.5, 0.0, -2.0), joint_max=(1.0, 0.5, 2.0, 0.0)))


# The arm's functions as numpy array formulas, the way they were written
# before they moved to Python floats; the float versions must give the same bits.
def numpy_joint_points(angles, lengths):
    """Base and joint-tip positions, shape (n_joints + 1, 2)."""
    cum = np.asarray(angles, dtype=float).cumsum()
    lengths = np.asarray(lengths, dtype=float)
    pts = np.zeros((len(lengths) + 1, 2))
    pts[1:, 0] = (lengths * np.cos(cum)).cumsum()
    pts[1:, 1] = (lengths * np.sin(cum)).cumsum()
    return pts


def numpy_step_toward(current, desired, cfg):
    current = np.asarray(current, dtype=float)
    delta = np.asarray(desired, dtype=float) - current
    delta = np.minimum(np.maximum(delta, -cfg.max_step), cfg.max_step)
    return np.minimum(np.maximum(current + delta, cfg.joint_min), cfg.joint_max)


def same_bits(floats, array):
    return np.array(floats, dtype=float).tobytes() == np.asarray(array, dtype=float).tobytes()


@pytest.mark.parametrize("cfg", EXACT_CFGS, ids=["right", "narrow"])
def test_fk_is_bitwise_last_joint_point(cfg):
    rng = np.random.default_rng(5)
    postures = [rng.uniform(-2 * math.pi, 2 * math.pi, 4) for _ in range(2000)]
    postures += [np.zeros(4), -np.zeros(4), np.array(cfg.joint_min), np.array(cfg.joint_max)]
    for joints in postures:
        effector = forward_kinematics(tuple(joints.tolist()), cfg)
        assert type(effector) is tuple and all(type(v) is float for v in effector)
        assert same_bits(effector, numpy_joint_points(joints, cfg.link_lengths)[-1])


def test_fk_of_each_link_prefix_is_bitwise_the_cumsum_formula():
    # The IK search pivots joint j on the tip of the first j links; every
    # prefix must give that joint point's bits, on random link counts,
    # postures and lengths.
    rng = np.random.default_rng(8)
    for i in range(2000):
        n = 4 if i % 5 else int(rng.integers(1, 7))
        lengths = tuple(rng.uniform(0.01, 1.0, n).tolist())
        joints = rng.uniform(-2 * math.pi, 2 * math.pi, n).tolist()
        if i % 10 == 0:
            joints[0] = -0.0  # the first tip's y is then -0.0, not 0.0
        cfg = ArmConfig(link_lengths=lengths, joint_min=(-7.0,) * n, joint_max=(7.0,) * n)
        points = numpy_joint_points(joints, lengths)
        for k in range(1, n + 1):
            assert same_bits(forward_kinematics(joints[:k], cfg), points[k]), (i, k)


@pytest.mark.parametrize("cfg", EXACT_CFGS, ids=["right", "narrow"])
def test_step_toward_is_bitwise_the_clip_formula(cfg):
    rng = np.random.default_rng(6)
    for i in range(2000):
        joints = rng.uniform(-math.pi, math.pi, 4)
        # Small moves, moves past max_step, targets beyond the limits, a
        # target equal to the posture, and posture and target drawn apart
        # near zero, where c + (d - c) often rounds away from d.
        desired = joints + rng.normal(0.0, (0.02, 0.1, 5.0)[i % 3], 4) if i % 50 else joints.copy()
        if i % 4 == 3:
            joints, desired = rng.uniform(-0.03, 0.03, 4), rng.uniform(-0.03, 0.03, 4)
        delta = np.clip(desired - joints, -cfg.max_step, cfg.max_step)
        expected = np.clip(joints + delta, cfg.joint_min, cfg.joint_max)
        stepped = step_toward(tuple(joints.tolist()), tuple(desired.tolist()), cfg)
        assert type(stepped) is tuple and all(type(v) is float for v in stepped)
        assert same_bits(stepped, expected)
        assert same_bits(stepped, numpy_step_toward(joints, desired, cfg))


def test_check_touch_at_the_axis_bounds_and_the_radius():
    # The early rejection (|dx| or |dy| beyond the radius) must agree with
    # the distance test at the edge: each case and one ulp either side of
    # each coordinate, in all four quadrants.
    r = CFG.touch_radius
    on_radius = []
    rng = np.random.default_rng(13)
    while len(on_radius) < 20:
        angle = rng.uniform(0.0, 2 * math.pi)
        dx, dy = r * math.cos(angle), r * math.sin(angle)
        if float(np.hypot(dx, dy)) == r:
            on_radius.append((dx, dy))
    cases = [(r, 0.0), (0.0, r), (r, 1e-9), (1e-9, r), (r, r), *on_radius]
    outcomes = set()
    for dx, dy in cases:
        for ddx in (np.nextafter(dx, -1.0), dx, np.nextafter(dx, 1.0)):
            for ddy in (np.nextafter(dy, -1.0), dy, np.nextafter(dy, 1.0)):
                for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    point = (sx * float(ddx), sy * float(ddy))
                    touched = check_touch(point, (0.0, 0.0), CFG)
                    assert touched == bool(np.hypot(point[0], point[1]) <= r), point
                    outcomes.add(touched)
    assert outcomes == {True, False}
    assert check_touch((r, 0.0), (0.0, 0.0), CFG) and check_touch((0.0, -r), (0.0, 0.0), CFG)
    assert not check_touch((float(np.nextafter(r, 1.0)), 0.0), (0.0, 0.0), CFG)


def test_check_touch_matches_array_distance_near_the_boundary():
    rng = np.random.default_rng(7)
    sphere = np.array([0.3, 0.4])
    outcomes = set()
    for _ in range(500):
        angle = rng.uniform(0.0, 2 * math.pi)
        radius = CFG.touch_radius * (1.0 + rng.uniform(-1e-12, 1e-12))
        effector = sphere + radius * np.array([math.cos(angle), math.sin(angle)])
        d = effector - sphere
        touched = check_touch(effector, sphere, CFG)
        assert touched == (float(np.hypot(d[0], d[1])) <= CFG.touch_radius)
        outcomes.add(touched)
    assert outcomes == {True, False}
    assert check_touch((CFG.touch_radius, 0.0), (0.0, 0.0), CFG)  # exactly r: inclusive


def test_step_toward_no_move_when_at_target():
    joints = np.array([0.1, -0.2, 0.3, 0.0])
    assert np.array_equal(step_toward(joints, joints, CFG), joints)


def test_step_toward_clamps_to_max_step():
    joints = np.zeros(4)
    desired = np.array([1.0, -1.0, 0.01, 0.0])
    out = step_toward(joints, desired, CFG)
    assert np.allclose(out, [CFG.max_step, -CFG.max_step, 0.01, 0.0])


def test_step_toward_converges_to_joint_limit_for_out_of_range_target():
    joints = np.zeros(4)
    desired = np.full(4, 10.0)  # beyond joint_max
    for _ in range(200):
        joints = step_toward(joints, desired, CFG)
    assert np.allclose(joints, CFG.joint_max)


def test_step_toward_contracts_distance():
    rng = np.random.default_rng(9)
    for _ in range(200):
        joints = rng.uniform(-math.pi, math.pi, 4)
        desired = rng.uniform(-math.pi, math.pi, 4)
        stepped = step_toward(joints, desired, CFG)
        assert np.linalg.norm(desired - stepped) <= np.linalg.norm(desired - joints) + 1e-12


def test_check_touch_boundaries():
    p = np.array([0.3, 0.4])
    assert check_touch(p, p, CFG)
    assert check_touch(p + [CFG.touch_radius, 0.0], p, CFG)      # exactly r: inclusive
    assert not check_touch(p + [2 * CFG.touch_radius, 0.0], p, CFG)


def test_builtin_scenario_spheres_reachable():
    for sid in (1, 2, 3):
        assert unreachable_goals(builtin_scenario(sid), CFG) == []


def test_reach_target_solution_actually_touches():
    rng = np.random.default_rng(1)
    for goal in builtin_scenario(1).goals:
        joints = reach_target(goal.position, CFG, rng)
        assert joints is not None
        assert check_touch(forward_kinematics(joints, CFG), goal.position, CFG)


def test_far_point_unreachable():
    rng = np.random.default_rng(2)
    assert reach_target((2.0, 2.0), CFG, rng) is None


# Postures the numpy search returned at default_rng(0), before the search
# moved to Python floats: the six scenario-1 spheres and their reflections,
# the A6 sphere, a target found only from a random restart, and a target
# the restricted arm misses from every start. Then postures the float search
# returned before it ran on forward_kinematics: two targets found only from
# a random restart (restart 3 after 32 sweeps, restart 2 after 8), and
# targets found from home after 12 and 9 sweeps on the narrow arm and after
# 56 on the restricted one.
RESTRICTED = ArmConfig(joint_min=(-0.5,) * 4, joint_max=(0.5,) * 4)
NARROW = EXACT_CFGS[1]
GOLDEN_POSTURES = [
    (CFG, (0.5196152422706632, 0.29999999999999993),
     (0.027657829621113184, 0.12076795601985957, 0.2839395684446848, 2.029052457847587)),
    (CFG, (0.3526711513754839, 0.4854101966249684),
     (0.17761630442070775, 0.4546711038817701, 0.3508630073191572, 1.8243885908187245)),
    (CFG, (0.12474701449065553, 0.5868885604402834),
     (0.7521588050371504, 1.248453286005995, 0.5305029451359156, -2.4074881309688365)),
    (CFG, (-0.12474701449065546, 0.5868885604402834),
     (1.07809696121183, 1.4407004474111833, 0.3759110379467385, -2.2956434556895475)),
    (CFG, (-0.3526711513754838, 0.4854101966249684),
     (1.0852794793441856, 2.162811573453174, -0.20215865079946926, -1.6487369825862226)),
    (CFG, (-0.5196152422706632, 0.29999999999999993),
     (1.0542749005636733, 2.45312235512178, -0.08792469239418788, -1.3194362619618887)),
    (CFG, (-0.5196152422706632, 0.29999999999999993),
     (1.0542749005636733, 2.45312235512178, -0.08792469239418788, -1.3194362619618887)),
    (CFG, (-0.3526711513754839, 0.4854101966249684),
     (1.0852794793441856, 2.162811573453174, -0.20215865079946926, -1.6487369825862226)),
    (CFG, (-0.12474701449065553, 0.5868885604402834),
     (1.0780969612118296, 1.4407004474111837, 0.3759110379467385, -2.2956434556895475)),
    (CFG, (0.12474701449065546, 0.5868885604402834),
     (0.7521588050371508, 1.2484532860059947, 0.5305029451359156, -2.407488130968836)),
    (CFG, (0.3526711513754838, 0.4854101966249684),
     (0.1776163044207082, 0.454671103881771, 0.35086300731915454, 1.8243885908187272)),
    (CFG, (0.5196152422706632, 0.29999999999999993),
     (0.027657829621113184, 0.12076795601985957, 0.2839395684446848, 2.029052457847587)),
    (CFG, (0.0, 0.6),
     (0.9101671380063396, 1.3568217994264957, 0.442254290217597, -2.348602792393521)),
    (CFG, (0.02, 0.9),
     (1.076330581080509, 1.029575020106308, -0.04337523247171027, -1.1151795509711238)),
    (RESTRICTED, (-0.9, 0.1), None),
    (CFG, (-0.85, 0.47),
     (2.1861621083119323, 1.0989149874678383, -0.7983461917305386, 0.13017280434791045)),
    (CFG, (-0.23, -0.56),
     (2.279216057717224, 2.5494967247247744, 0.08276004906601742, -0.7390684721654615)),
    (NARROW, (0.59, -0.15),
     (0.27589133044879866, -0.2816283738498462, 0.0, -2.0)),
    (NARROW, (0.12, 0.88),
     (0.8234020361006711, 0.5, 1.0599251047746252, -1.0746512304036275)),
    (RESTRICTED, (0.85, -0.06),
     (0.4099676424479419, -0.1489820256161063, -0.5, -0.5)),
]


def test_reach_target_returns_the_recorded_postures():
    spheres = [tuple(g.position) for g in builtin_scenario(1).goals]
    assert [target for _, target, _ in GOLDEN_POSTURES[:12]] == spheres + [(-x, y) for x, y in spheres]
    for cfg, target, posture in GOLDEN_POSTURES:
        rng = np.random.default_rng(0)
        found = reach_target(target, cfg, rng)
        if posture is None:
            assert found is None, target
        else:
            assert type(found) is tuple and all(type(v) is float for v in found), target
            assert same_bits(found, posture), (target, found)
        # Every restart is drawn up front, found or not.
        drawn = np.random.default_rng(0)
        drawn.uniform(cfg.joint_min, cfg.joint_max, (7, 4))
        assert rng.bit_generator.state == drawn.bit_generator.state


def test_goal_only_the_left_arm_reaches_is_reachable(monkeypatch):
    # Joints within [-0.5, 0.5] keep the chain near the +x axis: the right
    # arm reaches "b" at (0.9, 0.1) but not "a" at (-0.9, 0.1), which the
    # left arm, its mirror image, does reach; "c" at (0.3, 0.0) needs a fold
    # neither arm can make, and "d" lies beyond both arms' outer radius.
    arm = ArmConfig(joint_min=(-0.5,) * 4, joint_max=(0.5,) * 4)
    rng = np.random.default_rng(0)
    assert reach_target((-0.9, 0.1), arm, rng) is None
    spec = scenario_from_dict({
        "goals": ["a", "b", "c", "d"],
        "positions": {"a": [-0.9, 0.1], "b": [0.9, 0.1], "c": [0.3, 0.0], "d": [-1.2, 0.0]},
    })
    assert unreachable_goals(spec, arm) == ["c", "d"]
    # The reflection is searched only after the goal itself is not found.
    searched = []

    def recording_search(target, cfg, rng):
        searched.append(target)
        return reach_target(target, cfg, rng)

    monkeypatch.setattr(arm_module, "reach_target", recording_search)
    right_only = scenario_from_dict({"goals": ["b"], "positions": {"b": [0.9, 0.1]}})
    assert unreachable_goals(right_only, arm) == []
    assert searched == [(0.9, 0.1)]


def test_left_arm_checks_reflected_spheres_as_a_mirrored_effector_did():
    # Both arms run one chain; the left arm's mirror image lives in its
    # sphere tuple, the exact reflection of the right arm's. Checked against
    # the reflected sphere, an effector must touch exactly when its own
    # reflection touches the sphere itself, on and just off the radius.
    spec = scenario_from_dict({
        "name": "off_axis", "goals": ["a", "b", "c", "d"],
        "positions": {"a": [0.4, 0.4], "b": [-0.55, 0.3], "c": [0.0, 0.6], "d": [-0.1, -0.7]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    sim = Simulation(ExperimentConfig(scenario=spec, backend="actor_critic", replications=1), seed=0)
    left, right = (sim.backend.sphere_positions[ARMS.index(side)] for side in ("left", "right"))
    assert right == tuple(tuple(g.position) for g in spec.goals)
    assert same_bits(left, [(-x, y) for x, y in right])

    rng = np.random.default_rng(11)
    r = CFG.touch_radius
    outcomes = set()
    for i in range(4000):
        ex, ey = forward_kinematics(tuple(rng.uniform(-math.pi, math.pi, 4).tolist()), CFG)
        # Spheres around the reflected effector: on the radius give or take
        # about an ulp, exactly one radius off along an axis, or anywhere.
        angle = rng.uniform(0.0, 2 * math.pi)
        if i % 3 == 0:
            d = r * (1.0 + rng.uniform(-1e-12, 1e-12))
            sx, sy = -ex + d * math.cos(angle), ey + d * math.sin(angle)
        elif i % 3 == 1:
            sx, sy = (-ex + r, ey) if i % 2 else (-ex, ey - r)
        else:
            d = rng.uniform(0.0, 1.5)
            sx, sy = -ex + d * math.cos(angle), ey + d * math.sin(angle)
        touched = check_touch((ex, ey), (-sx, sy), CFG)
        assert touched == check_touch((-ex, ey), (sx, sy), CFG), (ex, ey, sx, sy)
        outcomes.add(touched)
    assert outcomes == {True, False}


def test_home_joints_within_limits():
    cfg = ArmConfig(joint_min=(0.1, -1, -1, -1), joint_max=(1, 1, 1, 1))
    h = home_joints(cfg)
    assert h[0] == pytest.approx(0.1)
    for cfg in EXACT_CFGS + (cfg,):
        home = home_joints(cfg)
        assert type(home) is tuple and all(type(v) is float for v in home)
        assert same_bits(home, np.minimum(np.maximum(np.zeros(4), cfg.joint_min), cfg.joint_max))


def test_arm_config_validation():
    with pytest.raises(ConfigError, match="^arm: link_lengths must be positive and finite"):
        ArmConfig(link_lengths=(0.25, -0.1, 0.25, 0.25))
    with pytest.raises(ConfigError, match="^arm: max_step must be positive and finite"):
        ArmConfig(max_step=0.0)
    ArmConfig()
