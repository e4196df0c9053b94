"""Kinematics, position control, touch sensing, reachability."""

import math

import numpy as np
import pytest

from lightup.arm import (
    ArmConfig,
    check_touch,
    forward_kinematics,
    home_joints,
    joint_points,
    reach_target,
    step_toward,
    unreachable_goals,
)
from lightup.world import builtin_scenario


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


def test_mirrored_arm_reflects_x():
    left = CFG.mirror()
    rng = np.random.default_rng(4)
    for _ in range(50):
        joints = rng.uniform(-math.pi, math.pi, 4)
        r = forward_kinematics(joints, CFG)
        l = forward_kinematics(joints, left)
        assert np.allclose([[-1, 0], [0, 1]] @ np.array(r), l, atol=1e-12)


def test_joint_points_shape_and_base():
    pts = joint_points(np.zeros(4), CFG)
    assert pts.shape == (5, 2)
    assert np.allclose(pts[0], [0, 0])


# Both arms, and one whose joint limits bind inside the sampled range.
EXACT_CFGS = (CFG, CFG.mirror(), ArmConfig(joint_min=(-1.0, -0.5, 0.0, -2.0), joint_max=(1.0, 0.5, 2.0, 0.0)))


# The per-step functions as numpy array formulas, the way they were written
# before they moved to Python floats; the float versions must give the same bits.
def numpy_forward_kinematics(angles, cfg):
    cum = np.asarray(angles, dtype=float).cumsum()
    x = (cfg.lengths * np.cos(cum)).cumsum()[-1]
    y = (cfg.lengths * np.sin(cum)).cumsum()[-1]
    return np.array([-x if cfg.mirrored else x, y])


def numpy_step_toward(current, desired, cfg):
    current = np.asarray(current, dtype=float)
    delta = np.asarray(desired, dtype=float) - current
    delta = np.minimum(np.maximum(delta, -cfg.max_step), cfg.max_step)
    return np.minimum(np.maximum(current + delta, cfg.lower), cfg.upper)


def same_bits(floats, array):
    return np.array(floats, dtype=float).tobytes() == np.asarray(array, dtype=float).tobytes()


@pytest.mark.parametrize("cfg", EXACT_CFGS, ids=["right", "left", "narrow"])
def test_fk_is_bitwise_last_joint_point(cfg):
    rng = np.random.default_rng(5)
    postures = [rng.uniform(-2 * math.pi, 2 * math.pi, 4) for _ in range(2000)]
    postures += [np.zeros(4), -np.zeros(4), np.array(cfg.joint_min), np.array(cfg.joint_max)]
    for joints in postures:
        effector = forward_kinematics(tuple(joints.tolist()), cfg)
        assert type(effector) is tuple and all(type(v) is float for v in effector)
        assert same_bits(effector, joint_points(joints, cfg)[-1])
        assert same_bits(effector, numpy_forward_kinematics(joints, cfg))


@pytest.mark.parametrize("cfg", EXACT_CFGS, ids=["right", "left", "narrow"])
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
    rng = np.random.default_rng(0)
    for sid in (1, 2, 3):
        assert unreachable_goals(builtin_scenario(sid), CFG, rng) == []


def test_reach_target_solution_actually_touches():
    rng = np.random.default_rng(1)
    for goal in builtin_scenario(1).goals:
        joints = reach_target(goal.position, CFG, rng)
        assert joints is not None
        assert check_touch(forward_kinematics(joints, CFG), goal.position, CFG)


def test_far_point_unreachable():
    rng = np.random.default_rng(2)
    assert reach_target((2.0, 2.0), CFG, rng) is None


def test_mirrored_arm_reaches_mirrored_point():
    rng = np.random.default_rng(3)
    left = CFG.mirror()
    joints = reach_target((-0.4, 0.4), left, rng)
    assert joints is not None
    assert check_touch(forward_kinematics(joints, left), (-0.4, 0.4), left)


def test_home_joints_within_limits():
    cfg = ArmConfig(joint_min=(0.1, -1, -1, -1), joint_max=(1, 1, 1, 1))
    h = home_joints(cfg)
    assert h[0] == pytest.approx(0.1)
    for cfg in EXACT_CFGS + (cfg,):
        home = home_joints(cfg)
        assert type(home) is tuple and all(type(v) is float for v in home)
        assert same_bits(home, np.minimum(np.maximum(np.zeros(4), cfg.lower), cfg.upper))


def test_arm_config_validation():
    with pytest.raises(ValueError):
        ArmConfig(link_lengths=(0.25, -0.1, 0.25, 0.25)).validate()
    with pytest.raises(ValueError):
        ArmConfig(max_step=0.0).validate()
    ArmConfig().validate()
