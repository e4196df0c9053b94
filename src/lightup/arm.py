"""Planar 4-DOF kinematic arm with position control and touch sensing.

Pure functions on sequences of Python floats; postures come back as
tuples. On four joints numpy's per-call overhead costs more than the
arithmetic, so the per-step functions (``home_joints``, ``step_toward``,
``forward_kinematics``, ``check_touch``) and the IK search behind
``unreachable_goals`` run on floats. Each makes the float64 operations of
the array formula it replaced (``np.cumsum`` of headings and link vectors,
``np.clip``, ``np.hypot``) in the same order, so the results are the same
bits.
There is one chain. The two arms mirror each other, but both run this
chain; the left arm gets its mirror image from the simulation, which checks
its effector against the spheres reflected across the vertical axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .inputs import cast_fields


@dataclass(frozen=True)
class ArmConfig:
    link_lengths: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    joint_min: tuple[float, ...] = (-math.pi,) * 4
    joint_max: tuple[float, ...] = (math.pi,) * 4
    max_step: float = 0.05
    touch_radius: float = 0.05

    @property
    def n_joints(self) -> int:
        return len(self.link_lengths)

    @property
    def max_reach(self) -> float:
        return float(sum(self.link_lengths))

    def __post_init__(self) -> None:
        """Cast the fields, then raise ConfigError, naming the key, on a value the arm cannot run with."""
        cast_fields(self, "arm.")
        def check(key: str, ok: bool, need: str) -> None:
            if not ok:
                raise ConfigError(f"arm: {key} must be {need}, got {getattr(self, key)!r}")
        links = self.link_lengths
        check("link_lengths", bool(links) and all(0 < l < math.inf for l in links), "positive and finite")
        for key in ("joint_min", "joint_max"):
            limits = getattr(self, key)
            check(key, len(limits) == self.n_joints and all(map(math.isfinite, limits)),
                  "one finite number per link")
        # Each joint needs a range to move in: the actor update divides by
        # its half-width, and the features by its larger absolute limit.
        check("joint_min", all(lo < hi for lo, hi in zip(self.joint_min, self.joint_max)), "below joint_max")
        for key in ("max_step", "touch_radius"):
            check(key, 0 < getattr(self, key) < math.inf, "positive and finite")


def home_joints(cfg: ArmConfig) -> tuple[float, ...]:
    """Default start posture: all joints at zero (chain fully extended), within the limits."""
    return tuple(float(min(max(0.0, lo), hi)) for lo, hi in zip(cfg.joint_min, cfg.joint_max))


def forward_kinematics(angles, cfg: ArmConfig) -> tuple[float, float]:
    """Tip of the chain's first ``len(angles)`` links (deterministic).

    A whole posture gives the end effector. The headings and both
    coordinates are running sums from the base outward, as ``np.cumsum``
    adds them.
    """
    lengths = cfg.link_lengths
    heading = angles[0]
    x = lengths[0] * math.cos(heading)
    y = lengths[0] * math.sin(heading)
    for i in range(1, len(angles)):
        heading += angles[i]
        x += lengths[i] * math.cos(heading)
        y += lengths[i] * math.sin(heading)
    return x, y


def step_toward(current, desired, cfg: ArmConfig) -> tuple[float, ...]:
    """One position-control step: move each joint toward its target.

    Per-joint change is clamped to ``max_step`` and the result to the joint
    limits, so repeated calls converge to the (clamped) target and never
    overshoot it. Each clamp is ``max`` with the lower bound, then ``min``
    with the upper one, written as comparisons (cheaper than the builtin
    calls, and the same result, NaN included).
    """
    step = cfg.max_step
    low_step = -step
    stepped = []
    for c, d, lo, hi in zip(current, desired, cfg.joint_min, cfg.joint_max):
        delta = d - c
        if low_step > delta:
            delta = low_step
        if step < delta:
            delta = step
        joint = c + delta
        if lo > joint:
            joint = lo
        if hi < joint:
            joint = hi
        stepped.append(joint)
    return tuple(stepped)


def check_touch(effector, sphere_pos, cfg: ArmConfig) -> bool:
    """True iff the effector is within touch_radius of the sphere (boundary inclusive).

    A point farther than the radius along either axis is rejected without
    the distance: ``hypot(dx, dy) >= max(|dx|, |dy|)`` holds for the rounded
    result too, so the answer is the same.
    """
    radius = cfg.touch_radius
    dx = effector[0] - sphere_pos[0]
    dy = effector[1] - sphere_pos[1]
    if abs(dx) > radius or abs(dy) > radius:
        return False
    return float(np.hypot(dx, dy)) <= radius


def reach_target(target, cfg: ArmConfig, rng: np.random.Generator) -> tuple[float, ...] | None:
    """Sampled inverse-kinematics search (cyclic coordinate descent).

    Runs up to 80 CCD sweeps from the home posture, then from each of seven
    random postures, all drawn before the search starts; returns a joint
    configuration whose effector lies within touch_radius of the target, or
    None if no start gets there. Each turn of joint j aims the effector at
    the target around the tip of the first j links (the base when j is 0);
    both points come from ``forward_kinematics``. Used only to check
    workspace coverage, never as a control shortcut.
    """
    tx, ty = float(target[0]), float(target[1])
    lower, upper = cfg.joint_min, cfg.joint_max
    starts = [home_joints(cfg)] + [rng.uniform(lower, upper).tolist() for _ in range(7)]
    for start in starts:
        joints = list(start)
        ex, ey = forward_kinematics(joints, cfg)
        for _ in range(80):
            if check_touch((ex, ey), (tx, ty), cfg):
                return tuple(joints)
            for j in range(cfg.n_joints - 1, -1, -1):
                px, py = forward_kinematics(joints[:j], cfg) if j else (0.0, 0.0)
                ax, ay = ex - px, ey - py
                bx, by = tx - px, ty - py
                # Joint j cannot turn the effector when it or the target sits on the pivot.
                if np.hypot(ax, ay) < 1e-12 or np.hypot(bx, by) < 1e-12:
                    continue
                rot = math.atan2(by, bx) - math.atan2(ay, ax)
                rot = (rot + math.pi) % (2.0 * math.pi) - math.pi
                joints[j] = min(max(joints[j] + rot, lower[j]), upper[j])
                ex, ey = forward_kinematics(joints, cfg)
        if check_touch((ex, ey), (tx, ty), cfg):
            return tuple(joints)
    return None


def unreachable_goals(spec, cfg: ArmConfig) -> list[str]:
    """Labels of scenario goals that neither arm touches in a sampled IK search.

    Run by ``run_experiment`` before any replication starts and by
    ``lightup validate``. The right arm runs the chain as it is and the
    left arm its mirror image, so a goal at ``(x, y)`` is reachable if the
    chain reaches it or its reflection ``(-x, y)``; the reflection is
    searched only when the goal itself is not found. The search draws from
    ``np.random.default_rng(0)``, so a scenario gets the same answer every run.
    Positions beyond the outer radius [sum(l)] are rejected without search.
    """
    rng = np.random.default_rng(0)
    bad = []
    for goal in spec.goals:
        x, y = goal.position
        if (math.hypot(x, y) > cfg.max_reach + cfg.touch_radius
                or (reach_target((x, y), cfg, rng) is None and reach_target((-x, y), cfg, rng) is None)):
            bad.append(goal.label)
    return bad
