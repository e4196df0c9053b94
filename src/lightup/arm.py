"""Planar 4-DOF kinematic arm with position control and touch sensing.

Pure functions. The per-step ones (``home_joints``, ``step_toward``,
``forward_kinematics``, ``check_touch``) take sequences of Python floats and
return tuples: on four joints, numpy's per-call overhead costs more than the
arithmetic. They make the same float64 operations in the same order as the
array formulas in ``joint_points``, so the results are the same bits. Two
arms are modelled as mirrored copies of the same chain (the left arm
reflects the end effector across the vertical axis); each keeps its own
joint state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ArmConfig:
    link_lengths: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    joint_min: tuple[float, ...] = (-math.pi,) * 4
    joint_max: tuple[float, ...] = (math.pi,) * 4
    max_step: float = 0.05
    touch_radius: float = 0.05
    mirrored: bool = False

    @property
    def n_joints(self) -> int:
        return len(self.link_lengths)

    @property
    def max_reach(self) -> float:
        return float(sum(self.link_lengths))

    # Read-only numpy copies of the tuples, built once per config for the
    # array functions below (``joint_points`` and the IK search); fields,
    # asdict and equality ignore them.
    @cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(self.link_lengths)

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(self.joint_min)

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(self.joint_max)

    def validate(self) -> None:
        if not all(l > 0 for l in self.link_lengths):
            raise ValueError(f"link lengths must be positive: {self.link_lengths}")
        if not (self.max_step > 0 and self.touch_radius > 0):
            raise ValueError("max_step and touch_radius must be positive")
        if len(self.joint_min) != self.n_joints or len(self.joint_max) != self.n_joints:
            raise ValueError("joint limit arity does not match link count")
        if not all(lo <= hi for lo, hi in zip(self.joint_min, self.joint_max)):
            raise ValueError("joint limits must satisfy min <= max")

    def mirror(self) -> "ArmConfig":
        """The opposite arm: same chain, reflected workspace."""
        return ArmConfig(
            link_lengths=self.link_lengths,
            joint_min=self.joint_min,
            joint_max=self.joint_max,
            max_step=self.max_step,
            touch_radius=self.touch_radius,
            mirrored=not self.mirrored,
        )


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def home_joints(cfg: ArmConfig) -> tuple[float, ...]:
    """Default start posture: all joints at zero (chain fully extended), within the limits."""
    return tuple(float(min(max(0.0, lo), hi)) for lo, hi in zip(cfg.joint_min, cfg.joint_max))


def joint_points(angles: np.ndarray, cfg: ArmConfig) -> np.ndarray:
    """Positions of the base and every joint tip, shape (n_joints+1, 2)."""
    angles = np.asarray(angles, dtype=float)
    cum = np.cumsum(angles)
    pts = np.zeros((cfg.n_joints + 1, 2))
    pts[1:, 0] = np.cumsum(cfg.lengths * np.cos(cum))
    pts[1:, 1] = np.cumsum(cfg.lengths * np.sin(cum))
    if cfg.mirrored:
        pts[:, 0] = -pts[:, 0]
    return pts


def forward_kinematics(angles, cfg: ArmConfig) -> tuple[float, float]:
    """End-effector position of the planar chain (deterministic).

    The last row of ``joint_points``: the headings and both coordinates are
    running sums from the base outward, as ``cumsum`` adds them.
    """
    lengths = cfg.link_lengths
    heading = angles[0]
    x = lengths[0] * math.cos(heading)
    y = lengths[0] * math.sin(heading)
    for i in range(1, len(lengths)):
        heading += angles[i]
        x += lengths[i] * math.cos(heading)
        y += lengths[i] * math.sin(heading)
    return (-x if cfg.mirrored else x), y


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


def reach_target(
    target,
    cfg: ArmConfig,
    rng: np.random.Generator,
    restarts: int = 8,
    iterations: int = 80,
) -> np.ndarray | None:
    """Sampled inverse-kinematics search (cyclic coordinate descent).

    Runs CCD from the home posture plus random restarts; returns a joint
    configuration whose effector lies within touch_radius of the target, or
    None if none of the restarts gets there. Used only to check workspace
    coverage, never as a control shortcut.
    """
    target = np.asarray(target, dtype=float)
    if cfg.mirrored:
        # Solve in the unmirrored frame, the joint solution is identical.
        target = np.array([-target[0], target[1]])
        cfg = cfg.mirror()
    lo, hi = cfg.lower, cfg.upper
    starts = [np.array(home_joints(cfg), dtype=float)] + [rng.uniform(lo, hi) for _ in range(restarts - 1)]
    for joints in starts:
        for _ in range(iterations):
            pts = joint_points(joints, cfg)
            eff = pts[-1]
            if float(np.hypot(*(eff - target))) <= cfg.touch_radius:
                return joints
            for j in range(cfg.n_joints - 1, -1, -1):
                pts = joint_points(joints, cfg)
                eff = pts[-1]
                pivot = pts[j]
                a = eff - pivot
                b = target - pivot
                if np.hypot(*a) < 1e-12 or np.hypot(*b) < 1e-12:
                    continue
                rot = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
                rot = (rot + math.pi) % (2.0 * math.pi) - math.pi
                joints[j] = float(np.clip(joints[j] + rot, lo[j], hi[j]))
        pts = joint_points(joints, cfg)
        if float(np.hypot(*(pts[-1] - target))) <= cfg.touch_radius:
            return joints
    return None


def unreachable_goals(spec, cfg: ArmConfig, rng: np.random.Generator | None = None) -> list[str]:
    """Labels of scenario goals no sampled IK solution can touch.

    Checked at scenario load/validation time. Positions outside the annulus
    [sum(l) as outer radius] are rejected without search.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    bad = []
    for goal in spec.goals:
        r = math.hypot(goal.position[0], goal.position[1])
        if r > cfg.max_reach + cfg.touch_radius:
            bad.append(goal.label)
            continue
        if reach_target(goal.position, cfg, rng) is None:
            bad.append(goal.label)
    return bad
