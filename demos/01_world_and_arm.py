"""Tour of the sphere world and the planar arm.

Walks through the three builtin scenarios, shows how dependency rules decide
what a touch does, and exercises the arm's kinematics and touch sensor.
"""

import numpy as np

from lightup import ArmConfig, builtin_scenario, check_touch, forward_kinematics
from lightup.arm import reach_target

rng = np.random.default_rng(0)

print("=== builtin scenarios ===")
for sid in (1, 2, 3):
    spec = builtin_scenario(sid)
    print(f"\nscenario {sid} ({spec.name}): {spec.total_trials} trials, "
          f"{spec.trials_per_epoch} per epoch, reset {spec.reset_policy}")
    print(spec.describe_dependencies())

print("\n=== touching spheres in the chain scenario ===")
spec = builtin_scenario(3)
state = spec.reset(rng)
print("fresh state:", state.key_string(),
      "achievable:", [lab for i, lab in enumerate(spec.labels) if spec.is_achievable(i, state)])

# e needs c which needs d; touching e now does nothing (the world takes goal
# indices; labels are for files and printouts)
state, lit = spec.apply_touch(spec.labels.index("e"), state)
print("touch e ->", "lit" if lit else "nothing happens")

for lab in ("d", "c", "e"):
    state, lit = spec.apply_touch(spec.labels.index(lab), state)
    print(f"touch {lab} -> {'lit' if lit else 'no effect'}; state {state.key_string()}")

# the other chain is now blocked: d shut the door on b
print("b achievable after starting the d-chain?", spec.is_achievable(spec.labels.index("b"), state))

print("\n=== the arm ===")
arm = ArmConfig()
print("fully extended reach:", forward_kinematics(np.zeros(4), arm))
for goal in spec.goals:
    joints = reach_target(goal.position, arm, rng)
    eff = forward_kinematics(joints, arm)
    print(f"sphere {goal.label} at ({goal.position[0]:+.2f}, {goal.position[1]:+.2f}): "
          f"IK search touches at ({eff[0]:+.2f}, {eff[1]:+.2f}) -> "
          f"{check_touch(eff, goal.position, arm)}")
