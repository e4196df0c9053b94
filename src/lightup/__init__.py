"""Autonomous open-ended learning of interrelated sphere-activation tasks.

A planar-arm world where touching a sphere activates it if its precondition
rules hold, plus three goal-selection systems driven by competence-based
intrinsic rewards: a stateless bandit (``grail``), a per-context bandit
(``c_grail``), and tabular Q-learning over sphere statuses (``m_grail``)
that propagates the value of hard goals back to their preconditions.
"""

from .arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward
from .errors import ConfigError, NumericsError
from .experiment import (
    ExperimentConfig,
    Simulation,
    load_config,
    run_experiment,
)
from .motivation import AchievementPredictor
from .selection import SelectionStrategy, softmax_probabilities
from .skills import ActorCriticConfig, ActorCriticExpert, ExpertSelector, IdealizedExpert
from .world import (
    Goal,
    ScenarioSpec,
    WorldState,
    builtin_scenario,
    load_scenario,
    state_key,
)

__version__ = "0.1.0"

__all__ = [
    "ArmConfig",
    "AchievementPredictor",
    "ActorCriticConfig",
    "ActorCriticExpert",
    "ConfigError",
    "ExperimentConfig",
    "ExpertSelector",
    "Goal",
    "IdealizedExpert",
    "NumericsError",
    "ScenarioSpec",
    "SelectionStrategy",
    "Simulation",
    "WorldState",
    "builtin_scenario",
    "check_touch",
    "forward_kinematics",
    "home_joints",
    "load_config",
    "load_scenario",
    "run_experiment",
    "softmax_probabilities",
    "state_key",
    "step_toward",
    "__version__",
]
