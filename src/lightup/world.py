"""Sphere-activation world: goals and their rules, context feature, resets.

A scenario places a handful of spheres in the arm workspace. Touching a
sphere activates it ("lights it up") only if its dependency rule is
satisfied by the current world state: every sphere in ``requires_on`` must
already be active, no sphere in ``blocked_by`` may be active, and an
optional binary context feature must hold the required value. Activated
spheres stay on until the next reset, which comes every ``trials_per_epoch``
trials.

World state is an immutable value: touching returns a new state, which keeps
trial bookkeeping and table keying trivially safe. The touch dynamics are the
scenario's transition function, and the ScenarioSpec owns them as one table:
``apply_touch`` fills it per (state, goal index) on first use and hands out the
same result from then on. A state's sphere bitmask, ``full_state`` key and
key text are derived once per object; equality and hashing are by field,
so a state built directly touches, keys and compares like one the spec handed
out. The world names goals by index; labels are for files and CSVs.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .inputs import cast, cast_fields, check_keys, read_yaml

Point = tuple[float, float]

RESET_POLICIES = ("per_trial", "per_epoch")
CONTEXT_MODES = ("none", "full_state")


@dataclass(frozen=True)
class Goal:
    """One sphere the agent can learn to activate, with its activation rule.

    A goal's index is its position in ``ScenarioSpec.goals``. The rule is
    evaluated on current state only: ``requires_on`` spheres (goal indices)
    must all be active, no ``blocked_by`` sphere may be active, and
    ``requires_context`` (if not None) must equal the context feature.
    Mutual exclusion between two chains is encoded as the chain starts
    blocking each other; the rest of the exclusion follows through
    ``requires_on`` transitivity. A goal casts its fields when it is built,
    as a scenario file's are cast, and raises ConfigError on a bad one.
    """

    label: str
    position: Point
    requires_on: frozenset[int] = frozenset()
    blocked_by: frozenset[int] = frozenset()
    requires_context: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ConfigError(f"goal label {self.label!r} is not text; put it in quotes (YAML reads "
                              "unquoted numbers and yes/no as numbers and booleans)")
        where = f"goal {self.label!r} "
        cast_fields(self, where, label=str, position=tuple, requires_context=float)
        if len(self.position) != 2 or not all(map(math.isfinite, self.position)):
            raise ConfigError(f"{where}position {self.position} must be two finite numbers")
        if self.requires_context not in (None, 0.0, 1.0):
            raise ConfigError(f"{where}requires_context {self.requires_context}; must be 0.0 or 1.0")


@dataclass(frozen=True)
class WorldState:
    """Sphere on/off statuses plus the binary context feature."""

    sphere_on: tuple[bool, ...]
    context_feature: float

    # Derived once per object, on first use; fields, equality, hashing and
    # replace() ignore them.
    @cached_property
    def mask(self) -> int:
        """The sphere statuses as bits: bit i is set iff sphere i is on."""
        return sum(1 << i for i, on in enumerate(self.sphere_on) if on)

    @cached_property
    def _full_key(self) -> tuple[int, ...]:
        return (*map(int, self.sphere_on), int(self.context_feature))

    @cached_property
    def _text(self) -> str:
        bits = "".join("1" if b else "0" for b in self.sphere_on)
        return f"{bits}/{int(self.context_feature)}"

    def with_sphere_on(self, index: int) -> "WorldState":
        on = list(self.sphere_on)
        on[index] = True
        return WorldState(tuple(on), self.context_feature)

    def key_string(self) -> str:
        """Compact text form, e.g. ``010010/1`` (bits in goal-index order)."""
        return self._text

    @classmethod
    def from_key_string(cls, text: str) -> "WorldState":
        """The state whose ``key_string`` is ``text``; ValueError if there is none."""
        bits, slash, context = text.partition("/")
        if not slash or not set(bits) <= {"0", "1"} or context not in ("0", "1"):
            raise ValueError(f"state key {text!r} is not sphere bits, '/' and a context bit, like 010010/1")
        return cls(tuple(bit == "1" for bit in bits), float(context))


def state_key(state: WorldState, mode: str) -> tuple:
    """Hashable table key for a state under the given context mode.

    ``none`` collapses every state to one key; ``full_state`` keys on sphere
    statuses plus context (at most 2^n_spheres * 2 distinct keys).
    """
    if mode == "none":
        return ()
    if mode == "full_state":
        return state._full_key
    raise ConfigError(f"unknown context mode {mode!r}; expected one of {CONTEXT_MODES}")


def default_positions(n: int) -> tuple[Point, ...]:
    """Evenly spaced points on an arc of radius 0.6 in front of the arm base.

    The radius sits inside the default arm's reachable annulus, and spacing
    keeps neighbouring spheres more than two touch radii apart.
    """
    angles = np.linspace(math.pi / 6.0, 5.0 * math.pi / 6.0, n)
    return tuple((0.6 * math.cos(a), 0.6 * math.sin(a)) for a in angles)


def _list(name: str, value) -> list:
    """A list-valued key; null reads as empty."""
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return list(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """Static description of one experimental scenario.

    The world resets before each epoch of ``trials_per_epoch`` trials, and
    ``reset_policy: per_trial`` needs epochs of one trial. The contextual
    systems key on the full state unless ``context_mode`` is ``none``. The
    scalars default to what a scenario file that leaves them out gets.
    ``goals`` may hold ``Goal``s or their mappings. A spec is checked when
    it is built (``replace`` builds a new one): a structural violation
    raises ConfigError there, so a spec that exists is valid.
    """

    goals: tuple[Goal, ...]
    name: str = "custom"
    context_prob_on: float = 0.0
    trials_per_epoch: int = 1
    total_trials: int = 3000
    reset_policy: str = "per_trial"
    context_mode: str = "full_state"

    def __post_init__(self) -> None:
        """Cast the goals and scalars, then raise ConfigError on any structural violation."""
        cast_fields(self, goals=None)
        goals = _list("goals", self.goals)
        object.__setattr__(self, "goals", tuple(cast(f"goals[{i}]", g, Goal) for i, g in enumerate(goals)))
        labels = self.labels
        if not labels:
            raise ConfigError("scenario needs at least one goal")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate goal labels in {labels}")
        for goal in self.goals:
            label = goal.label
            if goal.requires_on & goal.blocked_by:
                both = sorted(labels[j] for j in goal.requires_on & goal.blocked_by)
                raise ConfigError(f"goal {label!r} both requires and is blocked by {both}")
            for j in goal.requires_on | goal.blocked_by:
                if not 0 <= j < self.n_goals:
                    raise ConfigError(f"rule for {label!r} references goal index {j}")
        try:
            graphlib.TopologicalSorter({i: goal.requires_on for i, goal in enumerate(self.goals)}).prepare()
        except graphlib.CycleError as exc:
            # The error's path follows the edges from a required goal to the
            # goals that require it; reversed, each goal requires the next.
            pretty = " -> ".join(labels[i] for i in reversed(exc.args[1]))
            raise ConfigError(f"cyclic requires_on chain: {pretty}") from None
        if not 0.0 <= self.context_prob_on <= 1.0:
            raise ConfigError(f"context_prob_on {self.context_prob_on} outside [0, 1]")
        if self.reset_policy not in RESET_POLICIES:
            raise ConfigError(f"reset_policy {self.reset_policy!r}; expected one of {RESET_POLICIES}")
        if self.context_mode not in CONTEXT_MODES:
            raise ConfigError(f"context_mode {self.context_mode!r}; expected one of {CONTEXT_MODES}")
        if self.trials_per_epoch < 1 or self.total_trials < 1:
            raise ConfigError("trials_per_epoch and total_trials must be positive")
        if self.total_trials % self.trials_per_epoch != 0:
            raise ConfigError(
                f"total_trials {self.total_trials} not divisible by trials_per_epoch {self.trials_per_epoch}"
            )
        if self.reset_policy == "per_trial" and self.trials_per_epoch != 1:
            raise ConfigError(f"reset_policy per_trial needs trials_per_epoch 1, got {self.trials_per_epoch}; "
                              "for longer epochs set reset_policy: per_epoch")

    # -- lookups ---------------------------------------------------------

    # Computed once per spec, as the trial loop reads them every trial;
    # fields, equality and replace() ignore them.
    @cached_property
    def n_goals(self) -> int:
        return len(self.goals)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.goals)

    @cached_property
    def _rule_masks(self) -> tuple[tuple[int, int, int, float | None], ...]:
        """Each goal's rule as (its bit, requires_on bits, blocked_by bits, requires_context)."""
        return tuple((1 << i, sum(1 << r for r in goal.requires_on),
                      sum(1 << b for b in goal.blocked_by), goal.requires_context)
                     for i, goal in enumerate(self.goals))

    @cached_property
    def _touches(self) -> dict[tuple[WorldState, int], tuple[WorldState, bool]]:
        """``apply_touch`` results by (state, goal index), added on first use."""
        return {}

    @cached_property
    def _reset_states(self) -> tuple[WorldState, WorldState]:
        """The all-off state with context 0.0, then with context 1.0."""
        off = (False,) * self.n_goals
        return WorldState(off, 0.0), WorldState(off, 1.0)

    # -- core dynamics ---------------------------------------------------

    def is_achievable(self, goal: int, state: WorldState) -> bool:
        """Whether touching the goal's sphere right now would activate it.

        A sphere that is already on is not achievable again within the
        epoch: re-touching it has no effect and earns no reward.
        """
        bit, requires, blocked, context = self._rule_masks[goal]
        on = state.mask
        return (not on & (bit | blocked) and on & requires == requires
                and (context is None or context == state.context_feature))

    def apply_touch(self, goal: int, state: WorldState) -> tuple[WorldState, bool]:
        """Touch a sphere: activate it iff achievable. No other sphere changes.

        Returns (state after the touch, whether the sphere lit up). The result
        is computed once per (state, goal) and the same tuple is returned on
        every later touch, for any object equal to ``state``.
        """
        result = self._touches.get((state, goal))
        if result is None:
            activated = self.is_achievable(goal, state)
            result = (state.with_sphere_on(goal) if activated else state), activated
            self._touches[state, goal] = result
        return result

    def reset(self, rng: np.random.Generator) -> WorldState:
        """All spheres off; context feature redrawn (1.0 w.p. context_prob_on)."""
        return self._reset_states[rng.random() < self.context_prob_on]

    def describe_dependencies(self) -> str:
        """Human-readable dependency graph, one arc per line."""
        lines = []
        for goal in self.goals:
            label = goal.label
            for r in sorted(goal.requires_on):
                lines.append(f"{self.labels[r]} -> {label}  (precondition)")
            for b in sorted(goal.blocked_by):
                lines.append(f"{self.labels[b]} -| {label}  (blocks)")
            if goal.requires_context is not None:
                lines.append(f"cf={goal.requires_context:g} -> {label}  (context)")
        return "\n".join(lines) if lines else "(no dependencies)"


# -- scenario files --------------------------------------------------------

_SCALARS = tuple(f.name for f in fields(ScenarioSpec)[1:])
_RULE_KEYS = ("goal", "requires_on", "blocked_by", "requires_context")


def scenario_from_dict(data: Mapping) -> ScenarioSpec:
    """Build a ScenarioSpec, which checks itself, from a parsed mapping.

    Expected keys mirror the ScenarioSpec fields; ``rules`` is a list of
    mappings naming goals by label, and goals without an entry get an empty
    rule. Positions default to the standard arc. An unknown key, a value of
    the wrong type or a goal label that is not a string raises ConfigError.
    """
    check_keys("scenario", data, ("goals", "positions", "rules", *_SCALARS))
    if data.get("goals") is None:
        raise ConfigError("scenario is missing the 'goals' list")
    labels = _list("goals", data["goals"])
    if any(isinstance(lab, Goal) for lab in labels):
        raise ConfigError("scenario goals in a mapping are labels; Goal records go in a ScenarioSpec")
    # Each goal checks its label here, before the label keys anything.
    goals = [Goal(lab, point) for lab, point in zip(labels, default_positions(len(labels)))]
    if data.get("positions") is not None:
        pos_map = check_keys("positions", data["positions"], labels)
        missing = [lab for lab in labels if lab not in pos_map]
        if missing:
            raise ConfigError(f"positions missing for goals {missing}")
        goals = [replace(goal, position=pos_map[goal.label]) for goal in goals]

    def to_index(lab) -> int:
        if not isinstance(lab, str) or lab not in labels:
            raise ConfigError(f"rule references unknown goal {lab!r}; goals are {labels}")
        return labels.index(lab)

    rules: dict[int, dict] = {}
    for n, entry in enumerate(_list("rules", data.get("rules"))):
        where = f"rules[{n}]"
        check_keys(where, entry, _RULE_KEYS)
        if "goal" not in entry:
            raise ConfigError(f"rule entry missing 'goal': {entry}")
        i = to_index(entry["goal"])
        if i in rules:
            raise ConfigError(f"multiple rules for goal {labels[i]!r}")
        rules[i] = dict(
            requires_on=frozenset(map(to_index, _list(f"{where}.requires_on", entry.get("requires_on")))),
            blocked_by=frozenset(map(to_index, _list(f"{where}.blocked_by", entry.get("blocked_by")))),
            requires_context=entry.get("requires_context"),
        )
    return ScenarioSpec(
        goals=tuple(replace(goal, **rules.get(i, {})) for i, goal in enumerate(goals)),
        **{key: data[key] for key in _SCALARS if key in data},
    )


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Inverse of scenario_from_dict (positions always written out)."""
    rules = []
    for goal in spec.goals:
        entry: dict = {"goal": goal.label}
        if goal.requires_on:
            entry["requires_on"] = sorted(spec.labels[i] for i in goal.requires_on)
        if goal.blocked_by:
            entry["blocked_by"] = sorted(spec.labels[i] for i in goal.blocked_by)
        if goal.requires_context is not None:
            entry["requires_context"] = goal.requires_context
        if len(entry) > 1:
            rules.append(entry)
    return {
        "goals": list(spec.labels),
        "positions": {g.label: [g.position[0], g.position[1]] for g in spec.goals},
        "rules": rules,
        **{key: getattr(spec, key) for key in _SCALARS},
    }


def load_scenario(path: str) -> ScenarioSpec:
    """Load a scenario from a YAML file: a bare scenario mapping, or a
    mapping whose only key is ``scenario``.

    A file with more beside its ``scenario`` section is a config file; its
    other sections (an ``arm``, say) would be dropped here, so it is refused.
    """
    data = read_yaml(path, "scenario")
    if isinstance(data, Mapping) and "scenario" in data:
        others = sorted(str(key) for key in data if key != "scenario")
        if others:
            raise ConfigError(f"scenario file {path} also has {others} beside 'scenario'; "
                              "pass a config file with --config")
        data = data["scenario"]
    return scenario_from_dict(data)


# -- built-in scenarios ---------------------------------------------------

# The paper's three setups, in the scenario-file format:
# 1. Six unconditioned goals, 3000 trials, reset every trial.
# 2. Six goals gated by the context feature (a/c/e need cf=1, b/d/f need
#    cf=0, cf drawn 50/50 per trial), 4000 trials, reset every trial.
# 3. Two precondition chains d->c->e and b->f->a with the chain starts d
#    and b mutually exclusive; 2000 epochs of 3 trials (6000 trials),
#    reset at epoch boundaries only.
BUILTIN_SCENARIOS = {
    1: {"name": "independent", "goals": list("abcdef"), "context_prob_on": 0.0,
        "trials_per_epoch": 1, "total_trials": 3000, "reset_policy": "per_trial"},
    2: {"name": "context_gated", "goals": list("abcdef"),
        "rules": [{"goal": lab, "requires_context": 1.0} for lab in "ace"]
        + [{"goal": lab, "requires_context": 0.0} for lab in "bdf"],
        "context_prob_on": 0.5, "trials_per_epoch": 1, "total_trials": 4000, "reset_policy": "per_trial"},
    3: {"name": "interrelated_chains", "goals": list("abcdef"),
        "rules": [{"goal": "c", "requires_on": ["d"]}, {"goal": "e", "requires_on": ["c"]},
                  {"goal": "f", "requires_on": ["b"]}, {"goal": "a", "requires_on": ["f"]},
                  {"goal": "d", "blocked_by": ["b"]}, {"goal": "b", "blocked_by": ["d"]}],
        "context_prob_on": 0.0, "trials_per_epoch": 3, "total_trials": 6000, "reset_policy": "per_epoch"},
}


def builtin_scenario(scenario_id: int) -> ScenarioSpec:
    """One of the stock setups in ``BUILTIN_SCENARIOS``, by id."""
    if scenario_id not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown builtin scenario {scenario_id!r}; valid ids are 1, 2, 3")
    return scenario_from_dict(BUILTIN_SCENARIOS[scenario_id])
