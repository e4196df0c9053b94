"""Trial/epoch loop, replications, metrics, and CSV output.

One ``Simulation`` owns everything a single replication needs: the world
state, a goal-selection strategy, the achievement predictor, and two experts
plus an expert selector per goal. ``run_experiment`` runs seeded
replications (optionally in parallel processes), collects per-goal
competence curves and wasted-trial counts, and aggregates them as mean with
a 95% confidence band.

A trial is: select a goal from the current state, pick an arm's expert,
attempt the goal (an idealized Bernoulli draw, or a full arm rollout that
ends on the first touch of any sphere or on timeout), update the world on
touch, compute the intrinsic reward from the achievement predictor, apply
the learning gate to the expert update, and feed the reward back to the
goal selector.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
import math
import os
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Mapping

import numpy as np
import yaml

from .arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward, unreachable_goals
from .errors import ConfigError, NumericsError
from .inputs import cast, check_keys, read_yaml
from .motivation import AchievementPredictor
from .selection import SelectionStrategy
from .skills import (
    ActorCriticConfig,
    ActorCriticExpert,
    ExpertSelector,
    IdealizedExpert,
)
from .world import (
    ScenarioSpec,
    WorldState,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

log = logging.getLogger(__name__)

# Each system's (learning rate, discount) for the goal-value update; only
# grail is state-blind, which Simulation sets through the context mode.
SYSTEMS = {"grail": (0.01, 0.0), "c_grail": (0.1, 0.0), "m_grail": (0.1, 0.3)}
BACKENDS = ("idealized", "actor_critic")

# Goal-selection softmax temperatures, per system. Intrinsic rewards live on
# the scale of the predictor step (~0.1); the Q system additionally discounts
# twice before a chain-end value shows up at the reset state, so it needs a
# colder softmax. Even so, once one chain is mastered the reset-state values
# differ by only about 1.5e-4 in slow scenario-3 replications, and at 0.001
# selection there runs near chance until the other chain end is mastered.
SYSTEM_TEMPERATURES = {"grail": 0.01, "c_grail": 0.01, "m_grail": 0.001}

ARMS = ("left", "right")

# Scalar field ranges as (field, low, high, low allowed, high allowed), where
# "section.field" names a field of a nested section; NaN fails every check.
_RANGES = (
    ("replications", 1, math.inf, True, False),
    ("seed", 0, math.inf, True, False),
    ("timeout_steps", 1, math.inf, True, False),
    ("eval_interval", 1, math.inf, True, False),
    ("eval_trials", 1, math.inf, True, False),
    ("jobs", 1, math.inf, True, False),
    ("temperature", 0.0, math.inf, False, False),
    ("expert_temperature", 0.0, math.inf, False, False),
    ("expert_smoothing", 0.0, 1.0, False, True),
    ("predictor_eta", 0.0, 1.0, False, True),
    ("gate_epsilon", 0.0, math.inf, True, False),
    ("idealized_init_competence", 0.0, 1.0, True, True),
    ("idealized_learning_rate", 0.0, 1.0, False, True),
    ("idealized_disruption", 0.0, 1.0, True, True),
    ("idealized_exploration_floor", 0.0, 1.0, True, True),
    ("actor_critic.hidden_units", 1, math.inf, True, False),
    ("actor_critic.feature_scale", 0.0, math.inf, True, False),
    ("actor_critic.feature_offset", 0.0, math.inf, True, False),
    ("actor_critic.actor_lr", 0.0, math.inf, False, False),
    ("actor_critic.critic_lr", 0.0, math.inf, False, False),
    ("actor_critic.discount", 0.0, 1.0, True, True),
    ("actor_critic.sigma_start", 0.0, math.inf, True, False),
    ("actor_critic.sigma_min", 0.0, math.inf, True, False),
    ("actor_critic.noise_correlation", 0.0, 1.0, True, True),
    ("actor_critic.success_smoothing", 0.0, 1.0, False, True),
    ("actor_critic.td_clip", 0.0, math.inf, False, False),
    ("actor_critic.actor_delta_margin", 0.0, math.inf, True, False),
    ("actor_critic.imitate_window", 0, math.inf, True, False),
    ("actor_critic.success_replays", 0, math.inf, True, False),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One goal-selection system run on one scenario, with every setting.

    A config is checked once, when it is built (``replace`` builds a new
    one): an invalid field or scenario raises ConfigError there, and
    ``scenario``, given as a builtin id, its digits, a scenario file path, a
    scenario mapping or a spec, is always a validated ScenarioSpec after.
    """

    scenario: "ScenarioSpec | int | str | Mapping" = 1
    system: str = "grail"
    backend: str = "idealized"
    replications: int = 10
    seed: int = 0
    timeout_steps: int = 800
    eval_interval: int = 50
    eval_trials: int = 10
    temperature: float | None = None  # None: per-system default
    expert_temperature: float = 0.1
    expert_smoothing: float = 0.1
    predictor_eta: float = 0.1
    gate_epsilon: float = 0.05
    clip_reward: bool = True
    idealized_init_competence: float = 0.02
    idealized_learning_rate: float = 0.05
    idealized_disruption: float = 0.03
    idealized_exploration_floor: float = 0.22
    arm: ArmConfig = field(default_factory=ArmConfig)
    actor_critic: ActorCriticConfig = field(default_factory=ActorCriticConfig)
    out_dir: str | None = None
    jobs: int = 1
    dump_values: bool = False

    def __post_init__(self) -> None:
        """Check the fields, then the scenario, which becomes a spec."""
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; valid systems: {sorted(SYSTEMS)}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; valid backends: {sorted(BACKENDS)}")
        for name, low, high, low_in, high_in in _RANGES:
            section, _, key = name.rpartition(".")
            value = getattr(getattr(self, section) if section else self, key)
            if value is None:  # temperature: per-system default
                continue
            above = low <= value if low_in else low < value
            below = value <= high if high_in else value < high
            if not (above and below):
                interval = f"{'[' if low_in else '('}{low}, {high}{']' if high_in else ')'}"
                where = f"{section}: " if section else ""
                raise ConfigError(f"{where}{key} must be in {interval}, got {value!r}")
        ac = self.actor_critic
        if ac.sigma_min > ac.sigma_start:
            raise ConfigError(f"actor_critic: sigma_min {ac.sigma_min} exceeds sigma_start {ac.sigma_start}")
        try:
            self.arm.validate()
        except ValueError as exc:
            raise ConfigError(f"arm: {exc}") from None

        sc = self.scenario
        if isinstance(sc, ScenarioSpec):
            sc.validate()
        elif isinstance(sc, Mapping):
            sc = scenario_from_dict(sc)
        elif isinstance(sc, int) and not isinstance(sc, bool):
            sc = builtin_scenario(sc)
        elif isinstance(sc, str):
            sc = builtin_scenario(int(sc)) if sc.isdigit() else load_scenario(sc)
        else:
            raise ConfigError(f"cannot interpret scenario reference {sc!r}")
        object.__setattr__(self, "scenario", sc)

    def resolved_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return SYSTEM_TEMPERATURES[self.system]


@dataclass
class TrialRecord:
    replication: int
    trial: int
    epoch: int
    state_key: str
    goal: str
    achievable: bool
    achieved: bool
    reward: float
    steps: int


@dataclass
class ReplicationSeries:
    """Everything recorded for one replication."""

    replication: int
    records: list[TrialRecord]
    competence: list[tuple[int, str, float]]  # (trial_index, goal label, value)
    wasted: list[tuple[int, int]]             # (interval_end, cumulative count)
    value_rows: list[tuple[int, str, int, float]] = field(default_factory=list)

    def competence_at(self, trial_index: int) -> dict[str, float]:
        return {label: v for t, label, v in self.competence if t == trial_index}

    def final_competence(self) -> dict[str, float]:
        last = max(t for t, _, _ in self.competence)
        return self.competence_at(last)

    def cumulative_wasted_at(self, trial_index: int) -> int:
        for end, count in self.wasted:
            if end == trial_index:
                return count
        raise KeyError(f"no wasted-count row at trial {trial_index}")


class Simulation:
    """One replication of ``cfg.system`` on ``cfg.scenario``, seeded by ``seed``.

    Each goal has one expert per arm. The two arms mirror each other but are
    one chain, ``cfg.arm``: the left arm gets its mirror image by checking
    its effector against the spheres reflected across the vertical axis.
    ``sphere_positions`` holds one tuple of sphere positions per arm,
    indexed like ``ARMS``, each in goal order.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int, replication: int = 0):
        self.spec = spec = cfg.scenario
        self.cfg = cfg
        self.replication = replication
        self.rng = np.random.default_rng(seed)
        n = spec.n_goals

        context_mode = "none" if cfg.system == "grail" else spec.context_mode
        learning_rate, discount = SYSTEMS[cfg.system]
        self.strategy = SelectionStrategy(
            n, cfg.resolved_temperature(), learning_rate, discount, context_mode
        )
        self.predictor = AchievementPredictor(
            n, eta=cfg.predictor_eta, context_mode=context_mode,
            clip_negative_reward=cfg.clip_reward,
        )
        self.use_gate = cfg.system != "grail"
        # Read on every trial, so compared once here.
        self.idealized = cfg.backend == "idealized"
        self.reset_every_trial = spec.reset_policy == "per_trial"

        self.selectors = [
            ExpertSelector(smoothing=cfg.expert_smoothing, temperature=cfg.expert_temperature)
            for _ in range(n)
        ]
        self.experts = [[self._make_expert() for _ in ARMS] for _ in range(n)]

        right = tuple(tuple(map(float, g.position)) for g in spec.goals)
        left = tuple((-x, y) for x, y in right)
        self.sphere_positions = (left, right)
        self.state: WorldState = spec.reset(self.rng)
        self.trial = 0  # trials completed

    def _make_expert(self):
        cfg = self.cfg
        if self.idealized:
            return IdealizedExpert(
                competence=cfg.idealized_init_competence,
                learning_rate=cfg.idealized_learning_rate,
                disruption=cfg.idealized_disruption,
                exploration_floor=cfg.idealized_exploration_floor,
            )
        return ActorCriticExpert(cfg.arm, cfg.actor_critic, self.rng)

    # -- trial loop --------------------------------------------------------

    def _epoch_of(self, trial: int) -> int:
        return (trial - 1) // self.spec.trials_per_epoch

    def _is_epoch_start(self, trial: int) -> bool:
        return (trial - 1) % self.spec.trials_per_epoch == 0

    def _is_epoch_end(self, trial: int) -> bool:
        return trial % self.spec.trials_per_epoch == 0

    def run_trial(self) -> TrialRecord:
        """Advance the simulation by one trial and return its record."""
        spec, cfg = self.spec, self.cfg
        trial = self.trial + 1
        if self.reset_every_trial or self._is_epoch_start(trial):
            self.state = spec.reset(self.rng)
        state = self.state

        goal, key = self.strategy.select(state, self.rng)
        achievable = spec.is_achievable(goal, state)
        arm_index = self.selectors[goal].select(self.rng)
        expert = self.experts[goal][arm_index]

        if self.idealized:
            achieved = expert.attempt(achievable, self.rng)
            new_state = spec.apply_touch(goal, state)[0] if achieved else state
            steps = 0
            trajectory = None
        else:
            new_state, achieved, steps, trajectory = self._rollout(goal, arm_index, state, self.rng)

        gate = True if not self.use_gate else self.predictor.learning_gate(
            goal, state, achieved, epsilon=cfg.gate_epsilon
        )
        reward = self.predictor.update_and_reward(goal, state, achieved)
        if self.idealized:
            expert.learn(achieved=achieved, achievable=achievable, gate=gate)
        else:
            expert.learn(trajectory, achieved, gate=gate)
        if gate:
            # The gate protects the whole skill-learning side, arm choice
            # included: a trial the predictor flagged as hopeless says
            # nothing about which arm is better.
            self.selectors[goal].update(arm_index, achieved)

        next_key = self.strategy.state_key(new_state)
        terminal = self.reset_every_trial or self._is_epoch_end(trial)
        self.strategy.update(key, goal, reward, next_key, terminal)

        self.state = new_state
        self.trial = trial
        record = TrialRecord(
            replication=self.replication,
            trial=trial,
            epoch=self._epoch_of(trial),
            state_key=state.key_string(),
            goal=spec.labels[goal],
            achievable=achievable,
            achieved=achieved,
            reward=reward,
            steps=steps,
        )
        if achieved and not achievable:
            raise NumericsError(f"trial {trial}: achieved a goal that was not achievable")
        return record

    def _rollout(self, goal: int, arm_index: int, state: WorldState,
                 rng: np.random.Generator | None = None):
        """Arm rollout from home: ends at the first touch of any sphere or on timeout.

        Returns ``(state after it, achieved, steps, trajectory)``.

        The touch check reads the arm's own sphere tuple, in goal order, so
        the first sphere hit wins. For the left arm ``check_touch`` sees
        ``x - (-sx)``, the exact negation of ``(-x) - sx`` (the reflected
        effector against the sphere), since rounding is symmetric in sign; it
        reads only ``|dx|``, ``|dy|`` and their ``hypot``, so both decide
        every touch alike.

        With ``rng`` the rollout explores (training) and draws from it;
        without, it is frozen (evaluation), acts on the policy mean and draws
        nothing. A training rollout computes each step's features once, for
        ``act``, and records one ``(features, action)`` pair per step for
        ``learn``; the trial's reward and end need no per-step record, as
        they are ``achieved`` and the last step. An evaluation rollout
        records no trajectory (it returns None), and if the expert's actor
        heads are exactly zero it computes no features: ``act`` then gives
        the mid posture. Joints and positions are tuples of Python floats.
        """
        spec, cfg = self.spec, self.cfg
        arm_cfg = cfg.arm
        spheres = self.sphere_positions[arm_index]
        expert = self.experts[goal][arm_index]
        explore = rng is not None
        joints = home_joints(arm_cfg)
        if explore:
            expert.begin_trial(rng)
        trajectory = [] if explore else None
        need_features = explore or not expert.actor_is_zero()
        feat = None
        for step in range(1, cfg.timeout_steps + 1):
            if need_features:
                feat = expert.features(joints)
            action = expert.act(feat, rng)
            if explore:
                trajectory.append((feat, action))
            joints = step_toward(joints, action, arm_cfg)
            effector = forward_kinematics(joints, arm_cfg)
            for i, sphere in enumerate(spheres):
                if check_touch(effector, sphere, arm_cfg):
                    state, activated = spec.apply_touch(i, state)
                    return state, i == goal and activated, step, trajectory
        return state, False, cfg.timeout_steps, trajectory

    # -- evaluation ----------------------------------------------------------

    def measure_competence(self, goal: "int | str") -> float:
        """Current skill level for a goal; never updates any learner.

        Idealized backend: the competence of the arm the expert selector
        would pick greedily. Actor-critic: the success rate of that arm's
        frozen mean policy over ``eval_trials`` rollouts from a state with
        the goal's preconditions force-satisfied and exploration off. Each
        rollout starts from the home posture and draws no noise, so all of
        them are the same rollout and the result is always 0 or 1.
        """
        goal = self.spec.goal_index(goal)
        arm_index = self.selectors[goal].greedy()
        if self.idealized:
            return float(self.experts[goal][arm_index].competence)
        state = self._forced_precondition_state(goal)
        successes = sum(self._rollout(goal, arm_index, state)[1]
                        for _ in range(self.cfg.eval_trials))
        return successes / self.cfg.eval_trials

    def _forced_precondition_state(self, goal: int) -> WorldState:
        rule = self.spec.rules[goal]
        on = [False] * self.spec.n_goals
        for i in rule.requires_on:
            on[i] = True
        cf = rule.requires_context if rule.requires_context is not None else 0.0
        return WorldState(sphere_on=tuple(on), context_feature=cf)

    # -- full replication ----------------------------------------------------

    def run(self) -> ReplicationSeries:
        """Run every trial, measuring competence before the first and at each
        evaluation point: every ``eval_interval`` trials and the last trial.
        An evaluation point also records the cumulative waste, the value
        table (with ``dump_values``) and one progress log line.
        """
        spec, cfg = self.spec, self.cfg
        records: list[TrialRecord] = []
        competence = [(0, label, self.measure_competence(label)) for label in spec.labels]
        wasted: list[tuple[int, int]] = []
        value_rows: list[tuple[int, str, int, float]] = []
        cumulative_wasted = 0
        for t in range(1, spec.total_trials + 1):
            rec = self.run_trial()
            records.append(rec)
            if not rec.achievable:
                cumulative_wasted += 1
            if t % cfg.eval_interval != 0 and t != spec.total_trials:
                continue
            values = [self.measure_competence(label) for label in spec.labels]
            competence.extend((t, label, v) for label, v in zip(spec.labels, values))
            wasted.append((t, cumulative_wasted))
            if cfg.dump_values:
                value_rows.extend((t, key_text, g, v) for key_text, g, v in self.strategy.dump_rows())
            log.info("replication %d, trial %d/%d: mean competence %.3f, cumulative waste %d",
                     self.replication, t, spec.total_trials, sum(values) / len(values), cumulative_wasted)
        return ReplicationSeries(self.replication, records, competence, wasted, value_rows)


# -- experiment-level runs --------------------------------------------------


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    replications: list[ReplicationSeries]
    competence_agg: list[tuple[int, str, float, float, float]]  # trial, goal, mean, lo, hi
    wasted_agg: list[tuple[int, float, float, float]]           # interval_end, mean, lo, hi


def _mean_ci(values: np.ndarray) -> tuple[float, float, float]:
    """Mean with a 95% normal confidence band (mean +- 1.96 SE)."""
    mean = float(values.mean())
    if len(values) < 2:
        return mean, mean, mean
    se = float(values.std(ddof=1)) / math.sqrt(len(values))
    return mean, mean - 1.96 * se, mean + 1.96 * se


def _replication_worker(args) -> ReplicationSeries:
    cfg, seed, rep = args
    return Simulation(cfg, seed=seed, replication=rep).run()


def aggregate_rows(tables: list[list[tuple]], what: str) -> list[tuple]:
    """Mean and 95% band of each row's last value over the replications.

    ``tables`` holds one row list per replication, ``what`` names the rows
    in errors. Every replication records the same rows (all but the value)
    in the same order, so the rows are read side by side; a replication
    whose rows differ in number or order raises NumericsError.
    """
    if len({len(rows) for rows in tables}) > 1:
        raise NumericsError(f"replications recorded different numbers of {what} rows")
    agg = []
    for rows in zip(*tables):
        key = rows[0][:-1]
        if any(row[:-1] != key for row in rows):
            raise NumericsError(f"replications disagree on {what} row {key}")
        agg.append(key + _mean_ci(np.array([float(row[-1]) for row in rows])))
    return agg


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all replications, aggregate, and (if configured) write CSV output.

    A sphere that neither arm can touch raises ConfigError before any
    replication starts.
    """
    bad = unreachable_goals(cfg.scenario, cfg.arm)
    if bad:
        raise ConfigError(f"sphere(s) outside arm reach: {', '.join(bad)}")
    jobs = [(cfg, cfg.seed + rep, rep) for rep in range(cfg.replications)]
    if cfg.jobs > 1 and cfg.replications > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            series = list(pool.map(_replication_worker, jobs))
    else:
        series = [_replication_worker(job) for job in jobs]

    result = ExperimentResult(
        cfg, series,
        aggregate_rows([s.competence for s in series], "competence"),
        aggregate_rows([s.wasted for s in series], "wasted"),
    )
    if cfg.out_dir:
        write_outputs(result, cfg.out_dir)
    return result


# -- CSV output ----------------------------------------------------------------


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_outputs(result: ExperimentResult, out_dir: str) -> None:
    """Write the full CSV set; byte-identical for identical config and seed.

    The files are written into a temporary directory beside ``out_dir``,
    then moved into ``out_dir`` one by one, ``run.yaml`` last, and a
    ``values.csv`` this run did not write is deleted. So a directory holds
    one run's files, and a write that fails leaves ``out_dir`` as it was
    and removes the temporary directory.
    """
    cfg = result.config
    reps = result.replications
    parent = os.path.dirname(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".lightup-", dir=parent) as tmp:
        _write_csv(tmp, "trials.csv",
                   ["replication", "trial", "epoch", "state_key", "goal",
                    "achievable", "achieved", "reward", "steps"],
                   ([r.replication, r.trial, r.epoch, r.state_key, r.goal,
                     int(r.achievable), int(r.achieved), repr(float(r.reward)), r.steps]
                    for s in reps for r in s.records))
        _write_csv(tmp, "competence.csv", ["replication", "trial_index", "goal", "competence"],
                   ([s.replication, t, label, repr(float(v))] for s in reps for t, label, v in s.competence))
        _write_csv(tmp, "wasted.csv", ["replication", "interval_end", "cumulative_wasted"],
                   ([s.replication, end, count] for s in reps for end, count in s.wasted))
        _write_csv(tmp, "competence_agg.csv", ["trial_index", "goal", "mean", "ci_low", "ci_high"],
                   ([t, label, repr(mean), repr(lo), repr(hi)]
                    for t, label, mean, lo, hi in result.competence_agg))
        _write_csv(tmp, "wasted_agg.csv", ["interval_end", "mean", "ci_low", "ci_high"],
                   ([end, repr(mean), repr(lo), repr(hi)] for end, mean, lo, hi in result.wasted_agg))
        if cfg.dump_values:
            _write_csv(tmp, "values.csv", ["replication", "trial", "state_key", "goal", "value"],
                       ([s.replication, t, key_text, cfg.scenario.labels[g], repr(v)]
                        for s in reps for t, key_text, g, v in s.value_rows))

        meta = config_to_dict(cfg)
        # Where the run was written and how it was parallelized do not affect the
        # results; leave them out so identical configs yield identical metadata.
        meta.pop("out_dir", None)
        meta.pop("jobs", None)
        with open(os.path.join(tmp, "run.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(meta, fh, sort_keys=True)

        os.makedirs(out_dir, exist_ok=True)
        stale = os.path.join(out_dir, "values.csv")
        if not cfg.dump_values and os.path.exists(stale):
            os.remove(stale)
        names = [name for name in os.listdir(tmp) if name != "run.yaml"]
        for name in names + ["run.yaml"]:
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))


# -- config files ----------------------------------------------------------------

# The types of the None-defaulted ExperimentConfig fields, which their
# defaults cannot tell.
_NONE_DEFAULT_KINDS = {"temperature": float, "out_dir": str}


def _kinds(cls) -> dict:
    """Each field's type, read off its default; a nested section's is its class."""
    return {f.name: f.default_factory if f.default is MISSING else type(f.default) for f in fields(cls)}


def _section(name: str, cls, data):
    """A nested config dataclass from its mapping, cast by the field defaults' types."""
    kinds = _kinds(cls)
    check_keys(name, data, kinds)
    return cls(**{key: cast(f"{name}.{key}", value, kinds[key]) for key, value in data.items()})


def config_from_dict(data: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    kinds = {**_kinds(ExperimentConfig), **_NONE_DEFAULT_KINDS}
    kwargs: dict = {}
    for key, value in data.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "scenario" or (value is None and key in _NONE_DEFAULT_KINDS):
            kwargs[key] = value  # as given: the config resolves a scenario itself
        elif is_dataclass(kinds[key]):
            kwargs[key] = _section(key, kinds[key], value)
        else:
            kwargs[key] = cast(key, value, kinds[key])
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    data["scenario"] = scenario_to_dict(cfg.scenario)
    data["arm"] = asdict(cfg.arm)
    data["actor_critic"] = asdict(cfg.actor_critic)
    return data


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_yaml(path, "config"))


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """A new config with selected fields replaced; None values are ignored."""
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
