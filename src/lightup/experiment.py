"""Trial/epoch loop, expert backends, replications, metrics, and CSV output.

One ``Simulation`` owns everything a single replication needs: the world
state, a goal-selection strategy, the achievement predictor, two experts
plus an expert selector per goal, and a backend (``BACKENDS``) that makes
the experts, attempts goals, measures competence and holds the random
source. ``run_experiment`` runs seeded replications (optionally in
parallel processes) into a run directory; ``write_outputs`` aggregates
their competence and waste as mean with a 95% confidence band.

A trial is: select a goal from the current state, pick an arm's expert,
attempt the goal (an idealized Bernoulli draw, or a full arm rollout that
ends on the first touch of any sphere or on timeout), update the world on
touch, compute the intrinsic reward from the achievement predictor, apply
the learning gate to the expert update, and feed the reward back to the
goal selector.
"""

from __future__ import annotations

import csv
import errno
import logging
import math
import os
import signal
import tempfile
import threading
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from itertools import chain, count, repeat
from operator import floordiv
from typing import Mapping, NamedTuple

import numpy as np
import yaml

from .arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward, unreachable_goals
from .errors import ConfigError, NumericsError
from .inputs import cast_fields, check_keys, check_ranges, field_kinds, read_csv, read_yaml
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

OUT_DIR_ENV = "LIGHTUP_OUT"  # the command line's default ``out_dir``


class System(NamedTuple):
    """One goal-selection system: the parameters of its value update and softmax."""

    learning_rate: float
    discount: float
    # Intrinsic rewards live on the scale of the predictor step (~0.1); the Q
    # system additionally discounts twice before a chain-end value shows up at
    # the reset state, so it needs a colder softmax. Even so, once one chain is
    # mastered the reset-state values differ by only about 1.5e-4 in slow
    # scenario-3 replications, and at 0.001 selection there runs near chance
    # until the other chain end is mastered.
    temperature: float
    # Keys on the scenario's context mode and gates expert updates; else state-blind and ungated.
    contextual: bool


SYSTEMS = {"grail": System(0.01, 0.0, 0.01, False), "c_grail": System(0.1, 0.0, 0.01, True),
           "m_grail": System(0.1, 0.3, 0.001, True)}

ARMS = ("left", "right")


@dataclass(frozen=True)
class ExperimentConfig:
    """One goal-selection system run on one scenario, with every setting.

    A config is cast and checked once, when it is built (``replace`` builds
    a new one), as a config file's is: an invalid field raises ConfigError
    there. ``arm`` and ``actor_critic`` may be mappings, and ``scenario`` a
    builtin id, its digits, a file path, a mapping or a spec; all three end as checked records.
    """

    scenario: "ScenarioSpec | int | str | Mapping" = 1
    system: str = "grail"
    backend: str = "idealized"
    replications: int = 10
    seed: int = 0
    timeout_steps: int = 800
    eval_interval: int = 50
    eval_trials: int = 1
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

    # The scalar fields' ranges, as ``inputs.check_ranges`` rows (a class attribute, not a field).
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
    )

    def __post_init__(self) -> None:
        """Cast and check the fields, then resolve the scenario to a spec (checked when built)."""
        cast_fields(self, scenario=None, temperature=float, out_dir=str)
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; valid systems: {sorted(SYSTEMS)}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; valid backends: {sorted(BACKENDS)}")
        check_ranges(self, self._RANGES)
        sc = self.scenario
        if isinstance(sc, Mapping):
            sc = scenario_from_dict(sc)
        elif isinstance(sc, int) and not isinstance(sc, bool):
            sc = builtin_scenario(sc)
        elif isinstance(sc, str):
            sc = builtin_scenario(int(sc)) if sc.isdecimal() else load_scenario(sc)
        elif not isinstance(sc, ScenarioSpec):
            raise ConfigError(f"cannot interpret scenario reference {sc!r}")
        object.__setattr__(self, "scenario", sc)

    def resolved_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return SYSTEMS[self.system].temperature


@dataclass
class ReplicationSeries:
    """Everything recorded for one replication. Entry i of each trial column
    (``state_key`` to ``steps``) is trial i + 1, of epoch i // trials_per_epoch;
    ``Simulation.run_trial`` appends to them. Entry i of ``competence`` holds
    each goal's competence, in goal order, at ``evaluation_points(cfg)[i]``;
    the waste up to trial t is ``achievable.count(0, 0, t)``. ``run_experiment``
    keeps only these two columns (the rest are in ``trials.csv``)."""

    replication: int
    state_key: list[str] = field(default_factory=list)
    goal: list[str] = field(default_factory=list)
    achievable: bytearray = field(default_factory=bytearray)
    achieved: bytearray = field(default_factory=bytearray)
    reward: array = field(default_factory=lambda: array("d"))
    steps: array = field(default_factory=lambda: array("q"))
    competence: list[list[float]] = field(default_factory=list)


def evaluation_points(cfg: ExperimentConfig) -> list[int]:
    """The trials after which competence is measured: trial 0 (before the
    first trial), every ``eval_interval`` trials and the last trial."""
    total = cfg.scenario.total_trials
    return [*range(0, total, cfg.eval_interval), total]


class UniformBlock:
    """``gen``'s uniform doubles drawn ``SIZE`` at a time: ``random()`` gives
    what scalar ``gen.random()`` calls would, without a numpy call each."""

    SIZE = 4096

    def __init__(self, gen: np.random.Generator):
        # SIZE as a default, not read through self: that cycle would keep each block until the GC ran.
        blocks = iter(lambda size=self.SIZE: gen.random(size).tolist(), None)
        self.random = chain.from_iterable(blocks).__next__


class IdealizedBackend:
    """Scalar-competence experts: an attempt is one uniform draw, and the
    record ``learn`` takes is whether the goal was achievable. It draws
    nothing but uniforms, so its random source is a ``UniformBlock``."""

    def __init__(self, cfg: ExperimentConfig, gen: np.random.Generator):
        self.cfg, self.spec, self.rng = cfg, cfg.scenario, UniformBlock(gen)

    def make_expert(self) -> IdealizedExpert:
        cfg = self.cfg
        return IdealizedExpert(cfg.idealized_init_competence, cfg.idealized_learning_rate,
                               cfg.idealized_disruption, cfg.idealized_exploration_floor)

    def attempt(self, goal: int, arm_index: int, expert, state: WorldState, achievable: bool):
        achieved = expert.attempt(achievable, self.rng)
        return (self.spec.apply_touch(goal, state)[0] if achieved else state), achieved, 0, achievable

    def competence(self, goal: int, arm_index: int, expert) -> float:
        return float(expert.competence)


class ArmBackend:
    """Actor-critic experts driving the arm: the record ``learn`` takes is
    the rollout's trajectory, and the random source is the generator itself,
    from which experts draw feature layers and training rollouts their noise.

    The arms mirror each other but are one chain, ``cfg.arm``: the left arm
    checks its effector against the spheres reflected across the vertical
    axis. ``sphere_positions`` holds each arm's sphere positions, indexed
    like ``ARMS``, in goal order. ``probe_states[i]`` forces goal i's
    preconditions: its ``requires_on`` on, the rest off, its context.
    """

    def __init__(self, cfg: ExperimentConfig, gen: np.random.Generator):
        self.cfg, self.spec, self.rng = cfg, cfg.scenario, gen
        # The exploration noise is AR(1) with stationary scale sigma: (c, k), both >= 0.
        c = cfg.actor_critic.noise_correlation
        self.noise_filter = c, math.sqrt(1.0 - c * c)
        goals = self.spec.goals
        right = tuple(tuple(map(float, g.position)) for g in goals)
        self.sphere_positions = (tuple((-x, y) for x, y in right), right)
        self.probe_states = [WorldState(tuple(i in g.requires_on for i in range(len(goals))),
                                        0.0 if g.requires_context is None else g.requires_context)
                             for g in goals]

    def make_expert(self) -> ActorCriticExpert:
        return ActorCriticExpert(self.cfg.arm, self.cfg.actor_critic, self.rng)

    def attempt(self, goal: int, arm_index: int, expert, state: WorldState, achievable: bool):
        return self.rollout(goal, arm_index, expert, state, explore=True)

    def rollout(self, goal: int, arm_index: int, expert: ActorCriticExpert, state: WorldState,
                explore: bool = False):
        """Arm rollout from home: ends at the first touch of any sphere or on timeout.

        Returns ``(state after it, achieved, steps, trajectory)``.

        The touch check reads the arm's own sphere tuple, in goal order, so
        the first sphere hit wins. For the left arm ``check_touch`` sees
        ``x - (-sx)``, the exact negation of ``(-x) - sx`` (the reflected
        effector against the sphere), since rounding is symmetric in sign; it
        reads only ``|dx|``, ``|dy|`` and their ``hypot``, so both decide
        every touch alike.

        With ``explore`` (training) it reads ``expert.sigma`` once, draws the
        noise ``self.rng.normal(0.0, sigma, n)``, and before each ``act``
        filters in one more draw, ``c * noise + k * draw``; without, it is
        frozen (evaluation), acts on the policy mean and draws nothing.
        It changes no expert. A training rollout computes each step's
        features once, for ``act``, and records one ``(features, action)``
        pair per step for ``learn``; the trial's reward and end need no
        per-step record, as they are ``achieved`` and the last step. An
        evaluation rollout records no trajectory (it returns None), and if
        the expert's actor heads are exactly zero it computes no features:
        ``act`` then gives the mid posture. Joints and positions are tuples
        of Python floats.
        """
        spec, cfg, rng = self.spec, self.cfg, self.rng
        arm_cfg = cfg.arm
        spheres = self.sphere_positions[arm_index]
        joints = home_joints(arm_cfg)
        trajectory = noise = None
        if explore:
            trajectory, sigma, n, (c, k) = [], expert.sigma, arm_cfg.n_joints, self.noise_filter
            noise = rng.normal(0.0, sigma, size=n).tolist()
        need_features = explore or not expert.actor_is_zero()
        feat = None
        for step in range(1, cfg.timeout_steps + 1):
            if need_features:
                feat = expert.features(joints)
            if explore:
                noise = [c * o + k * draw for o, draw in zip(noise, rng.normal(0.0, sigma, size=n).tolist())]
                action = expert.act(feat, noise)
                trajectory.append((feat, action))
            else:
                action = expert.act(feat)
            joints = step_toward(joints, action, arm_cfg)
            effector = forward_kinematics(joints, arm_cfg)
            for i, sphere in enumerate(spheres):
                if check_touch(effector, sphere, arm_cfg):
                    state, activated = spec.apply_touch(i, state)
                    return state, i == goal and activated, step, trajectory
        return state, False, cfg.timeout_steps, trajectory

    def competence(self, goal: int, arm_index: int, expert) -> float:
        """The frozen mean policy's success rate over ``eval_trials`` rollouts
        from the probe state: one rollout repeated, as none draws, so 0 or 1."""
        state, trials = self.probe_states[goal], self.cfg.eval_trials
        return sum(self.rollout(goal, arm_index, expert, state)[1] for _ in range(trials)) / trials


BACKENDS = {"idealized": IdealizedBackend, "actor_critic": ArmBackend}


class Simulation:
    """Replication ``replication`` of ``cfg.system`` on ``cfg.scenario``.

    Each goal has one expert per arm. ``backend``, a ``BACKENDS[cfg.backend]``,
    makes them, attempts goals and measures competence; ``rng`` is its random
    source, seeded by ``cfg.seed + replication``.
    """

    def __init__(self, cfg: ExperimentConfig, replication: int = 0):
        self.spec = spec = cfg.scenario
        self.cfg = cfg
        self.series = ReplicationSeries(replication)
        self.backend = backend = BACKENDS[cfg.backend](cfg, np.random.default_rng(cfg.seed + replication))
        self.rng = backend.rng
        n = spec.n_goals

        system = SYSTEMS[cfg.system]
        context_mode = spec.context_mode if system.contextual else "none"
        self.strategy = SelectionStrategy(
            n, cfg.resolved_temperature(), system.learning_rate, system.discount, context_mode
        )
        self.predictor = AchievementPredictor(
            eta=cfg.predictor_eta, context_mode=context_mode, clip_negative_reward=cfg.clip_reward,
        )
        self.use_gate = system.contextual

        self.selectors = [
            ExpertSelector(smoothing=cfg.expert_smoothing, temperature=cfg.expert_temperature)
            for _ in range(n)
        ]
        self.experts = [[backend.make_expert() for _ in ARMS] for _ in range(n)]
        self.state: WorldState = spec.reset(self.rng)

    # -- trial loop --------------------------------------------------------

    def run_trial(self) -> None:
        """Advance the simulation by one trial and append it to ``self.series``."""
        spec, rng, strategy = self.spec, self.rng, self.strategy
        series = self.series
        step_in_epoch = len(series.goal) % spec.trials_per_epoch
        if step_in_epoch == 0:
            self.state = spec.reset(rng)
        state = self.state
        key = strategy.state_key(state)  # the predictor's key too: they share a context mode

        goal = strategy.select(key, rng)
        achievable = spec.is_achievable(goal, state)
        arm_index = self.selectors[goal].select(rng)
        expert = self.experts[goal][arm_index]
        new_state, achieved, steps, record = self.backend.attempt(goal, arm_index, expert, state, achievable)

        # An epoch's last trial has no next key: the reset after it does not
        # depend on its choice, so bootstrapping on it would inject spurious value.
        last = step_in_epoch == spec.trials_per_epoch - 1
        next_key = None if last else strategy.state_key(new_state)
        gate, reward = self.selection_step(goal, key, achieved, next_key)
        expert.learn(record, achieved, gate=gate)
        if gate:
            # The gate protects the whole skill-learning side, arm choice
            # included: a trial the predictor flagged as hopeless says
            # nothing about which arm is better.
            self.selectors[goal].update(arm_index, achieved)

        self.state = new_state
        if achieved and not achievable:
            raise NumericsError(f"trial {len(series.goal) + 1}: achieved a goal that was not achievable")
        series.state_key.append(state.key_string())
        series.goal.append(spec.labels[goal])
        series.achievable.append(achievable)
        series.achieved.append(achieved)
        series.reward.append(reward)
        series.steps.append(steps)

    def selection_step(self, goal: int, key: tuple, achieved: bool,
                       next_key: tuple | None) -> tuple[bool, float]:
        """The selection side of a trial on ``goal`` from the state keyed ``key``:
        the learning gate (read before the predictor learns the outcome), the
        predictor update and its intrinsic reward, then the value update,
        bootstrapping on ``next_key`` if given. Returns ``(gate, reward)``."""
        predictor = self.predictor
        gate = not self.use_gate or predictor.learning_gate(goal, key, achieved, self.cfg.gate_epsilon)
        reward = predictor.update_and_reward(goal, key, achieved)
        self.strategy.update(key, goal, reward, next_key)
        return gate, reward

    # -- evaluation ----------------------------------------------------------

    def measure_competence(self, goal: int) -> float:
        """A goal's skill level, as the backend measures its greedy arm; updates no learner."""
        arm_index = self.selectors[goal].greedy()
        return self.backend.competence(goal, arm_index, self.experts[goal][arm_index])

    # -- full replication ----------------------------------------------------

    def run(self) -> ReplicationSeries:
        """Run every trial into ``self.series`` and return it, measuring
        competence at each of ``evaluation_points(cfg)``. A point after
        trial 0 also logs one progress line.
        """
        cfg, series = self.cfg, self.series
        goals = range(self.spec.n_goals)
        for t in evaluation_points(cfg):
            for _ in range(t - len(series.goal)):
                self.run_trial()
            values = [self.measure_competence(g) for g in goals]
            series.competence.append(values)
            if t == 0:
                continue
            log.info("replication %d, trial %d/%d: mean competence %.3f, cumulative waste %d",
                     series.replication, t, self.spec.total_trials,
                     sum(values) / len(values), series.achievable.count(0))
        return series


# -- experiment-level runs --------------------------------------------------


def _mean_ci(values: np.ndarray) -> tuple[float, float, float]:
    """Mean with a 95% normal confidence band (mean +- 1.96 SE)."""
    mean = float(values.mean())
    if len(values) < 2:
        return mean, mean, mean
    se = float(values.std(ddof=1)) / math.sqrt(len(values))
    return mean, mean - 1.96 * se, mean + 1.96 * se


def _replication_worker(args) -> ReplicationSeries:
    return Simulation(*args).run()


@contextmanager
def holding_ctrl_c():
    """Hold a Ctrl-C that comes while the block runs, and raise it once the block ends.

    SIGINT is blocked in this thread, so in any process it starts too. The
    kernel then hands it to another thread (such as numpy's OpenBLAS
    threads), and Python would still raise it here, inside the block; so in
    the main thread, the only one that may set a handler, a handler records it.
    """
    held, main = [], threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGINT, lambda *_: held.append(True)) if main else None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # runs the handler of a Ctrl-C the mask held
        if main:
            signal.signal(signal.SIGINT, previous)
    if held:
        raise KeyboardInterrupt


@contextmanager
def _replications(cfg: ExperimentConfig):
    """The replications' series in replication order, each as it finishes; leaving stops any workers."""
    jobs = [(cfg, rep) for rep in range(cfg.replications)]
    if cfg.jobs == 1 or cfg.replications == 1:
        yield map(_replication_worker, jobs)
        return
    import multiprocessing  # here, not at the top: it adds about 0.4 MB to a serial run

    # The workers start with SIGINT blocked and keep it blocked, so a Ctrl-C
    # interrupts only this process, and leaving the pool stops them. A Ctrl-C
    # while the pool starts is held (``Pool()`` stops the workers it started
    # only on an Exception) and raised once the pool is entered.
    with ExitStack() as stack:
        with holding_ctrl_c():
            pool = stack.enter_context(multiprocessing.Pool(min(cfg.jobs, cfg.replications)))
        yield pool.imap(_replication_worker, jobs, chunksize=1)


def run_experiment(cfg: ExperimentConfig) -> list[ReplicationSeries]:
    """Run all replications into ``cfg.out_dir`` and return each one's
    ``replication``, ``competence`` and ``achievable``, in replication order
    (``Simulation(cfg, r).run()`` gives replication r with every column).

    A config without ``out_dir`` or with a sphere that neither arm can touch
    raises ConfigError, and an ``out_dir`` that is a file or lies under one
    NotADirectoryError, before any replication starts. The run streams each
    replication's trials, in order, to ``trials.csv`` in a temporary directory
    inside the nearest existing directory on ``out_dir``'s path; a run that
    raises, Ctrl-C included, removes it and leaves every directory as it was.
    """
    if not cfg.out_dir:
        raise ConfigError(f"no output directory: pass --out or set ${OUT_DIR_ENV}")
    bad = unreachable_goals(cfg.scenario, cfg.arm)
    if bad:
        raise ConfigError(f"sphere(s) outside arm reach: {', '.join(bad)}")
    existing = os.path.abspath(cfg.out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", existing)
    series = []

    def trial_rows(s: ReplicationSeries):
        series.append(ReplicationSeries(s.replication, achievable=s.achievable, competence=s.competence))
        epochs = map(floordiv, count(), repeat(cfg.scenario.trials_per_epoch))
        return zip(repeat(s.replication), count(1), epochs, s.state_key, s.goal,
                   s.achievable, s.achieved, s.reward, s.steps)

    with tempfile.TemporaryDirectory(prefix=".lightup-", dir=existing) as staging:
        with _replications(cfg) as runs:
            # Chained, not looped: no name holds a written series while the next one runs.
            _write_csv(staging, "trials.csv", ["replication", "trial", "epoch", "state_key", "goal",
                                               "achievable", "achieved", "reward", "steps"],
                       chain.from_iterable(map(trial_rows, runs)))
        write_outputs(cfg, cfg.out_dir, series, staging)
    return series


# -- CSV output ----------------------------------------------------------------


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_outputs(cfg: ExperimentConfig, out_dir: str, series: list[ReplicationSeries], staging: str) -> None:
    """Write the rest of the CSV set of ``cfg``'s replications into
    ``staging``, which holds their ``trials.csv``, aggregating them as it
    writes; byte-identical for identical config and seed. It reads each
    ``series``' ``replication``, ``competence`` and ``achievable`` only.

    Then it moves the files into ``out_dir`` one by one, ``run.yaml`` last,
    and deletes a ``values.csv`` (an older run's value dump) or
    ``curves.svg`` (``lightup plot``'s default output) there, so a
    directory holds one run's files.
    """
    points, labels = evaluation_points(cfg), cfg.scenario.labels
    _write_csv(staging, "competence.csv", ["replication", "trial_index", "goal", "competence"],
               ([s.replication, t, label, repr(v)]
                for s in series for t, row in zip(points, s.competence) for label, v in zip(labels, row)))
    _write_csv(staging, "wasted.csv", ["replication", "interval_end", "cumulative_wasted"],
               ([s.replication, t, s.achievable.count(0, 0, t)] for s in series for t in points[1:]))
    # One 1-D array per point and goal: a 2-D mean over axis 0 would sum
    # in another order and change the bits.
    _write_csv(staging, "competence_agg.csv", ["trial_index", "goal", "mean", "ci_low", "ci_high"],
               ([t, label, *map(repr, _mean_ci(np.array([s.competence[i][g] for s in series])))]
                for i, t in enumerate(points) for g, label in enumerate(labels)))
    _write_csv(staging, "wasted_agg.csv", ["interval_end", "mean", "ci_low", "ci_high"],
               ([t, *map(repr, _mean_ci(np.array([float(s.achievable.count(0, 0, t)) for s in series])))]
                for t in points[1:]))

    meta = config_to_dict(cfg)
    # Where the run was written and how it was parallelized do not affect the
    # results; leave them out so identical configs yield identical metadata.
    meta.pop("out_dir", None)
    meta.pop("jobs", None)
    with open(os.path.join(staging, "run.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(meta, fh, sort_keys=True)

    os.makedirs(out_dir, exist_ok=True)
    names = [name for name in os.listdir(staging) if name != "run.yaml"]
    for name in ("values.csv", "curves.svg"):
        if os.path.exists(stale := os.path.join(out_dir, name)):
            os.remove(stale)
    for name in names + ["run.yaml"]:
        os.replace(os.path.join(staging, name), os.path.join(out_dir, name))


# -- config files ----------------------------------------------------------------


def config_from_dict(data: Mapping) -> ExperimentConfig:
    """The config of a parsed mapping with no unknown key; the config casts and checks itself."""
    return ExperimentConfig(**check_keys("config", data, field_kinds(ExperimentConfig)))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {**asdict(cfg), "scenario": scenario_to_dict(cfg.scenario)}


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_yaml(path, "config"))



# -- replaying a run ---------------------------------------------------------------


def fold(run_dir: str):
    """Replay the selection side of the run in ``run_dir`` from its ``trials.csv``.

    For each replication of the directory's ``run.yaml`` it builds
    ``Simulation(cfg, replication)`` and feeds each trial row, in order, to
    ``selection_step``: the row's state (``WorldState.from_key_string``),
    goal and outcome, bootstrapping on the next row's state within an epoch
    and on none at an epoch's last trial, as ``run_trial`` does. It draws
    nothing. At each evaluation point after trial 0 it yields
    ``(replication, trial, sim)``: the replication's ``Simulation``, with
    the tables the run held then, until the generator resumes.

    Raises ConfigError naming the file and row when a row is malformed or
    out of place, when a replication is incomplete, or when a recomputed
    reward differs from the written one (compared as ``repr``).
    """
    cfg = load_config(os.path.join(run_dir, "run.yaml"))
    path = os.path.join(run_dir, "trials.csv")
    spec = cfg.scenario
    total, goals = spec.total_trials, {label: i for i, label in enumerate(spec.labels)}
    points = set(evaluation_points(cfg)[1:])
    reader = read_csv(path, ("replication", "trial", "state_key", "goal", "achieved", "reward"))
    n = 0
    for replication in range(cfg.replications):
        rows = []
        for trial in range(1, total + 1):
            n, row = next(reader, (n + 1, None))
            at = f"CSV {path} row {n}"
            if row is None:
                raise ConfigError(f"{at}: replication {replication} ends after "
                                  f"{trial - 1} of {total} trials")
            rep_text, trial_text, key_text, label, achieved, reward = row
            if (rep_text, trial_text) != (str(replication), str(trial)):
                raise ConfigError(f"{at}: replication {rep_text} trial {trial_text} where "
                                  f"replication {replication} trial {trial} belongs")
            if label not in goals:
                raise ConfigError(f"{at}: unknown goal {label!r}; goals are {list(goals)}")
            if achieved not in ("0", "1"):
                raise ConfigError(f"{at}: achieved must be 0 or 1, got {achieved!r}")
            try:
                state = WorldState.from_key_string(key_text)
            except ValueError as exc:
                raise ConfigError(f"{at}: {exc}") from None
            if len(state.sphere_on) != spec.n_goals:
                raise ConfigError(f"{at}: state key {key_text!r} is not {spec.n_goals} sphere bits")
            rows.append((at, state, goals[label], achieved == "1", reward))

        sim = Simulation(cfg, replication)
        keys = [sim.strategy.state_key(state) for _, state, _, _, _ in rows]
        for i, (at, _, goal, achieved, written) in enumerate(rows):
            last = i % spec.trials_per_epoch == spec.trials_per_epoch - 1
            reward = sim.selection_step(goal, keys[i], achieved, None if last else keys[i + 1])[1]
            if repr(reward) != written:
                raise ConfigError(f"{at}: reward {written} differs from the recomputed {reward!r}")
            if i + 1 in points:
                yield replication, i + 1, sim
    for n, _ in reader:  # a row past the last replication
        raise ConfigError(f"CSV {path} row {n}: a row after the last of "
                          f"{cfg.replications} replications of {total} trials")
