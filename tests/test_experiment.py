"""Trial loop, scheduling, metrics, aggregation, CSV output, reproducibility."""

import csv
import os
import re
import subprocess
import sys
import threading
from array import array
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
import yaml

import lightup
import lightup.cli
from lightup.arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward
from lightup.errors import ConfigError, NumericsError
from lightup.experiment import (
    ARMS,
    ArmBackend,
    ExperimentConfig,
    ReplicationSeries,
    Simulation,
    UniformBlock,
    _mean_ci,
    config_from_dict,
    config_to_dict,
    evaluation_points,
    load_config,
    run_experiment,
)
from lightup.motivation import AchievementPredictor
from lightup.skills import ActorCriticExpert
from lightup.world import BUILTIN_SCENARIOS, Goal, ScenarioSpec, WorldState, builtin_scenario, scenario_from_dict

from conftest import bits, expert_state, run_dir_bytes


def short_scenario(sid, trials):
    return replace(builtin_scenario(sid), total_trials=trials)


def small_cfg(sid=1, trials=300, **kw):
    kw.setdefault("replications", 2)
    kw.setdefault("eval_interval", 50)
    return ExperimentConfig(scenario=short_scenario(sid, trials), **kw)


# -- config ---------------------------------------------------------------------


def test_unknown_system_rejected():
    with pytest.raises(ConfigError, match="grail"):
        ExperimentConfig(system="sarsa")


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="backend"):
        ExperimentConfig(backend="tabular")


def test_config_holds_its_validated_scenario(tmp_path):
    # Every way of naming a scenario gives the same spec at construction.
    spec = builtin_scenario(3)
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(BUILTIN_SCENARIOS[3]))
    for ref in (3, "3", str(path), BUILTIN_SCENARIOS[3], spec):
        assert ExperimentConfig(scenario=ref).scenario == spec
    with pytest.raises(ConfigError, match="cannot interpret"):
        ExperimentConfig(scenario=3.0)
    # The fields are checked before the scenario. An invalid spec cannot be
    # built, so the bad scenario comes as a mapping.
    with pytest.raises(ConfigError, match="eval_trials"):
        ExperimentConfig(scenario={**BUILTIN_SCENARIOS[3], "total_trials": 100}, eval_trials=0)
    with pytest.raises(ConfigError, match="divisible"):
        ExperimentConfig(scenario={**BUILTIN_SCENARIOS[3], "total_trials": 100})


def test_sections_given_as_mappings_build_the_config_a_file_builds():
    sections = {"arm": {"max_step": 0.1}, "actor_critic": {"hidden_units": 8, "critic_lr": 1}}
    cfg = ExperimentConfig(**sections)
    assert cfg == config_from_dict(sections)
    assert cfg.arm == ArmConfig(max_step=0.1) and cfg.arm.max_reach == 1.0
    assert cfg.actor_critic.critic_lr == 1.0 and type(cfg.actor_critic.critic_lr) is float


def test_goal_records_in_a_scenario_mapping_are_sent_to_a_scenario_spec():
    # A scenario mapping names its goals by label, as a file does.
    goals = [Goal("a", (0, 0.6))]
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig(scenario={"goals": goals})
    assert str(caught.value) == "scenario goals in a mapping are labels; Goal records go in a ScenarioSpec"
    assert ExperimentConfig(scenario=ScenarioSpec(goals=goals)).scenario.goals == (Goal("a", (0.0, 0.6)),)


def test_python_config_fields_are_cast_as_a_file_casts_them(tmp_path):
    with pytest.raises(ConfigError, match="clip_reward must be true or false, got 'no'"):
        ExperimentConfig(clip_reward="no")
    # numpy booleans and 1-D arrays read as the booleans and lists a file gives.
    with pytest.raises(ConfigError, match="clip_reward must be true or false, got np.float64"):
        ExperimentConfig(clip_reward=np.float64(1.0))
    with pytest.raises(ConfigError, match="arm.link_lengths must be a list of numbers, got array"):
        ExperimentConfig(arm={"link_lengths": np.full((4, 1), 0.25)})
    cfg = ExperimentConfig(scenario=short_scenario(1, 20), replications=np.int64(2), seed=np.int64(3),
                           eval_interval=np.int32(10), predictor_eta=np.float64(0.2), out_dir=tmp_path / "run",
                           clip_reward=np.True_, arm={"link_lengths": np.array([0.25] * 4)})
    for name in ("replications", "seed", "eval_interval"):
        assert type(getattr(cfg, name)) is int
    assert type(cfg.predictor_eta) is float and cfg.out_dir == str(tmp_path / "run")
    assert cfg.clip_reward is True and cfg.arm == ArmConfig(link_lengths=(0.25,) * 4)
    assert list(map(type, cfg.arm.link_lengths)) == [float] * 4
    run_experiment(cfg)
    meta = yaml.safe_load((tmp_path / "run" / "run.yaml").read_text())
    assert (meta["replications"], meta["seed"], meta["eval_interval"]) == (2, 3, 10)
    assert meta["clip_reward"] is True and meta["arm"]["link_lengths"] == [0.25] * 4


def test_python_built_run_reruns_from_its_own_run_yaml(tmp_path):
    # Mapping goals with numpy positions and indices are cast when the spec is
    # built, so run.yaml holds plain values and reads back as the same config.
    goals = ({"label": "a", "position": np.array([0.0, 0.6])},
             {"label": "b", "position": np.array([0.3, 0.5]), "requires_on": np.array([0])},
             {"label": "c", "position": np.array([-0.3, 0.5]), "requires_context": np.float64(1.0)})
    spec = ScenarioSpec(goals=goals, context_prob_on=0.5, total_trials=20, context_mode="full_state")
    cfg = ExperimentConfig(scenario=spec, system="m_grail", replications=2, eval_interval=10,
                           out_dir=str(tmp_path / "first"), jobs=2)
    run_experiment(cfg)
    again = load_config(str(tmp_path / "first" / "run.yaml"))
    assert again == replace(cfg, out_dir=None, jobs=1)
    run_experiment(replace(again, out_dir=str(tmp_path / "second")))
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second")) and "trials.csv" in names
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes(), name


def test_scenario_spec_casts_its_scalars():
    assert replace(builtin_scenario(1), total_trials="60").total_trials == 60
    with pytest.raises(ConfigError, match="total_trials must be an integer, got 'abc'"):
        replace(builtin_scenario(1), total_trials="abc")


def test_per_system_temperature_defaults():
    assert ExperimentConfig(system="grail").resolved_temperature() == 0.01
    assert ExperimentConfig(system="c_grail").resolved_temperature() == 0.01
    assert ExperimentConfig(system="m_grail").resolved_temperature() == 0.001
    assert ExperimentConfig(system="m_grail", temperature=0.5).resolved_temperature() == 0.5


def test_config_roundtrip_through_dict():
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=9, replications=4)
    again = config_from_dict(config_to_dict(cfg))
    assert again.system == "m_grail" and again.seed == 9 and again.replications == 4
    assert again.scenario.name == "interrelated_chains"


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="^config: unknown key 'learning_speed'; valid keys: "):
        config_from_dict({"scenario": 1, "learning_speed": 3})


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": 2, "system": "c_grail", "replications": 3}))
    cfg = load_config(str(path))
    assert cfg.system == "c_grail" and cfg.replications == 3


def test_load_config_with_inline_scenario(tmp_path):
    data = {
        "scenario": {
            "goals": ["a", "b"],
            "total_trials": 100,
            "rules": [{"goal": "b", "requires_on": ["a"]}],
        },
        "system": "m_grail",
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    spec = load_config(str(path)).scenario
    assert spec.n_goals == 2
    assert spec.goals[1].requires_on == frozenset({0})


# -- trial loop -----------------------------------------------------------------


def test_trial_counts_match_schedule():
    for sid, total in ((1, 3000), (2, 4000), (3, 6000)):
        cfg = ExperimentConfig(scenario=sid, replications=1, seed=0)
        series = Simulation(cfg).run()
        # Entry i of every column is trial i + 1, so the last one is trial ``total``.
        columns = (series.state_key, series.goal, series.achievable, series.achieved,
                   series.reward, series.steps)
        assert [len(column) for column in columns] == [total] * len(columns)


def test_achieved_implies_achievable_across_systems():
    for system in ("grail", "c_grail", "m_grail"):
        for sid in (1, 2, 3):
            cfg = small_cfg(sid, 600, system=system, seed=3)
            series = Simulation(cfg).run()
            assert len(series.achieved) == len(series.achievable) == 600
            for achievable, achieved in zip(series.achievable, series.achieved):
                assert not (achieved and not achievable)


def test_per_epoch_reset_boundaries(tmp_path):
    # The epoch is derived when trials.csv is written, so read it there.
    cfg = small_cfg(3, 300, system="m_grail", seed=1, out_dir=str(tmp_path))
    run_experiment(cfg)
    with open(tmp_path / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 300
    for row in rows:
        trial = int(row["trial"])
        if (trial - 1) % 3 == 0:  # first trial of an epoch
            assert row["state_key"].startswith("000000")
        assert int(row["epoch"]) == (trial - 1) // 3


def test_per_trial_reset_gives_fresh_state_every_trial():
    cfg = small_cfg(1, 200, seed=2)
    series = Simulation(cfg).run()
    assert len(series.state_key) == 200
    assert all(key.startswith("000000") for key in series.state_key)


def test_per_trial_reset_refuses_longer_epochs():
    # A per_trial scenario resets before every trial, so its epochs are one trial long.
    message = ("reset_policy per_trial needs trials_per_epoch 1, got 3; "
               "for longer epochs set reset_policy: per_epoch")
    with pytest.raises(ConfigError) as caught:
        replace(short_scenario(3, 300), reset_policy="per_trial")
    assert str(caught.value) == message
    data = {**BUILTIN_SCENARIOS[3], "reset_policy": "per_trial"}
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig(scenario=data)
    assert str(caught.value) == message


def test_epoch_state_persists_within_epoch():
    cfg = small_cfg(3, 3000, system="m_grail", replications=1, seed=4)
    series = Simulation(cfg).run()
    # Entry i is trial i + 1: the next trial, i + 2, is mid-epoch unless it starts one.
    achieved_mid_epoch = [
        i for i in range(len(series.achieved) - 1)
        if series.achieved[i] and (i + 2) % 3 != 1
    ]
    assert achieved_mid_epoch, "expected at least one mid-epoch achievement"
    for i in achieved_mid_epoch:
        assert series.state_key[i + 1].count("1") >= 1


def test_mgrail_selecting_chain_end_on_fresh_epoch_is_wasted_with_zero_reward():
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=0)
    sim = Simulation(cfg)
    # Find a fresh-epoch trial where the stock selector picked the chain end e.
    series = sim.series
    for _ in range(3000):
        sim.run_trial()
        if series.goal[-1] == "e" and series.state_key[-1] == "000000/0":
            break
    else:
        raise AssertionError("no fresh-epoch trial selected e")
    assert series.achievable[-1] == 0 and series.achieved[-1] == 0 and series.reward[-1] == 0.0


def test_gate_blocks_expert_learning_in_context_systems(monkeypatch):
    # A c_grail trial whose learning gate is closed changes no expert and no
    # arm selector's success EMA, to the bit. The trial checked is one whose
    # goal has a success on record with both arms, which an update of
    # either arm's EMA with the miss would decay.
    gates = []
    learning_gate = AchievementPredictor.learning_gate

    def recorded(self, *args):
        gates.append(learning_gate(self, *args))
        return gates[-1]

    monkeypatch.setattr(AchievementPredictor, "learning_gate", recorded)
    sim = Simulation(ExperimentConfig(scenario=3, system="c_grail"))
    for _ in range(sim.spec.total_trials):
        experts = [[expert_state(e) for e in pair] for pair in sim.experts]
        emas = [bits(s.success_ema) for s in sim.selectors]
        gates.clear()
        sim.run_trial()
        goal = sim.spec.labels.index(sim.series.goal[-1])
        if gates == [False] and min(sim.selectors[goal].success_ema) > 0.0:
            break
    else:
        raise AssertionError("no trial of a goal with two trained arms was gated off")
    assert [[expert_state(e) for e in pair] for pair in sim.experts] == experts
    assert [bits(s.success_ema) for s in sim.selectors] == emas


def test_grail_has_no_gate_and_erodes_on_wasted_trials():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=5)
    spec = cfg.scenario
    sim = Simulation(cfg)
    goal = 0
    for pair in sim.experts:
        for e in pair:
            e.competence = 0.8
    state = WorldState(sphere_on=(False,) * 6, context_feature=0.0)  # wrong cf for goal a
    sim.state = state
    assert not spec.is_achievable(goal, state)
    # Drive the private pieces directly: a wasted grail trial must erode.
    arm = sim.selectors[goal].select(sim.rng)
    expert = sim.experts[goal][arm]
    expert.learn(achieved=False, achievable=False, gate=True)
    assert expert.competence < 0.8


# -- competence measurement -------------------------------------------------------


def test_untrained_competence_is_init_constant():
    cfg = small_cfg(1, 100)
    spec = cfg.scenario
    sim = Simulation(cfg)
    for goal in range(spec.n_goals):
        assert sim.measure_competence(goal) == pytest.approx(0.02)


def test_trained_competence_reads_greedy_arm():
    cfg = small_cfg(1, 100)
    sim = Simulation(cfg)
    sim.experts[0][1].competence = 1.0
    sim.selectors[0].update(1, True)
    assert sim.measure_competence(0) == 1.0


# -- wasted counting ----------------------------------------------------------------


def test_scenario1_has_zero_wasted_trials():
    cfg = small_cfg(1, 500, replications=1)
    series = Simulation(cfg).run()
    assert len(series.achievable) == 500
    assert series.achievable.count(0) == 0


def test_scenario2_grail_wastes_about_half_early():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=11)
    series = Simulation(cfg).run()
    early = series.achievable.count(0, 0, 400)
    # Context-blind selection over balanced contexts wastes ~half.
    assert 120 <= early <= 280


# -- evaluation schedule -------------------------------------------------------------


@pytest.mark.parametrize("trials, interval, points", [
    (3000, 50, list(range(0, 3001, 50))),
    (603, 50, list(range(0, 601, 50)) + [603]),
    (1, 1, [0, 1]),
    (30, 50, [0, 30]),
    (230, 50, [0, 50, 100, 150, 200, 230]),
])
def test_evaluation_points_are_trial_0_every_interval_and_the_last_trial(trials, interval, points):
    assert evaluation_points(small_cfg(1, trials, eval_interval=interval)) == points


# -- aggregation and output ------------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_experiment_aggregates_shapes(tmp_path):
    cfg = small_cfg(1, 200, replications=3, seed=10, out_dir=str(tmp_path))
    assert len(run_experiment(cfg)) == 3
    rows = read_csv(tmp_path / "competence_agg.csv")
    eval_points = {int(row["trial_index"]) for row in rows}
    assert eval_points == {0, 50, 100, 150, 200}
    labels = {row["goal"] for row in rows}
    assert labels == set("abcdef")


def test_run_experiment_refuses_an_out_of_reach_sphere_before_any_trial(tmp_path, monkeypatch):
    def no_trial(self):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(Simulation, "run_trial", no_trial)
    far = scenario_from_dict({"goals": ["a", "b"], "positions": {"a": [0.0, 0.6], "b": [5.0, 5.0]},
                              "total_trials": 10})
    out = tmp_path / "run"
    with pytest.raises(ConfigError) as caught:
        run_experiment(ExperimentConfig(scenario=far, out_dir=str(out)))
    assert str(caught.value) == "sphere(s) outside arm reach: b"
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_run_experiment_refuses_an_out_dir_that_cannot_be_a_directory_before_any_trial(
        tmp_path, monkeypatch, where):
    def no_trial(self):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(Simulation, "run_trial", no_trial)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "sub"
    with pytest.raises(NotADirectoryError):
        run_experiment(ExperimentConfig(scenario=1, replications=3, out_dir=str(out)))
    assert blocker.read_text() == "not a directory\n"
    assert os.listdir(tmp_path) == ["file"]


@pytest.mark.parametrize("sid, system", [(1, "grail"), (2, "c_grail"), (3, "m_grail"), (3, "c_grail")])
def test_idealized_trial_keys_its_state_once(sid, system, monkeypatch):
    """One key serves selection and the predictor; the post-trial state is
    keyed too within an epoch, the only place an update may bootstrap."""
    import lightup.motivation
    import lightup.selection
    from lightup.world import state_key

    calls = []

    def counted(state, mode):
        calls.append(mode)
        return state_key(state, mode)

    monkeypatch.setattr(lightup.selection, "state_key", counted)
    monkeypatch.setattr(lightup.motivation, "state_key", counted)
    cfg = ExperimentConfig(scenario=short_scenario(sid, 300), system=system, seed=5)
    sim = Simulation(cfg)
    per_trial = []
    for _ in range(300):
        before = len(calls)
        sim.run_trial()
        per_trial.append(len(calls) - before)
    if sid == 3:
        per_epoch = sim.spec.trials_per_epoch
        assert per_epoch > 1
        assert per_trial == [1 if t % per_epoch == 0 else 2 for t in range(1, 301)]
    else:
        assert per_trial == [1] * 300


def test_aggregate_ci_matches_hand_computation(tmp_path):
    cfg = small_cfg(1, 100, replications=4, seed=20, out_dir=str(tmp_path))
    series = run_experiment(cfg)
    finals = np.array([s.competence[-1][cfg.scenario.labels.index("a")] for s in series])
    row = next(r for r in read_csv(tmp_path / "competence_agg.csv")
               if r["trial_index"] == "100" and r["goal"] == "a")
    mean, lo, hi = (float(row[name]) for name in ("mean", "ci_low", "ci_high"))
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert mean == pytest.approx(finals.mean())
    assert lo == pytest.approx(finals.mean() - 1.96 * se)
    assert hi == pytest.approx(finals.mean() + 1.96 * se)


def test_agg_rows_are_per_point_means_of_the_replication_rows(tmp_path):
    # 603 trials: evaluation points every 50 trials plus a last one at 603.
    # Each written aggregate row is its key, then the repr of each _mean_ci
    # value over the per-replication rows read back from the written files.
    run_experiment(small_cfg(3, 603, replications=3, seed=11, system="m_grail", out_dir=str(tmp_path)))

    def agg_text(header, groups):
        rows = [header] + [[*key, *map(repr, _mean_ci(np.array(v)))] for key, v in groups.items()]
        return "".join(",".join(row) + "\n" for row in rows)

    competence = defaultdict(list)
    for row in read_csv(tmp_path / "competence.csv"):
        competence[row["trial_index"], row["goal"]].append(float(row["competence"]))
    assert list(competence)[-7:] == [("600", "f")] + [("603", lab) for lab in "abcdef"]
    assert (tmp_path / "competence_agg.csv").read_text() == agg_text(
        ["trial_index", "goal", "mean", "ci_low", "ci_high"], competence)
    wasted = defaultdict(list)
    for row in read_csv(tmp_path / "wasted.csv"):
        wasted[(row["interval_end"],)].append(float(row["cumulative_wasted"]))
    assert list(wasted)[-2:] == [("600",), ("603",)]
    assert (tmp_path / "wasted_agg.csv").read_text() == agg_text(
        ["interval_end", "mean", "ci_low", "ci_high"], wasted)


def test_csv_outputs_and_columns(tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg(1, 100, replications=2, seed=30, out_dir=str(out))
    run_experiment(cfg)
    def header(name):
        return (out / name).read_text().splitlines()[0]
    assert header("trials.csv") == "replication,trial,epoch,state_key,goal,achievable,achieved,reward,steps"
    assert header("competence.csv") == "replication,trial_index,goal,competence"
    assert header("wasted.csv") == "replication,interval_end,cumulative_wasted"
    assert header("competence_agg.csv") == "trial_index,goal,mean,ci_low,ci_high"
    assert header("wasted_agg.csv") == "interval_end,mean,ci_low,ci_high"
    assert sorted(os.listdir(out)) == ["competence.csv", "competence_agg.csv", "run.yaml", "trials.csv",
                                       "wasted.csv", "wasted_agg.csv"]
    n_rows = len((out / "trials.csv").read_text().splitlines()) - 1
    assert n_rows == 2 * 100


def test_failing_write_leaves_out_dir_as_it_was(tmp_path, monkeypatch):
    # A run whose output fails part-way (here the third CSV, after the
    # streamed trials.csv and competence.csv) changes no file of the run
    # directory it would have replaced, and leaves no temporary directory beside it.
    import lightup.experiment

    out = tmp_path / "run"
    run_experiment(small_cfg(1, 100, replications=1, seed=3, out_dir=str(out)))
    before = run_dir_bytes(out)
    write_csv = lightup.experiment._write_csv
    written = []

    def failing_write_csv(out_dir, name, header, rows):
        if len(os.listdir(out_dir)) == 2:
            written.extend(sorted(os.listdir(out_dir)))
            raise OSError("disk full")
        write_csv(out_dir, name, header, rows)

    monkeypatch.setattr(lightup.experiment, "_write_csv", failing_write_csv)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(small_cfg(1, 100, replications=1, seed=4, out_dir=str(out)))
    assert written == ["competence.csv", "trials.csv"]
    assert run_dir_bytes(out) == before
    assert os.listdir(tmp_path) == ["run"]


@pytest.mark.parametrize("error, jobs", [(NumericsError, 1), (NumericsError, 2), (KeyboardInterrupt, 1)])
@pytest.mark.parametrize("older", [False, True, "nested"])
def test_a_run_that_dies_mid_way_leaves_nothing_half_written(tmp_path, monkeypatch, error, jobs, older):
    # Replication 1 of 3 raises after replication 0's rows were streamed to
    # the temporary trials.csv: the run directory is absent, or holds the
    # older run written there first, and no temporary directory is left. A
    # run into a missing a/b/run makes neither a nor b.
    out = tmp_path / "a" / "b" / "run" if older == "nested" else tmp_path / "run"
    cfg = small_cfg(1, 100, replications=3, seed=4, jobs=jobs, out_dir=str(out))
    if older is True:
        run_experiment(replace(cfg, seed=3))
        before = run_dir_bytes(out)
    run = Simulation.run

    def dies_in_replication_1(self):
        if self.series.replication == 1:
            raise error("replication 1 died")
        return run(self)

    monkeypatch.setattr(Simulation, "run", dies_in_replication_1)  # forked workers inherit it
    with pytest.raises(error, match="replication 1 died"):
        run_experiment(cfg)
    assert os.listdir(tmp_path) == (["run"] if older is True else [])
    if older is True:
        assert run_dir_bytes(out) == before


def test_run_experiment_refuses_a_config_without_out_dir_before_any_trial(tmp_path, monkeypatch):
    def no_trial(self):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(Simulation, "run_trial", no_trial)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as caught:
        run_experiment(ExperimentConfig(scenario=1))
    assert str(caught.value) == "no output directory: pass --out or set $LIGHTUP_OUT"
    assert os.listdir(tmp_path) == []


def test_rerun_replaces_the_whole_run_directory(tmp_path):
    # A rerun deletes the values.csv an older run dumped there, and the
    # curves.svg that ``lightup plot`` wrote there by default, so no file
    # left in the directory contradicts its run.yaml.
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    run_experiment(small_cfg(1, 100, replications=1, seed=3, out_dir=str(out)))
    assert lightup.cli.main(["plot", str(out)]) == 0
    (out / "values.csv").write_text("replication,trial,state_key,goal,value\n0,100,0,a,0.0\n")
    assert (out / "values.csv").exists() and (out / "curves.svg").exists()
    run_experiment(small_cfg(1, 100, replications=1, seed=4, out_dir=str(out)))
    run_experiment(small_cfg(1, 100, replications=1, seed=4, out_dir=str(fresh)))
    assert run_dir_bytes(out) == run_dir_bytes(fresh)
    assert "values.csv" not in run_dir_bytes(out)
    assert sorted(os.listdir(tmp_path)) == ["fresh", "run"]


def test_bitwise_reproducibility(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        cfg = small_cfg(2, 200, system="c_grail", replications=2, seed=77, out_dir=str(out))
        run_experiment(cfg)
        outs.append(out)
    for fname in ("trials.csv", "competence.csv", "wasted.csv",
                  "competence_agg.csv", "wasted_agg.csv", "run.yaml"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_progress_prints_one_line_per_replication(tmp_path, capfd):
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    run_experiment(small_cfg(3, 120, system="m_grail", seed=8, out_dir=str(quiet)))
    capfd.readouterr()
    cfg = small_cfg(3, 120, system="m_grail", seed=8, out_dir=str(loud))
    series = run_experiment(cfg)
    lines = capfd.readouterr().err.splitlines()
    expected = [f"replication {s.replication} of 2: "
                f"mean competence {sum(s.competence[-1]) / len(s.competence[-1]):.3f}, "
                f"cumulative waste {s.achievable.count(0)}, " for s in series]
    assert len(lines) == len(expected) == 2
    for line, start in zip(lines, expected):
        assert re.fullmatch(re.escape(start) + r"\d+\.\d s", line), line
    assert sorted(os.listdir(quiet)) == sorted(os.listdir(loud))
    for name in os.listdir(quiet):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_different_seed_changes_output(tmp_path):
    texts = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        cfg = small_cfg(1, 200, replications=1, seed=seed, out_dir=str(out))
        run_experiment(cfg)
        texts.append((out / "trials.csv").read_text())
    assert texts[0] != texts[1]


def test_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = dict(scenario=short_scenario(2, 200), system="c_grail", replications=3, seed=5)
    run_experiment(ExperimentConfig(out_dir=str(serial), jobs=1, **base))
    run_experiment(ExperimentConfig(out_dir=str(parallel), jobs=3, **base))
    assert (serial / "trials.csv").read_bytes() == (parallel / "trials.csv").read_bytes()


def test_jobs_above_replications_starts_one_worker_per_replication(tmp_path, monkeypatch):
    # The pool is faked, so no process starts: it records its process
    # count and maps inline.
    import multiprocessing

    recorded = []

    class InlinePool:
        def __init__(self, processes):
            recorded.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=None):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    base = dict(scenario=short_scenario(3, 150), system="m_grail", replications=2, seed=4)
    run_experiment(ExperimentConfig(out_dir=str(serial), jobs=1, **base))
    assert recorded == []
    run_experiment(ExperimentConfig(out_dir=str(parallel), jobs=8, **base))
    assert recorded == [2]
    assert sorted(os.listdir(serial)) == sorted(os.listdir(parallel))
    for name in os.listdir(serial):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


# Sends this process a Ctrl-C once the pool has started its workers, then
# sleeps, so the interrupt is raised before Pool() returns. SIGINT is blocked
# in the main thread then, so the kernel hands it to another thread, as it
# does to numpy's OpenBLAS threads in a run; the idle thread stands in for them.
INTERRUPTED_POOL_START = """
import multiprocessing, os, signal, sys, threading, time
from dataclasses import replace
from multiprocessing.pool import Pool
from lightup.experiment import ExperimentConfig, run_experiment
from lightup.world import builtin_scenario

start = Pool._repopulate_pool

def interrupted_start(self):
    start(self)
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.5)

Pool._repopulate_pool = interrupted_start
threading.Thread(target=threading.Event().wait, daemon=True).start()
try:
    run_experiment(ExperimentConfig(scenario=replace(builtin_scenario(1), total_trials=50),
                                    replications=2, jobs=2, out_dir=sys.argv[1]))
except KeyboardInterrupt:
    print("workers alive:", len(multiprocessing.active_children()))
"""


def test_ctrl_c_while_the_pool_starts_leaves_no_worker_alive(tmp_path):
    src = os.path.dirname(os.path.dirname(lightup.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", INTERRUPTED_POOL_START, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "workers alive: 0\n", done.stderr
    assert os.listdir(tmp_path) == []


def test_parallel_run_from_a_thread_matches_serial(tmp_path):
    # Only the main thread may set a signal handler: a run started from
    # another thread starts its pool without one.
    cfg = small_cfg(2, 100, system="c_grail", seed=3, jobs=2, out_dir=str(tmp_path / "thread"))
    results = []
    thread = threading.Thread(target=lambda: results.append(run_experiment(cfg)))
    thread.start()
    thread.join(timeout=60)
    assert len(results) == 1
    assert results[0] == run_experiment(replace(cfg, jobs=1, out_dir=str(tmp_path / "serial")))
    assert run_dir_bytes(tmp_path / "thread") == run_dir_bytes(tmp_path / "serial")
    assert sorted(os.listdir(tmp_path)) == ["serial", "thread"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_trials_csv_rows_are_the_trial_records_of_run_trial(tmp_path, jobs):
    # trial, epoch and replication are derived when the columns are written;
    # each row must be the trial that run_trial appended to its replication's
    # series, in the same order, with trial, epoch and replication derived here.
    # 603 trials: the last evaluation point is off the 50-trial interval.
    cfg = small_cfg(3, 603, system="m_grail", seed=8, jobs=jobs, out_dir=str(tmp_path))
    run_experiment(cfg)
    with open(tmp_path / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    expected = [["replication", "trial", "epoch", "state_key", "goal",
                 "achievable", "achieved", "reward", "steps"]]
    per_epoch = cfg.scenario.trials_per_epoch
    for rep in range(cfg.replications):
        s = Simulation(cfg, rep).run()
        assert s.replication == rep
        columns = zip(s.state_key, s.goal, s.achievable, s.achieved, s.reward, s.steps, strict=True)
        for i, (key, goal, achievable, achieved, reward, steps) in enumerate(columns):
            expected.append([str(rep), str(i + 1), str(i // per_epoch), key, goal,
                             str(achievable), str(achieved), repr(reward), str(steps)])
    assert len(rows) == 1 + 2 * 603
    assert rows == expected
    # Each wasted.csv row is the number of unachievable trials.csv rows of
    # its replication up to its interval end.
    wasted = read_csv(tmp_path / "wasted.csv")
    ends = evaluation_points(cfg)[1:]
    assert ends[-2:] == [600, 603]
    assert [(row["replication"], int(row["interval_end"])) for row in wasted] == [
        (str(rep), end) for rep in range(cfg.replications) for end in ends]
    for row in wasted:
        assert int(row["cumulative_wasted"]) == sum(
            1 for r in rows[1:]
            if r[0] == row["replication"] and int(r[1]) <= int(row["interval_end"]) and r[5] == "0")


@pytest.mark.parametrize("jobs", [1, 2])
def test_replication_r_is_seeded_by_the_config_seed_plus_r(jobs, tmp_path):
    # Simulation(cfg, r) runs replication r of run_experiment(cfg), in a
    # worker process or not, from the generator of seed cfg.seed + r. The run
    # returns each replication's series, in order, with its replication,
    # competence and achievable, and its trials.csv holds the other columns.
    cfg = small_cfg(2, 200, system="c_grail", replications=3, seed=7, jobs=jobs, out_dir=str(tmp_path / "run"))
    series = [Simulation(cfg, r).run() for r in range(3)]
    assert len(series) == 3 and series[0] != replace(series[1], replication=0)
    assert [s.replication for s in series] == [0, 1, 2]
    for r in range(3):
        shifted = replace(cfg, seed=cfg.seed + r)
        assert replace(Simulation(shifted).run(), replication=r) == series[r]
    written = run_experiment(cfg)
    assert written == [ReplicationSeries(s.replication, achievable=s.achievable, competence=s.competence)
                       for s in series]
    assert os.listdir(tmp_path) == ["run"]
    assert len(run_dir_bytes(tmp_path / "run")) == 6
    with open(tmp_path / "run" / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[str(s.replication), str(i + 1), str(i // cfg.scenario.trials_per_epoch), *map(str, row[:4]),
                     repr(row[4]), str(row[5])]
                    for s in series
                    for i, row in enumerate(zip(s.state_key, s.goal, s.achievable, s.achieved, s.reward, s.steps,
                                                strict=True))]


def test_run_trial_appends_to_every_column_and_run_returns_the_series():
    cfg = small_cfg(3, 42, system="m_grail", seed=2)
    sim = Simulation(cfg, 4)
    series = sim.series
    columns = (series.state_key, series.goal, series.achievable, series.achieved,
               series.reward, series.steps)
    assert series == ReplicationSeries(4)
    assert [type(c) for c in columns[:4]] == [list, list, bytearray, bytearray]
    assert (series.reward.typecode, series.steps.typecode) == ("d", "q")
    for k in range(1, 8):
        assert sim.run_trial() is None
        assert [len(c) for c in columns] == [k] * 6
    assert not hasattr(sim, "trial")

    fresh = Simulation(cfg, 4)
    assert fresh.run() is fresh.series
    # One competence row of doubles per evaluation point, trial 0 and 42, in goal order.
    assert len(fresh.series.competence) == len(evaluation_points(cfg)) == 2
    assert fresh.series.competence[-1] == array("d", [fresh.measure_competence(g) for g in range(6)])
    assert [len(c) for c in (fresh.series.goal, fresh.series.steps)] == [42, 42]
    assert fresh.series.goal[:7] == series.goal and fresh.series.reward[:7] == series.reward


def test_uniform_block_gives_the_scalar_draws_of_its_generator():
    n = 3 * UniformBlock.SIZE + 7  # three refills after the first block
    block = UniformBlock(np.random.default_rng(11))
    scalar = np.random.default_rng(11)
    drawn = [block.random() for _ in range(n)]
    assert all(type(x) is float for x in drawn)
    assert [x.hex() for x in drawn] == [float(scalar.random()).hex() for _ in range(n)]


def test_only_the_idealized_backend_draws_from_a_uniform_block():
    spec = replace(builtin_scenario(1), total_trials=6)
    assert isinstance(Simulation(ExperimentConfig(scenario=spec)).rng, UniformBlock)
    ac = Simulation(ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=5))
    assert isinstance(ac.rng, np.random.Generator)


def test_a_replication_keeps_its_trials_in_under_100_bytes_each():
    import tracemalloc

    cfg = ExperimentConfig(scenario=3, system="m_grail", replications=1, seed=0)
    tracemalloc.start()
    try:
        sim = Simulation(cfg)
        before = tracemalloc.get_traced_memory()[0]
        series = sim.run()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(series.goal) == 6000
    assert kept / 6000 <= 100  # one record object per trial kept 191


def test_a_run_keeps_its_competence_in_under_30_bytes_per_value(tmp_path):
    # run_experiment keeps each finished replication's competence rows until
    # it has written the aggregates. Releasing the rows it returned frees
    # what they held: about 25 bytes per value, where rows of float objects
    # freed about 38 (a goal's competence before its first update is the
    # config's own float object, which stays).
    import tracemalloc

    cfg = ExperimentConfig(scenario=3, system="m_grail", replications=1, seed=0, out_dir=str(tmp_path / "run"))
    tracemalloc.start()
    try:
        (series,) = run_experiment(cfg)
        assert len(series.competence) * len(series.competence[0]) == len(evaluation_points(cfg)) * 6 == 726
        assert all(type(row) is array and row.typecode == "d" for row in series.competence)
        held = tracemalloc.get_traced_memory()[0]
        series.competence = []
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / 726 <= 30


def test_a_writing_run_holds_one_replication_at_a_time(tmp_path):
    # Each replication's trial columns are written to trials.csv and released
    # before the next one runs: of each further replication only achievable
    # (1 byte per trial) and the competence rows (about 5) stay, beside about
    # 137 kB that the open trials.csv writer keeps; about 9 bytes per trial in
    # all. Holding every replication's columns until the end kept about 54.
    import tracemalloc

    def peak(replications):
        cfg = ExperimentConfig(scenario=3, system="m_grail", replications=replications, seed=0,
                               out_dir=str(tmp_path / str(replications)))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(1), peak(8)
    assert (eight - one) / (7 * 6000) <= 16


# -- actor-critic integration --------------------------------------------------------


def test_actor_critic_backend_trial_records():
    spec = replace(builtin_scenario(1), total_trials=6)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40,
                           replications=1, eval_interval=6, eval_trials=2)
    sim = Simulation(cfg)
    for _ in range(6):
        sim.run_trial()
        assert 1 <= sim.series.steps[-1] <= 40
        assert sim.series.achievable[-1]  # scenario 1: everything always achievable


def test_actor_critic_rollout_trajectory_is_unbroken():
    # ActorCriticExpert.learn bootstraps step i from the features step i + 1
    # carries, so every training rollout, ending on a touch or on timeout,
    # must record each step's features at the posture the previous step's
    # action led to. An evaluation rollout feeds no learner, so it records
    # no trajectory.
    spec = scenario_from_dict({
        "name": "near_home", "goals": ["a"], "positions": {"a": [0.97, 0.1]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1, seed=3)
    sim = Simulation(cfg)
    endings = set()
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for _ in range(3):
            _, achieved, steps, traj = sim.backend.rollout(0, arm_index, expert, sim.state, explore=True)
            assert len(traj) == steps
            joints = home_joints(cfg.arm)
            for feat, action in traj:
                assert np.array_equal(feat, expert.features(joints))
                joints = step_toward(joints, action, cfg.arm)
            endings.add(achieved)
        assert sim.backend.rollout(0, arm_index, expert, sim.state)[3] is None
    assert endings == {True, False}


def test_actor_critic_training_trajectory_is_steps_pairs(monkeypatch):
    # A training rollout hands learn one (features, action) pair per arm
    # step, and whether the trial achieved its goal as the success flag.
    spec = scenario_from_dict({
        "name": "near_home", "goals": ["a"], "positions": {"a": [0.97, 0.1]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 12,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1, seed=3)
    sim = Simulation(cfg)
    calls = []
    learn = ActorCriticExpert.learn

    def recorded(self, trajectory, success, *, gate):
        calls.append((trajectory, success))
        learn(self, trajectory, success, gate=gate)

    monkeypatch.setattr(ActorCriticExpert, "learn", recorded)
    outcomes = set()
    for _ in range(12):
        calls.clear()
        sim.run_trial()
        [(traj, success)] = calls
        assert success is bool(sim.series.achieved[-1])
        assert len(traj) == sim.series.steps[-1]
        for step in traj:
            assert type(step) is tuple and len(step) == 2
            feat, action = step
            assert feat.shape == (cfg.actor_critic.hidden_units,) and len(action) == 4
        outcomes.add(success)
    assert outcomes == {True, False}


def count_features(monkeypatch) -> list:
    """Patch ActorCriticExpert.features to append to the returned list on every call."""
    calls = []
    features = ActorCriticExpert.features

    def counted(self, joints):
        calls.append(1)
        return features(self, joints)

    monkeypatch.setattr(ActorCriticExpert, "features", counted)
    return calls


def trained_looking_actor(expert, seed):
    """Give an expert nonzero actor heads by assigning them directly."""
    rng = np.random.default_rng(seed)
    expert.w_actor = rng.normal(0.0, 0.5, expert.w_actor.shape)
    expert.b_actor = rng.normal(0.0, 0.5, expert.b_actor.shape)


def test_actor_critic_rollout_computes_features_once_per_step(monkeypatch):
    # The rollout computes each step's features for act and carries them to
    # learn, so a trial, learning included, calls features exactly once per
    # arm step. A probe rollout does too, unless the actor heads are still
    # exactly zero: its mean is then the mid posture whatever the features.
    calls = count_features(monkeypatch)
    spec = short_scenario(1, 8)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=60, replications=1, seed=2)
    sim = Simulation(cfg)
    for _ in range(8):
        calls.clear()
        sim.run_trial()
        assert len(calls) == sim.series.steps[-1]
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for trained in (False, True):
            if trained:
                trained_looking_actor(expert, arm_index)
            calls.clear()
            steps = sim.backend.rollout(0, arm_index, expert, sim.state)[2]
            assert len(calls) == (steps if trained or not expert.actor_is_zero() else 0)


def reference_frozen_rollout(sim, goal, arm_index, state):
    """The evaluation rollout computing every step's features, ending like ArmBackend.rollout.

    It mirrors the left arm the other way round: it reflects the effector
    and checks it against the spheres where the scenario puts them.
    """
    arm_cfg = sim.cfg.arm
    expert = sim.experts[goal][arm_index]
    joints = home_joints(arm_cfg)
    for step in range(1, sim.cfg.timeout_steps + 1):
        action = expert.act(expert.features(joints))
        joints = step_toward(joints, action, arm_cfg)
        x, y = forward_kinematics(joints, arm_cfg)
        effector = (-x, y) if ARMS[arm_index] == "left" else (x, y)
        for i, goal_spec in enumerate(sim.spec.goals):
            if check_touch(effector, goal_spec.position, arm_cfg):
                state, activated = sim.spec.apply_touch(i, state)
                return state, i == goal and activated, step
    return state, False, sim.cfg.timeout_steps


def test_actor_critic_frozen_zero_actor_rollout_matches_a_rollout_with_features(monkeypatch):
    # Joint limits whose mid posture is not the home posture, so a zero
    # actor moves the arm; sphere "a" sits where the right arm's mid posture
    # puts the effector, sphere "b" out of that path. The right arm touches
    # "a" (its own goal, or another one's), the left arm, its mirror image,
    # times out.
    arm = ArmConfig(joint_min=(-1.0, -0.5, 0.0, -2.0), joint_max=(1.0, 0.5, 2.0, 0.0))
    mid = tuple(0.5 * (lo + hi) for lo, hi in zip(arm.joint_min, arm.joint_max))
    x, y = forward_kinematics(mid, arm)
    spec = scenario_from_dict({
        "name": "mid_posture", "goals": ["a", "b"], "positions": {"a": [x, y], "b": [-0.2, -0.6]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", arm=arm, timeout_steps=80,
                           replications=1, seed=4)
    sim = Simulation(cfg)
    calls = count_features(monkeypatch)
    endings = set()
    for goal in (0, 1):
        for arm_index in (0, 1):
            expert = sim.experts[goal][arm_index]
            for trained in (False, True):
                if trained:
                    trained_looking_actor(expert, 10 * goal + arm_index)
                assert expert.actor_is_zero() is not trained
                calls.clear()
                result = sim.backend.rollout(goal, arm_index, expert, sim.state)
                steps = result[2]
                assert len(calls) == (steps if trained else 0)
                assert result[:3] == reference_frozen_rollout(sim, goal, arm_index, sim.state)
                if not trained:
                    endings.add((ARMS[arm_index], result[1], steps < cfg.timeout_steps))
    assert endings == {("right", True, True), ("right", False, True), ("left", False, False)}


def test_actor_critic_left_arm_touches_the_mirror_image_of_the_right_arm():
    # Both arms run one chain, and a zero actor drives either to the same
    # mid posture; sphere "r" sits at its effector, sphere "l" at the
    # effector's reflection. The right arm touches "r", the left arm "l",
    # and every rollout, trained-looking actors included, ends as the
    # reference that reflects the effector instead of the spheres.
    arm = ArmConfig(joint_min=(-1.0, -0.5, 0.0, -2.0), joint_max=(1.0, 0.5, 2.0, 0.0))
    mid = tuple(0.5 * (lo + hi) for lo, hi in zip(arm.joint_min, arm.joint_max))
    x, y = forward_kinematics(mid, arm)
    spec = scenario_from_dict({
        "name": "mirror_pair", "goals": ["r", "l"], "positions": {"r": [x, y], "l": [-x, y]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", arm=arm, timeout_steps=80,
                           replications=1, seed=6)
    sim = Simulation(cfg)
    endings = set()
    for goal in (0, 1):
        for arm_index in (0, 1):
            for trained in (False, True):
                if trained:
                    trained_looking_actor(sim.experts[goal][arm_index], 20 + 10 * goal + arm_index)
                result = sim.backend.rollout(goal, arm_index, sim.experts[goal][arm_index], sim.state)
                assert result[:3] == reference_frozen_rollout(sim, goal, arm_index, sim.state)
                if not trained:
                    endings.add((ARMS[arm_index], spec.labels[goal], result[1]))
    assert endings == {("right", "r", True), ("right", "l", False),
                       ("left", "r", False), ("left", "l", True)}


def test_actor_critic_probe_starts_with_the_goals_preconditions_forced(monkeypatch):
    # Whatever the world state, each probe rollout of a goal starts with its
    # requires_on spheres on, every other sphere off, and the context it
    # requires (0.0 when it requires none).
    starts = []
    rollout = ArmBackend.rollout

    def spied(self, goal, arm_index, expert, state, explore=False):
        starts.append((goal, state))
        return rollout(self, goal, arm_index, expert, state, explore)

    monkeypatch.setattr(ArmBackend, "rollout", spied)
    forced = set()
    for scenario in (1, 2, 3):
        spec = builtin_scenario(scenario)
        cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=5, eval_trials=2)
        sim = Simulation(cfg)
        sim.state = WorldState(sphere_on=(True,) * spec.n_goals, context_feature=1.0)
        for goal, g in enumerate(spec.goals):
            starts.clear()
            sim.measure_competence(goal)
            assert [probed for probed, _ in starts] == [goal, goal]
            for _, state in starts:
                assert {i for i, on in enumerate(state.sphere_on) if on} == g.requires_on
                assert len(state.sphere_on) == spec.n_goals
                assert state.context_feature == (0.0 if g.requires_context is None else g.requires_context)
            forced.update({"requires_on"} if g.requires_on else set(),
                          {"requires_context"} if g.requires_context is not None else set())
    assert forced == {"requires_on", "requires_context"}  # the scenarios exercise both


def test_actor_critic_probe_count_changes_no_csv(tmp_path):
    # A probe rollout draws nothing, so eval_trials 10 repeats the one rollout
    # that the default 1 makes: the same competence, and the same CSV bytes.
    spec = replace(builtin_scenario(1), total_trials=12)
    outputs = []
    for eval_trials in (1, 10):
        out = tmp_path / str(eval_trials)
        run_experiment(ExperimentConfig(scenario=spec, backend="actor_critic", replications=2, eval_interval=6,
                                        eval_trials=eval_trials, out_dir=str(out)))
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out)) if name != "run.yaml"})
    assert ExperimentConfig().eval_trials == 1
    assert len(outputs[0]) == 5 and outputs[0] == outputs[1]


def test_actor_critic_measure_competence_leaves_parameters_unchanged():
    spec = replace(builtin_scenario(3), total_trials=9)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=30,
                           replications=1, eval_trials=3, seed=1)
    sim = Simulation(cfg)
    before = [[expert_state(e) for e in pair] for pair in sim.experts]
    rng_before = sim.rng.bit_generator.state
    for goal in range(spec.n_goals):
        v = sim.measure_competence(goal)
        assert 0.0 <= v <= 1.0
    assert sim.rng.bit_generator.state == rng_before  # evaluation draws no training noise
    assert [[expert_state(e) for e in pair] for pair in sim.experts] == before
