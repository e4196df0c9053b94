"""Trial loop, scheduling, metrics, aggregation, CSV output, reproducibility."""

import logging
import os
from dataclasses import replace

import numpy as np
import pytest

from lightup.arm import ArmConfig, check_touch, forward_kinematics, home_joints, step_toward
from lightup.errors import ConfigError, NumericsError
from lightup.experiment import (
    ARMS,
    ExperimentConfig,
    Simulation,
    _mean_ci,
    aggregate_rows,
    config_from_dict,
    config_to_dict,
    load_config,
    run_experiment,
)
from lightup.skills import ActorCriticExpert
from lightup.world import BUILTIN_SCENARIOS, WorldState, builtin_scenario, scenario_from_dict


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
    import yaml

    # Every way of naming a scenario gives the same spec at construction.
    spec = builtin_scenario(3)
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(BUILTIN_SCENARIOS[3]))
    for ref in (3, "3", str(path), BUILTIN_SCENARIOS[3], spec):
        assert ExperimentConfig(scenario=ref).scenario == spec
    # A spec given directly, or changed with replace, is validated too.
    cfg = ExperimentConfig(scenario=spec)
    with pytest.raises(ConfigError, match="divisible"):
        replace(cfg, scenario=replace(spec, total_trials=100))
    with pytest.raises(ConfigError, match="cannot interpret"):
        ExperimentConfig(scenario=3.0)
    # The fields are checked before the scenario.
    with pytest.raises(ConfigError, match="eval_trials"):
        ExperimentConfig(scenario=replace(spec, total_trials=100), eval_trials=0)


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
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"scenario": 1, "learning_speed": 3})


def test_load_config_file(tmp_path):
    import yaml

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": 2, "system": "c_grail", "replications": 3}))
    cfg = load_config(str(path))
    assert cfg.system == "c_grail" and cfg.replications == 3


def test_load_config_with_inline_scenario(tmp_path):
    import yaml

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
    assert spec.rules[1].requires_on == frozenset({0})


# -- trial loop -----------------------------------------------------------------


def test_trial_counts_match_schedule():
    for sid, total in ((1, 3000), (2, 4000), (3, 6000)):
        cfg = ExperimentConfig(scenario=sid, replications=1, seed=0)
        series = Simulation(cfg, seed=0).run()
        assert len(series.records) == total
        assert series.records[-1].trial == total


def test_achieved_implies_achievable_across_systems():
    for system in ("grail", "c_grail", "m_grail"):
        for sid in (1, 2, 3):
            cfg = small_cfg(sid, 600, system=system)
            series = Simulation(cfg, seed=3).run()
            for rec in series.records:
                assert not (rec.achieved and not rec.achievable)


def test_per_epoch_reset_boundaries():
    cfg = small_cfg(3, 300, system="m_grail")
    series = Simulation(cfg, seed=1).run()
    for rec in series.records:
        if (rec.trial - 1) % 3 == 0:  # first trial of an epoch
            assert rec.state_key.startswith("000000")
        assert rec.epoch == (rec.trial - 1) // 3


def test_per_trial_reset_gives_fresh_state_every_trial():
    cfg = small_cfg(1, 200)
    series = Simulation(cfg, seed=2).run()
    assert all(r.state_key.startswith("000000") for r in series.records)


def test_epoch_state_persists_within_epoch():
    cfg = small_cfg(3, 3000, system="m_grail", replications=1)
    series = Simulation(cfg, seed=4).run()
    achieved_mid_epoch = [
        (a, b) for a, b in zip(series.records, series.records[1:])
        if a.achieved and b.trial % 3 != 1
    ]
    assert achieved_mid_epoch, "expected at least one mid-epoch achievement"
    for a, b in achieved_mid_epoch:
        assert b.state_key.count("1") >= 1


def test_mgrail_selecting_chain_end_on_fresh_epoch_is_wasted_with_zero_reward():
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=0)
    sim = Simulation(cfg, seed=0)
    # Find a fresh-epoch trial where the stock selector picked the chain end e.
    rec = None
    for _ in range(3000):
        r = sim.run_trial()
        if r.goal == "e" and r.state_key == "000000/0":
            rec = r
            break
    assert rec is not None
    assert rec.achievable is False and rec.achieved is False and rec.reward == 0.0


def test_gate_blocks_expert_learning_in_context_systems():
    cfg = ExperimentConfig(scenario=3, system="c_grail", seed=0)
    sim = Simulation(cfg, seed=0)
    before = [[e.competence for e in pair] for pair in sim.experts]
    # First trial from all-off: whatever is selected has prediction 0. If the
    # attempt fails, the gate must leave the attempted expert untouched.
    rec = sim.run_trial()
    if not rec.achieved:
        after = [[e.competence for e in pair] for pair in sim.experts]
        assert after == before


def test_grail_has_no_gate_and_erodes_on_wasted_trials():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=0)
    spec = cfg.scenario
    sim = Simulation(cfg, seed=5)
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
    sim = Simulation(cfg, seed=0)
    for label in spec.labels:
        assert sim.measure_competence(label) == pytest.approx(0.02)


def test_trained_competence_reads_greedy_arm():
    cfg = small_cfg(1, 100)
    sim = Simulation(cfg, seed=0)
    sim.experts[0][1].competence = 1.0
    sim.selectors[0].update(1, True)
    assert sim.measure_competence(0) == 1.0


# -- wasted counting ----------------------------------------------------------------


def test_scenario1_has_zero_wasted_trials():
    cfg = small_cfg(1, 500, replications=1)
    series = Simulation(cfg, seed=0).run()
    assert series.cumulative_wasted_at(500) == 0
    assert series.wasted[-1] == (500, 0)


def test_scenario2_grail_wastes_about_half_early():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=0)
    series = Simulation(cfg, seed=11).run()
    early = series.cumulative_wasted_at(400)
    # Context-blind selection over balanced contexts wastes ~half.
    assert 120 <= early <= 280


def test_wasted_rows_count_unachievable_records():
    cfg = small_cfg(2, 230, system="grail", replications=1)
    series = Simulation(cfg, seed=0).run()
    assert [end for end, _ in series.wasted] == [50, 100, 150, 200, 230]
    for end, count in series.wasted:
        assert count == sum(1 for r in series.records if r.trial <= end and not r.achievable)
    assert series.wasted[-1][1] > 0


def test_wasted_series_cumulative_nondecreasing():
    cfg = small_cfg(3, 600, system="c_grail", replications=1)
    series = Simulation(cfg, seed=0).run()
    counts = [c for _, c in series.wasted]
    assert counts == sorted(counts)


# -- aggregation and output ------------------------------------------------------------


def test_run_experiment_aggregates_shapes():
    cfg = small_cfg(1, 200, replications=3, seed=10)
    result = run_experiment(cfg)
    assert len(result.replications) == 3
    eval_points = {t for t, *_ in result.competence_agg}
    assert eval_points == {0, 50, 100, 150, 200}
    labels = {lab for _, lab, *_ in result.competence_agg}
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


def test_aggregate_ci_matches_hand_computation():
    cfg = small_cfg(1, 100, replications=4, seed=20)
    result = run_experiment(cfg)
    finals = np.array([s.final_competence()["a"] for s in result.replications])
    row = next(r for r in result.competence_agg if r[0] == 100 and r[1] == "a")
    mean, lo, hi = row[2:]
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert mean == pytest.approx(finals.mean())
    assert lo == pytest.approx(finals.mean() - 1.96 * se)
    assert hi == pytest.approx(finals.mean() + 1.96 * se)


def competence_agg_by_lookup(series, labels):
    """The aggregation as a per-(trial, goal) lookup in every replication."""
    eval_points = [t for t, label, _ in series[0].competence if label == labels[0]]
    agg = []
    for t in eval_points:
        for label in labels:
            values = np.array([s.competence_at(t)[label] for s in series])
            agg.append((t, label) + _mean_ci(values))
    return agg


def test_aggregate_rows_matches_per_row_lookup():
    # 603 trials: eval rows every 50 trials plus a last one at 603.
    result = run_experiment(small_cfg(3, 603, replications=3, seed=11, system="m_grail"))
    expected = competence_agg_by_lookup(result.replications, result.config.scenario.labels)
    assert [row[:2] for row in expected][-7:] == [(600, "f")] + [(603, lab) for lab in "abcdef"]
    assert result.competence_agg == expected
    ends = [end for end, _ in result.replications[0].wasted]
    assert ends[-2:] == [600, 603]
    assert result.wasted_agg == [
        (end,) + _mean_ci(np.array([float(s.cumulative_wasted_at(end)) for s in result.replications]))
        for end in ends
    ]


def test_aggregate_rows_rejects_replications_out_of_step():
    series = run_experiment(small_cfg(3, 150, replications=3, seed=12)).replications
    for what in ("competence", "wasted"):
        tables = [getattr(s, what) for s in series]
        rows = tables[1]
        rows[1], rows[2] = rows[2], rows[1]
        with pytest.raises(NumericsError, match=f"disagree on {what} row"):
            aggregate_rows(tables, what)
        del rows[-1]
        with pytest.raises(NumericsError, match=f"numbers of {what} rows"):
            aggregate_rows(tables, what)


def test_csv_outputs_and_columns(tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg(1, 100, replications=2, seed=30, out_dir=str(out), dump_values=True)
    run_experiment(cfg)
    def header(name):
        return (out / name).read_text().splitlines()[0]
    assert header("trials.csv") == "replication,trial,epoch,state_key,goal,achievable,achieved,reward,steps"
    assert header("competence.csv") == "replication,trial_index,goal,competence"
    assert header("wasted.csv") == "replication,interval_end,cumulative_wasted"
    assert header("competence_agg.csv") == "trial_index,goal,mean,ci_low,ci_high"
    assert header("wasted_agg.csv") == "interval_end,mean,ci_low,ci_high"
    assert header("values.csv") == "replication,trial,state_key,goal,value"
    assert (out / "run.yaml").exists()
    n_rows = len((out / "trials.csv").read_text().splitlines()) - 1
    assert n_rows == 2 * 100


def run_dir_bytes(path) -> dict:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_failing_write_leaves_out_dir_as_it_was(tmp_path, monkeypatch):
    # A run whose output fails part-way (here the third CSV) changes no file
    # of the run directory it would have replaced, and leaves no temporary
    # directory beside it.
    import lightup.experiment

    out = tmp_path / "run"
    run_experiment(small_cfg(1, 100, replications=1, seed=3, out_dir=str(out), dump_values=True))
    before = run_dir_bytes(out)
    write_csv = lightup.experiment._write_csv
    written = []

    def failing_write_csv(out_dir, name, header, rows):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(name)
        write_csv(out_dir, name, header, rows)

    monkeypatch.setattr(lightup.experiment, "_write_csv", failing_write_csv)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(small_cfg(1, 100, replications=1, seed=4, out_dir=str(out)))
    assert written == ["trials.csv", "competence.csv"]
    assert run_dir_bytes(out) == before
    assert os.listdir(tmp_path) == ["run"]


def test_rerun_replaces_the_whole_run_directory(tmp_path):
    # A rerun without dump_values deletes the values.csv of the run before
    # it, so no file left in the directory contradicts its run.yaml.
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    run_experiment(small_cfg(1, 100, replications=1, seed=3, out_dir=str(out), dump_values=True))
    assert (out / "values.csv").exists()
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


def test_progress_logs_one_line_per_replication_and_interval(tmp_path, caplog):
    # 120 trials at interval 50: evaluations at 50, 100 and the final 120.
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    run_experiment(small_cfg(3, 120, system="m_grail", seed=8, out_dir=str(quiet)))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="lightup"):
        result = run_experiment(small_cfg(3, 120, system="m_grail", seed=8, out_dir=str(loud)))
    lines = [r.getMessage() for r in caplog.records if r.name == "lightup.experiment"]
    expected = []
    for s in result.replications:
        for end, count in s.wasted:
            values = list(s.competence_at(end).values())
            expected.append(f"replication {s.replication}, trial {end}/120: "
                            f"mean competence {sum(values) / len(values):.3f}, cumulative waste {count}")
    assert lines == expected and len(lines) == 6
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


# -- actor-critic integration --------------------------------------------------------


def test_actor_critic_backend_trial_records():
    spec = replace(builtin_scenario(1), total_trials=6)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40,
                           replications=1, eval_interval=6, eval_trials=2)
    sim = Simulation(cfg, seed=0)
    for _ in range(6):
        rec = sim.run_trial()
        assert 1 <= rec.steps <= 40
        assert rec.achievable  # scenario 1: everything always achievable


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
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1)
    sim = Simulation(cfg, seed=3)
    endings = set()
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for _ in range(3):
            _, achieved, steps, traj = sim._rollout(0, arm_index, sim.state, sim.rng)
            assert len(traj) == steps
            joints = home_joints(cfg.arm)
            for feat, action in traj:
                assert np.array_equal(feat, expert.features(joints))
                joints = step_toward(joints, action, cfg.arm)
            endings.add(achieved)
        assert sim._rollout(0, arm_index, sim.state)[3] is None
    assert endings == {True, False}


def test_actor_critic_training_trajectory_is_steps_pairs(monkeypatch):
    # A training rollout hands learn one (features, action) pair per arm
    # step, and whether the trial achieved its goal as the success flag.
    spec = scenario_from_dict({
        "name": "near_home", "goals": ["a"], "positions": {"a": [0.97, 0.1]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 12,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1)
    sim = Simulation(cfg, seed=3)
    calls = []
    learn = ActorCriticExpert.learn

    def recorded(self, trajectory, success, *, gate):
        calls.append((trajectory, success))
        learn(self, trajectory, success, gate=gate)

    monkeypatch.setattr(ActorCriticExpert, "learn", recorded)
    outcomes = set()
    for _ in range(12):
        calls.clear()
        rec = sim.run_trial()
        [(traj, success)] = calls
        assert success is rec.achieved
        assert len(traj) == rec.steps
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
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=60, replications=1)
    sim = Simulation(cfg, seed=2)
    for _ in range(8):
        calls.clear()
        rec = sim.run_trial()
        assert len(calls) == rec.steps
    for arm_index in (0, 1):
        expert = sim.experts[0][arm_index]
        for trained in (False, True):
            if trained:
                trained_looking_actor(expert, arm_index)
            calls.clear()
            steps = sim._rollout(0, arm_index, sim.state)[2]
            assert len(calls) == (steps if trained or not expert.actor_is_zero() else 0)


def reference_frozen_rollout(sim, goal, arm_index, state):
    """The evaluation rollout computing every step's features, ending like _rollout.

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
                           replications=1)
    sim = Simulation(cfg, seed=4)
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
                result = sim._rollout(goal, arm_index, sim.state)
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
                           replications=1)
    sim = Simulation(cfg, seed=6)
    endings = set()
    for goal in (0, 1):
        for arm_index in (0, 1):
            for trained in (False, True):
                if trained:
                    trained_looking_actor(sim.experts[goal][arm_index], 20 + 10 * goal + arm_index)
                result = sim._rollout(goal, arm_index, sim.state)
                assert result[:3] == reference_frozen_rollout(sim, goal, arm_index, sim.state)
                if not trained:
                    endings.add((ARMS[arm_index], spec.labels[goal], result[1]))
    assert endings == {("right", "r", True), ("right", "l", False),
                       ("left", "r", False), ("left", "l", True)}


def test_actor_critic_measure_competence_leaves_parameters_unchanged():
    spec = replace(builtin_scenario(3), total_trials=9)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=30,
                           replications=1, eval_trials=3)
    sim = Simulation(cfg, seed=1)
    before = [[e.snapshot() for e in pair] for pair in sim.experts]
    rng_before = sim.rng.bit_generator.state
    for label in spec.labels:
        v = sim.measure_competence(label)
        assert 0.0 <= v <= 1.0
    assert sim.rng.bit_generator.state == rng_before  # evaluation draws no training noise
    after = [[e.snapshot() for e in pair] for pair in sim.experts]
    for pb, pa in zip(before, after):
        for sb, sa in zip(pb, pa):
            for name in sb:
                assert np.array_equal(np.asarray(sb[name]), np.asarray(sa[name]))
