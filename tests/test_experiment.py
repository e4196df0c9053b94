"""Trial loop, scheduling, metrics, aggregation, CSV output, reproducibility."""

import os
from dataclasses import replace

import numpy as np
import pytest

from lightup.errors import ConfigError
from lightup.experiment import (
    ExperimentConfig,
    Simulation,
    config_from_dict,
    config_to_dict,
    load_config,
    resolve_scenario,
    run_experiment,
)
from lightup.world import WorldState, builtin_scenario, scenario_from_dict


def short_scenario(sid, trials):
    return replace(builtin_scenario(sid), total_trials=trials)


def small_cfg(sid=1, trials=300, **kw):
    kw.setdefault("replications", 2)
    kw.setdefault("eval_interval", 50)
    return ExperimentConfig(scenario=short_scenario(sid, trials), **kw)


# -- config ---------------------------------------------------------------------


def test_unknown_system_rejected():
    with pytest.raises(ConfigError, match="grail"):
        ExperimentConfig(system="sarsa").validate()


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="backend"):
        ExperimentConfig(backend="tabular").validate()


def test_per_system_temperature_defaults():
    assert ExperimentConfig(system="grail").resolved_temperature() == 0.01
    assert ExperimentConfig(system="c_grail").resolved_temperature() == 0.01
    assert ExperimentConfig(system="m_grail").resolved_temperature() == 0.001
    assert ExperimentConfig(system="m_grail", temperature=0.5).resolved_temperature() == 0.5


def test_config_roundtrip_through_dict():
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=9, replications=4)
    again = config_from_dict(config_to_dict(cfg))
    assert again.system == "m_grail" and again.seed == 9 and again.replications == 4
    assert resolve_scenario(again).name == "interrelated_chains"


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
    spec = resolve_scenario(load_config(str(path)))
    assert spec.n_goals == 2
    assert spec.rules[1].requires_on == frozenset({0})


# -- trial loop -----------------------------------------------------------------


def test_trial_counts_match_schedule():
    for sid, total in ((1, 3000), (2, 4000), (3, 6000)):
        cfg = ExperimentConfig(scenario=sid, replications=1, seed=0)
        spec = resolve_scenario(cfg)
        series = Simulation(spec, cfg, seed=0).run()
        assert len(series.records) == total
        assert series.records[-1].trial == total


def test_achieved_implies_achievable_across_systems():
    for system in ("grail", "c_grail", "m_grail"):
        for sid in (1, 2, 3):
            cfg = small_cfg(sid, 600, system=system)
            spec = resolve_scenario(cfg)
            series = Simulation(spec, cfg, seed=3).run()
            for rec in series.records:
                assert not (rec.achieved and not rec.achievable)


def test_per_epoch_reset_boundaries():
    cfg = small_cfg(3, 300, system="m_grail")
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=1).run()
    for rec in series.records:
        if (rec.trial - 1) % 3 == 0:  # first trial of an epoch
            assert rec.state_key.startswith("000000")
        assert rec.epoch == (rec.trial - 1) // 3


def test_per_trial_reset_gives_fresh_state_every_trial():
    cfg = small_cfg(1, 200)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=2).run()
    assert all(r.state_key.startswith("000000") for r in series.records)


def test_epoch_state_persists_within_epoch():
    cfg = small_cfg(3, 3000, system="m_grail", replications=1)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=4).run()
    achieved_mid_epoch = [
        (a, b) for a, b in zip(series.records, series.records[1:])
        if a.achieved and b.trial % 3 != 1
    ]
    assert achieved_mid_epoch, "expected at least one mid-epoch achievement"
    for a, b in achieved_mid_epoch:
        assert b.state_key.count("1") >= 1


def test_mgrail_selecting_chain_end_on_fresh_epoch_is_wasted_with_zero_reward():
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=0)
    spec = resolve_scenario(cfg)
    sim = Simulation(spec, cfg, seed=0)
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
    spec = resolve_scenario(cfg)
    sim = Simulation(spec, cfg, seed=0)
    before = [[e.competence for e in pair] for pair in sim.experts]
    # First trial from all-off: whatever is selected has prediction 0. If the
    # attempt fails, the gate must leave the attempted expert untouched.
    rec = sim.run_trial()
    if not rec.achieved:
        after = [[e.competence for e in pair] for pair in sim.experts]
        assert after == before


def test_grail_has_no_gate_and_erodes_on_wasted_trials():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=0)
    spec = resolve_scenario(cfg)
    sim = Simulation(spec, cfg, seed=5)
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
    spec = resolve_scenario(cfg)
    sim = Simulation(spec, cfg, seed=0)
    for label in spec.labels:
        assert sim.measure_competence(label) == pytest.approx(0.02)


def test_trained_competence_reads_greedy_arm():
    cfg = small_cfg(1, 100)
    spec = resolve_scenario(cfg)
    sim = Simulation(spec, cfg, seed=0)
    sim.experts[0][1].competence = 1.0
    sim.selectors[0].update(1, True)
    assert sim.measure_competence(0) == 1.0


# -- wasted counting ----------------------------------------------------------------


def test_scenario1_has_zero_wasted_trials():
    cfg = small_cfg(1, 500, replications=1)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=0).run()
    assert series.cumulative_wasted_at(500) == 0
    assert series.wasted[-1] == (500, 0)


def test_scenario2_grail_wastes_about_half_early():
    cfg = ExperimentConfig(scenario=2, system="grail", seed=0)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=11).run()
    early = series.cumulative_wasted_at(400)
    # Context-blind selection over balanced contexts wastes ~half.
    assert 120 <= early <= 280


def test_wasted_rows_count_unachievable_records():
    cfg = small_cfg(2, 230, system="grail", replications=1)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=0).run()
    assert [end for end, _ in series.wasted] == [50, 100, 150, 200, 230]
    for end, count in series.wasted:
        assert count == sum(1 for r in series.records if r.trial <= end and not r.achievable)
    assert series.wasted[-1][1] > 0


def test_wasted_series_cumulative_nondecreasing():
    cfg = small_cfg(3, 600, system="c_grail", replications=1)
    spec = resolve_scenario(cfg)
    series = Simulation(spec, cfg, seed=0).run()
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
    sim = Simulation(spec, cfg, seed=0)
    for _ in range(6):
        rec = sim.run_trial()
        assert 1 <= rec.steps <= 40
        assert rec.achievable  # scenario 1: everything always achievable


def test_actor_critic_rollout_trajectory_is_unbroken():
    # ActorCriticExpert.learn bootstraps step i from the features of step
    # i + 1's joints, so every rollout, training or evaluation, ending on a
    # touch or on timeout, must hand each step's next joints on as the next
    # step's joints and set done on its last step only.
    spec = scenario_from_dict({
        "name": "near_home", "goals": ["a"], "positions": {"a": [0.97, 0.1]},
        "context_prob_on": 0.0, "trials_per_epoch": 1, "total_trials": 1,
        "reset_policy": "per_trial", "context_mode": "none",
    })
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=40, replications=1)
    sim = Simulation(spec, cfg, seed=3)
    endings = set()
    for arm_index in (0, 1):
        for explore in (True, False):
            for _ in range(3):
                _, achieved, steps, traj = sim._rollout(0, arm_index, sim.state, explore=explore)
                assert len(traj) == steps
                for (_, _, _, nxt, done), (joints, *_) in zip(traj, traj[1:]):
                    assert nxt is joints and not done
                assert traj[-1][4]
                endings.add(achieved)
    assert endings == {True, False}


def test_actor_critic_measure_competence_leaves_parameters_unchanged():
    spec = replace(builtin_scenario(3), total_trials=9)
    cfg = ExperimentConfig(scenario=spec, backend="actor_critic", timeout_steps=30,
                           replications=1, eval_trials=3)
    sim = Simulation(spec, cfg, seed=1)
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
