"""Replaying a run's selection side from its trials.csv: ``fold`` and ``lightup values``."""

import csv
import hashlib
from dataclasses import replace

import pytest

from lightup.cli import main
from lightup.experiment import ExperimentConfig, Simulation, evaluation_points, fold, run_experiment
from lightup.world import ScenarioSpec, builtin_scenario


def fold_cfg(scenario, system, backend="idealized", trials=303, **kw):
    """Two replications at seed 5; 303 trials end off the 50-trial evaluation grid."""
    spec = replace(builtin_scenario(scenario), total_trials=trials)
    return ExperimentConfig(scenario=spec, system=system, backend=backend, replications=2, seed=5, **kw)


# The sha256 of the values.csv that ``run --dump-values`` wrote for each run,
# before the value tables were replayed instead of stored; for the contextual
# systems on scenarios 1 and 2, the same tables keyed on the full state.
VALUES_SHA256 = {
    (1, "grail"): "f3bf9b58ff681fbd0b13db4d0126eb96362dcc6fac86b7f88275c48a8b980d9d",
    (1, "c_grail"): "967ef6cebde541f2e0d2936f8ac3423e2221e13540d4160ee92aae6f55a5f765",
    (1, "m_grail"): "26080a334ac5b867cecde88475f7106ee8c6a9b1d7e138c981b13aaaf3be7557",
    (2, "grail"): "95d2429ac56828cad36d16ec2d7588f68f7ec5cf335405313c3d8e2eff5a089e",
    (2, "c_grail"): "c8a2da7ce7776313984d542ec1d957e262b3bc79f8e2a540cc0726e9d8c04051",
    (2, "m_grail"): "719fb85ed6e0a7c406ed4047af81a39230fb81acd616f29df4e8207d9d6aa5ea",
    (3, "grail"): "9f7b91bce29967fd6ebbd30057add2d84a76c035dfebba52f3827414f6137d76",
    (3, "c_grail"): "eb9f0a0a411f2b87f247639cfd0cc701a8005c69b250aad4b5ba0652540bdd0f",
    (3, "m_grail"): "ec4fbb38dc76de4ceb4e09b5e1aafa7a97921b2f92e8209d2a5ad1af915e191c",
}
# Scenario 3 under m_grail on the arm: 60 trials, 23 of them achieved, so
# rewards and bootstrapped values are not all zero.
AC_CFG = dict(backend="actor_critic", trials=60, eval_interval=7, eval_trials=1)
AC_VALUES_SHA256 = "983616848451152d8db53d621d49e2c37a26ac2f0b85e774dbb013e04cec3859"
# The dump's sha256 while the contextual systems keyed scenarios 1 and 2 on
# the context alone: the key text ``c`` where the full state's is ``0|0|0|0|0|0|c``.
CONTEXT_KEYED_SHA256 = {
    (1, "c_grail"): "79d061b487597d1b1af7cc243bd8451788b954c025429d7e00a689c63253befa",
    (1, "m_grail"): "de335fdb053e1c0344ca05ba7eec93e128212d101dae8673838fe45898507fb1",
    (2, "c_grail"): "b17e7bd86544752813593f543397749174db76875071c4e69dbfb3821c0563e2",
    (2, "m_grail"): "03d78a6fab3ee1c480bd9df7f12afe20d1066db5c306bcc9108df18bb4bda519",
}


def values_output(run_dir, capsys):
    capsys.readouterr()
    assert main(["values", str(run_dir)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("scenario, system", sorted(VALUES_SHA256))
def test_values_prints_the_value_dump_byte_for_byte(tmp_path, capsys, scenario, system):
    run_experiment(replace(fold_cfg(scenario, system), out_dir=str(tmp_path)))
    out = values_output(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == VALUES_SHA256[scenario, system]


@pytest.mark.parametrize("scenario, system", sorted(CONTEXT_KEYED_SHA256))
def test_full_state_keys_hold_the_context_keyed_tables(tmp_path, capsys, scenario, system):
    # Every sphere is off when a goal is chosen after a per-trial reset, so the
    # full state carries the context and nothing else: each table is the one
    # keyed on the context alone, row for row, under the longer key text.
    run_experiment(replace(fold_cfg(scenario, system), out_dir=str(tmp_path)))
    rows = _rows(values_output(tmp_path, capsys))
    assert all(row[2] in ("0|0|0|0|0|0|0", "0|0|0|0|0|0|1") for row in rows[1:])
    context_keyed = [rows[0]] + [row[:2] + [row[2][-1]] + row[3:] for row in rows[1:]]
    assert hashlib.sha256(_joined(context_keyed).encode()).hexdigest() == CONTEXT_KEYED_SHA256[scenario, system]


def test_values_prints_the_arm_runs_value_dump_byte_for_byte(tmp_path, capsys):
    # The selection side does not depend on the backend.
    run_experiment(replace(fold_cfg(3, "m_grail", **AC_CFG), out_dir=str(tmp_path)))
    out = values_output(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == AC_VALUES_SHA256


def test_fold_yields_each_replications_tables_at_every_evaluation_point(tmp_path):
    cfg = replace(fold_cfg(3, "m_grail"), out_dir=str(tmp_path))
    run_experiment(cfg)
    seen = [(replication, trial, sim.series.replication) for replication, trial, sim in fold(str(tmp_path))]
    assert seen == [(r, t, r) for r in range(2) for t in evaluation_points(cfg)[1:]]
    # Each replication's last tables are the ones its run ended with.
    finals = {replication: (sim.strategy.table, sim.predictor.table)
              for replication, _, sim in fold(str(tmp_path))}
    for replication in range(2):
        sim = Simulation(cfg, replication)
        sim.run()
        assert finals[replication] == (sim.strategy.table, sim.predictor.table)


def test_values_command_takes_no_option(capsys):
    with pytest.raises(SystemExit):
        main(["values", "--seed", "3", "run"])
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _rows(text):
    return list(csv.reader(text.splitlines()))


def _joined(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def _flip_reward_digit(rows):
    # The last digit of the first positive reward, data row n.
    col = rows[0].index("reward")
    n = next(i for i, row in enumerate(rows) if i and float(row[col]) > 0.0)
    cell = rows[n][col]
    rows[n][col] = cell[:-1] + str((int(cell[-1]) + 1) % 10)
    return n


def _drop_reward_value(rows):
    del rows[7][rows[0].index("reward")]
    return 7


def _unknown_goal(rows):
    rows[12][rows[0].index("goal")] = "z"
    return 12


def _swap_rows(rows):
    rows[5], rows[6] = rows[6], rows[5]
    return 5


def _drop_last_row(rows):
    del rows[-1]
    return len(rows)


def _achieved_two(rows):
    rows[9][rows[0].index("achieved")] = "2"
    return 9


def _letter_in_key(rows):
    rows[3][rows[0].index("state_key")] = "01x/0"
    return 3


def _five_bit_key(rows):
    rows[4][rows[0].index("state_key")] = "01001/0"
    return 4


def _row_after_the_last_replication(rows):
    rows.append(rows[-1][:])
    return len(rows) - 1


def _delete_file(rows):
    rows.clear()  # no rows left: the test deletes trials.csv
    return None


# Each case: how it corrupts trials.csv's rows, returning the data row the error names.
CORRUPT_TRIALS = {
    "flipped-reward-digit": (_flip_reward_digit, "differs from the recomputed"),
    "missing-file": (_delete_file, "missing CSV"),
    "row-without-reward": (_drop_reward_value, "8 values for 9 columns"),
    "unknown-goal": (_unknown_goal, "unknown goal 'z'"),
    "swapped-rows": (_swap_rows, "replication 0 trial 6 where replication 0 trial 5 belongs"),
    "incomplete-replication": (_drop_last_row, "replication 1 ends after 302 of 303 trials"),
    "achieved-two": (_achieved_two, "achieved must be 0 or 1, got '2'"),
    "letter-in-state-key": (_letter_in_key, "state key '01x/0' is not sphere bits, '/' and a context bit"),
    "five-bit-state-key": (_five_bit_key, "state key '01001/0' is not 6 sphere bits"),
    "row-after-the-last-replication": (_row_after_the_last_replication,
                                       "a row after the last of 2 replications of 303 trials"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_TRIALS))
def test_values_of_a_corrupt_trials_csv_exits_2_naming_the_row(tmp_path, capsys, case):
    run_experiment(replace(fold_cfg(3, "m_grail"), out_dir=str(tmp_path)))
    path = tmp_path / "trials.csv"
    corrupt, message = CORRUPT_TRIALS[case]
    rows = _rows(path.read_text())
    n = corrupt(rows)
    if rows:
        path.write_text(_joined(rows))
    else:
        path.unlink()
    capsys.readouterr()
    assert main(["values", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    # All or nothing: no header and no table of the rows before the defect.
    assert out == ""
    assert err.startswith(f"error: CSV {path} row {n}: " if rows else f"error: missing CSV: {path}")
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err


def test_values_of_a_trials_csv_without_a_column_exits_2_naming_it(tmp_path, capsys):
    run_experiment(replace(fold_cfg(1, "grail"), out_dir=str(tmp_path)))
    path = tmp_path / "trials.csv"
    rows = _rows(path.read_text())
    col = rows[0].index("reward")
    path.write_text(_joined(row[:col] + row[col + 1:] for row in rows))
    capsys.readouterr()
    assert main(["values", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: CSV {path} header has no reward column\n"


def test_values_of_an_undecodable_trials_csv_exits_2_naming_it(tmp_path, capsys):
    run_experiment(replace(fold_cfg(1, "grail"), out_dir=str(tmp_path)))
    path = tmp_path / "trials.csv"
    path.write_bytes(path.read_bytes().replace(b",a,", b",\xff,", 1))
    capsys.readouterr()
    assert main(["values", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read CSV {path}: 'utf-8' codec can't decode") and "Traceback" not in err


@pytest.mark.parametrize("scenario", [1, 2, 3, "1-per_epoch"])
def test_resets_bootstraps_and_the_epoch_column_agree(tmp_path, monkeypatch, scenario):
    # An epoch starts where run_trial resets the world and ends where run_trial
    # and fold bootstrap on no next key; trials.csv numbers the same epochs.
    spec = replace(builtin_scenario(1 if scenario == "1-per_epoch" else scenario), total_trials=303)
    if scenario == "1-per_epoch":
        spec = replace(spec, reset_policy="per_epoch")
    cfg = replace(fold_cfg(1, "m_grail"), scenario=spec, out_dir=str(tmp_path))
    draws, resets, ends = [], [], []
    reset, run_trial, selection_step = ScenarioSpec.reset, Simulation.run_trial, Simulation.selection_step

    def counted_reset(self, rng):
        draws.append(True)
        return reset(self, rng)

    def noted_trial(self):
        before = len(draws)
        run_trial(self)
        resets.append(len(draws) > before)

    def noted_step(self, goal, key, achieved, next_key):
        ends.append(next_key is None)
        return selection_step(self, goal, key, achieved, next_key)

    monkeypatch.setattr(Simulation, "run_trial", noted_trial)
    monkeypatch.setattr(Simulation, "selection_step", noted_step)
    monkeypatch.setattr(ScenarioSpec, "reset", counted_reset)
    run_experiment(cfg)
    run_ends = ends[:]
    del ends[:]
    assert len(list(fold(str(tmp_path)))) == 2 * (len(evaluation_points(cfg)) - 1)
    with open(tmp_path / "trials.csv", newline="") as fh:
        epochs = [(row["replication"], row["epoch"]) for row in csv.DictReader(fh)]
    starts = [i == 0 or epoch != epochs[i - 1] for i, epoch in enumerate(epochs)]
    lasts = [i == len(epochs) - 1 or epoch != epochs[i + 1] for i, epoch in enumerate(epochs)]
    assert sum(starts) == 2 * 303 // spec.trials_per_epoch
    assert resets == starts and run_ends == ends == lasts
    if scenario == "1-per_epoch":
        one = replace(cfg, scenario=replace(spec, reset_policy="per_trial"))
        for replication in range(2):
            assert Simulation(cfg, replication).run() == Simulation(one, replication).run()


def test_values_of_a_run_yaml_keyed_on_the_context_names_full_state(tmp_path, capsys):
    # Each scenario-1 and -2 run.yaml written while the contextual systems keyed
    # those scenarios on the context alone says context_mode: context_feature.
    run_experiment(replace(fold_cfg(2, "c_grail"), out_dir=str(tmp_path)))
    fresh = values_output(tmp_path, capsys)
    run_yaml = tmp_path / "run.yaml"
    text = run_yaml.read_text()
    assert text.count("  context_mode: full_state\n") == 1
    run_yaml.write_text(text.replace("context_mode: full_state", "context_mode: context_feature"))
    assert main(["values", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: context_mode 'context_feature'; expected one of ('none', 'full_state')\n"
    # The one-line edit the README gives: every reward replays.
    old = run_yaml.read_text()
    run_yaml.write_text(old.replace("context_mode: context_feature", "context_mode: full_state"))
    assert values_output(tmp_path, capsys) == fresh
