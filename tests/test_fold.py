"""Replaying a run's selection side from its trials.csv: ``fold`` and ``lightup values``."""

import csv
import hashlib
from dataclasses import replace

import pytest

from lightup.cli import main
from lightup.experiment import ExperimentConfig, Simulation, evaluation_points, fold, run_experiment
from lightup.world import builtin_scenario


def fold_cfg(scenario, system, backend="idealized", trials=303, **kw):
    """Two replications at seed 5; 303 trials end off the 50-trial evaluation grid."""
    spec = replace(builtin_scenario(scenario), total_trials=trials)
    return ExperimentConfig(scenario=spec, system=system, backend=backend, replications=2, seed=5, **kw)


# The sha256 of the values.csv that ``run --dump-values`` wrote for each run,
# before the value tables were replayed instead of stored.
VALUES_SHA256 = {
    (1, "grail"): "f3bf9b58ff681fbd0b13db4d0126eb96362dcc6fac86b7f88275c48a8b980d9d",
    (1, "c_grail"): "79d061b487597d1b1af7cc243bd8451788b954c025429d7e00a689c63253befa",
    (1, "m_grail"): "de335fdb053e1c0344ca05ba7eec93e128212d101dae8673838fe45898507fb1",
    (2, "grail"): "95d2429ac56828cad36d16ec2d7588f68f7ec5cf335405313c3d8e2eff5a089e",
    (2, "c_grail"): "b17e7bd86544752813593f543397749174db76875071c4e69dbfb3821c0563e2",
    (2, "m_grail"): "03d78a6fab3ee1c480bd9df7f12afe20d1066db5c306bcc9108df18bb4bda519",
    (3, "grail"): "9f7b91bce29967fd6ebbd30057add2d84a76c035dfebba52f3827414f6137d76",
    (3, "c_grail"): "eb9f0a0a411f2b87f247639cfd0cc701a8005c69b250aad4b5ba0652540bdd0f",
    (3, "m_grail"): "ec4fbb38dc76de4ceb4e09b5e1aafa7a97921b2f92e8209d2a5ad1af915e191c",
}
# Scenario 3 under m_grail on the arm: 60 trials, 23 of them achieved, so
# rewards and bootstrapped values are not all zero.
AC_CFG = dict(backend="actor_critic", trials=60, eval_interval=7, eval_trials=1)
AC_VALUES_SHA256 = "983616848451152d8db53d621d49e2c37a26ac2f0b85e774dbb013e04cec3859"


def values_output(run_dir, capsys):
    capsys.readouterr()
    assert main(["values", str(run_dir)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("scenario, system", sorted(VALUES_SHA256))
def test_values_prints_the_value_dump_byte_for_byte(tmp_path, capsys, scenario, system):
    run_experiment(replace(fold_cfg(scenario, system), out_dir=str(tmp_path)))
    out = values_output(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == VALUES_SHA256[scenario, system]


def test_values_prints_the_arm_runs_value_dump_byte_for_byte(tmp_path, capsys):
    # The selection side does not depend on the backend.
    run_experiment(replace(fold_cfg(3, "m_grail", **AC_CFG), out_dir=str(tmp_path)))
    out = values_output(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == AC_VALUES_SHA256


def test_fold_yields_each_replications_tables_at_every_evaluation_point(tmp_path):
    cfg = replace(fold_cfg(3, "m_grail"), out_dir=str(tmp_path))
    run_experiment(cfg)
    seen = [(replication, trial) for replication, trial, _ in fold(str(tmp_path))]
    assert seen == [(r, t) for r in range(2) for t in evaluation_points(cfg)[1:]]
    # Each replication's last table is the one its run ended with.
    finals = {replication: strategy.table for replication, _, strategy in fold(str(tmp_path))}
    for replication in range(2):
        sim = Simulation(cfg, replication)
        sim.run()
        assert finals[replication] == sim.strategy.table


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


# Each case: how it corrupts trials.csv's rows, returning the data row the error names.
CORRUPT_TRIALS = {
    "flipped-reward-digit": (_flip_reward_digit, "differs from the recomputed"),
    "row-without-reward": (_drop_reward_value, "8 values for 9 columns"),
    "unknown-goal": (_unknown_goal, "unknown goal 'z'"),
    "swapped-rows": (_swap_rows, "replication 0 trial 6 where replication 0 trial 5 belongs"),
    "incomplete-replication": (_drop_last_row, "replication 1 ends after 302 of 303 trials"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_TRIALS))
def test_values_of_a_corrupt_trials_csv_exits_2_naming_the_row(tmp_path, capsys, case):
    run_experiment(replace(fold_cfg(3, "m_grail"), out_dir=str(tmp_path)))
    path = tmp_path / "trials.csv"
    corrupt, message = CORRUPT_TRIALS[case]
    rows = _rows(path.read_text())
    n = corrupt(rows)
    path.write_text(_joined(rows))
    capsys.readouterr()
    assert main(["values", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: CSV {path} row {n}: ") and message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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
