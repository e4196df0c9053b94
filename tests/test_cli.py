"""CLI surface: run/plot/validate subcommands, exit codes, determinism."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading

import pytest
import yaml

import lightup
from lightup.cli import build_parser, main
from lightup.errors import ConfigError
from lightup.experiment import ExperimentConfig

from conftest import run_dir_bytes


def run_cli(*argv):
    return main(list(argv))


CUSTOM_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "custom_scenario.yaml")


def tiny_scenario_dict(total=120):
    return {
        "goals": ["a", "b", "c", "d", "e", "f"],
        "context_prob_on": 0.5,
        "trials_per_epoch": 1,
        "total_trials": total,
        "reset_policy": "per_trial",
        "rules": [{"goal": "a", "requires_context": 1.0}],
    }


def test_run_writes_csv_set(tmp_path):
    out = tmp_path / "run1"
    code = run_cli("run", "--scenario", "1", "--system", "grail", "--seed", "42",
                   "--replications", "2", "--trials", "100", "--out", str(out))
    assert code == 0
    for name in ("trials.csv", "competence.csv", "wasted.csv",
                 "competence_agg.csv", "wasted_agg.csv", "run.yaml"):
        assert (out / name).exists()


def test_run_is_deterministic_across_invocations(tmp_path):
    args = ["run", "--scenario", "3", "--system", "m_grail", "--backend", "idealized",
            "--seed", "42", "--replications", "1", "--trials", "300"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()


def test_unknown_system_exits_2_listing_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "1", "--system", "dyna")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "c_grail" in err and "m_grail" in err and "grail" in err


def test_missing_config_file_exits_2(capsys):
    assert run_cli("run", "--config", "/nonexistent/cfg.yaml") == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--config"], ["validate", "--config"], ["validate", "--scenario"]])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"system: grail\nseed: \xff\n")
    out = ["--out", str(tmp_path / "run")] if command[0] == "run" else []
    assert run_cli(*command, str(path), *out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_non_decimal_digit_scenario_reference_exits_2_naming_it(tmp_path, capsys):
    # "²".isdigit() is true, but int("²") raises ValueError.
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": "\u00b2"}), encoding="utf-8")
    for command in (["validate", "--scenario", "\u00b2"], ["validate", "--config", str(path)],
                    ["run", "--config", str(path), "--out", str(tmp_path / "run")]):
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario file \u00b2")
        assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    from lightup import cli
    from lightup.errors import NumericsError

    def boom(cfg):
        raise NumericsError("expert parameter went non-finite")

    monkeypatch.setattr(cli.exp, "run_experiment", boom)
    code = run_cli("run", "--scenario", "1", "--trials", "50",
                   "--replications", "1", "--out", str(tmp_path / "x"))
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_underflowing_temperature_exits_3(tmp_path, capsys):
    code = run_cli("run", "--scenario", "1", "--temperature", "1e-320", "--trials", "50",
                   "--replications", "1", "--out", str(tmp_path / "x"))
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure")


# -- progress ------------------------------------------------------------------

PROGRESS = re.compile(r"replication (\d+) of (\d+): mean competence (\d\.\d{3}), cumulative waste (\d+), \d+\.\d s")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_prints_one_progress_line_per_replication_in_order(tmp_path, capfd, jobs):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "1", "--trials", "100", "--replications", "2", "--jobs", jobs,
                   "--out", str(out)) == 0
    stdout, err = capfd.readouterr()
    assert stdout == f"wrote {out}/trials.csv, competence.csv, wasted.csv (+ _agg, run.yaml)\n"
    with open(out / "competence.csv", newline="") as fh:
        final = [r for r in csv.DictReader(fh) if r["trial_index"] == "100"]
    with open(out / "wasted.csv", newline="") as fh:
        wasted = {r["replication"]: r["cumulative_wasted"] for r in csv.DictReader(fh) if r["interval_end"] == "100"}
    expected = []
    for rep in "01":
        values = [float(r["competence"]) for r in final if r["replication"] == rep]
        expected.append((rep, "2", f"{sum(values) / len(values):.3f}", wasted[rep]))
    matches = [PROGRESS.fullmatch(line) for line in err.splitlines()]
    assert all(matches), err
    assert [m.groups() for m in matches] == expected


def test_run_with_an_unreachable_sphere_prints_one_error_line(tmp_path, capfd):
    bad = tiny_scenario_dict()
    bad["positions"] = {lab: [0.45, 0.4] for lab in "abcdef"}
    bad["positions"]["c"] = [5.0, 5.0]
    path = tmp_path / "far.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert run_cli("run", "--scenario", str(path), "--replications", "2", "--out", str(tmp_path / "run")) == 2
    assert capfd.readouterr() == ("", "error: sphere(s) outside arm reach: c\n")
    assert not (tmp_path / "run").exists()


def test_numeric_failure_in_replication_0_prints_no_progress_line(tmp_path, capfd, monkeypatch):
    from lightup import cli
    from lightup.errors import NumericsError

    def boom(self):
        raise NumericsError("expert parameter went non-finite")

    monkeypatch.setattr(cli.exp.Simulation, "run_trial", boom)
    code = run_cli("run", "--scenario", "1", "--trials", "50", "--replications", "2", "--jobs", "1",
                   "--out", str(tmp_path / "x"))
    assert code == 3
    assert capfd.readouterr() == ("", "numeric failure: expert parameter went non-finite\n")


def test_verbose_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("-v", "run", "--scenario", "1", "--out", str(tmp_path / "run"))
    assert exc.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# Config values out of their range: (field, value).
OUT_OF_RANGE = [
    ("temperature", float("nan")),
    ("temperature", float("inf")),
    ("expert_temperature", 0.0),
    ("expert_smoothing", 0.0),
    ("expert_smoothing", 1.5),
    ("predictor_eta", 2.0),
    ("gate_epsilon", -1.0),
    ("eval_trials", 0),
    ("idealized_init_competence", 1.5),
    ("idealized_learning_rate", 5.0),
    ("idealized_learning_rate", 0.0),
    ("idealized_disruption", -0.1),
    ("idealized_exploration_floor", 2.0),
    pytest.param("arm", {"link_lengths": [0, 0.25, 0.25, 0.25]}, id="arm-zero_link"),
    pytest.param("arm", {"max_step": -1}, id="arm-negative_max_step"),
    pytest.param("arm", {"joint_min": [1.0] * 4, "joint_max": [0.0] * 4}, id="arm-inverted_limits"),
    pytest.param("arm", {"joint_min": [0.0] * 4, "joint_max": [0.0] * 4}, id="arm-fixed_joints"),
    pytest.param("arm", {"reach": 2.0}, id="arm-unknown_key"),
    pytest.param("arm", {"joint_min": [-math.inf] * 4}, id="arm-infinite_joint_min"),
    pytest.param("arm", {"link_lengths": [math.inf, 0.25, 0.25, 0.25]}, id="arm-infinite_link"),
    pytest.param("arm", {"max_step": math.inf}, id="arm-infinite_max_step"),
    pytest.param("arm", {"touch_radius": math.inf}, id="arm-infinite_touch_radius"),
    pytest.param("actor_critic", {"hidden": 8}, id="actor_critic-unknown_key"),
    pytest.param("actor_critic", {"hidden_units": 0}, id="actor_critic-no_hidden_units"),
    pytest.param("actor_critic", {"noise_correlation": 1.5}, id="actor_critic-noise_correlation"),
    pytest.param("actor_critic", {"discount": -3.0}, id="actor_critic-negative_discount"),
    pytest.param("actor_critic", {"sigma_min": 5.0}, id="actor_critic-sigma_min_above_start"),
    ("seed", -1),
]

# Config values of the wrong type: (field, value, start of the error text).
MISTYPED = [
    ("eval_trials", "abc", "eval_trials must be an integer"),
    ("eval_trials", 2.5, "eval_trials must be an integer"),
    ("replications", True, "replications must be an integer"),
    ("temperature", "hot", "temperature must be a number"),
    ("clip_reward", "no", "clip_reward must be true or false"),
    ("clip_reward", 1, "clip_reward must be true or false"),
    ("arm", {"max_step": "abc"}, "arm.max_step must be a number"),
    ("arm", {"link_lengths": 0.25}, "arm.link_lengths must be a list of numbers"),
    ("actor_critic", {"hidden_units": 9.5}, "actor_critic.hidden_units must be an integer"),
    ("actor_critic", [], "actor_critic must be a mapping"),
    ("replications", None, "replications must be an integer"),
]
MISTYPED_IDS = ["eval_trials-text", "eval_trials-fraction", "replications-bool", "temperature-text",
                "clip_reward-text", "clip_reward-int", "arm-max_step-text", "arm-link_lengths-scalar",
                "actor_critic-hidden_units-fraction", "actor_critic-list",
                "replications-null"]


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_out_of_range_config_value_exits_2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    # validate reads the file as run does, and refuses it alike.
    for command in (["run", "--out", str(tmp_path / "x")], ["validate"]):
        assert run_cli(*command, "--config", str(cfg_path)) == 2
        # A nested section names itself, then its own problem; the line names every key set.
        expected = f"error: {field}: " if isinstance(value, dict) else f"error: {field} must be in"
        err = capsys.readouterr().err
        assert err.startswith(expected) and "Traceback" not in err
        assert all(key in err.splitlines()[0] for key in (value if isinstance(value, dict) else [field]))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field, value, message", MISTYPED, ids=MISTYPED_IDS)
def test_mistyped_config_value_exits_2(tmp_path, capsys, field, value, message):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field, value", OUT_OF_RANGE + [
    pytest.param(field, value, id=name) for (field, value, _), name in zip(MISTYPED, MISTYPED_IDS)])
def test_python_config_raises_the_error_the_cli_prints(tmp_path, capsys, field, value):
    # A config built from Python takes the config file's path: the same value
    # raises ConfigError with the text the CLI prints after "error: ".
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 2
    printed = capsys.readouterr().err.splitlines()[0]
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(scenario=1, **{field: value})
    assert printed == f"error: {exc.value}"


@pytest.mark.parametrize("field, value, message", [
    ("arm", {"mirrored": True}, "arm: unknown key 'mirrored'"),
    ("idealized_noise_scale", 0.1, "config: unknown key 'idealized_noise_scale'"),
], ids=["arm-mirrored", "idealized_noise_scale"])
def test_removed_config_key_exits_2(tmp_path, capsys, field, value, message):
    # Both arms run one chain and the idealized attempt has no jitter, so
    # neither key configures anything: a config file that sets one is
    # rejected as naming an unknown key.
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x").exists()


def test_feature_offset_whose_width_overflows_exits_2(tmp_path, capsys):
    # The feature biases are drawn from [-offset, offset], whose width
    # 2e308 is not finite: the config is refused before any arm is built.
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"actor_critic": {"feature_offset": 1.0e308}}))
    assert run_cli("run", "--config", str(cfg_path), "--backend", "actor_critic", "--trials", "2",
                   "--replications", "1", "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err == ("error: actor_critic: feature_offset must be in "
                                       "[0.0, 8.988465674311579e+307], got 1e+308\n")
    assert not (tmp_path / "x").exists()


def test_config_values_read_exactly(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "scenario": 1, "clip_reward": False, "eval_trials": "3", "temperature": 1,
        "arm": {"max_step": 1, "link_lengths": [1, 1, 1, 1]},
        "actor_critic": {"hidden_units": 12.0},
    }))
    assert run_cli("run", "--config", str(cfg_path), "--print-config") == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["clip_reward"] is False and data["eval_trials"] == 3
    assert data["temperature"] == 1.0 and isinstance(data["temperature"], float)
    assert data["arm"]["max_step"] == 1.0 and data["arm"]["link_lengths"] == [1.0] * 4
    assert data["actor_critic"]["hidden_units"] == 12 and isinstance(data["actor_critic"]["hidden_units"], int)


def test_values_csv_holds_every_evaluation_point(tmp_path, capsys):
    # 120 trials at interval 50: every output evaluates at 50, 100 and the
    # last trial, 120.
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "1", "--seed", "5", "--replications", "1",
                   "--trials", "120", "--eval-interval", "50", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("values", str(out)) == 0
    (out / "values.csv").write_text(capsys.readouterr().out)

    def column(name, key):
        with open(out / name, encoding="utf-8") as fh:
            return sorted({int(row[key]) for row in csv.DictReader(fh)})

    assert column("values.csv", "trial") == [50, 100, 120]
    assert column("wasted.csv", "interval_end") == [50, 100, 120]
    assert column("competence.csv", "trial_index") == [0, 50, 100, 120]


@pytest.mark.parametrize("command", ["run-out-file", "run-out-under-file", "plot-out-missing-dir"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, command):
    from lightup.experiment import Simulation

    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    if command == "plot-out-missing-dir":
        run = tmp_path / "run"
        assert run_cli("run", "--scenario", "1", "--replications", "1", "--trials", "50",
                       "--out", str(run)) == 0
        argv = ["plot", str(run), "--out", str(tmp_path / "missing" / "x.svg")]
    else:
        out = blocker if command == "run-out-file" else blocker / "sub"
        argv = ["run", "--scenario", "1", "--replications", "3", "--out", str(out)]
    trials = []
    monkeypatch.setattr(Simulation, "run_trial", lambda self: trials.append(1))
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert trials == []  # a run fails before its first trial
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_run_without_out_dir_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("LIGHTUP_OUT", raising=False)
    assert run_cli("run", "--scenario", "1", "--trials", "50", "--replications", "1") == 2
    assert capsys.readouterr().err == "error: no output directory: pass --out or set $LIGHTUP_OUT\n"


def test_out_dir_env_var_default(tmp_path, monkeypatch):
    out = tmp_path / "envrun"
    monkeypatch.setenv("LIGHTUP_OUT", str(out))
    code = run_cli("run", "--scenario", "1", "--trials", "50", "--replications", "1")
    assert code == 0
    assert (out / "trials.csv").exists()


def test_indivisible_trials_override_exits_2(capsys):
    assert run_cli("run", "--scenario", "3", "--trials", "100", "--out", "/tmp/x") == 2
    assert "divisible" in capsys.readouterr().err


def test_trials_override_is_validated(capsys):
    assert run_cli("run", "--scenario", "1", "--trials", "0", "--print-config") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "positive" in err


def test_print_config(tmp_path, capsys):
    code = run_cli("run", "--scenario", "2", "--system", "c_grail", "--print-config")
    assert code == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["system"] == "c_grail"
    assert data["scenario"]["total_trials"] == 4000
    assert "temperature" in data and "arm" in data
    # A printed config read back with --config prints the same bytes, for a
    # builtin scenario and for the example file's requires_context rule.
    for scenario in ("3", CUSTOM_SCENARIO):
        assert run_cli("run", "--scenario", scenario, "--print-config") == 0
        printed = capsys.readouterr().out
        path = tmp_path / "cfg.yaml"
        path.write_text(printed)
        assert run_cli("run", "--config", str(path), "--print-config") == 0
        assert capsys.readouterr().out == printed


def test_config_file_plus_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "scenario": tiny_scenario_dict(),
        "system": "grail",
        "replications": 2,
    }))
    code = run_cli("run", "--config", str(cfg_path), "--system", "c_grail", "--print-config")
    assert code == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["system"] == "c_grail"            # override wins
    assert data["replications"] == 2              # file value kept
    assert data["scenario"]["total_trials"] == 120


# Each run flag's dest names the ExperimentConfig field it sets, save these.
NON_FIELD_DESTS = {"config", "trials", "print_config", "command"}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# A value other than the default for each field flag.
FLAG_VALUES = {"scenario": "2", "system": "c_grail", "backend": "actor_critic", "seed": "5",
               "replications": "3", "eval_interval": "25", "temperature": "0.02", "jobs": "2",
               "out_dir": "elsewhere"}


def parser_actions(*commands):
    """The actions of the top-level parser and of the named subparsers, help left out."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for p in (parser, *(sub.choices[c] for c in commands)) for a in p._actions
            if not isinstance(a, argparse._HelpAction)]


def test_every_run_and_validate_dest_is_a_config_field_or_named():
    dests = {a.dest for a in parser_actions("run", "validate")}
    assert dests - CONFIG_FIELDS - NON_FIELD_DESTS == set()


@pytest.mark.parametrize("action", [a for a in parser_actions("run") if a.dest in CONFIG_FIELDS],
                         ids=lambda a: a.dest)
def test_run_flag_sets_what_its_config_key_sets(tmp_path, capsys, monkeypatch, action):
    monkeypatch.delenv("LIGHTUP_OUT", raising=False)
    argv = [action.option_strings[-1], *([] if action.nargs == 0 else [FLAG_VALUES[action.dest]])]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({action.dest: getattr(build_parser().parse_args(["run", *argv]), action.dest)}))
    assert run_cli("run", "--print-config") == 0
    default = capsys.readouterr().out
    assert run_cli("run", *argv, "--print-config") == 0
    by_flag = capsys.readouterr().out
    assert run_cli("run", "--config", str(path), "--print-config") == 0
    assert capsys.readouterr().out == by_flag != default


# -- validate ---------------------------------------------------------------------


def test_validate_builtin_3_prints_chains(capsys):
    assert run_cli("validate", "--scenario", "3") == 0
    out = capsys.readouterr().out
    assert "d -> c" in out and "c -> e" in out
    assert "b -> f" in out and "f -> a" in out
    assert "d -| b" in out and "b -| d" in out
    assert "ok" in out


def test_validate_cycle_exits_2_naming_cycle(tmp_path, capsys):
    bad = tiny_scenario_dict()
    bad["rules"] = [
        {"goal": "a", "requires_on": ["b"]},
        {"goal": "b", "requires_on": ["a"]},
    ]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert run_cli("validate", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "cyclic" in err and "a" in err and "b" in err


def test_validate_unreachable_sphere_exits_2_naming_goal(tmp_path, capsys):
    bad = tiny_scenario_dict()
    bad["positions"] = {lab: [0.45, 0.4] for lab in "abcdef"}
    bad["positions"]["c"] = [5.0, 5.0]
    path = tmp_path / "far.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert run_cli("validate", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "outside arm reach" in err and "c" in err


def test_nan_sphere_position_exits_2_naming_goal(tmp_path, capsys):
    bad = tiny_scenario_dict()
    bad["positions"] = {lab: [0.45, 0.4] for lab in "abcdef"}
    bad["positions"]["c"] = [float("nan"), 0.6]
    path = tmp_path / "nan.yaml"
    path.write_text(yaml.safe_dump(bad))
    for command in (["validate"], ["run", "--out", str(tmp_path / "run")]):
        assert run_cli(*command, "--scenario", str(path)) == 2
        assert capsys.readouterr().err == "error: goal 'c' position (nan, 0.6) must be two finite numbers\n"
    assert not (tmp_path / "run").exists()


def test_validate_sphere_reachable_by_either_arm(tmp_path, capsys):
    # With every joint in [-0.5, 0.5] the right arm reaches (0.9, 0.1) and
    # only the left arm, its mirror image, reaches (-0.9, 0.1); neither arm
    # folds back to (0.3, 0.0).
    arm = {"joint_min": [-0.5] * 4, "joint_max": [0.5] * 4}
    scenario = {"goals": ["a", "b"], "positions": {"a": [-0.9, 0.1], "b": [0.9, 0.1]}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": scenario, "arm": arm}))
    assert run_cli("validate", "--config", str(path)) == 0
    assert capsys.readouterr().out.endswith("ok\n")
    scenario["goals"].append("c")
    scenario["positions"]["c"] = [0.3, 0.0]
    path.write_text(yaml.safe_dump({"scenario": scenario, "arm": arm}))
    assert run_cli("validate", "--config", str(path)) == 2
    assert capsys.readouterr().err == "error: sphere(s) outside arm reach: c\n"


def test_validate_needs_an_argument(capsys):
    assert run_cli("validate") == 2


def test_validate_via_config_file(tmp_path):
    cfg = {"scenario": tiny_scenario_dict(), "system": "grail",
           "arm": {"touch_radius": 0.08}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("validate", "--config", str(path)) == 0


def test_validate_scenario_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": tiny_scenario_dict()}))
    assert run_cli("validate", "--config", str(path), "--scenario", "3") == 0
    assert "interrelated_chains" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, message", [
    ("total_trials", "abc", "total_trials must be an integer"),
    ("trials_per_epoch", 2.5, "trials_per_epoch must be an integer"),
    ("context_prob_on", "hi", "context_prob_on must be a number"),
    ("context_prob_on", True, "context_prob_on must be a number"),
    ("rules", [{"goal": "a", "requires_context": "x"}], "goal 'a' requires_context must be a number, got 'x'"),
    ("positions", {lab: [0.45, 0.4] for lab in "bcdef"} | {"a": [1]},
     "goal 'a' position (1.0,) must be two finite numbers"),
    ("goals", "ab", "goals must be a list"),
    ("total_trial", 500, "scenario: unknown key 'total_trial'"),
    ("rules", [{"goal": "b", "require_on": ["a"]}], "rules[0]: unknown key 'require_on'"),
    ("rules", {"goal": "a"}, "rules must be a list"),
    ("rules", [{"goal": "b", "requires_on": "a"}], "rules[0].requires_on must be a list"),
    ("rules", [{"goal": "b", "requires_on": [["a"]]}], "rule references unknown goal ['a']"),
    ("positions", [[0.45, 0.4]] * 6, "positions must be a mapping"),
    ("goals", [1, 2], "goal label 1 is not text; put it in quotes"),
    ("goals", [True, False], "goal label True is not text; put it in quotes"),
    ("goals", [*"abcdef", "a"], "duplicate goal labels in ('a', 'b', 'c', 'd', 'e', 'f', 'a')"),
    ("context_prob_on", 1.5, "context_prob_on 1.5 outside [0, 1]"),
    ("reset_policy", "sometimes", "reset_policy 'sometimes'; expected one of ('per_trial', 'per_epoch')"),
    ("goals", None, "scenario is missing the 'goals' list"),
    ("positions", {lab: [0.45, 0.4] for lab in "bcdef"}, "positions missing for goals ['a']"),
    ("rules", [{"requires_on": ["a"]}], "rule entry missing 'goal': {'requires_on': ['a']}"),
], ids=["total_trials-text", "trials_per_epoch-fraction", "context_prob_on-text",
        "context_prob_on-bool", "requires_context-text", "position-one_number", "goals-text",
        "unknown_key", "rule-unknown_key", "rules-mapping", "requires_on-text", "requires_on-nested",
        "positions-list", "goals-numbers", "goals-yes_no", "goals-duplicate", "context_prob_on-above_1",
        "reset_policy-unknown", "goals-missing", "positions-missing_goal", "rule-without_goal"])
def test_mistyped_scenario_value_exits_2(tmp_path, capsys, key, value, message):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump({**tiny_scenario_dict(), key: value}))
    assert run_cli("validate", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_empty_scenario_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "scn.yaml"
    path.write_text("")
    assert run_cli("validate", "--scenario", str(path)) == 2
    assert capsys.readouterr().err == f"error: scenario file {path} is empty\n"


@pytest.mark.parametrize("command, data, message", [
    (["validate", "--scenario"], tiny_scenario_dict() | {"trials_per_epoch": 3},
     "reset_policy per_trial needs trials_per_epoch 1, got 3; for longer epochs set reset_policy: per_epoch"),
    (["validate", "--config"], {"scenario": tiny_scenario_dict() | {"context_mode": "context_feature"}},
     "context_mode 'context_feature'; expected one of ('none', 'full_state')"),
], ids=["per_trial-three_trial_epochs", "context_feature"])
def test_validate_refuses_a_retired_setting_naming_its_replacement(tmp_path, capsys, command, data, message):
    path = tmp_path / "in.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run_cli(*command, str(path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_scenario_refuses_a_config_file(tmp_path, capsys):
    # The scenario's spheres are out of this arm's reach: --scenario must not
    # check them against the default arm instead.
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": {"goals": ["a", "b"]},
                                    "arm": {"link_lengths": [0.1, 0.1, 0.1, 0.1]}}))
    assert run_cli("validate", "--config", str(path)) == 2
    assert "outside arm reach" in capsys.readouterr().err
    for command in (["validate"], ["run", "--out", str(tmp_path / "run")]):
        assert run_cli(*command, "--scenario", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file") and "['arm']" in err and "--config" in err
    assert not (tmp_path / "run").exists()


def test_validate_documented_custom_scenario(capsys):
    assert run_cli("validate", "--config", CUSTOM_SCENARIO) == 0
    assert run_cli("validate", "--scenario", CUSTOM_SCENARIO) == 0
    assert "mini_chain" in capsys.readouterr().out


def test_python_api_run_matches_cli_run(tmp_path):
    # A config holds its resolved scenario, so run.yaml is the same whether
    # the scenario was named by id from Python or resolved by the CLI.
    from lightup import ExperimentConfig, run_experiment

    api, cli = tmp_path / "api", tmp_path / "cli"
    run_experiment(ExperimentConfig(scenario=3, system="m_grail", replications=1, seed=5,
                                    out_dir=str(api)))
    assert run_cli("run", "--scenario", "3", "--system", "m_grail", "--replications", "1",
                   "--seed", "5", "--out", str(cli)) == 0
    assert sorted(os.listdir(api)) == sorted(os.listdir(cli))
    for name in os.listdir(api):
        assert (api / name).read_bytes() == (cli / name).read_bytes(), name
    assert yaml.safe_load((api / "run.yaml").read_text())["scenario"]["name"] == "interrelated_chains"


def test_run_with_jobs_flag_matches_serial(tmp_path):
    # Series pickled back from worker processes give every file of a run built
    # in-process, on either backend: the arm run's trials and probes too.
    for backend, run, jobs in [
        ("idealized", ["--scenario", "2", "--system", "c_grail", "--seed", "3", "--replications", "3",
                       "--trials", "120"], "3"),
        ("actor_critic", ["--scenario", "1", "--backend", "actor_critic", "--replications", "2",
                          "--trials", "12", "--eval-interval", "6"], "2"),
    ]:
        a, b = tmp_path / backend / "serial", tmp_path / backend / "par"
        assert run_cli("run", *run, "--jobs", "1", "--out", str(a)) == 0
        assert run_cli("run", *run, "--jobs", jobs, "--out", str(b)) == 0
        assert len(run_dir_bytes(a)) == 6 and run_dir_bytes(a) == run_dir_bytes(b)


def cli_process(*argv, **kw):
    """``python -m lightup.cli ARGV`` in a new process that imports this checkout's lightup,
    its stdout block-buffered into a pipe whatever ``PYTHONUNBUFFERED`` says here."""
    src = os.path.dirname(os.path.dirname(lightup.__file__))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, "-m", "lightup.cli", *argv], env=env, **kw)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_exits_130_without_a_traceback_or_a_run_directory(tmp_path, jobs):
    # Ctrl-C reaches the whole process group, workers included; the run
    # must report it once, exit 130 and write nothing.
    out = tmp_path / "run"
    proc = cli_process("run", "--scenario", "3", "--replications", "200", "--jobs", jobs, "--out", str(out),
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(60.0, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        for line in proc.stderr:
            if line.startswith("replication 0 of 200:"):  # a progress line: trials are running
                break
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "interrupted"
    assert os.listdir(tmp_path) == []
    with pytest.raises(ProcessLookupError):  # no worker outlives the run
        os.killpg(proc.pid, 0)


# Sends this process a Ctrl-C when numpy first imports numpy.random's
# generator module, as a user's Ctrl-C may land there: its Cython module init
# would swallow the KeyboardInterrupt. Prints whether SIGINT was blocked then.
NUMPY_RANDOM_INTERRUPTED = """
import os, signal, sys
from lightup.cli import main

blocked = []

class InterruptingFinder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.random._generator" and not blocked:
            blocked.append(signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, []))
            os.kill(os.getpid(), signal.SIGINT)
        return None

sys.meta_path.insert(0, InterruptingFinder())
code = main(sys.argv[1:])
print(blocked)
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["run", "validate", "values"])
def test_ctrl_c_while_numpy_imports_numpy_random_exits_130(tmp_path, command):
    done = tmp_path / "done"
    out = tmp_path / "run"
    argv = {"run": ["run", "--scenario", "1", "--trials", "50", "--replications", "1", "--out", str(out)],
            "validate": ["validate", "--scenario", "1"], "values": ["values", str(done)]}[command]
    if command == "values":
        assert run_cli("run", "--trials", "50", "--replications", "1", "--out", str(done)) == 0
    src = os.path.dirname(os.path.dirname(lightup.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_INTERRUPTED, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[True]\n", proc.stderr
    assert (proc.returncode, proc.stderr) == (130, "interrupted\n")
    assert not out.exists()


# Runs lightup.cli.main once per argument list of the JSON list it is given,
# then prints which of the named modules the interpreter loaded.
LOADED_MODULES = """
import json, sys
from lightup.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(sorted({"html", "logging", "multiprocessing", "numpy.random"} & set(sys.modules))))
sys.exit(max(codes))
"""


def loaded_modules(*commands: list[str]) -> list[str]:
    src = os.path.dirname(os.path.dirname(lightup.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_run_and_plot_load_none_of_html_logging_or_multiprocessing(tmp_path):
    # multiprocessing is imported only where a pool starts, progress lines
    # are plain prints, and svgplot escapes its text itself.
    out = str(tmp_path / "run")
    assert loaded_modules(["run", "--scenario", "1", "--trials", "50", "--replications", "2", "--jobs", "1",
                           "--out", out], ["plot", out]) == ["numpy.random"]


def test_print_config_loads_no_numpy_random():
    # It runs no trial, so it draws nothing (numpy.random loads OpenSSL, about 5.5 MB).
    assert loaded_modules(["run", "--scenario", "3", "--print-config"]) == []


@pytest.mark.parametrize("reader", ["reads-one-line", "reads-nothing"])
def test_values_into_a_closed_pipe_exits_141_silently(tmp_path, reader):
    # `lightup values RUN | head -n 1`: a reader that quits is no input error.
    # The command ends with status 141 (128 + SIGPIPE) and nothing on stderr,
    # whether a write fails (129 kB of tables, more than a pipe holds) or only
    # the last flush (338 bytes of a short run into a pipe with no reader).
    out = tmp_path / "run"
    run = ["--scenario", "3", "--system", "m_grail"] if reader == "reads-one-line" else ["--trials", "100"]
    assert run_cli("run", *run, "--replications", "1", "--out", str(out)) == 0
    if reader == "reads-one-line":
        proc = cli_process("values", str(out), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"replication,trial,state_key,goal,value\n"
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = cli_process("values", str(out), stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# -- plot ------------------------------------------------------------------------


def make_run(tmp_path, name, system="grail", scenario="1"):
    out = tmp_path / name
    assert run_cli("run", "--scenario", scenario, "--system", system, "--seed", "7",
                   "--replications", "2", "--trials", "100", "--out", str(out)) == 0
    return out


def test_plot_single_run_has_six_labeled_series(tmp_path):
    out = make_run(tmp_path, "p1")
    svg_path = tmp_path / "curves.svg"
    assert run_cli("plot", str(out), "--out", str(svg_path)) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") or svg.startswith('<svg')
    for lab in "abcdef":
        assert f">{lab}</text>" in svg
    assert "wasted" in svg


def test_plot_is_byte_identical_on_rerun(tmp_path):
    out = make_run(tmp_path, "p2")
    s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
    assert run_cli("plot", str(out), "--out", str(s1)) == 0
    assert run_cli("plot", str(out), "--out", str(s2)) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_plot_two_runs_side_by_side(tmp_path):
    a = make_run(tmp_path, "grail_run", system="grail", scenario="2")
    b = make_run(tmp_path, "cgrail_run", system="c_grail", scenario="2")
    svg_path = tmp_path / "pair.svg"
    assert run_cli("plot", str(a), str(b), "--out", str(svg_path)) == 0
    svg = svg_path.read_text()
    assert "competence: grail" in svg and "competence: c_grail" in svg
    assert svg.count("wasted trials:") == 2


def test_plot_missing_dir_exits_2(tmp_path, capsys):
    assert run_cli("plot", str(tmp_path / "nope"), "--out", str(tmp_path / "x.svg")) == 2
    assert "missing CSV" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_plot_empty_csv_exits_2_without_partial_file(tmp_path, capsys):
    out = make_run(tmp_path, "p3")
    (out / "competence_agg.csv").write_text("trial_index,goal,mean,ci_low,ci_high\n")
    svg_path = tmp_path / "partial.svg"
    assert run_cli("plot", str(out), "--out", str(svg_path)) == 2
    assert "no data rows" in capsys.readouterr().err
    assert not svg_path.exists()


def _drop_goal_column(text):
    rows = list(csv.reader(text.splitlines()))
    i = rows[0].index("goal")
    return "".join(",".join(r[:i] + r[i + 1:]) + "\n" for r in rows).encode()


def _mean_cell(cell):
    def corrupt(text):
        rows = list(csv.reader(text.splitlines()))
        rows[3][rows[0].index("mean")] = cell
        return "".join(",".join(r) + "\n" for r in rows).encode()
    return corrupt


# Each case: the run file it corrupts, and its new bytes from its old text.
CORRUPT_RUN_FILES = {
    "unparsable-run-yaml": ("run.yaml", lambda text: b"system: [\n"),
    "list-run-yaml": ("run.yaml", lambda text: b"- grail\n- c_grail\n"),
    "undecodable-run-yaml": ("run.yaml", lambda text: b"system: \xff\n"),
    "undecodable-csv": ("wasted_agg.csv", lambda text: b"interval_end,\xff\n"),
    "no-goal-column": ("competence_agg.csv", _drop_goal_column),
    "non-numeric-mean": ("competence_agg.csv", _mean_cell("lots")),
    "nan-mean": ("competence_agg.csv", _mean_cell("nan")),
    "inf-mean": ("competence_agg.csv", _mean_cell("inf")),
    "minus-inf-mean": ("competence_agg.csv", _mean_cell("-inf")),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_RUN_FILES))
def test_plot_of_a_corrupt_run_file_exits_2_naming_it(tmp_path, capsys, case):
    out = make_run(tmp_path, "p4")
    name, corrupt = CORRUPT_RUN_FILES[case]
    path = out / name
    path.write_bytes(corrupt(path.read_text()))
    svg_path = tmp_path / "bad.svg"
    capsys.readouterr()
    assert run_cli("plot", str(out), "--out", str(svg_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if case.endswith("-mean"):
        assert "row 3: mean is not a finite number" in err
    assert "Traceback" not in err
    assert not svg_path.exists()


def _second_row_short(text):
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    return "".join(line + "\n" for line in lines).encode()


# Each case: a run CSV's new bytes from its old text (None deletes it), and the
# error line, the same from every command, for the file's path and header width.
RUN_CSV_DEFECTS = {
    "missing": (lambda text: None, "missing CSV: {path}"),
    "undecodable": (lambda text: b"\xff" + text.encode(),
                    "cannot read CSV {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "no-goal-column": (_drop_goal_column, "CSV {path} header has no goal column"),
    "short-row": (_second_row_short, "CSV {path} row 2: {short} values for {width} columns"),
}


@pytest.mark.parametrize("command, name", [("plot", "competence_agg.csv"), ("values", "trials.csv")])
@pytest.mark.parametrize("case", sorted(RUN_CSV_DEFECTS))
def test_plot_and_values_word_a_run_csvs_defect_alike(tmp_path, capsys, case, command, name):
    out = make_run(tmp_path, "run")
    path = out / name
    text = path.read_text()
    width = text.split("\n", 1)[0].count(",") + 1
    corrupt, message = RUN_CSV_DEFECTS[case]
    data = corrupt(text)
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)
    capsys.readouterr()
    assert run_cli(command, str(out)) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path, short=width - 1, width=width)}\n"
    assert not (out / "curves.svg").exists()


@pytest.mark.parametrize("run_yaml", [None, "", "seed: 7\n", "system: 3\n"])
def test_plot_labels_a_run_without_a_text_system_by_its_directory(tmp_path, run_yaml):
    out = make_run(tmp_path, "unlabeled")
    if run_yaml is None:
        (out / "run.yaml").unlink()
    else:
        (out / "run.yaml").write_text(run_yaml)
    svg_path = tmp_path / "u.svg"
    assert run_cli("plot", str(out), "--out", str(svg_path)) == 0
    svg = svg_path.read_text()
    assert "competence: unlabeled" in svg and "wasted trials: unlabeled" in svg


def test_plot_reads_each_run_yaml_once(tmp_path, monkeypatch):
    a = make_run(tmp_path, "a", system="grail")
    b = make_run(tmp_path, "b", system="c_grail")
    loads = []
    real_load = yaml.safe_load
    monkeypatch.setattr(yaml, "safe_load", lambda stream: loads.append(stream.name) or real_load(stream))
    assert run_cli("plot", str(a), str(b), "--out", str(tmp_path / "ab.svg")) == 0
    assert loads == [str(a / "run.yaml"), str(b / "run.yaml")]
