"""CLI surface: run/plot/validate subcommands, exit codes, determinism."""

import csv
import os

import pytest
import yaml

from lightup.cli import main


def run_cli(*argv):
    return main(list(argv))


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


@pytest.mark.parametrize("field, value", [
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
    pytest.param("actor_critic", {"hidden": 8}, id="actor_critic-unknown_key"),
    pytest.param("actor_critic", {"hidden_units": 0}, id="actor_critic-no_hidden_units"),
    pytest.param("actor_critic", {"noise_correlation": 1.5}, id="actor_critic-noise_correlation"),
    pytest.param("actor_critic", {"discount": -3.0}, id="actor_critic-negative_discount"),
    pytest.param("actor_critic", {"sigma_min": 5.0}, id="actor_critic-sigma_min_above_start"),
    ("seed", -1),
])
def test_out_of_range_config_value_exits_2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 2
    # A nested section names itself, then its own problem.
    expected = f"error: {field}: " if isinstance(value, dict) else f"error: {field} must be in"
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field, value, message", [
    ("eval_trials", "abc", "eval_trials must be an integer"),
    ("eval_trials", 2.5, "eval_trials must be an integer"),
    ("replications", True, "replications must be an integer"),
    ("temperature", "hot", "temperature must be a number"),
    ("clip_reward", "no", "clip_reward must be true or false"),
    ("dump_values", 1, "dump_values must be true or false"),
    ("arm", {"max_step": "abc"}, "arm.max_step must be a number"),
    ("arm", {"link_lengths": 0.25}, "arm.link_lengths must be a list of numbers"),
    ("actor_critic", {"hidden_units": 9.5}, "actor_critic.hidden_units must be an integer"),
    ("actor_critic", [], "actor_critic must be a mapping"),
    ("replications", None, "replications must be an integer"),
], ids=["eval_trials-text", "eval_trials-fraction", "replications-bool", "temperature-text",
        "clip_reward-text", "dump_values-int", "arm-max_step-text", "arm-link_lengths-scalar",
        "actor_critic-hidden_units-fraction", "actor_critic-list",
        "replications-null"])
def test_mistyped_config_value_exits_2(tmp_path, capsys, field, value, message):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"scenario": 1, field: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field, value, message", [
    ("arm", {"mirrored": True}, "arm: unknown key 'mirrored'"),
    ("idealized_noise_scale", 0.1, "unknown config key 'idealized_noise_scale'"),
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


def test_values_csv_holds_every_evaluation_point(tmp_path):
    # 120 trials at interval 50: every output evaluates at 50, 100 and the
    # last trial, 120.
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "1", "--seed", "5", "--replications", "1",
                   "--trials", "120", "--eval-interval", "50", "--dump-values",
                   "--out", str(out)) == 0

    def column(name, key):
        with open(out / name, encoding="utf-8") as fh:
            return sorted({int(row[key]) for row in csv.DictReader(fh)})

    assert column("values.csv", "trial") == [50, 100, 120]
    assert column("wasted.csv", "interval_end") == [50, 100, 120]
    assert column("competence.csv", "trial_index") == [0, 50, 100, 120]


@pytest.mark.parametrize("command", ["run-out-file", "run-out-under-file", "plot-out-missing-dir"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    if command == "plot-out-missing-dir":
        run = tmp_path / "run"
        assert run_cli("run", "--scenario", "1", "--replications", "1", "--trials", "50",
                       "--out", str(run)) == 0
        argv = ["plot", str(run), "--out", str(tmp_path / "missing" / "x.svg")]
    else:
        out = blocker if command == "run-out-file" else blocker / "sub"
        argv = ["run", "--scenario", "1", "--replications", "1", "--trials", "50", "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_run_without_out_dir_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("LIGHTUP_OUT", raising=False)
    assert run_cli("run", "--scenario", "1", "--trials", "50", "--replications", "1") == 2
    assert "output directory" in capsys.readouterr().err


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


def test_print_config(capsys):
    code = run_cli("run", "--scenario", "2", "--system", "c_grail", "--print-config")
    assert code == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["system"] == "c_grail"
    assert data["scenario"]["total_trials"] == 4000
    assert "temperature" in data and "arm" in data


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
    ("rules", [{"goal": "a", "requires_context": "x"}], "rules[0].requires_context must be a number"),
    ("positions", {lab: [0.45, 0.4] for lab in "bcdef"} | {"a": [1]}, "positions.a must be two numbers"),
    ("goals", "ab", "goals must be a list"),
    ("total_trial", 500, "scenario: unknown key 'total_trial'"),
    ("rules", [{"goal": "b", "require_on": ["a"]}], "rules[0]: unknown key 'require_on'"),
    ("rules", {"goal": "a"}, "rules must be a list"),
    ("rules", [{"goal": "b", "requires_on": "a"}], "rules[0].requires_on must be a list"),
    ("rules", [{"goal": "b", "requires_on": [["a"]]}], "rule references unknown goal ['a']"),
    ("positions", [[0.45, 0.4]] * 6, "positions must be a mapping"),
    ("goals", [1, 2], "goal label 1 is not text; put it in quotes"),
    ("goals", [True, False], "goal label True is not text; put it in quotes"),
], ids=["total_trials-text", "trials_per_epoch-fraction", "context_prob_on-text",
        "context_prob_on-bool", "requires_context-text", "position-one_number", "goals-text",
        "unknown_key", "rule-unknown_key", "rules-mapping", "requires_on-text", "requires_on-nested",
        "positions-list", "goals-numbers", "goals-yes_no"])
def test_mistyped_scenario_value_exits_2(tmp_path, capsys, key, value, message):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump({**tiny_scenario_dict(), key: value}))
    assert run_cli("validate", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


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
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "custom_scenario.yaml")
    assert run_cli("validate", "--config", path) == 0
    assert run_cli("validate", "--scenario", path) == 0
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
    base = ["run", "--scenario", "2", "--system", "c_grail", "--seed", "3",
            "--replications", "3", "--trials", "120"]
    a, b = tmp_path / "serial", tmp_path / "par"
    assert run_cli(*base, "--jobs", "1", "--out", str(a)) == 0
    assert run_cli(*base, "--jobs", "3", "--out", str(b)) == 0
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()


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
