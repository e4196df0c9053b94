"""Command-line entry point: run experiments, plot their curves, validate scenarios, print value tables.

Exit codes: 0 success, 2 configuration or file problems (bad scenario,
missing or unwritable file, unknown system), 3 runtime numeric failure,
130 interrupted (Ctrl-C), 141 stdout closed (a reader such as ``head`` quit).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import fields, replace

import yaml

from . import experiment as exp
from .arm import unreachable_goals
from .errors import ConfigError, NumericsError
from .inputs import read_csv, read_yaml
from .svgplot import Chart, Series, render_panels

log = logging.getLogger("lightup")

OUT_DIR_ENV = "LIGHTUP_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightup",
        description="Autonomous learning of interrelated sphere-activation tasks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write CSV metrics")
    run.add_argument("--config", help="YAML experiment config file")
    run.add_argument("--scenario", help="builtin scenario id (1, 2, 3) or scenario file")
    run.add_argument("--system", choices=sorted(exp.SYSTEMS), help="goal-selection system")
    run.add_argument("--backend", choices=sorted(exp.BACKENDS), help="expert backend")
    run.add_argument("--seed", type=int, help="base seed; replication r uses seed+r")
    run.add_argument("--replications", type=int, help="number of seeded replications")
    run.add_argument("--trials", type=int, help="override the scenario's total trials")
    run.add_argument("--eval-interval", type=int, dest="eval_interval")
    run.add_argument("--temperature", type=float, help="goal-selection softmax temperature")
    run.add_argument("--jobs", type=int, help="parallel replication processes")
    run.add_argument("--out", dest="out_dir", help=f"output directory (default from ${OUT_DIR_ENV})")
    run.add_argument("--print-config", action="store_true",
                     help="print the resolved config as YAML and exit")

    plot = sub.add_parser("plot", help="render SVG charts from run directories")
    plot.add_argument("run_dirs", nargs="+", help="one or two directories written by `run`")
    plot.add_argument("--out", help="output SVG path (default <first run dir>/curves.svg)")

    val = sub.add_parser("validate", help="check a scenario's rules and reachability")
    val.add_argument("--config", help="YAML file containing a scenario section")
    val.add_argument("--scenario", help="builtin scenario id (1, 2, 3) or scenario file")

    values = sub.add_parser("values", help="print a run's goal-selector value tables, replayed from its trials")
    values.add_argument("run_dir", help="a directory written by `run`")
    return parser


# -- run -----------------------------------------------------------------------


def _config(args) -> exp.ExperimentConfig:
    """The config of ``run`` and ``validate``: the ``--config`` file's (or the defaults) with each
    flag given setting the field its dest names; ``out_dir`` is ``--out``, the file's or ``$LIGHTUP_OUT``."""
    cfg = exp.load_config(args.config) if args.config else exp.ExperimentConfig()
    names = {f.name for f in fields(cfg)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    flags["out_dir"] = flags.get("out_dir") or cfg.out_dir or os.environ.get(OUT_DIR_ENV)
    cfg = replace(cfg, **flags)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, scenario=replace(cfg.scenario, total_trials=args.trials))
    return cfg


def cmd_run(args) -> int:
    cfg = _config(args)
    if args.print_config:
        print(yaml.safe_dump(exp.config_to_dict(cfg), sort_keys=True), end="")
        return 0
    if not cfg.out_dir:
        raise ConfigError(f"no output directory: pass --out or set ${OUT_DIR_ENV}")
    log.info("running %s on scenario %s: %d replications x %d trials",
             cfg.system, cfg.scenario.name, cfg.replications, cfg.scenario.total_trials)
    series = exp.run_experiment(cfg)
    finals = zip(cfg.scenario.labels, series[0].competence[-1])
    log.info("replication 0 final competence: %s",
             " ".join(f"{k}={v:.2f}" for k, v in sorted(finals)))
    print(f"wrote {cfg.out_dir}/trials.csv, competence.csv, wasted.csv (+ _agg, run.yaml)")
    return 0


# -- plot ----------------------------------------------------------------------


def _read_rows(path: str, numbers: tuple[str, ...], text: tuple[str, ...] = ()) -> list[dict]:
    """A run CSV's rows: the ``text`` columns as read, the ``numbers`` columns as finite floats."""
    rows = []
    for n, values in read_csv(path, text + numbers):
        row = dict(zip(text + numbers, values))
        for name in numbers:
            try:
                value = float(row[name])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"CSV {path} row {n}: {name} is not a finite number: {row[name]!r}")
            row[name] = value
        rows.append(row)
    if not rows:
        raise ConfigError(f"CSV has no data rows: {path}")
    return rows


def _run_label(run_dir: str) -> str:
    """The system in the directory's run.yaml, else (no run.yaml, or a 0-byte one) the directory's name."""
    meta = os.path.join(run_dir, "run.yaml")
    data = read_yaml(meta, "run") if os.path.isfile(meta) and os.path.getsize(meta) else {}
    if not isinstance(data, dict):
        raise ConfigError(f"run file {meta} must be a mapping, got {type(data).__name__}")
    system = data.get("system")
    return system if isinstance(system, str) else os.path.basename(os.path.normpath(run_dir))


def _band_series(name: str, rows: list[dict], x: str, **style) -> Series:
    """One mean curve with its confidence band, read from aggregate rows."""
    return Series(name=name, xs=[r[x] for r in rows], ys=[r["mean"] for r in rows],
                  band_low=[r["ci_low"] for r in rows], band_high=[r["ci_high"] for r in rows], **style)


def _competence_chart(run_dir: str, label: str) -> Chart:
    rows = _read_rows(os.path.join(run_dir, "competence_agg.csv"),
                      ("trial_index", "mean", "ci_low", "ci_high"), ("goal",))
    chart = Chart(title=f"competence: {label}", x_label="trial",
                  y_label="competence", y_max=1.0)
    for goal in sorted({r["goal"] for r in rows}):
        chart.series.append(_band_series(goal, [r for r in rows if r["goal"] == goal], "trial_index"))
    return chart


def _wasted_chart(run_dir: str, label: str) -> Chart:
    rows = _read_rows(os.path.join(run_dir, "wasted_agg.csv"), ("interval_end", "mean", "ci_low", "ci_high"))
    chart = Chart(title=f"wasted trials: {label}", x_label="trial", y_label="cumulative wasted")
    chart.series.append(_band_series("wasted", rows, "interval_end", color="#d62728"))
    return chart


def cmd_plot(args) -> int:
    runs = [(d, _run_label(d)) for d in args.run_dirs]
    charts = [_competence_chart(*run) for run in runs] + [_wasted_chart(*run) for run in runs]
    svg = render_panels(charts, columns=len(args.run_dirs))
    out = args.out or os.path.join(args.run_dirs[0], "curves.svg")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


# -- validate --------------------------------------------------------------------


def cmd_validate(args) -> int:
    if args.config is None and args.scenario is None:
        raise ConfigError("validate needs --scenario or --config")
    cfg = _config(args)
    bad = unreachable_goals(cfg.scenario, cfg.arm)
    if bad:
        raise ConfigError(f"sphere(s) outside arm reach: {', '.join(bad)}")
    spec = cfg.scenario
    print(f"scenario {spec.name!r}: {spec.n_goals} goals, "
          f"{spec.total_trials} trials ({spec.trials_per_epoch} per epoch, "
          f"reset {spec.reset_policy})")
    print(spec.describe_dependencies())
    print("ok")
    return 0


# -- values ----------------------------------------------------------------------


def cmd_values(args) -> int:
    """Print, as CSV, each replication's value table at each evaluation point after trial 0;
    nothing unless ``fold`` replays the whole run."""
    rows = [[replication, trial, key_text, sim.spec.labels[goal], repr(value)]
            for replication, trial, sim in exp.fold(args.run_dir)
            for key_text, goal, value in sim.strategy.dump_rows()]
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["replication", "trial", "state_key", "goal", "value"])
    out.writerows(rows)
    return 0


# -- entry ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"run": cmd_run, "plot": cmd_plot, "validate": cmd_validate, "values": cmd_values}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail
        return 141
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
