"""Command-line entry point: run experiments, plot their curves, validate scenarios.

Exit codes: 0 success, 2 configuration or file problems (bad scenario,
missing or unwritable file, unknown system), 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import replace

import yaml

from . import experiment as exp
from .arm import unreachable_goals
from .errors import ConfigError, NumericsError
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
    run.add_argument("--out", help=f"output directory (default from ${OUT_DIR_ENV})")
    run.add_argument("--dump-values", action="store_true", default=None,
                     help="also dump goal-selector value tables per interval")
    run.add_argument("--print-config", action="store_true",
                     help="print the resolved config as YAML and exit")

    plot = sub.add_parser("plot", help="render SVG charts from run directories")
    plot.add_argument("run_dirs", nargs="+", help="one or two directories written by `run`")
    plot.add_argument("--out", help="output SVG path (default <first run dir>/curves.svg)")

    val = sub.add_parser("validate", help="check a scenario's rules and reachability")
    val.add_argument("--config", help="YAML file containing a scenario section")
    val.add_argument("--scenario", help="builtin scenario id (1, 2, 3) or scenario file")
    return parser


# -- run -----------------------------------------------------------------------


def _base_config(args) -> exp.ExperimentConfig:
    return exp.load_config(args.config) if args.config else exp.ExperimentConfig()


def _resolve_run_config(args) -> exp.ExperimentConfig:
    cfg = _base_config(args)
    cfg = exp.apply_overrides(
        cfg,
        scenario=args.scenario,
        system=args.system,
        backend=args.backend,
        seed=args.seed,
        replications=args.replications,
        eval_interval=args.eval_interval,
        temperature=args.temperature,
        jobs=args.jobs,
        out_dir=args.out or cfg.out_dir or os.environ.get(OUT_DIR_ENV),
        dump_values=args.dump_values,
    )
    if args.trials is not None:
        cfg = replace(cfg, scenario=replace(cfg.scenario, total_trials=args.trials))
    return cfg


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    if args.print_config:
        print(yaml.safe_dump(exp.config_to_dict(cfg), sort_keys=True), end="")
        return 0
    if not cfg.out_dir:
        raise ConfigError(f"no output directory: pass --out or set ${OUT_DIR_ENV}")
    log.info("running %s on scenario %s: %d replications x %d trials",
             cfg.system, cfg.scenario.name, cfg.replications, cfg.scenario.total_trials)
    result = exp.run_experiment(cfg)
    finals = result.replications[0].final_competence()
    log.info("replication 0 final competence: %s",
             " ".join(f"{k}={v:.2f}" for k, v in sorted(finals.items())))
    print(f"wrote {cfg.out_dir}/trials.csv, competence.csv, wasted.csv (+ _agg, run.yaml)")
    return 0


# -- plot ----------------------------------------------------------------------


def _read_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise ConfigError(f"missing CSV: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"CSV has no data rows: {path}")
    return rows


def _run_label(run_dir: str) -> str:
    meta = os.path.join(run_dir, "run.yaml")
    if os.path.exists(meta):
        with open(meta, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
        if isinstance(data.get("system"), str):
            return data["system"]
    return os.path.basename(os.path.normpath(run_dir))


def _competence_chart(run_dir: str) -> Chart:
    rows = _read_rows(os.path.join(run_dir, "competence_agg.csv"))
    goals = sorted({r["goal"] for r in rows})
    chart = Chart(title=f"competence: {_run_label(run_dir)}", x_label="trial",
                  y_label="competence", y_min=0.0, y_max=1.0)
    for goal in goals:
        sub = [r for r in rows if r["goal"] == goal]
        chart.series.append(Series(
            name=goal,
            xs=[float(r["trial_index"]) for r in sub],
            ys=[float(r["mean"]) for r in sub],
            band_low=[float(r["ci_low"]) for r in sub],
            band_high=[float(r["ci_high"]) for r in sub],
        ))
    return chart


def _wasted_chart(run_dir: str) -> Chart:
    rows = _read_rows(os.path.join(run_dir, "wasted_agg.csv"))
    chart = Chart(title=f"wasted trials: {_run_label(run_dir)}", x_label="trial",
                  y_label="cumulative wasted", y_min=0.0)
    chart.series.append(Series(
        name="wasted",
        xs=[float(r["interval_end"]) for r in rows],
        ys=[float(r["mean"]) for r in rows],
        band_low=[float(r["ci_low"]) for r in rows],
        band_high=[float(r["ci_high"]) for r in rows],
        color="#d62728",
    ))
    return chart


def cmd_plot(args) -> int:
    charts = [_competence_chart(d) for d in args.run_dirs]
    charts += [_wasted_chart(d) for d in args.run_dirs]
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
    cfg = exp.apply_overrides(_base_config(args), scenario=args.scenario)
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


# -- entry ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"run": cmd_run, "plot": cmd_plot, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
