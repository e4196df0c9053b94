"""Run the benchmark command once per seed and report each metric's spread.

    python3 benches/spread.py --workload ac_reach --seeds 1,2,3,4,5

Reads ``BENCHMARK.json`` for the command, run length and bounds. For every
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to a third of the metric's bound. Run it from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    results = []
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(line)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']} {values}",
              flush=True)
    if len(results) < 2:
        return 0 if results and all(r["correct"] for r in results) else 1
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:<14} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.3f} (bound {metric['bound']}, third {metric['bound'] / 3:.3f}) {flag}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
