"""Run-to-run spread of every end-to-end metric, raw and drift-corrected.

    python3 perfbench/steadiness.py --workload fig7 --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the distance between the first and third quartile of its values as
a share of their median (``statistics.quantiles(values, n=4)``), next to
the same spread of the raw (uncorrected) seconds where the run reports
them. Each run measures for BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]

    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *_, detail_line, result_line = done.stdout.strip().splitlines()
        result, detail = json.loads(result_line), json.loads(detail_line)["detail"]
        if not result["correct"]:
            print(f"seed {seed}: a correctness check failed: {detail['checks']}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in detail["raw"].items():
            raw.setdefault(name, []).append(value)
        print(f"seed {seed}: run_s {result['metrics']['run_s']['value']:.3f} "
              f"raw {detail['raw']['raw.run_s']:.3f}", file=sys.stderr)

    for name, v in values.items():
        raw_text = f"  raw {spread(raw[f'raw.{name}']):.3f}" if f"raw.{name}" in raw else ""
        print(f"{args.workload:14} {name:28} median {statistics.median(v):<14.6g}"
              f" spread {spread(v):.3f}{raw_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
