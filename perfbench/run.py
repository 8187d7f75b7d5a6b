"""JECB benchmark: one command, four workloads, every metric by name and unit.

    python3 perfbench/run.py --workload tpcc-pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Each run measures its workload in a fresh
interpreter (``measure.py``) with ``PYTHONHASHSEED`` set from ``--seed``,
so one seed always gives the same inputs and the same work. With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` the workload runs once untraced and once traced, and the last
line holds the per-layer metrics of the traced run, with the spans written
to ``.perfbench_out/``. The line before the last carries the details:
raw (uncorrected) seconds, the reference-loop samples, the check
outcomes, the serving-tail percentile, ``cpu_count`` and the Python
version. The exit code is non-zero when a correctness check fails or the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run must end within this many seconds, children included.
DEADLINE_S = 170


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class RunFailed(Exception):
    pass


def measure(args: argparse.Namespace, trace: int, started: float) -> dict:
    """Run the workload in a fresh interpreter and return its result."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{trace}"
    out = os.path.join(out_dir, f"{stem}.json")
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if trace:
        command += ["--spans", os.path.join(out_dir, f"spans-{stem}.json")]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        # the child's output goes to stderr: stdout ends with the result line
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args.workload} did not finish within {DEADLINE_S} s")
    if done.returncode != 0:
        raise RunFailed(f"{args.workload} exited with code {done.returncode}")
    with open(out) as handle:
        return json.load(handle)


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="JECB benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: the program (src/repro) is not in {ROOT}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        runs = [measure(args, 0, started)]
        if args.trace:
            runs.append(measure(args, 1, started))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        base, traced = runs
        values = dict(traced["per_layer"])
        values["bench.tracing_overhead"] = (
            traced["metrics"]["run_s"] / base["metrics"]["run_s"] - 1.0
        )
        listed = spec["per_layer"]
    else:
        values = runs[0]["metrics"]
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"detail": {k: v for k, v in runs[-1].items()
                                 if k not in ("metrics", "per_layer")}}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
