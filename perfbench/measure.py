"""Run one workload in this process and write its result as JSON.

``run.py`` starts this script in a fresh interpreter for every measured
run (``--trace 1`` wraps the program's entry points in spans first):

    PYTHONPATH=src python3 perfbench/measure.py --workload fig7 --seed 17 \\
        --seconds 10 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: per-layer metric -> (span name, "total" | "self" | "count")
SPAN_METRICS = {
    "workloads.load_s": ("workloads.load", "total"),
    "workloads.driver_s": ("workloads.driver", "self"),
    "trace.collect_s": ("trace.collect", "self"),
    "trace.intern_s": ("trace.intern", "total"),
    "engine.execute_s": ("engine.execute", "total"),
    "engine.statements": ("engine.execute", "count"),
    "core.partition_self_s": ("core.partition", "self"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total"),
    "baselines.schism_s": ("baselines.schism", "total"),
    "routing.init_s": ("routing.init", "total"),
    "routing.lookup_build_s": ("routing.lookup_build", "total"),
    "routing.lookup_builds": ("routing.lookup_build", "count"),
    "cluster.install_s": ("cluster.install", "total"),
    "cluster.replay_s": ("cluster.replay", "total"),
    "cluster.execute_self_s": ("cluster.execute", "self"),
}
#: per-layer metric -> counter kept by the workload code
COUNTER_METRICS = [
    "trace.accesses", "core.trees_examined", "core.mi_tests",
    "core.combinations_evaluated", "routing.route_calls",
    "routing.lookups_rebuilt", "cluster.tuples_placed", "cluster.aborts",
    "cluster.retries",
]
#: per-layer ratio -> (numerator counter, counters summed for the denominator)
RATIO_METRICS = {
    "core.cache_hit_rate": ("core.cache_hits", ("core.cache_hits", "core.cache_misses")),
    "routing.memo_hit_rate": ("routing.batch_memo_hits", ("routing.batch_calls",)),
    "routing.single_partition_fraction": ("routing.single_partition", ("routing.decisions",)),
}


def per_layer(tracer, run) -> dict[str, float]:
    """Per-layer metrics of a traced run; a metric whose target is gone is absent."""
    total, self_time, count = tracer.layer_times()
    kinds = {"total": total, "self": self_time, "count": count}
    gone = set(tracer.missing_spans)
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        if span not in gone:
            out[metric] = float(kinds[kind].get(span, 0.0))
    route_spans = {"routing.route", "routing.route_batch"} - gone
    if route_spans:
        out["routing.route_s"] = sum(self_time.get(s, 0.0) for s in route_spans)
    for metric in COUNTER_METRICS:
        if metric in run.counters:
            out[metric] = float(run.counters[metric])
    for metric, (num, dens) in RATIO_METRICS.items():
        if all(d in run.counters for d in dens):
            denominator = sum(run.counters[d] for d in dens)
            out[metric] = run.counters[num] / denominator if denominator else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from harness import NOMINAL_REF_S, Clock
    from tracing import Tracer
    import workloads

    tracer = None
    if args.trace:
        tracer = Tracer(args.workload)
        tracer.install(workloads.BENCHMARK_CLASSES)
    run = workloads.Run(Clock())
    values = workloads.WORKLOADS[args.workload](run, args.seed, args.seconds)
    values["setup_s"] = run.info["setup_s"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw = {"raw.setup_s": run.info["setup_raw_s"], "raw.run_s": run.measured.raw}
    for phase, timing in sorted(run.timings.items()):
        raw[f"raw.{phase}_s"] = timing.raw
    result = {
        "correct": bool(run.checks) and all(run.checks.values()),
        "checks": run.checks,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "errors": run.ops.errors,
        "metrics": values,
        "raw": raw,
        "corrected": {phase: t.corrected for phase, t in sorted(run.timings.items())},
        "setup_samples_s": run.info["setup_samples_s"],
        "ref_median_s": run.clock.median_ref(),
        "nominal_ref_s": NOMINAL_REF_S,
        "ref_samples": len(run.clock.refs),
        **{k: run.info[k] for k in ("serve_tail_percentile", "serve_tail_beyond", "serve_samples")},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    if tracer is not None:
        layer = per_layer(tracer, run)
        layer["bench.ref_us"] = run.clock.median_ref() * 1e6
        layer["bench.failed_fraction"] = run.ops.failed / max(run.ops.attempted, 1)
        result["per_layer"] = layer
        result["missing_targets"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
