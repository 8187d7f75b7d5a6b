"""The benchmark's four workloads, driven through public entry points only.

Each workload function takes a :class:`Run`, the seed and the seconds
budget, does its set-up several times (``setup_s`` is their median), then
its measured phase, and returns the end-to-end values. Sizes scale with
``seconds`` so that the measured phase lasts roughly that long on a 2-vCPU
machine; the work done is fixed for a given (seed, seconds), which keeps
the distributed fraction and the 2PC cost repeatable to the last digit.

Phase 2 is left at its serial default: no ``workers``, ``engine`` or
``dataflow_joins`` setting is passed, and only domain counters are read
from the metrics objects.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.trace
from repro import Database, JECBConfig, JECBPartitioner, PartitioningEvaluator, TraceCollector
from repro.baselines import SchismConfig, SchismPartitioner
from repro.cluster import Cluster
from repro.routing import Router
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from harness import Clock, LiveClient, Ops, Timing, drive, fastest, percentile, tail

K = 8
#: tpcc-pipeline generates this many TPC-C transactions per second of budget.
PIPELINE_TXN_PER_S = 1000
#: fig7 runs the CLI's bundles at this scale per second of budget: 0.4 at
#: 10 s, twice the CLI's 0.2, whose smallest test halves (50-150
#: transactions) moved the serving tail by a third between seeds.
FIG7_SCALE_PER_S = 0.04
TATP_TRAIN = 2500
TATP_LIVE_PER_S = 5000
TATP_DEPLOYMENT_SEED = 1
TPCC_LIVE_TRAIN = 1000
TPCC_LIVE_PER_S = 7
TPCC_LIVE_STREAM_SEED = 1
#: exactness of "simulated fraction == Definition-5 cost"
FRACTION_TOLERANCE = 1e-12

#: Concrete workload classes, whose ``Benchmark`` hooks a traced run wraps.
BENCHMARK_CLASSES = [
    TpccBenchmark, TatpBenchmark, TpceBenchmark, SeatsBenchmark, AuctionMarkBenchmark,
]


@dataclass
class Run:
    """Timings, counters and check outcomes of one workload run."""

    clock: Clock
    ops: Ops = field(default_factory=Ops)
    timings: dict[str, Timing] = field(default_factory=lambda: defaultdict(Timing))
    #: the measured phase, each step repeated for timing counted once
    measured: Timing = field(default_factory=Timing)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    checks: dict[str, bool] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def add(self, phase: str, *repeats: Timing) -> None:
        """Record a measured step; it adds to ``measured`` as its median repeat."""
        for timing in repeats:
            self.timings[phase].add(timing)
        self.measured.add(Timing(statistics.median(t.raw for t in repeats),
                                 statistics.median(t.corrected for t in repeats)))

    def call(self, phase: str, fn: Callable[..., Any], *args: Any) -> Any:
        result, timing = self.clock.call(fn, *args)
        self.add(phase, timing)
        return result

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def count(self, key: str, source: Any, attr: str) -> None:
        """Add a domain counter if the metrics object still has it."""
        value = getattr(source, attr, None)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.counters[key] += value


@dataclass
class Bundle:
    benchmark: Any
    database: Any
    catalog: Any
    rng: random.Random


def load(run: Run, make: Callable[[], Any], seed: int) -> tuple[Bundle, Timing]:
    """``Benchmark.generate``'s set-up steps, each timed as one unit."""
    clock = run.clock
    total = Timing()
    rng = random.Random(seed)
    benchmark = make()
    schema, unit = clock.call(benchmark.build_schema)
    total.add(unit)
    database, unit = clock.call(Database, schema)
    total.add(unit)
    _, unit = clock.call(benchmark.load, database, rng)
    total.add(unit)
    catalog, unit = clock.call(benchmark.build_catalog)
    total.add(unit)
    return Bundle(benchmark, database, catalog, rng), total


def generate(run: Run, bundle: Bundle, count: int) -> tuple[Any, Timing]:
    """Collect *count* transactions in slices; the trace equals ``generate``'s."""
    collector = TraceCollector(bundle.database)
    timing, _ = drive(
        bundle.benchmark, bundle.catalog, collector, bundle.rng, count, run.clock, run.ops
    )
    trace = collector.trace
    run.counters["trace.accesses"] += sum(len(txn.accesses) for txn in trace)
    return trace, timing


def count_search(run: Run, result: Any) -> None:
    metrics = getattr(result, "metrics", None)
    for attr in ("trees_examined", "mi_tests", "combinations_evaluated"):
        run.count(f"core.{attr}", metrics, attr)
    cache = getattr(metrics, "evaluator_cache", None)
    run.count("core.cache_hits", cache, "hits")
    run.count("core.cache_misses", cache, "misses")


def count_routing(run: Run, router: Router) -> None:
    metrics = router.metrics
    run.count("routing.lookups_rebuilt", metrics, "lookups_rebuilt")
    run.count("routing.batch_memo_hits", metrics, "batch_memo_hits")
    run.count("routing.batch_calls", metrics, "batch_calls")


def count_cluster(run: Run, cluster: Cluster) -> None:
    for attr in ("tuples_placed", "aborts", "retries"):
        run.count(f"cluster.{attr}", cluster.metrics, attr)


def route_pass(run: Run, router: Router, calls: list) -> tuple[list, Timing]:
    """One per-call ``Router.route`` pass over *calls*, in slices."""
    decisions, timing, _ = run.clock.sliced(calls, lambda call: router.route(call[0], call[1]))
    run.counters["routing.route_calls"] += len(calls)
    return decisions, timing


def hot_routing(run: Run, router: Router, calls: list, passes: int) -> list[Timing]:
    """*passes* hot per-call passes, each checked against ``route_batch``."""
    timings, decided = [], []
    for _ in range(passes):
        decisions, timing = route_pass(run, router, calls)
        timings.append(timing)
        decided.append(decisions)
    batch = router.route_batch(calls)
    run.counters["routing.route_calls"] += len(calls)
    run.check("route_equals_batch", all(decisions == batch for decisions in decided))
    run.counters["routing.single_partition"] += sum(d.single_partition for d in batch)
    run.counters["routing.decisions"] += len(batch)
    count_routing(run, router)
    return timings


def serve_metrics(run: Run, per_txn: list[float], seconds: float) -> dict:
    """Serving throughput, median and tail from per-transaction seconds."""
    value, pct, beyond = tail(per_txn)
    run.info.update(serve_tail_percentile=pct, serve_tail_beyond=beyond,
                    serve_samples=len(per_txn))
    return {
        "serve_txn_per_s": len(per_txn) / seconds,
        "serve_p50_ms": 1e3 * percentile(sorted(per_txn), 50),
        "serve_tail_ms": 1e3 * value,
    }


def setup_reps(run: Run, reps: int, one: Callable[[], tuple[Any, Timing]]) -> Any:
    """Run a set-up *reps* times; ``setup_s`` is the median, the last is kept."""
    samples_raw, samples = [], []
    state = None
    for _ in range(reps):
        if state is not None and hasattr(state, "close"):
            state.close()
        state, timing = one()
        samples_raw.append(timing.raw)
        samples.append(timing.corrected)
    run.info["setup_samples_s"] = samples
    run.info["setup_raw_s"] = statistics.median(samples_raw)
    run.info["setup_s"] = statistics.median(samples)
    return state


# ----------------------------------------------------------------------
# advisor pipeline: tpcc-pipeline and every fig7 bundle
# ----------------------------------------------------------------------
@dataclass
class Repeats:
    """How often the short steps of one bundle run, so each is timed on enough work."""

    partition_calls: int
    hot_passes: int
    replay_passes: int


def advise(run: Run, bundle: Bundle, trace: Any, repeats: Repeats, fig7_style: bool) -> dict:
    """Split, partition, evaluate, route and replay one generated trace.

    ``fig7_style`` adds Schism on half the training trace and routes the
    test call log cold with ``route_summary``, as ``repro.experiments fig7``
    does; otherwise the cold pass is per-call ``Router.route``.
    """
    db, catalog = bundle.database, bundle.catalog
    train, test = run.call("split", repro.trace.train_test_split, trace, 0.5)
    partition_timings = []
    for _ in range(repeats.partition_calls):
        partitioner = JECBPartitioner(db, catalog, JECBConfig(num_partitions=K))
        result, timing = run.clock.call(partitioner.run, train)
        partition_timings.append(timing)
    run.add("partition", *partition_timings)
    count_search(run, result)
    partitioning = result.partitioning
    evaluator = PartitioningEvaluator(db)
    if fig7_style:
        sub = run.call("split", repro.trace.subsample, train, 0.5)
        baseline = run.call(
            "schism", SchismPartitioner(db, SchismConfig(num_partitions=K)).run, sub
        )
        run.call("evaluate", evaluator.evaluate, baseline.partitioning, test)
    report = run.call("evaluate", evaluator.evaluate, partitioning, test)

    calls = test.calls()
    router = run.call("route_init", Router, db, catalog, partitioning)
    try:
        if fig7_style:
            run.call("route_cold", router.route_summary, calls)
            run.counters["routing.route_calls"] += len(calls)
        else:
            run.add("route_cold", route_pass(run, router, calls)[1])
        route_timings = hot_routing(run, router, calls, repeats.hot_passes)
        run.add("route_hot", *route_timings)
    finally:
        router.close()

    cluster = run.call("install", Cluster, db, catalog, partitioning)
    passes: list[list[Timing]] = []
    replay_timings = []
    try:
        for _ in range(repeats.replay_passes):
            _, timing, latencies = run.clock.sliced(
                list(test), lambda txn: cluster.run_trace([txn])
            )
            replay_timings.append(timing)
            passes.append(latencies)
        run.add("replay", *replay_timings)
        sim = cluster.metrics
        run.check(
            "replay_equals_definition5",
            abs(sim.distributed_fraction - report.cost) <= FRACTION_TOLERANCE,
        )
        count_cluster(run, cluster)
    finally:
        cluster.close()
    return {
        "test_txns": len(test),
        "cost": report.cost,
        "coordination_per_txn": sim.coordination_per_transaction,
        "partition_s": statistics.median(t.corrected for t in partition_timings),
        "route_calls": len(calls),
        "route_s": fastest(route_timings).corrected,
        "replay_s": fastest(replay_timings).corrected,
        # each test transaction's latency is that of its fastest replay
        "per_txn": [fastest(times).corrected for times in zip(*passes)],
    }


def _advisor_metrics(run: Run, generated: int, outcomes: list[dict]) -> dict:
    per_txn = [x for o in outcomes for x in o["per_txn"]]
    tests = sum(o["test_txns"] for o in outcomes)
    return {
        "run_s": run.measured.corrected,
        "gen_txn_per_s": generated / run.timings["generate"].corrected,
        "partition_s": sum(o["partition_s"] for o in outcomes),
        "route_calls_per_s": (sum(o["route_calls"] for o in outcomes)
                              / sum(o["route_s"] for o in outcomes)),
        **serve_metrics(run, per_txn, sum(o["replay_s"] for o in outcomes)),
        "distributed_fraction": sum(o["cost"] * o["test_txns"] for o in outcomes) / tests,
        "coordination_units_per_txn": sum(
            o["coordination_per_txn"] * o["test_txns"] for o in outcomes
        ) / tests,
    }


def tpcc_pipeline(run: Run, seed: int, seconds: int) -> dict:
    count = PIPELINE_TXN_PER_S * seconds

    def one():
        return load(run, lambda: TpccBenchmark(TpccConfig(warehouses=8)), seed)

    bundle = setup_reps(run, 5, one)
    trace, gen = generate(run, bundle, count)
    run.add("generate", gen)
    outcome = advise(run, bundle, trace, Repeats(5, 10, 10), fig7_style=False)
    return _advisor_metrics(run, count, [outcome])


def fig7_bundles(scale: float) -> list[tuple[str, Callable[[], Any], int]]:
    """The five bundles of ``python -m repro.experiments fig7 --scale S``."""

    def count(base: int) -> int:
        return max(int(base * scale), 100)

    return [
        ("tpcc", lambda: TpccBenchmark(TpccConfig(warehouses=8)), count(2500)),
        ("tatp", lambda: TatpBenchmark(TatpConfig(subscribers=1000)), count(2500)),
        ("tpce", lambda: TpceBenchmark(TpceConfig()), count(3000)),
        ("seats", lambda: SeatsBenchmark(SeatsConfig()), count(2000)),
        ("auctionmark", lambda: AuctionMarkBenchmark(AuctionMarkConfig()), count(2000)),
    ]


def fig7(run: Run, seed: int, seconds: int) -> dict:
    bundles_spec = fig7_bundles(FIG7_SCALE_PER_S * seconds)

    def one():
        total = Timing()
        loaded = []
        for _, make, _ in bundles_spec:
            bundle, timing = load(run, make, seed)
            loaded.append(bundle)
            total.add(timing)
        return loaded, total

    bundles = setup_reps(run, 3, one)
    outcomes = []
    generated = 0
    for bundle, (_, _, count) in zip(bundles, bundles_spec):
        trace, timing = generate(run, bundle, count)
        run.add("generate", timing)
        generated += count
        outcomes.append(advise(run, bundle, trace, Repeats(3, 10, 10), fig7_style=True))
    return _advisor_metrics(run, generated, outcomes)


# ----------------------------------------------------------------------
# live serving: tatp-live and tpcc-live
# ----------------------------------------------------------------------
@dataclass
class LiveSetup:
    bundle: Bundle
    trace: Any
    result: Any
    cluster: Cluster

    def close(self) -> None:
        self.cluster.close()


def live(run: Run, deploy_seed: int, stream_seed: int, make: Callable[[], Any],
         train_count: int, live_count: int, reps: int, partition_calls: int,
         hot_passes: int) -> dict:
    """Partition on a training trace, install, then serve new transactions.

    The data and training trace come from *deploy_seed*, the live request
    stream from *stream_seed*; the same benchmark instance drives both, so
    driver state such as TPC-C's history ids carries over. Set-up is load,
    training generation, one JECB call and the install; the further JECB
    calls and the routing passes over the training calls only time
    ``partition_s`` and ``route_calls_per_s``.
    """
    gen_rates: list[float] = []
    partition_timings: list[Timing] = []

    def one():
        bundle, total = load(run, make, deploy_seed)
        trace, gen = generate(run, bundle, train_count)
        total.add(gen)
        db, catalog = bundle.database, bundle.catalog
        for call in range(partition_calls):
            partitioner = JECBPartitioner(db, catalog, JECBConfig(num_partitions=K))
            result, part = run.clock.call(partitioner.run, trace)
            partition_timings.append(part)
            if call == 0:
                total.add(part)
        cluster, unit = run.clock.call(Cluster, db, catalog, result.partitioning)
        total.add(unit)
        gen_rates.append(train_count / gen.corrected)
        return LiveSetup(bundle, trace, result, cluster), total

    state = setup_reps(run, reps, one)
    bundle, cluster = state.bundle, state.cluster
    count_search(run, state.result)
    db, catalog = bundle.database, bundle.catalog
    calls = state.trace.calls()
    router = Router(db, catalog, state.result.partitioning)
    try:
        route_pass(run, router, calls)  # cold
        hot = hot_routing(run, router, calls, hot_passes)
    finally:
        router.close()

    client = LiveClient(cluster, run.ops)
    try:
        timing, per_txn = drive(bundle.benchmark, catalog, client,
                                random.Random(stream_seed), live_count, run.clock, run.ops)
        run.add("live", timing)
        run.check("conservation_after_live", cluster.check_conservation() == [])
        router = getattr(cluster, "router", None)
        if router is not None:
            count_routing(run, router)
        count_cluster(run, cluster)
        run.counters["routing.route_calls"] += live_count
        sim = cluster.metrics
    finally:
        cluster.close()
    return {
        "run_s": run.measured.corrected,
        "gen_txn_per_s": statistics.median(gen_rates),
        "partition_s": statistics.median(t.corrected for t in partition_timings),
        "route_calls_per_s": len(calls) / fastest(hot).corrected,
        **serve_metrics(run, per_txn, timing.corrected),
        "distributed_fraction": sim.distributed_fraction,
        "coordination_units_per_txn": sim.coordination_per_transaction,
    }


def tatp_live(run: Run, seed: int, seconds: int) -> dict:
    # The deployment is fixed: CALL_FORWARDING's write share sits at JECB's
    # 2% read-mostly threshold, so some training seeds partition it instead
    # of replicating it, and then every live write to SUBSCRIBER or
    # CALL_FORWARDING rebuilds lookups and placements (tpcc-live's path,
    # ~100x slower). The seed varies the 50k-transaction request stream.
    return live(run, TATP_DEPLOYMENT_SEED, seed,
                lambda: TatpBenchmark(TatpConfig(subscribers=1000)),
                TATP_TRAIN, TATP_LIVE_PER_S * seconds, reps=5, partition_calls=5, hot_passes=30)


def tpcc_live(run: Run, seed: int, seconds: int) -> dict:
    # The request stream is fixed: a seeded stream of only ~50 transactions
    # moves the distributed fraction by half between seeds. The seed varies
    # the loaded data and the training trace (JECB picks the same
    # warehouse-based design for every seed).
    return live(run, seed, TPCC_LIVE_STREAM_SEED,
                lambda: TpccBenchmark(TpccConfig(warehouses=2)),
                TPCC_LIVE_TRAIN, TPCC_LIVE_PER_S * seconds, reps=5, partition_calls=3, hot_passes=15)


WORKLOADS: dict[str, Callable[[Run, int, int], dict]] = {
    "tpcc-pipeline": tpcc_pipeline,
    "fig7": fig7,
    "tatp-live": tatp_live,
    "tpcc-live": tpcc_live,
}
