"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import random
import statistics

import pytest

import harness
import run as entry
import workloads
from harness import Clock, LiveClient, Ops, Timing, drive
from measure import per_layer
from repro import Database, JECBConfig, JECBPartitioner
from repro.cluster import Cluster, FaultPlan
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from tracing import Tracer

#: (label, benchmark factory, seed): every benchmark configuration a workload drives
CONFIGS = [
    ("tpcc-pipeline", lambda: TpccBenchmark(TpccConfig(warehouses=8)), 3),
    ("tatp-live", lambda: TatpBenchmark(TatpConfig(subscribers=1000)), 3),
    ("tpcc-live", lambda: TpccBenchmark(TpccConfig(warehouses=2)), 3),
] + [(f"fig7-{name}", make, 17) for name, make, _ in workloads.fig7_bundles(0.2)]


def _rows(trace):
    return [(t.txn_id, t.class_name, t.accesses, t.arguments) for t in trace]


@pytest.mark.parametrize("label,make,seed", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_sliced_driver_yields_generate_trace(label, make, seed):
    count = 120
    run = workloads.Run(Clock())
    bundle, _ = workloads.load(run, make, seed)
    trace, _ = workloads.generate(run, bundle, count)
    expected = make().generate(count, seed=seed).trace
    assert run.ops.failed == 0 and run.ops.attempted == count
    assert _rows(trace) == _rows(expected)


def _collections_during(fn, *args):
    """Number of GC passes *fn* triggers when any two tracked objects coexist."""
    events = []

    def callback(phase, info):
        events.append(phase)

    old_threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    try:
        gc.set_threshold(1)
        gc.collect()
        events.clear()
        fn(*args)
        seen = len(events)
    finally:
        gc.set_threshold(*old_threshold)
        gc.callbacks.remove(callback)
    return seen


def test_reference_allocates_no_tracked_objects():
    assert _collections_during(lambda n: [[i] for i in range(n)], 100) > 0  # detector works
    assert _collections_during(harness.spin, harness.REF_ITERS) == 0
    harness.reference_seconds()  # the first call may specialise bytecode
    gc.disable()
    try:
        before = gc.get_count()[0]
        harness.reference_seconds()
        after = gc.get_count()[0]
        assert not gc.isenabled()  # the reference restores the caller's GC state
    finally:
        gc.enable()
    assert after == before


def test_reference_time_ignores_heap_size():
    # Conditions alternate and each keeps its fastest sample, so the host's
    # speed phases (which last seconds) reach both sides.
    without, with_heap = [], []
    for _ in range(3):
        without.append(min(harness.reference_seconds() for _ in range(300)))
        heap = [[i] for i in range(1_000_000)]  # ~1M GC-tracked objects
        with_heap.append(min(harness.reference_seconds() for _ in range(300)))
        del heap
    assert 0.8 < min(with_heap) / min(without) < 1.25


def test_clock_keeps_units_in_seconds():
    clock = Clock(nominal_ref_s=statistics.median(
        harness.reference_seconds() for _ in range(50)))
    _, timing = clock.call(harness.spin, 200_000)
    assert 0.5 < timing.corrected / timing.raw < 2.0


def test_repeated_steps_count_once():
    run = workloads.Run(Clock())
    repeats = [Timing(3.0, 30.0), Timing(1.0, 12.0), Timing(2.0, 20.0)]
    run.add("step", *repeats)
    assert (run.measured.raw, run.measured.corrected) == (2.0, 20.0)  # the median
    assert run.timings["step"].raw == 6.0  # every repeat, for the raw detail
    assert harness.fastest(repeats) == Timing(1.0, 12.0)  # least raw time


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = harness.tail([float(i) for i in range(1, 101)])
    assert (pct, beyond, value) == (90.0, 10, 90.0)
    value, pct, beyond = harness.tail([float(i) for i in range(1, 2001)])
    assert (pct, beyond) == (99.0, 20)


def _tatp_cluster(fault_plan):
    benchmark = TatpBenchmark(TatpConfig(subscribers=100))
    bundle = benchmark.generate(300, seed=5)
    result = JECBPartitioner(
        bundle.database, bundle.catalog, JECBConfig(num_partitions=4)
    ).run(bundle.trace)
    cluster = Cluster(bundle.database, bundle.catalog, result.partitioning,
                      fault_plan=fault_plan)
    return benchmark, bundle, cluster


def test_failed_operations_are_counted_under_a_node_crash():
    benchmark, bundle, cluster = _tatp_cluster(FaultPlan().crash(node=1, at=0))
    ops = Ops()
    try:
        drive(benchmark, bundle.catalog, LiveClient(cluster, ops), random.Random(9),
              200, Clock(), ops)
    finally:
        cluster.close()
    assert ops.attempted == 200
    assert 0 < ops.failed < 200


def test_exceptions_count_as_failures_and_the_loop_goes_on():
    class Broken:
        def execute(self, name, arguments):
            raise RuntimeError("boom")

    benchmark = TatpBenchmark(TatpConfig(subscribers=50))
    rng = random.Random(1)
    db = Database(benchmark.build_schema())
    benchmark.load(db, rng)
    ops = Ops()
    drive(benchmark, benchmark.build_catalog(), LiveClient(Broken(), ops), rng, 25,
          Clock(), ops)
    assert (ops.attempted, ops.failed) == (25, 25)
    assert ops.errors[0].endswith("RuntimeError: boom")


def test_tracer_self_time_and_missing_targets():
    tracer = Tracer("unit")
    tracer.names = ["outer", "inner", "inner"]
    tracer.starts = [0.0, 1.0, 3.0]
    tracer.ends = [10.0, 2.0, 5.0]
    tracer.parents = [-1, 0, 0]
    total, self_time, count = tracer.layer_times()
    assert total == {"outer": 10.0, "inner": 3.0}
    assert self_time == {"outer": 7.0, "inner": 3.0}
    assert count == {"outer": 1, "inner": 2}

    class Owner:
        pass

    tracer.patch(Owner, "gone", "routing.lookup_build", "Owner.gone")
    run = workloads.Run(Clock())
    layer = per_layer(tracer, run)
    assert "routing.lookup_build_s" not in layer
    assert "routing.lookup_builds" not in layer
    assert "routing.init_s" in layer


def test_tracer_wraps_classmethods():
    class Owner:
        @classmethod
        def make(cls, x):
            return (cls, x)

    tracer = Tracer("unit")
    tracer.patch(Owner, "make", "make", "Owner.make")
    assert Owner.make(3) == (Owner, 3)
    assert tracer.names == ["make"]


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in entry.load_spec()["workloads"]] == list(workloads.WORKLOADS)
