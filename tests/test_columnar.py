"""The columnar trace engine is a pure representation change.

Everything here pins one contract: interning a trace into flat integer
columns and routing the hot paths (mapping independence, scalar path
evaluation, Definition 5/6 cost) through :class:`ColumnarEngine` must be
invisible — same transactions back out, same values, same verdicts, same
cost — with the object walk over plain :class:`Trace` streams as the
oracle on real benchmarks (TPC-C, TATP) and a generated workload, and
with a recorded golden of the partitioner's output on the same fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import JECBConfig, JECBPartitioner
from repro.core.path_eval import (
    ColumnarEngine,
    JoinPathEvaluator,
    SnapshotIndex,
    value_luts_for,
)
from repro.core.phase2 import partition_class
from repro.trace.columnar import ColumnarSnapshot, ColumnarTrace
from repro.trace.events import Trace, TransactionTrace
from repro.trace.persistence import load_trace_file, save_trace_file
from repro.trace.splitter import split_by_class, train_test_split
from repro.trace.stats import classify_tables
from repro.workloads.synthetic import SyntheticBenchmark, SyntheticConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

#: JECB output on the three fixtures below (k=4), recorded before the
#: process pool and the object engine were removed from the partitioner
GOLDEN = Path(__file__).parent / "golden" / "jecb_columnar_fixtures.json"

BUNDLES = ["tpcc_bundle", "tatp_bundle", "synthetic_bundle"]

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev image
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpcc_bundle():
    return TpccBenchmark(
        TpccConfig(warehouses=2, customers_per_district=8)
    ).generate(300, seed=11)


@pytest.fixture(scope="module")
def tatp_bundle():
    return TatpBenchmark(TatpConfig(subscribers=120)).generate(400, seed=77)


@pytest.fixture(scope="module")
def synthetic_bundle():
    return SyntheticBenchmark(
        SyntheticConfig(parents=120, children_per_parent=3, groups=30)
    ).generate(350, seed=5)


def _run(bundle, num_partitions=4):
    partitioner = JECBPartitioner(
        bundle.database,
        bundle.catalog,
        JECBConfig(num_partitions=num_partitions),
    )
    return partitioner.run(bundle.trace)


def _txn_signature(txn: TransactionTrace):
    return (
        txn.txn_id,
        txn.class_name,
        [(a.table, a.key, a.write) for a in txn.accesses],
    )


# ----------------------------------------------------------------------
# round trip: Trace -> ColumnarTrace -> Trace
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    _keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
    _accesses = st.lists(
        st.tuples(st.sampled_from(["T1", "T2", "T3"]), _keys, st.booleans()),
        min_size=1,
        max_size=6,
    )
    _txn_lists = st.lists(
        st.tuples(st.sampled_from(["Alpha", "Beta"]), _accesses),
        min_size=0,
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(_txn_lists)
    def test_roundtrip_random_traces(txn_specs):
        """Every class view yields its transactions' accesses verbatim."""
        trace = Trace()
        for i, (class_name, accesses) in enumerate(txn_specs):
            txn = TransactionTrace(i, class_name)
            for table, key, write in accesses:
                txn.record(table, key, write)
            trace.append(txn)
        ctrace = ColumnarTrace.from_trace(trace)
        by_id = {txn.txn_id: txn for txn in trace}
        seen = 0
        for view in ctrace.views.values():
            for direct in view:
                original = by_id[direct.txn_id]
                assert direct.class_name == view.class_name
                assert _txn_signature(direct) == _txn_signature(original)
                seen += 1
        assert seen == len(trace)


def test_roundtrip_real_workload(tatp_bundle):
    ctrace = ColumnarTrace.from_trace(tatp_bundle.trace)
    by_id = {txn.txn_id: txn for txn in tatp_bundle.trace}
    seen = 0
    for view in ctrace.views.values():
        assert [t.txn_id for t in view] == view.txn_ids.tolist()
        for txn in view:
            assert _txn_signature(txn) == _txn_signature(by_id[txn.txn_id])
            seen += 1
    assert seen == len(tatp_bundle.trace)


def test_split_matches_object_splitter(tpcc_bundle):
    """View.split must pick the exact transactions train_test_split picks."""
    ctrace = ColumnarTrace.from_trace(tpcc_bundle.trace)
    for view in ctrace.views.values():
        object_trace = Trace(list(view))
        otrain, otest = train_test_split(object_trace, 0.5)
        ctrain, ctest = view.split(0.5)
        assert [t.txn_id for t in ctrain] == [t.txn_id for t in otrain]
        assert [t.txn_id for t in ctest] == [t.txn_id for t in otest]


# ----------------------------------------------------------------------
# differential: per-class search, object stream as oracle
# ----------------------------------------------------------------------
def _solution_signature(solution):
    mapping = solution.mapping
    return (
        solution.kind,
        solution.tree,
        solution.mapping_independent,
        repr(mapping),
        getattr(mapping, "table", None),
    )


@pytest.mark.parametrize("bundle_name", BUNDLES)
def test_class_search_matches_object_stream(bundle_name, request):
    """Phase 2 on a columnar view == Phase 2 on the plain class stream:
    same summary, solution trees, MI verdict counts, tree for tree."""
    bundle = request.getfixturevalue(bundle_name)
    database, catalog, trace = bundle.database, bundle.catalog, bundle.trace
    usage = classify_tables(trace, database.schema, 0.02)
    replicated = {t for t, u in usage.items() if u.replicated}
    ctrace = ColumnarTrace.from_trace(trace)
    engine = ColumnarEngine(database, ctrace)
    streams = split_by_class(trace)
    names = [n for n in sorted(streams) if n in catalog]
    assert names == [n for n in sorted(ctrace.views) if n in catalog]
    searched = 0
    for name in names:
        args = (database.schema, catalog.get(name))
        tail = (replicated, database, 4)
        obj = partition_class(*args, streams[name], *tail)
        col = partition_class(
            *args, ctrace.class_view(name), *tail, engine=engine
        )
        assert col.summary() == obj.summary()
        assert [_solution_signature(s) for s in col.total_solutions] == [
            _solution_signature(s) for s in obj.total_solutions
        ]
        assert [_solution_signature(s) for s in col.partial_solutions] == [
            _solution_signature(s) for s in obj.partial_solutions
        ]
        # Equal counters pin the MI verdicts tree for tree: one early
        # refute or spare acceptance would shift every number after it.
        assert col.trees_examined == obj.trees_examined
        assert col.metrics.mi_tests == obj.metrics.mi_tests
        assert col.metrics.mi_refuted == obj.metrics.mi_refuted
        searched += not col.read_only
    assert searched > 0


@pytest.mark.parametrize("bundle_name", BUNDLES)
def test_partitioner_matches_golden(bundle_name, request):
    """The partitioner's output is bit-identical to the recorded golden."""
    bundle = request.getfixturevalue(bundle_name)
    expected = json.loads(GOLDEN.read_text())[bundle_name[: -len("_bundle")]]
    result = _run(bundle)
    assert result.partitioning.describe() == expected["describe"]
    assert result.cost == expected["cost"]
    assert result.solutions_table() == expected["solutions_table"]
    assert result.metrics.trees_examined == expected["trees_examined"]
    assert result.metrics.mi_tests == expected["mi_tests"]
    assert result.metrics.mi_refuted == expected["mi_refuted"]


def test_distributed_fraction_matches_object_path(tpcc_bundle):
    """Definition 5/6 kernel: same CostReport as the per-txn object scan."""
    from repro.evaluation.evaluator import PartitioningEvaluator

    col = _run(tpcc_bundle)
    ctrace = ColumnarTrace.from_trace(tpcc_bundle.trace)
    engine = ColumnarEngine(tpcc_bundle.database, ctrace)
    vector = PartitioningEvaluator(tpcc_bundle.database, columnar=engine)
    scalar = PartitioningEvaluator(tpcc_bundle.database)
    vreport = vector.evaluate(col.partitioning, ctrace)
    sreport = scalar.evaluate(col.partitioning, tpcc_bundle.trace)
    assert vreport.total_transactions == sreport.total_transactions
    assert vreport.distributed_transactions == sreport.distributed_transactions
    assert vreport.per_class_total == sreport.per_class_total
    assert vreport.per_class_distributed == sreport.per_class_distributed


def test_scalar_evaluation_matches_object_walk(synthetic_bundle):
    """Compiled batch walks return the object walk's value for every key."""
    result = _run(synthetic_bundle)
    ctrace = ColumnarTrace.from_trace(synthetic_bundle.trace)
    engine = ColumnarEngine(synthetic_bundle.database, ctrace)
    oracle = JoinPathEvaluator(synthetic_bundle.database)
    checked = 0
    for table in result.partitioning.tables:
        solution = result.partitioning.solution_for(table)
        if solution.path is None:
            continue
        tid = ctrace.table_ids.get(solution.path.source_table)
        if tid is None:
            continue
        for key in ctrace.keys_of[tid]:
            assert engine.evaluate_one(solution.path, key) == oracle.evaluate(
                solution.path, key
            )
            checked += 1
    assert checked > 0


def test_class_value_luts_match_scalar_evaluation(tatp_bundle):
    result = _run(tatp_bundle)
    ctrace = ColumnarTrace.from_trace(tatp_bundle.trace)
    engine = ColumnarEngine(tatp_bundle.database, ctrace)
    paths = {
        table: result.partitioning.solution_for(table).path
        for table in result.partitioning.tables
        if result.partitioning.solution_for(table).path is not None
    }
    checked = 0
    for view in ctrace.views.values():
        luts = engine.class_value_luts(view, paths)
        for txn in view:
            for table, key in txn.tuples:
                path = paths.get(table)
                if path is None:
                    continue
                assert luts[table][key] == engine.evaluate_one(path, key)
                checked += 1
    assert checked > 0


def test_value_luts_for_requires_columnar_backing(tatp_bundle):
    evaluator = JoinPathEvaluator(tatp_bundle.database)
    assert value_luts_for(evaluator, tatp_bundle.trace, {}) is None


# ----------------------------------------------------------------------
# snapshots, persistence
# ----------------------------------------------------------------------
def test_columnar_snapshot_matches_dict_probes(tpcc_bundle):
    ctrace = ColumnarTrace.from_trace(tpcc_bundle.trace)
    index = SnapshotIndex(tpcc_bundle.database)
    for table, tid in ctrace.table_ids.items():
        keys = ctrace.keys_of[tid]
        snapshot = ColumnarSnapshot(index.table(table), keys)
        for local_id, key in enumerate(keys):
            assert snapshot.row_at(local_id) == index.snapshot(table, key)


def test_persistence_interns_table_names(tmp_path):
    trace = Trace()
    for i in range(20):
        txn = TransactionTrace(i, "".join(["Cla", "ss"]))
        # fresh, equal-but-distinct strings every iteration
        txn.record("".join(["WIDE", "_TABLE"]), (i,), bool(i % 2))
        trace.append(txn)
    path = tmp_path / "trace.jsonl"
    save_trace_file(trace, str(path))
    loaded = load_trace_file(str(path))
    names = [a.table for txn in loaded for a in txn.accesses]
    assert all(name is names[0] for name in names)
    classes = [txn.class_name for txn in loaded]
    assert all(name is classes[0] for name in classes)
    assert [
        _txn_signature(txn) for txn in loaded
    ] == [_txn_signature(txn) for txn in trace]

