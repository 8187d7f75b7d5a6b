"""The partitioning evaluator: Definitions 5 and 6.

Given a database partitioning and a (testing) trace, compute the fraction
of distributed transactions. A transaction is distributed when

1. it **writes** a replicated tuple (table replicated, or its value mapped
   to partition 0), or
2. the tuples it accesses span **more than one partition**.

Tuples whose join path cannot produce a root value are unroutable — they
would have to be located by broadcast — and make the transaction count as
distributed (the conservative reading the paper's router section implies).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.path_eval import ColumnarEngine, JoinPathEvaluator
from repro.core.mapping import REPLICATED
from repro.core.solution import DatabasePartitioning
from repro.storage.database import Database
from repro.trace.columnar import ColumnarClassTrace
from repro.trace.events import Trace, TransactionTrace


@dataclass
class CostReport:
    """Aggregate and per-class distributed-transaction fractions."""

    total_transactions: int = 0
    distributed_transactions: int = 0
    per_class_total: dict[str, int] = field(default_factory=dict)
    per_class_distributed: dict[str, int] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Definition 6: fraction of distributed transactions."""
        if self.total_transactions == 0:
            return 0.0
        return self.distributed_transactions / self.total_transactions

    def class_cost(self, class_name: str) -> float:
        total = self.per_class_total.get(class_name, 0)
        if total == 0:
            return 0.0
        return self.per_class_distributed.get(class_name, 0) / total

    @property
    def class_costs(self) -> dict[str, float]:
        return {name: self.class_cost(name) for name in self.per_class_total}

    def __str__(self) -> str:
        lines = [
            f"cost: {self.cost:.1%} "
            f"({self.distributed_transactions}/{self.total_transactions} distributed)"
        ]
        for name in sorted(self.per_class_total):
            lines.append(f"  {name}: {self.class_cost(name):.1%}")
        return "\n".join(lines)


class PartitioningEvaluator:
    """Applies a partitioning to a trace and reports its cost (Figure 4).

    When a :class:`ColumnarEngine` is available (passed explicitly or
    carried by ``path_evaluator``) and the trace is the engine's interned
    trace (or a class view of it), Definition 5 runs vectorized: one
    partition-id column per table solution plus three segmented reductions
    per class stream. Verdicts are identical to the per-transaction scan —
    the kernel computes the same three conditions (unroutable tuple,
    replicated write, more than one partition touched) over the same
    access stream. ``eval_seconds`` accumulates cost-evaluation wall time
    for the stage timers.
    """

    def __init__(
        self, database: Database, columnar: ColumnarEngine | None = None
    ) -> None:
        self.database = database
        self.columnar = columnar
        self.eval_seconds = 0.0
        if columnar is not None:
            from repro.core.path_eval import ColumnarPathEvaluator

            self.path_evaluator = ColumnarPathEvaluator(columnar)
        else:
            self.path_evaluator = JoinPathEvaluator(database)

    def transaction_is_distributed(
        self, txn: TransactionTrace, partitioning: DatabasePartitioning
    ) -> bool:
        """Definition 5 for a single transaction."""
        partitions: set[int] = set()
        for access in txn.accesses:
            solution = partitioning.solution_for(access.table)
            pid = solution.partition_of(access.key, self.path_evaluator)
            if pid is None:
                return True  # unroutable tuple: must broadcast
            if pid == REPLICATED:
                if access.write:
                    return True  # condition 1: writes a replicated tuple
                continue  # replicated reads are local anywhere
            partitions.add(pid)
        return len(partitions) > 1  # condition 2

    def evaluate(
        self, partitioning: DatabasePartitioning, trace: Trace
    ) -> CostReport:
        """Cost of *partitioning* over *trace* with per-class breakdown."""
        started = time.perf_counter()
        try:
            views = self._columnar_views(trace)
            if views is not None:
                return self._evaluate_columnar(partitioning, *views)
            report = CostReport()
            for txn in trace:
                report.total_transactions += 1
                report.per_class_total[txn.class_name] = (
                    report.per_class_total.get(txn.class_name, 0) + 1
                )
                if self.transaction_is_distributed(txn, partitioning):
                    report.distributed_transactions += 1
                    report.per_class_distributed[txn.class_name] = (
                        report.per_class_distributed.get(txn.class_name, 0) + 1
                    )
            return report
        finally:
            self.eval_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # columnar fast path
    # ------------------------------------------------------------------
    def _engine(self) -> ColumnarEngine | None:
        return getattr(self.path_evaluator, "engine", None) or self.columnar

    def _columnar_views(
        self, trace: Trace
    ) -> tuple[ColumnarEngine, list[ColumnarClassTrace]] | None:
        """The engine + class views when *trace* lives in its columns."""
        engine = self._engine()
        if engine is None:
            return None
        ctrace = engine.ctrace
        if isinstance(trace, ColumnarClassTrace) and trace.parent is ctrace:
            return engine, [trace]
        if trace is ctrace.source or trace is ctrace:
            # Class views are kept in first-seen order, matching the order
            # the object loop would first encounter each class.
            return engine, list(ctrace.views.values())
        return None

    def _evaluate_columnar(
        self,
        partitioning: DatabasePartitioning,
        engine: ColumnarEngine,
        views: list[ColumnarClassTrace],
    ) -> CostReport:
        ctrace = engine.ctrace
        # Partition id per interned tuple: -1 unroutable, 0 replicated.
        # Only tuples the evaluated views actually touch are computed —
        # evaluating one class's trace (the statistics fallback does this
        # per candidate mapping) must not walk every key of every table.
        pid_of = np.zeros(max(ctrace.n_tuples, 1), dtype=np.int64)
        streams = [v.utuple_ids for v in views if v.utuple_ids.size]
        gids = (
            np.unique(np.concatenate(streams))
            if streams
            else np.empty(0, dtype=np.int64)
        )
        touched_tids = ctrace.tuple_table[gids]
        for tid, table in enumerate(ctrace.tables):
            solution = partitioning.solution_for(table)
            if solution.path is None:
                continue  # already 0 (replicated)
            sub = gids[touched_tids == tid]
            if sub.size == 0:
                continue
            pid_of[sub] = engine.partition_pids(
                solution.path, solution.mapping, ctrace.tuple_local[sub]
            )
        report = CostReport()
        for view in views:
            ntxn = len(view)
            if ntxn == 0:
                continue  # the object loop never sees this class either
            report.total_transactions += ntxn
            report.per_class_total[view.class_name] = (
                report.per_class_total.get(view.class_name, 0) + ntxn
            )
            if view.tuple_ids.size == 0:
                continue
            pids = pid_of[view.tuple_ids]
            offsets = view.offsets
            starts = offsets[:-1]
            lengths = offsets[1:] - starts
            safe_starts = np.minimum(starts, pids.size - 1)
            # Condition union per access: unroutable, or replicated write.
            bad = (pids < 0) | ((pids == 0) & (view.write_bits != 0))
            any_bad = np.maximum.reduceat(bad.view(np.int8), safe_starts) > 0
            # Condition 2: more than one distinct positive partition id.
            lifted = np.where(pids > 0, pids, np.iinfo(np.int64).max)
            floored = np.where(pids > 0, pids, -1)
            mins = np.minimum.reduceat(lifted, safe_starts)
            maxs = np.maximum.reduceat(floored, safe_starts)
            multi = (maxs > -1) & (mins != maxs)
            distributed = int(((any_bad | multi) & (lengths > 0)).sum())
            if distributed:
                report.distributed_transactions += distributed
                report.per_class_distributed[view.class_name] = (
                    report.per_class_distributed.get(view.class_name, 0)
                    + distributed
                )
        return report

    def cost(self, partitioning: DatabasePartitioning, trace: Trace) -> float:
        return self.evaluate(partitioning, trace).cost
