"""In-memory spans around the program's public entry points (traced runs only).

:func:`install` replaces each target with a wrapper that records
``(name, start, end, parent)``; nothing is wrapped in an untraced run. A
target that no longer exists is listed in :attr:`Tracer.missing` and the
per-layer metrics that need it are left out, so the run still completes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any

#: (module, class or None, attribute, span name)
TARGETS: list[tuple[str, str | None, str, str]] = [
    ("repro.engine.executor", "Executor", "execute", "engine.execute"),
    ("repro.trace.collector", "TraceCollector", "run", "trace.collect"),
    ("repro.trace.columnar", "ColumnarTrace", "from_trace", "trace.intern"),
    ("repro.trace", None, "train_test_split", "trace.split"),
    ("repro.trace", None, "subsample", "trace.subsample"),
    ("repro.core.partitioner", "JECBPartitioner", "run", "core.partition"),
    ("repro.evaluation.evaluator", "PartitioningEvaluator", "evaluate", "evaluation.evaluate"),
    ("repro.baselines.schism", "SchismPartitioner", "run", "baselines.schism"),
    ("repro.routing.router", "Router", "__init__", "routing.init"),
    ("repro.routing.router", "Router", "route", "routing.route"),
    ("repro.routing.router", "Router", "route_batch", "routing.route_batch"),
    ("repro.routing.lookup_table", "LookupTable", "build", "routing.lookup_build"),
    ("repro.cluster.cluster", "Cluster", "__init__", "cluster.install"),
    ("repro.cluster.cluster", "Cluster", "run_trace", "cluster.replay"),
    ("repro.cluster.cluster", "Cluster", "execute", "cluster.execute"),
    ("repro.cluster.cluster", "Cluster", "check_conservation", "cluster.check"),
]

#: The ``Benchmark`` hooks, wrapped on each concrete workload class.
BENCHMARK_HOOKS = {
    "build_schema": "workloads.build_schema",
    "load": "workloads.load",
    "build_catalog": "workloads.build_catalog",
    "pick_procedure": "workloads.driver",
    "run_transaction": "workloads.driver",
}


class Tracer:
    """Records spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.missing: list[str] = []
        self.missing_spans: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn: Any, name: str) -> Any:
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, label: str) -> None:
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(label)
            self.missing_spans.append(name)
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, self.wrap(raw, name))

    def install(self, benchmark_classes: list[type]) -> None:
        """Wrap every target; record the ones that no longer exist."""
        for module_name, class_name, attr, name in TARGETS:
            label = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                self.missing_spans.append(name)
                continue
            self.patch(owner, attr, name, label)
        for cls in benchmark_classes:
            for attr, name in BENCHMARK_HOOKS.items():
                self.patch(cls, attr, name, f"{cls.__name__}.{attr}")

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total seconds, self seconds and count per span name.

        Spans nest strictly (one thread), so a span's self time is its
        duration minus the durations of its direct children.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.names)
        for index in range(len(self.names) - 1, -1, -1):
            duration = self.ends[index] - self.starts[index]
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += duration
            name = self.names[index]
            total[name] += duration
            self_time[name] += duration - child_time[index]
            count[name] += 1
        return dict(total), dict(self_time), dict(count)

    def dump(self, path: str) -> None:
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [self.names[i], round(self.starts[i] - origin, 7),
             round(self.ends[i] - origin, 7), self.parents[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": self.workload,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "missing_targets": self.missing,
                    "spans": spans,
                },
                handle,
            )
