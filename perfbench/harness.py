"""Drift-corrected timing, the sliced transaction driver and the live client.

Wall time on a small shared VM drifts by a quarter or more between runs,
and CPU time drifts with it. Every timed unit of work is therefore
bracketed by a fixed reference loop, and its time is reported as
``raw * NOMINAL_REF_S / adjacent_ref`` where ``adjacent_ref`` is the mean of
the reference samples taken just before and just after the unit. When the
machine runs slow, both the unit and its neighbouring references slow
down, and the ratio cancels the drift while keeping the unit in seconds.

A unit is one public call, or a ~10 ms slice of transactions or routed
calls for the loops that run many small operations.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Reference loop iterations per spin (~0.2 ms).
REF_ITERS = 1500
#: A reference takes the median of this many spins after a short unit...
REF_SPINS_MIN = 3
#: ...and of up to this many after a long one (one spin per ~5 ms of unit).
REF_SPINS_MAX = 25
#: Median reference spin (seconds) on the machine the benchmark was tuned
#: on: a 2-vCPU VM, CPython 3.11. It only fixes the unit scale; corrected
#: times are comparable between runs on any machine.
NOMINAL_REF_S = 0.00027
#: Target length of one slice of small operations.
SLICE_S = 0.010


def spin(iterations: int) -> int:
    """The fixed reference work: integer arithmetic on untracked objects.

    Small ints are neither allocated on the GC-tracked heap nor visited by
    the collector, so this loop's speed does not depend on how large the
    program's heap has grown.
    """
    x = 0
    i = 0
    while i < iterations:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    return x


def reference_seconds(spins: int = REF_SPINS_MIN) -> float:
    """One reference sample: the median time of *spins* spins, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        times = []
        for _ in range(spins):
            t0 = clock()
            spin(REF_ITERS)
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


@dataclass
class Timing:
    """Raw and drift-corrected seconds of one or more units."""

    raw: float = 0.0
    corrected: float = 0.0

    def add(self, other: "Timing") -> None:
        self.raw += other.raw
        self.corrected += other.corrected


def fastest(repeats: Iterable[Timing]) -> Timing:
    """The repeat with the least raw time: the one the host disturbed least.

    For passes of many small operations, interference from other tenants
    comes in bursts shorter than the reference can follow, so of several
    passes over the same work the fastest is the steadiest estimate; its
    corrected time still removes slower drift of the whole machine.
    """
    return min(repeats, key=lambda t: t.raw)


class Clock:
    """Times units of work between reference samples."""

    def __init__(self, nominal_ref_s: float = NOMINAL_REF_S) -> None:
        self.nominal = nominal_ref_s
        self.refs: list[float] = []
        self._last = self._reference()

    def _reference(self, spins: int = REF_SPINS_MIN) -> float:
        ref = reference_seconds(spins)
        self.refs.append(ref)
        return ref

    def close_unit(self, raw: float) -> Timing:
        """Sample the reference after a unit that took *raw* seconds.

        A longer unit gets a longer reference (about 1/25 of its time), so
        the drift estimate of a long call is not left to a few short spins.
        """
        spins = min(max(int(raw / 0.005), REF_SPINS_MIN), REF_SPINS_MAX) | 1
        before = self._last
        after = self._reference(spins)
        self._last = after
        return Timing(raw, raw * self.nominal * 2.0 / (before + after))

    def _collect(self) -> None:
        """Untimed full collection before a call or a loop.

        Garbage left by earlier work is then not collected, and charged,
        inside the measured work: one full pass over a large heap costs
        more than a whole hot-routing pass.
        """
        gc.collect()
        reference_seconds(REF_SPINS_MIN)  # the collection left caches cold
        self._last = self._reference(REF_SPINS_MAX)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, Timing]:
        """Run one public call as one unit."""
        self._collect()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, self.close_unit(time.perf_counter() - t0)

    def sliced(self, items: list, fn: Callable[[Any], Any]) -> tuple[list, Timing, list[Timing]]:
        """Apply *fn* to each item in ~10 ms slices.

        Returns the results, the total timing and each item's timing (its
        raw time, and that time scaled by its slice's correction).
        """
        self._collect()
        results: list = []
        total = Timing()
        per_item: list[Timing] = []
        clock = time.perf_counter
        n = len(items)
        i = 0
        while i < n:
            raws: list[float] = []
            start = clock()
            while i < n:
                t0 = clock()
                results.append(fn(items[i]))
                t1 = clock()
                raws.append(t1 - t0)
                i += 1
                if t1 - start >= SLICE_S:
                    break
            unit = self.close_unit(clock() - start)
            total.add(unit)
            scale = unit.corrected / unit.raw if unit.raw > 0 else 1.0
            per_item.extend(Timing(r, r * scale) for r in raws)
        return results, total, per_item

    def median_ref(self) -> float:
        return statistics.median(self.refs)


@dataclass
class Ops:
    """Operations attempted and failed, with the first few errors."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def drive(benchmark, catalog, client, rng, count: int, clock: Clock, ops: Ops) -> tuple[Timing, list[float]]:
    """Issue *count* transactions through the workload's own driver.

    ``client`` is whatever the workload's ``run_transaction`` calls
    ``.run(procedure, arguments)`` on: a ``TraceCollector`` while
    generating, a :class:`LiveClient` while serving. The draws from *rng*
    are exactly those of ``Benchmark.generate``, so a collector ends up
    holding the same trace. Each transaction is its own operation: an
    exception is counted as a failure and the loop goes on.
    """

    def one(_: int) -> None:
        ops.attempted += 1
        try:
            procedure = benchmark.pick_procedure(catalog, rng)
            benchmark.run_transaction(client, procedure, rng)
        except Exception as exc:  # one failed operation must not end the run
            ops.fail(f"{type(exc).__name__}: {exc}")

    _, timing, per_txn = clock.sliced(list(range(count)), one)
    return timing, [t.corrected for t in per_txn]


class LiveClient:
    """Closed-loop client that sends each driver call to ``Cluster.execute``.

    A call that returns ``False`` or raises counts as one failed operation.
    """

    def __init__(self, cluster, ops: Ops) -> None:
        self.cluster = cluster
        self.ops = ops

    def run(self, procedure, arguments) -> None:
        try:
            committed = self.cluster.execute(procedure.name, arguments)
        except Exception as exc:  # counted, never fatal
            self.ops.fail(f"{procedure.name}: {type(exc).__name__}: {exc}")
            return
        if not committed:
            self.ops.fail(f"{procedure.name}: not committed")


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[index]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile up to p99 with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``; falls back to the
    median when there are too few samples for any higher percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= 10:
            return ordered[rank - 1], float(p), n - rank
    return percentile(ordered, 50), 50.0, n - max(math.ceil(0.5 * n), 1)
