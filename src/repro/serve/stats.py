"""Throughput/latency accounting for the batch scalar-multiplication engine.

A :class:`BatchStats` summarizes one batch: wall-clock throughput,
per-operation latency quantiles, flow-artifact cache effectiveness, the
simulated hardware cost (cycles per operation), and the failure-isolation
picture — how many items were rejected, of which kinds, and how much
recovery (chunk requeues/retries) the worker fan-out needed.  These are
the numbers a serving deployment watches, next to the paper's own
headline (one SM in 10.1 µs on the fabricated chip).

Two under-load honesty rules (the bugs this module used to have):

* ``cycles_per_op`` divides by :attr:`~BatchStats.ok_count`, not
  ``ops`` — failed items simulate zero cycles, and counting them would
  under-report the hardware cost of the work that actually ran.
* Latency samples live in a bounded
  :class:`~repro.obs.metrics.Reservoir` (cap
  :data:`LATENCY_SAMPLE_CAP`), not an unbounded list: a
  million-item batch pickles a constant-size sample home from every
  worker, and quantiles are computed over the retained samples
  (``.count`` still reports the full stream).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

from ..obs.metrics import Reservoir, percentile
from .faults import Failed

__all__ = ["BatchStats", "LATENCY_SAMPLE_CAP", "percentile"]

#: Retained-sample cap for the per-batch latency reservoirs.  Counts
#: and sums stay exact for any batch size; p50/p99 are estimated over
#: at most this many uniformly retained samples.
LATENCY_SAMPLE_CAP = 1024


def _reservoir() -> Reservoir:
    return Reservoir(cap=LATENCY_SAMPLE_CAP)


@dataclass
class BatchStats:
    """Aggregated statistics for one batch call.

    ``ops``, ``errors``, ``errors_by_kind`` and ``error_latencies``
    describe the batch's final result slots and are derived from them
    once, by :meth:`count_outcomes`; every other field accumulates
    while the batch runs and folds across workers with :meth:`merge`.

    Attributes:
        ops: operations completed (successes and isolated failures).
        wall_seconds: end-to-end wall-clock time for the batch.
        latencies: bounded reservoir of per-op latency samples in
            seconds for *successful* items (in worker fan-out mode these
            are measured inside the workers; at most
            :data:`LATENCY_SAMPLE_CAP` samples are retained, see
            module docstring).
        cache_hits / cache_misses: flow-artifact cache counters
            attributable to this batch (a fast path that fell back is
            counted as a miss, not a hit).
        fallbacks: ops where the cached fast path failed a check and
            the engine recomputed the full flow (self-healing path).
        simulated_cycles: total datapath cycles across the batch.
        workers: worker processes actually used (0 = serial in-process;
            never exceeds the number of non-empty chunks).
        errors: items rejected with a typed
            :class:`~repro.serve.faults.Failed` envelope.
        errors_by_kind: rejected-item count per failure kind.
        error_latencies: bounded reservoir of seconds spent per rejected
            item before its failure was detected (kept apart from
            ``latencies`` so the latency quantiles describe successful
            work).
        requeues: chunks whose worker died, timed out, or whose payload
            could not cross the process boundary, put back for recovery.
        retries: recovery re-executions performed for requeued chunks
            (serial re-runs in the parent).
    """

    ops: int = 0
    wall_seconds: float = 0.0
    latencies: Reservoir = field(default_factory=_reservoir)
    cache_hits: int = 0
    cache_misses: int = 0
    fallbacks: int = 0
    simulated_cycles: int = 0
    workers: int = 0
    errors: int = 0
    errors_by_kind: Dict[str, int] = field(default_factory=dict)
    error_latencies: Reservoir = field(default_factory=_reservoir)
    requeues: int = 0
    retries: int = 0

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def p50_latency(self) -> float:
        return self.latencies.percentile(50)

    @property
    def p99_latency(self) -> float:
        return self.latencies.percentile(99)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def cycles_per_op(self) -> float:
        """Simulated cycles per *successful* op.

        Failed items simulate zero cycles; dividing by ``ops`` would
        dilute the figure under poison (8 failures in a 64-item batch
        would under-report hardware cost by 12.5%).
        """
        ok = self.ok_count
        return self.simulated_cycles / ok if ok > 0 else 0.0

    @property
    def ok_count(self) -> int:
        return self.ops - self.errors

    @property
    def error_rate(self) -> float:
        return self.errors / self.ops if self.ops else 0.0

    def count_outcomes(self, results: Sequence[Any]) -> None:
        """Derive the per-item fields from a batch's final result slots."""
        failures = [r for r in results if isinstance(r, Failed)]
        self.ops = len(results)
        self.errors = len(failures)
        self.errors_by_kind = dict(Counter(f.kind for f in failures))
        self.error_latencies = _reservoir()
        self.error_latencies.extend(f.latency for f in failures)

    def merge(self, other: "BatchStats") -> None:
        """Fold a worker's partial stats into this aggregate."""
        self.latencies.extend(other.latencies)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.fallbacks += other.fallbacks
        self.simulated_cycles += other.simulated_cycles
        self.requeues += other.requeues
        self.retries += other.retries

    def report(self) -> str:
        lines = [
            f"ops             : {self.ops}"
            + (f" (x{self.workers} workers)" if self.workers else ""),
            f"wall time       : {self.wall_seconds * 1e3:.1f} ms",
            f"throughput      : {self.ops_per_second:.2f} ops/s",
            f"latency p50/p99 : {self.p50_latency * 1e3:.1f} / "
            f"{self.p99_latency * 1e3:.1f} ms",
            f"cache hit rate  : {self.cache_hit_rate:.0%} "
            f"({self.cache_hits} hit / {self.cache_misses} miss"
            + (f" / {self.fallbacks} fallback)" if self.fallbacks else ")"),
            f"cycles per op   : {self.cycles_per_op:.0f} simulated (per ok op)",
        ]
        if self.errors:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.errors_by_kind.items())
            )
            lines.append(
                f"errors          : {self.errors}/{self.ops} isolated ({kinds})"
            )
        if self.requeues or self.retries:
            lines.append(
                f"chunk recovery  : {self.requeues} requeued / "
                f"{self.retries} retried"
            )
        return "\n".join(lines)
