"""Flow-artifact cache: pay the job-shop solve once per workload shape.

The expensive stages of the design flow — building the scheduling
problem, solving it, and allocating registers — depend only on the
workload *shape* (the micro-op DAG structure and the machine model),
not on the concrete scalar or point.  FourQ's constant-time recoding
guarantees that every 256-bit scalar produces the same shape: the same
op sequence, the same dependencies, the same 64-iteration loop.  This
module memoizes those per-shape artifacts behind an LRU bound with
hit/miss counters, so a batch of N requests pays one solve + N cheap
rebinds (new input values, new mux routings, new golden vector).

Soundness does not rest on the key: every cache-hit simulation still
golden-checks each writeback against the fresh trace and the engine
verifies the final outputs, so a stale or colliding entry is detected
and recomputed (counted as a fallback), never silently wrong.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..isa.fsm import FSMController
from ..isa.microcode import ProgramTemplate
from ..isa.regalloc import Allocation
from ..sched.jobshop import JobShopProblem, MachineSpec
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind
from ..trace.program import TraceProgram
from ..trace.tracer import count_arithmetic


def shape_key(
    kinds: Sequence[OpKind],
    srcs: Sequence[Tuple[int, ...]],
    machine: MachineSpec,
    scheduler: str,
    optimize: str = "none",
) -> str:
    """Canonical digest of a recording's structure (values excluded).

    Reads the ``kinds`` / ``srcs`` columns of a
    :class:`~repro.trace.tracer.Tracer`.  Two traces of the same
    workload — any scalar, any point — hash identically: op kinds and
    dependency uids are emission-order stable, and SELECT sources
    (whose order encodes the data-dependent chosen alternative) are
    sorted before hashing.

    ``scheduler="auto"`` is resolved to its concrete choice *before*
    keying (:func:`repro.flow.auto_scheduler` on the arithmetic-op
    count), so an ``"auto"`` request and the equivalent explicit request
    share one entry.  The ``optimize`` level is folded into the digest:
    the optimizer rewrites the scheduled shape, so artifacts must never
    cross levels.
    """
    if scheduler == "auto":
        from ..flow import auto_scheduler

        scheduler = auto_scheduler(count_arithmetic(kinds))
    select = OpKind.SELECT
    parts = [
        f"machine:{machine.mult_latency},{machine.addsub_latency},"
        f"{machine.read_ports},{machine.write_ports},"
        f"{int(machine.forwarding)};sched:{scheduler};opt:{optimize}"
    ]
    # One string-build + one hash update: this runs per request on the
    # serving hot path, so per-op update() calls are avoided.
    parts.extend(
        kind.value + str(tuple(sorted(s)) if kind is select else s)
        for kind, s in zip(kinds, srcs)
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def trace_shape_key(
    trace: Sequence[MicroOp],
    machine: MachineSpec,
    scheduler: str,
    optimize: str = "none",
) -> str:
    """:func:`shape_key` of a :class:`MicroOp` sequence."""
    return shape_key(
        [op.kind for op in trace],
        [op.srcs for op in trace],
        machine,
        scheduler,
        optimize,
    )


@dataclass
class FlowArtifacts:
    """The per-shape artifacts the cache carries between requests.

    ``problem`` / ``schedule`` / ``alloc`` are reused directly (they are
    shape functions); ``template`` is the pre-assembled control skeleton
    whose :meth:`~repro.isa.microcode.ProgramTemplate.rebind` turns a
    fresh same-shape trace into a full microprogram without re-walking
    the task list; ``fsm`` keeps the controller geometry of the first
    assembly, whose ROM dimensions are shape-invariant even though the
    per-request ROM contents differ with the mux routing.
    """

    key: str
    problem: JobShopProblem
    schedule: Schedule
    alloc: Allocation
    fsm: FSMController
    schedule_hash: str
    template: Optional[ProgramTemplate] = None


@dataclass
class FlowArtifactCache:
    """LRU-bounded cache of :class:`FlowArtifacts` keyed by shape digest.

    Thread-safe: every mutation of the LRU order and the counters runs
    under one re-entrant lock, so concurrent ``get``/``put`` from a
    multi-threaded server can neither corrupt the ``OrderedDict`` nor
    lose counter increments (``hits + misses`` always equals the number
    of ``get`` calls).  The lock is process-local and excluded from
    pickling (each worker process owns its own cache).
    """

    max_entries: int = 16
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fallbacks: int = 0
    _entries: "OrderedDict[str, FlowArtifacts]" = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; restored fresh below
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(
        self,
        trace_program: TraceProgram,
        machine: Optional[MachineSpec] = None,
        scheduler: str = "auto",
        optimize: str = "none",
    ) -> str:
        tracer = trace_program.tracer
        return shape_key(
            tracer.kinds, tracer.srcs, machine or MachineSpec(), scheduler, optimize
        )

    def get(self, key: str) -> Optional[FlowArtifacts]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, entry: FlowArtifacts) -> None:
        with self._lock:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def demote_hit(self) -> None:
        """Reclassify the most recent hit as a failed fast path.

        ``run_flow`` calls this when a :meth:`get` succeeded but the
        rebind or a verification check rejected the artifacts and the
        full flow had to be recomputed.  The request did not complete
        through the fast path, so it must count as a miss (plus a
        ``fallbacks`` tick), keeping :attr:`hit_rate` an honest measure
        of successful fast-path completions.
        """
        with self._lock:
            self.hits = max(0, self.hits - 1)
            self.misses += 1
            self.fallbacks += 1

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) snapshot — legacy convenience view.

        Kept for callers written against the original three-counter API;
        it is a strict subset of :meth:`stats_snapshot` (same lock, same
        consistency guarantee) and delegates to it.  New code should
        prefer :meth:`stats_snapshot`, which also reports ``fallbacks``
        and the live ``entries`` count.
        """
        snap = self.stats_snapshot()
        return (snap["hits"], snap["misses"], snap["evictions"])

    def stats_snapshot(self) -> Dict[str, int]:
        """Consistent snapshot of all five stats, one lock acquisition.

        Keys: ``hits``, ``misses``, ``evictions``, ``fallbacks`` (the
        four monotone counters) plus ``entries`` (the current LRU size).
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "fallbacks": self.fallbacks,
                "entries": len(self._entries),
            }
