"""Trace rewrite passes: CSE, constant folding, dead-value elimination.

The passes operate on the recorded micro-op DAG *before* scheduling —
the funsor-style interpret-through-rewrites idiom: the trace is a
program, and the optimizer produces an equivalent smaller program whose
concrete values (the golden reference for the cycle-accurate
simulation) are preserved op for op.

Soundness constraints, in order of subtlety:

* **SELECT ops are never merged.**  A SELECT's source order encodes the
  data-dependent chosen alternative (``srcs[0]``); merging two SELECTs
  with equal source *sets* but different choices would make the
  optimized shape diverge across scalars of the same workload, which
  would break the one-schedule-per-shape contract of the flow-artifact
  cache.  SELECTs pass through untouched (their sources are remapped).
* **Outputs and keep-alive values are never merge victims.**  Merging a
  marked op into an earlier duplicate would drop its writeback (and its
  name) from the program; balanced-op-pattern workloads additionally
  rely on :meth:`repro.trace.tracer.Tracer.mark_live` ops surviving
  verbatim so constant-time shape guarantees hold (see
  ``docs/optimizer.md``).
* **Constant folding dedups by value.**  An arithmetic op whose sources
  are all CONST computes a workload constant; it becomes a CONST with
  the already-recorded value.  Constants are identical across requests
  of one workload shape, so this is shape-stable.

Every pass is purely structural (kinds and source uids, never the
concrete values), so two traces of the same workload shape optimize to
the same shape — the property the cache key relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..trace.ops import MicroOp, OpKind
from ..trace.program import TraceProgram
from ..trace.tracer import Tracer

#: Optimization levels accepted by :func:`repro.flow.run_flow`.
OPT_LEVELS = ("none", "cse", "full")


@dataclass
class OptStats:
    """What the rewrite passes did to one trace."""

    level: str = "none"
    ops_before: int = 0
    ops_after: int = 0
    arith_before: int = 0
    arith_after: int = 0
    cse_merged: int = 0
    const_folded: int = 0
    dve_removed: int = 0
    # Filled by the memoized scheduler (level "full" only).
    segments_total: int = 0
    segments_solved: int = 0
    segments_reused: int = 0

    @property
    def ops_removed(self) -> int:
        return self.ops_before - self.ops_after

    def summary(self) -> str:
        return (
            f"level={self.level}: {self.ops_before} -> {self.ops_after} ops "
            f"({self.arith_before} -> {self.arith_after} arithmetic; "
            f"cse {self.cse_merged}, fold {self.const_folded}, "
            f"dve {self.dve_removed})"
        )


def _protected_uids(tracer: Tracer) -> Set[int]:
    """Uids that must survive every pass verbatim (never merge victims)."""
    protected = set(tracer.outputs)
    protected.update(getattr(tracer, "live", ()))
    return protected


def optimize_trace(
    program: TraceProgram, level: str = "cse"
) -> Tuple[TraceProgram, OptStats]:
    """Rewrite a traced program through CSE + const-fold + DVE.

    Returns a new :class:`~repro.trace.program.TraceProgram` over a
    rebuilt tracer (uids renumbered, sources remapped, sections /
    inputs / outputs / keep-alives carried over, concrete values
    preserved) plus the pass statistics.  ``level="none"`` returns the
    original program unchanged.  The memoized sub-DAG *scheduling* of
    level ``"full"`` happens downstream in the flow — at the trace
    level ``"cse"`` and ``"full"`` apply the same rewrites.
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"optimize level must be one of {OPT_LEVELS}")
    tracer = program.tracer
    trace = tracer.trace
    const_kind = OpKind.CONST
    select_kind = OpKind.SELECT
    input_kind = OpKind.INPUT
    non_arith = (const_kind, select_kind, input_kind)
    arith_before = sum(1 for op in trace if op.kind not in non_arith)
    stats = OptStats(
        level=level, ops_before=len(trace), arith_before=arith_before
    )
    if level == "none":
        stats.ops_after = stats.ops_before
        stats.arith_after = stats.arith_before
        return program, stats

    protected = _protected_uids(tracer)

    # ---- pass 1: CSE + constant folding (forward walk) ---------------
    # remap[old_uid] -> canonical old_uid after merging.
    remap: List[int] = list(range(len(trace)))
    seen_expr: Dict[Tuple, int] = {}
    const_by_value: Dict = {}
    folded: Dict[int, MicroOp] = {}  # uids rewritten into CONST ops
    const_uids: Set[int] = set()  # canonical uids holding constants

    for op in trace:
        uid = op.uid
        kind = op.kind
        if kind is input_kind:
            continue
        if kind is const_kind:
            prev = const_by_value.get(op.value)
            if prev is None:
                const_by_value[op.value] = uid
                const_uids.add(uid)
            elif uid not in protected:
                remap[uid] = prev
                stats.const_folded += 1
            else:
                const_uids.add(uid)
            continue
        if kind is select_kind:
            # Never merged; a SELECT of a single alternative still passes
            # through (its consumers keep the all-alternatives timing
            # dependency by construction).
            continue
        # Arithmetic op.
        srcs = tuple(remap[s] for s in op.srcs)
        if srcs and uid not in protected and all(s in const_uids for s in srcs):
            # Constant folding: the value was already computed during
            # recording; re-emit as a deduplicated CONST.
            prev = const_by_value.get(op.value)
            if prev is not None:
                remap[uid] = prev
            else:
                folded[uid] = MicroOp(uid, const_kind, (), op.value, op.name)
                const_by_value[op.value] = uid
                const_uids.add(uid)
            stats.const_folded += 1
            continue
        expr = (kind, srcs)
        prev = seen_expr.get(expr)
        if prev is None:
            seen_expr[expr] = uid
        elif uid not in protected:
            remap[uid] = prev
            stats.cse_merged += 1

    # ---- pass 2: dead-value elimination (backward liveness) ----------
    roots = list(protected)
    live: Set[int] = set()
    stack = [remap[u] for u in roots]
    while stack:
        uid = stack.pop()
        if uid in live:
            continue
        live.add(uid)
        op = folded.get(uid) or trace[uid]
        for s in op.srcs:
            canonical = remap[s]
            if canonical not in live:
                stack.append(canonical)

    # ---- rebuild: renumber surviving ops, remap sources --------------
    new_tracer = Tracer()
    new_uid: Dict[int, int] = {}
    # kept_prefix[p] = surviving ops before old position p (old uid ==
    # old position), for remapping the section boundaries below.
    kept_prefix: List[int] = []
    removed_dead = 0
    arith_after = 0
    for op in trace:
        uid = op.uid
        kept_prefix.append(len(new_tracer.kinds))
        if remap[uid] != uid:
            continue  # merged away by CSE / const dedup
        kind = op.kind
        if kind is not input_kind and uid not in live:
            # Dead value (inputs always survive: they are the
            # register-file preload interface).
            removed_dead += 1
            continue
        rewritten = folded.get(uid)
        if rewritten is not None:
            kind = const_kind
        else:
            rewritten = op
        if kind not in non_arith:
            arith_after += 1
        new_uid[uid] = new_tracer.record(
            kind,
            tuple(new_uid[remap[s]] for s in rewritten.srcs),
            rewritten.value,
            rewritten.name,
        )
    kept_prefix.append(len(new_tracer.kinds))
    stats.dve_removed = removed_dead

    new_tracer.inputs = [new_uid[u] for u in tracer.inputs]
    new_tracer.outputs = [new_uid[remap[u]] for u in tracer.outputs]
    new_tracer.live = [new_uid[remap[u]] for u in getattr(tracer, "live", ())]
    new_tracer._const_cache = {
        new_tracer.values[uid]: uid
        for uid, kind in enumerate(new_tracer.kinds)
        if kind is const_kind
    }
    new_tracer.sections = [
        (name, kept_prefix[lo], kept_prefix[hi])
        for name, lo, hi in tracer.sections
    ]

    stats.ops_after = len(new_tracer.kinds)
    stats.arith_after = arith_after
    optimized = TraceProgram(
        tracer=new_tracer,
        description=program.description,
        scalar=program.scalar,
        point=program.point,
        expected=program.expected,
    )
    return optimized, stats
