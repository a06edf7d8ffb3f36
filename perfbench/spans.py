"""Span recorder for the traced run: wrappers installed from outside.

The benchmark never edits the program.  It replaces a public function
or method at the name its caller looks it up (``repro.flow.assemble``,
``repro.serve.engine.run_flow``, ``BatchEngine.run_jobs``, ...) with a
wrapper that records one span per call: name, start, end, parent span,
process and thread.  Spans stay in memory and are written once, at the
end, as Chrome trace-event JSON.

Parents are tracked per thread for plain functions.  Coroutine spans
(front door, network client) interleave on one event loop, so they are
recorded as roots and joined to their requests afterwards by payload
key (see ``layers.py``).

Self time follows the benchmark's definition: a span's duration minus
the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Smallest sample count for which a p90 is reported: with fewer, fewer
#: than ten samples lie beyond it.
P90_MIN_SAMPLES = 100


@dataclass
class Span:
    id: int
    name: str
    start: float  # time.perf_counter() seconds (CLOCK_MONOTONIC: shared by processes)
    end: float
    parent: Optional[int]
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``enabled`` gates recording."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._pid = os.getpid()
        # Ids carry the pid so spans of two processes never collide.
        self._next = self._pid << 32
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: Any) -> Span:
        """Record a span whose bounds the caller measured itself."""
        span = Span(self._new_id(), name, start, end, parent, self._pid,
                    threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[Callable] = None):
        """Run ``fn`` inside a span parented on this thread's open span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = attrs(args, kwargs, result) if attrs else {}
        span = Span(span_id, name, start, end, parent, self._pid,
                    threading.get_ident(), extra)
        with self._lock:
            self.spans.append(span)
        return result

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                    attrs: Optional[Callable] = None):
        """Await ``fn`` inside a root span (coroutines interleave)."""
        if not self.enabled:
            return await fn(*args, **kwargs)
        start = time.perf_counter()
        result = await fn(*args, **kwargs)
        end = time.perf_counter()
        extra = attrs(args, kwargs, result) if attrs else {}
        self.add(name, start, end, None, **extra)
        return result


def _resolve(path: str, attr: str) -> Tuple[Any, str]:
    """``("repro.flow", "assemble")`` -> (module, "assemble");
    ``("repro.isa.microcode", "ProgramTemplate.rebind")`` -> (class, "rebind")."""
    owner: Any = importlib.import_module(path)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install(recorder: SpanRecorder,
            points: Iterable[Tuple[str, str, str, Optional[Callable]]]) -> Callable[[], None]:
    """Wrap each ``(module, attribute, span name, attrs hook)``.

    Returns a function that restores every original.  The hook, when
    given, maps ``(args, kwargs, result)`` to span attributes.
    """
    restore: List[Tuple[Any, str, Any]] = []
    for path, attr, name, hook in points:
        owner, leaf = _resolve(path, attr)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, _fn=original, _name=name, _hook=hook, **kwargs):
                return await recorder.acall(_name, _fn, args, kwargs, _hook)
        else:
            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=name, _hook=hook, **kwargs):
                return recorder.call(_name, _fn, args, kwargs, _hook)
        setattr(owner, leaf, wrapper)
        restore.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)

    return uninstall


# -- analysis ----------------------------------------------------------------

def _covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its children.

    Children are the spans in ``spans`` whose ``parent`` is the span's
    id.  Over a tree whose children lie inside their parents, the self
    times sum to the root's duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def subtree(spans: Sequence[Span], root_id: int) -> List[Span]:
    """``root_id``'s span and all its descendants."""
    by_parent: Dict[Optional[int], List[Span]] = {}
    by_id = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
        by_id[s.id] = s
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(c.id for c in by_parent.get(sid, ()))
    return out


def self_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    totals: Dict[str, float] = {}
    st = self_times(spans)
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + st[s.id]
    return totals


def percentiles(samples: Sequence[float]) -> Dict[str, Any]:
    """Median always; p90 only with at least ``P90_MIN_SAMPLES`` samples."""
    out: Dict[str, Any] = {"n": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples)
    if len(samples) >= P90_MIN_SAMPLES:
        out["p90"] = statistics.quantiles(samples, n=10)[8]
    return out


def write_chrome_trace(path: str, spans: Sequence[Span]) -> None:
    """Write spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    events = [
        {
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": s.start * 1e6, "dur": s.duration * 1e6,
            "pid": s.pid, "tid": s.tid,
            "args": {"span": s.id, "parent": s.parent,
                     **{k: v for k, v in s.attrs.items() if k != "keys"}},
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
