"""Asyncio front door: continuous batching over the batch engine.

The paper's throughput numbers assume the datapath is handed full
batches; real traffic is a stream of individual requests arriving at
random times.  This module closes that gap the way serving systems for
any fixed-function accelerator do — **continuous batching**: requests
enter one at a time through :meth:`Frontend.submit`, land in a per-kind
queue, and a coalescer flushes a batch to the existing fault-isolated
:class:`~repro.serve.engine.BatchEngine` when either

* the queue reaches ``max_batch`` (**flush on size**), or
* the oldest queued request has waited ``max_wait_ms`` (**flush on
  deadline**),

whichever comes first.  The engine call runs in an executor thread so
the event loop never blocks; each caller's future is resolved from the
engine's typed per-item :class:`~repro.serve.faults.Ok` /
:class:`~repro.serve.faults.Failed` outcomes, so one poisoned request
rejects exactly one caller and a worker-chunk crash or timeout is
recovered by the engine before the front door ever sees it.

Admission control is explicit.  Every kind's queue is bounded
(``max_queue``); when it is full the configured policy decides:

* ``"block"``  — the submitter awaits until the coalescer drains space
  (backpressure propagates to the producer, nothing is lost);
* ``"reject"`` — :meth:`Frontend.submit` raises the typed
  :class:`~repro.serve.faults.Overloaded` error immediately
  (:meth:`Frontend.submit_outcome` returns the equivalent ``Failed``
  envelope instead of raising);
* ``"shed"``   — the *oldest* queued request is resolved with an
  ``overloaded`` failure and the new one is admitted (freshest-first
  under overload).

Deadlines are end-to-end.  ``submit(kind, payload, deadline=seconds)``
(or a config-wide ``default_deadline_ms``) bounds queue-to-result time:
a request that expires while still queued resolves with a typed
``Failed(KIND_DEADLINE)`` and **never dispatches**; a request blocked
at admission under the ``block`` policy gives up when its deadline (or
the separate ``admission_timeout_ms``) runs out instead of waiting
forever; and a flush whose members all carry deadlines hands the engine
the largest remaining budget, so retries and chunk waits downstream
never outlive the callers either.

:meth:`Frontend.aclose` drains gracefully: admission closes, every
already-queued request is flushed and resolved, then the coalescers and
the dispatch executor shut down.  ``aclose(drain=False)`` abandons the
queue instead, resolving each pending future with a ``cancelled``
failure — either way **every admitted future resolves exactly once**.

Everything observable is recorded into :mod:`repro.obs`:
``repro_frontend_queue_depth`` (per-kind gauge, ``mode="max"`` high
water), ``repro_frontend_batch_size`` / ``repro_frontend_flush_wait_seconds``
histograms, ``repro_frontend_e2e_latency_seconds`` per-request
end-to-end latency, and the ``repro_frontend_admissions_total``,
``repro_frontend_flushes_total`` and ``repro_frontend_results_total``
counters.  The registry is the only record: pass a fresh
:class:`~repro.obs.MetricsRegistry` for per-instance numbers and render
it with :func:`repro.obs.render_report`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs import MetricsRegistry, get_registry
from .engine import BatchEngine, default_engine
from .faults import (
    KIND_CANCELLED,
    KIND_DEADLINE,
    KIND_OVERLOADED,
    Failed,
    Overloaded,
    classify_exception,
)
from .resilience import Deadline

__all__ = [
    "Frontend",
    "FrontendClosed",
    "FrontendConfig",
    "JOB_KINDS",
]

#: Job kinds the front door accepts — the BatchEngine job vocabulary.
#: ``verify_msm`` coalesces streamed verification requests into one
#: randomized-MSM group per flush (the amortized path); ``fault`` is
#: the engine's test hook (crash/hang injection) and rides along so
#: chaos tests can abuse the full dispatch path.
JOB_KINDS = ("sm", "dh", "verify", "verify_msm", "msm", "fault")

#: Friendly aliases accepted by :meth:`Frontend.submit`.
_KIND_ALIASES = {"scalarmult": "sm", "verify-msm": "verify_msm"}

_POLICIES = ("block", "reject", "shed")

#: Flush-reason label values of ``repro_frontend_flushes_total``.
FLUSH_SIZE = "size"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"

#: Counter of resolved admitted requests, labelled by kind and by
#: outcome ``completed`` / ``failed`` / ``cancelled``.
RESULTS_TOTAL = "repro_frontend_results_total"


class FrontendClosed(RuntimeError):
    """Submission after :meth:`Frontend.aclose` began (permanent)."""


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the coalescer and admission controller.

    Attributes:
        max_batch: flush as soon as a kind's queue holds this many
            requests (the size half of size-or-deadline).
        max_wait_ms: flush when the oldest queued request has waited
            this long (the deadline half).  This is the latency price a
            lone request pays to give later arrivals a chance to share
            its batch — see docs/serving.md for the tuning note.
        max_queue: per-kind admission bound; beyond it ``policy``
            applies.
        policy: ``"block"`` / ``"reject"`` / ``"shed"`` (see module
            docstring).
        workers: engine fan-out per flush (0 = serial in-process).
        min_chunk: chunking hint forwarded to the engine — a flush
            smaller than ``min_chunk`` per worker degrades to fewer
            workers or the serial path instead of paying pool fan-out.
        dedup: forwarded to the engine (repeated identical requests in
            one flush are computed once).
        default_deadline_ms: end-to-end deadline applied to every
            submission that does not pass its own ``deadline=``
            (``None`` = unbounded, the historical behaviour).
        admission_timeout_ms: how long a submitter may stay blocked at
            a full queue under the ``block`` policy before the front
            door gives up with :class:`~repro.serve.faults.Overloaded`
            (``None`` = bounded only by the request's own deadline).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_queue: int = 256
    policy: str = "block"
    workers: int = 0
    min_chunk: int = 4
    dedup: bool = True
    default_deadline_ms: Optional[float] = None
    admission_timeout_ms: Optional[float] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (or None)")
        if self.admission_timeout_ms is not None and self.admission_timeout_ms <= 0:
            raise ValueError("admission_timeout_ms must be > 0 (or None)")


@dataclass
class _Pending:
    """One admitted request waiting in a lane."""

    kind: str
    payload: Any
    future: "asyncio.Future[Any]"
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` expiry, or None for unbounded.
    expires_at: Optional[float] = None

    def resolve(self, outcome: Any) -> None:
        """Resolve the caller's future exactly once (idempotent)."""
        if not self.future.done():
            self.future.set_result(outcome)


class _Lane:
    """Per-kind queue + the coalescer state that drains it."""

    __slots__ = ("kind", "queue", "arrival", "space", "task")

    def __init__(self, kind: str):
        self.kind = kind
        self.queue: Deque[_Pending] = deque()
        #: Set on every admission; the coalescer clears and re-awaits.
        self.arrival = asyncio.Event()
        #: Notified after every flush so blocked submitters re-check.
        self.space = asyncio.Condition()
        self.task: Optional[asyncio.Task] = None


class Frontend:
    """The asyncio front door: submit one request, share a batch.

    Construct inside a running event loop (lanes are created lazily on
    first submit, so construction itself is loop-free), submit with::

        frontend = Frontend(engine, max_batch=32, max_wait_ms=2.0)
        secret = await frontend.submit("dh", (private, peer_public))
        ...
        await frontend.aclose()       # graceful drain

    or as an async context manager (``async with Frontend(...) as fe:``).

    :meth:`submit` returns the raw per-item value (point / digest /
    verdict) and raises the re-materialized exception if the engine
    isolated the request as :class:`~repro.serve.faults.Failed`;
    :meth:`submit_outcome` never raises for per-item failures and
    returns the typed ``Ok``/``Failed`` envelope instead.
    """

    def __init__(
        self,
        engine: Optional[BatchEngine] = None,
        config: Optional[FrontendConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        **overrides: Any,
    ):
        self.engine = engine if engine is not None else default_engine()
        self.config = replace(config or FrontendConfig(), **overrides)
        self.metrics = metrics if metrics is not None else get_registry()
        self._lanes: Dict[str, _Lane] = {}
        self._closed = False
        self._draining = False
        # One dispatch thread: the engine shares a single simulator, so
        # flushes (across kinds) serialize here instead of racing it.
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- submission ----------------------------------------------------
    async def submit(self, kind: str, payload: Any, deadline: Optional[float] = None) -> Any:
        """Submit one request; return its value or raise its failure.

        ``deadline`` is an end-to-end budget in seconds (defaulting to
        the config's ``default_deadline_ms``): if it expires while the
        request is queued or blocked at admission, the request never
        executes and this raises
        :class:`~repro.serve.faults.DeadlineExceeded`.

        Raises :class:`~repro.serve.faults.Overloaded` when the
        ``reject`` policy refuses admission (or a queued request is
        shed / abandoned), :class:`FrontendClosed` after
        :meth:`aclose`, and the re-materialized per-item exception
        (``SmallOrderPoint``, ``DecodingError``, ...) when the engine
        isolated this request as failed.
        """
        outcome = await self.submit_outcome(kind, payload, deadline=deadline)
        if isinstance(outcome, Failed):
            raise outcome.to_exception()
        return outcome.value

    async def submit_outcome(
        self, kind: str, payload: Any, deadline: Optional[float] = None
    ) -> Any:
        """Like :meth:`submit` but returns the ``Ok``/``Failed`` envelope.

        Only admission-time conditions raise (:class:`FrontendClosed`,
        a bad ``kind``, :class:`~repro.serve.faults.Overloaded` under
        the ``reject`` policy or an admission timeout); execution
        outcomes — including shed, drain-cancelled, and
        deadline-expired requests — come back as envelopes.
        """
        kind = _KIND_ALIASES.get(kind, kind)
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
        if self._closed:
            raise FrontendClosed("frontend is closed to new submissions")
        if deadline is None and self.config.default_deadline_ms is not None:
            deadline = self.config.default_deadline_ms / 1000.0
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (or None)")
        now = time.perf_counter()
        loop = asyncio.get_running_loop()
        pending = _Pending(
            kind=kind,
            payload=payload,
            future=loop.create_future(),
            enqueued_at=now,
            expires_at=None if deadline is None else now + deadline,
        )
        lane = self._lane(kind)
        await self._admit(lane, pending)
        outcome = await pending.future
        self.metrics.histogram(
            "repro_frontend_e2e_latency_seconds", kind=kind
        ).observe(time.perf_counter() - pending.enqueued_at)
        return outcome

    async def _admit(self, lane: _Lane, pending: _Pending) -> None:
        cfg = self.config
        m = self.metrics
        if cfg.policy == "reject" and len(lane.queue) >= cfg.max_queue:
            raise self._refuse(
                lane, f"{lane.kind} queue full ({cfg.max_queue}); request rejected"
            )
        if cfg.policy == "block":
            # A blocked submitter waits for space, but never forever:
            # the request's own deadline and the config's admission
            # timeout both bound the wait (whichever is sooner).
            timeout_at = None
            if cfg.admission_timeout_ms is not None:
                timeout_at = pending.enqueued_at + cfg.admission_timeout_ms / 1000.0
            while len(lane.queue) >= cfg.max_queue:
                async with lane.space:
                    if len(lane.queue) < cfg.max_queue:
                        break
                    if self._draining:
                        # Woken by shutdown, not by space: this request
                        # was never admitted, so refusing it keeps the
                        # resolve-exactly-once contract for the queue.
                        raise self._refuse(
                            lane,
                            f"{lane.kind} queue still full at shutdown; "
                            "blocked request refused"
                        )
                    now = time.perf_counter()
                    if pending.expires_at is not None and now >= pending.expires_at:
                        # The caller's budget ran out at the door: a
                        # typed envelope, never an execution.
                        m.counter(
                            "repro_deadline_expired_total", stage="admission"
                        ).inc()
                        m.counter(
                            "repro_frontend_admissions_total",
                            kind=lane.kind, outcome="deadline",
                        ).inc()
                        pending.resolve(
                            Failed(
                                kind=KIND_DEADLINE,
                                message=(
                                    f"deadline expired while blocked at the "
                                    f"full {lane.kind} queue"
                                ),
                                latency=now - pending.enqueued_at,
                            )
                        )
                        return
                    if timeout_at is not None and now >= timeout_at:
                        raise self._refuse(
                            lane,
                            f"{lane.kind} queue still full after "
                            f"{cfg.admission_timeout_ms:g} ms admission timeout"
                        )
                    bounds = [
                        b for b in (pending.expires_at, timeout_at)
                        if b is not None
                    ]
                    wait_timeout = (min(bounds) - now) if bounds else None
                    try:
                        await asyncio.wait_for(
                            lane.space.wait(), timeout=wait_timeout
                        )
                    except asyncio.TimeoutError:
                        continue  # re-check which bound fired
        elif cfg.policy == "shed" and len(lane.queue) >= cfg.max_queue:
            oldest = lane.queue.popleft()
            oldest.resolve(
                Failed(
                    kind=KIND_OVERLOADED,
                    message=f"shed from full {lane.kind} queue by a newer arrival",
                    latency=time.perf_counter() - oldest.enqueued_at,
                )
            )
            m.counter(
                "repro_frontend_admissions_total", kind=lane.kind, outcome="shed"
            ).inc()
        lane.queue.append(pending)
        m.counter(
            "repro_frontend_admissions_total", kind=lane.kind, outcome="accepted"
        ).inc()
        m.gauge("repro_frontend_queue_depth", mode="max", kind=lane.kind).set(
            len(lane.queue)
        )
        lane.arrival.set()

    def _refuse(self, lane: _Lane, message: str) -> Overloaded:
        """Count one refused admission; returns the error to raise."""
        self.metrics.counter(
            "repro_frontend_admissions_total", kind=lane.kind, outcome="rejected"
        ).inc()
        return Overloaded(message)

    def _lane(self, kind: str) -> _Lane:
        lane = self._lanes.get(kind)
        if lane is None:
            lane = self._lanes[kind] = _Lane(kind)
            lane.task = asyncio.get_running_loop().create_task(
                self._coalesce(lane), name=f"repro-frontend-{kind}"
            )
        return lane

    # -- the coalescer -------------------------------------------------
    async def _coalesce(self, lane: _Lane) -> None:
        """Drain one lane forever: wait, coalesce, flush, resolve."""
        cfg = self.config
        max_wait = cfg.max_wait_ms / 1000.0
        while True:
            # Sleep until the lane has at least one request (or drain).
            while not lane.queue:
                if self._draining:
                    return
                lane.arrival.clear()
                await lane.arrival.wait()
            # Coalesce: hold the flush until size or deadline.  Expired
            # requests are swept out while we wait, so a dead-on-arrival
            # deadline never rides into a dispatch.
            await self._sweep_expired(lane)
            if not lane.queue:
                continue
            deadline = lane.queue[0].enqueued_at + max_wait
            while len(lane.queue) < cfg.max_batch and not self._draining:
                now = time.perf_counter()
                remaining = deadline - now
                if remaining <= 0:
                    break
                expiries = [
                    p.expires_at - now
                    for p in lane.queue
                    if p.expires_at is not None
                ]
                if expiries:
                    remaining = min(remaining, max(min(expiries), 0.0))
                lane.arrival.clear()
                try:
                    await asyncio.wait_for(lane.arrival.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    pass
                swept = await self._sweep_expired(lane)
                if not swept and deadline - time.perf_counter() <= 0:
                    break
                if not lane.queue:
                    break
            if not lane.queue:
                continue
            if len(lane.queue) >= cfg.max_batch:
                reason = FLUSH_SIZE
            elif self._draining:
                reason = FLUSH_DRAIN
            else:
                reason = FLUSH_DEADLINE
            batch = [
                lane.queue.popleft()
                for _ in range(min(cfg.max_batch, len(lane.queue)))
            ]
            if not batch:
                # A non-draining close emptied the queue while we were
                # waiting out the deadline: nothing to dispatch.
                continue
            async with lane.space:
                lane.space.notify_all()
            self.metrics.gauge(
                "repro_frontend_queue_depth", mode="max", kind=lane.kind
            ).set(len(lane.queue))
            await self._flush(lane.kind, batch, reason)

    async def _sweep_expired(self, lane: _Lane) -> int:
        """Resolve every expired queued request with a deadline failure.

        Runs inside the coalescer between waits, so an expired request
        is resolved (exactly once, with a typed envelope) instead of
        dispatching late.  Returns how many requests were swept and
        notifies blocked submitters about the freed space.
        """
        now = time.perf_counter()
        expired: List[_Pending] = []
        alive: List[_Pending] = []
        for p in lane.queue:
            (expired if p.expires_at is not None and now >= p.expires_at
             else alive).append(p)
        if not expired:
            return 0
        lane.queue.clear()
        lane.queue.extend(alive)
        m = self.metrics
        for pending in expired:
            m.counter("repro_deadline_expired_total", stage="queued").inc()
            m.counter(RESULTS_TOTAL, kind=lane.kind, outcome="failed").inc()
            pending.resolve(
                Failed(
                    kind=KIND_DEADLINE,
                    message=(
                        f"deadline expired after "
                        f"{(now - pending.enqueued_at) * 1e3:.1f} ms in the "
                        f"{lane.kind} queue"
                    ),
                    latency=now - pending.enqueued_at,
                )
            )
        m.gauge("repro_frontend_queue_depth", mode="max", kind=lane.kind).set(
            len(lane.queue)
        )
        async with lane.space:
            lane.space.notify_all()
        return len(expired)

    async def _flush(self, kind: str, batch: List[_Pending], reason: str) -> None:
        """Dispatch one coalesced batch and resolve every future in it."""
        now = time.perf_counter()
        wait = now - batch[0].enqueued_at
        m = self.metrics
        m.counter("repro_frontend_flushes_total", kind=kind, reason=reason).inc()
        m.histogram(
            "repro_frontend_batch_size", buckets=_BATCH_SIZE_BUCKETS, kind=kind
        ).observe(len(batch))
        m.histogram("repro_frontend_flush_wait_seconds", kind=kind).observe(wait)

        cfg = self.config
        jobs = [(p.kind, p.payload) for p in batch]
        kwargs: Dict[str, Any] = dict(
            workers=cfg.workers, dedup=cfg.dedup, min_chunk=cfg.min_chunk
        )
        # When every caller in the batch carries a deadline, hand the
        # engine the largest remaining budget so chunk waits and retries
        # downstream never outlive the callers.  The kwarg is only
        # passed when a budget exists, keeping plain engines (and test
        # stubs) with the historical signature working.
        if all(p.expires_at is not None for p in batch):
            kwargs["deadline"] = Deadline(
                max(p.expires_at for p in batch), clock=time.perf_counter
            )
        loop = asyncio.get_running_loop()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-frontend-dispatch"
            )
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.run_jobs(jobs, **kwargs),
            )
            outcomes = result.outcomes
        except Exception as exc:
            # The whole flush exploded before per-item isolation could
            # apply (the engine itself failed).  Every caller in the
            # batch gets the same typed failure; the front door stays up.
            failure_kind = classify_exception(exc)
            outcomes = [
                Failed(kind=failure_kind, message=str(exc), index=i)
                for i in range(len(batch))
            ]
            m.counter("repro_frontend_flush_errors_total", kind=kind).inc()
        for pending, outcome in zip(batch, outcomes):
            result = "failed" if isinstance(outcome, Failed) else "completed"
            m.counter(RESULTS_TOTAL, kind=kind, outcome=result).inc()
            pending.resolve(outcome)

    # -- lifecycle -----------------------------------------------------
    async def aclose(self, drain: bool = True) -> None:
        """Close admission and shut down.

        ``drain=True`` (default) flushes and resolves every queued
        request before returning; ``drain=False`` abandons the queue,
        resolving each pending future with a ``cancelled`` failure.
        Idempotent; afterwards :meth:`submit` raises
        :class:`FrontendClosed`.
        """
        self._closed = True
        self._draining = True
        if not drain:
            # Abandon what is still queued; an in-flight flush (already
            # popped from its queue) is never cancelled — its callers
            # still get real outcomes, so every future resolves once.
            for lane in self._lanes.values():
                while lane.queue:
                    pending = lane.queue.popleft()
                    pending.resolve(
                        Failed(
                            kind=KIND_CANCELLED,
                            message="frontend closed without draining",
                            latency=time.perf_counter() - pending.enqueued_at,
                        )
                    )
                    self.metrics.counter(
                        RESULTS_TOTAL, kind=lane.kind, outcome="cancelled"
                    ).inc()
        tasks = []
        for lane in self._lanes.values():
            lane.arrival.set()
            async with lane.space:
                lane.space.notify_all()
            if lane.task is not None:
                tasks.append(lane.task)
        for task in tasks:
            await task
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "Frontend":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    @property
    def queue_depth(self) -> int:
        """Requests currently queued across every kind."""
        return sum(len(lane.queue) for lane in self._lanes.values())

    @property
    def closed(self) -> bool:
        return self._closed


#: Batch-size histogram buckets (requests per flush, not seconds).
_BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)
