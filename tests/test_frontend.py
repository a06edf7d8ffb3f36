"""The coalescer's flush contract, abused.

The front door's promises (docs/serving.md, "The asyncio front door"):

* **flush on size** — a lane flushes the moment it holds ``max_batch``
  requests, without waiting out the deadline;
* **flush on deadline** — a lone request waits at most ``max_wait_ms``
  before its (small) batch dispatches;
* **FIFO within a kind** — payloads reach the engine in submission
  order, across flush boundaries;
* **resolve exactly once** — every admitted future resolves exactly
  once, whatever interleaving of arrivals, flushes, and ``aclose()``
  (draining or not) the schedule produces;
* **small flushes stay cheap** — the ``min_chunk`` hint keeps a tiny
  flush off the process pool entirely.

These tests run against a stub engine (instant, recording) so they
exercise the asyncio machinery, not the datapath; the real-engine
integration lives in ``test_frontend_faults.py`` and
``test_differential.py``.  Property-style cases draw their schedules
from ``PYTEST_SEED`` (default pinned): ``PYTEST_SEED=12345 pytest
tests/test_frontend.py`` reproduces a CI failure exactly.
"""

import asyncio
import os
import random
import time
import zlib

import pytest

from repro.curve.point import AffinePoint
from repro.obs import MetricsRegistry, counter_value
from repro.serve import (
    BatchEngine,
    BatchResult,
    BatchStats,
    Failed,
    Frontend,
    FrontendClosed,
    FrontendConfig,
)
from repro.serve.faults import KIND_CANCELLED

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class StubEngine:
    """Recording engine: echoes payloads, optional synchronous delay.

    Implements exactly the surface the frontend dispatches to
    (``run_jobs``), so these tests pin the coalescer contract without
    paying for the simulated datapath.
    """

    def __init__(self, delay: float = 0.0):
        self.batches = []  # list of (kind, [payloads]) per flush
        self.delay = delay

    def run_jobs(self, jobs, workers=0, dedup=True, strict=False, min_chunk=None):
        kinds = {kind for kind, _ in jobs}
        assert len(kinds) == 1, f"mixed-kind flush: {kinds}"
        self.batches.append((next(iter(kinds)), [p for _, p in jobs]))
        if self.delay:
            time.sleep(self.delay)
        return BatchResult(
            results=[("echo", p) for _, p in jobs],
            stats=BatchStats(ops=len(jobs)),
        )


def run(coro):
    """Run one async test body (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def counted(owner, name, **labels):
    """Counter ``name`` summed over the series matching ``labels``, read
    from the registry ``owner`` (a Frontend or NetServer) records into."""
    return int(counter_value(owner.metrics.snapshot(), name, **labels))


FLUSHES = "repro_frontend_flushes_total"
ADMISSIONS = "repro_frontend_admissions_total"
RESULTS = "repro_frontend_results_total"


class TestFlushOnSize:
    def test_full_batch_flushes_immediately(self):
        async def body():
            stub = StubEngine()
            # The deadline is far away: only the size trigger can flush.
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=4,
                                max_wait_ms=10_000.0) as fe:
                t0 = time.perf_counter()
                results = await asyncio.gather(
                    *[fe.submit("sm", i) for i in range(8)]
                )
                elapsed = time.perf_counter() - t0
                assert results == [("echo", i) for i in range(8)]
                # Two full flushes, neither waited for the deadline.
                assert [len(p) for _, p in stub.batches] == [4, 4]
                assert elapsed < 5.0
                assert counted(fe, FLUSHES, reason="size") == 2
                assert counted(fe, FLUSHES, reason="deadline") == 0
            return fe

        fe = run(body())
        assert counted(fe, ADMISSIONS, outcome="accepted") == 8
        assert counted(fe, RESULTS, outcome="completed") == 8

    def test_oversized_wave_splits_into_max_batch_flushes(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=3, max_wait_ms=10_000.0,
                                max_queue=100) as fe:
                futs = [asyncio.ensure_future(fe.submit("sm", i))
                        for i in range(10)]
                # One yield admits all ten; nine leave as size flushes.
                await asyncio.sleep(0)
            # Leaving the block drains the tenth rather than waiting out
            # the 10 s flush deadline.
            await asyncio.gather(*futs)
            sizes = [len(p) for _, p in stub.batches]
            assert all(s <= 3 for s in sizes)
            assert sum(sizes) == 10

        run(body())


class TestFlushOnDeadline:
    def test_lone_request_pays_at_most_the_deadline(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                                max_wait_ms=25.0) as fe:
                t0 = time.perf_counter()
                result = await fe.submit("sm", 7)
                elapsed = time.perf_counter() - t0
            assert result == ("echo", 7)
            # Flushed by the deadline, not by a full batch ...
            assert counted(fe, FLUSHES) == counted(fe, FLUSHES, reason="deadline") == 1
            # ... after waiting roughly max_wait_ms (generous upper
            # bound for loaded CI machines).
            assert 0.02 <= elapsed < 5.0
            assert stub.batches == [("sm", [7])]

        run(body())

    def test_deadline_timer_starts_at_oldest_request(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                                max_wait_ms=80.0) as fe:
                first = asyncio.ensure_future(fe.submit("sm", "old"))
                await asyncio.sleep(0.03)
                second = asyncio.ensure_future(fe.submit("sm", "young"))
                await asyncio.gather(first, second)
            # The late arrival rode the older request's deadline: one
            # flush, both requests, oldest first.
            assert stub.batches == [("sm", ["old", "young"])]
            assert counted(fe, FLUSHES) == counted(fe, FLUSHES, reason="deadline") == 1

        run(body())


class TestFIFOWithinKind:
    def test_submission_order_is_flush_order(self):
        """Property: any seeded arrival schedule preserves FIFO per kind."""
        rng = _rng("fifo")

        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=rng.randint(2, 5),
                                max_wait_ms=5.0, max_queue=1000) as fe:
                tasks = []
                for i in range(40):
                    tasks.append(asyncio.ensure_future(fe.submit("sm", i)))
                    # Random pauses force a mix of size and deadline
                    # flushes along the way.
                    if rng.random() < 0.3:
                        await asyncio.sleep(rng.random() * 0.01)
                await asyncio.gather(*tasks)
            replayed = [p for _, payloads in stub.batches for p in payloads]
            assert replayed == list(range(40))

        run(body())

    def test_kinds_get_separate_lanes(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=4, max_wait_ms=10.0) as fe:
                await asyncio.gather(
                    *[fe.submit("sm", ("sm", i)) for i in range(4)],
                    *[fe.submit("fault", ("noop",)) for _ in range(2)],
                )
            by_kind = {}
            for kind, payloads in stub.batches:
                by_kind.setdefault(kind, []).extend(payloads)
            # StubEngine.run_jobs already asserts each flush is
            # single-kind; here we check both lanes saw their items.
            assert by_kind[("sm")] == [("sm", i) for i in range(4)]
            assert len(by_kind["fault"]) == 2

        run(body())

    def test_scalarmult_alias_maps_to_sm(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=1, max_wait_ms=1.0) as fe:
                await fe.submit("scalarmult", 5)
            assert stub.batches == [("sm", [5])]

        run(body())


class TestResolveExactlyOnce:
    def test_every_future_resolves_once_under_mid_stream_aclose(self):
        """Property: random schedules + aclose() mid-stream lose nothing.

        Each seeded round submits a random number of requests, closes
        the front door somewhere in the middle of the stream (draining
        or abandoning at random), and requires every admitted future to
        resolve exactly once — a value or a typed failure, never a hang
        and never a double resolution.
        """
        rng = _rng("resolve-once")

        async def one_round(round_no: int):
            stub = StubEngine(delay=0.001)
            drain = rng.random() < 0.5
            fe = Frontend(
                stub,
                metrics=MetricsRegistry(),
                max_batch=rng.randint(1, 6),
                max_wait_ms=rng.choice([0.0, 2.0, 50.0]),
                max_queue=1000,
            )
            n = rng.randint(3, 25)
            tasks = [
                asyncio.ensure_future(fe.submit_outcome("sm", (round_no, i)))
                for i in range(n)
            ]
            # Yield a random number of times so the coalescer makes
            # partial progress before the close lands mid-stream.
            for _ in range(rng.randint(0, 10)):
                await asyncio.sleep(0)
            await fe.aclose(drain=drain)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert len(outcomes) == n
            admitted = counted(fe, ADMISSIONS, outcome="accepted")
            for i, outcome in enumerate(outcomes):
                if isinstance(outcome, FrontendClosed):
                    # The close beat this submission to the door: it was
                    # never admitted, so refusing it is the contract.
                    assert i >= admitted
                elif isinstance(outcome, Failed):
                    assert not drain, "draining close must resolve with values"
                    assert outcome.kind == KIND_CANCELLED
                else:
                    assert not isinstance(outcome, BaseException), outcome
                    assert outcome.value == ("echo", (round_no, i))
            # Tasks run in creation order and admission is synchronous,
            # so the admitted set is exactly the first `admitted` items.
            if drain:
                flushed = [p for _, payloads in stub.batches for p in payloads]
                assert flushed == [(round_no, i) for i in range(admitted)]
            # Closed for business afterwards.
            with pytest.raises(FrontendClosed):
                await fe.submit("sm", 1)

        async def body():
            for round_no in range(8):
                await one_round(round_no)

        run(body())

    def test_submit_after_aclose_raises(self):
        async def body():
            fe = Frontend(StubEngine())
            await fe.aclose()
            with pytest.raises(FrontendClosed):
                await fe.submit("sm", 1)

        run(body())

    def test_unknown_kind_rejected_before_admission(self):
        async def body():
            fe = Frontend(StubEngine(), metrics=MetricsRegistry())
            with pytest.raises(ValueError, match="unknown job kind"):
                await fe.submit("keygen", 1)
            await fe.aclose()
            assert counted(fe, ADMISSIONS) == 0

        run(body())


class TestConfigValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            FrontendConfig(max_batch=0)
        with pytest.raises(ValueError):
            FrontendConfig(max_wait_ms=-1)
        with pytest.raises(ValueError):
            FrontendConfig(max_queue=0)
        with pytest.raises(ValueError):
            FrontendConfig(policy="fifo")

    def test_overrides_through_frontend_kwargs(self):
        fe = Frontend(StubEngine(), max_batch=7, policy="shed")
        assert fe.config.max_batch == 7
        assert fe.config.policy == "shed"


class TestFrontendMetrics:
    def test_registry_records_the_serving_picture(self):
        registry = MetricsRegistry()

        async def body():
            stub = StubEngine()
            async with Frontend(stub, metrics=registry, max_batch=4,
                                max_wait_ms=10.0) as fe:
                await asyncio.gather(*[fe.submit("sm", i) for i in range(8)])
            return fe

        run(body())
        assert registry.value(
            "repro_frontend_admissions_total", kind="sm", outcome="accepted"
        ) == 8
        assert registry.value(
            "repro_frontend_results_total", kind="sm", outcome="completed"
        ) == 8
        assert registry.value(
            "repro_frontend_flushes_total", kind="sm", reason="size"
        ) == 2
        batch_hist = registry.histogram("repro_frontend_batch_size", kind="sm")
        assert batch_hist.count == 2 and batch_hist.sum == 8
        e2e = registry.histogram("repro_frontend_e2e_latency_seconds", kind="sm")
        assert e2e.count == 8
        # The snapshot round-trips through the schema gate.
        from repro.obs import validate_export

        from repro.obs import render_report

        assert validate_export(registry.snapshot()) == []
        assert "flush[sm/size]: 2" in render_report(registry.snapshot())


class TestWorkersHint:
    """The min_chunk fix: small flushes never pay pool fan-out."""

    def test_plan_workers_math(self):
        plan = BatchEngine.plan_workers
        # Historical behaviour without a hint.
        assert plan(64, 4, None) == 4
        assert plan(1, 8, None) == 0
        assert plan(10, 0, None) == 0
        assert plan(10, 1, None) == 0
        # The hint floors per-worker chunks.
        assert plan(64, 4, 8) == 4
        assert plan(16, 4, 8) == 2
        assert plan(7, 4, 8) == 0
        assert plan(8, 4, 8) == 1  # one worker's worth -> serial path
        assert plan(2, 8, 1) == 8

    def test_one_item_flush_never_spawns_the_pool(self, monkeypatch):
        """Regression: a 1-item flush must take the serial path even
        when the frontend asks for aggressive fan-out."""
        engine = BatchEngine()

        def boom(*a, **k):  # pragma: no cover - the assertion IS the test
            raise AssertionError("process pool spawned for a tiny flush")

        monkeypatch.setattr(engine, "_run_parallel", boom)
        # Degenerate scalars skip the flow, so this stays instant.
        result = engine.run_jobs(
            [("sm", (0, AffinePoint.generator()))], workers=8, min_chunk=4
        )
        assert result.stats.workers == 0
        assert len(result) == 1

    def test_small_flush_degrades_to_serial_under_min_chunk(self, monkeypatch):
        engine = BatchEngine()
        monkeypatch.setattr(
            engine, "_run_parallel",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool")),
        )
        jobs = [("sm", (0, AffinePoint.generator()))] * 3
        # Three jobs, chunk floor four: serial even with workers=2.
        result = engine.run_jobs(jobs, workers=2, min_chunk=4)
        assert result.stats.workers == 0 and len(result) == 3
        # Entry-point wrappers forward the hint too.
        batch = engine.batch_scalarmult([0, 0], workers=2, min_chunk=4)
        assert batch.stats.workers == 0

    def test_frontend_dispatch_honours_min_chunk(self):
        """The frontend's engine calls carry its configured hint."""
        seen = {}

        class SpyEngine(StubEngine):
            def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                         min_chunk=None):
                seen.update(workers=workers, min_chunk=min_chunk)
                return super().run_jobs(jobs, workers=workers, dedup=dedup,
                                        strict=strict, min_chunk=min_chunk)

        async def body():
            async with Frontend(SpyEngine(), max_batch=2, max_wait_ms=1.0,
                                workers=2, min_chunk=4) as fe:
                await fe.submit("sm", 1)

        run(body())
        assert seen == {"workers": 2, "min_chunk": 4}


class TestDeadlines:
    """End-to-end deadlines: expired requests resolve typed, never late."""

    def test_expired_while_queued_resolves_typed_and_early(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            stub = StubEngine()
            # The flush deadline is far away: only the sweep can save us.
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                                max_wait_ms=10_000.0) as fe:
                t0 = time.perf_counter()
                outcome = await fe.submit_outcome("sm", 7, deadline=0.02)
                elapsed = time.perf_counter() - t0
            assert isinstance(outcome, Failed)
            assert outcome.kind == KIND_DEADLINE
            # Resolved at expiry, not at the 10 s flush deadline.
            assert elapsed < 5.0
            # The request never dispatched.
            assert stub.batches == []
            assert counted(fe, "repro_deadline_expired_total", stage="queued") == 1
            assert counted(fe, RESULTS, outcome="failed") == 1
            assert counted(fe, ADMISSIONS, outcome="accepted") == 1

        run(body())

    def test_submit_raises_deadline_exceeded(self):
        from repro.serve.faults import DeadlineExceeded

        async def body():
            async with Frontend(StubEngine(), max_batch=64,
                                max_wait_ms=10_000.0) as fe:
                with pytest.raises(DeadlineExceeded):
                    await fe.submit("sm", 7, deadline=0.02)

        run(body())

    def test_budget_forwarded_only_when_every_member_is_bounded(self):
        from repro.serve.resilience import Deadline

        calls = []

        class SpyEngine(StubEngine):
            def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                         min_chunk=None, deadline=None):
                calls.append(deadline)
                return super().run_jobs(jobs, workers=workers, dedup=dedup,
                                        strict=strict, min_chunk=min_chunk)

        async def body():
            async with Frontend(SpyEngine(), max_batch=2,
                                max_wait_ms=1.0) as fe:
                # Both bounded: the engine receives the largest budget.
                await asyncio.gather(
                    fe.submit("sm", 1, deadline=30.0),
                    fe.submit("sm", 2, deadline=60.0),
                )
                # Mixed: one caller is unbounded, so the batch is too.
                await asyncio.gather(
                    fe.submit("sm", 3, deadline=30.0),
                    fe.submit("sm", 4),
                )

        run(body())
        assert len(calls) == 2
        bounded, mixed = calls
        assert isinstance(bounded, Deadline)
        assert 50.0 < bounded.remaining() <= 60.0
        assert mixed is None

    def test_default_deadline_from_config(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            async with Frontend(StubEngine(), max_batch=64,
                                max_wait_ms=10_000.0,
                                default_deadline_ms=20.0) as fe:
                outcome = await fe.submit_outcome("sm", 1)
            assert isinstance(outcome, Failed)
            assert outcome.kind == KIND_DEADLINE

        run(body())

    def test_blocked_submitter_honours_its_deadline(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            stub = StubEngine(delay=0.2)
            fe = Frontend(stub, max_batch=1, max_wait_ms=0.0, max_queue=1,
                          policy="block")
            fillers = [
                asyncio.ensure_future(fe.submit_outcome("sm", i))
                for i in range(3)
            ]
            await asyncio.sleep(0.01)
            t0 = time.perf_counter()
            blocked = await fe.submit_outcome("sm", 99, deadline=0.05)
            elapsed = time.perf_counter() - t0
            assert isinstance(blocked, Failed)
            assert blocked.kind == KIND_DEADLINE
            assert elapsed < 5.0
            await asyncio.gather(*fillers)
            await fe.aclose()
            # The blocked request never entered the queue.
            assert all(99 not in payloads for _, payloads in stub.batches)

        run(body())

    def test_admission_timeout_bounds_block_and_raises(self):
        from repro.serve.faults import Overloaded

        async def body():
            stub = StubEngine(delay=0.2)
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=1,
                          max_wait_ms=0.0, max_queue=1, policy="block",
                          admission_timeout_ms=50.0)
            fillers = [
                asyncio.ensure_future(fe.submit_outcome("sm", i))
                for i in range(2)
            ]
            await asyncio.sleep(0.01)
            with pytest.raises(Overloaded):
                await fe.submit_outcome("sm", 99)
            await asyncio.gather(*fillers, return_exceptions=True)
            await fe.aclose()
            assert counted(fe, ADMISSIONS, outcome="rejected") >= 1

        run(body())

    def test_new_knobs_validated(self):
        with pytest.raises(ValueError):
            FrontendConfig(default_deadline_ms=0)
        with pytest.raises(ValueError):
            FrontendConfig(admission_timeout_ms=-5)

    def test_per_call_deadline_validated(self):
        async def body():
            async with Frontend(StubEngine()) as fe:
                with pytest.raises(ValueError):
                    await fe.submit("sm", 1, deadline=-1.0)

        run(body())
