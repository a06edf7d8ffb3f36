"""Fault paths through the front door: poison, crashes, backpressure.

Extends the ``test_serve_faults.py`` contract one layer up the stack:
the same typed per-item isolation the engine guarantees must survive
the asyncio coalescer, and the front door must add its own typed
failure — :class:`~repro.serve.faults.Overloaded` — for admission
rejects.  The promises under test:

* a poisoned request resolves only *its own* future with ``Failed``
  (the callers sharing its batch still get bit-exact values);
* a killed or timed-out worker chunk is recovered by the engine and
  never deadlocks pending futures (every test body runs under a hard
  ``asyncio.wait_for`` so a regression fails fast instead of hanging);
* backpressure rejects carry the typed ``Overloaded`` error, and a
  whole-flush engine explosion fails every caller in the flush with a
  classified envelope instead of wedging the coalescer.
"""

import asyncio
import random

import pytest

from repro.curve.encoding import DecodingError, encode_point
from repro.curve.point import AffinePoint
from repro.curve.scalarmult import scalar_mul_fourq
from repro.dsa import fourq_dh
from repro.dsa.fourq_dh import SmallOrderPoint
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine, Failed, Frontend, Ok, Overloaded
from repro.serve.faults import (
    KIND_DECODING,
    KIND_INTERNAL,
    KIND_OVERLOADED,
    KIND_SMALL_ORDER,
    classify_exception,
)

from tests.test_frontend import ADMISSIONS, RESULTS, counted

#: Decodes fine, collapses to the identity at cofactor clearing.
SMALL_ORDER_ENCODING = encode_point(AffinePoint.identity())
#: Dies in the decoder (reserved bit set).
GARBAGE_ENCODING = b"\xff" * 32

#: Hard ceiling for every async body: a deadlock fails, not hangs.
BODY_TIMEOUT = 120


@pytest.fixture(scope="module")
def engine():
    eng = BatchEngine()
    eng.warm()
    return eng


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=BODY_TIMEOUT))


class TestPoisonThroughTheFrontDoor:
    def test_poisoned_request_fails_alone(self, engine):
        """One small-order and one garbage key in a streamed DH wave
        cost exactly their own futures; sharers get real secrets."""
        rng = random.Random(0xF0D0)
        me = fourq_dh.generate_keypair(rng)
        pubs = [fourq_dh.generate_keypair(rng).public_bytes for _ in range(6)]
        pubs[1] = SMALL_ORDER_ENCODING
        pubs[4] = GARBAGE_ENCODING
        references = {
            i: fourq_dh.shared_secret(me, pub)
            for i, pub in enumerate(pubs)
            if i not in (1, 4)
        }

        async def body():
            # max_batch == wave size: all six share one engine flush.
            async with Frontend(engine, max_batch=6, max_wait_ms=50.0) as fe:
                return await asyncio.gather(
                    *[fe.submit_outcome("dh", (me.private, pub)) for pub in pubs]
                )

        outcomes = run(body())
        assert isinstance(outcomes[1], Failed)
        assert outcomes[1].kind == KIND_SMALL_ORDER
        assert isinstance(outcomes[4], Failed)
        assert outcomes[4].kind == KIND_DECODING
        for i, secret in references.items():
            assert isinstance(outcomes[i], Ok)
            assert outcomes[i].value == secret

    def test_submit_rematerializes_the_item_exception(self, engine):
        rng = random.Random(0xF0D1)
        me = fourq_dh.generate_keypair(rng)

        async def body():
            async with Frontend(engine, metrics=MetricsRegistry(), max_batch=2,
                                max_wait_ms=20.0) as fe:
                with pytest.raises(SmallOrderPoint):
                    await fe.submit("dh", (me.private, SMALL_ORDER_ENCODING))
                with pytest.raises(DecodingError):
                    await fe.submit("dh", (me.private, GARBAGE_ENCODING))
                return fe

        fe = run(body())
        assert counted(fe, RESULTS, outcome="failed") == 2
        assert counted(fe, RESULTS, outcome="completed") == 0


class TestWorkerChunkFaults:
    """Engine-level chunk recovery, driven from the async front door.

    These run the real process pool (``workers=2``) underneath the
    event loop; the assertions are that every future still resolves —
    the ``run()`` timeout converts a deadlock into a failure.
    """

    def test_killed_worker_chunk_does_not_deadlock_futures(self, engine):
        scalars = (11, 12, 13)

        async def body():
            async with Frontend(engine, max_batch=4, max_wait_ms=50.0,
                                workers=2, min_chunk=1) as fe:
                fault = asyncio.ensure_future(fe.submit("fault", ("exit",)))
                sms = [
                    asyncio.ensure_future(
                        fe.submit("sm", (k, AffinePoint.generator()))
                    )
                    for k in scalars
                ]
                return await asyncio.gather(fault, *sms)

        results = run(body())
        # The fault job degraded to its parent-side marker (the chunk
        # was requeued and recovered serially), the rest are bit-exact.
        assert results[0] == ("fault", "exit")
        for k, got in zip(scalars, results[1:]):
            ref = scalar_mul_fourq(k, AffinePoint.generator())
            assert (got.x, got.y) == (ref.x, ref.y)

    def test_timed_out_chunk_does_not_deadlock_futures(self, engine):
        engine.chunk_timeout = 0.25

        async def body():
            async with Frontend(engine, max_batch=2, max_wait_ms=50.0,
                                workers=2, min_chunk=1) as fe:
                return await asyncio.gather(
                    fe.submit("fault", ("sleep", 3.0)),
                    fe.submit("fault", ("noop",)),
                )

        try:
            results = run(body())
        finally:
            engine.chunk_timeout = None
        assert results == [("fault", "sleep"), ("fault", "noop")]


class TestBackpressure:
    def test_reject_policy_raises_typed_overloaded(self):
        """A full queue under ``reject`` refuses admission with the
        typed error, and the queued requests still complete."""
        from tests.test_frontend import StubEngine

        async def body():
            stub = StubEngine(delay=0.05)
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                          max_wait_ms=100.0, max_queue=2, policy="reject")
            first = asyncio.ensure_future(fe.submit("sm", 1))
            second = asyncio.ensure_future(fe.submit("sm", 2))
            await asyncio.sleep(0)  # let both enqueue; none flushed yet
            with pytest.raises(Overloaded):
                await fe.submit("sm", 3)
            assert counted(fe, ADMISSIONS, outcome="rejected") == 1
            assert await asyncio.gather(first, second) == [
                ("echo", 1), ("echo", 2)
            ]
            await fe.aclose()

        run(body())

    def test_shed_policy_fails_oldest_with_overloaded_envelope(self):
        from tests.test_frontend import StubEngine

        async def body():
            stub = StubEngine(delay=0.05)
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                          max_wait_ms=100.0, max_queue=1, policy="shed")
            oldest = asyncio.ensure_future(fe.submit_outcome("sm", "old"))
            await asyncio.sleep(0)
            newest = asyncio.ensure_future(fe.submit_outcome("sm", "new"))
            shed, kept = await asyncio.gather(oldest, newest)
            assert isinstance(shed, Failed) and shed.kind == KIND_OVERLOADED
            # The envelope re-materializes as the typed error.
            assert isinstance(shed.to_exception(), Overloaded)
            assert kept.value == ("echo", "new")
            assert counted(fe, ADMISSIONS, outcome="shed") == 1
            await fe.aclose()

        run(body())

    def test_overloaded_classifies_to_its_own_kind(self):
        assert classify_exception(Overloaded("full")) == KIND_OVERLOADED
        failure = Failed(kind=KIND_OVERLOADED, message="full")
        assert isinstance(failure.to_exception(), Overloaded)

    def test_blocked_submitter_backpressures_and_completes(self):
        from tests.test_frontend import StubEngine

        async def body():
            stub = StubEngine(delay=0.01)
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=4,
                                max_wait_ms=5.0, max_queue=4,
                                policy="block") as fe:
                results = await asyncio.gather(
                    *[fe.submit("sm", i) for i in range(24)]
                )
            assert results == [("echo", i) for i in range(24)]
            assert counted(fe, ADMISSIONS, outcome="rejected") == 0
            assert counted(fe, ADMISSIONS, outcome="shed") == 0

        run(body())


class TestWholeFlushExplosion:
    def test_engine_crash_fails_every_caller_without_wedging(self):
        """If run_jobs itself raises (no per-item isolation possible),
        every caller in the flush gets a classified envelope and the
        front door keeps serving."""

        class ExplodingEngine:
            def __init__(self):
                self.calls = 0

            def run_jobs(self, jobs, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("engine exploded")
                from repro.serve import BatchResult, BatchStats

                return BatchResult(results=[p for _, p in jobs],
                                   stats=BatchStats(ops=len(jobs)))

        async def body():
            eng = ExplodingEngine()
            async with Frontend(eng, metrics=MetricsRegistry(), max_batch=2,
                                max_wait_ms=10.0) as fe:
                first = await asyncio.gather(
                    fe.submit_outcome("sm", 1), fe.submit_outcome("sm", 2)
                )
                # The coalescer survived; the next flush serves normally.
                second = await fe.submit("sm", 3)
            assert all(
                isinstance(o, Failed) and o.kind == KIND_INTERNAL for o in first
            )
            assert second == 3
            assert counted(fe, RESULTS, outcome="failed") == 2
            assert counted(fe, RESULTS, outcome="completed") == 1

        run(body())
