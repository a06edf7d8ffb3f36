"""``Frontend.aclose(drain=True)`` racing a crowd of submitters.

The net server's graceful drain (docs/serving.md, docs/protocol.md)
leans on one Frontend contract: whatever the interleaving of
``submit`` coroutines and a concurrent ``aclose(drain=True)``,

* every future that was admitted resolves **exactly once** — with a
  result or a typed failure, never silently dropped, never twice;
* every submitter that arrives after close is refused with
  :class:`FrontendClosed` at the door — not enqueued into a lane that
  will never flush;
* the tally balances: ``admitted == resolved`` and
  ``admitted + refused == attempted``.

Schedules are property-style, drawn from ``PYTEST_SEED`` (default
pinned): ``PYTEST_SEED=12345 pytest tests/test_frontend_drain.py``
reproduces a CI failure exactly.
"""

import asyncio
import os
import random
import time
import zlib

import pytest

from repro.serve import (
    BatchResult,
    BatchStats,
    Failed,
    Frontend,
    FrontendClosed,
    FrontendConfig,
    Ok,
    Overloaded,
)
from repro.obs import MetricsRegistry

from tests.test_frontend import ADMISSIONS, RESULTS, counted

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class StubEngine:
    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.jobs_seen = 0

    def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                 min_chunk=None, deadline=None):
        self.jobs_seen += len(jobs)
        if self.delay:
            time.sleep(self.delay)
        return BatchResult(
            results=[("echo", p) for _, p in jobs],
            stats=BatchStats(ops=len(jobs)),
        )


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def _make_frontend(stub, **kwargs):
    defaults = {"max_batch": 4, "max_wait_ms": 1.0, "max_queue": 256}
    defaults.update(kwargs)
    return Frontend(stub, config=FrontendConfig(**defaults),
                    metrics=MetricsRegistry())


async def _race_once(rng, *, n_submitters, engine_delay, close_after):
    """One schedule: n submitters with jittered arrivals vs one drain.

    Returns (resolved, refused, exploded) counts; the caller asserts
    the ledger balances.
    """
    stub = StubEngine(delay=engine_delay)
    fe = _make_frontend(stub)
    resolved = refused = 0
    outcomes = []

    async def submitter(i):
        nonlocal resolved, refused
        await asyncio.sleep(rng.uniform(0.0, 2.5 * close_after))
        try:
            out = await fe.submit_outcome("sm", (i, None))
        except FrontendClosed:
            refused += 1
            return
        except Overloaded:
            # Legitimate under tiny queues; counts as resolved-at-door.
            refused += 1
            return
        resolved += 1
        outcomes.append((i, out))

    async def closer():
        await asyncio.sleep(close_after)
        await fe.aclose(drain=True)

    await asyncio.gather(closer(), *[submitter(i)
                                     for i in range(n_submitters)])
    return fe, stub, resolved, refused, outcomes


class TestDrainRace:
    def test_every_admitted_future_resolves_exactly_once(self):
        rng = _rng("drain-race")
        for round_no in range(8):
            n = rng.randrange(8, 40)
            fe, stub, resolved, refused, outcomes = run(_race_once(
                rng,
                n_submitters=n,
                engine_delay=rng.choice([0.0, 0.001, 0.005]),
                close_after=rng.uniform(0.001, 0.03),
            ))
            # The ledger balances: nobody vanished, nobody doubled.
            assert resolved + refused == n, (round_no, resolved, refused)
            ids = [i for i, _ in outcomes]
            assert len(ids) == len(set(ids)), "a future resolved twice"
            # Whatever resolved carries a real outcome envelope.
            for i, out in outcomes:
                assert (
                    isinstance(out, Ok) and out.value == ("echo", (i, None))
                ) or isinstance(out, Failed), (i, out)
            # And the frontend's registry agrees, with nothing queued.
            assert counted(fe, ADMISSIONS, outcome="accepted") == resolved
            assert (counted(fe, RESULTS, outcome="completed")
                    + counted(fe, RESULTS, outcome="failed")) == resolved
            assert fe.queue_depth == 0

    def test_late_submitters_get_frontend_closed(self):
        async def body():
            stub = StubEngine()
            fe = _make_frontend(stub)
            assert await fe.submit("sm", (1, None)) == ("echo", (1, None))
            await fe.aclose(drain=True)
            assert fe.queue_depth == 0
            with pytest.raises(FrontendClosed):
                await fe.submit("sm", (2, None))
            with pytest.raises(FrontendClosed):
                await fe.submit_outcome("sm", (3, None))

        run(body())

    def test_drain_flushes_the_queue_not_just_inflight(self):
        # Pile requests into the lane with a slow engine, close with
        # drain=True while most are still queued: all must resolve with
        # echoes (the drain flushed them), none with cancellations.
        async def body():
            stub = StubEngine(delay=0.01)
            fe = _make_frontend(stub, max_batch=2)
            futs = [
                asyncio.ensure_future(fe.submit_outcome("sm", (i, None)))
                for i in range(12)
            ]
            await asyncio.sleep(0.005)  # first flush in flight, rest queued
            await fe.aclose(drain=True)
            assert fe.queue_depth == 0
            outcomes = await asyncio.gather(*futs)
            echoes = [o for o in outcomes
                      if isinstance(o, Ok) and o.value[0] == "echo"]
            assert len(echoes) == 12, outcomes
            assert stub.jobs_seen == 12

        run(body())

    def test_seeded_interleavings_with_concurrent_closers(self):
        # The cruellest schedule: two aclose() callers racing each
        # other *and* the submitters.  aclose must be idempotent and
        # the ledger must still balance.
        rng = _rng("double-close")
        for _ in range(4):
            async def body():
                stub = StubEngine(delay=0.002)
                fe = _make_frontend(stub)
                resolved = refused = 0

                async def submitter(i):
                    nonlocal resolved, refused
                    await asyncio.sleep(rng.uniform(0.0, 0.02))
                    try:
                        await fe.submit("sm", (i, None))
                    except (FrontendClosed, Overloaded):
                        refused += 1
                    else:
                        resolved += 1

                async def closer(delay):
                    await asyncio.sleep(delay)
                    await fe.aclose(drain=True)

                n = rng.randrange(6, 24)
                await asyncio.gather(
                    closer(rng.uniform(0.0, 0.01)),
                    closer(rng.uniform(0.0, 0.01)),
                    *[submitter(i) for i in range(n)],
                )
                assert resolved + refused == n
                assert fe.closed and fe.queue_depth == 0

            run(body())

    def test_drain_false_still_resolves_typed(self):
        # drain=False abandons the queue — but "abandon" must mean a
        # typed cancellation outcome, never an unresolved future.
        async def body():
            stub = StubEngine(delay=0.02)
            fe = _make_frontend(stub, max_batch=2)
            futs = [
                asyncio.ensure_future(fe.submit_outcome("sm", (i, None)))
                for i in range(8)
            ]
            await asyncio.sleep(0.005)
            await fe.aclose(drain=False)
            assert fe.queue_depth == 0
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            assert len(outcomes) == 8
            for o in outcomes:
                ok = isinstance(o, Ok)
                typed = isinstance(o, Failed)
                refused_ = isinstance(o, (FrontendClosed, Overloaded))
                assert ok or typed or refused_, o
            cancelled = [o for o in outcomes if isinstance(o, Failed)
                         and o.kind == "cancelled"]
            assert counted(fe, RESULTS, outcome="cancelled") == len(cancelled)

        run(body())
