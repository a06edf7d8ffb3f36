"""N-net — the TCP front door vs the in-process Frontend.

The transport's claim (docs/protocol.md, docs/serving.md "The network
front door"): framing, codec round-trips, and the server's round-robin
dispatch cost so little next to the curve arithmetic that **aggregate
throughput from >= 4 concurrent TCP clients at saturation stays within
2x of the in-process Frontend** at the same ``max_batch`` /
``max_wait_ms``.  A second phase checks the fairness promise under
adversarial load: one firehose client saturating the server must not
starve the polite clients — every client's completed share stays at or
above half its fair share.

Run modes:

* ``python benchmarks/bench_net.py`` — the acceptance comparison
  (N=64 requests, 4 TCP clients) plus the fairness phase (~4 s of
  firehose + 3 polite clients).  Exits non-zero if the net/in-process
  ratio drops below 0.5 or the slowest client's share drops below
  ``0.5 / n_clients``.
* ``python benchmarks/bench_net.py --smoke`` — CI sizes (N=16, ~1.5 s
  fairness window), same bounds.
* ``pytest benchmarks/bench_net.py`` — relaxed-threshold assertions
  suitable for loaded CI machines.

Everything runs on one event loop over the loopback interface, so the
comparison isolates the transport overhead rather than NIC bandwidth.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time


def _scalars(n, seed=0x5EED):
    rng = random.Random(seed)
    return [rng.randrange(2**256) for _ in range(n)]


def measure_inproc(engine, scalars, *, max_batch, max_wait_ms):
    """Saturation ops/s through the in-process Frontend — the baseline."""
    from repro.curve.point import AffinePoint
    from repro.serve import Frontend

    generator = AffinePoint.generator()

    async def driver():
        async with Frontend(engine, max_batch=max_batch,
                            max_wait_ms=max_wait_ms, max_queue=4096) as fe:
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *[fe.submit("sm", (k, generator)) for k in scalars]
            )
            wall = time.perf_counter() - t0
        return results, wall

    results, wall = asyncio.run(driver())
    assert len(results) == len(scalars)
    return len(scalars) / wall


def run_net(engine, scalars, *, n_clients, max_batch, max_wait_ms):
    """Saturation ops/s through the TCP server from ``n_clients`` sockets.

    The same engine, the same flush knobs — the only new cost is the
    wire: framing, JSON codec, the server's admission/dispatch machinery.
    """
    from repro.curve.point import AffinePoint
    from repro.obs import MetricsRegistry
    from repro.serve import Frontend, FrontendConfig, NetClient, NetServer
    from repro.serve.net.server import NetServerConfig

    generator = AffinePoint.generator()

    async def driver():
        fe = Frontend(engine, config=FrontendConfig(
            max_batch=max_batch, max_wait_ms=max_wait_ms, max_queue=4096,
        ), metrics=MetricsRegistry())
        server = NetServer(frontend=fe, metrics=MetricsRegistry(),
                           config=NetServerConfig(port=0))
        await server.start()
        try:
            clients = [await NetClient.connect("127.0.0.1", server.port)
                       for _ in range(n_clients)]
            try:
                lanes = [scalars[i::n_clients] for i in range(n_clients)]

                async def one_client(client, lane):
                    return await asyncio.gather(
                        *[client.submit("sm", (k, generator)) for k in lane]
                    )

                t0 = time.perf_counter()
                per_client = await asyncio.gather(
                    *[one_client(c, lane)
                      for c, lane in zip(clients, lanes)]
                )
                wall = time.perf_counter() - t0
            finally:
                for c in clients:
                    await c.aclose()
        finally:
            await server.aclose()
            await fe.aclose()
        done = sum(len(r) for r in per_client)
        return done, wall, server.metrics

    done, wall, registry = asyncio.run(driver())
    assert done == len(scalars)
    assert registry.value(
        "repro_net_requests_total", kind="sm", outcome="ok"
    ) == len(scalars)
    return len(scalars) / wall


def run_fairness(engine, *, n_polite, duration_s, max_batch, max_wait_ms):
    """One firehose vs ``n_polite`` polite clients for ``duration_s``.

    The firehose keeps 24 submissions outstanding; each polite client
    keeps 3.  Returns ``(shares, total)`` where ``shares`` maps client
    label -> fraction of all completed requests.  Round-robin dispatch
    (docs/serving.md) should hold every share near ``1/n_clients``
    despite the 8x outstanding-work imbalance.
    """
    from repro.curve.point import AffinePoint
    from repro.obs import MetricsRegistry
    from repro.serve import Frontend, FrontendConfig, NetClient, NetServer
    from repro.serve.net.server import NetServerConfig

    generator = AffinePoint.generator()
    rng = random.Random(0xFA1)
    n_clients = n_polite + 1

    async def driver():
        fe = Frontend(engine, config=FrontendConfig(
            max_batch=max_batch, max_wait_ms=max_wait_ms, max_queue=4096,
        ), metrics=MetricsRegistry())
        server = NetServer(frontend=fe, metrics=MetricsRegistry(),
                           config=NetServerConfig(
                               port=0,
                               max_inflight_per_conn=64,
                               # The fairness lever: dispatch is the
                               # bottleneck, so requests queue per
                               # connection and the RR grant decides.
                               # Each client can fill at most its own
                               # window of slots per sweep, so slots a
                               # polite client cannot cover go to the
                               # firehose; ~2 slots per client keeps
                               # the split even.
                               max_dispatch_inflight=2 * n_clients,
                           ))
        await server.start()
        completed = {}
        stop = asyncio.Event()

        async def pump(label, client, window):
            completed[label] = 0

            async def worker():
                while not stop.is_set():
                    k = rng.randrange(2**246)
                    await client.submit("sm", (k, generator))
                    if not stop.is_set():
                        completed[label] += 1

            await asyncio.gather(*[worker() for _ in range(window)])

        try:
            firehose = await NetClient.connect("127.0.0.1", server.port)
            polite = [await NetClient.connect("127.0.0.1", server.port)
                      for _ in range(n_polite)]
            pumps = [asyncio.ensure_future(pump("firehose", firehose, 24))]
            pumps += [
                asyncio.ensure_future(pump(f"polite-{i}", c, 3))
                for i, c in enumerate(polite)
            ]
            await asyncio.sleep(duration_s)
            stop.set()
            for c in [firehose] + polite:
                await c.aclose()
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            await server.aclose()
            await fe.aclose()
        total = sum(completed.values())
        shares = {k: v / total for k, v in completed.items()} if total else {}
        return shares, total

    return asyncio.run(driver())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (N=16, short fairness window)")
    parser.add_argument("--n", type=int, default=None,
                        help="requests for the throughput phase "
                             "(default 64; smoke: 16)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent TCP clients (>= 4 for acceptance)")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (16 if args.smoke else 64)
    duration = 1.5 if args.smoke else 4.0

    from repro.serve import BatchEngine

    scalars = _scalars(n)
    print("warming engine (one-time artifacts + first flow)...")
    engine = BatchEngine()
    engine.warm()

    inproc = measure_inproc(engine, scalars, max_batch=args.max_batch,
                            max_wait_ms=args.max_wait_ms)
    print(f"in-process Frontend        : {inproc:6.2f} ops/s  (N={n})")

    net = run_net(engine, scalars, n_clients=args.clients,
                  max_batch=args.max_batch, max_wait_ms=args.max_wait_ms)
    ratio = net / inproc
    print(f"TCP x{args.clients} clients          : {net:6.2f} ops/s "
          f"({ratio:.2f}x of in-process)")

    n_clients = args.clients  # firehose + (clients-1) polite
    shares, total = run_fairness(engine, n_polite=n_clients - 1,
                                 duration_s=duration,
                                 max_batch=args.max_batch,
                                 max_wait_ms=args.max_wait_ms)
    print(f"\nfairness ({total} completed in {duration:.1f}s, "
          f"fair share {1 / n_clients:.2%}):")
    for label in sorted(shares):
        print(f"  {label:<12} {shares[label]:7.2%}")

    failures = []
    if net < inproc / 2.0:
        failures.append(
            f"net throughput below half of in-process ({ratio:.2f}x)")
    floor = 0.5 / n_clients
    slowest = min(shares.values()) if shares else 0.0
    if slowest < floor:
        failures.append(
            f"slowest client share {slowest:.2%} below floor {floor:.2%}")
    print()
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"PASS: net within 2x of in-process ({ratio:.2f}x); slowest "
          f"client share {slowest:.2%} >= {floor:.2%}")
    return 0


# -- pytest harness ----------------------------------------------------

def test_tcp_fanin_near_inprocess_throughput():
    """4 TCP clients at saturation track the in-process Frontend.

    The CLI acceptance bound is 2x; under pytest (shared CI machines,
    toy N) we assert a relaxed 3x so scheduler noise cannot flake the
    suite while a real transport regression still fails.
    """
    from repro.serve import BatchEngine

    engine = BatchEngine()
    engine.warm()
    scalars = _scalars(12, seed=0xBEEF)
    inproc = measure_inproc(engine, scalars, max_batch=8, max_wait_ms=5.0)
    net = run_net(engine, scalars, n_clients=4, max_batch=8, max_wait_ms=5.0)
    print(f"\n  in-process {inproc:.1f} ops/s vs TCP x4 {net:.1f} ops/s "
          f"({net / inproc:.2f}x)")
    assert net >= inproc / 3.0


def test_firehose_does_not_starve_polite_clients():
    """Round-robin dispatch holds every client's share near fair.

    The CLI gate is 0.5/n; under pytest we relax to 0.25/n — a firehose
    that actually starves a client drives its share to ~0, an order of
    magnitude below either bound.
    """
    from repro.serve import BatchEngine

    engine = BatchEngine()
    engine.warm()
    shares, total = run_fairness(engine, n_polite=3, duration_s=1.5,
                                 max_batch=8, max_wait_ms=2.0)
    assert total > 0
    slowest = min(shares.values())
    print(f"\n  shares: { {k: round(v, 3) for k, v in shares.items()} }")
    assert slowest >= 0.25 / 4


if __name__ == "__main__":
    raise SystemExit(main())
