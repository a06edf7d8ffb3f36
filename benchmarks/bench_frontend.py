"""E-frontend — streamed requests vs pre-formed warm batches.

The front door's claim: continuous batching (flush on size-or-deadline)
converts a stream of individual requests into engine batches well
enough that **streamed throughput at saturation stays within 2x of the
pre-formed warm-batch throughput** — the coalescer's overhead (event
loop, per-request futures, flush boundaries) must not give back the
serving layer's 7x win.  The benchmark also sweeps arrival rate and
``max_wait_ms`` to expose the latency/throughput trade the deadline
knob buys (docs/serving.md, "Tuning max_wait_ms").

Run modes:

* ``python benchmarks/bench_frontend.py`` — the acceptance comparison:
  a pre-formed warm batch of 64 vs 64 requests streamed through
  :class:`repro.serve.frontend.Frontend` at saturation, plus the
  rate × max_wait sweep.  Exits non-zero if streamed ops/s falls below
  half the warm-batch ops/s.
* ``python benchmarks/bench_frontend.py --smoke`` — the same at CI
  sizes (N=12, two sweep points), same 2x acceptance bound.
* ``pytest benchmarks/bench_frontend.py`` — a relaxed-threshold
  assertion suitable for loaded CI machines.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time


def measure_warm_batch(engine, scalars):
    """Pre-formed warm-batch ops/s — the number the frontend must chase."""
    result = engine.batch_scalarmult(scalars)
    assert result.ok_count == len(scalars)
    return result.stats.ops_per_second


def run_stream(engine, scalars, rate=0.0, max_batch=16, max_wait_ms=5.0):
    """Stream ``scalars`` through a Frontend; returns the serving figures.

    ``rate`` is the Poisson arrival rate in req/s (0 = saturation: all
    requests submitted immediately).  Returns ops/s measured over the
    full stream wall time plus latency, batch and completion figures
    read from the run's own metrics registry.
    """
    from repro.curve.point import AffinePoint
    from repro.obs import MetricsRegistry
    from repro.serve import Frontend

    rng = random.Random(0xA221)
    registry = MetricsRegistry()
    generator = AffinePoint.generator()
    delays, t = [], 0.0
    for _ in scalars:
        t += rng.expovariate(rate) if rate > 0 else 0.0
        delays.append(t)

    async def driver():
        async with Frontend(engine, metrics=registry, max_batch=max_batch,
                            max_wait_ms=max_wait_ms, max_queue=4096) as fe:
            async def client(k, delay):
                await asyncio.sleep(delay)
                return await fe.submit("sm", (k, generator))

            t0 = time.perf_counter()
            results = await asyncio.gather(
                *[client(k, d) for k, d in zip(scalars, delays)]
            )
            wall = time.perf_counter() - t0
        return results, wall

    results, wall = asyncio.run(driver())
    assert len(results) == len(scalars)
    e2e = registry.histogram("repro_frontend_e2e_latency_seconds", kind="sm")
    return {
        "ops_per_s": len(scalars) / wall,
        "wall_s": wall,
        "p50_ms": e2e.percentile(50) * 1e3,
        "p99_ms": e2e.percentile(99) * 1e3,
        "mean_batch": registry.histogram(
            "repro_frontend_batch_size", kind="sm"
        ).mean,
        "completed": registry.value(
            "repro_frontend_results_total", kind="sm", outcome="completed"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (N=12, short sweep), same 2x bound")
    parser.add_argument("--n", type=int, default=None,
                        help="requests per run (default 64; smoke: 12)")
    parser.add_argument("--max-batch", type=int, default=16)
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (12 if args.smoke else 64)

    from repro.serve import BatchEngine

    rng = random.Random(0x5EED)
    scalars = [rng.randrange(2**256) for _ in range(n)]

    print("warming engine (one-time artifacts + first flow)...")
    engine = BatchEngine()
    engine.warm()

    warm_ops = measure_warm_batch(engine, scalars)
    print(f"pre-formed warm batch      : {warm_ops:6.2f} ops/s  (N={n})")

    # The acceptance point: saturation arrivals, default deadline.
    sat = run_stream(engine, scalars, rate=0.0,
                     max_batch=args.max_batch, max_wait_ms=5.0)
    ratio = sat["ops_per_s"] / warm_ops
    print(f"streamed @ saturation      : {sat['ops_per_s']:6.2f} ops/s "
          f"({ratio:.2f}x of warm batch; mean batch {sat['mean_batch']:.1f}, "
          f"p50 {sat['p50_ms']:.1f} ms, p99 {sat['p99_ms']:.1f} ms)")

    # The tuning sweep: arrival rate x flush deadline.
    rates = [warm_ops * 0.5, warm_ops * 2.0]
    waits = [1.0, 20.0] if args.smoke else [1.0, 5.0, 20.0]
    print("\nrate x max_wait sweep (streamed):")
    print(f"{'arrivals':>12} {'max_wait':>9} {'ops/s':>8} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'mean batch':>11}")
    for rate in rates:
        for wait in waits:
            r = run_stream(engine, scalars, rate=rate,
                           max_batch=args.max_batch, max_wait_ms=wait)
            print(f"{rate:10.1f}/s {wait:7.1f}ms {r['ops_per_s']:8.2f} "
                  f"{r['p50_ms']:8.1f} {r['p99_ms']:8.1f} "
                  f"{r['mean_batch']:11.1f}")

    print()
    if sat["ops_per_s"] < warm_ops / 2.0:
        print(f"FAIL: streamed saturation throughput below half the "
              f"warm-batch throughput ({ratio:.2f}x)", file=sys.stderr)
        return 1
    print(f"PASS: streamed-at-saturation within 2x of warm batch "
          f"({ratio:.2f}x)")
    return 0


# -- pytest harness ----------------------------------------------------

def test_streamed_saturation_near_warm_batch():
    """Streamed ops/s at saturation tracks the pre-formed warm batch.

    The CLI acceptance bound is 2x; under pytest (shared CI machines,
    toy N) we assert a relaxed 2.5x so scheduler noise cannot flake the
    suite while a real coalescer regression still fails.
    """
    from repro.serve import BatchEngine

    rng = random.Random(0xBEEF)
    scalars = [rng.randrange(2**256) for _ in range(10)]
    engine = BatchEngine()
    engine.warm()
    warm_ops = measure_warm_batch(engine, scalars)
    sat = run_stream(engine, scalars, rate=0.0, max_batch=8, max_wait_ms=5.0)
    print(f"\n  warm {warm_ops:.1f} ops/s vs streamed {sat['ops_per_s']:.1f} "
          f"ops/s ({sat['ops_per_s'] / warm_ops:.2f}x)")
    assert sat["ops_per_s"] >= warm_ops / 2.5
    assert sat["completed"] == len(scalars)


def test_deadline_knob_trades_latency_for_batch_size():
    """Larger max_wait under paced arrivals coalesces bigger batches."""
    from repro.serve import BatchEngine

    rng = random.Random(0xFACE)
    scalars = [rng.randrange(2**256) for _ in range(8)]
    engine = BatchEngine()
    engine.warm()
    warm_ops = measure_warm_batch(engine, scalars)
    rate = max(10.0, warm_ops)
    tight = run_stream(engine, scalars, rate=rate, max_batch=64, max_wait_ms=0.0)
    loose = run_stream(engine, scalars, rate=rate, max_batch=64, max_wait_ms=200.0)
    print(f"\n  mean batch: tight {tight['mean_batch']:.1f} "
          f"vs loose {loose['mean_batch']:.1f}")
    # A 200 ms window at an arrival rate near engine capacity must
    # coalesce more than the flush-immediately window does.
    assert loose["mean_batch"] >= tight["mean_batch"]
    assert loose["completed"] == tight["completed"] == len(scalars)


if __name__ == "__main__":
    raise SystemExit(main())
