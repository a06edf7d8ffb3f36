"""Command-line entry point: ``python -m repro [command]``.

The command table below is the single source of truth — ``--help``
renders it, and ``tests/test_cli.py`` asserts every registered
subcommand appears here, so it cannot drift the way a hand-written
list would.

Commands:

* ``summary`` (default) — run the full design flow once and print the
  chip "datasheet" (cycles, registers, ROM, area, Fig. 4 headline
  points, Table II factors);
* ``verify``  — run the parameter and endomorphism self-verification;
* ``table1``  — print the CP-optimal loop-kernel schedule;
* ``keygen``  — generate and print a FourQ keypair (demo only);
* ``serve-bench`` — benchmark the batch scalar-multiplication engine
  (``serve-bench [N] [--workers W] [--baseline M] [--poison R]
  [--smoke] [--metrics-out PATH]``);
* ``serve`` — drive the asyncio continuous-batching front door with an
  in-process Poisson arrival stream and print the serving report
  (``serve [N] [--rate R] [--max-batch B] [--max-wait-ms W]
  [--policy P] [--queue Q] [--workers W] [--poison R] [--verify R]
  [--smoke] [--metrics-out PATH]``);
* ``serve-net`` — the TCP front door: run the framed-protocol network
  server (``serve-net [--port P] [--serve-for S] ...``), drive it as a
  load-generating client (``serve-net --connect HOST:PORT [N]
  [--clients C] ...``), or run the two-process end-to-end smoke
  (``serve-net --smoke``);
* ``metrics`` — validate/inspect a metrics export, or run a small
  instrumented workload and print the observability report
  (``metrics [PATH] [--check]``).

``repro --version`` prints the package version; ``repro --help`` lists
every subcommand.
"""

from __future__ import annotations

import sys


def cmd_summary() -> int:
    from .asic import calibrate, estimate_area, headline_factors
    from .flow import run_flow
    from .trace import trace_scalar_mult

    print("Running the full design flow (trace -> schedule -> microcode "
          "-> cycle-accurate simulation)...")
    prog = trace_scalar_mult(k=0x5EED << 232)
    flow = run_flow(prog)
    ok = (
        flow.simulation.outputs["result_x"] == prog.expected.x
        and flow.simulation.outputs["result_y"] == prog.expected.y
    )
    print()
    print(flow.report())
    print(f"RTL result == [k]P : {'PASS' if ok else 'FAIL'}")
    tech = calibrate(cycles=flow.cycles)
    area = estimate_area(registers=flow.microprogram.register_count)
    v_min, e_min = tech.minimum_energy_point()
    hf = headline_factors(tech)
    print()
    print(f"area estimate      : {area.total_kge:.0f} kGE (paper: 1400)")
    print(f"latency @ 1.20 V   : {tech.latency(1.2) * 1e6:.2f} us (paper: 10.1)")
    print(f"energy  @ 1.20 V   : {tech.energy(1.2) * 1e6:.2f} uJ (paper: 3.98)")
    print(f"min energy point   : {v_min:.3f} V, {e_min * 1e6:.3f} uJ "
          f"(paper: 0.32 V, 0.327 uJ)")
    print(f"vs FourQ FPGA [10] : {hf.speedup_vs_fourq_fpga:.1f}x (paper: 15.5x)")
    print(f"vs P-256 ASIC [5]  : {hf.speedup_vs_p256_asic:.2f}x (paper: 3.66x)")
    return 0 if ok else 1


def cmd_verify() -> int:
    from .curve import verify_parameters
    from .curve.derive import derive_endomorphisms

    print("Verifying FourQ parameters (on-curve, order, primality)...")
    verify_parameters()
    print("  OK")
    print("Deriving and verifying endomorphisms (Velu isogenies)...")
    endo = derive_endomorphisms()
    print(f"  psi^2 = [8],   lambda_psi = {hex(endo.lambda_psi)}")
    print(f"  phi^2 = [-20], lambda_phi = {hex(endo.lambda_phi)}")
    print("  OK")
    return 0


def cmd_table1() -> int:
    from .sched import cp_schedule, problem_from_trace
    from .trace import trace_loop_iteration

    prog = trace_loop_iteration()
    res = cp_schedule(problem_from_trace(prog.tracer.trace))
    print(res.schedule.summary())
    print()
    print(res.schedule.render_table())
    return 0


def cmd_keygen() -> int:
    from .dsa import fourq_dh

    kp = fourq_dh.generate_keypair()
    print("FourQ keypair (DO NOT use this demo output for real keys):")
    print(f"  private: {hex(kp.private)}")
    print(f"  public : {kp.public_bytes.hex()}")
    return 0


def cmd_serve_bench(argv=()) -> int:
    """Benchmark the batch engine against per-request flow recompilation.

    ``serve-bench [N] [--workers W] [--baseline M] [--poison R]``: N
    batched scalarmults (default 16) vs M independent full-flow requests
    (default 3, extrapolated) — the cold path every request paid before
    the serving layer existed.  ``--poison R`` additionally runs a
    batched-DH fault-isolation benchmark with a ratio R of invalid peer
    keys injected (small-order and malformed encodings) and reports the
    isolation overhead per good operation.

    ``--smoke`` shrinks the run for CI (N=6, one baseline flow);
    ``--metrics-out PATH`` exports the process-wide metrics registry
    after the run as schema-validated JSON plus a Prometheus text file
    next to it.
    """
    import argparse
    import random
    import time

    parser = argparse.ArgumentParser(prog="repro serve-bench")
    parser.add_argument("n", nargs="?", type=int, default=None,
                        help="batch size (default 16; 6 with --smoke)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial)")
    parser.add_argument("--baseline", type=int, default=None,
                        help="independent per-request flows to time "
                             "(default 3; 1 with --smoke)")
    parser.add_argument("--poison", type=float, default=0.0, metavar="R",
                        help="inject ratio R in (0, 1) of invalid DH "
                             "requests and report isolation overhead")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (N=6, baseline=1)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry as JSON to PATH "
                             "(+ Prometheus text alongside)")
    args = parser.parse_args(list(argv))
    if args.n is None:
        args.n = 6 if args.smoke else 16
    if args.baseline is None:
        args.baseline = 1 if args.smoke else 3
    if not 0.0 <= args.poison < 1.0:
        print("--poison must be in [0, 1)", file=sys.stderr)
        return 2

    from .flow import run_flow
    from .serve import BatchEngine
    from .trace import trace_scalar_mult

    rng = random.Random(0x5EED)
    scalars = [rng.randrange(2**256) for _ in range(args.n)]

    print(f"Baseline: {args.baseline} independent per-request flows "
          f"(trace -> schedule -> microcode -> simulate, no reuse)...")
    t0 = time.perf_counter()
    for k in scalars[: args.baseline]:
        run_flow(trace_scalar_mult(k=k))
    per_op_cold = (time.perf_counter() - t0) / max(1, args.baseline)
    print(f"  {1.0 / per_op_cold:.2f} ops/s ({per_op_cold * 1e3:.0f} ms/op)")

    print(f"\nBatch engine: warm-up + {args.n} scalarmults"
          + (f" across {args.workers} workers" if args.workers else "") + "...")
    engine = BatchEngine()
    engine.warm()
    result = engine.batch_scalarmult(scalars, workers=args.workers)
    print(result.stats.report())

    speedup = result.stats.ops_per_second * per_op_cold
    print(f"\nspeedup vs per-request flow: {speedup:.1f}x")

    if args.poison:
        from .curve.encoding import encode_point
        from .curve.point import AffinePoint
        from .dsa import fourq_dh

        n_bad = max(1, round(args.n * args.poison))
        me = fourq_dh.generate_keypair(rng)
        clean_pubs = [
            fourq_dh.generate_keypair(rng).public_bytes for _ in range(args.n)
        ]
        print(f"\nPoison benchmark: {args.n} DH requests, clean batch first...")
        clean = engine.batch_dh(me.private, clean_pubs, workers=args.workers)

        poisoned_pubs = list(clean_pubs)
        small_order = encode_point(AffinePoint.identity())
        for j, pos in enumerate(sorted(rng.sample(range(args.n), n_bad))):
            # Alternate the two rejection paths: small-order points
            # (decode fine, die at cofactor clearing) and garbage bytes
            # (die in the decoder).
            poisoned_pubs[pos] = small_order if j % 2 == 0 else b"\xff" * 32
        print(f"Injecting {n_bad}/{args.n} invalid peer keys...")
        poisoned = engine.batch_dh(me.private, poisoned_pubs, workers=args.workers)
        print(poisoned.stats.report())

        ok = poisoned.ok_count
        clean_per_op = clean.stats.wall_seconds / max(1, len(clean))
        poisoned_per_ok = poisoned.stats.wall_seconds / max(1, ok)
        overhead = poisoned_per_ok / clean_per_op - 1.0
        print(f"good results       : {ok}/{args.n}")
        print(f"isolation overhead : {overhead:+.1%} per good op vs clean batch")
        if ok != args.n - n_bad or len(poisoned.errors) != n_bad:
            print("FAIL: poisoned batch did not isolate the injected faults",
                  file=sys.stderr)
            return 1
        print("PASS: every injected fault isolated, every good result returned")

    if args.metrics_out:
        from .obs import ExportSchemaError, get_registry, write_exports

        try:
            json_path, prom_path = write_exports(
                get_registry().snapshot(), args.metrics_out
            )
        except ExportSchemaError as exc:
            print(f"FAIL: metrics export is schema-invalid: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nmetrics written    : {json_path} (+ {prom_path})")
    return 0


def cmd_serve(argv=()) -> int:
    """Demo-drive the asyncio front door under Poisson arrivals.

    ``serve [N]`` submits N individual scalar-multiplication requests
    (default 64) through :class:`repro.serve.frontend.Frontend` with
    exponential inter-arrival times at ``--rate`` requests/s (0 = as
    fast as the loop can submit, the saturation case), then prints the
    front door's serving report: flush mix, batch-size distribution,
    time-to-flush and end-to-end latency quantiles, and admission
    outcomes.  ``--poison R`` turns a ratio R of the stream into
    invalid DH requests to show streamed per-item isolation.
    ``--verify R`` turns a ratio R of the stream into Schnorr
    ``verify_msm`` requests — the coalescer groups them per flush and
    the engine resolves each group with one randomized multi-scalar
    multiplication; combined with ``--poison``, a slice of those
    signatures is tampered and must come back ``Ok(False)`` while the
    honest ones stay ``Ok(True)``.

    ``--deadline-ms`` bounds every request end-to-end (expired requests
    resolve with a typed ``deadline`` failure instead of executing
    late); ``--retries`` sets the engine's transient-chunk retry
    budget; ``--chaos`` turns a slice of the stream into worker kills
    and hangs (forcing ``workers>=2``) to demo the supervised pool,
    retry ladder, and circuit breaker end to end — the run still exits
    zero as long as every request resolves exactly once with ``Ok`` or
    a typed ``Failed``.

    ``--smoke`` shrinks the run for CI (N=8); ``--metrics-out PATH``
    exports the process-wide registry (JSON + Prometheus) afterwards.
    A sample of results is re-checked against the math layer; any
    mismatch exits non-zero.
    """
    import argparse
    import asyncio
    import random
    import time

    parser = argparse.ArgumentParser(prog="repro serve")
    parser.add_argument("n", nargs="?", type=int, default=None,
                        help="requests to stream (default 64; 8 with --smoke)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="Poisson arrival rate in req/s "
                             "(0 = saturation: submit as fast as possible)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="coalescer flush size (default 16)")
    parser.add_argument("--max-wait-ms", type=float, default=5.0,
                        help="coalescer flush deadline in ms (default 5)")
    parser.add_argument("--policy", choices=("block", "reject", "shed"),
                        default="block", help="admission policy when the "
                        "queue is full (default block)")
    parser.add_argument("--queue", type=int, default=256,
                        help="per-kind queue bound (default 256)")
    parser.add_argument("--workers", type=int, default=0,
                        help="engine fan-out per flush (0 = serial)")
    parser.add_argument("--poison", type=float, default=0.0, metavar="R",
                        help="ratio in [0, 1) of requests replaced by "
                             "invalid DH material (streamed isolation demo); "
                             "with --verify, also the ratio of tampered "
                             "signatures")
    parser.add_argument("--verify", type=float, default=0.0, metavar="R",
                        help="ratio in [0, 1] of requests submitted as "
                             "Schnorr verify_msm jobs (grouped per flush "
                             "into one randomized MSM)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="end-to-end request deadline in ms "
                             "(default: unbounded)")
    parser.add_argument("--retries", type=int, default=None,
                        help="pool executions a transient chunk fault may "
                             "consume before serial recovery (default: "
                             "engine default, 3)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject worker kills and hangs into the "
                             "stream (forces workers>=2) to exercise the "
                             "fault-tolerance layer")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (N=8)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry as JSON to PATH "
                             "(+ Prometheus text alongside)")
    args = parser.parse_args(list(argv))
    if args.n is None:
        args.n = 8 if args.smoke else 64
    if not 0.0 <= args.poison < 1.0:
        print("--poison must be in [0, 1)", file=sys.stderr)
        return 2
    if not 0.0 <= args.verify <= 1.0:
        print("--verify must be in [0, 1]", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 1:
        print("--retries must be >= 1", file=sys.stderr)
        return 2
    if args.chaos:
        args.workers = max(args.workers, 2)

    from .curve.encoding import encode_point
    from .curve.point import AffinePoint
    from .curve.scalarmult import scalar_mul_fourq
    from .dsa import fourq_dh
    from .obs import get_registry, render_report
    from .serve import (
        BatchEngine,
        Failed,
        Frontend,
        FrontendConfig,
        Ok,
        Overloaded,
        RetryPolicy,
    )

    from .dsa import fourq_schnorr

    rng = random.Random(args.seed)
    generator = AffinePoint.generator()
    me = fourq_dh.generate_keypair(rng)
    signer_kps = (
        [fourq_schnorr.generate_keypair(rng) for _ in range(4)]
        if args.verify
        else []
    )
    requests = []  # (kind, payload, poisoned?)
    for i in range(args.n):
        if args.chaos and i % 4 == 2:
            # Every 4th request is sabotage: a worker kill or a hang.
            mode = ("exit",) if (i // 4) % 2 == 0 else ("sleep", 3.0)
            requests.append(("fault", mode, False))
        elif args.verify and rng.random() < args.verify:
            kp = signer_kps[i % len(signer_kps)]
            msg = b"serve-msg-%d" % i
            sig = fourq_schnorr.sign(kp, msg)
            if args.poison and rng.random() < args.poison:
                # Tampered message: the signature no longer matches, so
                # this item must come back Ok(False) — a verdict, not a
                # Failed envelope (the fallback path's contract).
                msg += b"-tampered"
            requests.append(("verify_msm", (kp.public, msg, sig), False))
        elif args.poison and rng.random() < args.poison:
            bad = (encode_point(AffinePoint.identity())
                   if i % 2 == 0 else b"\xff" * 32)
            requests.append(("dh", (me.private, bad), True))
        else:
            requests.append(("sm", (rng.randrange(2**256), generator), False))
    delays, t = [], 0.0
    for _ in requests:
        t += rng.expovariate(args.rate) if args.rate > 0 else 0.0
        delays.append(t)

    print(f"Warming the engine (one-time curve artifacts + first flow)...")
    engine_kwargs = {}
    if args.retries is not None:
        engine_kwargs["retry_policy"] = RetryPolicy(max_attempts=args.retries)
    if args.chaos:
        # Short chunk budget so injected hangs convert to restarts in
        # demo time; seeded retry jitter keeps the run reproducible.
        engine_kwargs["chunk_timeout"] = 1.0
        engine_kwargs["retry_rng"] = random.Random(args.seed ^ 0xC4A05)
    registry = get_registry()
    engine = BatchEngine(**engine_kwargs)
    engine.warm()

    arrival = ("saturation (no pacing)" if args.rate <= 0
               else f"Poisson at {args.rate:g} req/s")
    print(f"Streaming {args.n} requests, {arrival}; "
          f"max_batch={args.max_batch}, max_wait={args.max_wait_ms:g} ms, "
          f"policy={args.policy}"
          + (f", poison={args.poison:g}" if args.poison else "")
          + (f", verify={args.verify:g}" if args.verify else "")
          + (f", deadline={args.deadline_ms:g} ms" if args.deadline_ms else "")
          + (", CHAOS" if args.chaos else "") + "...")

    async def driver():
        fe = Frontend(
            engine,
            metrics=registry,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.queue,
            policy=args.policy,
            workers=args.workers,
            # Under chaos even a tiny fault-lane flush must fan out, or
            # the sabotage degrades to the serial path and never
            # touches the pool it is meant to break.
            min_chunk=1 if args.chaos else FrontendConfig().min_chunk,
            default_deadline_ms=args.deadline_ms,
        )

        async def client(kind, payload, delay):
            await asyncio.sleep(delay)
            try:
                return await fe.submit_outcome(kind, payload)
            except Overloaded as exc:
                return Failed(kind="overloaded", message=str(exc))

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(
            *[client(kind, payload, delay)
              for (kind, payload, _), delay in zip(requests, delays)]
        )
        wall = time.perf_counter() - t0
        await fe.aclose()
        return outcomes, wall

    outcomes, wall = asyncio.run(driver())

    print()
    print(render_report(registry.snapshot()))
    completed = sum(isinstance(o, Ok) for o in outcomes)
    print(f"wall time        : {wall * 1e3:.1f} ms")
    print(f"streamed ops/s   : {completed / wall:.2f}")

    # Self-check: every request resolved exactly once; every clean
    # scalarmult matches the math layer; every poisoned request failed
    # as a typed envelope (and nothing else did).  With a deadline or
    # under chaos, a typed deadline failure is a legitimate outcome.
    if len(outcomes) != len(requests):
        print(f"FAIL: {len(requests)} requests but {len(outcomes)} outcomes",
              file=sys.stderr)
        return 1
    checked = mismatches = deadline_hits = verified = 0
    for (kind, payload, poisoned), outcome in zip(requests, outcomes):
        failed = isinstance(outcome, Failed)
        if failed and outcome.kind == "deadline" and args.deadline_ms:
            deadline_hits += 1
            continue
        if kind == "verify_msm":
            # The batch-MSM verdict must match the per-item reference
            # verifier — True for honest items, False for tampered ones.
            public, message, sig = payload
            if failed or outcome.value != fourq_schnorr.verify(
                public, message, sig
            ):
                mismatches += 1
            else:
                verified += 1
            continue
        if kind == "fault":
            # Chaos sabotage: recovered Ok marker or a typed failure —
            # anything but an unresolved/untyped outcome is a pass.
            if failed and outcome.kind not in (
                "deadline", "timeout", "worker_crash", "circuit_open",
                "internal",
            ):
                mismatches += 1
            continue
        if poisoned != failed:
            mismatches += 1
        elif kind == "sm" and not failed and checked < 8:
            k, p = payload
            ref = scalar_mul_fourq(k, p)
            if (outcome.value.x, outcome.value.y) != (ref.x, ref.y):
                mismatches += 1
            checked += 1
    if mismatches:
        print(f"FAIL: {mismatches} streamed outcome(s) diverged",
              file=sys.stderr)
        return 1
    print(f"PASS: outcomes verified ({checked} re-checked against the "
          f"math layer"
          + (f"; {verified} batch-MSM verdicts matched the reference "
             "verifier" if verified else "")
          + (f"; {deadline_hits} hit their deadline" if deadline_hits else "")
          + ")")

    if args.chaos or args.workers:
        sup = engine.supervisor
        if sup is not None:
            d = sup.describe()
            print(f"pool             : {d['state']} ({d['workers']} workers, "
                  f"{d['restarts']} restarts)")
        b = engine.breaker.describe()
        print(f"breaker          : {b['state']} "
              f"({b['consecutive_failures']} consecutive failures)")
    engine.close()

    if args.metrics_out:
        from .obs import ExportSchemaError, write_exports

        try:
            json_path, prom_path = write_exports(
                registry.snapshot(), args.metrics_out
            )
        except ExportSchemaError as exc:
            print(f"FAIL: metrics export is schema-invalid: {exc}",
                  file=sys.stderr)
            return 1
        print(f"metrics written  : {json_path} (+ {prom_path})")
    return 0


def cmd_serve_net(argv=()) -> int:
    """The TCP front door: server, load-driving client, or e2e smoke.

    **Server** (default): warm a real engine, own a Frontend, and serve
    the framed protocol until SIGTERM/SIGINT (graceful GOAWAY drain) or
    ``--serve-for`` seconds elapse.  ``--port 0`` binds an ephemeral
    port; the bound port is printed and, with ``--port-file``, written
    atomically for orchestration.

    **Client** (``--connect HOST:PORT [N]``): stream N requests across
    ``--clients`` concurrent connections, re-check a sample of results
    against the math layer, and report aggregate throughput.
    ``--poison R`` injects invalid DH requests that must come back as
    typed failures; ``--deadline-ms`` attaches a relative budget to
    every request.

    **Smoke** (``--smoke``): the CI end-to-end — spawn the server as a
    real second process on an ephemeral port, drive the client path
    against it, then SIGTERM it and require a clean graceful-drain
    exit.  ``--metrics-out PATH`` is forwarded to the server process,
    which exports its registry (the ``repro_net_*`` series) on drain.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro serve-net")
    parser.add_argument("n", nargs="?", type=int, default=None,
                        help="client mode: requests to stream "
                             "(default 32; 12 with --smoke)")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="run as a client against a serving instance")
    parser.add_argument("--host", default="127.0.0.1",
                        help="server bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="server bind port (default 0 = ephemeral)")
    parser.add_argument("--port-file", metavar="PATH", default=None,
                        help="server mode: write the bound port to PATH "
                             "(atomically) once accepting")
    parser.add_argument("--serve-for", type=float, default=None,
                        help="server mode: drain and exit after this many "
                             "seconds (default: until SIGTERM)")
    parser.add_argument("--clients", type=int, default=4,
                        help="client mode: concurrent connections "
                             "(default 4)")
    parser.add_argument("--poison", type=float, default=0.0, metavar="R",
                        help="client mode: ratio in [0, 1) of requests "
                             "replaced by invalid DH material")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="client mode: per-request relative budget; "
                             "server mode: Frontend default_deadline_ms "
                             "clamp")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="server mode: coalescer flush size")
    parser.add_argument("--max-wait-ms", type=float, default=5.0,
                        help="server mode: coalescer flush deadline (ms)")
    parser.add_argument("--policy", choices=("block", "reject", "shed"),
                        default="block",
                        help="server mode: Frontend admission policy")
    parser.add_argument("--queue", type=int, default=256,
                        help="server mode: per-kind queue bound")
    parser.add_argument("--workers", type=int, default=0,
                        help="server mode: engine fan-out per flush")
    parser.add_argument("--max-inflight", type=int, default=32,
                        help="server mode: per-connection outstanding cap")
    parser.add_argument("--max-pending", type=int, default=1024,
                        help="server mode: global pending cap before "
                             "oldest-deadline-first shedding")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    parser.add_argument("--smoke", action="store_true",
                        help="two-process end-to-end smoke (CI)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry as JSON to PATH "
                             "(+ Prometheus text alongside)")
    args = parser.parse_args(list(argv))
    if not 0.0 <= args.poison < 1.0:
        print("--poison must be in [0, 1)", file=sys.stderr)
        return 2
    if args.clients < 1:
        print("--clients must be >= 1", file=sys.stderr)
        return 2
    if args.smoke:
        return _serve_net_smoke(args)
    if args.connect is not None:
        if args.n is None:
            args.n = 32
        rc = _serve_net_client(args)
    else:
        rc = _serve_net_server(args)
    if rc == 0 and args.metrics_out:
        from .obs import ExportSchemaError, get_registry, write_exports

        try:
            json_path, prom_path = write_exports(
                get_registry().snapshot(), args.metrics_out
            )
        except ExportSchemaError as exc:
            print(f"FAIL: metrics export is schema-invalid: {exc}",
                  file=sys.stderr)
            return 1
        print(f"metrics written  : {json_path} (+ {prom_path})")
    return rc


def _serve_net_server(args) -> int:
    """``serve-net`` server mode (blocking until drain completes)."""
    import asyncio
    import os

    from .obs import render_report
    from .serve import BatchEngine, FrontendConfig
    from .serve.net import NetServer, NetServerConfig

    print("Warming the engine (one-time curve artifacts + first flow)...",
          flush=True)
    engine = BatchEngine()
    engine.warm()
    server = NetServer(
        engine=engine,
        frontend_config=FrontendConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.queue,
            policy=args.policy,
            workers=args.workers,
            default_deadline_ms=args.deadline_ms,
        ),
        config=NetServerConfig(
            host=args.host,
            port=args.port,
            max_inflight_per_conn=args.max_inflight,
            max_pending_total=args.max_pending,
        ),
    )

    async def run() -> None:
        await server.start()
        server.install_signal_handlers()
        print(f"serving on {args.host}:{server.port} "
              f"(SIGTERM drains gracefully)", flush=True)
        if args.port_file:
            # Atomic write: pollers never read a half-written port.
            tmp = f"{args.port_file}.tmp"
            with open(tmp, "w") as fh:
                fh.write(str(server.port))
            os.replace(tmp, args.port_file)
        if args.serve_for is not None:
            try:
                await asyncio.wait_for(
                    server.serve_until_closed(), timeout=args.serve_for
                )
            except asyncio.TimeoutError:
                await server.aclose()
        else:
            await server.serve_until_closed()

    try:
        asyncio.run(run())
    finally:
        engine.close()
    print()
    print(render_report(server.metrics.snapshot()))
    print("drained cleanly")
    return 0


def _serve_net_client(args) -> int:
    """``serve-net --connect`` client mode: drive, self-check, report."""
    import asyncio
    import random
    import time

    from .curve.encoding import encode_point
    from .curve.point import AffinePoint
    from .curve.scalarmult import scalar_mul_fourq
    from .dsa import fourq_dh
    from .serve import Failed
    from .serve.net import NetClient

    host, _, port_s = args.connect.rpartition(":")
    try:
        port = int(port_s)
    except ValueError:
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    host = host or "127.0.0.1"

    rng = random.Random(args.seed)
    generator = AffinePoint.generator()
    me = fourq_dh.generate_keypair(rng)
    requests = []  # (kind, payload, poisoned?)
    for i in range(args.n):
        if args.poison and rng.random() < args.poison:
            bad = (encode_point(AffinePoint.identity())
                   if i % 2 == 0 else b"\xff" * 32)
            requests.append(("dh", (me.private, bad), True))
        else:
            requests.append(("sm", (rng.randrange(2**256), generator), False))

    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    print(f"Streaming {args.n} requests over {args.clients} TCP "
          f"connection(s) to {host}:{port}"
          + (f", poison={args.poison:g}" if args.poison else "")
          + (f", deadline={args.deadline_ms:g} ms" if args.deadline_ms
             else "") + "...")

    async def drive():
        clients = [
            await NetClient.connect(host, port,
                                    client_name=f"repro-cli-{i}")
            for i in range(args.clients)
        ]
        try:
            t0 = time.perf_counter()
            outcomes = await asyncio.gather(*[
                clients[i % len(clients)].submit_outcome(
                    kind, payload, deadline=deadline
                )
                for i, (kind, payload, _) in enumerate(requests)
            ])
            wall = time.perf_counter() - t0
        finally:
            for c in clients:
                await c.aclose()
        return outcomes, wall

    outcomes, wall = asyncio.run(asyncio.wait_for(drive(), timeout=600))

    ok = sum(1 for o in outcomes if not isinstance(o, Failed))
    kinds = {}
    for o in outcomes:
        if isinstance(o, Failed):
            kinds[o.kind] = kinds.get(o.kind, 0) + 1
    print(f"completed        : {len(outcomes)}/{args.n} "
          f"({ok} ok"
          + "".join(f", {k}={v}" for k, v in sorted(kinds.items())) + ")")
    print(f"wall time        : {wall * 1e3:.1f} ms")
    print(f"streamed ops/s   : {len(outcomes) / wall:.2f}")

    # Self-check: typed outcomes line up with what was sent, and a
    # sample of clean scalarmults matches the math layer.
    checked = mismatches = deadline_hits = 0
    for (kind, payload, poisoned), outcome in zip(requests, outcomes):
        failed = isinstance(outcome, Failed)
        if failed and outcome.kind == "deadline" and args.deadline_ms:
            deadline_hits += 1
            continue
        if poisoned != failed:
            mismatches += 1
        elif kind == "sm" and not failed and checked < 8:
            k, p = payload
            ref = scalar_mul_fourq(k, p)
            if (outcome.value.x, outcome.value.y) != (ref.x, ref.y):
                mismatches += 1
            checked += 1
    if mismatches:
        print(f"FAIL: {mismatches} wire outcome(s) diverged", file=sys.stderr)
        return 1
    print(f"PASS: outcomes verified ({checked} re-checked against the "
          f"math layer"
          + (f"; {deadline_hits} hit their deadline" if deadline_hits else "")
          + ")")
    return 0


def _serve_net_smoke(args) -> int:
    """``serve-net --smoke``: spawn a real server process, drive it,
    SIGTERM it, and require a graceful exit — the CI end-to-end."""
    import os
    import signal
    import subprocess
    import tempfile
    import time

    n = args.n if args.n is not None else 12
    with tempfile.TemporaryDirectory(prefix="repro-net-smoke-") as tmp:
        port_file = os.path.join(tmp, "port")
        cmd = [
            sys.executable, "-m", "repro", "serve-net",
            "--port", "0", "--port-file", port_file,
            "--serve-for", "600",
            "--max-batch", str(args.max_batch),
            "--max-wait-ms", str(args.max_wait_ms),
        ]
        if args.metrics_out:
            # The server process owns the interesting registry (the
            # repro_net_* series live there, not in this driver), so
            # the export is written by the server on drain.
            cmd += ["--metrics-out", args.metrics_out]
        print(f"smoke: spawning server: {' '.join(cmd)}", flush=True)
        proc = subprocess.Popen(cmd)
        try:
            deadline = time.monotonic() + 180  # engine warm included
            while not os.path.exists(port_file):
                if proc.poll() is not None:
                    print(f"FAIL: server exited early "
                          f"(rc={proc.returncode})", file=sys.stderr)
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: server never published its port",
                          file=sys.stderr)
                    return 1
                time.sleep(0.1)
            with open(port_file) as fh:
                port = int(fh.read().strip())
            print(f"smoke: server is up on port {port}", flush=True)

            client_args = _SmokeClientArgs(args, port, n)
            rc = _serve_net_client(client_args)
            if rc != 0:
                return rc

            print("smoke: SIGTERM -> graceful drain...", flush=True)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            if rc != 0:
                print(f"FAIL: server exited {rc} after SIGTERM",
                      file=sys.stderr)
                return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    if args.metrics_out and not os.path.exists(args.metrics_out):
        print(f"FAIL: server never wrote {args.metrics_out}",
              file=sys.stderr)
        return 1
    print("smoke: PASS (served, verified, drained, exited 0)")
    return 0


class _SmokeClientArgs:
    """Client-mode view of the smoke's argparse namespace."""

    def __init__(self, args, port: int, n: int):
        self.connect = f"127.0.0.1:{port}"
        self.n = n
        self.clients = args.clients
        self.poison = args.poison
        self.deadline_ms = args.deadline_ms
        self.seed = args.seed


def cmd_metrics(argv=()) -> int:
    """Validate or render a metrics export, or produce one live.

    ``metrics PATH`` validates the JSON export at PATH and prints the
    derived observability report; ``--check`` validates only (exit 1 on
    schema violations — the CI gate).  With no PATH, a small
    instrumented workload runs in-process and its report is printed.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="repro metrics")
    parser.add_argument("path", nargs="?", default=None,
                        help="metrics JSON export to validate/render "
                             "(omit to run a small live workload)")
    parser.add_argument("--check", action="store_true",
                        help="validate the schema only; exit 1 on errors")
    args = parser.parse_args(list(argv))

    from .obs import (
        MetricsRegistry,
        render_report,
        set_registry,
        validate_export,
    )

    if args.path is not None:
        try:
            with open(args.path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
        errors = validate_export(doc)
        if errors:
            print(f"FAIL: {len(errors)} schema violation(s):", file=sys.stderr)
            for err in errors:
                print(f"  - {err}", file=sys.stderr)
            return 1
        if args.check:
            print(f"OK: {args.path} is a valid {doc.get('schema')} export")
            return 0
        print(render_report(doc))
        return 0

    # No file: run a tiny instrumented workload against a private
    # registry so the report reflects exactly this run.
    from .serve import BatchEngine

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine = BatchEngine(metrics=registry)
        engine.warm()
        engine.batch_scalarmult([3, 5, 7, 9])
    finally:
        set_registry(previous)
    print(render_report(registry.snapshot()))
    return 0


COMMANDS = {
    "summary": cmd_summary,
    "verify": cmd_verify,
    "table1": cmd_table1,
    "keygen": cmd_keygen,
    "serve-bench": cmd_serve_bench,
    "serve": cmd_serve,
    "serve-net": cmd_serve_net,
    "metrics": cmd_metrics,
}

#: Commands that parse their own trailing arguments.
ARG_COMMANDS = {"serve-bench", "serve", "serve-net", "metrics"}

#: One-line help per command, rendered by ``--help`` (and asserted
#: in-sync with COMMANDS by tests/test_cli.py).
COMMAND_HELP = {
    "summary": "full design flow + chip datasheet (default)",
    "verify": "parameter and endomorphism self-verification",
    "table1": "CP-optimal loop-kernel schedule",
    "keygen": "demo FourQ keypair",
    "serve-bench": "batch-engine benchmark vs per-request flows",
    "serve": "in-process continuous-batching front door demo",
    "serve-net": "TCP front door: server / client / e2e smoke",
    "metrics": "validate or render a metrics export",
}


def _usage() -> str:
    lines = ["usage: repro [--version] [--help] COMMAND [ARGS...]", "",
             "commands:"]
    for name in COMMANDS:
        lines.append(f"  {name:<12} {COMMAND_HELP[name]}")
    lines.append("")
    lines.append("commands taking ARGS support their own --help "
                 f"({', '.join(sorted(ARG_COMMANDS))})")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else "summary"
    if name in ("--version", "-V"):
        from . import __version__

        print(f"repro {__version__}")
        return 0
    if name in ("--help", "-h", "help"):
        print(_usage())
        return 0
    cmd = COMMANDS.get(name)
    if cmd is None:
        print(f"unknown command {name!r}; choose from "
              f"{', '.join(COMMANDS)}", file=sys.stderr)
        return 2
    if name in ARG_COMMANDS:
        return cmd(argv[1:])
    return cmd()


if __name__ == "__main__":
    raise SystemExit(main())
