"""The server process of ``net_mixed_open``.

Runs ``NetServer -> Frontend -> BatchEngine`` at library defaults on an
ephemeral loopback port.  It speaks to the load generator over its own
stdin/stdout, one line each way: the generator sends ``mark``,
``trace on``, ``trace off`` or ``stop``; the server answers with one
``PERFBENCH {json}`` line.  Every ``CAL_PERIOD_S`` it times the
calibration kernel; ``mark`` hands over the samples taken since the
last ``mark`` and the process's CPU time so far.  The first line it
prints is the ready message with its port, once the engine is warmed
for every kind in the mix and the socket accepts connections.

Run by the benchmark: ``python3 perfbench/netserver.py --trace 0|1``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import random
import resource
import sys
import threading
import time
from pathlib import Path

PREFIX = "PERFBENCH "


def _emit(obj: dict) -> None:
    print(PREFIX + json.dumps(obj), flush=True)


def _warm(engine) -> None:
    """Pay every one-time cost of the mix: SM, DH and MSM verification.

    The warm-up inputs are fixed constants, not drawn from the seed.
    """
    from repro.dsa import fourq_dh, fourq_schnorr

    rng = random.Random(0)
    engine.warm()
    peer = fourq_dh.generate_keypair(rng).public_bytes
    key = fourq_schnorr.generate_keypair(rng)
    sig = fourq_schnorr.sign(key, b"warm")
    engine.run_jobs([("dh", (rng.randrange(1, 2**200), peer)),
                     ("verify_msm", (key.public, b"warm", sig))]).raise_any()


def _snapshot(engine) -> dict:
    from workloads import sim_counters

    return {
        "sim": sim_counters(engine.metrics),
        "cache": engine.cache.stats_snapshot(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


async def _serve(trace: bool) -> None:
    from layers import POINTS
    from spans import SpanRecorder, install

    recorder = SpanRecorder(enabled=trace)
    if trace:
        install(recorder, POINTS)
    from repro.serve import BatchEngine, NetServer, NetServerConfig

    engine = BatchEngine()
    _warm(engine)
    server = NetServer(engine=engine, config=NetServerConfig(port=0))
    await server.start()

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_stdin, daemon=True).start()
    _emit({"ready": True, "port": server.port, "pid": os.getpid()})
    from workloads import CAL_PERIOD_S, calibrate

    cal: list = []

    async def calibrating() -> None:
        # Host speed where the engine runs, to normalise its CPU time.
        while True:
            cal.append(calibrate())
            await asyncio.sleep(CAL_PERIOD_S)

    ticker = asyncio.ensure_future(calibrating())
    try:
        while True:
            cmd = await commands.get()
            if cmd == "mark":
                _emit(dict(_snapshot(engine), cal=cal[:], cpu=time.process_time()))
                cal.clear()
            elif cmd in ("trace on", "trace off"):
                recorder.enabled = trace and cmd == "trace on"
                _emit({"trace": recorder.enabled})
            elif cmd == "stop":
                break
    finally:
        ticker.cancel()
        await server.aclose()
        engine.close()
    final = _snapshot(engine)
    final["spans"] = [dataclasses.asdict(s) for s in recorder.spans]
    _emit(final)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    asyncio.run(_serve(bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
