"""The benchmark's workloads, their seeded inputs and their checks.

* ``net_mixed_open`` -- open loop: Poisson arrivals at a pinned rate
  over two :class:`repro.serve.NetClient` connections into a
  ``NetServer -> Frontend -> BatchEngine`` stack in a second process.
* ``design_flow_cold`` -- closed loop: trace + uncached ``run_flow`` per
  scalar (the compile path every cache miss pays).

Inputs come only from the seed.  Results are checked bit for bit
against the independent math layer after the timed window.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.curve.endomorphisms as endomorphisms
import repro.flow as rflow
import repro.trace as rtrace
from repro.curve import scalarmult
from repro.curve.endomaps import compile_endomorphisms
from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.dsa import fourq_dh, fourq_schnorr
from repro.serve import NetClient
from repro.serve.faults import Failed

from layers import OP_ROOT, REQUEST_ROOT, payload_key
from netserver import PREFIX
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent

#: Seeded base points the workloads cycle through.
N_BASES = 8
#: Offered load of ``net_mixed_open`` (requests/s).  Pinned, not derived
#: from measured capacity, so a faster server shows as lower latency and
#: less CPU time rather than as more load.  It is about 20% of the mixed
#: capacity of a 2-core host at the time it was set: low enough that a
#: host slowed to half speed still seldom queues requests into shared
#: batches, which would make each request cheaper as the host got slower.
RATE_RPS = 6.0
#: Request mix of ``net_mixed_open``, as exact shares of each run.
MIX = (("sm", 2), ("dh", 1), ("verify_msm", 1))
#: A run is invalid when the generator's p90 lateness exceeds this.
LATENESS_LIMIT_MS = 50.0
#: Pings timed at the end of set-up (``serve.net.ping_ms``).
N_PINGS = 20
#: Bound on waiting for the server process at each step (seconds).
SERVER_TIMEOUT_S = 60.0
#: Loop count of the calibration kernel (3.2-3.9 ms on a 2.1 GHz Xeon).
CAL_ITERS = 2000
#: Interval between calibrations in the server process of ``net_mixed_open``.
CAL_PERIOD_S = 0.1
_P127 = (1 << 127) - 1
#: 64Ki 127-bit values (about 3.5 MB) the calibration kernel reads at
#: scattered places, so that it waits on the memory caches as the
#: program does.  Without them the kernel slowed down only half as much
#: as the program when other tenants of the host were busy.
_CAL_TABLE = tuple((i * 2654435761 + 12345) % _P127 for i in range(1 << 16))


def calibrate() -> float:
    """CPU seconds one fixed pure-Python kernel takes on this host, now.

    The kernel does the kind of work the program does (127-bit modular
    big-int arithmetic, reads scattered over a few megabytes, small-dict
    traffic) but imports nothing from it, so no change to the program moves it, while a host that
    slows down or speeds up moves it as much as the program.  The CPU
    time an operation takes divided by the kernel's time is therefore
    steady across the minutes-long speed drift of shared hosts (see
    README.md, "Noise").  It is timed in thread CPU time, so time spent
    waiting for the GIL while another thread runs does not count, nor
    does time the host takes from the virtual CPU.
    """
    t0 = time.thread_time()
    a, b, seen = 3, 5, {}
    mask = len(_CAL_TABLE) - 1
    for i in range(CAL_ITERS):
        a = (a * b + _CAL_TABLE[(a >> 9) & mask]) % _P127
        b = (b * b + a) % _P127
        seen[a & 0x3FF] = (b, i)
    return time.thread_time() - t0


def stolen_s() -> Optional[float]:
    """Seconds the host has taken from this machine's virtual CPUs since
    boot (the ``steal`` column of ``/proc/stat``), or None where the
    kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _bases(rng: random.Random) -> List[AffinePoint]:
    return [random_subgroup_point(rng) for _ in range(N_BASES)]


def design_ops(seed: int) -> Iterator[Tuple[int, AffinePoint]]:
    """Endless (scalar, base) pairs for the cold design flow."""
    rng = random.Random(seed)
    bases = _bases(rng)
    j = 0
    while True:
        yield rng.randrange(1, SUBGROUP_ORDER_N), bases[j % N_BASES]
        j += 1


@dataclass(frozen=True)
class Arrival:
    offset: float  # seconds after the window opens
    kind: str
    payload: tuple


def net_schedule(seed: int, seconds: float) -> List[Arrival]:
    """A Poisson arrival schedule with exact mix shares.

    The arrival count is fixed at ``RATE_RPS * seconds``; given the count,
    the arrival times of a Poisson process are sorted uniform draws, so
    the offered rate does not vary from seed to seed.
    """
    rng = random.Random(seed)
    n = max(len(MIX), round(RATE_RPS * seconds))
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    total = sum(w for _, w in MIX)
    kinds: List[str] = []
    for kind, w in MIX[1:]:
        kinds += [kind] * (n * w // total)
    kinds = [MIX[0][0]] * (n - len(kinds)) + kinds
    rng.shuffle(kinds)
    bases = _bases(rng)
    dh_private = rng.randrange(1, SUBGROUP_ORDER_N)
    out = []
    for i, (offset, kind) in enumerate(zip(offsets, kinds)):
        if kind == "sm":
            payload: tuple = (rng.randrange(1, SUBGROUP_ORDER_N), bases[i % N_BASES])
        elif kind == "dh":
            payload = (dh_private, fourq_dh.generate_keypair(rng).public_bytes)
        else:
            key = fourq_schnorr.generate_keypair(rng)
            message = rng.randbytes(32)
            payload = (key.public, message, fourq_schnorr.sign(key, message))
        out.append(Arrival(offset, kind, payload))
    return out


def reference(kind: str, payload: tuple) -> Any:
    """The math layer's answer, computed without the serving stack."""
    if kind == "sm":
        return scalarmult.scalar_mul_fourq(*payload)
    if kind == "dh":
        private, peer = payload
        return fourq_dh.shared_secret(fourq_dh.DHKeyPair(private, b""), peer)
    if kind == "verify_msm":
        return fourq_schnorr.verify(*payload)
    raise ValueError(f"no reference for {kind!r}")


def sim_counters(registry) -> Dict[str, float]:
    """Datapath totals the flow records from ``SimulationResult.profile``."""
    issues = "repro_datapath_unit_issues_total"
    return {
        "runs": registry.value("repro_datapath_runs_total"),
        "cycles": registry.value("repro_datapath_cycles_total"),
        "mult": registry.value(issues, unit="mult"),
        "addsub": registry.value(issues, unit="addsub"),
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def kernel_rom_words() -> int:
    """ROM words of the Table I loop kernel on the CP scheduler."""
    return rflow.run_flow(rtrace.trace_loop_iteration(), scheduler="cp").microprogram.cycles


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """One timed window: wall bounds, per-op latencies and outcomes."""

    start: float
    end: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: CPU time per operation of the process running the program, in
    #: runs of the calibration kernel (README.md, "End-to-end metrics").
    cpu_per_op_cal: float = 0.0
    #: Calibration times (seconds) taken during the window.
    cal: List[float] = field(default_factory=list)
    #: Seconds the host took from the virtual CPUs during the window.
    stolen: Optional[float] = None
    ok: int = 0
    failed: int = 0
    lateness: List[float] = field(default_factory=list)
    sim: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def _stolen_since(before: Optional[float]) -> Optional[float]:
    after = stolen_s()
    return None if before is None or after is None else after - before


class DesignFlowCold:
    name = "design_flow_cold"

    def __init__(self, seed: int, recorder: SpanRecorder):
        self.recorder = recorder
        self.ops = design_ops(seed)
        self.done: List[Tuple[int, AffinePoint, AffinePoint]] = []

    def setup(self) -> None:
        self.decomposer = endomorphisms.default_decomposer()
        self.compiled = compile_endomorphisms()
        self._op(3, AffinePoint.generator())

    def _op(self, k: int, point: AffinePoint):
        prog = rtrace.trace_scalar_mult(
            k=k, point=point, decomposer=self.decomposer, compiled=self.compiled,
            self_check=False,
        )
        return rflow.run_flow(prog)

    def window(self, seconds: float) -> Window:
        sim = {"runs": 0, "cycles": 0, "mult": 0, "addsub": 0}
        stolen0 = stolen_s()
        w = Window(start=time.perf_counter())
        cpu_ratios = []
        while True:
            k, p = next(self.ops)
            w.cal.append(calibrate())
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                flow = self.recorder.call(OP_ROOT, self._op, (k, p), {})
            except Exception:  # a flow that fails validation is a failed op
                w.failed += 1
            else:
                w.ok += 1
                out = flow.simulation.outputs
                self.done.append((k, p, AffinePoint(out["result_x"], out["result_y"], check=False)))
                prof = flow.simulation.profile
                sim["runs"] += 1
                sim["cycles"] += flow.cycles
                sim["mult"] += prof.mult_issues
                sim["addsub"] += prof.addsub_issues
            w.end = time.perf_counter()
            cpu_ratios.append((time.process_time() - cpu0) / w.cal[-1])
            w.latencies.append(w.end - t0)
            if w.end - w.start >= seconds:
                break
        # Each operation against the calibration just before it, so drift
        # within the window cancels too.
        w.cpu_per_op_cal = statistics.median(cpu_ratios)
        w.stolen = _stolen_since(stolen0)
        w.sim = sim
        return w

    def finish(self) -> Dict[str, Any]:
        return {"rss_mb": peak_rss_mb(), "spans": [], "pid": os.getpid()}

    def close(self) -> None:
        pass

    def check(self) -> int:
        return sum(got != reference("sm", (k, p)) for k, p, got in self.done)


@dataclass
class Sample:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    outcome: Any

    @property
    def latency(self) -> float:
        """Measured from the due time, so generator stalls count."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


async def open_loop(
    arrivals: Sequence[Arrival],
    t_base: float,
    submit: Callable[[int, Arrival], Awaitable[Any]],
) -> List[Sample]:
    """Send each arrival at ``t_base + offset`` whether or not earlier
    requests have completed; return one sample per arrival."""

    async def one(i: int, a: Arrival, due: float) -> Sample:
        sent = time.perf_counter()
        outcome = await submit(i, a)
        return Sample(due, sent, time.perf_counter(), outcome)

    tasks = []
    for i, a in enumerate(arrivals):
        due = t_base + a.offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, a, due)))
    return list(await asyncio.gather(*tasks))


class ServerProcess:
    """The ``NetServer`` process, driven over its stdin/stdout."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "netserver.py"), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self._inbox: "queue.Queue[Optional[dict]]" = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(PREFIX):
                self._inbox.put(json.loads(line[len(PREFIX):]))
        self._inbox.put(None)

    def recv(self) -> dict:
        msg = self._inbox.get(timeout=SERVER_TIMEOUT_S)
        if msg is None:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return msg

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.recv()

    def stop(self) -> dict:
        final = self.command("stop")
        self.proc.wait(timeout=SERVER_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._pump.join(timeout=SERVER_TIMEOUT_S)


class NetMixedOpen:
    name = "net_mixed_open"

    def __init__(self, seed: int, recorder: SpanRecorder):
        self.seed = seed
        self.recorder = recorder
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ServerProcess] = None
        self.clients: List[NetClient] = []
        # One schedule per window, so no window replays another's inputs.
        self.windows_run = 0
        self.done: List[Tuple[Arrival, Sample]] = []

    def setup(self) -> None:
        self.traced = self.recorder.enabled
        self.server = ServerProcess(trace=self.traced)
        ready = self.server.recv()
        self.server_pid = ready["pid"]
        for _ in range(2):
            self.clients.append(self.loop.run_until_complete(
                NetClient.connect("127.0.0.1", ready["port"])
            ))
        for _ in range(N_PINGS):
            self.loop.run_until_complete(self.clients[0].ping())

    def window(self, seconds: float) -> Window:
        arrivals = net_schedule(self.seed + 7919 * self.windows_run, seconds)
        self.windows_run += 1
        if self.traced:
            self.server.command("trace " + ("on" if self.recorder.enabled else "off"))
        mark0 = self.server.command("mark")
        stolen0 = stolen_s()
        t_base = time.perf_counter() + 0.05

        def submit(i: int, a: Arrival):
            return self.clients[i % len(self.clients)].submit_outcome(a.kind, a.payload)

        samples = self.loop.run_until_complete(asyncio.wait_for(
            open_loop(arrivals, t_base, submit), timeout=seconds + SERVER_TIMEOUT_S
        ))
        mark1 = self.server.command("mark")
        cal = mark1["cal"]
        # Requests share batches and the event loop, so their CPU time is
        # taken together: the server's, less its calibrations.
        cpu = mark1["cpu"] - mark0["cpu"] - sum(cal)
        w = Window(start=t_base, end=max(s.done for s in samples), cal=cal,
                   cpu_per_op_cal=cpu / len(samples) / statistics.median(cal),
                   stolen=_stolen_since(stolen0))
        for a, s in zip(arrivals, samples):
            w.latencies.append(s.latency)
            w.lateness.append(s.lateness)
            if isinstance(s.outcome, Failed):
                w.failed += 1
            else:
                w.ok += 1
            if self.recorder.enabled:
                self.recorder.add(REQUEST_ROOT, s.due, s.done, key=payload_key(a.kind, a.payload))
            self.done.append((a, s))
        w.sim = _delta(mark1["sim"], mark0["sim"])
        w.cache = _delta(mark1["cache"], mark0["cache"])
        return w

    def finish(self) -> Dict[str, Any]:
        try:
            for c in self.clients:
                self.loop.run_until_complete(c.aclose())
            final = self.server.stop()
        finally:
            self.close()
        final["pid"] = self.server_pid
        return final

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
        if not self.loop.is_closed():
            self.loop.close()

    def check(self) -> int:
        mismatches = 0
        for a, s in self.done:
            if not isinstance(s.outcome, Failed) and s.outcome.value != reference(a.kind, a.payload):
                mismatches += 1
        return mismatches


WORKLOADS = {w.name: w for w in (NetMixedOpen, DesignFlowCold)}
