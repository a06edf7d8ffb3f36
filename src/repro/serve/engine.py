"""Batch scalar-multiplication engine: many scalars, one compiled flow.

The paper's chip amortizes its design effort across every operation it
will ever run — the microprogram is compiled once, then scalars stream
through the datapath.  The serving layer reproduces that economics in
software.  A :class:`BatchEngine` owns

* the one-time curve artifacts (derived endomorphisms, compiled
  inversion-free maps, lattice decomposer) that dominate cold-start
  cost,
* a :class:`~repro.serve.cache.FlowArtifactCache` so the job-shop solve
  and register allocation are paid once per workload shape,
* one :class:`~repro.rtl.datapath.DatapathSimulator` reused across
  requests,

and exposes batch entry points — :meth:`batch_scalarmult`,
:meth:`batch_dh`, :meth:`batch_verify` — with optional
``multiprocessing`` fan-out (balanced chunks, order-preserving, with a
serial fallback) and per-batch :class:`~repro.serve.stats.BatchStats`.

Fault isolation is a first-class layer: a rejected request (small-order
peer key, malformed encoding, bad signature material) costs exactly one
:class:`~repro.serve.faults.Failed` slot in the result, never the batch.
``strict=True`` restores raise-on-first-error.

Worker fan-out runs on a *supervised resident pool*
(:class:`~repro.serve.resilience.PoolSupervisor`): one
``ProcessPoolExecutor`` kept alive across batches — so resident workers
keep their flow-artifact caches warm — health-probed and restarted on
breakage, with a token bucket preventing restart storms.  A chunk whose
worker dies or exceeds its time budget is retried on the pool with
jittered exponential backoff (:class:`~repro.serve.resilience.RetryPolicy`),
bounded by attempts *and* the batch deadline; chunks that exhaust their
attempts are recovered serially in the parent (order still preserved),
so one crashed worker cannot discard results that were already computed.
A :class:`~repro.serve.resilience.CircuitBreaker` trips after repeated
pool-level failures and degrades the engine to serial in-process
execution (or fail-fast ``circuit_open`` failures) until a half-open
probe proves the pool healthy again.  A ``deadline`` budget on any batch
entry point bounds queue-to-result time: items the budget cannot cover
resolve as typed ``Failed(KIND_DEADLINE)`` instead of running late.

Every simulated result is still verified bit-for-bit: the golden check
proves each writeback against the freshly traced reference, and the
engine re-derives the final point from the simulator's output
registers.  Batching changes cost, never results.
"""

from __future__ import annotations

import os
import pickle
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..curve.decompose import FourQDecomposer
from ..curve.encoding import encode_point, decode_point
from ..curve.endomaps import CompiledEndo, compile_endomorphisms
from ..curve.endomorphisms import default_decomposer
from ..curve.multiscalar import (
    batch_verify_schnorr,
    multi_scalar_mul,
    pippenger_cost_model,
    validate_verify_item,
)
from ..curve.params import SUBGROUP_ORDER_N
from ..curve.point import AffinePoint
from ..dsa.fourq_dh import SmallOrderPoint
from ..dsa.fourq_schnorr import SchnorrSignature, _challenge
from ..flow import FLOW_STAGE_SECONDS, FlowResult, run_flow
from ..hashes.sha256 import sha256
from ..obs import MetricsRegistry, get_registry
from ..rtl.datapath import DatapathSimulator
from ..sched.jobshop import MachineSpec
from ..trace.program import (
    trace_double_scalar_mult,
    trace_msm_window,
    trace_scalar_mult,
)
from .cache import FlowArtifactCache
from .faults import (
    KIND_CIRCUIT_OPEN,
    KIND_DEADLINE,
    KIND_INTERNAL,
    DeadlineExceeded,
    Failed,
    Ok,
    classify_exception,
)
from .resilience import (
    CircuitBreaker,
    Deadline,
    PoolSupervisor,
    RetryPolicy,
    TokenBucket,
)
from .stats import BatchStats

#: Circuit-breaker degradation modes: ``serial`` keeps serving in-process
#: (correct but slower), ``fail_fast`` rejects with ``circuit_open``.
_CIRCUIT_MODES = ("serial", "fail_fast")

#: Sentinel for "no result landed in this slot yet" (None/False are
#: legitimate job results, so identity — not truthiness — marks holes).
_UNSET = object()

#: batch_verify evaluation modes: ``simulate`` runs each item's
#: double-base workload on the simulated datapath; ``msm`` resolves the
#: whole batch with one randomized multi-scalar multiplication and
#: falls back to bisection + per-item simulation on rejection.
_VERIFY_MODES = ("simulate", "msm")

#: Fixed shape of the traced Pippenger window kernel (the micro-op DAG
#: must be identical across calls so the flow-artifact cache holds).
_MSM_KERNEL_POINTS = 8
_MSM_KERNEL_WINDOW = 4


@dataclass
class BatchResult:
    """Per-item outcomes (input order preserved) plus batch statistics.

    ``results`` holds the raw success value in each successful slot —
    callers that index or iterate see plain points/digests/booleans,
    exactly as before fault isolation existed — and the typed
    :class:`~repro.serve.faults.Failed` envelope in the slot of each
    isolated failure.  Use :attr:`errors` / :attr:`ok_count` to inspect
    the failure picture, :meth:`raise_any` / :meth:`unwrap` to opt back
    into exception semantics, and :attr:`outcomes` for a uniform
    ``Ok``/``Failed`` view.
    """

    results: List[Any]
    stats: BatchStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        return self.results[i]

    @property
    def errors(self) -> List[Failed]:
        """The failed envelopes, in input order (``.index`` is the slot)."""
        return [r for r in self.results if isinstance(r, Failed)]

    @property
    def ok_count(self) -> int:
        """Items that completed successfully."""
        return len(self.results) - len(self.errors)

    @property
    def outcomes(self) -> List[Any]:
        """Uniform per-item view: ``Ok(value, index)`` or ``Failed``."""
        return [
            r if isinstance(r, Failed) else Ok(value=r, index=i)
            for i, r in enumerate(self.results)
        ]

    def raise_any(self) -> None:
        """Raise the first (lowest-index) failure as its exception class."""
        errors = self.errors
        if errors:
            raise errors[0].to_exception()

    def unwrap(self) -> List[Any]:
        """All raw values; raises the first failure if any item failed."""
        self.raise_any()
        return list(self.results)


class BatchEngine:
    """Streams batches of scalar multiplications through one cached flow.

    Args:
        machine: datapath timing model shared by every request.
        scheduler: ``"auto"`` / ``"list"`` / ``"cp"`` (forwarded to the
            flow; full scalar multiplications resolve to list
            scheduling).
        cache_entries: LRU bound of the flow-artifact cache (each
            workload shape — single-base SM, double-base SM, per
            recoding length — occupies one entry).
        check_golden: keep the per-writeback golden check on (the
            bit-exact proof; disabling trades verification for speed).
        chunk_timeout: optional per-chunk time budget (seconds) in
            worker fan-out mode; a chunk that exceeds it is requeued,
            the pool is restarted (a hung worker cannot be cancelled),
            and the chunk is retried or recovered serially
            (``None`` = wait forever).
        metrics: registry the engine (and the flows it runs) records
            into — per-item outcome counters, latency histograms, cache
            event counters, chunk-recovery counters.  Defaults to the
            process-wide :func:`repro.obs.get_registry`; worker
            processes record into their own registry and ship a
            snapshot home, merged here like ``BatchStats`` partials.
        retry_policy: jittered-exponential-backoff budget for transient
            chunk faults in fan-out mode (see
            :class:`~repro.serve.resilience.RetryPolicy`;
            ``max_attempts=1`` reproduces the historical one-shot
            requeue).
        breaker: circuit breaker guarding the pool; trips to serial
            degradation (or fail-fast, see ``circuit_mode``) after
            consecutive pool-level failures.
        restart_limiter: token bucket gating pool restarts so a
            crash-looping worker cannot fork-bomb the host.
        resident_pool: keep the worker pool alive across batch calls
            (the default — resident workers retain warm artifact
            caches); ``False`` restores build-per-batch, for
            comparison benchmarks.
        circuit_mode: what an open breaker does to fan-out batches —
            ``"serial"`` runs them in-process, ``"fail_fast"`` fails
            every item with ``KIND_CIRCUIT_OPEN``.
        retry_rng: RNG drawn for backoff jitter; seed it for a
            reproducible retry schedule (tests do).
    """

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        scheduler: str = "auto",
        cache_entries: int = 16,
        check_golden: bool = True,
        chunk_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        restart_limiter: Optional[TokenBucket] = None,
        resident_pool: bool = True,
        circuit_mode: str = "serial",
        retry_rng: Optional[random.Random] = None,
    ):
        if circuit_mode not in _CIRCUIT_MODES:
            raise ValueError(f"circuit_mode must be one of {_CIRCUIT_MODES}")
        self.machine = machine or MachineSpec()
        self.scheduler = scheduler
        self.check_golden = check_golden
        self.chunk_timeout = chunk_timeout
        self.metrics = metrics if metrics is not None else get_registry()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(metrics=self.metrics)
        )
        self.resident_pool = resident_pool
        self.circuit_mode = circuit_mode
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self._restart_limiter = (
            restart_limiter
            if restart_limiter is not None
            else TokenBucket(capacity=8, refill_seconds=1.0)
        )
        self._supervisor: Optional[PoolSupervisor] = None
        self.cache = FlowArtifactCache(max_entries=cache_entries)
        self.simulator = DatapathSimulator(
            mult_depth=self.machine.mult_latency,
            addsub_depth=self.machine.addsub_latency,
        )
        self._decomposer: Optional[FourQDecomposer] = None
        self._compiled: Optional[Tuple[CompiledEndo, CompiledEndo]] = None
        # (cycles, arithmetic µops) of the traced MSM window kernel —
        # memoized so batch verification prices its cycle model without
        # re-tracing per batch.
        self._msm_kernel_stats: Optional[Tuple[int, int]] = None
        # Last seen shape key per workload kind: hands run_flow a
        # precomputed key so same-shape requests skip re-hashing the
        # trace.  A stale key (shape drift) is harmless — run_flow
        # detects the mismatch, recomputes the true key, and we re-memo.
        self._shape_keys: Dict[str, str] = {}

    # -- one-time curve artifacts -------------------------------------
    @property
    def decomposer(self) -> FourQDecomposer:
        if self._decomposer is None:
            self._decomposer = default_decomposer()
        return self._decomposer

    @property
    def compiled_endos(self) -> Tuple[CompiledEndo, CompiledEndo]:
        if self._compiled is None:
            self._compiled = compile_endomorphisms()
        return self._compiled

    def warm(self, point: Optional[AffinePoint] = None) -> None:
        """Pay every one-time cost now: curve artifacts + one full flow.

        After ``warm()``, single-base requests hit the artifact cache.
        """
        self.scalarmult(3, point or AffinePoint.generator())

    # -- single-request paths ------------------------------------------
    def _traced_flow(self, shape: str, trace, **trace_args) -> FlowResult:
        """Time ``trace(**trace_args)``, then run its cached flow.

        ``shape`` names the workload kind whose last cache key is
        memoized in ``_shape_keys``.
        """
        t0 = time.perf_counter()
        prog = trace(**trace_args)
        self.metrics.histogram(FLOW_STAGE_SECONDS, stage="trace").observe(
            time.perf_counter() - t0
        )
        flow = run_flow(
            prog,
            machine=self.machine,
            scheduler=self.scheduler,
            check_golden=self.check_golden,
            cache=self.cache,
            simulator=self.simulator,
            cache_key=self._shape_keys.get(shape),
            metrics=self.metrics,
        )
        if flow.cache_key is not None:
            self._shape_keys[shape] = flow.cache_key
        return flow

    def scalarmult_flow(self, k: int, point: Optional[AffinePoint] = None) -> FlowResult:
        """Full verified flow for one [k]P (cache-aware)."""
        # self_check=False skips the slow affine (k mod N)*P reference
        # inside the tracer; the simulated result is still verified
        # writeback-by-writeback against the traced values.
        return self._traced_flow(
            "scalarmult",
            trace_scalar_mult,
            k=k,
            point=point,
            decomposer=self.decomposer,
            compiled=self.compiled_endos,
            self_check=False,
        )

    def scalarmult(self, k: int, point: Optional[AffinePoint] = None) -> AffinePoint:
        """[k]P computed on the simulated datapath (bit-verified)."""
        point = point or AffinePoint.generator()
        if point.is_identity() or k % SUBGROUP_ORDER_N == 0:
            # Degenerate inputs never reach the endomorphism formulas —
            # same contract as scalar_mul_fourq.
            return (
                AffinePoint.identity()
                if point.is_identity()
                else (k % SUBGROUP_ORDER_N) * point
            )
        flow = self.scalarmult_flow(k, point)
        return self._point_from_outputs(flow)

    def double_scalarmult_flow(
        self, u1: int, u2: int, p1: AffinePoint, p2: AffinePoint
    ) -> FlowResult:
        """Full verified flow for [u1]P1 + [u2]P2 (cache-aware)."""
        return self._traced_flow(
            "double_scalarmult",
            trace_double_scalar_mult,
            u1=u1,
            u2=u2,
            p1=p1,
            p2=p2,
            decomposer=self.decomposer,
            compiled=self.compiled_endos,
            self_check=False,
        )

    def msm_kernel_flow(self) -> FlowResult:
        """Trace + simulate one Pippenger bucket window (cache-aware).

        The serving MSM itself runs on the raw field arithmetic — its
        bucket-hit pattern is data-dependent, so per-request traces
        would never share a shape.  Instead this fixed-shape window
        kernel (:func:`repro.trace.program.trace_msm_window`) goes
        through the full trace → job-shop → microcode → simulate flow
        once, and :meth:`msm_cycles_estimate` extrapolates whole-MSM
        cycle counts from its measured cycles-per-µop density.
        """
        flow = self._traced_flow(
            "msm_window",
            trace_msm_window,
            n_points=_MSM_KERNEL_POINTS,
            window=_MSM_KERNEL_WINDOW,
        )
        self._msm_kernel_stats = (flow.cycles, flow.trace_program.arithmetic_size)
        return flow

    def msm_cycles_estimate(
        self, n_points: int, window: Optional[int] = None
    ) -> int:
        """Simulated-cycle estimate for an ``n_points`` bucket MSM.

        Extrapolation model: the traced window kernel's simulated
        cycles-per-µop density (how tightly the scheduler packs the
        double/bucket/aggregate mix onto the datapath) times the full
        algorithm's µop count from
        :func:`repro.curve.multiscalar.pippenger_cost_model`.  A model,
        not a measurement — the honest label for a workload whose trace
        shape is data-dependent.
        """
        if n_points <= 0:
            return 0
        if self._msm_kernel_stats is None:
            self.msm_kernel_flow()
        kernel_cycles, kernel_ops = self._msm_kernel_stats
        mults, addsubs = pippenger_cost_model(n_points, window)
        return int(round(kernel_cycles * (mults + addsubs) / kernel_ops))

    @staticmethod
    def _point_from_outputs(flow: FlowResult) -> AffinePoint:
        out = flow.simulation.outputs
        return AffinePoint(out["result_x"], out["result_y"], check=False)

    # -- batch entry points --------------------------------------------
    def batch_scalarmult(
        self,
        scalars: Sequence[int],
        point: Optional[AffinePoint] = None,
        points: Optional[Sequence[AffinePoint]] = None,
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Compute [k_i]P (shared ``point``) or [k_i]P_i (``points``).

        Args:
            scalars: the batch of scalars.
            point: one base shared by the whole batch (default: the
                generator).  Mutually exclusive with ``points``.
            points: per-scalar base points (same length as ``scalars``).
            workers: >1 fans chunks out across that many processes;
                0/1 runs serially in-process (the default, and the
                fallback when the platform lacks ``fork``/``spawn``).
            dedup: compute repeated (k mod N, P) requests once.
            strict: raise on the first failed item instead of returning
                its :class:`~repro.serve.faults.Failed` envelope.
            min_chunk: chunking hint — never give a worker fewer than
                this many jobs (see :meth:`plan_workers`); small flushes
                degrade to fewer workers or the serial path instead of
                paying pool fan-out.
            deadline: optional time budget — seconds (relative) or a
                :class:`~repro.serve.resilience.Deadline`.  Work the
                budget cannot cover resolves as typed
                ``Failed(KIND_DEADLINE)`` envelopes; retries and chunk
                waits never outlive it.
        """
        if points is not None and point is not None:
            raise ValueError("pass either point or points, not both")
        if points is not None and len(points) != len(scalars):
            raise ValueError("points must align with scalars")
        base = point or AffinePoint.generator()
        pts = list(points) if points is not None else [base] * len(scalars)
        jobs = [("sm", (k, p)) for k, p in zip(scalars, pts)]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_dh(
        self,
        private: int,
        peer_publics: Sequence[bytes],
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Co-factored ECDH against many peers with one private key.

        Per peer: decode, clear the cofactor, reject small-order points
        (:class:`~repro.dsa.fourq_dh.SmallOrderPoint`), run [d]P on the
        simulated datapath, hash the encoding — byte-identical to
        :func:`repro.dsa.fourq_dh.shared_secret`.  A rejected peer costs
        one :class:`~repro.serve.faults.Failed` slot (``small_order`` or
        ``decoding``), never the batch; ``strict=True`` raises instead.
        """
        jobs = [("dh", (private, pub)) for pub in peer_publics]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_msm(
        self,
        requests: Sequence[Tuple[Sequence[int], Sequence[AffinePoint]]],
        workers: int = 0,
        dedup: bool = False,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Evaluate many multi-scalar multiplications sum_i [k_i] P_i.

        Each request is a ``(scalars, points)`` pair; the engine picks
        Straus-Shamir or the Pippenger bucket method per request by
        batch size (:func:`repro.curve.multiscalar.multi_scalar_mul`
        with ``method="auto"``).  A malformed request (length mismatch,
        off-curve point surfacing as a field error) costs one typed
        :class:`~repro.serve.faults.Failed` slot, never the batch.
        Each slot's contribution to ``stats.simulated_cycles`` is the
        window-kernel extrapolation of :meth:`msm_cycles_estimate`.
        """
        jobs = [
            ("msm", (tuple(scalars), tuple(points)))
            for scalars, points in requests
        ]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_verify(
        self,
        items: Sequence[Tuple[AffinePoint, bytes, SchnorrSignature]],
        workers: int = 0,
        dedup: bool = False,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
        mode: str = "simulate",
    ) -> BatchResult:
        """Verify many Schnorr (public, message, signature) triples.

        ``mode="simulate"`` (the default) runs each item's double-base
        workload [s]G + [N-e]Q on the simulated datapath and compares
        against the commitment — the same decision
        :func:`repro.dsa.fourq_schnorr.verify` makes.  An
        invalid-but-well-formed signature verifies ``False``; an item
        whose material cannot even be processed (wrong types, off-range
        coordinates raising deep in the stack) becomes a typed
        :class:`~repro.serve.faults.Failed` envelope.

        ``mode="msm"`` resolves the whole batch with one randomized
        multi-scalar multiplication
        (:func:`repro.curve.multiscalar.batch_verify_schnorr`): items
        are individually vetted (on-curve, order-N subgroup, s in
        range — rejects resolve ``Ok(False)`` immediately), the
        survivors are batch-checked at roughly the cost of one large
        MSM, and a rejected batch bisects so each forged item ends at
        an authoritative per-item simulated verification while every
        honest item still resolves ``Ok(True)``.  Same per-item
        outcomes as ``"simulate"``, amortized cost.
        """
        if mode not in _VERIFY_MODES:
            raise ValueError(f"mode must be one of {_VERIFY_MODES}")
        kind = "verify_msm" if mode == "msm" else "verify"
        jobs = [(kind, item) for item in items]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def run_jobs(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Run a pre-formed mixed-kind job list (the front-door entry).

        Each job is ``(kind, payload)`` with the same kinds the batch
        entry points build — ``"sm"`` ``(k, point)``, ``"dh"``
        ``(private, peer_public_bytes)``, ``"verify"``
        ``(public, message, signature)`` — so a coalescer that already
        holds typed requests (e.g. :class:`repro.serve.frontend.Frontend`)
        can dispatch one flush without re-entering a per-kind wrapper.
        Semantics are identical to the wrappers: input order preserved,
        per-item fault isolation, ``min_chunk``-aware fan-out,
        ``deadline``-bounded execution (seconds or a
        :class:`~repro.serve.resilience.Deadline`).
        """
        return self._run_batch(
            list(jobs), workers=workers, dedup=dedup, strict=strict,
            min_chunk=min_chunk, deadline=deadline,
        )

    @staticmethod
    def plan_workers(n_jobs: int, workers: int, min_chunk: Optional[int]) -> int:
        """Effective worker count for a flush of ``n_jobs`` items.

        The pre-computed chunking hint: with ``min_chunk`` set, no
        worker is ever handed fewer than that many jobs, so a small
        flush (the continuous-batching front door's common case under
        light load) degrades gracefully — first to fewer workers, then
        to the serial in-process path — instead of paying process-pool
        fan-out for a near-empty chunk.  ``min_chunk=None`` preserves
        the historical behaviour (any multi-item batch may fan out).
        """
        if workers <= 1 or n_jobs <= 1:
            return 0
        if min_chunk is None or min_chunk <= 1:
            return workers
        return min(workers, n_jobs // min_chunk)

    # -- execution -----------------------------------------------------
    def _execute(self, kind: str, payload) -> Tuple[Any, int, bool]:
        """Run one job; returns (result, simulated_cycles, used_fallback)."""
        if kind == "sm":
            k, p = payload
            if p.is_identity() or k % SUBGROUP_ORDER_N == 0:
                return (k % SUBGROUP_ORDER_N) * p, 0, False
            flow = self.scalarmult_flow(k, p)
            return self._point_from_outputs(flow), flow.cycles, flow.fallback
        if kind == "dh":
            private, peer_public = payload
            peer = decode_point(peer_public)
            cleared = peer.clear_cofactor()
            if cleared.is_identity():
                raise SmallOrderPoint("peer public key has small order")
            if private % SUBGROUP_ORDER_N == 0:
                raise SmallOrderPoint("degenerate shared point")
            flow = self.scalarmult_flow(private, cleared)
            shared = self._point_from_outputs(flow)
            if shared.is_identity():
                raise SmallOrderPoint("degenerate shared point")
            return sha256(encode_point(shared)), flow.cycles, flow.fallback
        if kind == "verify":
            public, message, sig = payload
            try:
                commit = AffinePoint(sig.commit_x, sig.commit_y)
            except ValueError:
                return False, 0, False
            if not (1 <= sig.s < SUBGROUP_ORDER_N):
                return False, 0, False
            e = _challenge(commit, public, message)
            u2 = SUBGROUP_ORDER_N - e
            if public.is_identity() or u2 % SUBGROUP_ORDER_N == 0:
                # Degenerate double-base shapes collapse to single-base.
                lhs = self.scalarmult(sig.s, AffinePoint.generator())
                return lhs == commit, 0, False
            flow = self.double_scalarmult_flow(
                sig.s, u2, AffinePoint.generator(), public
            )
            return self._point_from_outputs(flow) == commit, flow.cycles, flow.fallback
        if kind == "msm":
            scalars, points = payload
            result = multi_scalar_mul(scalars, points)
            live = sum(
                1
                for k, p in zip(scalars, points)
                if not p.is_identity() and k % SUBGROUP_ORDER_N
            )
            return result, self.msm_cycles_estimate(live), False
        if kind == "fault":
            # Fault-injection hook (tests, chaos benchmarks).  The
            # payload fires only inside pool workers; in the parent it
            # degrades to a marker value, so a requeued chunk is
            # recoverable by the parent's serial re-run.
            mode = payload[0]
            if _IN_WORKER:
                if mode == "exit":
                    os._exit(17)
                if mode == "sleep":
                    time.sleep(payload[1])
            return ("fault", mode), 0, False
        raise ValueError(f"unknown job kind {kind!r}")

    @staticmethod
    def _job_key(kind: str, payload) -> Optional[tuple]:
        """Canonical dedup key, or None when the job must run as-is."""
        if kind == "sm":
            k, p = payload
            return (kind, k % SUBGROUP_ORDER_N, p.x, p.y)
        if kind == "dh":
            private, pub = payload
            return (kind, private % SUBGROUP_ORDER_N, bytes(pub))
        return None

    def _run_serial(
        self,
        jobs: Sequence[Tuple[str, Any]],
        dedup: bool,
        strict: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[Any], BatchStats]:
        """Run jobs in-process with per-item fault isolation.

        Each job either produces its value or (``strict=False``) its
        typed :class:`~repro.serve.faults.Failed` envelope; with
        ``strict=True`` the first failure propagates as the original
        exception, aborting the remainder — the historical behaviour.
        With a ``deadline``, items the expired budget cannot cover fail
        with ``KIND_DEADLINE`` instead of running late (an item already
        underway when the budget runs out still completes — the budget
        gates starts, it does not abort simulations).
        """
        stats = BatchStats()
        seen: Dict[tuple, Any] = {}
        results: List[Any] = []
        m = self.metrics
        cache0 = self.cache.stats_snapshot()
        for kind, payload in jobs:
            if deadline is not None and deadline.expired:
                if strict:
                    raise DeadlineExceeded(
                        f"batch deadline expired with {len(jobs) - len(results)} "
                        "item(s) unstarted"
                    )
                failure = Failed(
                    kind=KIND_DEADLINE,
                    message="deadline expired before this item could start",
                )
                m.counter("repro_serve_items_total", kind=kind, outcome="error").inc()
                m.counter("repro_serve_errors_total", kind=KIND_DEADLINE).inc()
                m.counter("repro_deadline_expired_total", stage="engine").inc()
                results.append(failure)
                continue
            key = self._job_key(kind, payload) if dedup else None
            if key is not None and key in seen:
                results.append(seen[key])
                m.counter("repro_serve_items_total", kind=kind, outcome="dedup").inc()
                continue
            t0 = time.perf_counter()
            try:
                result, cycles, used_fallback = self._execute(kind, payload)
            except Exception as exc:
                if strict:
                    raise
                elapsed = time.perf_counter() - t0
                failure = Failed(
                    kind=classify_exception(exc),
                    message=str(exc),
                    latency=elapsed,
                )
                m.counter("repro_serve_items_total", kind=kind, outcome="error").inc()
                m.counter("repro_serve_errors_total", kind=failure.kind).inc()
                # Failures are never deduped: every bad input re-executes
                # so errors_by_kind matches the injected faults exactly.
                results.append(failure)
                continue
            elapsed = time.perf_counter() - t0
            stats.latencies.append(elapsed)
            stats.simulated_cycles += cycles
            stats.fallbacks += int(used_fallback)
            m.counter("repro_serve_items_total", kind=kind, outcome="ok").inc()
            m.histogram("repro_serve_latency_seconds", kind=kind).observe(elapsed)
            if key is not None:
                seen[key] = result
            results.append(result)
        cache1 = self.cache.stats_snapshot()
        stats.cache_hits = cache1["hits"] - cache0["hits"]
        stats.cache_misses = cache1["misses"] - cache0["misses"]
        # demote_hit decrements hits, so a window delta can only dip below
        # zero transiently; clamp so the monotone counters never regress.
        for field_name, event in (
            ("hits", "hit"),
            ("misses", "miss"),
            ("evictions", "eviction"),
            ("fallbacks", "fallback"),
        ):
            delta = max(0, cache1[field_name] - cache0[field_name])
            if delta:
                m.counter("repro_cache_events_total", event=event).inc(delta)
        return results, stats

    def _run_batch(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int,
        dedup: bool,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        t0 = time.perf_counter()
        deadline = Deadline.coerce(deadline)
        msm_slots = [i for i, (kind, _) in enumerate(jobs) if kind == "verify_msm"]
        if msm_slots:
            results, stats = self._run_with_msm(
                jobs, msm_slots, workers, dedup, min_chunk, deadline
            )
        else:
            results, stats = self._dispatch(
                jobs, workers, dedup, strict, min_chunk, deadline
            )
        if not self.resident_pool and self._supervisor is not None:
            self._supervisor.shutdown()
        stats.wall_seconds = time.perf_counter() - t0
        results = [
            replace(r, index=i) if isinstance(r, Failed) else r
            for i, r in enumerate(results)
        ]
        stats.count_outcomes(results)
        batch = BatchResult(results=results, stats=stats)
        if strict:
            # Parallel workers always run isolated (an exception must
            # not kill the pool); strict surfaces the first failure here.
            batch.raise_any()
        return batch

    def _dispatch(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int,
        dedup: bool,
        strict: bool,
        min_chunk: Optional[int],
        deadline: Optional[Deadline],
    ) -> Tuple[List[Any], BatchStats]:
        """Serial, fan-out or breaker-degraded execution of one batch."""
        workers = self.plan_workers(len(jobs), workers or 0, min_chunk)
        if workers > 1 and not self.breaker.allow():
            # Breaker open: the pool keeps failing, stop paying for it.
            self.metrics.counter("repro_breaker_short_circuits_total").inc()
            if self.circuit_mode == "fail_fast":
                return self._fail_fast_circuit(jobs)
        elif workers > 1:
            try:
                return self._run_parallel(jobs, workers, dedup, deadline=deadline)
            except (ImportError, OSError, pickle.PicklingError):
                # Pools unavailable (restricted platform) or the jobs
                # cannot cross a process boundary: serial fallback.
                self.breaker.record_failure()
        return self._run_serial(jobs, dedup, strict=strict, deadline=deadline)

    def _run_with_msm(
        self,
        jobs: Sequence[Tuple[str, Any]],
        msm_slots: Sequence[int],
        workers: int,
        dedup: bool,
        min_chunk: Optional[int],
        deadline: Optional[Deadline],
    ) -> Tuple[List[Any], BatchStats]:
        """Split a flush: ``verify_msm`` items resolve as one group.

        The whole point of MSM-mode verification is cross-item
        amortization, so the ``verify_msm`` members of a mixed flush
        are pulled out *before* worker planning and resolved in-parent
        by :meth:`_verify_msm_group`; everything else takes the normal
        serial/fan-out path.  Slots are stitched back in input order.
        """
        ordered: List[Any] = [_UNSET] * len(jobs)
        group_results, stats = self._verify_msm_group(
            [jobs[i][1] for i in msm_slots], deadline=deadline
        )
        for i, r in zip(msm_slots, group_results):
            ordered[i] = r
        rest = [(i, job) for i, job in enumerate(jobs) if job[0] != "verify_msm"]
        if rest:
            sub_results, sub_stats = self._dispatch(
                [job for _, job in rest], workers, dedup, False, min_chunk,
                deadline,
            )
            for (i, _), r in zip(rest, sub_results):
                ordered[i] = r
            stats.merge(sub_stats)
            stats.workers = max(stats.workers, sub_stats.workers)
        return ordered, stats

    def _verify_msm_group(
        self,
        items: Sequence[Tuple[AffinePoint, bytes, SchnorrSignature]],
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[Any], BatchStats]:
        """Resolve verify items with one randomized MSM + fallback.

        Three stages, each fault-isolated per item:

        1. **Vet** every item (:func:`repro.curve.multiscalar.
           validate_verify_item`): off-curve or out-of-subgroup points,
           out-of-range s, malformed material → that slot resolves
           ``False`` (the verdict per-item ``verify`` would reach for
           such a signature, without endangering the batch soundness
           argument).
        2. **Batch-check** the survivors via
           :func:`~repro.curve.multiscalar.batch_verify_schnorr` —
           all-honest batches (the overwhelmingly common case) resolve
           here at roughly the cost of one large MSM.
        3. **Bisect** a rejected batch: halves re-check recursively, so
           each bad item is cornered in O(log n) sub-batches while the
           honest majority still resolves in bulk; size-1 rejects run
           the authoritative per-item *simulated* verification (the
           bit-verified datapath path — same verdict as
           :func:`repro.dsa.fourq_schnorr.verify`), so one forgery
           costs log-factor extra MSM work, never 63 honest slots.

        ``simulated_cycles`` accounts the window-kernel extrapolation
        (:meth:`msm_cycles_estimate`) per batch MSM performed, plus the
        real simulated cycles of any fallback per-item verifications.
        """
        stats = BatchStats()
        m = self.metrics
        t0 = time.perf_counter()
        n = len(items)
        results: List[Any] = [_UNSET] * n
        if n:
            m.histogram("repro_msm_batch_size").observe(n)

        def fail(idx: int, kind: str, message: str) -> None:
            results[idx] = Failed(kind=kind, message=message)
            m.counter(
                "repro_serve_items_total", kind="verify_msm", outcome="error"
            ).inc()
            m.counter("repro_serve_errors_total", kind=kind).inc()
            m.counter("repro_msm_items_total", verdict="error").inc()

        def resolve(idx: int, verdict: bool) -> None:
            results[idx] = verdict
            m.counter(
                "repro_serve_items_total", kind="verify_msm", outcome="ok"
            ).inc()
            m.counter(
                "repro_msm_items_total",
                verdict="valid" if verdict else "invalid",
            ).inc()

        live: List[int] = []
        for idx, item in enumerate(items):
            if deadline is not None and deadline.expired:
                fail(idx, KIND_DEADLINE,
                     "deadline expired before batch verification")
                m.counter("repro_deadline_expired_total", stage="engine").inc()
                continue
            try:
                public, message, sig = item
                commit = validate_verify_item(public, sig)
            except Exception as exc:
                fail(idx, classify_exception(exc), str(exc))
                continue
            if commit is None:
                resolve(idx, False)
            else:
                live.append(idx)

        def leaf_verify(idx: int) -> None:
            """Authoritative per-item verdict on the simulated datapath."""
            m.counter("repro_msm_fallback_verifies_total").inc()
            try:
                verdict, cycles, used_fallback = self._execute(
                    "verify", items[idx]
                )
            except Exception as exc:
                fail(idx, classify_exception(exc), str(exc))
                return
            stats.simulated_cycles += cycles
            stats.fallbacks += int(used_fallback)
            resolve(idx, verdict)

        whole_batch_accepted = bool(live)
        subsets: List[List[int]] = [live] if live else []
        while subsets:
            subset = subsets.pop()
            if deadline is not None and deadline.expired:
                for idx in subset:
                    fail(idx, KIND_DEADLINE,
                         "deadline expired during batch verification")
                    m.counter(
                        "repro_deadline_expired_total", stage="engine"
                    ).inc()
                continue
            accepted: Optional[bool]
            try:
                accepted = batch_verify_schnorr([items[i] for i in subset])
            except Exception:
                accepted = None  # isolate: resolve these items one by one
            if accepted:
                msm_points = 2 * len(subset) + 1
                stats.simulated_cycles += self.msm_cycles_estimate(msm_points)
                for idx in subset:
                    resolve(idx, True)
                continue
            whole_batch_accepted = False
            if accepted is None or len(subset) == 1:
                for idx in subset:
                    leaf_verify(idx)
                continue
            stats.simulated_cycles += self.msm_cycles_estimate(
                2 * len(subset) + 1
            )
            mid = len(subset) // 2
            subsets.append(subset[mid:])
            subsets.append(subset[:mid])

        if n:
            m.counter(
                "repro_msm_batches_total",
                outcome="accepted" if whole_batch_accepted else "fallback",
            ).inc()
            live_points = 2 * len(live) + 1 if live else 0
            if live:
                m.gauge("repro_msm_simulated_cycles_per_op").set(
                    self.msm_cycles_estimate(live_points) / len(live)
                )
        elapsed = time.perf_counter() - t0
        resolved_ok = sum(
            1 for r in results if not isinstance(r, Failed) and r is not _UNSET
        )
        if resolved_ok:
            # Amortized per-item latency: the group resolves as one MSM,
            # so each slot's share is the group wall time split evenly.
            share = elapsed / resolved_ok
            for _ in range(resolved_ok):
                stats.latencies.append(share)
                m.histogram(
                    "repro_serve_latency_seconds", kind="verify_msm"
                ).observe(share)
        for idx, r in enumerate(results):
            if r is _UNSET:  # pragma: no cover - defensive backstop
                results[idx] = Failed(
                    kind=KIND_INTERNAL,
                    message="verify_msm slot left unresolved",
                )
        return results, stats

    def _fail_fast_circuit(
        self, jobs: Sequence[Tuple[str, Any]]
    ) -> Tuple[List[Any], BatchStats]:
        """Every item fails typed ``circuit_open`` — nothing executes."""
        stats = BatchStats()
        results: List[Any] = []
        for kind, _ in jobs:
            self.metrics.counter(
                "repro_serve_items_total", kind=kind, outcome="error"
            ).inc()
            self.metrics.counter(
                "repro_serve_errors_total", kind=KIND_CIRCUIT_OPEN
            ).inc()
            results.append(
                Failed(
                    kind=KIND_CIRCUIT_OPEN,
                    message="worker-pool circuit breaker is open (fail_fast mode)",
                )
            )
        return results, stats

    # -- the resident pool ---------------------------------------------
    def _make_pool(self, workers: int):
        """Factory the supervisor rebuilds pools with (fork + initializer)."""
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = mp.get_context("spawn")
        config = _EngineConfig(
            mult_latency=self.machine.mult_latency,
            addsub_latency=self.machine.addsub_latency,
            read_ports=self.machine.read_ports,
            write_ports=self.machine.write_ports,
            forwarding=self.machine.forwarding,
            scheduler=self.scheduler,
            cache_entries=self.cache.max_entries,
            check_golden=self.check_golden,
        )
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(config,),
        )

    def _ensure_supervisor(self) -> PoolSupervisor:
        if self._supervisor is None:
            self._supervisor = PoolSupervisor(
                factory=self._make_pool,
                limiter=self._restart_limiter,
                metrics=self.metrics,
            )
        return self._supervisor

    @property
    def supervisor(self) -> Optional[PoolSupervisor]:
        """The resident pool's supervisor (``None`` until first fan-out)."""
        return self._supervisor

    def close(self) -> None:
        """Shut the resident worker pool down (idempotent; it rebuilds
        lazily on the next fan-out batch)."""
        if self._supervisor is not None:
            self._supervisor.shutdown()

    def _requeue(self, stats: BatchStats, chunk, attempts: int, pending) -> None:
        stats.requeues += 1
        self.metrics.counter("repro_serve_chunk_requeues_total").inc()
        pending.append((chunk, attempts + 1))

    def _run_parallel(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int,
        dedup: bool,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[Any], BatchStats]:
        """Fan chunks out across the supervised resident pool.

        Recovery ladder for a chunk whose worker dies (whole pool
        breaks) or whose result times out (hung worker — the pool is
        restarted, stragglers killed):

        1. retry on the (restarted) pool with jittered exponential
           backoff, up to ``retry_policy.max_attempts`` pool executions
           and never past the batch ``deadline``;
        2. serial re-run in the parent, where per-item isolation cannot
           lose the rest of the batch (with an expired deadline this
           resolves each remaining item as ``Failed(KIND_DEADLINE)``).

        A chunk-*local* fault (payload or result cannot cross the
        process boundary) skips the pool retries — they would fail
        identically — and goes straight to serial recovery.  Healthy
        chunks' results are never discarded by any of this, and every
        slot resolves exactly once.  The breaker hears one verdict per
        batch: failure if the pool ended broken or a restart was denied,
        success otherwise.
        """
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        chunks = _chunk(list(enumerate(jobs)), workers)
        # Report the worker count actually used: never more than the
        # number of non-empty chunks.
        stats = BatchStats(workers=len(chunks))
        ordered: List[Any] = [_UNSET] * len(jobs)
        supervisor = self._ensure_supervisor()
        policy = self.retry_policy
        m = self.metrics

        pending = [(ch, 0) for ch in chunks]  # (chunk, pool attempts so far)
        recover: List[List] = []  # chunks bound for serial parent recovery
        pool_ok = True
        retry_round = 0
        while pending:
            if deadline is not None and deadline.expired:
                recover.extend(ch for ch, _ in pending)
                break
            pool = supervisor.ensure(len(chunks))
            if pool is None:
                # Pool cannot be (re)built — storm limiter denied the
                # restart or the build/probe failed.  Serial recovery
                # for everything still pending.
                pool_ok = False
                recover.extend(ch for ch, _ in pending)
                break
            if retry_round:
                for _ in pending:
                    stats.retries += 1
                    m.counter("repro_retry_attempts_total").inc()
                    m.counter("repro_serve_chunk_retries_total").inc()
            round_items, pending = pending, []
            hung = broken = False
            futures = []
            for ch, attempts in round_items:
                try:
                    futures.append(
                        (pool.submit(_worker_run_chunk, ch, dedup), ch, attempts)
                    )
                except Exception:
                    broken = True
                    self._requeue(stats, ch, attempts, pending)
            for future, ch, attempts in futures:
                timeout = self.chunk_timeout
                if deadline is not None:
                    timeout = deadline.clamp(timeout)
                try:
                    indices, chunk_results, chunk_stats, obs_snap = future.result(
                        timeout=timeout
                    )
                except FutureTimeout:
                    future.cancel()
                    hung = True
                    self._requeue(stats, ch, attempts, pending)
                    continue
                except BrokenProcessPool:
                    # Worker death kills the whole pool: this chunk and
                    # every still-pending one land here and are requeued
                    # for a retry on the restarted pool.
                    broken = True
                    self._requeue(stats, ch, attempts, pending)
                    continue
                except Exception:
                    # Chunk-local fault (unpicklable payload or result):
                    # the pool is healthy and a retry would fail the
                    # same way — straight to serial recovery.
                    stats.requeues += 1
                    m.counter("repro_serve_chunk_requeues_total").inc()
                    recover.append(ch)
                    continue
                for i, r in zip(indices, chunk_results):
                    ordered[i] = r
                stats.merge(chunk_stats)
                # Fold the worker's metric partials home exactly like the
                # BatchStats partials above.
                m.merge_snapshot(obs_snap)
            if hung or broken:
                # A hung worker cannot be cancelled through the executor
                # and a broken pool stays broken: restart (kill
                # stragglers, rebuild, health-probe) before any retry.
                supervisor.mark_broken("timeout" if hung else "crash")
                if not supervisor.restart(
                    "timeout" if hung else "crash", workers=len(chunks)
                ):
                    pool_ok = False
                    recover.extend(ch for ch, _ in pending)
                    pending = []
            # Chunks out of pool attempts fall through to serial recovery.
            still = []
            for ch, attempts in pending:
                if attempts >= policy.max_attempts:
                    m.counter("repro_retry_exhausted_total").inc()
                    recover.append(ch)
                else:
                    still.append((ch, attempts))
            pending = still
            if pending:
                delay = policy.backoff(retry_round, self._retry_rng)
                if deadline is not None:
                    delay = deadline.clamp(delay)
                m.histogram("repro_retry_backoff_seconds").observe(delay)
                if delay > 0:
                    time.sleep(delay)
                retry_round += 1
        if pool_ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        for chunk in recover:
            # Guaranteed recovery: the serial path isolates per item, so
            # one run always completes (late items fail typed under an
            # expired deadline rather than running past it).
            indices = [i for i, _ in chunk]
            chunk_jobs = [job for _, job in chunk]
            chunk_results, chunk_stats = self._run_serial(
                chunk_jobs, dedup, deadline=deadline
            )
            stats.retries += 1
            m.counter("repro_serve_chunk_retries_total").inc()
            for i, r in zip(indices, chunk_results):
                ordered[i] = r
            stats.merge(chunk_stats)
        for i, r in enumerate(ordered):
            if r is _UNSET:  # pragma: no cover - defensive backstop
                ordered[i] = Failed(
                    kind=KIND_INTERNAL,
                    message="chunk result lost during recovery",
                )
        return ordered, stats


# -- worker fan-out machinery ------------------------------------------


@dataclass(frozen=True)
class _EngineConfig:
    """Picklable construction recipe for worker-side engines.

    Holds only per-*engine* settings: per-batch knobs (``dedup``) travel
    with each :func:`_worker_run_chunk` call instead, so the resident
    pool never needs a rebuild just because a batch flipped a flag.
    """

    mult_latency: int
    addsub_latency: int
    read_ports: int
    write_ports: int
    forwarding: bool
    scheduler: str
    cache_entries: int
    check_golden: bool


_WORKER_ENGINE: Optional[BatchEngine] = None
#: True only inside pool worker processes (set by the initializer); the
#: fault-injection job kind keys off this so injected crashes can never
#: take down the parent.
_IN_WORKER: bool = False


def _worker_init(config: _EngineConfig) -> None:
    global _WORKER_ENGINE, _IN_WORKER
    _IN_WORKER = True
    _WORKER_ENGINE = BatchEngine(
        machine=MachineSpec(
            mult_latency=config.mult_latency,
            addsub_latency=config.addsub_latency,
            read_ports=config.read_ports,
            write_ports=config.write_ports,
            forwarding=config.forwarding,
        ),
        scheduler=config.scheduler,
        cache_entries=config.cache_entries,
        check_golden=config.check_golden,
        # Workers never fan out themselves; their engine needs no pool.
        resident_pool=False,
    )


def _worker_run_chunk(chunk, dedup: bool = True):
    indices = [i for i, _ in chunk]
    jobs = [job for _, job in chunk]
    assert _WORKER_ENGINE is not None
    # The worker's process-wide registry accounts for this chunk only:
    # reset at the start, snapshot (plain picklable dict) shipped home at
    # the end, merged by the parent like the BatchStats partials.  A fork
    # worker inherits the parent's registry contents, so without the
    # reset the parent would double-count everything it recorded before
    # the fork.
    registry = get_registry()
    registry.reset()
    results, stats = _WORKER_ENGINE._run_serial(jobs, dedup)
    return indices, results, stats, registry.snapshot()


def _chunk(items: List, n: int) -> List[List]:
    """Split into at most n balanced contiguous chunks (sizes differ <= 1).

    Never emits an empty chunk: 5 jobs across 4 workers yield sizes
    [2, 1, 1, 1] — four busy workers, not three chunks and an idle one.
    Callers report ``len(chunks)`` as the worker count actually used.
    """
    if not items:
        return []
    n = max(1, min(n, len(items)))
    base, extra = divmod(len(items), n)
    chunks: List[List] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# -- module-level convenience API --------------------------------------

_DEFAULT_ENGINE: Optional[BatchEngine] = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> BatchEngine:
    """The process-wide shared engine (lazily constructed, thread-safe).

    Double-checked locking: the fast path is one unlocked read, and the
    lock guarantees concurrent first callers all receive the same
    instance (two racing engines would each warm their own artifact
    cache and split the hit-rate statistics).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        with _DEFAULT_ENGINE_LOCK:
            if _DEFAULT_ENGINE is None:
                _DEFAULT_ENGINE = BatchEngine()
    return _DEFAULT_ENGINE


def batch_scalarmult(
    scalars: Sequence[int],
    point: Optional[AffinePoint] = None,
    points: Optional[Sequence[AffinePoint]] = None,
    workers: int = 0,
    strict: bool = False,
) -> BatchResult:
    """[k_i]P for a batch of scalars on the shared default engine."""
    return default_engine().batch_scalarmult(
        scalars, point=point, points=points, workers=workers, strict=strict
    )


def batch_dh(
    private: int,
    peer_publics: Sequence[bytes],
    workers: int = 0,
    strict: bool = False,
) -> BatchResult:
    """Batched co-factored ECDH on the shared default engine."""
    return default_engine().batch_dh(
        private, peer_publics, workers=workers, strict=strict
    )


def batch_verify(
    items: Sequence[Tuple[AffinePoint, bytes, SchnorrSignature]],
    workers: int = 0,
    strict: bool = False,
    mode: str = "simulate",
) -> BatchResult:
    """Batched Schnorr verification on the shared default engine."""
    return default_engine().batch_verify(
        items, workers=workers, strict=strict, mode=mode
    )


def batch_msm(
    requests: Sequence[Tuple[Sequence[int], Sequence[AffinePoint]]],
    workers: int = 0,
    strict: bool = False,
) -> BatchResult:
    """Batched multi-scalar multiplication on the shared default engine."""
    return default_engine().batch_msm(requests, workers=workers, strict=strict)
