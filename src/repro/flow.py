"""The end-to-end automated design flow of the paper (Section III-C).

One call takes the Python-traced algorithm all the way to a verified
cycle-accurate execution:

    trace (Step 1-2)  ->  job-shop scheduling (Step 3)
                      ->  control-signal generation (Step 4)
                      ->  cycle-accurate datapath simulation (verify)

:func:`run_flow` returns every intermediate artifact so benchmarks and
examples can report sizes, makespans, ROM geometry, and simulation
statistics.

For serving many requests of the same workload shape, pass a
:class:`repro.serve.cache.FlowArtifactCache`: the scheduling problem,
the job-shop solve, and the register allocation are reused across
requests (they depend only on the shape), and each request pays only
the rebind — new input values, new mux routings, a fresh golden-checked
simulation.  A cache hit that fails any check falls back to the full
flow, so caching never changes results, only cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, TYPE_CHECKING

from .isa.fsm import FSMController, generate_fsm
from .isa.microcode import MicroProgram, assemble, build_template
from .isa.regalloc import allocate_registers
from .obs import MetricsRegistry, get_registry
from .opt import OPT_LEVELS, OptStats, memoized_schedule, optimize_trace
from .rtl.datapath import DatapathSimulator, SimulationError, SimulationResult
from .sched.cp_scheduler import cp_schedule
from .sched.jobshop import JobShopProblem, MachineSpec, problem_from_trace
from .sched.list_scheduler import list_schedule
from .sched.schedule import Schedule
from .trace.program import TraceProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve imports flow)
    from .serve.cache import FlowArtifactCache

#: Histogram of per-stage wall time (seconds), labeled ``stage=``
#: problem / optimize / solve / regalloc / assemble / rebind / simulate
#: (the engine adds ``trace``).
FLOW_STAGE_SECONDS = "repro_flow_stage_seconds"
#: Counter of flow passes, labeled ``path=`` miss / hit / fallback.
FLOW_REQUESTS = "repro_flow_requests_total"
#: Counter of optimizer invocations, labeled ``level=``.
OPT_RUNS = "repro_opt_runs_total"
#: Counter of micro-ops removed by the rewrite passes, labeled
#: ``pass=`` cse / fold / dve.
OPT_OPS_REMOVED = "repro_opt_ops_removed_total"
#: Counter of memoized-scheduler segments, labeled ``outcome=``
#: solved / reused.
OPT_SEGMENTS = "repro_opt_segments_total"

#: "auto" resolves to the CP scheduler for problems up to this many
#: arithmetic ops, the list scheduler beyond.
AUTO_CP_MAX_OPS = 64


def auto_scheduler(arithmetic_ops: int) -> str:
    """The scheduler ``"auto"`` means for a trace of this many arithmetic ops.

    The one home of the rule: :func:`resolve_scheduler` and the cache
    keying (:func:`repro.serve.cache.shape_key`) both apply it, so an
    ``"auto"`` request and the explicit ``"cp"``/``"list"`` request for
    the same trace share one cache entry (they produce byte-identical
    artifacts).
    """
    return "cp" if arithmetic_ops <= AUTO_CP_MAX_OPS else "list"


def resolve_scheduler(scheduler: str, trace_program: TraceProgram) -> str:
    """Resolve ``"auto"`` to the concrete scheduler for this trace.

    Resolution uses the original trace's arithmetic-op count, so it
    never depends on whether the optimizer runs.
    """
    if scheduler != "auto":
        return scheduler
    return auto_scheduler(trace_program.tracer.arithmetic_size())


def _record_opt(obs: MetricsRegistry, stats: OptStats) -> None:
    """Export one optimizer run's pass statistics."""
    obs.counter(OPT_RUNS, level=stats.level).inc()
    obs.counter(OPT_OPS_REMOVED, **{"pass": "cse"}).inc(stats.cse_merged)
    obs.counter(OPT_OPS_REMOVED, **{"pass": "fold"}).inc(stats.const_folded)
    obs.counter(OPT_OPS_REMOVED, **{"pass": "dve"}).inc(stats.dve_removed)
    if stats.segments_total:
        obs.counter(OPT_SEGMENTS, outcome="solved").inc(stats.segments_solved)
        obs.counter(OPT_SEGMENTS, outcome="reused").inc(stats.segments_reused)


@dataclass
class FlowResult:
    """All artifacts of one pass through the design flow.

    ``cache_hit`` marks results produced through a flow-artifact cache's
    fast path (reused schedule/allocation; the FSM then reports the
    shape-invariant geometry of the cached controller).  ``fallback``
    marks requests where the fast path failed a check and the full flow
    was recomputed.
    """

    trace_program: TraceProgram
    problem: JobShopProblem
    schedule: Schedule
    microprogram: MicroProgram
    fsm: FSMController
    simulation: SimulationResult
    cache_hit: bool = False
    fallback: bool = False
    cache_key: Optional[str] = None
    #: Optimization level the flow ran at ("none" = the legacy path).
    optimize: str = "none"
    #: Pass statistics when the optimizer ran (None at level "none").
    opt_stats: Optional[OptStats] = None
    #: The rewritten program actually scheduled/simulated at levels
    #: "cse"/"full"; ``trace_program`` always stays the caller's
    #: original recording.
    optimized_program: Optional[TraceProgram] = None

    @property
    def cycles(self) -> int:
        """Total executed cycles (the number the latency model uses)."""
        return self.simulation.cycles

    def report(self) -> str:
        from .trace.ops import Unit

        lines = [
            f"workload        : {self.trace_program.description}",
            f"micro-ops       : {self.problem.size} "
            f"({self.problem.unit_load(Unit.MULTIPLIER)} mult / "
            f"{self.problem.unit_load(Unit.ADDSUB)} add-sub)",
            f"schedule        : {self.schedule.summary()}",
            f"registers       : {self.microprogram.register_count}",
            f"program ROM     : {self.microprogram.cycles} words x "
            f"{self.fsm.word_bits} bits = {self.fsm.rom_kilobits:.1f} kbit",
            f"simulated cycles: {self.simulation.cycles}",
        ]
        return "\n".join(lines)


def _output_names(trace_program: TraceProgram) -> Dict[int, str]:
    tracer = trace_program.tracer
    return {uid: tracer.names.get(uid, "") for uid in tracer.outputs}


def _verify_outputs(
    trace_program: TraceProgram, microprogram: MicroProgram, sim: SimulationResult
) -> None:
    """Check the simulated outputs against the traced reference values.

    The golden check already proves every writeback; this closes the
    loop on the output *mapping* (which register each named result is
    read from), making the cached fast path end-to-end verified.
    """
    tracer = trace_program.tracer
    names = _output_names(trace_program)
    for uid in tracer.outputs:
        name = names.get(uid) or f"v{uid}"
        if name not in sim.outputs:
            # A renamed or dropped output must not silently escape the
            # end-to-end check.
            raise SimulationError(
                f"output {name} missing from the simulation outputs"
            )
        if sim.outputs[name] != tracer.values[uid]:
            raise SimulationError(
                f"output {name} diverged from the traced reference"
            )


def _record_simulation(obs: MetricsRegistry, sim: SimulationResult) -> None:
    """Push one run's datapath profile into the metrics registry."""
    profile = sim.profile
    if profile is None:
        return
    obs.counter("repro_datapath_runs_total").inc()
    obs.counter("repro_datapath_cycles_total").inc(profile.cycles)
    obs.counter("repro_datapath_unit_issues_total", unit="mult").inc(
        profile.mult_issues
    )
    obs.counter("repro_datapath_unit_issues_total", unit="addsub").inc(
        profile.addsub_issues
    )
    obs.counter("repro_datapath_unit_busy_cycles_total", unit="mult").inc(
        profile.mult_busy_cycles
    )
    obs.counter("repro_datapath_unit_busy_cycles_total", unit="addsub").inc(
        profile.addsub_busy_cycles
    )
    obs.counter("repro_datapath_forward_uses_total", unit="mult").inc(
        profile.forward_mult_uses
    )
    obs.counter("repro_datapath_forward_uses_total", unit="addsub").inc(
        profile.forward_addsub_uses
    )
    obs.counter("repro_datapath_regfile_reads_total").inc(profile.rf_reads)
    obs.counter("repro_datapath_regfile_writes_total").inc(profile.rf_writes)
    obs.gauge("repro_datapath_regfile_read_ports_max", mode="max").set(
        profile.max_reads_per_cycle
    )
    obs.gauge("repro_datapath_regfile_write_ports_max", mode="max").set(
        profile.max_writes_per_cycle
    )


def run_flow(
    trace_program: TraceProgram,
    machine: Optional[MachineSpec] = None,
    scheduler: str = "auto",
    cp_node_budget: int = 200_000,
    check_golden: bool = True,
    cache: "Optional[FlowArtifactCache]" = None,
    simulator: Optional[DatapathSimulator] = None,
    cache_key: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    optimize: str = "none",
) -> FlowResult:
    """Run the complete flow on a recorded trace.

    Args:
        trace_program: output of :func:`repro.trace.trace_scalar_mult`
            or :func:`repro.trace.trace_loop_iteration`.
        machine: datapath timing model (default: 3-cycle pipelined
            multiplier, 1-cycle adder, 4R/2W ports, forwarding on).
        scheduler: ``"list"``, ``"cp"`` or ``"auto"`` (CP for kernels up
            to 64 ops, list scheduling beyond).
        cp_node_budget: branch-and-bound node limit for the CP solver.
        check_golden: verify every writeback against the traced values.
        cache: optional flow-artifact cache; same-shape requests reuse
            the schedule and register allocation (see module docstring).
        simulator: optional reusable simulator (runs share no state);
            one is constructed per call when omitted.
        cache_key: optional precomputed shape key (a caller that knows
            its requests share one shape — the batch engine — skips
            re-hashing the trace per request).  A wrong key is safe:
            the rebind/golden checks reject the mismatched artifacts,
            the true key is recomputed, and the full flow runs.
        metrics: registry receiving per-stage wall-time spans, the
            hit/miss/fallback counters, and the datapath unit profile
            (default: the process-wide :func:`repro.obs.get_registry`).
        optimize: trace-optimizer level — ``"none"`` (the legacy flow,
            byte-identical artifacts), ``"cse"`` (CSE + const-fold +
            DVE rewrites), or ``"full"`` (rewrites plus memoized
            sub-DAG scheduling).  Folded into the cache key, so cached
            artifacts never cross optimization levels (see
            ``docs/optimizer.md``).

    Returns:
        A :class:`FlowResult`; raises if any stage fails validation.
    """
    if optimize not in OPT_LEVELS:
        raise ValueError(f"optimize level must be one of {OPT_LEVELS}")
    machine = machine or MachineSpec()
    obs = metrics if metrics is not None else get_registry()
    if scheduler not in ("auto", "cp", "list"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    # "auto" is resolved only when the full flow runs: a hit through a
    # caller-supplied key never needs it, and a computed shape key
    # resolves it itself (shape_key).

    opt_stats: Optional[OptStats] = None
    work_program = trace_program
    if optimize != "none":
        # The rewrite runs before the cache lookup: a hit still needs
        # the *optimized* trace for rebind + golden values, so the hit
        # path pays the (purely structural, deterministic) rewrite too.
        t0 = perf_counter()
        work_program, opt_stats = optimize_trace(trace_program, optimize)
        obs.histogram(FLOW_STAGE_SECONDS, stage="optimize").observe(
            perf_counter() - t0
        )
    tracer = work_program.tracer

    key = None
    fallback = False
    if cache is not None:
        key = (
            cache_key
            if cache_key is not None
            else cache.key_for(trace_program, machine, scheduler, optimize)
        )
        entry = cache.get(key)
        if entry is not None:
            try:
                result = _run_from_artifacts(
                    work_program, entry, machine, check_golden, simulator, key, obs
                )
                result.trace_program = trace_program
                result.optimize = optimize
                result.opt_stats = opt_stats
                if optimize != "none":
                    result.optimized_program = work_program
                    if opt_stats is not None:
                        _record_opt(obs, opt_stats)
                return result
            except (KeyError, IndexError, ValueError, RuntimeError):
                # Shape-key collision or stale artifacts: recompute the
                # full flow and replace the entry.  Correctness is never
                # at stake — the golden/output checks caught the issue.
                # The get() above counted a hit, but the fast path did
                # not complete: reclassify it so hit_rate stays honest.
                cache.demote_hit()
                true_key = cache.key_for(
                    trace_program, machine, scheduler, optimize
                )
                if true_key == key:
                    # The entry under this key is genuinely bad.
                    cache.invalidate(key)
                # else: the caller-supplied key was stale (shape drift);
                # the cached entry is fine for its own shape — keep it
                # and file this request under its true key below.
                key = true_key
                fallback = True
        elif cache_key is not None:
            # The caller-supplied key missed: recompute the true digest
            # so the artifacts are filed under their real shape key (a
            # stale memo must not leak into the cache's key space).
            key = cache.key_for(trace_program, machine, scheduler, optimize)

    scheduler = resolve_scheduler(scheduler, trace_program)
    t0 = perf_counter()
    problem = problem_from_trace(tracer.trace, machine)
    obs.histogram(FLOW_STAGE_SECONDS, stage="problem").observe(perf_counter() - t0)

    t0 = perf_counter()
    if optimize == "full":
        # Memoized sub-DAG scheduling: solve each unique segment once
        # (with the resolved scheduler), stitch with overlap-aware
        # placement, validate the stitched whole.
        schedule, memo_stats = memoized_schedule(
            problem, sections=tracer.sections, solver=scheduler
        )
        if opt_stats is not None:
            opt_stats.segments_total = memo_stats.segments_total
            opt_stats.segments_solved = memo_stats.segments_solved
            opt_stats.segments_reused = memo_stats.segments_reused
    else:
        if scheduler == "cp":
            schedule = cp_schedule(problem, node_budget=cp_node_budget).schedule
        else:
            schedule = list_schedule(problem)
        schedule.validate()
    obs.histogram(FLOW_STAGE_SECONDS, stage="solve").observe(perf_counter() - t0)

    t0 = perf_counter()
    alloc = allocate_registers(problem, schedule, tracer.trace, tracer.outputs)
    obs.histogram(FLOW_STAGE_SECONDS, stage="regalloc").observe(perf_counter() - t0)
    t0 = perf_counter()
    template = None
    if cache is not None:
        # Build the reusable control skeleton once per shape and derive
        # this request's program from it — rebind(trace) on the template
        # is assemble()'s output byte for byte (pinned by the microcode
        # equivalence test), so the miss path pays one walk, not two.
        template = build_template(
            problem,
            schedule,
            tracer.trace,
            tracer.outputs,
            alloc=alloc,
            output_names=_output_names(work_program),
        )
        microprogram = template.rebind(tracer)
    else:
        microprogram = assemble(
            problem,
            schedule,
            tracer.trace,
            tracer.outputs,
            output_names=_output_names(work_program),
            alloc=alloc,
            validate=False,  # validated above
        )
    fsm = generate_fsm(microprogram)
    obs.histogram(FLOW_STAGE_SECONDS, stage="assemble").observe(perf_counter() - t0)
    t0 = perf_counter()
    sim_engine = simulator or DatapathSimulator(
        mult_depth=machine.mult_latency, addsub_depth=machine.addsub_latency
    )
    sim = sim_engine.run(microprogram, check_golden=check_golden)
    obs.histogram(FLOW_STAGE_SECONDS, stage="simulate").observe(perf_counter() - t0)
    _record_simulation(obs, sim)
    if opt_stats is not None:
        _record_opt(obs, opt_stats)
    obs.counter(FLOW_REQUESTS, path="fallback" if fallback else "miss").inc()

    if cache is not None and key is not None:
        from .serve.cache import FlowArtifacts

        cache.put(
            FlowArtifacts(
                key=key,
                problem=problem,
                schedule=schedule,
                alloc=alloc,
                fsm=fsm,
                schedule_hash=schedule.stable_hash(),
                template=template,
            )
        )

    return FlowResult(
        trace_program=trace_program,
        problem=problem,
        schedule=schedule,
        microprogram=microprogram,
        fsm=fsm,
        simulation=sim,
        cache_hit=False,
        fallback=fallback,
        cache_key=key,
        optimize=optimize,
        opt_stats=opt_stats,
        optimized_program=work_program if optimize != "none" else None,
    )


def _run_from_artifacts(
    trace_program: TraceProgram,
    entry: "FlowArtifacts",
    machine: MachineSpec,
    check_golden: bool,
    simulator: Optional[DatapathSimulator],
    key: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> FlowResult:
    """The cache-hit fast path: rebind + simulate, no solve.

    Reuses the cached problem/schedule/allocation; rebinds the cached
    decoded ROM rows to this recording's columns (mux routings, input
    values, golden vector); runs the golden-checked simulation; verifies
    the outputs against the traced reference.  Never materializes the
    recording's :class:`~repro.trace.ops.MicroOp` view.  Any failure
    propagates so the caller can fall back to the full flow.
    """
    obs = metrics if metrics is not None else get_registry()
    if entry.template is None:
        raise ValueError(f"cache entry {entry.key} holds no program template")
    t0 = perf_counter()
    microprogram = entry.template.rebind(trace_program.tracer)
    obs.histogram(FLOW_STAGE_SECONDS, stage="rebind").observe(perf_counter() - t0)
    t0 = perf_counter()
    sim_engine = simulator or DatapathSimulator(
        mult_depth=machine.mult_latency, addsub_depth=machine.addsub_latency
    )
    sim = sim_engine.run(microprogram, check_golden=check_golden)
    obs.histogram(FLOW_STAGE_SECONDS, stage="simulate").observe(perf_counter() - t0)
    _verify_outputs(trace_program, microprogram, sim)
    _record_simulation(obs, sim)
    obs.counter(FLOW_REQUESTS, path="hit").inc()
    return FlowResult(
        trace_program=trace_program,
        problem=entry.problem,
        schedule=entry.schedule,
        microprogram=microprogram,
        fsm=entry.fsm,
        simulation=sim,
        cache_hit=True,
        fallback=False,
        cache_key=key,
    )
