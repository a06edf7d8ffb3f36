"""Where the traced run hooks the program, and how spans become metrics.

Each instrumentation point names the module (or class) attribute a
caller looks up at call time.  ``repro.flow`` imported its stage
functions by name, so they are wrapped in ``repro.flow``'s namespace;
the engine's trace and flow calls are wrapped in
``repro.serve.engine``'s; methods are wrapped on their class.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from spans import Span, percentiles, self_by_name, subtree

#: Root span names the benchmark records around one operation.
OP_ROOT = "bench.op"
REQUEST_ROOT = "bench.request"

def payload_key(kind: str, payload: Any) -> Optional[str]:
    """Identify a request by its (seeded, distinct) payload.

    The same key is computed in the load generator and, on the decoded
    payload, in the server process, which is how spans of one request
    are joined across processes without touching the program.
    """
    if kind == "sm":
        return f"sm:{payload[0]:x}"
    if kind == "dh":
        return f"dh:{bytes(payload[1]).hex()}"
    if kind == "verify_msm":
        return f"verify_msm:{payload[2].s:x}"
    return None


def _key_attr(args, kwargs, result):
    return {"key": payload_key(args[1], args[2])}


def _jobs_attr(args, kwargs, result):
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    return {"items": len(jobs), "keys": [payload_key(k, p) for k, p in jobs]}


def _scalars_attr(args, kwargs, result):
    return {"items": len(args[1])}


def _msm_attr(args, kwargs, result):
    return {"items": len(args[0])}


def _trace_attr(args, kwargs, result):
    return {"ops": result.arithmetic_size}


def _solve_attr(args, kwargs, result):
    return {"makespan": getattr(result, "schedule", result).makespan}


def _sim_attr(args, kwargs, result):
    prof = result.profile
    return {
        "cycles": result.cycles,
        "mult_issues": prof.mult_issues if prof else 0,
        "addsub_issues": prof.addsub_issues if prof else 0,
    }


#: (module, attribute, span name, attribute hook)
POINTS = [
    ("repro.serve.engine", "default_decomposer", "curve.decomposer_derive", None),
    ("repro.curve.endomorphisms", "default_decomposer", "curve.decomposer_derive", None),
    ("repro.curve.decompose", "FourQDecomposer.decompose", "curve.decompose", None),
    ("repro.trace.program", "recode_glv_sac", "curve.recode", None),
    ("repro.serve.engine", "batch_verify_schnorr", "curve.msm", _msm_attr),
    ("repro.curve.scalarmult", "scalar_mul_fourq", "curve.ref_sm", None),
    ("repro.dsa.fourq_dh", "scalar_mul_fourq", "curve.ref_sm", None),
    ("repro.serve.engine", "trace_scalar_mult", "trace.sm", _trace_attr),
    ("repro.trace", "trace_scalar_mult", "trace.sm", _trace_attr),
    ("repro.serve.engine", "run_flow", "flow.run", None),
    ("repro.flow", "run_flow", "flow.run", None),
    ("repro.flow", "problem_from_trace", "sched.problem", None),
    ("repro.flow", "list_schedule", "sched.solve", _solve_attr),
    ("repro.flow", "cp_schedule", "sched.solve", _solve_attr),
    ("repro.flow", "allocate_registers", "isa.regalloc", None),
    ("repro.flow", "assemble", "isa.assemble", None),
    ("repro.flow", "build_template", "isa.assemble", None),
    ("repro.flow", "generate_fsm", "isa.fsm", None),
    ("repro.isa.microcode", "ProgramTemplate.rebind", "isa.rebind", None),
    ("repro.rtl.datapath", "DatapathSimulator.run", "rtl.simulate", _sim_attr),
    ("repro.serve.engine", "BatchEngine.batch_scalarmult", "serve.engine", _scalars_attr),
    ("repro.serve.engine", "BatchEngine.run_jobs", "serve.engine", _jobs_attr),
    ("repro.serve.frontend", "Frontend.submit_outcome", "serve.frontend", _key_attr),
    ("repro.serve.net.client", "NetClient.submit_outcome", "serve.net", _key_attr),
    ("repro.serve.net.client", "NetClient.ping", "serve.net.ping", None),
]

#: Span name -> per-layer metric holding its self time per operation.
SELF_METRICS = {
    "curve.decompose": "curve.decompose_ms",
    "curve.recode": "curve.recode_ms",
    "curve.msm": "curve.msm_ms",
    "trace.sm": "trace.sm_self_ms",
    "sched.problem": "sched.problem_ms",
    "sched.solve": "sched.solve_ms",
    "isa.regalloc": "isa.regalloc_ms",
    "isa.assemble": "isa.assemble_ms",
    "isa.fsm": "isa.fsm_ms",
    "isa.rebind": "isa.rebind_ms",
    "rtl.simulate": "rtl.simulate_ms",
    "flow.run": "flow.self_ms",
    "serve.engine": "serve.engine.self_ms_per_op",
    "serve.frontend": "serve.frontend.self_ms",
    "serve.net": "serve.net.self_ms",
}
UNATTRIBUTED = "unattributed_ms_per_op"


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def attribute(trees: Sequence[Sequence[Span]], n_ops: int) -> Dict[str, float]:
    """Self time per operation (ms) of every layer over the op trees.

    Each tree is one root span (the benchmark's own) and its
    descendants.  The root's self time, and that of any span no layer
    claims, is the unattributed remainder, so the returned self times
    add up to ``e2e_ms_per_op``, the summed root durations per op.
    """
    out = {name: 0.0 for name in SELF_METRICS.values()}
    out[UNATTRIBUTED] = 0.0
    e2e = 0.0
    for tree in trees:
        e2e += sum(s.duration for s in tree if s.parent is None)
        for name, secs in self_by_name(tree).items():
            metric = SELF_METRICS.get(name, UNATTRIBUTED)
            out[metric] += secs
    scale = 1e3 / n_ops if n_ops else 0.0
    out = {k: v * scale for k, v in out.items()}
    out["e2e_ms_per_op"] = e2e * scale
    return out


def op_trees(spans: Sequence[Span]) -> List[List[Span]]:
    """One tree per ``bench.op`` root (closed-loop workloads)."""
    return [subtree(spans, s.id) for s in spans if s.name == OP_ROOT]


def request_trees(spans: Sequence[Span]) -> Dict[str, Any]:
    """Join each open-loop request's spans across the two processes.

    For a request (the generator's ``bench.request``, from due time to
    reply) the chain is: client ``NetClient.submit_outcome`` -> server
    ``Frontend.submit_outcome`` (same payload key) -> the engine call
    whose jobs carried that key, with the engine call's own subtree.
    A request waits for its whole batch, so the batch's subtree counts
    fully toward each request it carried.
    """
    by_key: Dict[str, Dict[str, Span]] = {}
    engine_calls = [s for s in spans if s.name == "serve.engine" and "keys" in s.attrs]
    for s in spans:
        key = s.attrs.get("key")
        if key is not None:
            by_key.setdefault(key, {})[s.name] = s
    trees, queue_wait, net_overhead, unmatched = [], [], [], 0
    for key, named in by_key.items():
        req = named.get(REQUEST_ROOT)
        if req is None:
            continue
        client, server = named.get("serve.net"), named.get("serve.frontend")
        engine = next(
            (e for e in engine_calls
             if server is not None and e.start >= server.start and key in e.attrs["keys"]),
            None,
        )
        if client is None or engine is None:
            unmatched += 1
            continue
        tree = [
            req,
            replace(client, parent=req.id),
            replace(server, parent=client.id),
            replace(engine, parent=server.id),
        ]
        tree += [s for s in subtree(spans, engine.id) if s.id != engine.id]
        trees.append(tree)
        queue_wait.append(engine.start - server.start)
        net_overhead.append(client.duration - server.duration)
    return {
        "trees": trees,
        "queue_wait_ms": _mean(queue_wait) * 1e3,
        "net_overhead_ms": percentiles(net_overhead).get("p50", 0.0) * 1e3,
        "unmatched": unmatched,
    }


def window_counts(spans: Sequence[Span], all_spans: Sequence[Span], pid: int) -> Dict[str, float]:
    """Counts and ratios measured at the layer boundaries.

    ``spans`` are the spans inside the traced window; ``all_spans``
    also hold set-up and the correctness check.  The makespan is that
    of the window's schedules, else of the serving process (``pid``)'s
    first schedule, the warm-up's scalar multiplication.
    """
    def named(name, pool=spans):
        return [s for s in pool if s.name == name]

    sims = named("rtl.simulate")
    cycles = sum(s.attrs["cycles"] for s in sims)
    sim_host = sum(s.duration for s in sims)
    solves = named("sched.solve") or [
        s for s in all_spans if s.name == "sched.solve" and s.pid == pid][:1]
    return {
        "trace.ops_per_sm": _mean([s.attrs["ops"] for s in named("trace.sm")]),
        "curve.msm_items": _mean([s.attrs["items"] for s in named("curve.msm")]),
        "serve.engine.batch_items": _mean([s.attrs["items"] for s in named("serve.engine")]),
        "sched.makespan_cycles": max((s.attrs["makespan"] for s in solves), default=0),
        "rtl.sim_cycles_per_host_s": cycles / sim_host if sim_host else 0.0,
        "rtl.mult_util": sum(s.attrs["mult_issues"] for s in sims) / cycles if cycles else 0.0,
        "rtl.addsub_util": sum(s.attrs["addsub_issues"] for s in sims) / cycles if cycles else 0.0,
        "curve.ref_sm_ms": _mean([s.duration for s in named("curve.ref_sm", all_spans)]) * 1e3,
        "serve.net.ping_ms": (
            percentiles([s.duration for s in named("serve.net.ping", all_spans)]).get("p50", 0.0)
            * 1e3
        ),
    }
