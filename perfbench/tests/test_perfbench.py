"""Tests of the benchmark's own machinery.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import asyncio
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _span(sid, name, start, end, parent=None, pid=1, **attrs):
    return Span(sid, name, start, end, parent, pid, 0, attrs)


# -- self time and the unattributed remainder ---------------------------------

def test_self_time_subtracts_children_and_sums_to_root():
    tree = [
        _span(1, layers.OP_ROOT, 0.0, 10.0),
        _span(2, "serve.engine", 1.0, 4.0, parent=1),
        _span(3, "rtl.simulate", 2.0, 3.0, parent=2),
        _span(4, "trace.sm", 5.0, 6.0, parent=1),
    ]
    st = spans.self_times(tree)
    assert st == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(st.values()) == tree[0].duration


def test_self_time_counts_overlapping_children_once_and_clips():
    tree = [
        _span(1, "a", 0.0, 10.0),
        _span(2, "b", 1.0, 4.0, parent=1),
        _span(3, "c", 3.0, 6.0, parent=1),   # overlaps b on [3, 4]
        _span(4, "d", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_attribute_reports_unattributed_and_adds_up():
    tree = [
        _span(1, layers.OP_ROOT, 0.0, 0.010),
        _span(2, "serve.engine", 0.001, 0.004, parent=1),
        _span(3, "rtl.simulate", 0.002, 0.003, parent=2),
        _span(4, "something.unclaimed", 0.005, 0.006, parent=1),
    ]
    out = layers.attribute([tree], n_ops=2)
    assert out["serve.engine.self_ms_per_op"] == pytest.approx(1.0)
    assert out["rtl.simulate_ms"] == pytest.approx(0.5)
    # Root self (6 ms) plus the unclaimed span (1 ms), over two ops.
    assert out[layers.UNATTRIBUTED] == pytest.approx(3.5)
    parts = sum(out[m] for m in layers.SELF_METRICS.values()) + out[layers.UNATTRIBUTED]
    assert parts == pytest.approx(out["e2e_ms_per_op"]) == pytest.approx(5.0)


def test_request_trees_join_client_server_and_batch():
    # Two requests share one engine call; times in seconds on one clock.
    s = [
        _span(1, layers.REQUEST_ROOT, 0.000, 0.050, key="sm:1"),
        _span(2, "serve.net", 0.001, 0.049, key="sm:1"),
        _span(3, layers.REQUEST_ROOT, 0.002, 0.052, key="sm:2", pid=1),
        _span(4, "serve.net", 0.003, 0.051, key="sm:2"),
        _span(10, "serve.frontend", 0.002, 0.047, pid=2, key="sm:1"),
        _span(11, "serve.frontend", 0.004, 0.048, pid=2, key="sm:2"),
        _span(12, "serve.engine", 0.010, 0.045, pid=2, keys=["sm:1", "sm:2"], items=2),
        _span(13, "rtl.simulate", 0.011, 0.040, parent=12, pid=2, cycles=1),
    ]
    joined = layers.request_trees(s)
    assert joined["unmatched"] == 0 and len(joined["trees"]) == 2
    assert joined["queue_wait_ms"] == pytest.approx((8.0 + 6.0) / 2)
    out = layers.attribute(joined["trees"], len(joined["trees"]))
    assert out["rtl.simulate_ms"] == pytest.approx(29.0)
    parts = sum(out[m] for m in layers.SELF_METRICS.values()) + out[layers.UNATTRIBUTED]
    assert parts == pytest.approx(out["e2e_ms_per_op"]) == pytest.approx(50.0)


# -- percentiles ----------------------------------------------------------------

def test_p90_needs_one_hundred_samples():
    assert spans.P90_MIN_SAMPLES == 100
    few = spans.percentiles([float(i) for i in range(99)])
    assert few["n"] == 99 and "p50" in few and "p90" not in few
    enough = spans.percentiles([float(i) for i in range(100)])
    assert enough["p90"] == pytest.approx(89.9)


# -- seeded inputs --------------------------------------------------------------

def _take(it, n):
    return [next(it) for _ in range(n)]


def test_design_inputs_are_seed_determined():
    assert _take(workloads.design_ops(5), 3) == _take(workloads.design_ops(5), 3)
    assert _take(workloads.design_ops(6), 3) != _take(workloads.design_ops(5), 3)


def test_net_schedule_is_seed_determined_with_exact_mix():
    def summary(seed):
        return [(a.offset, a.kind, layers.payload_key(a.kind, a.payload))
                for a in workloads.net_schedule(seed, 2.0)]

    assert summary(5) == summary(5)
    assert summary(6) != summary(5)
    sched = workloads.net_schedule(5, 2.0)
    n = len(sched)
    assert n == round(workloads.RATE_RPS * 2.0)
    kinds = [a.kind for a in sched]
    assert kinds.count("dh") == kinds.count("verify_msm") == n // 4
    assert kinds.count("sm") == n - 2 * (n // 4)
    assert [a.offset for a in sched] == sorted(a.offset for a in sched)
    assert len({layers.payload_key(a.kind, a.payload) for a in sched}) == len(sched)


# -- open loop --------------------------------------------------------------------

def test_open_loop_latency_counts_from_due_time():
    arrivals = [workloads.Arrival(0.000, "sm", ()), workloads.Arrival(0.001, "sm", ())]

    async def submit(i, a):
        if i == 0:
            time.sleep(0.05)  # stalls the generator past request 1's due time
        return i

    async def go():
        return await workloads.open_loop(arrivals, time.perf_counter() + 0.01, submit)

    first, second = asyncio.run(go())
    assert second.lateness >= 0.04
    assert second.done - second.sent < 0.01
    assert second.latency == second.done - second.due >= 0.04


# -- wrappers ---------------------------------------------------------------------

def test_install_records_nested_spans_and_restores(monkeypatch):
    mod = types.ModuleType("pb_fake")

    class Thing:
        def inner(self, x):
            return x + 1

    def outer(x):
        return Thing().inner(x) * 2

    async def remote(x):
        return x

    mod.Thing, mod.outer, mod.remote = Thing, outer, remote
    original_inner = Thing.inner
    monkeypatch.setitem(sys.modules, "pb_fake", mod)
    rec = spans.SpanRecorder()
    uninstall = spans.install(rec, [
        ("pb_fake", "outer", "layer.outer", None),
        ("pb_fake", "Thing.inner", "layer.inner", lambda a, k, r: {"r": r}),
        ("pb_fake", "remote", "layer.remote", None),
    ])
    assert mod.outer(1) == 4
    assert asyncio.run(mod.remote(7)) == 7
    rec.enabled = False
    assert mod.outer(1) == 4
    inner, outer_span, remote_span = rec.spans
    assert (inner.name, outer_span.name, remote_span.name) == ("layer.inner", "layer.outer", "layer.remote")
    assert inner.parent == outer_span.id and outer_span.parent is None
    assert inner.attrs == {"r": 2} and remote_span.parent is None
    uninstall()
    assert mod.outer is outer and Thing.__dict__["inner"] is original_inner


def test_chrome_trace_is_trace_event_json(tmp_path):
    path = tmp_path / "t.json"
    spans.write_chrome_trace(str(path), [_span(1, "rtl.simulate", 1.0, 1.5, pid=7)])
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["ph"] == "X" and event["pid"] == 7
    assert event["ts"] == 1e6 and event["dur"] == 0.5e6


# -- the contract file --------------------------------------------------------------

def test_benchmark_json_names_the_runners_workloads():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS) == ("net_mixed_open", "design_flow_cold")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]) <= 0.25
