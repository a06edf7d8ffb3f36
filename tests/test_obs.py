"""Tests for the observability layer: primitives, exports, integrations.

Covers the satellite bugfixes of the metrics PR — ``cycles_per_op``
dividing by successful ops, bounded latency reservoirs, thread-safe
cache counters, race-free default-engine construction — plus the
tentpole: registry snapshot/merge round-trips, export schema
validation, Prometheus rendering, and end-to-end metric recording
through the flow and the serving engine (serial and worker fan-out).
"""

import json
import random
import threading

import pytest

from repro.obs import (
    ExportSchemaError,
    MetricsRegistry,
    NullRegistry,
    Reservoir,
    counter_value,
    ensure_valid,
    percentile,
    render_report,
    to_prometheus,
    validate_export,
    write_exports,
)
from repro.serve.faults import Failed
from repro.serve.stats import LATENCY_SAMPLE_CAP, BatchStats


# -- reservoir ---------------------------------------------------------


def test_reservoir_exact_under_cap():
    r = Reservoir(cap=16)
    for v in [3.0, 1.0, 2.0]:
        r.append(v)
    assert r.count == 3
    assert len(r) == 3
    assert r.total == 6.0
    assert r.mean == 2.0
    assert sorted(r) == [1.0, 2.0, 3.0]
    assert r.percentile(0) == 1.0
    assert r.percentile(100) == 3.0


def test_reservoir_bounded_over_cap():
    r = Reservoir(cap=32)
    for i in range(5000):
        r.append(float(i))
    assert len(r) == 32          # retained set is capped...
    assert r.count == 5000       # ...the stream count is exact
    assert r.total == sum(range(5000))
    assert all(0 <= s < 5000 for s in r.samples)


def test_reservoir_deterministic():
    def fill():
        r = Reservoir(cap=8)
        for i in range(1000):
            r.append(float(i))
        return list(r.samples)

    assert fill() == fill()  # per-instance seeded RNG


def test_reservoir_merge_counts_and_bounds():
    a, b = Reservoir(cap=16), Reservoir(cap=16)
    for i in range(100):
        a.append(float(i))
    for i in range(300):
        b.append(1000.0 + i)
    a.merge(b)
    assert a.count == 400
    assert a.total == sum(range(100)) + sum(1000.0 + i for i in range(300))
    assert len(a) == 16
    # Weighted draw: the 3x larger stream should dominate the sample.
    assert sum(1 for s in a.samples if s >= 1000.0) > len(a.samples) // 2


def test_reservoir_percentile_tolerance():
    # Quantiles over the retained subsample track the exact quantiles.
    rng = random.Random(42)
    values = [rng.random() for _ in range(5000)]
    r = Reservoir(cap=512)
    for v in values:
        r.append(v)
    for q in (50, 90, 99):
        assert abs(r.percentile(q) - percentile(values, q)) < 0.1


# -- registry ----------------------------------------------------------


def test_registry_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("c_total", kind="x").inc()
    reg.counter("c_total", kind="x").inc(2)
    reg.counter("c_total", kind="y").inc(5)
    assert reg.value("c_total", kind="x") == 3
    assert reg.value("c_total", kind="y") == 5

    g = reg.gauge("g_max", mode="max")
    g.set(4)
    g.set(2)
    assert reg.value("g_max") == 4
    reg.gauge("g_last").set(7)
    reg.gauge("g_last").set(1)
    assert reg.value("g_last") == 1

    h = reg.histogram("h_seconds")
    for v in (0.0001, 0.003, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(2.0031)
    assert sum(h.bucket_counts) == 3

    with pytest.raises(TypeError):
        reg.gauge("c_total", kind="x")
    with pytest.raises(ValueError):
        reg.counter("c_total", kind="x").inc(-1)


def test_registry_time_span():
    reg = MetricsRegistry()
    with reg.time("span_seconds", stage="s"):
        pass
    h = reg.histogram("span_seconds", stage="s")
    assert h.count == 1
    assert h.sum >= 0.0


def test_snapshot_merge_round_trip():
    reg = MetricsRegistry()
    reg.counter("ops_total", kind="sm").inc(7)
    reg.gauge("peak", mode="max").set(9)
    h = reg.histogram("lat_seconds")
    for v in (0.001, 0.02, 0.5):
        h.observe(v)
    snap = reg.snapshot()

    other = MetricsRegistry()
    other.merge_snapshot(snap)
    other.merge_snapshot(snap)  # merging twice doubles counters...
    assert other.value("ops_total", kind="sm") == 14
    assert other.value("peak") == 9  # ...but max-gauges keep the max
    h2 = other.histogram("lat_seconds")
    assert h2.count == 6
    assert h2.sum == pytest.approx(2 * h.sum)
    assert [2 * c for c in h.bucket_counts] == h2.bucket_counts


def test_merge_rejects_mismatched_schema_and_bounds():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.merge_snapshot({"schema": "something/else"})
    reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    incoming = MetricsRegistry()
    incoming.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
    with pytest.raises(ValueError):
        reg.merge_snapshot(incoming.snapshot())


def test_snapshot_is_json_safe():
    reg = MetricsRegistry()
    reg.histogram("h").observe(1e9)  # lands in the +Inf bucket
    text = json.dumps(reg.snapshot())
    assert "Infinity" not in text
    assert "+Inf" in text


def test_null_registry_records_nothing():
    reg = NullRegistry()
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    with reg.time("t"):
        pass
    snap = reg.snapshot()
    assert snap["counters"] == [] and snap["histograms"] == []
    assert validate_export(snap) == []


# -- export / validation -----------------------------------------------


def test_validate_export_accepts_real_snapshot():
    reg = MetricsRegistry()
    reg.counter("a_total").inc(3)
    reg.gauge("b", mode="max").set(2)
    reg.histogram("c_seconds").observe(0.01)
    assert validate_export(reg.snapshot()) == []
    assert ensure_valid(reg.snapshot())["schema"] == "repro.obs/v1"


def test_validate_export_rejects_bad_documents():
    assert validate_export([]) == ["document is not a JSON object"]
    assert validate_export({"schema": "nope"})

    reg = MetricsRegistry()
    reg.counter("a_total").inc(3)
    doc = reg.snapshot()
    doc["counters"][0]["value"] = -1
    assert any("negative" in e for e in validate_export(doc))

    reg2 = MetricsRegistry()
    reg2.histogram("h").observe(0.01)
    doc2 = reg2.snapshot()
    doc2["histograms"][0]["buckets"][0]["count"] += 1  # sum != count
    assert any("sum to" in e for e in validate_export(doc2))
    with pytest.raises(ExportSchemaError):
        ensure_valid(doc2)


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("req_total", path="hit").inc(4)
    reg.gauge("ports_max", mode="max").set(2)
    h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = to_prometheus(reg.snapshot())
    assert '# TYPE req_total counter' in text
    assert 'req_total{path="hit"} 4' in text
    assert '# TYPE lat_seconds histogram' in text
    # Cumulative le-series: 1 under 0.1, 2 under 1.0, 3 under +Inf.
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert 'lat_seconds_count 3' in text


def test_write_exports_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("x_total").inc()
    json_path, prom_path = write_exports(
        reg.snapshot(), str(tmp_path / "m.json")
    )
    with open(json_path) as fh:
        doc = json.load(fh)
    assert validate_export(doc) == []
    assert doc == reg.snapshot()
    with open(prom_path) as fh:
        assert "x_total 1" in fh.read()


def test_write_exports_refuses_invalid(tmp_path):
    target = tmp_path / "m.json"
    with pytest.raises(ExportSchemaError):
        write_exports({"schema": "bad"}, str(target))
    assert not target.exists()  # nothing written on failure


def test_render_report_mentions_derived_figures():
    reg = MetricsRegistry()
    reg.counter("repro_datapath_cycles_total").inc(100)
    reg.counter("repro_datapath_unit_issues_total", unit="mult").inc(60)
    reg.counter("repro_datapath_unit_issues_total", unit="addsub").inc(40)
    report = render_report(reg.snapshot())
    assert "schedule density" in report
    assert "50.0%" in report  # (60 + 40) / (2 * 100)


def test_render_report_network_front_door_section():
    reg = MetricsRegistry()
    reg.counter("repro_net_connections_total", event="opened").inc(3)
    reg.counter("repro_net_connections_total", event="refused").inc(1)
    reg.gauge("repro_net_connections_open").set(2)
    reg.counter("repro_net_requests_total", kind="sm", outcome="ok").inc(40)
    reg.counter("repro_net_requests_total", kind="sm",
                outcome="deadline").inc(2)
    reg.counter("repro_net_frames_total", direction="in",
                type="REQUEST").inc(42)
    reg.counter("repro_net_bytes_total", direction="in").inc(9000)
    reg.counter("repro_net_rr_grants_total").inc(42)
    reg.counter("repro_net_shed_total", reason="pending_cap").inc(5)
    reg.counter("repro_net_protocol_errors_total", kind="bad_body").inc(1)
    reg.histogram("repro_net_request_latency_seconds").observe(0.012)
    report = render_report(reg.snapshot())
    assert "network front door (TCP)" in report
    assert "opened=3" in report and "refused=1" in report
    assert "ok        : 40" in report
    assert "shed[pending_cap]: 5" in report
    assert "protocol error[bad_body]: 1" in report
    assert "rr grants   : 42" in report
    assert "request latency" in report


def test_render_report_skips_net_section_when_absent():
    reg = MetricsRegistry()
    reg.counter("repro_datapath_cycles_total").inc(10)
    assert "network front door" not in render_report(reg.snapshot())


# -- BatchStats bugfixes -----------------------------------------------


def test_cycles_per_op_divides_by_ok_count():
    stats = BatchStats()
    stats.simulated_cycles = 6000
    # 8 items total, 2 failed -> 6 ok
    stats.count_outcomes(
        [True] * 6
        + [Failed(kind="decoding", message=""),
           Failed(kind="small_order", message="")]
    )
    assert stats.ok_count == 6
    assert stats.cycles_per_op == pytest.approx(1000.0)  # not 6000/8 == 750


def test_cycles_per_op_all_failed_is_zero():
    stats = BatchStats()
    stats.count_outcomes([Failed(kind="decoding", message="")] * 2)
    assert stats.cycles_per_op == 0.0


def test_latency_reservoirs_are_bounded():
    stats = BatchStats()
    for i in range(5000):
        stats.latencies.append(float(i))
    assert len(stats.latencies) <= LATENCY_SAMPLE_CAP
    assert stats.latencies.count == 5000
    # Quantiles still answer over the retained samples.
    assert 0.0 <= stats.p50_latency < 5000.0


def test_batchstats_merge_folds_reservoirs():
    a, b = BatchStats(), BatchStats()
    a.latencies.extend([0.1, 0.2])
    b.latencies.extend([0.3, 0.4])
    b.simulated_cycles = 10
    a.merge(b)
    assert a.latencies.count == 4
    assert sorted(a.latencies) == [0.1, 0.2, 0.3, 0.4]
    assert a.simulated_cycles == 10
    # The per-item fields come from the final slots, not from merging.
    a.count_outcomes(
        ["ok"] * 3 + [Failed(kind="timeout", message="", latency=0.5)]
    )
    assert a.ops == 4
    assert a.errors_by_kind == {"timeout": 1}
    assert list(a.error_latencies) == [0.5]


# -- thread-safety -----------------------------------------------------


def test_registry_threaded_increments_lossless():
    reg = MetricsRegistry()
    N, T = 2000, 8

    def work():
        c = reg.counter("hammer_total")
        h = reg.histogram("hammer_seconds")
        for _ in range(N):
            c.inc()
            h.observe(0.001)

    threads = [threading.Thread(target=work) for _ in range(T)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.value("hammer_total") == N * T
    assert reg.histogram("hammer_seconds").count == N * T


def test_cache_counters_threaded():
    from repro.serve.cache import FlowArtifactCache

    cache = FlowArtifactCache(max_entries=4)
    N, T = 1000, 8

    def work():
        for i in range(N):
            cache.get(f"missing-{i}")

    threads = [threading.Thread(target=work) for _ in range(T)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every get was a miss; no increment may be lost.
    assert cache.counters() == (0, N * T, 0)
    snap = cache.stats_snapshot()
    assert snap["misses"] == N * T and snap["hits"] == 0


def test_default_engine_race_free():
    import repro.serve.engine as engine_mod

    saved = engine_mod._DEFAULT_ENGINE
    engine_mod._DEFAULT_ENGINE = None
    try:
        winners = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            winners.append(engine_mod.default_engine())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 8
        assert all(w is winners[0] for w in winners)
    finally:
        engine_mod._DEFAULT_ENGINE = saved


def test_cache_survives_pickling_without_lock():
    import pickle

    from repro.serve.cache import FlowArtifactCache

    cache = FlowArtifactCache(max_entries=4)
    cache.get("missing")
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.misses == 1
    clone.get("also-missing")  # the restored lock works
    assert clone.misses == 2


# -- end-to-end integration --------------------------------------------


def _private_engine(**kwargs):
    from repro.serve import BatchEngine

    reg = MetricsRegistry()
    return BatchEngine(metrics=reg, **kwargs), reg


def test_engine_records_flow_and_serve_metrics():
    engine, reg = _private_engine()
    engine.warm()
    result = engine.batch_scalarmult([3, 5, 7])
    assert result.stats.ops == 3
    snap = reg.snapshot()
    assert validate_export(snap) == []
    assert counter_value(snap, "repro_serve_items_total", outcome="ok") == 3
    # warm() + 3 batch items each ran one simulation.
    assert counter_value(snap, "repro_datapath_runs_total") == 4
    assert counter_value(snap, "repro_datapath_cycles_total") > 0
    stages = {
        e["labels"]["stage"]
        for e in snap["histograms"]
        if e["name"] == "repro_flow_stage_seconds"
    }
    # Miss path + hit path both observed.
    assert {"trace", "problem", "solve", "regalloc",
            "assemble", "rebind", "simulate"} <= stages
    assert counter_value(snap, "repro_flow_requests_total", path="hit") == 3
    assert counter_value(snap, "repro_cache_events_total", event="hit") == 3
    # Derived utilization is well-formed (cf. paper Table I density).
    cycles = counter_value(snap, "repro_datapath_cycles_total")
    issues = counter_value(snap, "repro_datapath_unit_issues_total")
    assert 0.0 < issues / (2 * cycles) <= 1.0


def test_engine_records_error_taxonomy():
    from repro.curve.encoding import encode_point
    from repro.curve.point import AffinePoint

    engine, reg = _private_engine()
    good = encode_point(AffinePoint.generator())
    bad_decode = b"\xff" * 32
    small_order = encode_point(AffinePoint.identity())
    result = engine.batch_dh(5, [good, bad_decode, small_order])
    assert result.stats.errors == 2
    snap = reg.snapshot()
    assert counter_value(snap, "repro_serve_items_total", outcome="error") == 2
    assert counter_value(snap, "repro_serve_errors_total", kind="decoding") == 1
    assert counter_value(snap, "repro_serve_errors_total", kind="small_order") == 1


def test_worker_registry_merge_matches_serial():
    """Counter totals from a workers=2 poisoned batch equal the serial run."""
    from repro.curve.encoding import encode_point
    from repro.curve.point import AffinePoint
    from repro.dsa import fourq_dh

    rng = random.Random(0xABC)
    me = fourq_dh.generate_keypair(rng)
    # Distinct peers (dedup is per-chunk in parallel mode) + 2 poisoned.
    pubs = [fourq_dh.generate_keypair(rng).public_bytes for _ in range(6)]
    pubs[1] = b"\xff" * 32
    pubs[4] = encode_point(AffinePoint.identity())

    serial_engine, serial_reg = _private_engine()
    serial = serial_engine.batch_dh(me.private, pubs, workers=0)
    par_engine, par_reg = _private_engine()
    parallel = par_engine.batch_dh(me.private, pubs, workers=2)

    assert parallel.results == serial.results
    s, p = serial_reg.snapshot(), par_reg.snapshot()
    for name, labels in [
        ("repro_serve_items_total", {"outcome": "ok"}),
        ("repro_serve_items_total", {"outcome": "error"}),
        ("repro_serve_errors_total", {"kind": "decoding"}),
        ("repro_serve_errors_total", {"kind": "small_order"}),
        ("repro_datapath_runs_total", {}),
        ("repro_datapath_cycles_total", {}),
    ]:
        assert counter_value(p, name, **labels) == counter_value(
            s, name, **labels
        ), name
    assert validate_export(p) == []
