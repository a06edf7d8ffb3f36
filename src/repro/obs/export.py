"""Export, validation, and rendering of metrics snapshots.

A snapshot (``MetricsRegistry.snapshot()``) is a plain-data document,
schema ``repro.obs/v1``::

    {
      "schema": "repro.obs/v1",
      "counters":   [{"name", "labels", "value"}, ...],
      "gauges":     [{"name", "labels", "value", "mode"}, ...],
      "histograms": [{"name", "labels", "count", "sum",
                      "buckets": [{"le": <float or "+Inf">, "count"}, ...],
                      "samples": [...], "p50", "p99"}, ...]
    }

Bucket counts are stored *non-cumulative* (merge by elementwise add);
:func:`to_prometheus` accumulates them into the cumulative ``le``
series the text exposition format requires.  ``samples`` is the
histogram reservoir's retained set (bounded, see
:data:`~repro.obs.metrics.DEFAULT_RESERVOIR_CAP`), carried so merges
downstream can keep estimating quantiles.

:func:`validate_export` checks a document against the schema and
returns a list of problems (empty = valid); :func:`write_exports`
validates and writes both the JSON and the Prometheus text file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from .metrics import SCHEMA, MetricsRegistry


class ExportSchemaError(ValueError):
    """A metrics export document failed schema validation."""


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_entry(entry, section: str, i: int, errors: List[str]) -> bool:
    """Shared name/labels validation; returns False when unusable."""
    where = f"{section}[{i}]"
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return False
    if not isinstance(entry.get("name"), str) or not entry["name"]:
        errors.append(f"{where}: missing or empty 'name'")
        return False
    labels = entry.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append(f"{where} ({entry['name']}): 'labels' must map str->str")
        return False
    return True


def validate_export(doc) -> List[str]:
    """Validate a snapshot document; returns problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), list):
            errors.append(f"'{section}' missing or not a list")
    if errors:
        return errors

    for i, entry in enumerate(doc["counters"]):
        if not _check_entry(entry, "counters", i, errors):
            continue
        if not _is_num(entry.get("value")) or entry["value"] < 0:
            errors.append(f"counter {entry['name']}: non-numeric or negative value")
    for i, entry in enumerate(doc["gauges"]):
        if not _check_entry(entry, "gauges", i, errors):
            continue
        if not _is_num(entry.get("value")):
            errors.append(f"gauge {entry['name']}: non-numeric value")
        if entry.get("mode") not in ("last", "max"):
            errors.append(f"gauge {entry['name']}: bad mode {entry.get('mode')!r}")
    for i, entry in enumerate(doc["histograms"]):
        if not _check_entry(entry, "histograms", i, errors):
            continue
        name = entry["name"]
        if not isinstance(entry.get("count"), int) or entry["count"] < 0:
            errors.append(f"histogram {name}: bad 'count'")
        if not _is_num(entry.get("sum")):
            errors.append(f"histogram {name}: bad 'sum'")
        buckets = entry.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            errors.append(f"histogram {name}: 'buckets' missing or empty")
            continue
        bucket_total = 0
        last_bound = float("-inf")
        for b in buckets[:-1]:
            if not isinstance(b, dict) or not _is_num(b.get("le")):
                errors.append(f"histogram {name}: non-numeric bucket bound")
                break
            if b["le"] <= last_bound:
                errors.append(f"histogram {name}: bucket bounds not ascending")
                break
            last_bound = b["le"]
        if buckets[-1].get("le") != "+Inf":
            errors.append(f"histogram {name}: final bucket must be '+Inf'")
        for b in buckets:
            count = b.get("count") if isinstance(b, dict) else None
            if not isinstance(count, int) or count < 0:
                errors.append(f"histogram {name}: bad bucket count")
                break
            bucket_total += count
        else:
            if bucket_total != entry.get("count"):
                errors.append(
                    f"histogram {name}: bucket counts sum to {bucket_total}, "
                    f"'count' says {entry.get('count')}"
                )
        samples = entry.get("samples")
        if not isinstance(samples, list) or not all(_is_num(s) for s in samples):
            errors.append(f"histogram {name}: 'samples' must be a number list")
        elif isinstance(entry.get("count"), int) and len(samples) > entry["count"]:
            errors.append(f"histogram {name}: more retained samples than count")
    return errors


def ensure_valid(doc) -> dict:
    """Return ``doc`` if schema-valid, else raise :class:`ExportSchemaError`."""
    errors = validate_export(doc)
    if errors:
        raise ExportSchemaError(
            "metrics export failed schema validation:\n  " + "\n  ".join(errors)
        )
    return doc


def _prom_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = sorted(labels.items()) + list(extra)
    if not items:
        return ""
    def esc(v: str) -> str:
        return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return "{" + ",".join(f'{k}="{esc(str(v))}"' for k, v in items) + "}"


def _prom_num(v) -> str:
    if v == int(v):
        return str(int(v))
    return repr(float(v))


def to_prometheus(doc: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in doc["counters"]:
        declare(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_prom_labels(entry['labels'])} "
            f"{_prom_num(entry['value'])}"
        )
    for entry in doc["gauges"]:
        declare(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_prom_labels(entry['labels'])} "
            f"{_prom_num(entry['value'])}"
        )
    for entry in doc["histograms"]:
        name = entry["name"]
        declare(name, "histogram")
        cumulative = 0
        for bucket in entry["buckets"]:
            cumulative += bucket["count"]
            le = bucket["le"]
            le_text = "+Inf" if le == "+Inf" else _prom_num(le)
            lines.append(
                f"{name}_bucket{_prom_labels(entry['labels'], (('le', le_text),))} "
                f"{cumulative}"
            )
        lines.append(
            f"{name}_sum{_prom_labels(entry['labels'])} {_prom_num(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_prom_labels(entry['labels'])} {entry['count']}"
        )
    return "\n".join(lines) + "\n"


def write_exports(doc: dict, json_path: str) -> Tuple[str, str]:
    """Validate ``doc`` and write JSON + Prometheus text side by side.

    The Prometheus file lands next to ``json_path`` with a ``.prom``
    suffix (``m.json`` -> ``m.prom``).  Raises
    :class:`ExportSchemaError` before writing anything if the document
    is invalid, so a bad export can never reach a scrape target.
    """
    ensure_valid(doc)
    root, ext = os.path.splitext(json_path)
    prom_path = (root if ext else json_path) + ".prom"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prom_path, "w") as fh:
        fh.write(to_prometheus(doc))
    return json_path, prom_path


def _find(doc: dict, section: str, name: str, **labels: str):
    for entry in doc[section]:
        if entry["name"] == name and all(
            entry["labels"].get(k) == v for k, v in labels.items()
        ):
            yield entry


def counter_value(doc: dict, name: str, **labels: str) -> float:
    """Sum of every counter series matching name + label subset."""
    return sum(e["value"] for e in _find(doc, "counters", name, **labels))


def render_report(doc: dict) -> str:
    """Human-readable report of a snapshot, with derived pipeline figures.

    Beyond the raw series, derives the numbers the paper reports:
    per-unit utilization and the schedule-density figure comparable to
    Table I (issue slots filled / slots available across both units).
    """
    lines: List[str] = []

    cycles = counter_value(doc, "repro_datapath_cycles_total")
    if cycles:
        mult = counter_value(doc, "repro_datapath_unit_issues_total", unit="mult")
        addsub = counter_value(doc, "repro_datapath_unit_issues_total", unit="addsub")
        mult_busy = counter_value(
            doc, "repro_datapath_unit_busy_cycles_total", unit="mult"
        )
        addsub_busy = counter_value(
            doc, "repro_datapath_unit_busy_cycles_total", unit="addsub"
        )
        fwd = counter_value(doc, "repro_datapath_forward_uses_total")
        reads = counter_value(doc, "repro_datapath_regfile_reads_total")
        writes = counter_value(doc, "repro_datapath_regfile_writes_total")
        lines.append("pipeline utilization (datapath)")
        lines.append(f"  simulated cycles      : {int(cycles)}")
        lines.append(
            f"  mult issue/busy       : {mult / cycles:6.1%} / {mult_busy / cycles:6.1%}"
        )
        lines.append(
            f"  addsub issue/busy     : {addsub / cycles:6.1%} / {addsub_busy / cycles:6.1%}"
        )
        lines.append(
            f"  schedule density      : {(mult + addsub) / (2 * cycles):6.1%}"
            "  (issue slots filled, cf. paper Table I)"
        )
        lines.append(
            f"  regfile reads/writes  : {reads / cycles:.2f} / {writes / cycles:.2f} per cycle"
        )
        lines.append(f"  forwarding uses       : {int(fwd)}")
        lines.append("")

    stage_rows = [
        e for e in doc["histograms"] if e["name"] == "repro_flow_stage_seconds"
    ]
    if stage_rows:
        lines.append("flow stage wall time")
        for entry in stage_rows:
            stage = entry["labels"].get("stage", "?")
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  {stage:<10}: n={entry['count']:<6} mean {mean * 1e3:8.2f} ms"
                f"  p50 {entry['p50'] * 1e3:8.2f} ms  p99 {entry['p99'] * 1e3:8.2f} ms"
            )
        lines.append("")

    opt_runs = [e for e in doc["counters"] if e["name"] == "repro_opt_runs_total"]
    if opt_runs:
        lines.append("trace optimizer")
        for entry in opt_runs:
            level = entry["labels"].get("level", "?")
            lines.append(f"  runs ({level}): {int(entry['value'])}")
        removed = [
            e for e in doc["counters"] if e["name"] == "repro_opt_ops_removed_total"
        ]
        for entry in removed:
            pass_name = entry["labels"].get("pass", "?")
            lines.append(f"  ops removed ({pass_name}): {int(entry['value'])}")
        segments = [
            e for e in doc["counters"] if e["name"] == "repro_opt_segments_total"
        ]
        for entry in segments:
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  segments ({outcome}): {int(entry['value'])}")
        lines.append("")

    cache_events = [
        e for e in doc["counters"] if e["name"] == "repro_cache_events_total"
    ]
    if cache_events:
        by_event = {e["labels"].get("event", "?"): e["value"] for e in cache_events}
        hits = by_event.get("hit", 0)
        misses = by_event.get("miss", 0)
        total = hits + misses
        lines.append("flow-artifact cache")
        for event in sorted(by_event):
            lines.append(f"  {event:<10}: {int(by_event[event])}")
        if total:
            lines.append(f"  hit rate  : {hits / total:.1%}")
        lines.append("")

    admissions = [
        e for e in doc["counters"] if e["name"] == "repro_frontend_admissions_total"
    ]
    if admissions:
        lines.append("frontend (continuous batching)")
        results = list(_find(doc, "counters", "repro_frontend_results_total"))
        for entry in admissions + results:
            kind = entry["labels"].get("kind", "?")
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  {kind:<8} {outcome:<9}: {int(entry['value'])}")
        for entry in _find(doc, "counters", "repro_frontend_flushes_total"):
            kind = entry["labels"].get("kind", "?")
            reason = entry["labels"].get("reason", "?")
            lines.append(f"  flush[{kind}/{reason}]: {int(entry['value'])}")
        for entry in _find(doc, "histograms", "repro_frontend_batch_size"):
            kind = entry["labels"].get("kind", "?")
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  batch size[{kind}]  : mean {mean:.1f}  p50 {entry['p50']:.0f}"
                f"  p99 {entry['p99']:.0f}"
            )
        for entry in _find(doc, "histograms", "repro_frontend_e2e_latency_seconds"):
            kind = entry["labels"].get("kind", "?")
            lines.append(
                f"  e2e latency[{kind}] : p50 {entry['p50'] * 1e3:.1f} ms"
                f"  p99 {entry['p99'] * 1e3:.1f} ms"
            )
        lines.append("")

    net_conns = [
        e for e in doc["counters"] if e["name"] == "repro_net_connections_total"
    ]
    net_requests = [
        e for e in doc["counters"] if e["name"] == "repro_net_requests_total"
    ]
    if net_conns or net_requests:
        lines.append("network front door (TCP)")
        by_event = {e["labels"].get("event", "?"): e["value"] for e in net_conns}
        conn_bits = "  ".join(
            f"{event}={int(by_event[event])}" for event in sorted(by_event)
        )
        open_rows = list(_find(doc, "gauges", "repro_net_connections_open"))
        if open_rows:
            conn_bits += f"  open={int(open_rows[0]['value'])}"
        lines.append(f"  connections : {conn_bits}")
        for entry in net_requests:
            kind = entry["labels"].get("kind", "?")
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  {kind:<8} {outcome:<10}: {int(entry['value'])}")
        frames_in = counter_value(doc, "repro_net_frames_total", direction="in")
        frames_out = counter_value(doc, "repro_net_frames_total", direction="out")
        bytes_in = counter_value(doc, "repro_net_bytes_total", direction="in")
        bytes_out = counter_value(doc, "repro_net_bytes_total", direction="out")
        if frames_in or frames_out:
            lines.append(
                f"  frames in/out : {int(frames_in)} / {int(frames_out)}"
                f"  ({int(bytes_in)} / {int(bytes_out)} bytes)"
            )
        grants = counter_value(doc, "repro_net_rr_grants_total")
        if grants:
            lines.append(f"  rr grants   : {int(grants)}")
        for entry in _find(doc, "counters", "repro_net_shed_total"):
            reason = entry["labels"].get("reason", "?")
            lines.append(f"  shed[{reason}]: {int(entry['value'])}")
        for entry in _find(doc, "counters", "repro_net_protocol_errors_total"):
            kind = entry["labels"].get("kind", "?")
            lines.append(f"  protocol error[{kind}]: {int(entry['value'])}")
        for entry in _find(doc, "histograms", "repro_net_request_latency_seconds"):
            lines.append(
                f"  request latency : p50 {entry['p50'] * 1e3:.1f} ms"
                f"  p99 {entry['p99'] * 1e3:.1f} ms"
            )
        lines.append("")

    items = [e for e in doc["counters"] if e["name"] == "repro_serve_items_total"]
    if items:
        lines.append("serving items")
        for entry in items:
            kind = entry["labels"].get("kind", "?")
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  {kind:<8} {outcome:<6}: {int(entry['value'])}")
        errors = [
            e for e in doc["counters"] if e["name"] == "repro_serve_errors_total"
        ]
        for entry in errors:
            lines.append(
                f"  error[{entry['labels'].get('kind', '?')}]: {int(entry['value'])}"
            )
        lines.append("")

    msm_batches = [
        e for e in doc["counters"] if e["name"] == "repro_msm_batches_total"
    ]
    msm_items = [
        e for e in doc["counters"] if e["name"] == "repro_msm_items_total"
    ]
    if msm_batches or msm_items:
        lines.append("batch verification (randomized MSM)")
        for entry in msm_batches:
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  batches[{outcome}]: {int(entry['value'])}")
        for entry in msm_items:
            verdict = entry["labels"].get("verdict", "?")
            lines.append(f"  items[{verdict}] : {int(entry['value'])}")
        fallbacks = counter_value(doc, "repro_msm_fallback_verifies_total")
        if fallbacks:
            lines.append(f"  fallback per-item verifies: {int(fallbacks)}")
        for entry in _find(doc, "histograms", "repro_msm_batch_size"):
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  batch size : mean {mean:.1f}  p50 {entry['p50']:.0f}"
                f"  p99 {entry['p99']:.0f}"
            )
        for entry in _find(doc, "gauges", "repro_msm_simulated_cycles_per_op"):
            lines.append(
                f"  simulated cycles/op : {entry['value']:.0f}"
                "  (window-kernel extrapolation)"
            )
        lines.append("")

    _POOL_STATES = {0: "stopped", 1: "running", 2: "broken"}
    _BREAKER_STATES = {0: "closed", 1: "half_open", 2: "open"}
    pool_gauges = list(_find(doc, "gauges", "repro_pool_state"))
    breaker_gauges = list(_find(doc, "gauges", "repro_breaker_state"))
    retry_attempts = counter_value(doc, "repro_retry_attempts_total")
    deadline_expired = counter_value(doc, "repro_deadline_expired_total")
    if pool_gauges or breaker_gauges or retry_attempts or deadline_expired:
        lines.append("resilience (pool / breaker / retries / deadlines)")
        for entry in pool_gauges:
            state = _POOL_STATES.get(int(entry["value"]), str(entry["value"]))
            workers_rows = list(_find(doc, "gauges", "repro_pool_workers"))
            workers = workers_rows[0]["value"] if workers_rows else 0
            lines.append(f"  pool state  : {state} ({int(workers)} workers)")
        restarts = [
            e for e in doc["counters"] if e["name"] == "repro_pool_restarts_total"
        ]
        for entry in restarts:
            reason = entry["labels"].get("reason", "?")
            lines.append(f"  pool restart[{reason}]: {int(entry['value'])}")
        denied = counter_value(doc, "repro_pool_restart_denied_total")
        if denied:
            lines.append(f"  pool restarts denied  : {int(denied)}")
        for entry in _find(doc, "counters", "repro_pool_health_probes_total"):
            outcome = entry["labels"].get("outcome", "?")
            lines.append(f"  health probe[{outcome}]: {int(entry['value'])}")
        for entry in breaker_gauges:
            state = _BREAKER_STATES.get(int(entry["value"]), str(entry["value"]))
            lines.append(f"  breaker state : {state}")
        trips = counter_value(doc, "repro_breaker_trips_total")
        shorts = counter_value(doc, "repro_breaker_short_circuits_total")
        if trips or shorts:
            lines.append(
                f"  breaker trips : {int(trips)}"
                f"  (short-circuited batches: {int(shorts)})"
            )
        if retry_attempts:
            exhausted = counter_value(doc, "repro_retry_exhausted_total")
            lines.append(
                f"  retry attempts: {int(retry_attempts)}"
                f"  (exhausted: {int(exhausted)})"
            )
            backoff = list(
                _find(doc, "histograms", "repro_retry_backoff_seconds")
            )
            if backoff and backoff[0]["count"]:
                entry = backoff[0]
                lines.append(
                    f"  retry backoff : n={entry['count']}"
                    f"  p50 {entry['p50'] * 1e3:.1f} ms"
                    f"  p99 {entry['p99'] * 1e3:.1f} ms"
                )
        if deadline_expired:
            by_stage = {
                e["labels"].get("stage", "?"): e["value"]
                for e in doc["counters"]
                if e["name"] == "repro_deadline_expired_total"
            }
            stages = ", ".join(
                f"{stage}={int(v)}" for stage, v in sorted(by_stage.items())
            )
            lines.append(f"  deadlines hit : {int(deadline_expired)} ({stages})")
        lines.append("")

    lines.append(
        f"series: {len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
        f"{len(doc['histograms'])} histograms"
    )
    return "\n".join(lines)


def export_registry(registry: MetricsRegistry, json_path: str) -> Tuple[str, str]:
    """Snapshot ``registry`` and write both export files (validated)."""
    return write_exports(registry.snapshot(), json_path)
