"""perfbench -- the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload net_mixed_open --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` installs span wrappers at the program's layer boundaries
and reports per-layer metrics instead (see README.md).  Every run
checks each result against the math layer; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exit codes: 0 ok, 1 wrong result, 2 no program to
measure, 3 run invalid (open-loop generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

# The benchmark's own modules import nothing from the program; only
# ``workloads`` does, and main() imports it once the set-up clock runs.
from layers import (POINTS, SELF_METRICS, UNATTRIBUTED, attribute, op_trees,
                    request_trees, window_counts)
from spans import P90_MIN_SAMPLES, Span, SpanRecorder, install, percentiles, write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Results and Chrome traces land here, inside the checkout.
OUT_DIR = Path(".perfbench_out")
#: Set-ups per run (this process plus fresh probe processes); the median is reported.
SETUP_SAMPLES = 9
SETUP_PROBE_TIMEOUT_S = 120

#: Workload and metric names and units, as BENCHMARK.json fixes them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="The repository benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or 'all' to run each in turn in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit (used by the benchmark itself)")
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(windows, setup_samples: List[float], final: Dict[str, Any],
               rom_words: int) -> Dict[str, Dict[str, Any]]:
    """Value and sample count of every end-to-end metric (first window)."""
    w = windows[0]
    attempted = w.ok + w.failed
    runs, cycles = w.sim["runs"], w.sim["cycles"]
    return {
        "setup_s": {"value": statistics.median(setup_samples), "n": len(setup_samples)},
        "cpu_per_op_cal": {"value": w.cpu_per_op_cal, "n": attempted},
        "ok_frac": {"value": w.ok / attempted, "n": attempted},
        "sim_cycles_per_op": {"value": cycles / runs if runs else 0.0, "n": runs},
        "schedule_density": {
            "value": (w.sim["mult"] + w.sim["addsub"]) / (2 * cycles) if cycles else 0.0,
            "n": runs,
        },
        "kernel_rom_words": {"value": rom_words, "n": 1},
        "peak_rss_mb": {"value": final["rss_mb"], "n": 1},
    }


def per_layer(name: str, windows, spans, final: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced (second) window."""
    base, traced = windows
    inside = [s for s in spans if s.start >= traced.start and s.end <= traced.end]
    net = {"queue_wait_ms": 0.0, "net_overhead_ms": 0.0}
    if name == "net_mixed_open":
        net = request_trees(inside)
        trees, n_ops = net["trees"], len(net["trees"])
    else:
        trees, n_ops = op_trees(inside), traced.ok + traced.failed
    pid = final["pid"]
    out = attribute(trees, n_ops)
    out.update(window_counts(inside, spans, pid))
    out["curve.decomposer_derive_s"] = sum(
        s.duration for s in spans if s.name == "curve.decomposer_derive" and s.pid == pid
    )
    lookups = traced.cache.get("hits", 0) + traced.cache.get("misses", 0)
    out["serve.cache.hit_rate"] = traced.cache["hits"] / lookups if lookups else 0.0
    out["serve.cache.fallbacks"] = traced.cache.get("fallbacks", 0)
    out["requests_unmatched"] = net.get("unmatched", 0)
    out["serve.frontend.queue_wait_ms"] = net["queue_wait_ms"]
    out["serve.net.overhead_ms"] = net["net_overhead_ms"]
    out["tracing_overhead_frac"] = traced.cpu_per_op_cal / base.cpu_per_op_cal - 1.0
    return out


def report(args, machine, e2e, extra, layers) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("end-to-end (host time unless simulated or per calibration):")
    for name, m in e2e.items():
        print(f"  {name:<22} {m['value']:>14.6f} {END_TO_END[name]:<7} n={m['n']}")
    for name, value in extra.items():
        print(f"  {name:<22} {value}")
    if layers:
        print("per-layer (traced window, ms per operation unless the unit says otherwise):")
        for name, value in layers.items():
            print(f"  {name:<30} {value:>14.6f} {PER_LAYER[name]}")
        parts = sum(layers[m] for m in SELF_METRICS.values()) + layers[UNATTRIBUTED]
        print(f"  self times + unattributed = {parts:.6f} ms; e2e_ms_per_op = "
              f"{layers['e2e_ms_per_op']:.6f} ms")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure (src/repro missing under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        # A wrong result outranks every other failure.
        return 1 if 1 in codes else max(codes)

    recorder = SpanRecorder(enabled=bool(args.trace))
    if args.trace:
        install(recorder, POINTS)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, recorder)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            wl.finish()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        windows = []
        if args.trace:  # an untraced window first, for tracing_overhead_frac
            recorder.enabled = False
            windows.append(wl.window(args.seconds))
            recorder.enabled = True
        windows.append(wl.window(args.seconds))
        final = wl.finish()
    finally:
        wl.close()

    mismatches = wl.check()
    rom_words = workloads.kernel_rom_words()
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    machine = machine_fingerprint()
    e2e = end_to_end(windows, setup_samples, final, rom_words)
    attempted = sum(w.ok + w.failed for w in windows)
    failed = sum(w.failed for w in windows)
    w = windows[0]
    lat = percentiles(w.latencies)
    extra: Dict[str, Any] = {
        # Wall time, printed but not gated: the host's CPU steal moves it (README.md, "Noise").
        "throughput_ops_s": f"{w.ok / w.wall:.6f} ops/s n={w.ok}",
        "latency_p50_ms": f"{lat['p50'] * 1e3:.6f} ms n={lat['n']}",
        "calibration_p50_ms": f"{statistics.median(w.cal) * 1e3:.6f} ms n={len(w.cal)}",
        "latency_p90_ms": (f"{lat['p90'] * 1e3:.6f} ms n={lat['n']}" if "p90" in lat else
                           f"not reported: n={lat['n']} < {P90_MIN_SAMPLES}"),
        "fail_frac": f"{failed / attempted:.6f} (failed {failed} of {attempted})",
        "mismatches": mismatches,
    }
    if w.stolen is not None:
        extra["host_stolen_s"] = f"{w.stolen:.2f} s in a {w.wall:.2f} s window"
    late = [x for w in windows for x in w.lateness]
    invalid = False
    if late:
        # Below P90_MIN_SAMPLES the maximum stands in for the p90.
        stats = percentiles(late)
        late_ms = stats.get("p90", max(late)) * 1e3
        label = "p90" if "p90" in stats else "max"
        extra["generator_lateness_p90_ms"] = f"{late_ms:.6f} ms ({label}) n={stats['n']}"
        invalid = late_ms > workloads.LATENESS_LIMIT_MS

    layers = None
    spans = recorder.spans + [Span(**d) for d in final["spans"]]
    if args.trace:
        computed = per_layer(args.workload, windows, spans, final)
        layers = {k: computed[k] for k in PER_LAYER}
        # Open-loop requests whose spans could not be joined across processes.
        extra["requests_unmatched"] = computed["requests_unmatched"]

    report(args, machine, e2e, extra, layers)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "end_to_end": e2e,
                   "extra": extra, "per_layer": layers}, fh, indent=1)
    if args.trace:
        write_chrome_trace(f"{stem}.trace.json", spans)

    # A wrong result is always reported; an invalid run prints no result.
    if invalid and not mismatches:
        print(f"perfbench: run invalid: generator lateness p90 above "
              f"{workloads.LATENESS_LIMIT_MS} ms", file=sys.stderr)
        return 3
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else {k: m["value"] for k, m in e2e.items()}
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in chosen.items()},
    }))
    if mismatches:
        print(f"perfbench: {mismatches} result(s) differ from the math layer", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
