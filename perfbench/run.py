#!/usr/bin/env python3
"""SwitchFS repository benchmark.

Builds the simulator library and the benchmark binary from this checkout,
runs one workload on the fixed 8-server SwitchFS cluster, and prints every
metric by name with its unit. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of the checkout:

  python3 perfbench/run.py --workload pangu-mix --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs one iteration untraced and then traced, writes the traced iteration as
Chrome trace-event JSON under the build directory, and reports the per-layer
metrics of BENCHMARK.json derived from that trace. Both modes print the full
per-layer table the trace supports (every metric that is not zero).

The build directory is $CARGO_TARGET_DIR if set, else .bench_build.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Units of the metrics this benchmark can report, by name suffix or name.
UNITS = {
    "throughput_kops": "Kops/s",
    "host_kops": "Kops/s",
    "sim.host_kops": "Kops/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "cache.hit_rate": "ratio",
    "server.cpu_util_mean": "ratio",
    "server.cpu_util_max": "ratio",
    "push.entries_per_packet": "entries/packet",
    "push.dirs_per_packet": "dirs/packet",
    "kv.keys_per_live_entry": "keys/entry",
    "sim.host_ns_per_event": "ns/event",
    "sim.events_per_op": "events/op",
    "agg.per_dir_read": "aggs/read",
    "server.cpu_busy_us_per_op": "us/op",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_per_kop", "1/kop"), ("_per_op", "1/op")):
        if name.endswith(suffix):
            return unit
    return "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "cluster.h")):
        fail("no SwitchFS sources (src/) next to perfbench/; run from the "
             "root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "switchfs_perfbench")


def percentile(sorted_values, q):
    """Nearest-rank percentile, as switchfs_perfbench computes it."""
    rank = max(1, min(len(sorted_values), math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def derive_layers(trace, host):
    """Per-layer metrics of the traced iteration (see perfbench/README.md)."""
    meta = trace["otherData"]
    warmup = meta["warmup_ops"]
    ops = meta["measured_ops"]
    window_ns = meta["window_ns"]
    servers = int(meta["servers"])
    cores = meta["cores_per_server"]

    # Measured loaded-phase spans: slot lanes (tid >= 1), op id >= warm-up.
    by_name = defaultdict(list)
    errors = defaultdict(int)
    counters = {}
    samples = defaultdict(list)
    phases = defaultdict(float)
    for e in trace["traceEvents"]:
        ph = e.get("ph")
        if ph == "X" and e["pid"] == 1:
            a = e["args"]
            if e["tid"] >= 1 and a["op"] >= warmup:
                by_name[e["name"]].append(e["dur"])
                if a["status"] != 0 and a["parent"] == -1:
                    errors[e["name"]] += 1
        elif ph == "X" and e["pid"] == 2:
            phases[e["name"]] += e["dur"] / 1e6
        elif ph == "C" and e["name"] in ("window_start", "window_end"):
            counters[e["name"]] = (e["ts"], e["args"])
        elif ph == "C":
            samples[e["name"]].append((e["ts"], e["args"]))

    m = {}
    root_classes = ("create", "unlink", "rename", "stat", "open", "setattr",
                    "statdir", "readdir")
    for cls in root_classes:
        durs = sorted(by_name.get(cls, []))
        if durs:
            m[f"client.{cls}.p50_us"] = percentile(durs, 0.5)
            m[f"client.{cls}.p99_us"] = percentile(durs, 0.99)
            m[f"client.{cls}.count"] = len(durs)
            m[f"client.{cls}.errors"] = errors[cls]
    for call in ("opendir", "readdir_page"):
        durs = sorted(by_name.get(call, []))
        if durs:
            m[f"client.{call}.p50_us"] = percentile(durs, 0.5)

    (t0, start), (t1, end) = counters["window_start"], counters["window_end"]
    d = {k: end[k] - start[k] for k in start}
    busy = [d[f"cpu.busy_ns.s{i}"] for i in range(servers)]
    m["server.requests_per_op"] = d["server.ops"] / ops
    m["server.cpu_busy_us_per_op"] = sum(busy) / 1e3 / ops
    m["server.cpu_util_mean"] = sum(busy) / (window_ns * cores * servers)
    m["server.cpu_util_max"] = max(busy) / (window_ns * cores)
    in_window = lambda name: [a for ts, a in samples[name] if t0 <= ts <= t1]
    m["server.run_queue_max"] = max(
        (max(a.values()) for a in in_window("cpu.run_queue")), default=0)
    m["server.fallbacks"] = d["server.fallbacks"]
    m["server.stale_cache_bounces"] = d["server.stale_cache_bounces"]

    pushes = d["server.pushes_sent"]
    m["push.packets_per_kop"] = pushes / ops * 1e3
    if pushes:
        m["push.entries_per_packet"] = d["server.push_entries_sent"] / pushes
        m["push.dirs_per_packet"] = d["server.push_dirs_sent"] / pushes
    m["push.local_per_kop"] = d["server.pushes_local"] / ops * 1e3
    m["push.failures"] = d["server.push_failures"]
    m["push.pace_hints"] = d["server.push_pace_hints"]

    backlog = [a["backlog"] for a in in_window("changelog")]
    m["changelog.backlog_max"] = max(backlog, default=0)
    m["changelog.backlog_mean"] = statistics.fmean(backlog) if backlog else 0
    m["changelog.drain_ms"] = meta["drain_ns"] / 1e6

    m["agg.count"] = d["server.aggregations"]
    dir_reads = len(by_name.get("statdir", [])) + len(by_name.get("readdir", []))
    if dir_reads:
        m["agg.per_dir_read"] = d["server.aggregations"] / dir_reads
    m["agg.retries"] = d["server.agg_retries"]

    m["apply.entries_per_op"] = d["server.entries_applied"] / ops
    m["apply.entries_deduped"] = d["server.entries_deduped"]
    m["apply.batches_deduped"] = d["server.push_batches_deduped"]
    m["apply.cross_shard_handoffs"] = d["server.cross_shard_handoffs"]

    m["pswitch.inserts_per_op"] = d["pswitch.inserts"] / ops
    m["pswitch.insert_fallbacks"] = d["pswitch.insert_fallbacks"]
    m["pswitch.queries_per_op"] = d["pswitch.queries"] / ops
    m["pswitch.removes"] = d["pswitch.removes"]
    m["pswitch.stale_removes"] = d["pswitch.stale_removes"]
    m["pswitch.multicast_per_kop"] = d["pswitch.multicast_packets"] / ops * 1e3
    m["pswitch.cross_pipe_mirrors"] = d["pswitch.cross_pipe_mirrors"]

    lookups = d["cache.hits"] + d["cache.misses"]
    if lookups:
        m["cache.hit_rate"] = d["cache.hits"] / lookups
    m["cache.installs"] = d["cache.installs"]
    m["cache.install_rejects"] = d["cache.install_rejects"]
    m["cache.evicts"] = d["cache.evicts"]
    m["server.cache_evicts_per_kop"] = d["server.cache_evicts"] / ops * 1e3

    m["net.packets_per_op"] = d["net.packets_sent"] / ops
    m["net.switch_traversals_per_op"] = d["net.switch_traversals"] / ops
    m["net.dropped"] = d["net.packets_dropped"]

    m["kv.keys_per_live_entry"] = meta["kv_keys"] / meta["live_entries"]

    # Event count from the trace; host times from the untraced iteration.
    m["sim.events_per_op"] = meta["loaded_events"] / (warmup + ops)
    m["sim.host_kops"] = host["host_kops"]
    m["sim.host_ns_per_event"] = host["host_ns_per_event"]
    m["sim.run_host_s"] = host["loaded_s"]
    m["sim.drain_host_s"] = host["drain_s"]

    for step in ("cluster", "preload", "clients"):
        m[f"setup.{step}_s"] = phases[f"setup.{step}"]
    m["trace.overhead_ratio"] = meta["overhead_ratio"]
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["create-storm", "pangu-mix", "hot-stat"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = os.path.join(build_dir, f"trace-{args.workload}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"switchfs_perfbench exited with {proc.returncode} and no result")
    sim, host = result["sim"], result["host"]

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{result['iterations']} iteration(s), "
          f"{result['dirs_verified']} directories verified")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    for key, count in sorted(result["failures"].items()):
        print(f"failed op: {key} x{count}")

    e2e = dict(sim)
    e2e.update(host)
    print(f"latency_p999_us is the {sim['latency_samples'] - sim['latency_beyond_p999']}"
          f"-th of {sim['latency_samples']} samples "
          f"({sim['latency_beyond_p999']} beyond it)")
    print(f"drain_ms is the mean over {sim['drains']} iteration(s), "
          f"resolution {sim['drain_resolution_ms']} ms")
    for name in ("throughput_kops", "latency_p50_us", "latency_p99_us",
                 "latency_p999_us", "solo_latency_p50_us", "drain_ms",
                 "error_rate", "host_kops", "setup_s", "peak_rss_mb"):
        print(f"{name:<34} {e2e[name]:>14.6g} {unit_of(name)}")

    layers = {}
    if args.trace:
        try:
            with open(trace_path) as f:
                trace = json.load(f)
        except (OSError, ValueError) as err:
            fail(f"trace {trace_path} does not load as JSON: {err}")
        layers = derive_layers(trace, host)
        zero = sorted(k for k, v in layers.items() if v == 0)
        layers = {k: v for k, v in layers.items() if v != 0}
        print(f"per-layer metrics of the traced iteration ({trace_path}):")
        for name, value in layers.items():
            print(f"{name:<34} {value:>14.6g} {unit_of(name)}")
        if zero:
            print("zero on this workload (omitted): " + ", ".join(zero))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in source:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": source[name], "unit": metric["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
