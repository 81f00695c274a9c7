#!/usr/bin/env python3
"""The dnsshield benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload renewal_week --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the driver from the
checkout's sources (perfbench/CMakeLists.txt, build tree under
$CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  repeats end-to-end runs of the workload, one fresh process
             each, until --seconds have passed (at least three), plus one
             allocation-counting run, and reports the end-to-end metrics as
             medians over the repetitions;
  --trace 1  runs the traced per-layer pass once in the timed build and once
             in the counting build and reports the per-layer metrics.

Every repetition's outputs are checked (report digest equal across
repetitions of one seed, stub queries equal to trace events, the traced
mirror equal to the untraced driver). Human-readable lines go first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Raw samples and the host fingerprint are also written
to <build>/results/. See perfbench/README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("renewal_week", "vanilla_outage", "fleet_stream")
MIN_REPS = 3

END_TO_END = {
    "queries_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "allocs_per_query": "allocs/query",
}

PER_LAYER = {
    "trace.next_ns": "ns",
    "trace.events": "count",
    "trace.allocs_per_event": "allocs/event",
    "sim.run_until_s": "s",
    "sim.events_fired": "count",
    "sim.queue_peak": "count",
    "server.build_s": "s",
    "server.ans_ns": "ns",
    "server.exchanges_per_query": "exchanges/query",
    "server.renewal_exchanges": "count",
    "server.allocs_per_exchange": "allocs/exchange",
    "resolver.resolve_ns_p50": "ns",
    "resolver.resolve_ns_p999": "ns",
    "resolver.resolve_samples": "count",
    "resolver.cache_answer_ratio": "ratio",
    "resolver.msgs_per_query": "msgs/query",
    "resolver.msgs_failed_ratio": "ratio",
    "resolver.failover_hops": "count",
    "resolver.renewal_fetches": "count",
    "resolver.cache_hits": "count",
    "resolver.cache_misses": "count",
    "resolver.cache_insertions": "count",
    "resolver.cache_rejections": "count",
    "resolver.allocs_per_resolve": "allocs/resolve",
    "resolver.cache_lookup_ns": "ns",
    "dns.name_find_ns": "ns",
    "attack.denials": "count",
    "core.shard_s_max_over_median": "ratio",
    "core.parallel_efficiency": "ratio",
    "core.report_s": "s",
    "trace_overhead_frac": "ratio",
    "unattributed_frac": "ratio",
}

# Per-layer metrics read from the counting build; all others from the timed one.
COUNTED = ("trace.allocs_per_event", "server.allocs_per_exchange",
           "resolver.allocs_per_resolve")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds both driver binaries; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        raise RuntimeError("simulator sources not found under src/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def drive(binary, mode, workload, seed):
    """Runs the driver once and returns its JSON object."""
    proc = subprocess.run([binary, "--mode", mode, "--workload", workload,
                           "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(binary)} --mode {mode} exited "
                           f"with {proc.returncode}")
    return json.loads(lines[-1])


def host_fingerprint(sample):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "compiler": "gcc " + sample["compiler"],
        "build_type": sample["build_type"],
        "timed_alloc_hook": sample["alloc_hook"],
    }


def end_to_end(bins, workload, seed, seconds):
    """Timed repetitions plus one counting run; returns (metrics, raw, failed, attempted)."""
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(drive(bins["timed"], "run", workload, seed))
    counted = drive(bins["counted"], "run", workload, seed)

    def ok(rep, hook):
        return (rep["digest"] == reps[0]["digest"]
                and all(rep["checks"].values()) and rep["alloc_hook"] == hook)

    failed = sum(not ok(r, False) for r in reps) + (not ok(counted, True))

    setup = [s for rep in reps for s in rep["setup_s"]]
    metrics = {
        "queries_per_s": statistics.median(r["queries_per_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "allocs_per_query": counted["allocs_per_query"],
    }
    return metrics, {"reps": reps, "counted": counted}, failed, len(reps) + 1


def per_layer(bins, workload, seed):
    """One traced pass per build; returns (metrics, raw, failed, attempted)."""
    timed = drive(bins["timed"], "trace", workload, seed)
    counted = drive(bins["counted"], "trace", workload, seed)
    # Counts are deterministic: both builds must agree on every one of them.
    shared = set(timed["metrics"]) & set(counted["metrics"])
    same = all(timed["metrics"][k] == counted["metrics"][k] for k in shared)
    failed = (not timed["checks"]["all"]) + (not (counted["checks"]["all"]
                                                  and same))
    metrics = {k: (counted if k in COUNTED else timed)["metrics"][k]
               for k in PER_LAYER}
    return metrics, {"timed": timed, "counted": counted}, failed, 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    bins = {"timed": os.path.join(out_dir, "perfbench_timed"),
            "counted": os.path.join(out_dir, "perfbench_counted")}

    try:
        if args.trace:
            metrics, raw, failed, attempted = per_layer(bins, args.workload,
                                                        args.seed)
            units = PER_LAYER
            sample = raw["timed"]
        else:
            metrics, raw, failed, attempted = end_to_end(
                bins, args.workload, args.seed, args.seconds)
            units = END_TO_END
            sample = raw["reps"][0]
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: run failed: {e}")
        return 1

    fingerprint = host_fingerprint(sample)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    # The share of runs whose checks failed. It is the result's
    # failed/attempted, and 0 when all is well, so it is not a metric.
    print(f"check_failures {failed / attempted:.6g} share")

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, "results", name), "w") as f:
        json.dump({"fingerprint": fingerprint, "metrics": metrics, "raw": raw},
                  f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
