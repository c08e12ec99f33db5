#!/usr/bin/env python3
"""Derives the benchmark's metrics from the job records of one run.

A job record is the JSON object rtmbench_job prints, plus the fields
run.py adds: "pass", "role" ("bare", "measured" or "domain"), "traced",
"hung", "charged_s" and, for traced jobs, "spans" (its span file).

    python3 rtmbench/summarize.py .bench_build/results/fig7-suite/seed1-trace1.json

prints the per-layer metrics of a saved traced run, one per line.
"""

import json
import statistics
import sys

KERNELS = ["FIR", "im2col", "KMeans", "MatrixTranspose", "AES", "BitonicSort"]
ROUTES = ["status", "progress", "components", "component", "buffers",
          "metrics", "metrics_query"]
LAYERS = ["workloads", "gpu", "rtm", "web", "json", "sim", "bench"]


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100); 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def ok(job):
    """A job completed, did every work-group and broke no check."""
    return (not job["hung"] and job["status"] == "completed"
            and job["wgs_completed"] == job["wgs_expected"]
            and not job["errors"])


def by_kernel(jobs, role, field):
    """{kernel: [field(job), ...]} over the jobs of the given role."""
    out = {}
    for j in jobs:
        if j["role"] == role:
            out.setdefault(j["kernel"], []).append(field(j))
    return out


def sum_of_medians(groups):
    """One pass of the workload: every kernel's median, summed."""
    return sum(median(v) for v in groups.values())


def wall(jobs, role):
    """Host seconds in Platform::run for one pass of the role's jobs.

    Each kernel's wall time is its mean over the passes, not its median:
    the host's speed moves in phases, and a median jumps between them
    where a mean averages them (over two sets of ten runs per workload,
    the mean cut monitor_slowdown's largest spread from 0.099 to 0.059).
    """
    groups = by_kernel([j for j in jobs if not j["hung"]], role,
                       lambda j: j["run_wall_s"])
    return sum(statistics.fmean(v) for v in groups.values())


def end_to_end(jobs):
    """The end-to-end metrics of one untraced run, as {name: (value, unit)}.

    Wall times are of completed runs; a run that hung counts in
    kernels_ok_ratio instead.
    """
    done = [j for j in jobs if not j["hung"]]
    bare = wall(jobs, "bare")
    measured = wall(jobs, "measured")
    setup = sum_of_medians(by_kernel(done, "measured",
                                     lambda j: j["setup"]["total_s"]))
    rss = by_kernel(done, "measured", lambda j: j["peak_rss_mb"])
    return {
        "setup_s": (setup, "s"),
        "sim_wall_s": (measured, "s"),
        "bare_wall_s": (bare, "s"),
        "monitor_slowdown": (measured / bare, "ratio"),
        "kernels_ok_ratio": (sum(ok(j) for j in jobs) / len(jobs), "ratio"),
        "peak_rss_mb": (max(median(v) for v in rss.values()), "MB"),
    }


def requests(jobs):
    """The HTTP request metrics of the jobs, as {name: (value, unit)}.

    Latency runs from each request's due time; a failed request has
    none and counts in req_failed_ratio.
    """
    lat, attempted, failed = [], 0, 0
    for j in jobs:
        if j["hung"]:
            continue
        r = j["requests"]
        attempted += r["attempted"]
        failed += r["failed"]
        for v in r["latency_ms"].values():
            lat.extend(v)
    return {
        "req_p50_ms": (percentile(lat, 50), "ms"),
        "req_p99_ms": (percentile(lat, 99), "ms"),
        "req_failed_ratio": (failed / attempted if attempted else 0.0,
                             "ratio"),
    }


def load_spans(jobs):
    spans = []
    for j in jobs:
        if j.get("spans"):
            with open(j["spans"]) as f:
                spans.append([json.loads(line) for line in f])
    return spans


def self_times(job_spans):
    """Seconds of self time per layer, summed over the given jobs.

    A span's self time is its duration minus the part of it that its
    child spans cover; its layer is its name up to the first dot.
    """
    total = {layer: 0.0 for layer in LAYERS}
    for spans in job_spans:
        children = {}
        for s in spans:
            if s["parent"]:
                children.setdefault(s["parent"], []).append(s)
        for s in spans:
            covered, end = 0, s["start_ns"]
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start_ns"]):
                lo = max(c["start_ns"], end, s["start_ns"])
                hi = min(c["end_ns"], s["end_ns"])
                if hi > lo:
                    covered += hi - lo
                end = max(end, hi)
            layer = s["name"].split(".")[0]
            total[layer] = total.get(layer, 0.0) + (
                s["end_ns"] - s["start_ns"] - covered) / 1e9
    return total


def per_layer(jobs):
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    Jobs of traced passes supply the spans, probes and direct calls. The
    untraced passes supply the request metrics, whose latencies the
    probes would inflate, and the untraced side of bench.trace_overhead.
    Every job supplies the program's counters. A metric of a layer that
    the workload does not exercise reads 0.
    """
    done = [j for j in jobs if not j["hung"]]
    traced = [j for j in done if j["traced"]]
    measured = [j for j in done if j["role"] == "measured"]
    domain = [j for j in done if j["role"] == "domain"]
    serving = [j["serving"] for j in measured if "serving" in j]
    passes = len({j["pass"] for j in traced}) or 1

    def med(values):
        return median([v for v in values if v is not None])

    def ratio(part, rest):
        return part / (part + rest) if part + rest else 0.0

    # One bare job per kernel stands for the kernel: the simulated counts
    # of serial runs repeat exactly (run.py checks them against goldens).
    golden = {}
    for j in done:
        if j["role"] == "bare":
            golden.setdefault(j["kernel"], j)
    events = sum(j["events"] for j in golden.values())
    c = {}
    for j in golden.values():
        for k, v in j["counters"].items():
            c[k] = c.get(k, 0) + v

    def ns_per_event(role):
        ev = sum_of_medians(by_kernel(done, role, lambda j: j["events"]))
        return 1e9 * wall(jobs, role) / ev if ev else 0.0

    m = requests([j for j in measured if not j["traced"]])
    m["kernels_failed_ratio"] = (
        sum(not ok(j) for j in jobs) / len(jobs), "ratio")
    # Over the kernels that completed at least one domain run.
    finished = {j["kernel"] for j in domain}
    both = [j for j in jobs if j["kernel"] in finished]
    m["domain_speedup"] = (wall(both, "bare") / wall(both, "domain")
                           if domain else 0.0, "ratio")

    m["sim.events"] = (events, "count")
    m["sim.ns_per_event.bare"] = (ns_per_event("bare"), "ns")
    m["sim.ns_per_event.monitored"] = (ns_per_event("measured"), "ns")
    m["sim.ns_per_event.domain"] = (ns_per_event("domain"), "ns")
    probes = [j.get("probes", {}) for j in traced]
    lock_us = [x for p in probes for x in p.get("withlock_us", [])]
    queue_us = [x for p in probes for x in p.get("queue_length_us", [])]
    m["sim.withlock_wait_us.p50"] = (percentile(lock_us, 50), "us")
    m["sim.withlock_wait_us.p99"] = (percentile(lock_us, 99), "us")
    m["sim.queue_length_us.p99"] = (percentile(queue_us, 99), "us")
    m["sim.port.reject_ratio"] = (ratio(c.get("port_rejected", 0),
                                        c.get("port_sent", 0)), "ratio")
    m["sim.pool.slab_mb"] = (max(j["counters"]["pool_slab_bytes"]
                                 for j in done) / 1e6, "MB")
    m["sim.pool.oversize_allocs"] = (max(j["counters"]["pool_oversize_allocs"]
                                         for j in done), "count")
    m["sim.domain.ring_fast_ratio"] = (ratio(
        sum(j["counters"]["domain_fast"] for j in domain),
        sum(j["counters"]["domain_slow"] for j in domain)), "ratio")
    m["sim.domain.imbalance"] = (med([j["counters"]["domain_imbalance"]
                                      for j in domain]), "ratio")
    m["sim.domain.hangs"] = (sum(j["hung"] for j in jobs), "count")
    m["sim.domain.charged_s"] = (
        sum(j["charged_s"] for j in jobs if j["hung"])
        / len({j["pass"] for j in jobs}), "s")
    m["sim.domain.simtime_drift"] = (med([
        abs(j["sim_ps"] - golden[j["kernel"]]["sim_ps"])
        / golden[j["kernel"]]["sim_ps"]
        for j in domain if j["kernel"] in golden]), "ratio")

    m["gpu.platform_build_s"] = (med([j["setup"]["platform_build_s"]
                                      for j in done]), "s")
    bare_by_kernel = by_kernel(done, "bare", lambda j: j["run_wall_s"])
    for k in KERNELS:
        m["gpu.kernel.%s.wall_s" % k] = (med(bare_by_kernel.get(k, [])), "s")
    for k in KERNELS:
        m["gpu.kernel.%s.sim_ps" % k] = (
            golden[k]["sim_ps"] if k in golden else 0, "ps")
    m["gpu.wgs_completed"] = (sum(j["wgs_completed"]
                                  for j in golden.values()), "count")
    m["workloads.kernel_build_s"] = (med([j["setup"]["kernel_build_s"]
                                          for j in done]), "s")

    m["mem.l1.hit_ratio"] = (ratio(c.get("l1_hits", 0),
                                   c.get("l1_misses", 0)), "ratio")
    m["mem.l2.hit_ratio"] = (ratio(c.get("l2_hits", 0),
                                   c.get("l2_misses", 0)), "ratio")
    m["mem.dram.accesses"] = (c.get("dram_accesses", 0), "count")
    m["mem.rdma.forwarded"] = (c.get("rdma_forwarded", 0), "count")
    m["net.sent_msgs"] = (c.get("net_sent_msgs", 0), "count")

    route_ms = {}
    for j in measured:
        if not j["traced"]:
            for route, v in j["requests"]["latency_ms"].items():
                route_ms.setdefault(route, []).extend(v)
    for r in ROUTES:
        m["rtm.route.%s.p50_ms" % r] = (percentile(route_ms.get(r, []), 50),
                                        "ms")
        m["rtm.route.%s.p99_ms" % r] = (percentile(route_ms.get(r, []), 99),
                                        "ms")
    m["rtm.respcache.hit_ratio"] = (ratio(
        sum(s.get("cache_hit", 0) for s in serving),
        sum(s.get("cache_miss", 0) for s in serving)), "ratio")
    m["rtm.respcache.coalesced"] = (sum(s.get("cache_coalesced", 0)
                                        for s in serving), "count")
    m["rtm.sample_pass_us.p50"] = (med([s.get("sample_pass_us_p50")
                                        for s in serving]), "us")
    wire = sum(j["requests"]["gzip_wire_bytes"] for j in measured)
    body = sum(j["requests"]["gzip_body_bytes"] for j in measured)
    m["web.gzip_ratio"] = (body / wire if wire else 0.0, "ratio")
    m["web.compress_mb_per_s"] = (med([s.get("compress_mb_per_s")
                                       for s in serving]), "MB/s")
    m["json.dump_mb_per_s"] = (med([s.get("json_dump_mb_per_s")
                                    for s in serving]), "MB/s")
    m["metrics.exposition_kb"] = (med([s.get("exposition_kb")
                                       for s in serving]), "KB")
    m["recorder.records"] = (med([s.get("recorder_records")
                                  for s in serving]), "count")
    m["recorder.mb_written"] = (med([s.get("recorder_mb")
                                     for s in serving]), "MB")

    late = [x for j in measured for x in j["requests"]["gen_late_ms"]]
    m["bench.gen_late_ms.p99"] = (percentile(late, 99), "ms")
    plain_wall = wall([j for j in jobs if not j["traced"]], "measured")
    m["bench.trace_overhead"] = (
        wall([j for j in jobs if j["traced"]], "measured") / plain_wall
        if plain_wall else 0.0, "ratio")
    for layer, secs in self_times(load_spans(traced)).items():
        m["self.%s_s" % layer] = (secs / passes, "s")
    return m


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        saved = json.load(f)
    for name, (value, unit) in per_layer(saved["jobs"]).items():
        print("%-36s %14.6g %s" % (name, value, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
