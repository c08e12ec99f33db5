#!/usr/bin/env python3
"""AkitaRTM benchmark: simulator speed, monitor cost and dashboard latency.

    python3 rtmbench/run.py --workload fig7-suite --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run builds rtmbench_job
(Release) from ../src into .bench_build/rtmbench. The run then repeats
passes of its workload while another pass fits in --seconds. A pass
runs each of the workload's kernels bare on SerialEngine and monitored,
each in a fresh job process; the seed drives the HTTP traffic only.

Workloads (scale 0.1 on the medium MCM-4 platform):
  fig7-suite      the six Fig. 7 kernels, bare and monitored under the
                  paper's active dashboard (one refresh wave per second).
                  A traced run also runs each kernel on DomainEngine with
                  one domain per core, under a watchdog.
  dashboard-poll  im2col, bare and monitored with the flight recorder on,
                  under 2000 req/s of open-loop Poisson load

Every output is checked: the serial runs against goldens.json, every
HTTP response and the post-run cache and encoding comparisons by the
job, and the domain runs for completion and work-group count. The
last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Raw job records go to
.bench_build/results/<workload>/seed<N>-trace<T>.json, which
summarize.py and compare.py read. The exit code is 1 when an output is
wrong; a hung domain kernel is a failed operation, counted in "failed"
and reported on stderr with its kernel and seed, not a wrong output.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # Leave nothing behind beside the sources.
import summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtmbench")
JOB = os.path.join(BUILD, "rtmbench_job")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# A serial job that runs longer than this has hung: the slowest kernel
# takes about 2 s at the job's scale.
SERIAL_WATCHDOG_S = 60.0
# A domain job is killed as hung after this many seconds plus this
# multiple of the same pass's serial job: completed domain runs of these
# kernels take at most about 2x the serial run on a 4-core host, and a hung
# one never returns (all of its threads wait on futexes).
DOMAIN_WATCHDOG_S = 1.0
DOMAIN_WATCHDOG_X = 3.0

BARE = ["--engine", "serial", "--traffic", "none"]
CORES = len(os.sched_getaffinity(0))
# DomainEngine takes one domain per hardware thread.
DOMAIN = ["--engine", "domain", "--traffic", "none"]
WORKLOADS = {
    "fig7-suite": {
        "kernels": summarize.KERNELS,
        "measured": ["--engine", "serial", "--traffic", "dashboard"],
        # Traced runs also run each kernel on DomainEngine.
        "domain": True,
    },
    "dashboard-poll": {
        "kernels": ["im2col"],
        "measured": ["--engine", "serial", "--traffic", "poll"],
        "record": True,
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the job binary; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("rtmbench: no simulator sources at %s; run from the root of "
            "a checkout" % os.path.join(ROOT, "src"))
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rtmbench_job",
                  "-j", str(min(4, CORES))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("rtmbench: build step failed: %s" % " ".join(cmd))
            sys.exit(2)


def run_job(args, timeout):
    """Runs one job; returns (record, or None if killed, and its seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen([JOB] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("rtmbench: job failed (%d): %s\n%s"
            % (proc.returncode, " ".join(args), err))
        sys.exit(2)
    return json.loads(lines[-1]), time.monotonic() - start


def run_pass(workload, seed, index, trace_run, jobs):
    """One pass: each kernel bare, then measured, then (in a traced run
    of fig7-suite) on DomainEngine, each in its own process.

    Bare and measured swap order on odd passes so that neither side
    always runs first. The domain job runs last, under a watchdog scaled
    from the bare job of the same pass. A traced run traces passes 1, 2,
    5, 6, ...: half of them, in both orders, so that the others measure
    the same jobs untraced.
    """
    spec = WORKLOADS[workload]
    traced = bool(trace_run and index % 4 in (1, 2))
    for k, kernel in enumerate(spec["kernels"]):
        job_seed = seed * 1000003 + index * 101 + k
        common = ["--kernel", kernel, "--seed", str(job_seed)]
        roles = ["measured", "bare"] if index % 2 else ["bare", "measured"]
        if trace_run and spec.get("domain"):
            roles.append("domain")
        bare_s = None
        for role in roles:
            args = common + {"bare": BARE, "measured": spec["measured"],
                             "domain": DOMAIN}[role]
            spans = None
            if traced:
                os.makedirs(TRACES, exist_ok=True)
                spans = os.path.join(TRACES, "%s-seed%d-job%d.jsonl"
                                     % (workload, seed, len(jobs)))
                args += ["--spans", spans]
            if role == "measured" and spec.get("record"):
                args += ["--record", os.path.join(ROOT, ".bench_build",
                                                  "recorder.seg")]
            timeout = (DOMAIN_WATCHDOG_S + DOMAIN_WATCHDOG_X * bare_s
                       if role == "domain" else SERIAL_WATCHDOG_S)
            record, secs = run_job(args, timeout)
            if record is None:
                log("rtmbench: HANG: workload %s kernel %s seed %d pass %d "
                    "(%s job); killed by its %.1f s watchdog"
                    % (workload, kernel, seed, index, role, secs))
                record = {"kernel": kernel, "status": "hung", "errors": [],
                          "engine": "domain" if role == "domain"
                          else "serial"}
            if role == "bare":
                bare_s = secs
            record.update({"pass": index, "role": role, "traced": traced,
                           "hung": record["status"] == "hung",
                           "charged_s": secs, "spans": spans})
            jobs.append(record)


def check(jobs, goldens):
    """Correctness: returns a list of wrong outputs (empty when correct).

    Every job must run at the goldens' scale, and serial runs must
    reproduce the goldens exactly; domain runs are not
    deterministic, so a completed domain run is checked for its
    work-group count only, and a hang is a failed kernel, not a wrong
    output.
    """
    wrong = []
    for j in jobs:
        tag = "%s/%s/%s pass %d" % (j["kernel"], j["engine"], j["role"],
                                    j["pass"])
        wrong.extend("%s: %s" % (tag, e) for e in j["errors"])
        if j["hung"]:
            continue
        if j["scale"] != goldens["scale"]:
            wrong.append("%s: scale %s, goldens are for scale %s"
                         % (tag, j["scale"], goldens["scale"]))
        elif j["engine"] == "serial":
            want = goldens["kernels"][j["kernel"]]
            got = {"events": j["events"], "sim_ps": j["sim_ps"],
                   "wgs": j["wgs_completed"]}
            if j["status"] != "completed" or got != want:
                wrong.append("%s: serial run %s %s, golden %s"
                             % (tag, j["status"], got, want))
        elif (j["status"] == "completed"
              and j["wgs_completed"] != j["wgs_expected"]):
            wrong.append("%s: completed %d of %d work-groups"
                         % (tag, j["wgs_completed"], j["wgs_expected"]))
    return wrong


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opt = ap.parse_args()

    build()
    with open(os.path.join(HERE, "goldens.json")) as f:
        goldens = json.load(f)

    # Passes continue while another one fits in the time left. A traced
    # run needs a traced and an untraced pass, so at least two.
    jobs = []
    start = time.monotonic()
    index = 0
    while True:
        run_pass(opt.workload, opt.seed, index, opt.trace, jobs)
        index += 1
        elapsed = time.monotonic() - start
        if (elapsed + elapsed / index > opt.seconds
                and (index >= 2 or not opt.trace)):
            break

    wrong = check(jobs, goldens)
    for w in wrong:
        log("rtmbench: WRONG: " + w)
    metrics = (summarize.per_layer(jobs) if opt.trace
               else summarize.end_to_end(jobs))
    attempted = len(jobs) + sum(j["requests"]["attempted"] for j in jobs
                                if not j["hung"])
    failed = (sum(not summarize.ok(j) for j in jobs)
              + sum(j["requests"]["failed"] for j in jobs if not j["hung"]))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = os.path.join(RESULTS, opt.workload)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "seed%d-trace%d.json"
                           % (opt.seed, opt.trace)), "w") as f:
        json.dump({"workload": opt.workload, "seed": opt.seed,
                   "trace": opt.trace, "passes": index, "jobs": jobs,
                   "result": result}, f)
    print(json.dumps(result), flush=True)
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
