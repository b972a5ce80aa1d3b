#!/usr/bin/env python3
"""End-to-end benchmark of the redundancy framework.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --short       # every workload and check, quickly
    python3 perfbench/run.py --selftest    # show that the checks can fail

Run from the root of a checkout. The first call builds the library from
src/ and the benchmark from perfbench/ into .bench_build/ (CMake, Ninja if
present). Workloads (README.md says why each was chosen):

    echo_saturate  closed loop of /echo requests against a separate gateway
                   server process: the framework's own per-request cost
    mix_rate       open loop at a fixed rate of /fast (Zipf keys, cached,
                   hedged) and /vote (three variants and a majority vote)
    campaign       in-process fault-injection campaigns over the Table-2
                   techniques, Bohrbug and Heisenbug

The last line of standard output is one JSON object: correct, attempted,
failed and metrics -- the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1, by the names and units BENCHMARK.json lists. When a
check fails the line still comes, with "correct": false, the operations
attempted and those that failed, and no metrics; the exit code is then 1.
When the benchmark cannot build or run at all it prints no result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")

WORKLOADS = ("echo_saturate", "mix_rate", "campaign")
GATEWAY_POOL = 2     # REDUNDANCY_THREADS of the gateway server
CAMPAIGN_POOL = 1    # REDUNDANCY_THREADS of the campaign process
WARMUP_S = 2.0


def metric_units(kind):
    """Names and units of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class CheckFailed(Exception):
    """The benchmark could not build or run: no result line is printed."""


class Outcome:
    """One system-under-test run: its numbers, the operations it attempted
    and failed, and every check that did not hold."""

    def __init__(self, result, attempted, failed, problems):
        self.r = result
        self.attempted = attempted
        self.failed = failed
        self.problems = problems


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise CheckFailed("no library sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    # Write out what the build and earlier runs left dirty in the page
    # cache now: its writeback otherwise ran during the next timed phase,
    # and the first run after a build answered /echo at 180k req/s with a
    # 230 ms maximum latency against 250k-310k for the runs after it.
    os.sync()


def cpu_layout():
    """Server CPUs and the load generator's CPU: disjoint when possible."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return cpus, cpus
    return cpus[:-1][:3], cpus[-1:]


def cpu_list(cpus):
    return ",".join(map(str, cpus))


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise CheckFailed("no JSON result in output")


def sut_env(threads):
    """The caller's environment without any REDUNDANCY_* setting, so none
    reaches the system under test unless the benchmark sets it."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REDUNDANCY_")}
    env["REDUNDANCY_THREADS"] = str(threads)
    return env


def read_counters(path):
    values = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or " " not in line:
                continue
            key, value = line.rsplit(" ", 1)
            values[key] = float(value)
    return values


def run_gateway(workload, seed, seconds, warmup, out, traced):
    """One load generator, which starts the server process itself and
    times its set-up; checks the replies, the server's counters and its
    exit."""
    server_cpus, client_cpus = cpu_layout()
    os.makedirs(out, exist_ok=True)
    for name in ("metrics_before.prom", "metrics_after.prom",
                 "client_spans.tsv", "server.trace.jsonl"):
        if os.path.exists(os.path.join(out, name)):
            os.remove(os.path.join(out, name))
    env = sut_env(GATEWAY_POOL)  # the generator passes it on to the server
    if traced:
        env["REDUNDANCY_OBS_TRACE_FILE"] = os.path.join(out, "server.trace.jsonl")
        env["REDUNDANCY_OBS_SAMPLE"] = "1"
    load = subprocess.run(
        [EXE, "load", "--workload", workload, "--seed", str(seed),
         "--server-cpus", cpu_list(server_cpus),
         "--warmup", str(warmup), "--seconds", str(seconds),
         "--out", out, "--trace", "1" if traced else "0",
         "--cpu", cpu_list(client_cpus)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=seconds + warmup + 60)
    r = last_json(load.stdout)
    problems = []
    for field in ("bad_status", "wrong_body", "out_of_order", "unexpected",
                  "missing"):
        if r[field]:
            problems.append("%d replies %s" % (r[field], field))
    if not r["ok"]:
        problems.append("load generator failed")
    if r["replies_ok"] != r["attempted"]:
        problems.append("%d sent, %d verified" % (r["attempted"], r["replies_ok"]))
    if not problems:
        before = read_counters(os.path.join(out, "metrics_before.prom"))
        after = read_counters(os.path.join(out, "metrics_after.prom"))
        # +1: the closing /metrics scrape is counted before it renders.
        for series in ("gateway_requests_total", "gateway_responses_total"):
            d = after.get(series, 0) - before.get(series, 0)
            if d != r["sent"] + 1:
                problems.append("server %s delta %d, client sent %d (+1 scrape)"
                                % (series, d, r["sent"]))
    if r["server_exit"] != 0 or r["jobs_inflight"] != 0:
        problems.append("server exit %d, jobs in flight %d"
                        % (r["server_exit"], r["jobs_inflight"]))
    if load.returncode != 0 and not problems:
        problems.append("load generator exit %d" % load.returncode)
    r["setup_s"] = r["setup_ns"] / 1e9
    with open(os.path.join(out, "load_traced.json" if traced else "load.json"), "w") as f:
        json.dump(r, f)
    return Outcome(r, r["attempted"], r["failed"], problems)


def run_campaign(seed, seconds, warmup, traced):
    server_cpus, _ = cpu_layout()
    proc = subprocess.run(
        [EXE, "campaign", "--seed", str(seed), "--warmup", str(warmup),
         "--seconds", str(seconds), "--trace", "1" if traced else "0",
         "--cpus", cpu_list(server_cpus)],
        env=sut_env(CAMPAIGN_POOL), stdout=subprocess.PIPE, text=True,
        timeout=seconds + warmup + 60)
    r = last_json(proc.stdout)
    out = os.path.join(BUILD, "out", "campaign")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "campaign_traced.json" if traced else "campaign.json"), "w") as f:
        json.dump(r, f)
    problems = []
    if proc.returncode != 0:
        problems.append("campaign checks failed: %d misjudged trials, %d "
                        "rounds off the Table-2 shape, %d serial/parallel "
                        "mismatches" % (r["failed"], r["shape_failures"],
                                        r["equivalence_mismatches"]))
    r["setup_s"] = r["setup_ns"] / 1e9
    return Outcome(r, r["attempted"], r["failed"], problems)


def end_to_end(workload, r):
    """Rates and CPU per operation are medians over the timed phase's
    100 ms windows (gateway) or rounds (campaign); the campaign's latency
    is the geometric mean of its cells' median times. See README.md."""
    if workload == "campaign":
        return {
            "ops_per_s": r["round_ops_per_s"],
            "latency_p50_us": r["cell_median_geomean_ns"] / 1e3,
            "cpu_us_per_op": r["round_cpu_ns_per_trial"] / 1e3,
            "setup_s": r["setup_s"],
        }
    return {
        "ops_per_s": r["win_ops_per_s"],
        "latency_p50_us": r["win_lat_p50_ns"] / 1e3,
        "cpu_us_per_op": r["win_cpu_ns_per_op"] / 1e3,
        "setup_s": r["setup_s"],
    }


def probe(workload, seed):
    server_cpus, _ = cpu_layout()
    pool = CAMPAIGN_POOL if workload == "campaign" else GATEWAY_POOL
    proc = subprocess.run(
        [EXE, "probe", "--workload", workload, "--seed", str(seed),
         "--pool", str(pool), "--cpus", cpu_list(server_cpus)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckFailed("probe failed")
    return last_json(proc.stdout)


def per_layer(workload, seed, seconds, warmup, out):
    """The traced run: an untraced pass for the overhead baseline, a traced
    pass for the layer numbers, then the single-layer probes. Returns the
    two passes' operations and checks together, and the layer numbers
    (None when a check failed)."""
    if workload == "campaign":
        plain = run_campaign(seed, seconds, warmup, False)
        traced = run_campaign(seed, seconds, warmup, True)
    else:
        plain = run_gateway(workload, seed, seconds, warmup, out, False)
        traced = run_gateway(workload, seed, seconds, warmup, out, True)
    both = Outcome(None, plain.attempted + traced.attempted,
                   plain.failed + traced.failed,
                   plain.problems + ["traced pass: " + p for p in traced.problems])
    if both.problems:
        return both, None
    layers = {name: 0.0 for name in metric_units("per_layer")}
    t = traced.r
    if workload == "campaign":
        trials = t["trials"]
        layers["pool.tasks_per_op"] = t["pool_tasks"] / trials
        layers["pool.steals_per_op"] = t["pool_steals"] / trials
        layers["pool.task_exec_ns_p50"] = t["pool_task_exec_p50_ns"]
        layers["core.variant_execs_per_op"] = t["variant_spans"] / trials
        layers["obs.spans_per_op"] = t["spans"] / trials
        for name, ns in plain.r["technique_ns_per_trial"].items():
            key = "techniques.%s.ns_per_trial" % name
            if key not in layers:
                raise CheckFailed("%s is not a per_layer metric of "
                                  "BENCHMARK.json" % key)
            layers[key] = ns
    else:
        proc = subprocess.run([EXE, "analyze", "--dir", out],
                              stdout=subprocess.PIPE, text=True, timeout=300)
        a = last_json(proc.stdout)
        with open(os.path.join(out, "analyze.json"), "w") as f:
            json.dump(a, f)
        if proc.returncode != 0 or not a["covers_ok"]:
            both.problems.append("traced run: client latencies fall below "
                                 "the server's gateway.request_ns")
            return both, None
        # The span files run to hundreds of MB; the numbers are extracted.
        for name in ("client_spans.tsv", "server.trace.jsonl"):
            os.remove(os.path.join(out, name))
        for name in layers:
            if name in a:
                layers[name] = a[name]
    layers.update(probe(workload, seed))
    base = end_to_end(workload, plain.r)
    withtrace = end_to_end(workload, traced.r)
    layers["obs.trace_overhead_pct"] = 100.0 * (
        withtrace["cpu_us_per_op"] / base["cpu_us_per_op"] - 1.0)
    return both, layers


def run(workload, seed, seconds, trace, warmup=WARMUP_S):
    """One run of `workload`: the result line's object. Its metrics are
    empty when a check failed."""
    out = os.path.join(BUILD, "out", workload)
    if trace:
        outcome, values = per_layer(workload, seed, seconds, warmup, out)
        units = metric_units("per_layer")
    else:
        outcome = (run_campaign(seed, seconds, warmup, False)
                   if workload == "campaign"
                   else run_gateway(workload, seed, seconds, warmup, out, False))
        units = metric_units("end_to_end")
        values = None if outcome.problems else end_to_end(workload, outcome.r)
    for problem in outcome.problems:
        log("FAILED %s: %s" % (workload, problem))
    correct = not outcome.problems
    return {"correct": correct, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units} if correct else {}}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="run every workload, traced, for a fraction of a second")
    p.add_argument("--selftest", action="store_true",
                   help="feed the checks bad outputs and require them to fail")
    args = p.parse_args()
    if not (args.short or args.selftest or args.workload):
        p.error("one of --workload, --short or --selftest is required")
    try:
        build()
        if args.selftest:
            return subprocess.run([EXE, "selftest"]).returncode
        if args.short:
            if subprocess.run([EXE, "selftest"], stdout=sys.stderr).returncode:
                raise CheckFailed("selftest failed")
            all_correct = True
            for w in WORKLOADS:
                result = run(w, args.seed, 0.5, 1, warmup=0.2)
                all_correct = all_correct and result["correct"]
                print(json.dumps(dict(result, workload=w)), flush=True)
            return 0 if all_correct else 1
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (CheckFailed, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("FAILED: %s" % e)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
