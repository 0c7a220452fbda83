#!/usr/bin/env python3
"""PolyMG repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cycle-cache|solve-dram|service-open \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench_driver
(perfbench/CMakeLists.txt, the library sources under src/) into
$CARGO_TARGET_DIR or .bench_build. Inputs come from --seed; the outputs
are checked; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (the run is then made twice, untraced and traced, to
measure the tracing overhead). A line starting with "perfbench-meta:"
before it describes the machine, build and run. perfbench/README.md
defines every metric.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170.0

# Every other constant of a workload is in driver.cpp.
WORKLOADS = ("cycle-cache", "solve-dram", "service-open")

# service-open's arrival schedule, drawn here from the seed: Poisson
# arrivals at rate_per_s for --seconds (longer if needed to reach
# min_requests), each with a signature, tenant and right-hand side index
# drawn by these shares.
OPEN_LOOP = {
    "rate_per_s": 70,
    "min_requests": 1000,
    "signature_shares": [0.5, 0.3, 0.2],
    "tenant_shares": [0.6, 0.3, 0.1],
    "rhs_per_signature": 4,
}
# The open-loop generator has fallen behind when its submits are late by
# more than this as a rule (p50), or by a tenth of the latency limit at
# p99.
MAX_GENERATOR_LATE_P50_MS = 1.0

# The end-to-end metric obs.trace_overhead compares, per workload.
TRACE_HEADLINE = {
    "cycle-cache": "cycle_ms",
    "solve-dram": "solve_s",
    "service-open": "req_p50_ms",
}

# name -> (unit, better): the metric contract, mirrored by BENCHMARK.json.
# The request tail req_p99_ms is not in it: on the listed workloads it is
# read off a few dozen closed-loop solves and follows host noise bursts
# (README.md, "End-to-end metrics"); the perfbench-meta line reports it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cycle_ms": ("ms", "lower"),
    "cycle_1t_ms": ("ms", "lower"),
    "vs_handopt_pluto": ("x", "higher"),
    "solve_s": ("s", "lower"),
    "req_p50_ms": ("ms", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ["opt", "codegen", "runtime", "grid", "solvers", "service"]
# Spans of the benchmark's own work: inputs, reference solvers, checks
# and the bandwidth probe. Not a layer, and not in any layer's share.
HARNESS = "harness"

PER_LAYER = {
    "opt.compile_ms": ("ms", "lower"),
    "opt.groups": ("count", "lower"),
    "opt.stages": ("count", "lower"),
    "opt.overlap_redundancy": ("frac", "lower"),
    "opt.array_mb": ("MB", "lower"),
    "opt.plan_cache_hit_ratio": ("frac", "higher"),
    "codegen.jit_ms": ("ms", "lower"),
    "codegen.bound_kernels": ("count", "higher"),
    "codegen.fallbacks": ("count", "lower"),
    "runtime.executor_init_ms": ("ms", "lower"),
    "runtime.first_run_ms": ("ms", "lower"),
    "runtime.run_ms_p50": ("ms", "lower"),
    "runtime.run_ms_p90": ("ms", "lower"),
    "runtime.scaling_1to4": ("x", "higher"),
    "runtime.queue_spins_per_run": ("count", "lower"),
    "runtime.queue_pops_per_run": ("count", "lower"),
    "runtime.parallel_regions_per_run": ("count", "lower"),
    "runtime.computed_gbps": ("GB/s", "higher"),
    "runtime.roofline_frac": ("frac", "higher"),
    "grid.copy_back_ms": ("ms", "lower"),
    "grid.stream_gbps": ("GB/s", "higher"),
    "grid.memcpy_gbps": ("GB/s", "higher"),
    "solvers.cycles_to_tol": ("count", "lower"),
    "solvers.residual_norm_ms": ("ms", "lower"),
    "solvers.guard_overhead_ms": ("ms", "lower"),
    "solvers.handopt_cycle_ms": ("ms", "lower"),
    "solvers.handopt_pluto_cycle_ms": ("ms", "lower"),
    "service.queue_ms_p50": ("ms", "lower"),
    "service.queue_ms_p99": ("ms", "lower"),
    "service.solve_ms_p50": ("ms", "lower"),
    "service.solve_ms_p99": ("ms", "lower"),
    "service.admit_us": ("us", "lower"),
    "service.shed": ("count", "lower"),
    "service.deadline_hits": ("count", "lower"),
    "service.unconverged": ("count", "lower"),
    "service.degraded": ("count", "lower"),
    "service.gen_late_ms_p99": ("ms", "lower"),
    "obs.trace_overhead": ("frac", "lower"),
}
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_share"] = ("frac", "lower")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


# --------------------------------------------------------------------------
# Statistics.

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(values, p):
    """The nearest-rank p-th percentile, lowered to the highest rank with
    at least ten samples beyond it: a tail read off fewer samples is one
    outlier. With ten samples or fewer it is the median."""
    n = len(values)
    rank = min(math.ceil(p / 100.0 * n), n - 10)
    if rank < 1:
        return median(values)
    return sorted(values)[rank - 1]


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


# --------------------------------------------------------------------------
# Inputs.

def make_schedule(seed, seconds):
    """Open-loop arrivals for service-open, fixed by the seed before the
    run: Poisson arrivals at OPEN_LOOP["rate_per_s"] for `seconds`, or
    longer until there are OPEN_LOOP["min_requests"]. Each arrival is
    (due_ms, signature, tenant, rhs index)."""
    cfg = OPEN_LOOP
    rng = random.Random(seed)
    rate = float(cfg["rate_per_s"])
    horizon_ms = 1000.0 * float(seconds)
    sigs = range(len(cfg["signature_shares"]))
    tenants = range(len(cfg["tenant_shares"]))
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(rate) * 1000.0
        if t > horizon_ms and len(arrivals) >= cfg["min_requests"]:
            break
        arrivals.append((
            t,
            rng.choices(sigs, weights=cfg["signature_shares"])[0],
            rng.choices(tenants, weights=cfg["tenant_shares"])[0],
            rng.randrange(cfg["rhs_per_signature"]),
        ))
    return arrivals


def write_schedule(arrivals, path):
    with open(path, "w") as f:
        for due, sig, tenant, rhs in arrivals:
            f.write("%.6f %d %d %d\n" % (due, sig, tenant, rhs))


def fresh_jit_cache_dir(build_dir):
    """A new, empty JIT cache root for one driver invocation. The driver
    gives each setup repetition its own subdirectory, so set-up never
    reads kernels compiled by an earlier run or repetition."""
    parent = os.path.join(build_dir, "jit")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=parent)
    if os.listdir(path):
        raise RuntimeError("JIT cache dir %s is not empty" % path)
    return path


def driver_env(jit_dir):
    """The driver's environment: the JIT cache it may read is the fresh
    one (the driver sets OMP_NUM_THREADS to its workload's team itself)."""
    env = dict(os.environ)
    env["POLYMG_JIT_CACHE_DIR"] = jit_dir
    return env


# --------------------------------------------------------------------------
# Build and machine description.

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(bdir):
    cmake_dir = os.path.join(bdir, "perfbench")
    exe = os.path.join(cmake_dir, "perfbench_driver")
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "perfbench_driver", "-j", str(min(4, nproc()))],
                   stdout=sys.stderr, check=True)
    return exe


def read_file(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def source_id():
    """git sha when the checkout is a repository, else a hash of the
    library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def machine_info(workload, seed, driver_info):
    cpu = ""
    for line in read_file("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem_kb = 0
    for line in read_file("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {
        "cpu": cpu,
        "nproc": int(driver_info.get("nproc", 0)),
        "l3_mb": round(float(driver_info.get("l3_mb", 0)), 1),
        "ram_gb": round(mem_kb / 1e6, 1),
        "compiler": driver_info.get("compiler", "?"),
        "cxx_flags": driver_info.get("cxx_flags", "?"),
        "source": source_id(),
        "workload": workload,
        "seed": seed,
        "OMP_NUM_THREADS": driver_info.get("OMP_NUM_THREADS", "?"),
        "OMP_PROC_BIND": driver_info.get("OMP_PROC_BIND", "?"),
        "jit_mode": driver_info.get("jit_mode", "?"),
        "jit_toolchain": driver_info.get("jit_toolchain", "?"),
        "cycle_signatures": driver_info.get("cycle_sigs", ""),
    }


# --------------------------------------------------------------------------
# Running the driver.

def run_driver(exe, bdir, workload, seed, seconds, spans, deadline_s):
    rundir = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed),
                              dir=os.path.join(bdir, "runs"))
    jit_dir = fresh_jit_cache_dir(bdir)
    try:
        out = os.path.join(rundir, "samples.json")
        cmd = [exe, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--out", out,
               "--jit-cache-dir", jit_dir]
        if workload == "service-open":
            sched = os.path.join(rundir, "arrivals.tsv")
            write_schedule(make_schedule(seed, seconds), sched)
            cmd += ["--schedule", sched]
        if spans:
            cmd += ["--spans", os.path.join(rundir, "spans.tsv")]
        timeout = max(1.0, deadline_s - time.monotonic())
        cpu0 = cpu_times()
        r = subprocess.run(cmd, env=driver_env(jit_dir),
                           stdout=sys.stderr, timeout=timeout)
        cpu1 = cpu_times()
        if r.returncode != 0:
            raise RuntimeError("perfbench_driver exited %d" % r.returncode)
        with open(out) as f:
            samples = json.load(f)
        total = sum(cpu1) - sum(cpu0)
        samples["host_steal_frac"] = (
            (cpu1[7] - cpu0[7]) / total if len(cpu1) > 7 and total else 0.0)
        if spans:
            samples["spans"] = read_spans(os.path.join(rundir, "spans.tsv"))
        return samples
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        shutil.rmtree(jit_dir, ignore_errors=True)


def cpu_times():
    """The aggregate `cpu` line of /proc/stat (field 7 is steal: time the
    hypervisor gave this guest's vCPUs to someone else)."""
    for line in read_file("/proc/stat").splitlines():
        if line.startswith("cpu "):
            return [int(x) for x in line.split()[1:]]
    return []


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            thread, layer, name, t0, t1 = line.rstrip("\n").split("\t")
            spans.append((int(thread), layer, name, int(t0), int(t1)))
    return spans


# --------------------------------------------------------------------------
# Metrics.

def cycle_sigs(samples):
    return [s for s in samples["info"]["cycle_sigs"].split(",") if s]


def sig_series(samples, sig, name):
    values = samples["series"].get("cyc.%s.%s" % (sig, name), [])
    if not values:
        raise RuntimeError("no %s samples for %s" % (name, sig))
    return values


def sum_over_sigs(samples, name, stat=median):
    """A statistic of one cycle series per signature, summed over the
    workload's cycle signatures (service-open has three)."""
    return sum(stat(sig_series(samples, s, name)) for s in cycle_sigs(samples))


def service_requests(samples):
    """Requests made through the SolveService (not direct solves)."""
    return [r for r in samples["requests"] if r["service"]]


def admitted(samples):
    return [r for r in service_requests(samples) if r["admitted"]]


def served(samples):
    return [r for r in samples["requests"]
            if r["admitted"] and r["status"] == "Generic"]


def request_latencies(samples):
    """Latency from due time of every request. Where the workload has a
    latency limit (the open loop's deadline), a request that failed or
    was refused counts as missing it."""
    limit = samples["scalars"].get("service.deadline_ms")
    lat = []
    for r in samples["requests"]:
        if limit is not None and not r["ok"]:
            lat.append(max(r["lat_ms"], float(limit)))
        elif r["admitted"]:
            lat.append(r["lat_ms"])
    return lat


def sample_counts(samples):
    counts = {"requests": len(service_requests(samples)),
              "solves": len(samples["requests"]),
              "served": len(served(samples))}
    for sig in cycle_sigs(samples):
        for name in ("opt_ms", "opt1t_ms", "pluto_ms"):
            counts["%s.%s" % (sig, name)] = len(sig_series(samples, sig, name))
    return counts


def vs_handopt_pluto(samples):
    """handopt+pluto cycle time over opt+ cycle time, each the p10 of its
    interleaved samples, or their median where a run has fewer than 20
    (solve-dram's five, of which the p10 is the fastest alone). Host CPU
    steal slows the barrier-heavy handopt+pluto cycles up to 3x and
    opt+'s by a third; in a cycle-cache run with 13% steal that moved the
    ratio of the medians from 0.55 to 1.41, while the ratio of the p10s,
    the cycles the host left alone, stayed at 0.58."""
    def stat(values):
        return percentile(values, 10) if len(values) >= 20 else median(values)
    return (sum_over_sigs(samples, "pluto_ms", stat) /
            sum_over_sigs(samples, "opt_ms", stat))


def end_to_end(samples):
    lat = request_latencies(samples)
    # signature -> right-hand side -> solve times
    solve = {}
    for r in served(samples):
        solve.setdefault(r["sig"], {}).setdefault(r["rhs"], []).append(
            r["solve_ms"])
    if not lat or not solve:
        raise RuntimeError("no request was served")
    m = {
        "setup_s": median(samples["series"]["setup_s"]),
        "cycle_ms": sum_over_sigs(samples, "opt_ms"),
        "cycle_1t_ms": sum_over_sigs(samples, "opt1t_ms"),
        "vs_handopt_pluto": vs_handopt_pluto(samples),
        # One solve of each signature: per signature, the mean over its
        # right-hand sides of each one's median solve time (inputs differ
        # in cycles to the tolerance), summed, so the request mix cannot
        # move it.
        "solve_s": sum(statistics.fmean(median(v) for v in by_rhs.values())
                       for by_rhs in solve.values()) / 1e3,
        "req_p50_ms": percentile(lat, 50),
        "req_p99_ms": tail_percentile(lat, 99),
        "ok_frac": 1.0 - samples["failed"] / samples["attempted"],
        "peak_rss_mb": median(samples["series"]["peak_rss_mb"]),
    }
    return m


def self_shares(spans):
    """Per-layer self time (a span's length minus its direct children on
    the same thread) as a share of the layers' summed self time. Harness
    spans keep their children but are left out of the shares."""
    self_ns = dict.fromkeys(LAYERS + [HARNESS], 0)
    by_thread = {}
    for thread, layer, _name, t0, t1 in spans:
        by_thread.setdefault(thread, []).append((t0, t1, layer))
    for items in by_thread.values():
        items.sort(key=lambda s: (s[0], -s[1]))  # parents before children
        stack = []  # open spans: [t0, t1, layer, child_ns]
        for t0, t1, layer in items + [(math.inf, math.inf, None)]:
            while stack and stack[-1][1] <= t0:
                s0, s1, slayer, child = stack.pop()
                self_ns[slayer] += max(s1 - s0 - child, 0)
                if stack:
                    stack[-1][3] += s1 - s0
            if layer is not None:
                stack.append([t0, t1, layer, 0])
    total = sum(self_ns[layer] for layer in LAYERS)
    return {layer: (self_ns[layer] / total if total else 0.0)
            for layer in LAYERS}


def per_layer(samples, untraced_e2e, traced_e2e, headline):
    sc, series = samples["scalars"], samples["series"]
    sreqs = service_requests(samples)
    reqs = admitted(samples)
    ok_served = served(samples)
    sigs = cycle_sigs(samples)
    p90 = lambda v: tail_percentile(v, 90)  # noqa: E731

    def svc(values, p):
        """A service statistic; 0 on a workload without service requests
        (solve-dram calls guarded_solve directly)."""
        if not values:
            return 0.0
        return percentile(values, 50) if p == 50 else tail_percentile(values, p)

    run_p50 = sum_over_sigs(samples, "run_ms")
    model_bytes = sum(sc["cyc.%s.model_bytes" % s] for s in sigs)
    computed_gbps = model_bytes / (run_p50 * 1e-3) / 1e9
    stream = median(series["grid.stream_gbps"])
    memcpy = median(series["grid.memcpy_gbps"])

    # Guard overhead: a served request's solve time beyond its cycles'
    # Executor::run time (median run of the same signature).
    overhead = []
    for r in ok_served:
        run = series.get("cyc.%s.run_ms" % r["sig"])
        if run:
            overhead.append(r["solve_ms"] - r["cycles"] * median(run))
    residual_norm = [(t1 - t0) / 1e6 for _t, _l, name, t0, t1
                     in samples["spans"] if name == "residual_norm"]

    m = {
        "opt.compile_ms": median(series["opt.compile_ms"]),
        "opt.groups": sc["opt.groups"],
        "opt.stages": sc["opt.stages"],
        "opt.overlap_redundancy": sc["opt.overlap_redundancy"],
        "opt.array_mb": sc["opt.array_mb"],
        # No plan cache without a service (solve-dram): reads 0.
        "opt.plan_cache_hit_ratio": sc.get("opt.plan_cache_hit_ratio", 0.0),
        "codegen.jit_ms": median(series["codegen.jit_ms"]),
        "codegen.bound_kernels": sc["codegen.bound_kernels"],
        "codegen.fallbacks": sc["codegen.fallbacks"],
        "runtime.executor_init_ms": median(series["runtime.executor_init_ms"]),
        "runtime.first_run_ms": median(series["runtime.first_run_ms"]),
        "runtime.run_ms_p50": run_p50,
        "runtime.run_ms_p90": sum_over_sigs(samples, "run_ms", p90),
        "runtime.scaling_1to4": (sum_over_sigs(samples, "opt1t_ms") /
                                 sum_over_sigs(samples, "opt_ms")),
        "runtime.queue_spins_per_run": sum_over_sigs(samples, "spins_per_run"),
        "runtime.queue_pops_per_run": sum_over_sigs(samples, "pops_per_run"),
        "runtime.parallel_regions_per_run":
            sum_over_sigs(samples, "regions_per_run"),
        "runtime.computed_gbps": computed_gbps,
        "runtime.roofline_frac": computed_gbps / max(stream, memcpy),
        "grid.copy_back_ms": sum_over_sigs(samples, "copy_ms"),
        "grid.stream_gbps": stream,
        "grid.memcpy_gbps": memcpy,
        "solvers.cycles_to_tol": median([r["cycles"] for r in ok_served]),
        "solvers.residual_norm_ms": median(residual_norm),
        "solvers.guard_overhead_ms": median(overhead),
        "solvers.handopt_cycle_ms": sum_over_sigs(samples, "handopt_ms"),
        "solvers.handopt_pluto_cycle_ms": sum_over_sigs(samples, "pluto_ms"),
        "service.queue_ms_p50": svc([r["queue_ms"] for r in reqs], 50),
        "service.queue_ms_p99": svc([r["queue_ms"] for r in reqs], 99),
        "service.solve_ms_p50": svc([r["solve_ms"] for r in reqs], 50),
        "service.solve_ms_p99": svc([r["solve_ms"] for r in reqs], 99),
        "service.admit_us": svc([r["admit_us"] for r in sreqs], 50),
        "service.shed": sum(1 for r in sreqs if not r["admitted"]),
        "service.deadline_hits": sum(1 for r in reqs
                                     if r["status"] == "DeadlineExceeded"),
        "service.unconverged": sum(1 for r in reqs
                                   if r["status"] == "Generic" and
                                   not r["converged"]),
        "service.degraded": sum(1 for r in reqs if r["degraded"]),
        "service.gen_late_ms_p99": svc([r["late_ms"] for r in sreqs], 99),
        "obs.trace_overhead": traced_e2e[headline] / untraced_e2e[headline] - 1,
    }
    for layer, share in self_shares(samples["spans"]).items():
        m[layer + ".self_share"] = share
    return m


def validity(samples):
    """Reasons the run cannot be trusted: wrong outputs (an iterate that
    disagrees with its reference, a reference that misses the tolerance,
    a solve claiming convergence that the recomputed residual refutes)
    or an open-loop generator that fell behind its schedule."""
    reasons = []
    if samples["wrong"]:
        reasons.append("%d iterate or reference checks failed (see failures)"
                       % samples["wrong"])
    for r in samples["requests"]:
        # A degraded solve converges to the relaxed tolerance the overload
        # ladder gave it: a failure, not a wrong answer.
        if (r["converged"] and r["status"] == "Generic" and not r["ok"] and
                not r["degraded"]):
            reasons.append("%s claimed convergence at rel %.3g"
                           % (r["sig"], r["rel_residual"]))
    # The open-loop generator has fallen behind when it is late as a rule
    # (p50) or late by a tenth of the latency limit (p99). Shorter host
    # stalls delay it together with the service; latency is timed from
    # the due time, so they are measured, not hidden.
    limit = samples["scalars"].get("service.deadline_ms")
    late = [r["late_ms"] for r in service_requests(samples)]
    if limit is not None and late:
        for p, most in ((50, MAX_GENERATOR_LATE_P50_MS), (99, limit / 10)):
            if percentile(late, p) > most:
                reasons.append("generator fell behind: p%d lateness %.2f ms"
                               % (p, percentile(late, p)))
    return reasons


def metrics_block(values, table):
    missing = set(table) - set(values)
    if missing:
        raise RuntimeError("metrics not computed: %s" % sorted(missing))
    bad = [n for n, (unit, _) in table.items()
           if not valid_name(n) or not valid_unit(unit)]
    if bad:
        raise RuntimeError("invalid metric name or unit: %s" % bad)
    return {name: {"value": float(values[name]), "unit": table[name][0]}
            for name in table}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error: subprocess.run kills and reaps the
    # driver, and the run's scratch directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        bdir = build_dir()
        os.makedirs(os.path.join(bdir, "runs"), exist_ok=True)
        exe = build(bdir)
        deadline = time.monotonic() + TIME_LIMIT_S  # build is not timed
        samples = run_driver(exe, bdir, args.workload, args.seed,
                             args.seconds, False, deadline)
        e2e = end_to_end(samples)
        reasons = validity(samples)
        meta = machine_info(args.workload, args.seed, samples["info"])
        if args.trace:
            traced = run_driver(exe, bdir, args.workload, args.seed,
                                args.seconds, True, deadline)
            reasons += validity(traced)
            values = per_layer(traced, e2e, end_to_end(traced),
                               TRACE_HEADLINE[args.workload])
            metrics = metrics_block(values, PER_LAYER)
            meta["stream_buffers_mb"] = [
                traced["scalars"]["grid.stream_buffer_mb"]] * 2
        else:
            metrics = metrics_block(e2e, END_TO_END)
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    meta["trace"] = args.trace
    meta["seconds"] = args.seconds
    meta["samples"] = sample_counts(samples)
    meta["host_steal_frac"] = round(samples["host_steal_frac"], 4)
    meta["req_p99_ms"] = round(e2e["req_p99_ms"], 3)
    meta["failures"] = samples["failures"]
    meta["invalid"] = reasons
    result = {
        "correct": not reasons,
        "attempted": int(samples["attempted"]),
        "failed": int(samples["failed"]),
        "metrics": metrics,
    }
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    print("perfbench-meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
