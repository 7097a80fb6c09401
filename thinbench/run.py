#!/usr/bin/env python3
"""thinbench runner: build the benchmark program, run one workload, report.

Run from the repository root:

    python3 thinbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

It configures and builds thinbench/ (the thinair library from src/ plus
the measuring program) into .bench_build/ (or $CARGO_TARGET_DIR), runs
the workload, and prints a human-readable report followed, as the last
line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Spans of a traced run are written
to .bench_out/. The exit code is nonzero when an output check fails or
the sources are missing. See thinbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys

WORKLOADS = ("churn", "sweep-fig1", "sweep-headline", "served")

# End-to-end metric -> (metric the program reports, scale) per workload.
# The program reports workload-specific names (sessions_per_s, ttk_p50_ms,
# ...); the benchmark gates one workload-neutral set of names.
_SWEEP_E2E = {
    "throughput_per_s": ("cases_per_s", 1.0),
    "latency_p50_ms": ("case_ms_p50", 1.0),
    "peak_rss_mb": ("peak_rss_mb", 1.0),
    "setup_s": ("setup_s", 1.0),
}
E2E_SOURCES = {
    "churn": {
        "throughput_per_s": ("sessions_per_s", 1.0),
        "latency_p50_ms": ("session_us_p50", 1e-3),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
        "setup_s": ("setup_s", 1.0),
    },
    "sweep-fig1": _SWEEP_E2E,
    "sweep-headline": _SWEEP_E2E,
    "served": {
        "throughput_per_s": ("daemon_sessions_per_cpu_s", 1.0),
        "latency_p50_ms": ("ttk_p50_ms", 1.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
        "setup_s": ("setup_s", 1.0),
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("thinbench: " + msg)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build the thinbench target; returns the binary."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "thinbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "thinbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "thinbench")


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def fingerprint(build_dir, loadavg, gf_kernel):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": model or platform.processor(),
        "compiler": version or compiler,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "gf_kernel": gf_kernel,
        "loadavg_at_start": " ".join("%.2f" % x for x in loadavg),
        "kernel": platform.release(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    loadavg = os.getloadavg()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "core", "session.h")):
        fail("no thinair sources under ./src — run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(root, os.path.abspath(build_dir))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload, 1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("workload %s printed no report (exit %d)"
             % (args.workload, proc.returncode), 1)

    fp = fingerprint(os.path.abspath(build_dir), loadavg,
                     report["info"].get("gf_kernel", ""))
    print("thinbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for k, v in fp.items():
        print("  machine.%s: %s" % (k, v))
    attempted, failed = report["attempted"], report["failed"]
    print("  attempted: %d  failed: %d  fail_frac: %.6g"
          % (attempted, failed, failed / attempted if attempted else 1.0))
    for name, m in sorted(report["metrics"].items()):
        why = report["absent"].get(name)
        if why:
            print("  %-34s absent: %s" % (name, why))
        else:
            print("  %-34s %.6g %s  (p25 %.6g, p75 %.6g, n=%d)"
                  % (name, m["value"], m["unit"], m["p25"], m["p75"], m["n"]))
    for name, c in sorted(report["checks"].items()):
        print("  check %-28s %s  %s"
              % (name, "ok" if c["ok"] else "FAILED", c["detail"]))
    for key, value in sorted(report["info"].items()):
        print("  info.%s: %s" % (key, value))
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"machine": fp, "report": report}, f, indent=1)

    correct = proc.returncode == 0 and all(
        c["ok"] for c in report["checks"].values()) and attempted >= 1
    metrics = {}
    if args.trace == 0:
        sources = E2E_SOURCES[args.workload]
        for spec in bench["end_to_end"]:
            source, scale = sources[spec["name"]]
            m = report["metrics"].get(source)
            value = m["value"] * scale if m else float("nan")
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in bench["per_layer"]:
            m = report["metrics"].get(spec["name"])
            if m is None:
                log("thinbench: per-layer metric %s not reported" % spec["name"])
                correct = False
                value = float("nan")
            else:
                value = m["value"]
                if spec["name"] not in report["absent"] and m["unit"] != spec["unit"]:
                    log("thinbench: %s unit %s != %s"
                        % (spec["name"], m["unit"], spec["unit"]))
                    correct = False
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            log("thinbench: metric %s has no finite value" % name)
            correct = False
            m["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
