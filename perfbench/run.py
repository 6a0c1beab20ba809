#!/usr/bin/env python3
"""Builds and runs the SPIRE end-to-end, per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the repository's ../src libraries; it is configured and
built under .bench_build/ on first use. Each run first executes the
benchmark's arithmetic self-tests, then the workload. Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
BENCHMARK.json end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1). A per-layer metric the workload leaves idle (IDLE below)
reports 0; any other metric the run does not measure is a mismatch. The
exit code is non-zero when the build or a self-test fails, or an output is
wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
# The compiler's and the benchmark's scratch files stay inside the checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
WORKLOADS = ["ingest", "transfer16", "track", "inventory"]
# The end-to-end metrics under their per-workload names (README.md).
READINGS = [("readings_per_s", "ops_per_s", "readings/s"),
            ("serial_readings_per_s", "serial_ops_per_s", "readings/s")]
REQUESTS = [("query_qps", "ops_per_s", "req/s"),
            ("query_qps_1c", "serial_ops_per_s", "req/s")]
ALIASES = {"ingest": READINGS, "transfer16": READINGS,
           "track": REQUESTS, "inventory": REQUESTS}
# Per-layer metrics (name prefixes) each workload leaves idle: they alone may
# be absent from a traced run, and then report 0.
STORE_WRITE = ["store.append_us_per_epoch", "store.blocks_sealed",
               "store.segment_bytes", "store.spix_bytes"]
STORE_READ = ["store.decode_us_per_block", "store.open_us"]
INGEST_ONLY = ["ledger.", "epoch_p", "complete_epoch_p50_us",
               "output_bytes_per_reading", "graph.peak_nodes",
               "graph.update_us_per_epoch_costs",
               "inference.partial_us_per_epoch",
               "inference.complete_us_per_pass"]
PIPELINE = ["stream.", "graph.", "inference.", "compress."]
QUERY_IDLE = ["dist."] + PIPELINE + STORE_WRITE + INGEST_ONLY
POINT_KINDS = ["query.location_at_", "query.container_at_",
               "query.trajectory_of_", "query.is_missing_at_"]
IDLE = {"ingest": ["dist.", "query."] + STORE_READ + ["query_p"],
        "transfer16": ["query.", "query_p", "store."] + INGEST_ONLY,
        "track": QUERY_IDLE + ["query.objects_at_"],
        "inventory": QUERY_IDLE + POINT_KINDS}
# One workload run must end well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step, sending its output to stderr."""
    result = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail(what + " failed (exit %d)" % result.returncode)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SPIRE sources at %s/src: run from the root of a checkout"
             % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet([cmake, "--build", BUILD_DIR, "--target", "perfbench",
               "perfbench_selftest", "-j", jobs], "build")
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("self-tests failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_result(workload, raw, spec, trace):
    """Prints every measured metric with its unit and returns the result
    holding the metrics BENCHMARK.json lists for this mode."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    measured = raw["metrics"]
    if not trace:
        for alias, name, unit in ALIASES[workload]:
            print("%s %s = %r %s" % (workload, alias, measured.get(name), unit))
    for name in sorted(measured):
        print("%s %s = %r %s" % (workload, name, measured[name],
                                 units.get(name, "?")))
    attempted, failed = raw["attempted"], raw["failed"]
    print("%s failed_frac = %r ratio (%d of %d operations)"
          % (workload, failed / attempted if attempted else 0.0, failed,
             attempted))
    correct = raw["correct"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        value = measured.get(name)
        if value is None:
            idle = trace and any(name.startswith(p) for p in IDLE[workload])
            if not idle:
                print("MISMATCH: %s metric not measured: %s"
                      % ("per-layer" if trace else "end-to-end", name))
                correct = False
            value = 0
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload, seed, seconds, trace):
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    result = make_result(workload, raw, load_spec(), trace)
    code = proc.returncode if result["correct"] else max(proc.returncode, 1)
    return json.dumps(result), code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.workload != "all":
        line, code = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace == 1)
        print(line)
        sys.exit(code)

    # Every workload in turn; the last line maps workload -> result.
    results, worst = {}, 0
    for workload in WORKLOADS:
        print("=== %s ===" % workload)
        line, code = run_workload(workload, args.seed, args.seconds,
                                  args.trace == 1)
        print(line)
        results[workload] = json.loads(line)
        worst = max(worst, code)
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
