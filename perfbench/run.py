#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The pdd library and the pddbench program
are compiled from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on the first run; later runs only rebuild what changed.
pddbench generates the workload's input from --seed, measures for
about --seconds, checks its outputs and reports every metric it took.
This script keeps the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1) and prints them as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"name": {"value": X, "unit": "u"}, ...}}

A per-layer metric the workload does not exercise reads 0. With
--trace 1 the run's spans are written to <build dir>/traces/. Exits 0
when every output check held, 1 when one failed, 2 when the benchmark
could not be built or run (no result line then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
# pddbench must end well inside the 180 s one run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def configured_source(build_dir):
    """The source directory an existing CMake cache was made for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures (once) and builds pddbench; returns its path or None."""
    cached = configured_source(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(
            SOURCE_DIR):
        shutil.rmtree(build_dir)  # a cache made for another checkout
        cached = None
    if cached is None:
        command = ["cmake", "-S", SOURCE_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "pddbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log("cannot read BENCHMARK.json: %s" % error)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload '%s'" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        log("build failed")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("pddbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 2
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("pddbench exited %d without a result line" % proc.returncode)
        return 2

    measured = result["metrics"]
    unknown = sorted(set(measured) - known)
    if unknown:
        log("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
        return 2
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                log("%s measured in %s, BENCHMARK.json says %s" %
                    (name, measured[name]["unit"], unit))
                return 2
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        elif result["correct"]:
            log("end-to-end metric %s was not measured" % name)
            return 2
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
