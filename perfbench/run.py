#!/usr/bin/env python3
"""perfbench: the repository benchmark of the uFork simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR or .bench_build, runs the workload in its own single-threaded process,
checks the outputs, prints a table of every metric with its unit and sample count, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("redis_bgsave", "fork_churn", "fleet_overload")
SIM_TIMEOUT_S = 170  # optimized builds; an unoptimized build gets ten times as long


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(root, build_type):
    """Configures and builds perfbench_sim; returns its path and the build directory."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repository root")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out, "perfbench-" + build_type.lower())
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + build_type])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_sim"), build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-type", default="Release",
                        help="CMake build type (Debug for the sensitivity check)")
    args = parser.parse_args()

    root = os.getcwd()
    binary, build_dir = build(root, args.build_type)
    trace_path = os.path.join(build_dir, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    optimized = args.build_type == "Release"

    def raise_stack_limit():
        # Unoptimized code does not turn coroutine symmetric transfer into tail calls, so a
        # long run of synchronously completing co_awaits nests host frames.
        resource.setrlimit(resource.RLIMIT_STACK, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=SIM_TIMEOUT_S * (1 if optimized else 10),
                              preexec_fn=None if optimized else raise_stack_limit)
    except subprocess.TimeoutExpired:
        fail("perfbench_sim timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("perfbench_sim exited with %d" % proc.returncode)
    sim = json.loads(proc.stdout)

    report = metrics.per_layer(sim) if args.trace else metrics.end_to_end(sim)
    failures = metrics.checks(sim)
    rounds = len(sim["rounds"])
    print("# perfbench %s seed=%d trace=%d | host: nproc=%d cpu=%s build=%s" %
          (args.workload, args.seed, args.trace, os.cpu_count() or 0, cpu_model(),
           args.build_type))
    print("# %d rounds, %d ops attempted per round, latency limit %.0f us" %
          (rounds, sim["virtual"]["attempted"],
           sim["latency_limit_cycles"] * 1e6 / sim["cycles_per_second"]))
    if args.trace:
        print("# chrome trace: " + os.path.relpath(trace_path, root))
    for line in report.table():
        print(line)
    for failure in failures:
        print("# CHECK FAILED: " + failure)
    print(metrics.result_line(not failures, sim["virtual"]["attempted"] * rounds,
                              sim["failed_ops"], report))


if __name__ == "__main__":
    main()
