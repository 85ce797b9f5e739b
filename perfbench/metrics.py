"""Metric rules of the perfbench benchmark: percentiles, names, and the result document.

perfbench_sim prints raw results (virtual-time samples in cycles, host timings per round,
layer counters and span self times); this module turns them into the named metrics listed
in BENCHMARK.json. It has no dependencies beyond the standard library so the benchmark's own
tests (test_metrics.py) can exercise it without building anything.
"""

import json
import math
import re
import statistics
from fractions import Fraction

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Tail candidates, highest first. A tail percentile is the highest one with at least
# MIN_BEYOND samples above it.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 75.0)
MIN_BEYOND = 10


def rank(n, q):
    """1-based nearest rank of percentile q (0 < q <= 100) among n samples (exact arithmetic:
    p99.9 of 10000 samples is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def beyond(n, q):
    """Number of samples strictly above the nearest-rank percentile q."""
    return n - rank(n, q)


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def tail_q(n):
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it, or None."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def q_label(q):
    return "p" + ("%g" % q)


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(values):
    return statistics.median(values)


class Report:
    """Named metrics with units, plus the sample count and percentile label of each."""

    def __init__(self):
        self.metrics = {}  # name -> (value, unit, note)

    def add(self, name, value, unit, note=""):
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError("bad metric name or unit: %r %r" % (name, unit))
        if name in self.metrics:
            raise ValueError("duplicate metric %r" % name)
        self.metrics[name] = (float(value), unit, note)

    def add_p50(self, name, samples, scale, unit):
        """Median of samples (x scale), or 0 with n=0 when the layer did no such work."""
        if not samples:
            self.add(name, 0.0, unit, "n=0")
            return
        self.add(name, percentile(samples, 50) * scale, unit, "p50 n=%d" % len(samples))

    def add_tail(self, name, samples, scale, unit):
        q = tail_q(len(samples))
        if q is None:
            raise ValueError("%s: %d samples are too few for a tail" % (name, len(samples)))
        self.add(name, percentile(samples, q) * scale, unit,
                 "%s n=%d beyond=%d" % (q_label(q), len(samples), beyond(len(samples), q)))

    def table(self):
        width = max((len(n) for n in self.metrics), default=0)
        return ["%-*s %16.6f %-8s %s" % (width, name, value, unit, note)
                for name, (value, unit, note) in self.metrics.items()]

    def metrics_json(self):
        return {name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()}


def result_line(correct, attempted, failed, report):
    """The benchmark's last stdout line."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": report.metrics_json()},
                      sort_keys=False)


def parse_result_line(stdout):
    """Parses the last non-empty stdout line as the result object and validates its shape."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    doc = json.loads(lines[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(doc))
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError("%s must be a whole number" % key)
    if doc["attempted"] < 1:
        raise ValueError("attempted must be >= 1")
    for name, metric in doc["metrics"].items():
        if not valid_name(name) or set(metric) != {"value", "unit"}:
            raise ValueError("bad metric %r" % name)
        if not isinstance(metric["value"], (int, float)) or not valid_unit(metric["unit"]):
            raise ValueError("bad value or unit for %r" % name)
    return doc


# --- metrics from one perfbench_sim document -----------------------------------------------------


def end_to_end(sim):
    """End-to-end metrics (tracing off): host speed of the simulator and virtual-time figures."""
    cps = float(sim["cycles_per_second"])
    us = 1e6 / cps
    v = sim["virtual"]
    rounds = [r for r in sim["rounds"] if not r["traced"]]
    rep = Report()
    # Host-time family: moves with any change to the simulator's speed.
    rep.add("setup_s", median([r["setup_s"] for r in rounds]), "s",
            "median of %d set-ups" % len(rounds))
    rep.add("ops_per_host_s", median([v["ok"] / r["timed_s"] for r in rounds]), "1/s",
            "median of %d rounds, %d ops each" % (len(rounds), v["ok"]))
    rep.add("host_rss_mb", sim["rss_mb"], "MiB", "peak RSS of the workload process")
    # Virtual-time family: a pure function of (workload, seed); moves only with the model.
    rep.add_p50("fork_vus_p50", v["fork_latency"], us, "us")
    rep.add_tail("fork_vus_tail", v["fork_latency"], us, "us")
    rep.add_p50("lat_vus_p50", v["op_latency"], us, "us")
    rep.add_tail("lat_vus_tail", v["op_latency"], us, "us")
    rep.add("goodput_vops", v["good"] / (v["phase_cycles"] / cps), "1/s",
            "ops within %.0f us per virtual s" % (sim["latency_limit_cycles"] * us))
    rep.add("ok_frac", v["ok"] / v["attempted"], "frac", "n=%d" % v["attempted"])
    rep.add("resident_mb", v["counters"]["mem.frames_peak"] * 4096 / 2**20, "MiB",
            "peak simulated resident frames")
    return rep


def per_layer(sim):
    """Per-layer metrics from the traced rounds' spans and the layer counters."""
    cps = float(sim["cycles_per_second"])
    us = 1e6 / cps
    v = sim["virtual"]
    c = v["counters"]
    self_times = sim["self_ns"]  # span name -> self time (ns) of every traced span
    ops = max(1, v["attempted"])
    forks = max(1, len(v["fork_latency"]))
    traced = [r for r in sim["rounds"] if r["traced"]]
    untraced = [r for r in sim["rounds"] if not r["traced"]]

    def samples(prefix):
        return [x for name, xs in self_times.items() if name.startswith(prefix) for x in xs]

    def self_ns(prefix):
        return sum(samples(prefix))

    per_round = 1.0 / max(1, len(traced))
    rep = Report()
    rep.add_p50("kernel.boot_ms", samples("kernel.boot"), 1e-6, "ms")
    rep.add("kernel.syscalls_per_op", c["kernel.syscalls"] / ops, "count")
    rep.add_p50("kernel.syscall_host_ns", samples("kernel.sys."), 1.0, "ns")
    rep.add("kernel.fault_vcycles_per_op", c["kernel.fault_cycles"] / ops, "cycles")
    rep.add("kernel.faults_taken", c["kernel.faults_taken"], "count")
    rep.add("kernel.admission_rejected", c["kernel.admission_rejected"], "count")
    rep.add("kernel.admission_parked", c["kernel.admission_parked"], "count")
    rep.add("kernel.parked_wait_vus_max", c["kernel.parked_wait_cycles_max"] * us, "us")
    rep.add("kernel.fork_failures",
            max(0, c["kernel.fork_errors"] - c["kernel.admission_rejected"]), "count")
    rep.add("kernel.faults_contained", c["kernel.faults_contained"], "count")
    rep.add_p50("ufork.fork_host_us_p50", samples("ufork.fork"), 1e-3, "us")
    rep.add("ufork.pages_mapped_per_fork", c.get("ufork.pages_mapped", 0) / forks, "count")
    rep.add("ufork.pages_copied_eagerly_per_fork",
            c.get("ufork.pages_copied_eagerly", 0) / forks, "count")
    rep.add("ufork.pages_copied_on_fault", c["ufork.pages_copied_on_fault"], "count")
    rep.add("ufork.caps_relocated_on_fault", c["ufork.caps_relocated_on_fault"], "count")
    rep.add("ufork.caps_stripped", c["ufork.caps_stripped"], "count")
    rep.add("machine.cow_faults", c["machine.cow_faults"], "count")
    rep.add("machine.cap_load_faults", c["machine.cap_load_faults"], "count")
    store_kib = c.get("machine.store_bytes", 0) / 1024.0
    rep.add("machine.store_host_ns_per_kib",
            self_ns("machine.store") * per_round / store_kib if store_kib else 0.0, "ns")
    rep.add("mem.frames_peak", c["mem.frames_peak"], "count")
    rep.add("mem.frame_allocs_per_op", c["mem.frame_allocs"] / ops, "count")
    rep.add("mem.free_frames_min", c["mem.free_frames_min"], "count")
    run_self_s = self_ns("sched.run") * per_round / 1e9
    rep.add("sched.run_self_host_s", run_self_s, "s", "Run minus spans, per round")
    rep.add("sched.context_switches_per_op", c["sched.context_switches"] / ops, "count")
    rep.add("sched.host_ns_per_slice", run_self_s * 1e9 / max(1, c["sched.slices"]), "ns")
    rep.add_p50("guest.malloc_host_ns", samples("guest.malloc"), 1.0, "ns")
    rep.add_p50("apps.redis_set_host_us", samples("apps.redis_set"), 1e-3, "us")
    rep.add_p50("apps.redis_save_host_ms", samples("apps.redis_save"), 1e-6, "ms")
    rep.add_p50("apps.faas_exec_vus_p50", v["faas_exec"], us, "us")
    rep.add_p50("apps.save_vms_p50", v["save_latency"], us / 1e3, "ms")
    late = v["late"]
    rep.add("gen.late_vus_p99", percentile(late, 99) * us if late else 0.0, "us",
            "n=%d" % len(late))
    overhead = 0.0
    if traced and untraced:
        overhead = (median([r["timed_s"] for r in traced]) /
                    median([r["timed_s"] for r in untraced]) - 1.0)
    rep.add("trace.overhead_frac", overhead, "frac",
            "%d traced / %d untraced rounds" % (len(traced), len(untraced)))
    return rep


def checks(sim):
    """Output checks over a perfbench_sim document; returns the list of failures."""
    failures = list(sim["check_failures"])
    if not sim["deterministic"]:
        failures.append("a same-seed round did not reproduce the virtual-time results")
    if not sim["inputs_differ"]:
        failures.append("seed+1 generated the same inputs")
    if sim["failed_ops"]:
        failures.append("%d operations failed their output check" % sim["failed_ops"])
    if len(sim["rounds"]) < 2:
        failures.append("fewer than two rounds ran")
    return failures
