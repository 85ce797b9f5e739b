"""Tests of the benchmark's own rules: python3 -m unittest discover -s perfbench"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def fake_sim(traced=False):
    """A minimal perfbench_sim document (2.5 GHz virtual clock)."""
    counters = {name: 0 for name in (
        "kernel.syscalls", "kernel.fault_cycles", "kernel.faults_taken",
        "kernel.admission_rejected", "kernel.admission_parked",
        "kernel.parked_wait_cycles_max", "kernel.fork_errors", "kernel.faults_contained",
        "ufork.pages_copied_on_fault", "ufork.caps_relocated_on_fault", "ufork.caps_stripped",
        "machine.cow_faults", "machine.cap_load_faults", "mem.frame_allocs",
        "mem.free_frames_min", "sched.context_switches", "sched.slices")}
    counters["mem.frames_peak"] = 256
    return {
        "workload": "fork_churn", "seed": 1, "cycles_per_second": 2_500_000_000,
        "latency_limit_cycles": 250_000, "inputs_differ": True, "deterministic": True,
        "rss_mb": 12.5, "failed_ops": 0, "check_failures": [],
        "rounds": [{"setup_s": 0.002, "boot_s": 0.001, "timed_s": 0.5, "traced": False},
                   {"setup_s": 0.004, "boot_s": 0.001, "timed_s": 0.6, "traced": traced}],
        "virtual": {"phase_cycles": 2_500_000_000, "attempted": 120, "ok": 100, "good": 90,
                    "fork_latency": list(range(1, 101)), "op_latency": [2500] * 100,
                    "save_latency": [], "late": [], "faas_exec": [], "counters": counters},
        "self_ns": {"ufork.fork": [1000, 2000, 3000], "sched.run": [10**9]},
    }


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(metrics.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(metrics.percentile([7], 99), 7)

    def test_exact_rank_arithmetic(self):
        # 99.9% of 10000 is exactly 9990; float arithmetic would round up to 9991.
        self.assertEqual(metrics.rank(10000, 99.9), 9990)
        self.assertEqual(metrics.beyond(10000, 99.9), 10)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(metrics.tail_q(10000), 99.9)
        self.assertEqual(metrics.tail_q(9999), 99.0)
        self.assertEqual(metrics.tail_q(1000), 99.0)
        self.assertEqual(metrics.tail_q(999), 90.0)
        self.assertEqual(metrics.tail_q(100), 90.0)
        self.assertEqual(metrics.tail_q(40), 75.0)
        self.assertIsNone(metrics.tail_q(39))

    def test_tail_note_carries_sample_count(self):
        rep = metrics.Report()
        rep.add_tail("lat_vus_tail", list(range(1000)), 1.0, "us")
        value, unit, note = rep.metrics["lat_vus_tail"]
        self.assertEqual((value, unit), (989.0, "us"))
        self.assertEqual(note, "p99 n=1000 beyond=10")

    def test_too_few_samples_for_a_tail_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.Report().add_tail("x", [1, 2, 3], 1.0, "us")


class NameGrammar(unittest.TestCase):
    def test_names(self):
        for good in ("setup_s", "kernel.boot_ms", "ufork.fork_host_us_p50", "9lives", "a-b"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "x" * 65, "lat/us"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "MiB", "frac"):
            self.assertTrue(metrics.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17):
            self.assertFalse(metrics.valid_unit(bad), bad)

    def test_report_rejects_bad_and_duplicate_names(self):
        rep = metrics.Report()
        rep.add("ok_name", 1, "s")
        with self.assertRaises(ValueError):
            rep.add("ok_name", 2, "s")
        with self.assertRaises(ValueError):
            rep.add("bad name", 1, "s")

    def test_benchmark_json_metrics_follow_the_grammar(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(metrics.valid_name(metric["name"]), metric["name"])
            self.assertTrue(metrics.valid_unit(metric["unit"]), metric["unit"])
        # Every name BENCHMARK.json lists is exactly what the metric builders emit.
        sim = fake_sim(traced=True)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         list(metrics.end_to_end(sim).metrics))
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(metrics.per_layer(sim).metrics))


class ResultDocument(unittest.TestCase):
    def test_end_to_end_from_sim_output(self):
        rep = metrics.end_to_end(fake_sim())
        self.assertAlmostEqual(rep.metrics["setup_s"][0], 0.003)
        self.assertAlmostEqual(rep.metrics["ops_per_host_s"][0], (200 + 100 / 0.6) / 2)
        self.assertAlmostEqual(rep.metrics["fork_vus_p50"][0], 50 / 2500)
        self.assertAlmostEqual(rep.metrics["ok_frac"][0], 100 / 120)
        self.assertAlmostEqual(rep.metrics["goodput_vops"][0], 90.0)
        self.assertAlmostEqual(rep.metrics["resident_mb"][0], 1.0)

    def test_per_layer_from_sim_output(self):
        rep = metrics.per_layer(fake_sim(traced=True))
        self.assertAlmostEqual(rep.metrics["ufork.fork_host_us_p50"][0], 2.0)
        self.assertAlmostEqual(rep.metrics["sched.run_self_host_s"][0], 1.0)
        self.assertAlmostEqual(rep.metrics["trace.overhead_frac"][0], 0.6 / 0.5 - 1)

    def test_result_line_round_trips(self):
        rep = metrics.end_to_end(fake_sim())
        out = "# table line\n" + metrics.result_line(True, 240, 0, rep) + "\n"
        doc = metrics.parse_result_line(out)
        self.assertEqual(doc["attempted"], 240)
        self.assertEqual(doc["metrics"]["host_rss_mb"], {"value": 12.5, "unit": "MiB"})

    def test_parse_rejects_malformed_results(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"x": {"value": 1.0, "unit": "s"}}}
        metrics.parse_result_line(json.dumps(good))
        for key, bad in (("attempted", 0), ("failed", 1.5), ("correct", "yes"),
                         ("metrics", {"x": {"value": 1.0}}), ("extra", 1)):
            doc = dict(good)
            doc[key] = bad
            with self.assertRaises(ValueError, msg=key):
                metrics.parse_result_line(json.dumps(doc))
        with self.assertRaises(ValueError):
            metrics.parse_result_line("")

    def test_checks_flag_nondeterminism_and_failed_ops(self):
        sim = fake_sim()
        self.assertEqual(metrics.checks(sim), [])
        sim["deterministic"] = False
        sim["failed_ops"] = 2
        self.assertEqual(len(metrics.checks(sim)), 2)


if __name__ == "__main__":
    unittest.main()
