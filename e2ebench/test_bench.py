#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout (builds the benchmark on first use):

    python3 e2ebench/test_bench.py

- a tiny-size pass of every workload prints every end-to-end metric with
  its unit and passes its output checks;
- a tiny traced pass prints every per-layer metric and writes its spans;
- a corrupted reference digest makes the run fail (failed > 0, exit 1);
- every metric the benchmark's design names is in BENCHMARK.json with its
  unit, or listed in MISSING with the reason;
- without the library sources the benchmark exits nonzero and prints no
  result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFERENCE_SEED = "20100308"

# Metric -> unit, for every metric in the benchmark's design (README.md).
NAMED = {
    "setup_s": "s", "items_per_s.t1": "1/s", "items_per_s.t4": "1/s",
    "peak_rss_mb": "MB", "fail_frac": "fraction",
    "device.sample_s": "s", "device.sample.share": "fraction",
    "sense.kernel_s": "s", "sense.kernel.share": "fraction",
    "sim.yield.residual_s": "s", "sim.yield.residual.share": "fraction",
    "sim.yield.t4_eff": "fraction", "sense.kernel_build_s": "s",
    "device.opcache.hit_rate": "fraction", "device.opcache.lookups": "count",
    "io.json.parse_s": "s", "scenario.expand_s": "s",
    "scenario.instance_ms.p50": "ms", "scenario.instance_ms.max": "ms",
    "scenario.t4_busy_frac": "fraction", "scenario.verify_s": "s",
    "scenario.instances": "count",
    "engine.ctrl.ns_per_req": "ns", "fault.hook.ns_per_read": "ns",
    "fault.read_outcome_ns": "ns", "engine.ctrl.t4_eff": "fraction",
    "engine.row_hit_rate": "fraction", "engine.coalesced_frac": "fraction",
    "engine.queue_wait_frac": "fraction", "engine.peak_queue_depth": "count",
    "fault.retries_per_read": "count", "model.p99_latency_ns": "ns",
    "model.bandwidth_mbps": "Mbit/s", "model.energy_pj_per_bit": "pJ",
    "spice.nd_read_ms.p50": "ms", "spice.nd_read_ms.p99": "ms",
    "spice.d_read_ms.p50": "ms", "spice.d_read_ms.p99": "ms",
    "spice.build_us": "us", "spice.dc_ms": "ms", "spice.transient_ms": "ms",
    "spice.newton_per_step": "count", "spice.steps_rejected_frac": "fraction",
    "spice.us_per_factorization": "us", "common.pool.dispatch_us": "us",
    "obs.metrics_on_ratio": "ratio", "trace.overhead_frac": "fraction",
}
NAMED.update({"scenario.kind.%s_s" % k: "s" for k in (
    "yield", "tail", "traffic", "controller", "fault_overlay",
    "margin_sweep", "march")})

# Named metrics deliberately not reported under their own name.
MISSING = {
    "fail_frac": "a metric must never be 0; the result line's 'failed' / "
                 "'attempted' carry the failure share, and any failure "
                 "exits 1",
    "obs.metrics_on_ratio": "reported per workload as "
                            "obs.metrics_on_ratio.yield and "
                            "obs.metrics_on_ratio.controller",
}


def run(*args, cwd=ROOT, runner=os.path.join(HERE, "run.py")):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    p = subprocess.run([sys.executable, runner] + list(args), cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def metric_units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


class BenchmarkTest(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         metric_units(section))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_tiny_pass_of_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run("--workload", w, "--seed", "3",
                                   "--seconds", "1", "--trace", "0", "--tiny")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_result(result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_reference_digests_match(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run("--workload", w, "--seed", REFERENCE_SEED,
                                   "--seconds", "1", "--trace", "0", "--tiny")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])

    def test_corrupted_digest_fails(self):
        os.makedirs(OUT, exist_ok=True)
        bad = os.path.join(OUT, "corrupt_reference.json")
        with open(bad, "w") as f:
            json.dump({w + "/tiny": "0000000000000000" for w in WORKLOADS}, f)
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run("--workload", w, "--seed", REFERENCE_SEED,
                                   "--seconds", "1", "--trace", "0", "--tiny",
                                   "--reference", bad)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_traced_pass_prints_per_layer_metrics(self):
        code, result = run("--workload", "controller_mixed", "--seed", "4",
                           "--seconds", "1", "--trace", "1", "--tiny")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.check_result(result, "per_layer")
        spans = os.path.join(OUT, "controller_mixed-seed4.spans.csv")
        with open(spans) as f:
            header = f.readline().strip()
            self.assertEqual(header, "id,parent,run,name,calls,start_us,"
                                     "end_us,busy_us,self_us")
            self.assertTrue(f.readline())

    def test_every_named_metric_is_reported_or_explained(self):
        units = metric_units("end_to_end")
        units.update(metric_units("per_layer"))
        for name, unit in NAMED.items():
            with self.subTest(metric=name):
                if name in MISSING:
                    self.assertNotIn(name, units)
                    self.assertTrue(MISSING[name])
                else:
                    self.assertEqual(units.get(name), unit)

    def test_fails_without_library_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result = run("--workload", "yield_1mbit", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=bare,
                           runner=os.path.join(bare, "e2ebench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
