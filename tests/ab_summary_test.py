#!/usr/bin/env python3
"""The summarizing step of tools/ab.py over canned run records (ctest
`ab_summary`, label lint): medians and quartiles per side, their ratio,
the median per-pair ratio and its interval, pairs won in each metric's
better direction, the bound verdict on the ratio of the medians, and
the per-process kernel counts."""
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tools"))
import ab  # noqa: E402

METRICS = [
    {"name": "items_per_s.t4", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
]


def record(pair, side, t4, setup, rss, faults, system, failed=0):
    return {
        "pair": pair, "side": side, "exit": 0,
        "minor_faults": faults, "system_seconds": system,
        "user_seconds": 4 * system,
        "result": {
            "attempted": 10, "failed": failed,
            "metrics": {
                "items_per_s.t4": {"value": t4, "unit": "1/s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            },
        },
    }


# Four pairs.  t4 ratios 1.2, 115/110, 130/90, 0.95: median
# (115/110 + 1.2) / 2 = 1.122727; the candidate wins three.  setup_s is
# lower on the candidate in two pairs and equal in one.  peak_rss_mb is
# 1.5x on the candidate, past its 0.2 bound.
RECORDS = [
    record(0, "base", 100.0, 0.010, 50.0, 500000, 1.4),
    record(0, "cand", 120.0, 0.008, 75.0, 20000, 0.1),
    record(1, "cand", 115.0, 0.010, 75.0, 21000, 0.1),
    record(1, "base", 110.0, 0.010, 50.0, 600000, 1.5),
    record(2, "base", 90.0, 0.012, 50.0, 550000, 1.6),
    record(2, "cand", 130.0, 0.011, 75.0, 22000, 0.2, failed=1),
    record(3, "cand", 95.0, 0.013, 75.0, 23000, 0.1),
    record(3, "base", 100.0, 0.011, 50.0, 520000, 1.3),
    # A pair with one side only (a cut run) is left out.
    record(4, "base", 1.0, 1.0, 1.0, 1, 1.0),
]


def row(lines, name):
    found = [line for line in lines if line.split()[:1] == [name]]
    assert len(found) == 1, (name, lines)
    return found[0].split()


class Summary(unittest.TestCase):
    def setUp(self):
        self.lines = ab.summarize(RECORDS, METRICS)

    def test_counts_complete_pairs(self):
        self.assertEqual(self.lines[0], "4 complete pair(s)")

    def test_medians_quartiles_ratio_and_wins(self):
        # base [90, 100, 100, 110], cand [95, 115, 120, 130].
        # Four ratios allow no 95 % interval: the range, at 1 - 2/16.
        self.assertEqual(row(self.lines, "items_per_s.t4"),
                         ["items_per_s.t4", "100", "[97.5-102.5]", "117.5",
                          "[110-122.5]", "1.1750", "1.1227",
                          "[0.9500-1.4444]", "88%", "3/4", "within"])

    def test_lower_is_better_counts_strict_wins(self):
        r = row(self.lines, "setup_s")
        self.assertEqual(r[1:3], ["0.0105", "[0.01-0.01125]"])
        self.assertEqual(r[9], "2/4")
        self.assertEqual(r[10], "within")

    def test_bound_verdict(self):
        r = row(self.lines, "peak_rss_mb")
        self.assertEqual(r[5:], ["1.5000", "1.5000", "[1.5000-1.5000]", "88%",
                                 "0/4", "WORSE", "than", "0.2"])

    def test_verdict_reads_the_ratio_of_the_medians(self):
        # Three pairs whose host speed drifts: per-pair ratios 1.38,
        # 1150/1400 and 1100/1200, median 0.9167, past a 0.05 bound;
        # the medians 1200 and 1150 give 0.9583, within it.  The bound
        # compares the change's median with the parent's, so: within.
        metric = [{"name": "items_per_s.t4", "better": "higher",
                   "bound": 0.05}]
        records = []
        for pair, (base, cand) in enumerate(
                [(1000.0, 1380.0), (1400.0, 1150.0), (1200.0, 1100.0)]):
            records.append(record(pair, "base", base, 0.01, 50.0, 1, 0.1))
            records.append(record(pair, "cand", cand, 0.01, 50.0, 1, 0.1))
        r = row(ab.summarize(records, metric), "items_per_s.t4")
        self.assertEqual(r[5:7], ["0.9583", "0.9167"])
        self.assertEqual(r[9:], ["1/3", "within"])

    def test_per_process_kernel_counts_and_failures(self):
        self.assertEqual(row(self.lines, "base"),
                         ["base", "535000", "1.450", "5.800", "0/40"])
        self.assertEqual(row(self.lines, "cand"),
                         ["cand", "21500", "0.100", "0.400", "1/40"])

    def test_summarize_mode_reads_a_record_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            records = os.path.join(tmp, "runs.jsonl")
            benchmark = os.path.join(tmp, "BENCHMARK.json")
            with open(records, "w") as f:
                for r in RECORDS:
                    f.write(json.dumps(r) + "\n")
            with open(benchmark, "w") as f:
                json.dump({"end_to_end": METRICS}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = ab.main(["--summarize", records,
                                "--benchmark", benchmark])
        self.assertEqual(code, 0)
        self.assertEqual(out.getvalue().splitlines(), self.lines)

    def test_median_interval_order_statistics(self):
        # n = 10: (x_(2), x_(9)) covers 1 - 2 * 11/1024; x_(3), x_(8)
        # would cover only 1 - 2 * 56/1024 < 0.95.
        self.assertEqual(ab.median_interval(range(10, 0, -1)),
                         (2, 9, 1 - 22 / 1024))
        self.assertEqual(ab.median_interval([3, 1, 2, 5, 4]),
                         (1, 5, 1 - 2 / 32))
        self.assertEqual(ab.median_interval([7]), (7, 7, 0.0))

    def test_no_complete_pair(self):
        self.assertEqual(ab.summarize(RECORDS[-1:], METRICS),
                         ["0 complete pair(s)"])


if __name__ == "__main__":
    unittest.main()
