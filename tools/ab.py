#!/usr/bin/env python3
"""Interleaved A/B runs of two built e2ebench binaries on one host.

Usage:

    python3 tools/ab.py --base <e2ebench> --cand <e2ebench> \\
        --workload <name> --seed <n> --pairs <N> [--seconds <s>] \\
        [--out <file>]
    python3 tools/ab.py --summarize <file> [--benchmark <BENCHMARK.json>]

A binary is the one `e2ebench/run.py` builds, `<checkout>/.bench_build/
e2ebench`, and runs against that checkout's campaign files and
reference digests.  Pair k runs both sides once, untraced, for
--seconds each: the base first in even pairs, the candidate first in
odd ones, so a drift in the host's speed favors neither side.  Each
run's result line is appended to --out as one JSON object, with the
process's minor page faults and user and system CPU seconds (the
RUSAGE_CHILDREN delta across the run).

For each end-to-end metric of BENCHMARK.json the summary prints each
side's median and interquartile range, the ratio of the medians
(candidate / base), the median per-pair ratio with its
distribution-free interval (order statistics of the ratios, at least
95 % coverage where the pair count allows, and the coverage it has),
how many pairs the candidate won (in the metric's better direction)
and whether the ratio of the medians is worse than the metric's bound,
the comparison BENCHMARK.json's bounds are read with; then each side's
median minor faults and system seconds per process, and its failed
checks.  --summarize prints the same from a file of result lines.  The
standard library only, like e2ebench/run.py.
"""
import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("base", "cand")


def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def median_interval(values, level=0.95):
    """The distribution-free interval for a median: order statistics
    (x_(k), x_(n+1-k)) of the sorted values, with the largest k whose
    coverage 1 - 2 P(Binomial(n, 1/2) < k) is at least `level` (k = 1,
    the range, when none is).  Returns (low, high, coverage)."""
    xs = sorted(values)
    n = len(xs)
    below = 1 / 2.0 ** n  # P(B < k), B ~ Binomial(n, 1/2)
    k, coverage = 1, 1 - 2 * below
    for j in range(2, n // 2 + 1):
        below += math.comb(n, j - 1) / 2.0 ** n
        if 1 - 2 * below < level:
            break
        k, coverage = j, 1 - 2 * below
    return xs[k - 1], xs[n - k], coverage


def checkout_of(binary):
    """The checkout a .bench_build/e2ebench binary was built from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(binary)))


def run_once(binary, root, args):
    """Runs one e2ebench process; returns its record (result line and
    the kernel's counts for it)."""
    cmd = [binary, "--root", root,
           "--reference", os.path.join(root, "e2ebench",
                                       "reference_digests.json"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # The last stdout line is the result; a run that failed before
    # printing one counts as failed in the summary.
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    return {
        "exit": proc.returncode,
        "result": result,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "user_seconds": after.ru_utime - before.ru_utime,
        "system_seconds": after.ru_stime - before.ru_stime,
    }


def value(record, metric):
    entry = record["result"].get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def summarize(records, end_to_end):
    """The summary table of a list of run records, as lines of text."""
    pairs = {}
    for r in records:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    out = ["%d complete pair(s)" % len(complete)]
    if not complete:
        return out
    out.append("%-16s %-26s %-26s %9s %8s %-22s %6s  %s" % (
        "metric", "base median [Q1-Q3]", "cand median [Q1-Q3]",
        "cand/base", "pair", "[interval] coverage", "won", "bound"))
    for spec in end_to_end:
        name = spec["name"]
        rows = [(value(p["base"], name), value(p["cand"], name))
                for p in complete]
        rows = [(b, c) for b, c in rows if b is not None and c is not None]
        if not rows:
            continue
        cells, medians = [], []
        for side in (0, 1):
            q1, med, q3 = quartiles([row[side] for row in rows])
            cells.append("%.4g [%.4g-%.4g]" % (med, q1, q3))
            medians.append(med)
        ratios = [c / b for b, c in rows if b != 0]
        if not ratios or medians[0] == 0:
            continue
        # The verdict reads the medians' ratio; the per-pair ratio and
        # its interval show how consistently the pairs agree with it.
        ratio = medians[1] / medians[0]
        low, high, coverage = median_interval(ratios)
        higher = spec["better"] == "higher"
        won = sum(1 for b, c in rows if (c > b if higher else c < b))
        worse = ratio < 1 - spec["bound"] if higher else \
            ratio > 1 + spec["bound"]
        out.append("%-16s %-26s %-26s %9.4f %8.4f %-22s %3d/%-2d  %s" % (
            name, cells[0], cells[1], ratio, statistics.median(ratios),
            "[%.4f-%.4f] %.0f%%" % (low, high, 100 * coverage), won,
            len(rows),
            "WORSE than %g" % spec["bound"] if worse else "within"))
    out.append("%-16s %14s %14s %14s %8s" % (
        "per process", "minor faults", "system s", "user s", "failed"))
    for side in SIDES:
        runs = [p[side] for p in complete]
        failed = sum(r["result"].get("failed", 1) for r in runs)
        attempted = sum(r["result"].get("attempted", 0) for r in runs)
        out.append("%-16s %14.0f %14.3f %14.3f %4d/%-4d" % (
            side,
            statistics.median(r["minor_faults"] for r in runs),
            statistics.median(r["system_seconds"] for r in runs),
            statistics.median(r["user_seconds"] for r in runs),
            failed, attempted))
    return out


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def end_to_end_metrics(benchmark):
    with open(benchmark) as f:
        return json.load(f)["end_to_end"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base")
    parser.add_argument("--cand")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", help="append run records here")
    parser.add_argument("--summarize", metavar="FILE",
                        help="print the summary of a file of run records")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics(args.benchmark)
    if args.summarize:
        print("\n".join(summarize(read_records(args.summarize), metrics)))
        return 0
    if not (args.base and args.cand and args.workload and
            args.seed is not None and args.pairs and args.pairs > 0):
        parser.error("--base, --cand, --workload, --seed and --pairs > 0 "
                     "are required (or --summarize)")
    binaries = {"base": args.base, "cand": args.cand}
    roots = {"base": checkout_of(args.base), "cand": checkout_of(args.cand)}
    records = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            record = run_once(binaries[side], roots[side], args)
            record.update(pair=pair, side=side, first=position == 0,
                          workload=args.workload, seed=args.seed)
            records.append(record)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
            print("pair %d %s: exit %d, %d faults, %.2f system s" % (
                pair, side, record["exit"], record["minor_faults"],
                record["system_seconds"]), file=sys.stderr)
    print("%s seed %d, %d x %d s per side" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print("\n".join(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
