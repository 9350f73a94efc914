#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds a Release tree in .bench_build/
(library plus the e2ebench binary only); later calls rebuild only what
changed.  Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  Extra flags (--tiny, --reference <file>) pass
through to the binary.  Exit status: the binary's (0 all checks passed,
1 a check failed, 2 usage), or the build's when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    """Configures (once) and builds the benchmark; returns the exit code."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if code != 0:
            return code
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", "4"],
        stdout=sys.stderr)


def source_digest():
    """sha256 over the library and benchmark sources (provenance for
    checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    code = build()
    if code != 0:
        print("e2ebench: build failed (exit %d)" % code, file=sys.stderr)
        return code if code > 0 else 1
    args = [BINARY, "--root", ROOT,
            "--reference", os.path.join(HERE, "reference_digests.json"),
            "--source-digest", source_digest()] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.call(args)


if __name__ == "__main__":
    sys.exit(main())
