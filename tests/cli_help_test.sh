#!/bin/sh
# CLI help consistency check (wired into ctest as `cli_help`).
#
#   cli_help_test.sh <sttram_cli binary> <path to sttram_cli.cpp>
#
# 1. `-h`, `--help` and the `help` command must print byte-identical
#    text (the CLI has exactly one help text).
# 2. Every `--flag` string literal the source's parsers accept must
#    appear in that help text — a flag you can pass but cannot discover
#    is a documentation bug.
# 3. Usage errors exit 2: unknown commands, unknown campaign verbs,
#    unknown campaign flags, malformed subcommand arguments and campaign
#    params outside their schema all refuse with the documented status.
set -eu

cli="$1"
source="$2"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$cli" -h > "$workdir/h.txt"
"$cli" --help > "$workdir/help_flag.txt"
"$cli" help > "$workdir/help_cmd.txt"

if ! cmp -s "$workdir/h.txt" "$workdir/help_flag.txt"; then
  echo "FAIL: -h and --help print different text" >&2
  diff "$workdir/h.txt" "$workdir/help_flag.txt" >&2 || true
  exit 1
fi
if ! cmp -s "$workdir/h.txt" "$workdir/help_cmd.txt"; then
  echo "FAIL: -h and the help command print different text" >&2
  diff "$workdir/h.txt" "$workdir/help_cmd.txt" >&2 || true
  exit 1
fi

# Collect every distinct "--flag" literal from the source (comment
# lines excluded).  This matches the parser tables and strcmp calls;
# matching inside the help string itself is harmless (those are in the
# help text by definition).
flags="$(grep -v '^[[:space:]]*//' "$source" \
    | grep -o '"--[a-z][a-z-]*"' | tr -d '"' | sort -u)"
if [ -z "$flags" ]; then
  echo "FAIL: no --flag literals found in $source (wrong path?)" >&2
  exit 1
fi

status=0
for flag in $flags; do
  if ! grep -q -- "$flag" "$workdir/h.txt"; then
    echo "FAIL: flag '$flag' is parsed but missing from --help" >&2
    status=1
  fi
done

# Controller-mode flags are load-bearing for the chip-scale traffic
# path: assert them by name so a parser refactor that silently drops
# one fails here even if the source-scrape above changes shape.
for flag in --controller --channels --ranks --banks --scheduler; do
  if ! grep -q -- "$flag" "$workdir/h.txt"; then
    echo "FAIL: controller flag '$flag' missing from --help" >&2
    status=1
  fi
done

# The SIMD override must be discoverable: both the --simd flag and its
# STTRAM_SIMD environment twin belong in the one help text.
for token in --simd STTRAM_SIMD; do
  if ! grep -q -- "$token" "$workdir/h.txt"; then
    echo "FAIL: '$token' missing from --help" >&2
    status=1
  fi
done

# Usage errors must exit 2 (not 0, not a crash).
expect_exit2() {
  rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$*' exited $rc, want 2" >&2
    status=1
  fi
}
expect_exit2 "$cli" no-such-command
expect_exit2 "$cli" campaign bogus-verb
expect_exit2 "$cli" campaign
expect_exit2 "$cli" campaign run --bogus-flag
expect_exit2 "$cli" campaign run
expect_exit2 "$cli" campaign verify /nonexistent.json

# An unknown SIMD ISA is a usage error whether it arrives by flag or by
# environment variable — both must refuse with status 2.
expect_exit2 "$cli" --simd bogus stats
expect_exit2 env STTRAM_SIMD=bogus "$cli" stats

# Malformed Monte-Carlo arguments are usage errors too: every number must
# be consumed whole, finite and in range (rows/cols >= 1 and given
# together, sigma / margin / --faults >= 0, --retry an integer >= 1), and
# flags the commands no longer take are unknown flags.
expect_exit2 "$cli" yield abc 7
expect_exit2 "$cli" yield 0 0
expect_exit2 "$cli" yield 64
expect_exit2 "$cli" yield 64 64 0.06junk
expect_exit2 "$cli" yield 16 16 nan
expect_exit2 "$cli" yield 16 16 -0.1
expect_exit2 "$cli" yield 16 16 0.06 7
expect_exit2 "$cli" yield 16 16 --faults abc
expect_exit2 "$cli" yield 16 16 --faults 0.01 --retry 2x
expect_exit2 "$cli" yield 16 16 --faults 0.01 --retry 0
expect_exit2 "$cli" yield --no-batch
expect_exit2 "$cli" tail abc
expect_exit2 "$cli" tail 8x
expect_exit2 "$cli" tail -1
expect_exit2 "$cli" tail 8 9
expect_exit2 "$cli" tail --no-batch

# Every subcommand reads its numbers with the strict token parser and
# checks them against the schema of the kind it runs: a malformed token,
# an out-of-range value or a bad flag combination names the flag and
# exits 2, never 0 (silently wrong run) or 1 (library error mid-run).
expect_exit2 "$cli" traffic --requests 10x
expect_exit2 "$cli" traffic --requests abc
expect_exit2 "$cli" traffic --requests -5
expect_exit2 "$cli" traffic --banks 4.9
expect_exit2 "$cli" traffic --banks 0
expect_exit2 "$cli" traffic --rho 1.5
expect_exit2 "$cli" traffic --rho abc
expect_exit2 "$cli" traffic --faults -1
expect_exit2 "$cli" traffic --faults abc --ecc
expect_exit2 "$cli" traffic --retry 2x
expect_exit2 "$cli" traffic --seed xyz
expect_exit2 "$cli" traffic --think-ns nan --workload closed
expect_exit2 "$cli" traffic --word-bits 0
expect_exit2 "$cli" traffic --read-fraction 2
expect_exit2 "$cli" traffic --controller --channels -1
expect_exit2 "$cli" traffic --ecc
expect_exit2 "$cli" traffic --channels 2
expect_exit2 "$cli" traffic --controller --policy fcfs
expect_exit2 "$cli" traffic --controller --requests 2 --channels 4
expect_exit2 "$cli" fault --rows -1
expect_exit2 "$cli" fault --rows 32.7
expect_exit2 "$cli" fault --density abc
expect_exit2 "$cli" fault --seed xyz
expect_exit2 "$cli" margins abc
expect_exit2 "$cli" read 7
expect_exit2 "$cli" read abc
expect_exit2 "$cli" transient abc
expect_exit2 "$cli" --threads 2x yield 16 16
expect_exit2 "$cli" yield 16 16 --ecc

# A trace row that does not parse names its row and exits 2.
printf '0,R,0\ninf,R,1\n' > "$workdir/bad_trace.csv"
expect_exit2 "$cli" traffic --trace-file "$workdir/bad_trace.csv" --banks 2

# Campaign params go through the same schema: every verb refuses a value
# outside its field's range with exit 2 before any instance runs.
golden="$(dirname "$source")/campaigns/golden/smoke.json"
probe=0
for case in 'yield|"rows": -1' 'yield|"sigma_common": -0.1' \
            'traffic|"requests": -5' 'traffic|"faults_ber": -1' \
            'traffic|"word_bits": 1e30' 'traffic|"rho": 1.5' \
            'tail|"trials": -1' 'controller|"channels": -1' \
            'march|"density": -0.5'; do
  probe=$((probe + 1))
  file="$workdir/probe$probe.json"
  printf '{"schema_version": 1, "name": "probe", "scenarios": [{"name": "p", "kind": "%s", "params": {%s}}]}\n' \
    "${case%%|*}" "${case#*|}" > "$file"
  expect_exit2 "$cli" campaign run "$file"
  expect_exit2 "$cli" campaign expand "$file"
  expect_exit2 "$cli" campaign verify "$file" --golden "$golden"
done

count="$(echo "$flags" | wc -l)"
[ "$status" -eq 0 ] && echo "OK: help texts identical, $count flags documented, usage errors exit 2"
exit "$status"
