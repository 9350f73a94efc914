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
# 4. `<command> --help` and `campaign <verb> --help` exit 0 with a usage
#    line and a row for every argument of the command's table, and each
#    row that sets a schema field shows it as `campaign list` does.
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

# The telemetry output flags need a path each, and not the same one:
# an empty path wrote nothing, and a shared one kept only the trace.
expect_exit2 "$cli" --metrics "" yield 8 8
expect_exit2 "$cli" --trace "" yield 8 8
expect_exit2 "$cli" --metrics "$workdir/f.json" --trace "$workdir/f.json" \
    yield 8 8

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

# Per-command help: exit 0 without running, a usage line, one row per
# table argument, and schema rows that match `campaign list` line for
# line ("  <field padded to 18> <type, range, default - description>").
"$cli" campaign list > "$workdir/list.txt"
expect_help() {
  words="$1"
  shift
  rc=0
  # shellcheck disable=SC2086  # $words is the command and its verb
  "$cli" $words --help > "$workdir/cmd_help.txt" 2>&1 || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$words --help' exited $rc, want 0" >&2
    status=1
    return 0
  fi
  if ! grep -q "^usage: sttram_cli $words" "$workdir/cmd_help.txt"; then
    echo "FAIL: '$words --help' prints no usage line" >&2
    status=1
  fi
  for arg in "$@"; do
    if ! grep -q -- "^  $arg " "$workdir/cmd_help.txt"; then
      echo "FAIL: '$words --help' has no row for '$arg'" >&2
      status=1
    fi
  done
  sed -n -e "s/; or '[^']*' (CLI only)\$//" \
      -e 's/^  [^ ]*\( <value>\)* *\([a-z_]*\): \(.*\)$/\2 \3/p' \
      "$workdir/cmd_help.txt" > "$workdir/rows.txt"
  while read -r field summary; do
    if ! grep -qxF -- "$(printf '  %-18s %s' "$field" "$summary")" \
        "$workdir/list.txt"; then
      echo "FAIL: '$words --help' row for $field differs from campaign list" >&2
      status=1
    fi
  done < "$workdir/rows.txt"
}
expect_help margins '<beta>'
expect_help design
expect_help robustness
expect_help yield '<rows>' '<cols>' '<sigma>' --faults --ecc --retry --json
expect_help tail '<margin_mv>'
expect_help read '<bit>'
expect_help transient '<bit>'
expect_help traffic --controller --scheme --requests --banks --policy \
    --workload --rho --read-fraction --clients --think-ns --seed \
    --word-bits --trace-file --faults --ecc --retry --channels --ranks \
    --rows --row-locality --scheduler --starvation-cap --no-coalesce
for section in 'kind traffic, without --controller:' \
               'kind controller, with --controller:'; do
  if ! grep -qxF -- "$section" "$workdir/cmd_help.txt"; then
    echo "FAIL: 'traffic --help' lacks the section '$section'" >&2
    status=1
  fi
done
expect_help fault --seed --rows --cols --density --json
expect_help stats
expect_help campaign
expect_help "campaign run" '<file>' --out --json
expect_help "campaign list"
expect_help "campaign expand" '<file>' --json
expect_help "campaign verify" '<file>' --golden
# --help is a command's only argument; anywhere else it is an unknown flag.
expect_exit2 "$cli" tail 8 --help
expect_exit2 "$cli" campaign run --help extra

count="$(echo "$flags" | wc -l)"
[ "$status" -eq 0 ] && echo "OK: help texts identical, $count flags documented, usage errors exit 2, per-command help complete"
exit "$status"
