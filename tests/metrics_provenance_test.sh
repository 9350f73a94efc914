#!/bin/sh
# Metrics-file provenance check (wired into ctest as
# `cli_metrics_provenance`): the "provenance" object of a
# `sttram_cli --metrics` file holds every key, none of them empty, and
# its git_sha names the source tree as git reports it now: `git
# rev-parse --short HEAD`, plus "-dirty" when `git diff --quiet HEAD --`
# finds changed tracked files, or "unknown" outside a git checkout.
# Also: a `--trace` file written without `--metrics` holds the phases
# (one scope feeds every sink, whichever are on).
#
#   metrics_provenance_test.sh <sttram_cli binary> <source tree>
set -eu

cli="$1"
src="$2"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$cli" --threads 2 --metrics "$workdir/m.json" read 1 > /dev/null
# The file is pretty-printed with one key per line; the provenance
# object's keys sit at four spaces.
sed -n '/^  "provenance": {$/,/^  }/p' "$workdir/m.json" \
    > "$workdir/provenance.json"

status=0
for key in git_sha build_type compiler simd_isa threads host_cores \
           cpu_model command_line; do
  if ! grep -qE "^    \"$key\": (\"[^\"]+\"|[0-9]+),?\$" \
      "$workdir/provenance.json"; then
    echo "FAIL: provenance.$key is missing or empty" >&2
    status=1
  fi
done
if ! grep -qE '^    "threads": 2,?$' "$workdir/provenance.json"; then
  echo "FAIL: provenance.threads is not the --threads value 2" >&2
  status=1
fi
if ! grep -q '^    "command_line": ".* --metrics .* read 1"' \
    "$workdir/provenance.json"; then
  echo "FAIL: provenance.command_line is not the invocation" >&2
  status=1
fi
expected="unknown"
if head="$(git -C "$src" rev-parse --short HEAD 2> /dev/null)"; then
  expected="$head"
  diff_status=0
  git -C "$src" diff --quiet HEAD -- 2> /dev/null || diff_status=$?
  [ "$diff_status" -eq 1 ] && expected="$head-dirty"
fi
if ! grep -qE "^    \"git_sha\": \"$expected\",?\$" \
    "$workdir/provenance.json"; then
  echo "FAIL: provenance.git_sha is not '$expected':" >&2
  grep '"git_sha"' "$workdir/provenance.json" >&2 || true
  status=1
fi
"$cli" --trace "$workdir/t.json" yield 32 32 > /dev/null
if ! grep -q '"name": "yield.experiment"' "$workdir/t.json"; then
  echo "FAIL: a --trace-only yield run does not trace yield.experiment" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "OK: metrics provenance complete"
exit "$status"
