#!/bin/sh
# Metrics-file provenance check (wired into ctest as
# `cli_metrics_provenance`): the "provenance" object of a
# `sttram_cli --metrics` file holds every key, none of them empty.
#
#   metrics_provenance_test.sh <sttram_cli binary>
set -eu

cli="$1"
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
[ "$status" -eq 0 ] && echo "OK: metrics provenance complete"
exit "$status"
