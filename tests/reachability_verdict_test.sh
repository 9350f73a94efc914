#!/bin/sh
# The verdict of tools/reachability.sh over the committed nm listings in
# tests/reachability/ (ctest `reachability_verdict`, label lint):
#
#   reachability_verdict_test.sh <tools/reachability.sh> <fixtures dir>
#
# The listings define six functions: two kept by sttram_cli, one by an
# example, one by a bench, one by a test binary only (lib::seam()) and
# one by nothing (lib::unused()).  An unreached function outside the
# allowlist fails and is named; with both unreached functions listed the
# verdict passes; an allowlist entry that a production binary reaches,
# or that no library defines, fails, so the list cannot rot.
set -eu

script="$1"
fixtures="$2"
status=0

# expect <allowlist> <exit status> <line the output must hold>
expect() {
  code=0
  out="$("$script" --verdict "$fixtures/listings" "$fixtures/$1" 2>&1)" ||
    code=$?
  if [ "$code" -ne "$2" ]; then
    echo "FAIL: $1: exit $code, want $2" >&2
    status=1
  elif ! printf '%s\n' "$out" | grep -qxF -- "$3"; then
    echo "FAIL: $1: no line '$3'" >&2
    status=1
  fi
  printf '%s\n' "$out"
}

expect allowlist_seam.txt 1 \
  "FAIL: lib::unused(): reached by nothing, and not allowlisted"
expect allowlist_full.txt 0 \
  "reachability: 6 functions in src/: 2 by sttram_cli or e2ebench, 1 by examples only, 1 by benches only, 1 by tests only, 1 by nothing; 2 allowlisted"
expect allowlist_reached.txt 1 \
  "FAIL: allowlisted lib::bench(): reached by a production binary"
expect allowlist_undefined.txt 1 \
  "FAIL: allowlisted lib::gone(): not defined in src/"
exit "$status"
