#!/bin/sh
# The ctest of one paper section: runs it and fails when a claim row
# misses (sttram_paper exits non-zero) or when its stdout differs from
# the section's golden by one byte, naming the first line that differs.
#
#   check_section.sh <sttram_paper> <section> <golden>
#
# Regenerate a golden with `sttram_paper <section> > <golden>` and
# review the diff.
set -u

program="$1"
section="$2"
golden="$3"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

"$program" "$section" > "$out"
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: sttram_paper $section exited $status" >&2
  exit 1
fi
if ! where="$(cmp "$golden" "$out" 2>&1)"; then
  line="$(echo "$where" | sed -n 's/.*line \([0-9][0-9]*\).*/\1/p')"
  echo "FAIL: stdout of sttram_paper $section differs from $golden" \
       "at line ${line:-?}:" >&2
  if [ -n "$line" ]; then
    echo "  golden: $(sed -n "${line}p" "$golden")" >&2
    echo "  stdout: $(sed -n "${line}p" "$out")" >&2
  else
    echo "  $where" >&2
  fi
  exit 1
fi
echo "OK: sttram_paper $section matches $golden"
