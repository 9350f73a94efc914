#!/bin/sh
# Self-tests of the paper gate.
#
#   paper_selftest.sh golden <sttram_paper> <check_section.sh> <section> <golden>
#     copies the section's golden with the first digit of its first
#     measured value changed; the section's check must fail and name
#     that line.
#   paper_selftest.sh usage <sttram_paper> <section>...
#     sttram_paper with an unknown section and with none must exit 2 and
#     list every section given.
set -u

mode="$1"
program="$2"
shift 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

case "$mode" in
golden)
  check="$1"
  section="$2"
  golden="$3"
  line="$(grep -n ' measured ' "$golden" | head -n 1 | cut -d: -f1)"
  [ -n "$line" ] || { echo "FAIL: no measured value in $golden" >&2; exit 1; }
  awk -v target="$line" 'NR == target {
      at = index($0, " measured ")
      rest = substr($0, at)
      match(rest, /[0-9]/)
      d = substr(rest, RSTART, 1)
      $0 = substr($0, 1, at + RSTART - 2) ((d + 1) % 10) \
           substr(rest, RSTART + 1)
    } { print }' "$golden" > "$tmp/golden.txt"
  if "$check" "$program" "$section" "$tmp/golden.txt" > "$tmp/log" 2>&1; then
    echo "FAIL: $section passed against a golden with line $line changed" >&2
    exit 1
  fi
  if ! grep -q "at line $line:" "$tmp/log"; then
    echo "FAIL: the check did not name line $line:" >&2
    cat "$tmp/log" >&2
    exit 1
  fi
  echo "OK: a changed digit on line $line fails $section"
  ;;
usage)
  for args in no_such_section ""; do
    # shellcheck disable=SC2086  # no argument at all when $args is empty
    "$program" $args > "$tmp/out" 2> "$tmp/err"
    status=$?
    if [ "$status" -ne 2 ]; then
      echo "FAIL: sttram_paper '$args' exited $status, not 2" >&2
      exit 1
    fi
    for section in "$@"; do
      grep -qx "  $section" "$tmp/err" || {
        echo "FAIL: sttram_paper '$args' does not list $section" >&2
        exit 1
      }
    done
  done
  echo "OK: sttram_paper without a known section exits 2 listing $# sections"
  ;;
*)
  echo "usage: $0 golden|usage ..." >&2
  exit 2
  ;;
esac
