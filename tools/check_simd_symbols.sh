#!/bin/sh
# No SIMD translation unit shares a function with another one (ctest
# `simd_symbols`, label lint; DESIGN.md §15.3).
#
#   check_simd_symbols.sh <wide-object>... -- <library>...
#
# Each <wide-object> names an object file compiled with wider -m flags
# (as it appears inside its archive, e.g. margins_batch_w8.cpp.o); the
# <library> arguments are the static archives to scan.  Every weak or
# global function such an object defines (nm types T, W and i) must be
# defined by no other object: the linker keeps one copy of a weak symbol
# for all callers, so an inline helper emitted both by a -mavx512f
# object and by a baseline one could hand AVX-512 code to the scalar
# path.  Data symbols hold no instructions and are not counted (every
# object with unwind tables defines DW.ref.__gxx_personality_v0).  At
# -O0 nothing is inlined unless it is [[gnu::always_inline]], which is
# why a Debug build is the strict case.  Exits 1 naming each shared
# function and the objects that define it.
set -eu

usage() {
  echo "usage: $0 <wide-object>... -- <library>..." >&2
  exit 2
}

wide=""
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  wide="$wide $1"
  shift
done
[ "${1:-}" = "--" ] || usage
shift
[ "$#" -gt 0 ] || usage

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
status=0
for lib in "$@"; do
  nm -A --defined-only "$lib"
done | awk -v wide="$wide" '
  BEGIN {
    n = split(wide, names, " ")
    for (i = 1; i <= n; ++i) is_wide[names[i]] = 1
  }
  # nm -A prints "archive:member:address type name".
  NF == 3 && $2 ~ /^[TWi]$/ {
    k = split($1, part, ":")
    member = part[k - 1]
    object = substr($1, 1, length($1) - length(part[k]) - 1)
    seen[member] = 1
    if (!((object, $3) in defines)) {
      defines[object, $3] = 1
      count[$3] += 1
      where[$3] = where[$3] " " object
      if (member in is_wide) wide_symbol[$3] = 1
    }
  }
  END {
    status = 0
    for (m in is_wide) {
      if (!(m in seen)) {
        print "FAIL: no library holds the wide object " m > "/dev/stderr"
        status = 1
      }
    }
    for (s in wide_symbol) {
      if (count[s] > 1) {
        print s "\t" where[s]
        status = 1
      }
    }
    exit status
  }' > "$tmp" || status=$?

sort "$tmp" | while IFS="$(printf '\t')" read -r sym objects; do
  echo "FAIL: $(echo "$sym" | c++filt) is defined by:$objects" >&2
done
[ "$status" -ne 0 ] || echo "simd_symbols: no wide object shares a function"
exit "$status"
