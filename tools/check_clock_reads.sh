#!/bin/sh
# No clock outside the observability layer (ctest `clock_reads`, label
# lint; CONTRIBUTING.md, determinism rule 3 and "Instrumenting a phase").
# Simulations never read the time, and STTRAM_OBS_SCOPE
# (src/sttram/obs/profile.hpp) is the one way library code times a
# phase, so only src/sttram/obs/ may name a clock.
#
#   check_clock_reads.sh <src directory>
#
# Exits 1 naming every file under <src directory> outside sttram/obs/
# that names std::chrono, <chrono>, clock_gettime or gettimeofday, with
# the lines that do.
set -eu

[ "$#" -eq 1 ] || { echo "usage: $0 <src directory>" >&2; exit 2; }
src="${1%/}"
if [ ! -d "$src/sttram/obs" ]; then
  echo "FAIL: $src/sttram/obs is not a directory (wrong path?)" >&2
  exit 2
fi

pattern='std::chrono|<chrono>|clock_gettime|gettimeofday'
files="$(grep -rlE "$pattern" "$src" | grep -v "^$src/sttram/obs/" \
    | sort)" || true
if [ -n "$files" ]; then
  for file in $files; do
    echo "FAIL: $file reads a clock outside $src/sttram/obs/:" >&2
    grep -nE "$pattern" "$file" | sed 's/^/  /' >&2
  done
  exit 1
fi
echo "clock_reads: no file under $src outside sttram/obs/ names a clock"
