#!/bin/sh
# Link-time reachability survey and gate: every global function the src/
# libraries define must be kept by a production binary, apart from the
# deliberate test seams listed in tools/reachability_allowlist.txt.
#
#   tools/reachability.sh [repo-build-dir [e2ebench-build-dir]]
#   tools/reachability.sh --verdict <listings-dir> <allowlist>
#
# Survey (the first form) configures two Debug trees: the repository
# (default build-reachability/) and e2ebench/, built out of tree (default
# build-reachability-e2ebench/).  Both compile with -ffunction-sections
# -fdata-sections and link with -Wl,--gc-sections; nothing is inlined at
# -O0, so each binary's symbol table holds exactly the functions it
# reaches.  It builds every target, writes nm listings to
# <repo-build-dir>/reachability/ and runs the verdict on them against
# tools/reachability_allowlist.txt.
#
# Production binaries are sttram_cli and e2ebench ("core"), the other
# programs under examples/ and the programs under bench/; the binaries
# under tests/ are not.
#
# The verdict (the second form) reads nm listings only:
#   <listings-dir>/lib.nm                nm --defined-only of the libraries
#   <listings-dir>/<class>/<binary>.nm   nm --defined-only of each binary,
#                                        class = core, examples, bench, tests
# It takes every global text symbol (nm type T) of lib.nm, demangled,
# counts each by the first class whose binaries keep it (core, examples,
# bench, tests, else nothing) and compares the functions no production
# binary keeps with the allowlist (one demangled name a line, `#`
# comments).  It exits 1 when a function outside the allowlist has no
# production caller, or when an allowlisted one is reached or no longer
# defined, and names each.
set -eu

verdict() {
  listings="$1"
  allowlist="$2"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # Demangled global text symbols of the listings given; constructor and
  # destructor variants (C1/C2, D0/D1/D2) collapse into one name.
  text_symbols() {
    awk 'NF == 3 && $2 == "T" { print $3 }' "$@" | c++filt | sort -u
  }

  [ -s "$listings/lib.nm" ] || {
    echo "reachability: no listing $listings/lib.nm" >&2
    exit 2
  }
  text_symbols "$listings/lib.nm" > "$tmp/lib"
  [ -s "$tmp/lib" ] || {
    echo "reachability: $listings/lib.nm defines no function" >&2
    exit 2
  }
  for class in core examples bench tests; do
    : > "$tmp/$class"
    for nm_file in "$listings/$class"/*.nm; do
      [ -e "$nm_file" ] || continue
      text_symbols "$nm_file" >> "$tmp/$class"
    done
    sort -u -o "$tmp/$class" "$tmp/$class"
  done
  [ -s "$tmp/core" ] || {
    echo "reachability: no core binary under $listings/core" >&2
    exit 2
  }

  # Peel the library's functions class by class.
  cp "$tmp/lib" "$tmp/left"
  for class in core examples bench tests; do
    comm -12 "$tmp/left" "$tmp/$class" > "$tmp/by_$class"
    comm -23 "$tmp/left" "$tmp/$class" > "$tmp/next"
    mv "$tmp/next" "$tmp/left"
  done
  cat "$tmp/by_tests" "$tmp/left" | sort -u > "$tmp/unreached"

  sed -e 's/#.*//' -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' \
      "$allowlist" | sed '/^$/d' | sort -u > "$tmp/allow"

  count() { wc -l < "$1" | tr -d ' '; }
  echo "reachability: $(count "$tmp/lib") functions in src/:" \
       "$(count "$tmp/by_core") by sttram_cli or e2ebench," \
       "$(count "$tmp/by_examples") by examples only," \
       "$(count "$tmp/by_bench") by benches only," \
       "$(count "$tmp/by_tests") by tests only," \
       "$(count "$tmp/left") by nothing;" \
       "$(count "$tmp/allow") allowlisted"

  status=0
  comm -23 "$tmp/unreached" "$tmp/allow" > "$tmp/missing"
  while IFS= read -r name; do
    if grep -qxF -- "$name" "$tmp/by_tests"; then why="reached by tests only"
    else why="reached by nothing"; fi
    echo "FAIL: $name: $why, and not allowlisted" >&2
    status=1
  done < "$tmp/missing"
  comm -13 "$tmp/unreached" "$tmp/allow" > "$tmp/stale"
  while IFS= read -r name; do
    if grep -qxF -- "$name" "$tmp/lib"; then
      why="reached by a production binary"
    else
      why="not defined in src/"
    fi
    echo "FAIL: allowlisted $name: $why" >&2
    status=1
  done < "$tmp/stale"
  return "$status"
}

export LC_ALL=C

if [ "${1:-}" = "--verdict" ]; then
  [ "$#" -eq 3 ] || {
    echo "usage: $0 --verdict <listings-dir> <allowlist>" >&2
    exit 2
  }
  verdict "$2" "$3"
  exit
fi
[ "$#" -le 2 ] || {
  echo "usage: $0 [repo-build-dir [e2ebench-build-dir]]" >&2
  exit 2
}

root="$(cd "$(dirname "$0")/.." && pwd)"
repo_build="${1:-$root/build-reachability}"
e2e_build="${2:-$root/build-reachability-e2ebench}"
jobs="$(nproc 2>/dev/null || echo 2)"

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}
configure "$root" "$repo_build"
cmake --build "$repo_build" -j "$jobs"
configure "$root/e2ebench" "$e2e_build"
cmake --build "$e2e_build" --target e2ebench -j "$jobs"

listings="$repo_build/reachability"
rm -rf "$listings"
mkdir -p "$listings/core" "$listings/examples" "$listings/bench" \
         "$listings/tests"
find "$repo_build/src" -name 'libsttram_*.a' | sort | while IFS= read -r lib
do
  nm --defined-only "$lib"
done > "$listings/lib.nm"

# nm listing of every ELF executable directly under $1, into class $2
# (sttram_cli is core wherever it sits).
list_binaries() {
  find "$1" -maxdepth 1 -type f -perm -u+x | sort | while IFS= read -r exe
  do
    [ "$(head -c 4 "$exe" | tail -c 3)" = ELF ] || continue
    name="$(basename "$exe")"
    class="$2"
    [ "$name" = sttram_cli ] && class=core
    nm --defined-only "$exe" > "$listings/$class/$name.nm"
  done
}
list_binaries "$repo_build/examples" examples
list_binaries "$repo_build/bench" bench
list_binaries "$repo_build/tests" tests
list_binaries "$e2e_build" core

verdict "$listings" "$root/tools/reachability_allowlist.txt"
