#!/bin/sh
# Docs consistency check (wired into ctest as `docs_consistency` and run
# by the CI docs job).
#
#   check_docs.sh <repo root> [sttram_cli binary]
#
# 1. README's architecture layer table must have a row for every
#    directory under src/sttram/ (rows look like `| `device/` | ... |`).
# 2. Every CLI subcommand listed in `sttram_cli --help` must appear in
#    README's CLI reference.  The binary argument is optional so the
#    check can run source-only (pre-build) — the subcommand list then
#    comes from the help text in examples/sttram_cli.cpp.
set -eu

root="$1"
cli="${2:-}"
readme="$root/README.md"
status=0

[ -f "$readme" ] || { echo "FAIL: $readme not found" >&2; exit 1; }

# --- 1. layer table covers every src/sttram/<dir> ---------------------
for dir in "$root"/src/sttram/*/; do
  name="$(basename "$dir")"
  if ! grep -q "| \`$name/\`" "$readme"; then
    echo "FAIL: src/sttram/$name/ has no row in README's layer table" >&2
    status=1
  fi
done

# --- 2. README CLI reference covers every subcommand ------------------
if [ -n "$cli" ] && [ -x "$cli" ]; then
  help_text="$("$cli" --help)"
else
  # Source-only fallback: reconstruct the help text from the literal in
  # print_help() (concatenated C string fragments).
  help_text="$(sed -n '/^void print_help/,/^}/p' \
      "$root/examples/sttram_cli.cpp")"
fi

# Subcommands are the first word of each two-space-indented line of the
# "Commands:" block of the help text.  From source, approximate by the
# known anchor `sttram_cli <cmd>` usage comment instead.
commands="$(printf '%s\n' "$help_text" \
    | sed -n 's/^.*"  \([a-z][a-z]*\) .*$/\1/p; s/^  \([a-z][a-z]*\) .*$/\1/p' \
    | sort -u)"
if [ -z "$commands" ]; then
  echo "FAIL: could not extract any subcommand from the help text" >&2
  exit 1
fi

for cmd in $commands; do
  if ! grep -q "\`$cmd\`" "$readme" \
      && ! grep -q "sttram_cli $cmd" "$readme"; then
    echo "FAIL: CLI subcommand '$cmd' missing from README's CLI reference" >&2
    status=1
  fi
done

# --- 3. controller-mode traffic flags are documented ------------------
# `traffic --controller` switches the CLI onto the chip-scale
# channels x ranks x banks path; its topology flags must be
# discoverable from README's CLI reference, not just --help.
for flag in --controller --channels --ranks --banks; do
  if ! grep -q -- "\`$flag" "$readme" && ! grep -q -- "$flag " "$readme"; then
    echo "FAIL: controller flag '$flag' missing from README" >&2
    status=1
  fi
done

# --- 4. SIMD ISA override is documented -------------------------------
# `--simd <isa>` / STTRAM_SIMD pin the runtime-dispatched kernel ISA;
# both knobs must be discoverable from README and the design doc.
for doc in "$readme" "$root/DESIGN.md"; do
  for token in -simd STTRAM_SIMD; do
    if ! grep -q -- "$token" "$doc"; then
      echo "FAIL: '$token' missing from $(basename "$doc")" >&2
      status=1
    fi
  done
done

ndirs="$(ls -d "$root"/src/sttram/*/ | wc -l)"
ncmds="$(echo "$commands" | wc -l)"
[ "$status" -eq 0 ] && \
  echo "OK: $ndirs layer rows and $ncmds CLI subcommands documented"
exit "$status"
