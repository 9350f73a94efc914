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
# 3./4. The controller flags and the SIMD override are documented.
# 5. Every measured value EXPERIMENTS.md or DESIGN.md quotes with a
#    `<!-- row: <id> -->` tag equals the claim row's value in
#    bench/golden/ (source files only, so this too runs pre-build).
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

# --- 5. quoted measurements match the paper goldens -------------------
# A measured value EXPERIMENTS.md or DESIGN.md quotes carries the id of
# the claim row that prints it: `12.57 mV<!-- row: table1.sm_nondes -->`.
# The row's measured value in bench/golden/ must equal the quoted number
# at the quoted precision (at the golden's, where that is coarser), after
# the quoted unit's SI prefix; a quote without a unit is in the row's.
rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
cat "$root"/bench/golden/*.txt | grep ' \[\(REPRODUCED\|MISS\)\]$' > "$rows"
nquotes=0
for doc in "$root/EXPERIMENTS.md" "$root/DESIGN.md"; do
  result="$(sed 's/−/-/g; s/Ω/Ohm/g; s/µ/u/g; s/±//g' "$doc" \
      | LC_ALL=C awk -v doc="$(basename "$doc")" '
    function decimals(s,   i) {  # digits after the point, exponent applied
      i = index(s, "e")
      if (i) return decimals(substr(s, 1, i - 1)) - substr(s, i + 1)
      i = index(s, ".")
      return i ? length(s) - i : 0
    }
    BEGIN { split("m 3 u 6 n 9 p 12 k -3 M -6", f, " ")
            for (i = 1; i < 12; i += 2) prefix[f[i]] = f[i + 1] }
    NR == FNR {
      n[$1]++
      if (!index($0, " measured ")) next
      rest = substr($0, index($0, " measured ") + 10)
      split(rest, f, " ")
      value[$1] = f[1]
      unit[$1] = f[2] ~ /^[([]/ ? "" : f[2]
      next
    }
    {
      line = $0
      while ((at = index(line, "<!-- row: "))) {
        pre = substr(line, 1, at - 1)
        line = substr(line, at + 10)
        id = substr(line, 1, index(line, " ") - 1)
        quotes++
        if (n[id] != 1 || value[id] == "") {
          printf "FAIL: %s:%d cites row %s, which %d golden lines print" \
                 " with a measured value\n", doc, FNR, id, value[id] == "" \
                 ? 0 : n[id]
          continue
        }
        if (!match(pre, /[-+]?[0-9]+(\.[0-9]+)?[ ]*[A-Za-z%]*[ *]*$/)) {
          printf "FAIL: %s:%d: no number before row %s\n", doc, FNR, id
          continue
        }
        tail = substr(pre, RSTART)
        match(tail, /[-+]?[0-9]+(\.[0-9]+)?/)
        q = substr(tail, RSTART, RLENGTH)
        u = substr(tail, RSTART + RLENGTH)
        gsub(/[ *]/, "", u)
        k = 0  # the quote is the golden value times 10^k
        if (u != "" && u != unit[id]) {
          p = substr(u, 1, 1)
          if (!(p in prefix) || substr(u, 2) != unit[id]) {
            printf "FAIL: %s:%d quotes %s in %s; row %s prints %s\n",
                   doc, FNR, q, u, id, unit[id]
            continue
          }
          k = prefix[p]
        }
        digits = decimals(value[id]) - k
        if (digits > decimals(q)) digits = decimals(q)
        if (digits < 0) digits = 0
        fmt = "%." digits "f"
        # Nudged away from zero: 1.435e-08 s is 14.35 ns, rounding to 14.4.
        if (sprintf(fmt, q) != sprintf(fmt, value[id] * 10 ^ k * (1 + 1e-12))) {
          printf "FAIL: %s:%d quotes %s %s; row %s measures %s %s\n",
                 doc, FNR, q, u, id, value[id], unit[id]
        }
      }
    }
    END { print "quotes " quotes + 0 }' "$rows" -)"
  echo "$result" | grep '^FAIL' >&2 && status=1
  nquotes=$((nquotes + $(echo "$result" | sed -n 's/^quotes //p')))
done

ndirs="$(ls -d "$root"/src/sttram/*/ | wc -l)"
ncmds="$(echo "$commands" | wc -l)"
[ "$status" -eq 0 ] && \
  echo "OK: $ndirs layer rows, $ncmds CLI subcommands and $nquotes" \
       "quoted measurements documented"
exit "$status"
