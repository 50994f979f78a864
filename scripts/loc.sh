#!/usr/bin/env sh
# Non-test Rust line counter: every git-tracked `.rs` file under crates/
# and examples/, counted down to the file's first `#[cfg(test)]` that
# opens a `mod` (its unit tests; a `#[cfg(test)]` on any other item is
# counted). Prints one line per crate (examples/ as one group), then the
# total. Numbers only; it gates nothing.
#
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
git ls-files -- 'crates/*.rs' 'examples/*.rs' | while read -r f; do
  group=$(echo "$f" | cut -d/ -f1-2)
  case "$group" in examples/*) group=examples ;; esac
  awk -v group="$group" '
    { line[NR] = $0 }
    END {
      n = NR
      mod = "^[ \t]*(pub(\\([a-z]+\\))?[ \t]+)?mod[ \t]"
      for (i = 1; i <= NR; i++) {
        if (line[i] !~ /^[ \t]*#\[cfg\(test\)\]/) continue
        rest = line[i]
        sub(/^[ \t]*#\[cfg\(test\)\]/, "", rest)
        j = i + 1
        while (rest ~ /^[ \t]*$/ && j <= NR && line[j] ~ /^[ \t]*#\[/) j++
        if (rest ~ mod || (rest ~ /^[ \t]*$/ && j <= NR && line[j] ~ mod)) { n = i - 1; break }
      }
      print group, n
    }' "$f"
done | awk '
  { sum[$1] += $2; total += $2 }
  END {
    for (g in sum) printf "%-24s %6d\n", g, sum[g] | "sort"
    close("sort")
    printf "%-24s %6d\n", "total", total
  }'
