#!/usr/bin/env sh
# Public-surface scan: prints every non-test `pub` item (fn, struct,
# enum, trait, type, const, static) declared under crates/ whose name no
# non-test code in crates/, src/, examples/ or perfbench/ mentions
# outside its own declaration, then the count. Non-test code is each
# git-tracked `.rs` file down to its first `#[cfg(test)]` that opens a
# `mod`, the cut scripts/loc.sh makes; comments and `pub use`
# re-exports are not mentions. The shim crates (crates/shim-*) stand in
# for crates.io dev-dependencies, so their surface is the tests' by
# design and is not scanned.
#
# The match is by name only: an item whose name another item or a local
# shares counts as reached, so the list is a floor. It gates nothing.
#
#   scripts/pubscan.sh
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Non-test lines as `file:line:text`, comments and re-exports blanked.
git ls-files -- 'crates/*.rs' 'src/*.rs' 'examples/*.rs' 'perfbench/*.rs' \
  | grep -v '^crates/shim-' | while read -r f; do
  awk -v file="$f" '
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
      reexport = 0
      for (i = 1; i <= n; i++) {
        t = line[i]
        if (t ~ /^[ \t]*pub(\([a-z]+\))?[ \t]+use[ \t]/) reexport = 1
        if (reexport) { if (t ~ /;[ \t]*$/) reexport = 0; continue }
        sub(/\/\/.*$/, "", t)
        print file ":" i ":" t
      }
    }' "$f"
done > "$tmp/corpus"

# Declarations: `file:line name`.
grep '^crates/' "$tmp/corpus" \
  | sed -nE 's/^([^:]+:[0-9]+):[ \t]*pub[ \t]+((const|unsafe|async|extern "C")[ \t]+)*(fn|struct|enum|trait|type|const|static)[ \t]+([A-Za-z_][A-Za-z0-9_]*).*/\1 \5/p' \
  > "$tmp/decls"

count=0
while read -r at name; do
  if ! grep -v "^$at:" "$tmp/corpus" | cut -d: -f3- | grep -qw -- "$name"; then
    echo "$at $name"
    count=$((count + 1))
  fi
done < "$tmp/decls"
printf 'unreached %d of %d\n' "$count" "$(wc -l < "$tmp/decls")"
