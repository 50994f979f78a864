#!/usr/bin/env bash
# A/B driver for the benchmark: runs a parent and a change revision of
# perfbench in alternating pairs and prints, per workload and end-to-end
# metric, both medians, the change's wins, the parent's spread and a
# verdict against the BENCHMARK.json bound.
#
#   scripts/ab.sh [--aligned] [--seed N] <parent> <change> [pairs] [workloads]
#
#   <parent>, <change>  git revisions; `.` is the working tree (tracked and
#                       untracked files, ignored ones left out)
#   pairs               alternating parent/change pairs per workload (default 10)
#   workloads           comma-separated (default: all four)
#   --aligned           a second arm, both sides built with every function
#                       64-byte aligned (-C llvm-args=-align-all-functions=6);
#                       a verdict that differs between the arms is printed as
#                       "layout-sensitive". The default arm stays the number
#                       of record.
#   --seed N            passed as `--seed N` to every run on both sides (the
#                       benchmark's own default seed when absent)
#
# Both sides are built one after the other from one source path, into one
# target directory per arm, and every run executes from one binary path, so
# neither the checkout path nor the binary path differs between the sides
# (either moves `compile_cold` by ~10 % on identical code). A run is what
# `perfbench/run.sh --workload W` does once its build is done: the
# `bernoulli-bench` binary with `--trace-dir` and `--workload`. The pair
# order alternates (parent first in odd pairs, change first in even ones).
#
# Work and results go to $AB_DIR (default target/ab; never the repo root):
# `runs.tsv` holds every run as `arm side pair workload metric value`, a run
# that exits nonzero or prints no result line as `... crashed <exit status>`,
# and the report is printed again into `report.txt`.
#
# Each run also records `faults_per_op`: the run's minor page faults (the
# `cminflt` field of the wrapping shell's /proc/self/stat once the run is
# reaped) over its attempted operations. It is printed beside each
# workload's medians with no bound and no verdict: a request metric that
# moves with faults per operation points at heap placement, not the code.
# Beside it, `ops_attempted` (the result JSON's `attempted`) is printed the
# same way, per run too: the benchmark keeps every latency sample, so a
# `peak_rss_mb` verdict that tracks the attempted count is the harness's
# sample memory, not the code's.
#
# Verdicts, per workload and metric, in this order: "OUT OF BOUND" when the
# change's median is worse than the parent's by more than the bound;
# "unresolved" when the parent's IQR is wider than the bound and not every
# change run beats every parent run; "better" ("worse, in bound") when the
# change wins (loses) >= 9 of 10 pairs, ties counting for neither side, and
# its median moves by more than the parent's IQR; otherwise "no change".
# Beside each wins count, `p` is the two-sided sign-test p-value of the
# pairs, ties dropped: the chance of a split at least that lopsided if
# either side were equally likely to win each pair.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
aligned=0 seed=""
while [ $# -gt 0 ]; do
  case "$1" in
    --aligned) aligned=1; shift ;;
    --seed)
      [[ "${2:-}" =~ ^[0-9]+$ ]] || { echo "ab.sh: --seed needs a number" >&2; exit 2; }
      seed="$2"; shift 2 ;;
    -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
if [ $# -lt 2 ]; then
  sed -n '2,19p' "$0" >&2
  exit 2
fi
parent="$1" change="$2" pairs="${3:-10}"
workloads="${4:-dispatch_warm,compile_cold,pcg_solve,spmd_cg}"
dir="${AB_DIR:-$root/target/ab}"
case "$dir" in /*) ;; *) dir="$PWD/$dir" ;; esac
mkdir -p "$dir"
if [ "$(cd "$dir" && pwd -P)" = "$(cd "$root" && pwd -P)" ]; then
  echo "ab.sh: AB_DIR must not be the repository root" >&2
  exit 2
fi
mkdir -p "$dir/bin" "$dir/run"
arms="default"
[ "$aligned" = 1 ] && arms="default aligned"

# Put revision $1's tree at $dir/ab-src, every file newer than the last
# build (cargo compares mtimes, and an archive's are the commit's).
checkout() {
  rm -rf "$dir/ab-src"
  mkdir -p "$dir/ab-src"
  if [ "$1" = "." ]; then
    (cd "$root" && git ls-files -z --cached --others --exclude-standard \
      | xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh \
      | tar --null -T - -cf -) | tar -xmf - -C "$dir/ab-src"
  else
    git -C "$root" archive "$1" | tar -xmf - -C "$dir/ab-src"
  fi
}

for arm in $arms; do
  flags=""
  [ "$arm" = aligned ] && flags="-C llvm-args=-align-all-functions=6"
  for side in parent change; do
    rev="$parent"
    [ "$side" = change ] && rev="$change"
    echo "ab.sh: building $side ($rev), $arm arm" >&2
    checkout "$rev"
    RUSTFLAGS="$flags" CARGO_TARGET_DIR="$dir/target-$arm" cargo build --release --offline --quiet \
      --manifest-path "$dir/ab-src/perfbench/Cargo.toml" 1>&2
    cp "$dir/target-$arm/release/bernoulli-bench" "$dir/bin/$arm-$side"
  done
  if cmp -s "$dir/bin/$arm-parent" "$dir/bin/$arm-change"; then
    echo "ab.sh: note: the two $arm binaries are identical" >&2
  fi
done

# One run: the side's binary copied to the one run path, its result JSON
# (the last line) flattened into runs.tsv. A run that exits nonzero or
# whose last line is no JSON object is recorded as crashed.
run() { # arm side pair workload
  cp "$dir/bin/$1-$2" "$dir/run/bernoulli-bench"
  local out last rows faults status=0
  # The substitution's own shell runs the binary and reaps it, so its
  # `cminflt` (field 11 of /proc/self/stat; the fields after `comm`
  # start at field 3) is the binary's alone. The count goes out as the
  # last line, after the binary's.
  out=$(cd "$dir/ab-src" && { "$dir/run/bernoulli-bench" --trace-dir "$dir/run/trace" \
    --workload "$4" ${seed:+--seed "$seed"} || s=$?; read -r stat < /proc/self/stat; set -- ${stat##*) }
    echo "$9"; exit "${s:-0}"; }) || status=$?
  faults=$(printf '%s\n' "$out" | tail -n 1)
  last=$(printf '%s\n' "$out" | tail -n 2 | head -n 1)
  if [ "$status" = 0 ] && [ "${last:0:1}" = "{" ] && rows=$(printf '%s\n' "$last" | jq -r --arg p "$1 $2 $3 $4" --argjson f "$faults" \
    '(.metrics | to_entries[] | "\($p) \(.key) \(.value.value)"), "\($p) ops_failed \(.failed)", "\($p) ops_attempted \(.attempted)",
     (select(.attempted > 0) | "\($p) faults_per_op \($f / .attempted)")'); then
    printf '%s\n' "$rows" >> "$dir/runs.tsv"
  else
    echo "$1 $2 $3 $4 crashed $status" >> "$dir/runs.tsv"
  fi
  echo "ab.sh: $1 $2 pair $3 $4 exit $status" >&2
}

: > "$dir/runs.tsv"
for arm in $arms; do
  for i in $(seq 1 "$pairs"); do
    for w in ${workloads//,/ }; do
      if [ $((i % 2)) = 1 ]; then
        run "$arm" parent "$i" "$w"; run "$arm" change "$i" "$w"
      else
        run "$arm" change "$i" "$w"; run "$arm" parent "$i" "$w"
      fi
    done
  done
done

# The report. Bounds and directions come from BENCHMARK.json's end_to_end.
{ jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json"; echo "faults_per_op lower -"; echo "ops_attempted higher -"; } > "$dir/bounds.txt"
awk -v pairs="$pairs" -v seed="${seed:-default}" '
  function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
  }
  function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  # Two-sided sign test: P(a split at least as uneven as w : l | fair).
  function sign_p(w, l,    n, k, i, c, tail) {
    n = w + l; k = w < l ? w : l
    if (n == 0) return 1
    c = 1; tail = 0
    for (i = 0; i <= k; i++) { tail += c; c = c * (n - i) / (i + 1) }
    tail = 2 * tail / 2 ^ n
    return tail > 1 ? 1 : tail
  }
  function stats(arm, side, w, m, out,    i, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((arm, side, i, w, m) in v) out[++n] = v[arm, side, i, w, m]
    sort(out, n)
    return n
  }
  FILENAME == ARGV[1] { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
  {
    v[$1, $2, $3, $4, $5] = $6
    if (!(($1) in seen_arm)) { seen_arm[$1] = 1; arms[++na] = $1 }
    if (!(($4) in seen_w)) { seen_w[$4] = 1; works[++nw] = $4 }
    if ($5 == "ops_failed") failed[$1, $2] += $6
    if ($5 == "crashed") crashed[$1, $2]++
  }
  END {
    for (a = 1; a <= na; a++) {
      arm = arms[a]
      printf "== %s arm: %d pairs, seed %s; failed operations parent %d, change %d; crashed runs parent %d, change %d\n", arm, pairs, seed, failed[arm, "parent"], failed[arm, "change"], crashed[arm, "parent"], crashed[arm, "change"]
      printf "%-14s %-13s %12s %12s %8s %6s %6s %10s %7s  %s\n", "workload", "metric", "parent p50", "change p50", "delta", "wins", "p", "parent IQR", "bound", "verdict"
      for (k = 1; k <= nw; k++) for (j = 1; j <= nm; j++) {
        w = works[k]; m = order[j]
        np = stats(arm, "parent", w, m, P); nc = stats(arm, "change", w, m, C)
        if (np == 0 || nc == 0) continue
        mp = quantile(P, np, 0.5); mc = quantile(C, nc, 0.5)
        iqr = quantile(P, np, 0.75) - quantile(P, np, 0.25)
        # s > 0 when a positive difference (change - parent) is better.
        s = (better[m] == "lower") ? -1 : 1
        wins = 0; losses = 0; n = 0
        for (i = 1; i <= pairs; i++) if (((arm, "parent", i, w, m) in v) && ((arm, "change", i, w, m) in v)) {
          n++; d = s * (v[arm, "change", i, w, m] - v[arm, "parent", i, w, m])
          if (d > 0) wins++
          if (d < 0) losses++
        }
        gain = s * (mc - mp)
        rel = mp != 0 ? (mc - mp) / mp : 0
        limit = bound[m] * (mp < 0 ? -mp : mp)
        # Every change run beats every parent run.
        apart = (s < 0) ? C[nc] < P[1] : C[1] > P[np]
        if (bound[m] == "-") verdict = "(report only)"
        else if (-gain > limit) verdict = "OUT OF BOUND"
        else if (iqr > limit && !apart) verdict = "unresolved"
        else if (wins * 10 >= 9 * n && gain > iqr) verdict = "better"
        else if (losses * 10 >= 9 * n && -gain > iqr) verdict = "worse, in bound"
        else verdict = "no change"
        verdicts[arm, w, m] = verdict
        printf "%-14s %-13s %12.4g %12.4g %+7.1f%% %3d/%-2d %6.3f %10.4g %7s  %s\n", w, m, mp, mc, 100 * rel, wins, n, sign_p(wins, losses), iqr, bound[m] == "-" ? "-" : sprintf("%.0f%%", 100 * bound[m]), verdict
      }
      print ""
    }
    if (na > 1) for (k = 1; k <= nw; k++) for (j = 1; j <= nm; j++) {
      w = works[k]; m = order[j]
      if (((arms[1], w, m) in verdicts) && verdicts[arms[1], w, m] != verdicts[arms[2], w, m])
        printf "layout-sensitive: %s/%s reads \"%s\" by default and \"%s\" aligned\n", w, m, verdicts[arms[1], w, m], verdicts[arms[2], w, m]
    }
    print "== every run (arm side pair workload metric value)"
  }
' "$dir/bounds.txt" "$dir/runs.tsv" > "$dir/report.txt"
grep -v ' ops_failed ' "$dir/runs.tsv" | sort -k1,1 -k4,4 -k5,5 -k3,3n -k2,2 >> "$dir/report.txt"
cat "$dir/report.txt"
