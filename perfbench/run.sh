#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   perfbench/run.sh                       all four workloads, one process each
#   perfbench/run.sh --workload W          one workload; last line is the result JSON
#   perfbench/run.sh --trace 1 ...         per-layer metrics and a span file per workload
#   perfbench/run.sh --check-repeat        two full sets on one build, compared to the bounds
#   perfbench/run.sh --smoke ...           2-second rounds, one set-up: correctness only
#   perfbench/run.sh --seed N --seconds S  inputs and length of the timed phase
#
# Builds into $CARGO_TARGET_DIR when set (resolved against the caller's
# directory, as cargo would), else into perfbench/target. Span files go
# to perfbench/target/bench/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Build output goes to stderr: stdout carries only the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/bernoulli-bench" --trace-dir "$here/target/bench" "$@"
