#!/usr/bin/env sh
# Full local CI: release build, every test, lints as errors.
set -eux
cd "$(dirname "$0")/.."
cargo build --release
# Every test target of every crate, the root package's integration
# suites included (fast_kernels, wavefront, corrupt_schedule, plancache,
# pipeline_equivalence, kernel_tiers, …), in debug.
cargo test --workspace -q
# The threaded suites again at the optimisation level the benchmark
# builds: a data race or a reordered reduction can hide behind debug
# codegen, and the SPMD machine's polled hand-off window only exists
# where a receive is faster than a wake-up — so every root suite that
# drives the machine is here, `tables` with its twenty invocations of
# the P = 2 Table-2 cell and of every timed ablation claim included
# (~2.5 min), the fast tier's bitwise suite, and
# the three that replay certificates through hints and bind schedules
# to operands (pipeline_equivalence, plancache, corrupt_schedule).
cargo test --release -q --test exec_ctx --test kernel_tiers --test parallel \
  --test wavefront --test solvers_integration --test failure_injection \
  --test properties --test observability --test fast_kernels --test tables \
  --test pipeline_equivalence --test plancache --test corrupt_schedule
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# (`unsafe` containment needs no gate here: crates/formats denies
# unsafe_code crate-wide and allows it on `mod fast` alone, so every
# build above already enforced it.)
#
# Pipeline containment gate: since the engine unification there is
# exactly ONE compile pipeline (core's pipeline.rs). The gate-chain
# entry points — size/pool/race for DO-ANY, the wavefront pass's
# certifier, analysis and verifier for DO-ACROSS — may not be called
# from any other core module: a second call site is a second pipeline.
if grep -rn "should_parallelize(\|effective_workers(\|check_do_any(\|check_do_any_in(\|certify_wavefront(\|analyze_wavefront(\|verify_level_schedule(" \
  crates/core/src --include='*.rs' \
  | grep -v "^crates/core/src/pipeline\.rs:"; then
  echo "ERROR: gate-chain call outside crates/core/src/pipeline.rs; all compiles route through pipeline::compile" >&2
  exit 1
fi
# Static-analysis acceptance gate: every built-in kernel, plan, and
# format must lint clean (nonzero exit on any error finding).
cargo run --release --example lint
# Reproduction gate: every table, figure series and ablation of the
# paper, full scale (P = 2..64, ~15 s); exits nonzero if any shape
# claim EXPERIMENTS.md cites fails.
mkdir -p target/ci
cargo run --release --bin tables > target/ci/tables_output.txt
# Counter-drift gate: Table 3's inspector bytes (P = 2..64), the `T3.*`
# claims, `A.dist-chaos-bytes` and `A.eisenstat-products` are exact
# counters, so the fresh run must print them byte for byte as the
# committed tables_output.txt does; a change that moves one regenerates
# that file in the same commit.
counters() {
  awk '/^--- machine-independent companion: inspector bytes/ { on = 1 } /^===/ { on = 0 } on' "$1"
  grep -E '^(PASS|FAIL) +(T3\.|A\.dist-chaos-bytes |A\.eisenstat-products )' "$1"
}
counters tables_output.txt > target/ci/counters.committed
counters target/ci/tables_output.txt > target/ci/counters.fresh
if ! cmp -s target/ci/counters.committed target/ci/counters.fresh; then
  diff target/ci/counters.committed target/ci/counters.fresh >&2 || true
  echo "ERROR: exact Table-3 counters drifted from tables_output.txt" >&2
  exit 1
fi
# Observability schema gate: the profile driver exits nonzero if the
# report fails validation or any telemetry stream is empty; the grep
# catches a schema-identifier drift the driver itself can't see.
cargo run --release --example profile target/ci/PROFILE.json > /dev/null
grep -q '"schema":"bernoulli.profile/v1"' target/ci/PROFILE.json
for stream in plans strategies kernels traffic solvers calibrations spans; do
  grep -q "\"$stream\":" target/ci/PROFILE.json
done
# Plan-cache gate (bernoulli-tune): the example exits nonzero unless
# the reloaded cache replays every compile warm, results match the
# uncached reference, and the report validates — the greps additionally
# pin that its emitted profile carries a non-empty calibrations stream
# in which estimate and measurement travel together. Both artefacts go
# under target/ci/ so a CI run leaves the tree clean.
cargo run --release --example plancache target/ci/PLANCACHE.json target/ci/PLANCACHE_PROFILE.json > /dev/null
grep -q '"schema":"bernoulli.profile/v1"' target/ci/PLANCACHE_PROFILE.json
grep -q '"calibrations":\[{' target/ci/PLANCACHE_PROFILE.json
grep -q '"est_cost":' target/ci/PLANCACHE_PROFILE.json
grep -q '"measured_ns":' target/ci/PLANCACHE_PROFILE.json
# Filesystem-confinement gate: the tune crate persists plans;
# everything else in the crates computes. A new fs-write call site
# anywhere else is a regression (state belongs in the cache or in an
# artifact a script owns).
if grep -rn "fs::write\|File::create\|OpenOptions\|create_dir" crates/ --include='*.rs' \
  | grep -v "^crates/tune/src/"; then
  echo "ERROR: filesystem write outside crates/tune" >&2
  exit 1
fi
# The dispatch registry smoke: a mixed op stream over a small matrix
# population through the one `submit` front door — the example exits
# nonzero unless the warm-cache hit rate is >= 90%, replay is bitwise
# stable across rounds, and the profile report validates with per-op
# dispatch.<op> latency spans.
cargo run --release --example dispatch > /dev/null
# The repo's benchmark (BENCHMARK.json) is its own workspace, so none
# of the cargo invocations above compile it: build it against the
# crates as they are now, run its own unit tests, then run every
# workload's correctness checks in two-second rounds (nonzero exit on any failed operation).
# Building it rewrites perfbench/Cargo.lock (cargo drops a stale entry):
# snapshot the lock and put it back on exit, pass or fail, so a CI run
# leaves the tree clean.
cp perfbench/Cargo.lock target/ci/perfbench.Cargo.lock
trap 'cp target/ci/perfbench.Cargo.lock perfbench/Cargo.lock' EXIT
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml
perfbench/run.sh --smoke > /dev/null
