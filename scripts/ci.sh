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
# (~2.5 min), the fast tier's bitwise suite,
# the three that replay certificates through hints and bind schedules
# to operands (pipeline_equivalence, plancache, corrupt_schedule), and
# the solvers' allocation-free steady state (solve_allocations) and the
# copy-free reading of canonical triplets (setup_allocations), since
# where the allocator places a buffer is a release-build effect.
cargo test --release -q --test exec_ctx --test kernel_tiers --test parallel \
  --test wavefront --test solvers_integration --test failure_injection \
  --test properties --test observability --test fast_kernels --test tables \
  --test pipeline_equivalence --test plancache --test corrupt_schedule \
  --test solve_allocations --test setup_allocations
# The formats and solvers crates' own unit tests at the same level: their
# bitwise claims (the counting sort is the BTreeMap assembly, a dot has
# one shape for any worker count) must hold in the code the benchmark
# runs, not only in debug codegen.
cargo test --release -q -p bernoulli-formats -p bernoulli-solvers --lib
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
# Filesystem-confinement gate: the tune crate persists plans;
# everything else in the crates computes. A new fs-write call site
# anywhere else is a regression (state belongs in the cache or in an
# artifact a script owns).
if grep -rn "fs::write\|File::create\|OpenOptions\|create_dir" crates/ --include='*.rs' \
  | grep -v "^crates/tune/src/"; then
  echo "ERROR: filesystem write outside crates/tune" >&2
  exit 1
fi
# The paper's demos (examples/): each runs once and must exit 0, so
# none can rot. What they show is checked by the `cargo test` runs above.
for demo in quickstart formats_tour blocksolve_pde parallel_cg permuted_rows planner_explain spmm_formats; do
  cargo run --release --example "$demo" > /dev/null
done
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
