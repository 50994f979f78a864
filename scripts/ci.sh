#!/usr/bin/env sh
# Full local CI: release build, every test, lints as errors.
set -eux
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p bernoulli-analysis --all-targets -- -D warnings
cargo clippy -p bernoulli-obs --all-targets -- -D warnings
cargo clippy -p bernoulli-relational --all-targets -- -D warnings
cargo clippy -p bernoulli-graph --all-targets -- -D warnings
cargo clippy -p bernoulli-formats --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# ExecCtx regression gate: the pre-unification entry-point variants
# (`compile_with_exec*`, the `_obs(`-suffixed twins, `run_model_obs`)
# were deleted in favour of one ctx-taking form per layer; fail if any
# of them creeps back into the crates.
if grep -rn "compile_with_exec\|_obs(\|run_model_obs" crates/ --include='*.rs'; then
  echo "ERROR: superseded pre-ExecCtx entry point reintroduced" >&2
  exit 1
fi
# Semiring regression gate: the f64-only kernels below were replaced
# by `*_in::<S: Semiring>` generics (the surviving f64 names are thin
# wrappers over the F64Plus instantiation); fail if a deleted f64-only
# kernel is reintroduced beside its generic twin. The trailing `(`
# keeps the `_in` generics themselves from matching.
if grep -rEn "fn (spmv_(ccs|cccs|coo|diag|itpack|inode)|par_spmv_(csr|itpack|jdiag|diag|inode|ccs|cccs|coo)|par_matvec_dense)\(" crates/ --include='*.rs'; then
  echo "ERROR: deleted f64-only kernel reintroduced; extend the *_in semiring generic instead" >&2
  exit 1
fi
# Fast-tier containment gate: within the formats crate, `unsafe` (even
# the word, in comments) is confined to fast.rs — the one module whose
# unsafe blocks carry a Validate-certificate safety argument (DESIGN.md
# §7). Anywhere else in the crate it is a regression.
if grep -rn "unsafe" crates/formats/src --include='*.rs' | grep -v "^crates/formats/src/fast\.rs:"; then
  echo "ERROR: 'unsafe' outside crates/formats/src/fast.rs; the fast tier is the only sanctioned unsafe surface" >&2
  exit 1
fi
# Wavefront containment gate: the level-parallel sweep kernels run
# only under a WavefrontCert, so their call sites are confined to the
# kernels themselves (par_kernels.rs) and the unified compilation core
# that checks certificates before dispatching (core's pipeline.rs).
# Any other call site could bypass certificate checking.
if grep -rn "par_sptrsv_\|par_symgs_" crates/ --include='*.rs' \
  | grep -v "^crates/formats/src/par_kernels\.rs:" \
  | grep -v "^crates/core/src/pipeline\.rs:"; then
  echo "ERROR: level-parallel sweep kernel called outside par_kernels.rs/pipeline.rs; route through the unified compile so the wavefront certificate is checked" >&2
  exit 1
fi
# Pipeline containment gates: since the engine unification there is
# exactly ONE compile pipeline (core's pipeline.rs). (a) The gate-chain
# entry points — size/pool/race for DO-ANY, wavefront
# construction/verification for DO-ACROSS — may not be called from any
# other core module: a second call site is a second pipeline.
if grep -rn "should_parallelize(\|effective_workers(\|check_do_any(\|check_do_any_in(\|analyze_wavefront(\|certify_schedule(\|verify_level_schedule(" \
  crates/core/src --include='*.rs' \
  | grep -v "^crates/core/src/pipeline\.rs:"; then
  echo "ERROR: gate-chain call outside crates/core/src/pipeline.rs; all compiles route through pipeline::compile" >&2
  exit 1
fi
# (b) The downgrade-reason vocabulary is a closed set of interned
# constants (pipeline::reason); quoting a literal anywhere else forks
# the vocabulary.
if grep -rn '"single_worker_pool"\|"racy_nest"\|"transposed_scatter"\|"not_triangular"\|"schedule_rejected"\|"levels_too_narrow"' \
  crates/ tests/ examples/ --include='*.rs' \
  | grep -v "^crates/core/src/pipeline\.rs:"; then
  echo "ERROR: downgrade-reason literal outside pipeline.rs; use the pipeline::reason constants" >&2
  exit 1
fi
# Fast-tier correctness gate: the bitwise equivalence suite (lane
# references, NaN payload propagation, adversarial refused corpus)…
cargo test -q --test fast_kernels
# Wavefront correctness gates: the corrupt-schedule corpus (every
# mutant rejected by the independent BA4x verifier) and the bitwise
# serial/parallel equivalence suite.
cargo test -q --test corrupt_schedule --test wavefront
# Static-analysis acceptance gate: every built-in kernel, plan, and
# format must lint clean (nonzero exit on any error finding).
cargo run --release --example lint
# Graph workload gate: PageRank / BFS / triangle counting through the
# semiring engine path against closed-form answers (exits nonzero on
# any mismatch).
cargo run --release --example graph > /dev/null
# Observability schema gate: the profile driver exits nonzero if the
# report fails validation or any telemetry stream is empty; the grep
# catches a schema-identifier drift the driver itself can't see.
cargo run --release --example profile PROFILE.json > /dev/null
grep -q '"schema":"bernoulli.profile/v1"' PROFILE.json
for stream in plans strategies kernels traffic solvers calibrations spans; do
  grep -q "\"$stream\":" PROFILE.json
done
# Plan-cache gates (bernoulli-tune). Lints, the structure-key /
# persistence / warm-bitwise test suite, then the calibration smoke:
# the example exits nonzero unless the reloaded cache replays every
# compile warm, results match the uncached reference, and the report
# validates — the greps additionally pin that its emitted profile
# carries a non-empty calibrations stream in which estimate and
# measurement travel together.
cargo clippy -p bernoulli-tune --all-targets -- -D warnings
cargo test -q -p bernoulli-tune --lib
cargo test -q --test plancache
cargo run --release --example plancache PLANCACHE.json PLANCACHE_PROFILE.json > /dev/null
grep -q '"schema":"bernoulli.profile/v1"' PLANCACHE_PROFILE.json
grep -q '"calibrations":\[{' PLANCACHE_PROFILE.json
grep -q '"est_cost":' PLANCACHE_PROFILE.json
grep -q '"measured_ns":' PLANCACHE_PROFILE.json
# Persisted-cache schema gate: the on-disk format must carry the
# versioned tag the loader invalidates on (v2 = the unified
# per-OpKind table).
grep -rqn 'bernoulli\.plancache/v2' crates/tune/src/cache.rs
# Filesystem-confinement gate: the tune crate persists plans;
# everything else in the crates computes. A new fs-write call site
# anywhere else is a regression (state belongs in the cache or in an
# artifact a script owns).
if grep -rn "fs::write\|File::create\|OpenOptions\|create_dir" crates/ --include='*.rs' \
  | grep -v "^crates/tune/src/"; then
  echo "ERROR: filesystem write outside crates/tune" >&2
  exit 1
fi
# Unified-pipeline gates. The equivalence suite pins (a) identical
# strategies field sets across all seven op kinds and (b) bitwise
# hinted-replay / forged-schedule / foreign-hint behavior for every
# op spec through the one `pipeline::compile` entry point.
cargo test -q --test pipeline_equivalence
# The dispatch registry smoke: a mixed op stream over a small matrix
# population through the one `submit` front door — the example exits
# nonzero unless the warm-cache hit rate is >= 90%, replay is bitwise
# stable across rounds, and the profile report validates with per-op
# dispatch.<op> latency spans.
cargo run --release --example dispatch > /dev/null
# The repo's benchmark (BENCHMARK.json) is its own workspace, so none
# of the cargo invocations above compile it: build it against the
# crates as they are now, then run every workload's correctness checks
# in two-second rounds (nonzero exit on any failed operation).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
perfbench/run.sh --smoke > /dev/null
