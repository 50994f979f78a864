//! # bernoulli-tune
//!
//! Structure-keyed plan/strategy caching — the amortization layer the
//! paper's premise calls for: analyzing sparsity structure and choosing
//! data structures and schedules is the expensive part, so do it
//! **once per structure** and replay it over the millions of solves a
//! long-lived service performs against a small population of
//! structures (ROADMAP item 2; SpComp pushes the same idea to
//! per-structure compilation).
//!
//! It keys structures and replays gate verdicts; it never times
//! candidates on an operand. Like the paper's compiler, the tier comes
//! from the planner's cost model and the soundness gates, and the cache
//! only remembers that choice. Three pieces:
//!
//! * [`key`] — a stable [`StructureKey`]: one FNV-1a digest of what a
//!   format stores (tag, dimensions, stored positions in its own
//!   enumeration order, entry count — **values excluded**, so
//!   refactorizations with new numbers hit the same cache line).
//! * [`cache`] — the [`PlanCache`]: one table keyed by
//!   `(StructureKey, OpKind)` holding planner verdicts (strategy tier,
//!   plan shape, fast-tier eligibility) for the whole multiply family
//!   — classical, multi-RHS and semiring — and the one wavefront
//!   level schedule of an SpTRSV/SymGS entry. A hit skips the planner
//!   search, the race-gate re-derivation and schedule *construction* — never
//!   verification: fast-tier certificates are re-validated through
//!   `covers()` (or re-issued by the sanitizer) against the operand
//!   actually handed in, and cached schedules pass the independent
//!   BA4x verifier before the parallel tier is granted. A cache entry
//!   can therefore mis-*tier* a confused operand at worst; it can
//!   never mis-compute. The cache persists to versioned JSON
//!   (`bernoulli.plancache/v5`); a schema or digest-layout bump
//!   invalidates the file wholesale.
//! * [`dispatch`] — the [`Dispatcher`] registry: register a matrix
//!   population once, then push a mixed [`OpSpec`](bernoulli::OpSpec)
//!   stream through one `submit` front door; every request compiles
//!   through the shared cache and reports per-op latency through the
//!   obs `dispatch.<op>` spans.
//!
//! This crate is the workspace's only sanctioned filesystem writer
//! outside `formats::io` (enforced by `scripts/ci.sh`): everything
//! else computes; this crate remembers.

pub mod cache;
pub mod dispatch;
mod jsonio;
pub mod key;

pub use cache::{CacheStats, PlanCache, SCHEMA};
pub use dispatch::{DispatchStats, Dispatcher, MatrixId};
pub use key::{structure_key, structure_key_csr, StructureKey};
