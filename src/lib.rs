//! Workspace root of the **bernoulli-rs** reproduction of
//! *"Compiling Parallel Code for Sparse Matrix Applications"* (SC'97).
//!
//! This crate exists to host the cross-crate integration tests
//! (`tests/`, the repo's one behavioural check), the `tables`
//! reproduction harness and the paper's runnable demos (`examples/`);
//! the actual functionality lives in the member crates, re-exported
//! here for convenience:
//!
//! * [`bernoulli`] — the compiler core (loop DSL → query → plan →
//!   engines; SPMD compilation);
//! * [`bernoulli_analysis`] — the static passes (race checker, plan
//!   verifier, format sanitizer, wavefront dependence analysis),
//!   checked over every built-in kernel, plan and format by
//!   `tests/static_analysis.rs`;
//! * [`bernoulli_relational`] — the relational engine;
//! * [`bernoulli_formats`] — storage formats, generators, I/O;
//! * [`bernoulli_blocksolve`] — the BlockSolve95 baseline substrate;
//! * [`bernoulli_spmd`] — the simulated machine and distribution
//!   relations;
//! * [`bernoulli_solvers`] — preconditioned CG (shared-memory and
//!   SPMD) with identity, diagonal and SymGS/SSOR preconditioning.
//!
//! Start with `examples/quickstart.rs`, README.md for the architecture,
//! DESIGN.md for the system inventory, and EXPERIMENTS.md for the
//! paper-vs-measured results.

pub use bernoulli;
pub use bernoulli_analysis;
pub use bernoulli_blocksolve;
pub use bernoulli_formats;
pub use bernoulli_relational;
pub use bernoulli_solvers;
pub use bernoulli_spmd;
