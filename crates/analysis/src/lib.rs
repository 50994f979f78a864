//! # bernoulli-analysis
//!
//! Static analysis passes for the Bernoulli sparse compiler.
//!
//! The paper's correctness story rests on *declared properties*: join
//! implementations are chosen purely from access-method properties
//! (sortedness, search cost, duplicate-freedom), and parallelization is
//! legal only because the input nests are DO-ANY. This crate actually
//! *checks* those claims, with three passes sharing one
//! [`diag::Diagnostic`] machinery and lint-style `BA..` codes:
//!
//! * [`race`] — the **DO-ANY / race checker** over
//!   [`ast::LoopNest`](bernoulli_relational::ast::LoopNest): proves each
//!   statement parallel-safe by checking that every written access
//!   either covers all enclosing loop variables or is updated only
//!   through a commutative reduction, and that no read-after-write
//!   aliasing exists. Engines consult it before granting
//!   `Strategy::Parallel`.
//! * [`plan_verify`] — the **plan verifier**: independently re-checks
//!   every [`Plan`](bernoulli_relational::plan::Plan) the planner emits
//!   against the declared [`LevelProps`](bernoulli_relational::props::LevelProps)
//!   — merge joins need sorted duplicate-free inputs on both sides,
//!   search joins need a supported `SearchCost`, lookups may only
//!   reference bound variables. Wired into `Planner::plan_all` under
//!   `debug_assertions` via the planner's `verifier` hook.
//! * [`validate`] — the **format-invariant sanitizer**: a [`validate::Validate`]
//!   trait (implemented by every format in `bernoulli-formats`) checking
//!   pointer monotonicity, index bounds, intra-row/col sortedness,
//!   duplicate-freedom, and permutation bijectivity, plus the
//!   access-method contract checker.
//! * [`wavefront`] — the **DO-ACROSS dependence pass**: where the race
//!   checker must refuse (triangular solve, Gauss-Seidel — the written
//!   vector is read across iterations), this pass reads the
//!   loop-carried dependence DAG off the operand's sparsity structure,
//!   computes level sets, verifies them independently (BA4x) and
//!   issues an unforgeable [`wavefront::WavefrontCert`] licensing
//!   level-parallel execution of one [`wavefront::Relation`].
//!
//! [`binding`] holds the one O(1) operand check every certificate —
//! the fast tier's and the wavefront pass's — re-runs at kernel entry.

pub mod binding;
pub mod diag;
pub mod plan_verify;
pub mod race;
pub mod validate;
pub mod wavefront;

pub use binding::OperandBinding;
pub use diag::{codes, Diagnostic, Severity, Span};
pub use plan_verify::{verify_plan, verify_plan_hook};
pub use race::{check_do_any, ParallelCertificate, RaceReport};
pub use validate::Validate;
pub use wavefront::{
    analyze_wavefront, certify_wavefront, verify_level_schedule, LevelSchedule, Relation,
    Triangle, WavefrontCert, WavefrontReport,
};
