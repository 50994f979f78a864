//! # bernoulli
//!
//! The Bernoulli sparse compiler core — the primary contribution of
//! *"Compiling Parallel Code for Sparse Matrix Applications"* (SC'97),
//! reproduced as a library: dense DO-ANY loop nests in, efficient
//! sparse executors out, for **user-defined** storage formats and
//! **user-defined** data distributions.
//!
//! Pipeline (§2–§3 of the paper):
//!
//! 1. [`ast`] — the dense DO-ANY loop-nest description the user writes
//!    (loops, array references, a reduction statement), plus
//!    sparse/dense annotations per array;
//! 2. [`lower`] — query extraction: the loop nest becomes a relational
//!    query `σ_P (I ⋈ A ⋈ X ⋈ …)` with the sparsity predicate `P`
//!    inferred à la Bik & Wijshoff (both this and [`ast`] live in
//!    `bernoulli-relational` and are re-exported here);
//! 3. [`compile`] — the driver: plans the query against the arrays'
//!    access-method metadata and wraps the result in an executable
//!    kernel;
//! 4. [`engines`] — ready-to-run engines for the paper's kernels
//!    (SpMV, the skinny multivector product, semiring SpMV, the
//!    triangular solves and SymGS), with *plan-shape-directed specialisation*:
//!    when the planner picks a format's natural traversal, execution
//!    dispatches to the monomorphised kernel for that format (the
//!    reproduction's stand-in for emitting C), otherwise the general
//!    plan interpreter runs;
//! 5. [`spmd`] — parallel code generation (§3): distributed arrays as
//!    distributed relations, inspectors from `Used ⋈ IND` queries, and
//!    the two executor flavours of §4 — the naive fully data-parallel
//!    translation (eq. 23) and the mixed local/global translation
//!    (eq. 24).

pub use bernoulli_relational::{ast, lower};
pub mod codegen;
pub mod compile;
pub mod engines;
pub mod operator;
pub mod pipeline;
pub mod spmd;
pub mod trisolve;

pub use ast::{ArrayDecl, ExprAst, LoopNest};
pub use codegen::{emit_pseudocode, emit_pseudocode_in};
pub use compile::{CompiledKernel, Compiler};
pub use engines::{Engine, SemiringSpmvEngine, SpmvEngine, SpmvMultiEngine, Strategy};
pub use operator::{BoundSpmv, FnOperator, Operator};
pub use pipeline::{
    compile as compile_op, CompiledOp, GateDecision, OpHints, OpKind, OpSpec, Operands, Reason,
};
pub use trisolve::{SptrsvEngine, SymGsEngine, TriangularOp, MIN_MEAN_LEVEL_WIDTH};
pub use bernoulli_formats::ExecCtx;
pub use bernoulli_relational::error::{RelError, RelResult};
