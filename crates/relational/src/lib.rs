//! # bernoulli-relational
//!
//! The relational-algebra engine at the heart of the Bernoulli sparse
//! compiler (Kotlyar, Pingali, Stodghill, SC'97).
//!
//! The paper's central idea: arrays — sparse and dense — are *relations*
//! of `⟨index..., value⟩` tuples, and executing a DO-ANY loop nest over
//! them is evaluating a relational *query*: a join of the iteration-space
//! relation with the array relations, filtered by a *sparsity predicate*.
//!
//! This crate supplies the pieces that are independent of any particular
//! storage format:
//!
//! * [`access`] — the *access method* traits through which storage
//!   formats describe themselves: hierarchical enumeration and search
//!   with declared [`props::LevelProps`] (sortedness, search cost class,
//!   density). The planner consults only these properties, never the
//!   concrete layout — this is what makes the compiler extensible.
//! * [`ast`] — the dense DO-ANY loop nest the user writes, with a
//!   sparse/dense declaration per array, and canned [`ast::programs`]
//!   for the paper's kernels.
//! * [`lower`] — query extraction: the loop nest becomes a relational
//!   query `σ_P (I ⋈ A ⋈ X ⋈ …)` with the sparsity predicate `P`
//!   inferred à la Bik & Wijshoff.
//! * [`query`] — the logical query IR extracted from a loop nest:
//!   terms (iteration space, matrices, vectors, permutations), the
//!   sparsity predicate, and the scalar statement to evaluate per tuple.
//! * [`planner`] — cost-based selection of a join *order* (which loop
//!   variable is enumerated at which level, by which relation) and a
//!   join *implementation* per variable (merge-join, search-join, or
//!   enumerate-and-filter).
//! * [`exec`] — the plan interpreter: evaluates a physical plan against
//!   bound relations. Format-specialised (monomorphised) kernels live in
//!   downstream crates and are selected by plan *shape*; the interpreter
//!   here is the always-available general path.
//! * [`permutation`] — index-translation relations (`PERM`/`IPERM`),
//!   used both for jagged-diagonal style formats and as the local
//!   building block of distributed index translation.
//!
//! ## Example
//!
//! ```
//! use bernoulli_relational::prelude::*;
//!
//! // y(i) += A(i,j) * x(j) over a tiny CSR-like matrix baked by hand.
//! let a = DokMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 2, 3.0), (2, 1, 4.0)]);
//! let x = vec![1.0, 10.0, 100.0];
//! let mut y = vec![0.0; 3];
//!
//! let query = extract_query(&programs::matvec()).unwrap();
//! let meta = QueryMeta::new()
//!     .mat(MAT_A, a.meta())
//!     .vec(VEC_X, VecMeta::dense(3))
//!     .vec(VEC_Y, VecMeta::dense(3));
//! let plan = Planner::new().plan(&query, &meta).unwrap();
//!
//! let mut binds = Bindings::new();
//! binds.bind_mat(MAT_A, &a);
//! binds.bind_vec(VEC_X, &x);
//! binds.bind_vec_mut(VEC_Y, &mut y);
//! execute(&plan, &query, &mut binds).unwrap();
//! assert_eq!(y, vec![2.0, 300.0, 40.0]);
//! ```

pub mod access;
pub mod ast;
pub mod error;
pub mod exec;
pub mod explain;
pub mod ids;
pub mod lower;
pub mod permutation;
pub mod plan;
pub mod planner;
pub mod props;
pub mod query;
pub mod scalar;
pub mod semiring;
pub mod testmat;

pub mod prelude {
    //! Convenient glob import for downstream crates.
    pub use crate::access::{InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, VecMeta, VectorAccess};
    pub use crate::ast::{programs, LoopNest};
    pub use crate::error::{RelError, RelResult};
    pub use crate::exec::{execute, execute_with_stats, Bindings, ExecStats};
    pub use crate::explain::{describe_stmt, explain_plan};
    pub use crate::ids::{RelId, Var, MAT_A, MAT_B, MAT_C, VAR_I, VAR_J, VAR_K, VEC_X, VEC_Y};
    pub use crate::lower::extract_query;
    pub use crate::permutation::Permutation;
    pub use crate::plan::{Driver, JoinMethod, LoopNode, Plan, PlanNode};
    pub use crate::planner::{Planner, QueryMeta};
    pub use crate::props::{Density, LevelProps, SearchCost, Sortedness};
    pub use crate::query::{Query, Term};
    pub use crate::scalar::{Expr, Stmt, Target, UpdateOp};
    pub use crate::semiring::{AlgebraProps, F64Plus, FirstNonZero, MinPlus, Semiring};
    pub use crate::testmat::DokMatrix;
}
