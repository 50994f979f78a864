//! # bernoulli-solvers
//!
//! Iterative solvers over the Bernoulli substrates — the application
//! layer of the paper's §4 experiments: a preconditioned Conjugate
//! Gradient solver ("parallel CG with diagonal preconditioning"),
//! generic over the matvec so it runs identically on hand-written
//! BlockSolve kernels, compiler-generated executors, or any storage
//! format.
//!
//! Every shared-memory solver has exactly one entry point: it applies
//! the matrix through the [`Operator`] seam of the core crate (a bound
//! engine, a raw format, or a matrix-free closure all qualify) and
//! takes one [`ExecCtx`] carrying all policy — parallel vector-op
//! dispatch, checked mode, telemetry. `ExecCtx::default()` is the
//! serial solver, and parallel vector-op dispatch keeps the bits of
//! its general form.
//!
//! * [`vecops`] — dense vector primitives, serial and through an
//!   [`ExecCtx`];
//! * [`precond`] — the identity and diagonal (Jacobi) preconditioners;
//! * [`mod@cg`] — preconditioned CG: one recurrence, entered in one
//!   address space ([`cg()`]) or on each rank of the SPMD machine
//!   ([`cg_parallel`]);
//! * [`symgs`] — symmetric Gauss-Seidel / SSOR preconditioning over
//!   the wavefront-certified sweep engine, and — when it proves CG's
//!   operator is its own matrix — Eisenstat's form of the whole
//!   iteration over the same sweep split.

pub mod cg;
pub mod precond;
pub mod symgs;
pub mod vecops;

pub use bernoulli::{ExecCtx, FnOperator, Operator};
pub use cg::{cg, cg_parallel, CgOptions, CgResult};
pub use precond::{DiagonalPreconditioner, IdentityPreconditioner, Preconditioner};
pub use symgs::SymGs;

/// The Krylov solvers' operand check: `A` must be square of order
/// `b.len()`, `x` as long as `b`, and the preconditioner built for that
/// order. A mismatch is the caller's input, so it is reported as a
/// [`bernoulli::RelError`] rather than panicking inside an application.
pub(crate) fn check_square_system(
    solver: &str,
    op: &dyn Operator,
    precond_dim: usize,
    b: &[f64],
    x: &[f64],
) -> bernoulli::RelResult<()> {
    let n = b.len();
    if x.len() == n && op.out_len() == n && op.in_len() == n && precond_dim == n {
        return Ok(());
    }
    Err(bernoulli::RelError::Validation(format!(
        "{solver}: need a square operator of order {n} (the right-hand side's length), a solution \
         vector as long and a preconditioner of that order; got a {}x{} operator, x of length {} \
         and a preconditioner of order {precond_dim}",
        op.out_len(),
        op.in_len(),
        x.len()
    )))
}
