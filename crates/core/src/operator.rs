//! The linear-operator seam between engines and solvers.
//!
//! Krylov solvers only ever need one thing from a matrix: *apply it*.
//! [`Operator`] captures exactly that — `y = A·x` with overwrite
//! semantics — plus the cost model and name that telemetry wants, so
//! the solvers in `bernoulli-solvers` take `&dyn Operator` instead of
//! one entry point per engine/format/closure combination. Anything
//! that can multiply implements it: a compiled [`SpmvEngine`] bound to
//! its matrix ([`SpmvEngine::bind`]), a raw [`SparseMatrix`] or [`Csr`]
//! (no compilation step), or an arbitrary closure ([`FnOperator`]) for
//! matrix-free operators.

use std::cell::RefCell;

use crate::engines::SpmvEngine;
use crate::pipeline::spmv_counters;
use bernoulli_formats::{Csr, SparseMatrix};
use bernoulli_obs::events::KernelCounters;
use bernoulli_relational::access::MatrixAccess;
use bernoulli_relational::error::RelResult;

/// A linear operator `y = A·x` with **overwrite** semantics: `apply`
/// must fill `y` entirely (implementations built on the accumulating
/// engines zero `y` first).
pub trait Operator {
    /// Length `apply` requires of `y`.
    fn out_len(&self) -> usize;

    /// Length `apply` requires of `x`.
    fn in_len(&self) -> usize;

    /// `y = A·x` (overwriting `y`).
    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()>;

    /// The per-application cost model (nnz touched, flops, bytes) for
    /// solver telemetry. The default reports an empty model, which is
    /// correct for operators whose cost is unknown (matrix-free
    /// closures).
    fn model(&self) -> KernelCounters {
        KernelCounters::default()
    }

    /// A short name for telemetry spans ("spmv", "spmv_multi", …).
    fn name(&self) -> &str {
        "operator"
    }

    /// The CSR matrix `apply` multiplies by, when the operator is one:
    /// what lets a consumer holding a matrix prove the operator is that
    /// matrix (SymGS's Eisenstat form in `bernoulli-solvers`). The
    /// default, for closures and every other format, proves nothing.
    fn csr(&self) -> Option<&Csr> {
        None
    }
}

/// A compiled [`SpmvEngine`] bound to the matrix it was compiled for —
/// the usual way a solver consumes an engine.
pub struct BoundSpmv<'a> {
    engine: &'a SpmvEngine,
    a: &'a SparseMatrix,
}

impl SpmvEngine {
    /// Bind the engine to its matrix as an [`Operator`]. The matrix
    /// must be the one the engine was compiled for.
    pub fn bind<'a>(&'a self, a: &'a SparseMatrix) -> BoundSpmv<'a> {
        BoundSpmv { engine: self, a }
    }
}

impl Operator for BoundSpmv<'_> {
    fn out_len(&self) -> usize {
        self.a.meta().nrows
    }

    fn in_len(&self) -> usize {
        self.a.meta().ncols
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        y.fill(0.0);
        self.engine.run(self.a, x, y)
    }

    fn model(&self) -> KernelCounters {
        spmv_counters(&self.a.meta())
    }

    fn name(&self) -> &str {
        "spmv"
    }

    fn csr(&self) -> Option<&Csr> {
        self.a.csr()
    }
}

/// Any sparse matrix is an operator directly (serial `spmv_acc`, no
/// compilation step) — handy when no engine/ctx policy is needed.
impl Operator for SparseMatrix {
    fn out_len(&self) -> usize {
        self.meta().nrows
    }

    fn in_len(&self) -> usize {
        self.meta().ncols
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        y.fill(0.0);
        self.spmv_acc(x, y);
        Ok(())
    }

    fn model(&self) -> KernelCounters {
        spmv_counters(&self.meta())
    }

    fn name(&self) -> &str {
        "spmv"
    }

    fn csr(&self) -> Option<&Csr> {
        match self {
            SparseMatrix::Csr(c) => Some(c),
            _ => None,
        }
    }
}

/// A bare CSR matrix is an operator (serial kernel).
impl Operator for Csr {
    fn out_len(&self) -> usize {
        self.nrows()
    }

    fn in_len(&self) -> usize {
        self.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        y.fill(0.0);
        bernoulli_formats::kernels::spmv_csr(self, x, y);
        Ok(())
    }

    fn model(&self) -> KernelCounters {
        let nnz = self.nnz() as u64;
        KernelCounters {
            nnz,
            flops: 2 * nnz,
            bytes: 8 * (2 * nnz + self.ncols() as u64 + 2 * self.nrows() as u64),
            algebra: "f64_plus",
        }
    }

    fn name(&self) -> &str {
        "spmv_csr"
    }

    fn csr(&self) -> Option<&Csr> {
        Some(self)
    }
}

/// A matrix-free operator from a closure. The closure may capture
/// mutable state (it is stored behind a `RefCell`), but `apply` must
/// not reenter the same operator.
pub struct FnOperator<F> {
    out_len: usize,
    in_len: usize,
    f: RefCell<F>,
}

impl<F: FnMut(&[f64], &mut [f64])> FnOperator<F> {
    /// An `out_len × in_len` operator applying `f(x, y)`; `f` must
    /// overwrite `y` completely.
    pub fn new(out_len: usize, in_len: usize, f: F) -> FnOperator<F> {
        FnOperator { out_len, in_len, f: RefCell::new(f) }
    }
}

impl<F: FnMut(&[f64], &mut [f64])> Operator for FnOperator<F> {
    fn out_len(&self) -> usize {
        self.out_len
    }

    fn in_len(&self) -> usize {
        self.in_len
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        (self.f.borrow_mut())(x, y);
        Ok(())
    }

    fn name(&self) -> &str {
        "matfree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::{FormatKind, Triplets};

    fn sample(n: usize, seed: u64) -> Triplets {
        bernoulli_formats::gen::random_sparse(n, n, n * 3, seed)
    }

    #[test]
    fn bound_engine_matches_direct_matrix_apply() {
        let t = sample(14, 51);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let eng = SpmvEngine::compile(&a).unwrap();
        let bound = eng.bind(&a);
        assert_eq!((bound.out_len(), bound.in_len()), (14, 14));
        assert_eq!(bound.name(), "spmv");
        let x: Vec<f64> = (0..14).map(|i| (i as f64 * 0.33).sin()).collect();
        // Overwrite semantics: garbage in y must not leak through.
        let mut y1 = vec![f64::NAN; 14];
        bound.apply(&x, &mut y1).unwrap();
        let mut y2 = vec![7.5; 14];
        Operator::apply(&a, &x, &mut y2).unwrap();
        assert_eq!(y1, y2);
        let m = bound.model();
        assert_eq!(m.nnz, a.meta().nnz as u64);
        assert_eq!(m.flops, 2 * m.nnz);
    }

    #[test]
    fn fn_operator_runs_closures_with_state() {
        let mut calls = 0usize;
        let op = FnOperator::new(3, 3, move |x: &[f64], y: &mut [f64]| {
            calls += 1;
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 2.0 * xi + calls as f64;
            }
        });
        assert_eq!(op.name(), "matfree");
        assert_eq!(op.model(), KernelCounters::default());
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        op.apply(&x, &mut y).unwrap();
        assert_eq!(y, [3.0, 5.0, 7.0]);
        op.apply(&x, &mut y).unwrap();
        assert_eq!(y, [4.0, 6.0, 8.0]);
    }

    #[test]
    fn csr_operator_agrees_with_sparse_matrix() {
        let t = sample(12, 53);
        let sm = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let SparseMatrix::Csr(ref c) = sm else { unreachable!() };
        let x: Vec<f64> = (0..12).map(|i| (i as f64).cos()).collect();
        let mut y1 = vec![0.0; 12];
        let mut y2 = vec![1.0; 12];
        Operator::apply(c, &x, &mut y1).unwrap();
        Operator::apply(&sm, &x, &mut y2).unwrap();
        assert_eq!(y1, y2);
        assert_eq!(c.model().nnz, sm.model().nnz);
    }
}
