//! Symmetric Gauss-Seidel / SSOR preconditioning on the wavefront
//! substrate.
//!
//! The paper's §6 names triangular solution as the next Bernoulli
//! target, and its thesis is that the storage a loop runs over is the
//! compiler's choice, made once by an inspector and amortised over the
//! executor's iterations. A preconditioner applies
//! `M⁻¹ = (D + ωU)⁻¹·D·(D + ωL)⁻¹` (`ω = 1`: symmetric Gauss-Seidel)
//! from a *zero* guess, every time — and from zero the two general
//! sweeps do twice the work: the forward one multiplies the upper
//! triangle by zeros, and it leaves `D·z/ω = r − L·z`, which is
//! exactly the part the backward one would re-derive from `r` and the
//! lower triangle. [`SymGs`] therefore inspects its operand once into
//! a [`SweepSplit`] — strict triangles pre-scaled by `ω/diag`, `u32`
//! columns — and each application is one pass over each triangle,
//! under the compiled [`bernoulli::SymGsEngine`]: level-parallel along
//! its one certified Gauss-Seidel schedule (the backward pass walks it
//! in reverse), serial otherwise, bitwise-identical either way.
//!
//! The same split holds Eisenstat's form of the preconditioned operator
//! ([`SplitStep`]): when CG's operator is provably the matrix a `SymGs`
//! owns ([`Preconditioner::split_form`]), an iteration is one backward
//! and one forward pass over the split and no product by `A` at all.
//! That form is today's SSOR-PCG only for symmetric `A` — CG's own
//! contract, which neither form checks.

use crate::precond::Preconditioner;
use bernoulli::{ExecCtx, Operator, RelError, RelResult, SymGsEngine};
use bernoulli_formats::kernels::{SplitStep, SweepSplit};
use bernoulli_formats::Csr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Symmetric Gauss-Seidel / SSOR preconditioner owning its operand.
///
/// Owning the matrix matters twice. The engine's wavefront certificate
/// is bound to the operand's buffer identity, so the pair must travel
/// together: moving the struct is fine (the CSR's heap buffers stay
/// put); rebuilding the matrix elsewhere — even an identical clone —
/// makes the engine fall back to the serial sweeps. And the split holds
/// the operand's *values*, so it lives here, with the one object that
/// owns them, and never in the structure-keyed caches that replay one
/// verdict across matrices of equal pattern. It costs ≈ 0.75× the
/// operand's bytes plus 8 B a row (`d/ω`, for Eisenstat's form) and is
/// the only way this type applies `M⁻¹`.
pub struct SymGs {
    a: Csr,
    omega: f64,
    engine: SymGsEngine,
    split: SweepSplit,
    /// The [`Csr::stamp`] of the last operator proved to be `a`
    /// ([`Preconditioner::split_form`]); at first `a`'s own, or none
    /// when the split is inexact (stamps start at 1).
    proved: AtomicU64,
}

impl SymGs {
    /// Symmetric Gauss-Seidel (`ω = 1`) under the given context.
    pub fn new(a: Csr, ctx: &ExecCtx) -> RelResult<SymGs> {
        SymGs::with_omega(a, 1.0, ctx)
    }

    /// SSOR with relaxation weight `ω ∈ (0, 2)`.
    ///
    /// The engine is compiled against `a` *before* the move into the
    /// returned struct; the certificate survives because only the
    /// stack header moves, never the heap buffers it fingerprints.
    pub fn with_omega(a: Csr, omega: f64, ctx: &ExecCtx) -> RelResult<SymGs> {
        SymGs::with_engine_from(a, omega, |a| SymGsEngine::compile_in(a, ctx))
    }

    /// SSOR whose engine is produced by `compile` — the seam a
    /// structure-keyed plan cache uses to inject a warm compile (a
    /// cached, re-verified level schedule, e.g.
    /// `PlanCache::symgs_engine`) in place of the full wavefront
    /// analysis. The closure runs against the operand *before* the move
    /// into the returned struct, so the certificate it issues binds the
    /// final heap buffers. The split is inspected here, after the
    /// compile's temporaries are gone; an operand its `u32` lists
    /// cannot index is a [`RelError::Validation`].
    pub fn with_engine_from(
        a: Csr,
        omega: f64,
        compile: impl FnOnce(&Csr) -> RelResult<SymGsEngine>,
    ) -> RelResult<SymGs> {
        if !(omega > 0.0 && omega < 2.0) {
            return Err(RelError::Validation(format!(
                "SSOR needs 0 < omega < 2 for convergence, got {omega}"
            )));
        }
        let engine = compile(&a)?;
        let split = SweepSplit::of(&a, omega)?;
        let proved = AtomicU64::new(if split.is_exact() { a.stamp() } else { 0 });
        Ok(SymGs { a, omega, engine, split, proved })
    }

    /// The relaxation weight.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// The compiled sweep engine (strategy, downgrade reason,
    /// certified schedule).
    pub fn engine(&self) -> &SymGsEngine {
        &self.engine
    }

    /// The owned operand.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// The owned split.
    pub(crate) fn split(&self) -> &SweepSplit {
        &self.split
    }

    /// `r̂ ← M₁⁻¹·r`: Eisenstat's form opens (see [`SplitStep`]).
    pub(crate) fn split_forward(&self, r: &[f64], rhat: &mut [f64]) -> RelResult<()> {
        self.engine.apply_split_forward(&self.a, &self.split, r, rhat)
    }

    /// One step of Eisenstat's form: `⟨p̂, Â·p̂⟩`.
    pub(crate) fn split_step(&self, step: SplitStep<'_>) -> RelResult<f64> {
        self.engine.apply_split_operator(&self.a, &self.split, step)
    }
}

impl Preconditioner for SymGs {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.engine
            .apply_split(&self.a, &self.split, r, z)
            .expect("SSOR sweeps are infallible once compiled");
    }

    /// Proved when `op` is a CSR matrix of this order with the owned
    /// operand's row pointers, column indices and values, and the split
    /// saw every row's diagonal exactly once. The proof is kept against
    /// the operator's value version ([`Csr::stamp`]), so a repeat solve
    /// on an operator nobody mutated — or on the owned matrix, or a
    /// clone of either — returns at once. Otherwise the memoised index
    /// digests reject a different pattern, and only then are the three
    /// arrays compared (a `symgs_split_proof` kernel event; a digest
    /// collision is never taken for equality) and a success recorded.
    fn split_form(&self, op: &dyn Operator) -> Option<&SymGs> {
        let (c, a) = (op.csr()?, &self.a);
        if c.stamp() == self.proved.load(Ordering::Relaxed) {
            return Some(self);
        }
        if (c.nrows(), c.ncols()) != (a.nrows(), a.ncols()) || !self.split.is_exact() || c.index_digest() != a.index_digest() {
            return None;
        }
        self.engine.note_split_proof(c.nnz());
        let same_bits = |u: &[f64], v: &[f64]| u.len() == v.len() && u.iter().zip(v).all(|(u, v)| u.to_bits() == v.to_bits());
        let proved = c.rowptr() == a.rowptr() && c.colind() == a.colind() && same_bits(c.vals(), a.vals());
        if proved {
            self.proved.store(c.stamp(), Ordering::Relaxed);
        }
        proved.then_some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{cg, CgOptions};
    use crate::precond::IdentityPreconditioner;
    use bernoulli::Strategy;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_formats::Triplets;

    fn par_ctx() -> ExecCtx {
        ExecCtx::with_threads(2).oversubscribe(true).threshold(1)
    }

    #[test]
    fn diagonal_matrix_reduces_to_jacobi() {
        // With no off-diagonal coupling both sweeps just divide by the
        // diagonal, so M⁻¹ = D⁻¹ exactly.
        let t = Triplets::from_entries(3, 3, &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)]);
        let p = SymGs::new(Csr::from_triplets(&t), &ExecCtx::default()).unwrap();
        let mut z = vec![0.0; 3];
        p.precondition(&[2.0, 2.0, 2.0], &mut z);
        assert_eq!(z, vec![1.0, 0.5, 0.25]);
    }

    #[test]
    fn rejects_bad_omega_and_rectangular() {
        let t = Triplets::from_entries(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let a = Csr::from_triplets(&t);
        assert!(matches!(
            SymGs::with_omega(a.clone(), 0.0, &ExecCtx::default()),
            Err(RelError::Validation(_))
        ));
        assert!(matches!(
            SymGs::with_omega(a, 2.0, &ExecCtx::default()),
            Err(RelError::Validation(_))
        ));
        let rect = Csr::from_triplets(&Triplets::new(2, 3));
        assert!(SymGs::new(rect, &ExecCtx::default()).is_err());
    }

    #[test]
    fn parallel_tier_is_bitwise_identical_to_serial() {
        let t = grid2d_5pt(10, 10);
        let n = t.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        for omega in [1.0, 1.3] {
            let serial =
                SymGs::with_omega(Csr::from_triplets(&t), omega, &ExecCtx::default()).unwrap();
            let par = SymGs::with_omega(Csr::from_triplets(&t), omega, &par_ctx()).unwrap();
            assert_eq!(par.engine().strategy(), Strategy::Parallel, "{}", par.engine().downgrade());
            let (mut zs, mut zp) = (vec![0.0; n], vec![0.0; n]);
            serial.precondition(&r, &mut zs);
            par.precondition(&r, &mut zp);
            for (a, b) in zs.iter().zip(&zp) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ssor_pcg_beats_plain_cg() {
        let t = grid2d_5pt(16, 16);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let opts = CgOptions { max_iters: 500, rel_tol: 1e-10 };
        let mut x1 = vec![0.0; n];
        let plain = cg(
            &a,
            &IdentityPreconditioner { n },
            &b,
            &mut x1,
            opts,
            &ExecCtx::default(),
        )
        .unwrap();
        let mut x2 = vec![0.0; n];
        let ssor = SymGs::new(Csr::from_triplets(&t), &ExecCtx::default()).unwrap();
        let ssor_run = cg(&a, &ssor, &b, &mut x2, opts, &ExecCtx::default()).unwrap();
        assert!(plain.converged && ssor_run.converged);
        assert!(
            ssor_run.iters < plain.iters,
            "SSOR PCG took {} iters vs plain CG's {}",
            ssor_run.iters,
            plain.iters
        );
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-6);
        }
    }
}
