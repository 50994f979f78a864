//! Cross-crate solver integration: preconditioned CG over the compiled
//! engines, agreeing on the same solutions.

use bernoulli::engines::SpmvEngine;
use bernoulli::ExecCtx;
use bernoulli_formats::gen::{fem_grid_2d, table1_suite, Scale};
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::cg::{cg, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_solvers::SymGs;

fn residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    t.matvec_acc(x, &mut ax);
    ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt()
}

/// CG under both preconditioners over a row-major (CRS) and a
/// column-major (CCS) compiled engine: the four solutions agree.
#[test]
fn preconditioned_cg_agrees_through_compiled_engines() {
    let t = fem_grid_2d(7, 6, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect();
    let diag = DiagonalPreconditioner::from_matrix(&t);
    let gs = SymGs::new(Csr::from_triplets(&t), &ExecCtx::default()).unwrap();
    let mut reference: Option<Vec<f64>> = None;

    for kind in [FormatKind::Csr, FormatKind::Ccs] {
        let a = SparseMatrix::from_triplets(kind, &t);
        let eng = SpmvEngine::compile(&a).unwrap();
        let op = eng.bind(&a);
        let opts = CgOptions { max_iters: 2000, rel_tol: 1e-11 };

        // CG (SPD) with diagonal preconditioning.
        let mut x_cg = vec![0.0; n];
        let r = cg(&op, &diag, &b, &mut x_cg, opts, &ExecCtx::default()).unwrap();
        assert!(r.converged, "{kind:?}");

        // CG with symmetric Gauss-Seidel.
        let mut x_gs = vec![0.0; n];
        let r_gs = cg(&op, &gs, &b, &mut x_gs, opts, &ExecCtx::default()).unwrap();
        assert!(r_gs.converged, "{kind:?}");
        assert!(r_gs.iters <= r.iters, "{kind:?}: SymGS must not be slower in iterations");

        let x_ref = reference.get_or_insert_with(|| x_cg.clone());
        for i in 0..n {
            assert!((x_cg[i] - x_gs[i]).abs() < 1e-6, "{kind:?}: CG vs SymGS-PCG at {i}");
            assert!((x_cg[i] - x_ref[i]).abs() < 1e-6, "{kind:?}: CG vs CRS CG at {i}");
        }
        assert!(residual(&t, &x_cg, &b) < 1e-7, "{kind:?}");
    }
}

#[test]
fn cg_solves_every_spd_suite_matrix_through_engines() {
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        if !s.symmetric || s.nrows > 3000 {
            continue; // keep the test fast (memplus runs in benches)
        }
        let n = s.nrows;
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &m.triplets);
        let eng = SpmvEngine::compile(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let diag = DiagonalPreconditioner::from_matrix(&m.triplets);
        let mut x = vec![0.0; n];
        let opts = CgOptions { max_iters: 6000, rel_tol: 1e-8 };
        let r = cg(&eng.bind(&a), &diag, &b, &mut x, opts, &ExecCtx::default()).unwrap();
        assert!(r.converged, "{}: residual {} after {} iterations", m.name, r.final_residual, r.iters);
    }
}

/// Wrong-length vectors and a rectangular operator are the caller's
/// input: CG refuses them with a `RelError` (it used to `assert_eq!`
/// inside a `RelResult` function).
#[test]
fn cg_refuses_mismatched_systems_without_panicking() {
    use bernoulli::RelError;
    use bernoulli_solvers::precond::IdentityPreconditioner;
    let ctx = ExecCtx::default();
    let square = SparseMatrix::from_triplets(FormatKind::Csr, &fem_grid_2d(3, 3, 1));
    let n = square.nrows();
    let wide = SparseMatrix::from_triplets(
        FormatKind::Csr,
        &Triplets::from_entries(n, n + 2, &[(0, 0, 1.0), (n - 1, n + 1, 2.0)]),
    );
    let pc = IdentityPreconditioner { n };
    let b = vec![1.0; n];
    let before = vec![0.5; n + 1];
    for (what, op, xlen) in [("long x", &square, n + 1), ("short x", &square, n - 1), ("rectangular", &wide, n)] {
        let mut x = before[..xlen].to_vec();
        let res = cg(op, &pc, &b, &mut x, CgOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "cg, {what}: {res:?}");
        assert_eq!(x, before[..xlen], "{what}: a refused solve must not touch x");
    }
}

/// A preconditioner built for another matrix is the caller's input
/// too: CG refuses each preconditioner type with a `RelError` where the
/// application used to panic (`copy_from_slice`, a length assert, the
/// sweeps' `expect`).
#[test]
fn cg_refuses_a_preconditioner_of_another_order() {
    use bernoulli::RelError;
    use bernoulli_solvers::{IdentityPreconditioner, Preconditioner};
    fn refused(what: &str, a: &SparseMatrix, pc: &impl Preconditioner) {
        let (n, ctx) = (a.nrows(), ExecCtx::default());
        assert_ne!(pc.dim(), n);
        let (b, mut x) = (vec![1.0; n], vec![0.5; n]);
        let res = cg(a, pc, &b, &mut x, CgOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "cg, {what}: {res:?}");
        assert_eq!(x, vec![0.5; n], "{what}: a refused solve must not touch x");
    }
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &fem_grid_2d(3, 3, 1));
    let other = fem_grid_2d(4, 3, 1);
    refused("Identity", &a, &IdentityPreconditioner { n: a.nrows() + 1 });
    refused("Diagonal", &a, &DiagonalPreconditioner::from_matrix(&other));
    refused("SymGs", &a, &SymGs::new(Csr::from_triplets(&other), &ExecCtx::default()).unwrap());
}
