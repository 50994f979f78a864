//! Cross-crate solver integration: every iterative method over the
//! compiled engines, agreeing on the same solutions.

use bernoulli::engines::SpmvEngine;
use bernoulli::ExecCtx;
use bernoulli_formats::gen::{fem_grid_2d, table1_suite, Scale};
use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::cg::{cg, CgOptions};
use bernoulli_solvers::gmres::{gmres, GmresOptions};
use bernoulli_solvers::ic0::Ic0;
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_solvers::stationary::{chebyshev, jacobi};

fn engine_matvec<'a>(
    eng: &'a SpmvEngine,
    a: &'a SparseMatrix,
) -> impl FnMut(&[f64], &mut [f64]) + 'a {
    move |v, out| {
        out.fill(0.0);
        eng.run(a, v, out).unwrap();
    }
}

fn residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    t.matvec_acc(x, &mut ax);
    ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt()
}

#[test]
fn all_krylov_methods_agree_through_compiled_engines() {
    let t = fem_grid_2d(7, 6, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect();
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let eng = SpmvEngine::compile(&a).unwrap();
    let diag = DiagonalPreconditioner::from_matrix(&t);

    let op = eng.bind(&a);

    // CG (SPD) with diagonal preconditioning.
    let mut x_cg = vec![0.0; n];
    let r = cg(
        &op,
        &diag,
        &b,
        &mut x_cg,
        CgOptions { max_iters: 2000, rel_tol: 1e-11 },
        &ExecCtx::default(),
    )
    .unwrap();
    assert!(r.converged);

    // CG with IC(0).
    let ic = Ic0::factor(&t).unwrap();
    let mut x_ic = vec![0.0; n];
    let r_ic = cg(
        &op,
        &ic,
        &b,
        &mut x_ic,
        CgOptions { max_iters: 2000, rel_tol: 1e-11 },
        &ExecCtx::default(),
    )
    .unwrap();
    assert!(r_ic.converged);
    assert!(r_ic.iters <= r.iters, "IC(0) must not be slower in iterations");

    // GMRES over the same bound operator.
    let mut x_gm = vec![0.0; n];
    let r_gm = gmres(
        &op,
        &diag,
        &b,
        &mut x_gm,
        GmresOptions { restart: 30, max_iters: 3000, rel_tol: 1e-11 },
        &ExecCtx::default(),
    )
    .unwrap();
    assert!(r_gm.converged);

    // All three solutions agree.
    for i in 0..n {
        assert!((x_cg[i] - x_ic[i]).abs() < 1e-6, "CG vs IC0-PCG at {i}");
        assert!((x_cg[i] - x_gm[i]).abs() < 1e-6, "CG vs GMRES at {i}");
    }
    assert!(residual(&t, &x_cg, &b) < 1e-7);
}

#[test]
fn stationary_methods_converge_through_compiled_engines() {
    let t = fem_grid_2d(6, 6, 1);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64 - 1.5).collect();
    let a = SparseMatrix::from_triplets(FormatKind::Ccs, &t); // column-major engine
    let eng = SpmvEngine::compile(&a).unwrap();
    let diag = DiagonalPreconditioner::from_matrix(&t);

    let mut x_j = vec![0.0; n];
    let rj = jacobi(engine_matvec(&eng, &a), &diag, &b, &mut x_j, 0.9, 20000, 1e-8);
    assert!(rj.converged, "jacobi residual {}", rj.final_residual);

    // Gershgorin bounds of the generator's 2·(Laplacian + I) on a 2-D
    // grid: [2, 18].
    let mut x_c = vec![0.0; n];
    let rc = chebyshev(engine_matvec(&eng, &a), &b, &mut x_c, 2.0, 18.0, 20000, 1e-8);
    assert!(rc.converged, "chebyshev residual {}", rc.final_residual);

    for i in 0..n {
        assert!((x_j[i] - x_c[i]).abs() < 1e-5);
    }
}

#[test]
fn gmres_solves_every_suite_matrix_through_engines() {
    // Including the unsymmetric circuit twin, where CG is inapplicable.
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        if s.nrows > 3000 {
            continue; // keep the test fast (memplus runs in benches)
        }
        let n = s.nrows;
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &m.triplets);
        let eng = SpmvEngine::compile(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let diag = DiagonalPreconditioner::from_matrix(&m.triplets);
        let mut x = vec![0.0; n];
        let r = gmres(
            &eng.bind(&a),
            &diag,
            &b,
            &mut x,
            GmresOptions { restart: 50, max_iters: 6000, rel_tol: 1e-8 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(
            r.converged,
            "{}: residual {} after {} matvecs",
            m.name, r.final_residual, r.iters
        );
    }
}

#[test]
fn ic0_handles_every_spd_suite_matrix() {
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        if !s.symmetric || s.nrows > 3000 {
            continue;
        }
        // Shifted factorisation always succeeds on these.
        let ic = Ic0::factor_shifted(&m.triplets, 8);
        assert!(ic.is_ok(), "{}: {:?}", m.name, ic.err());
    }
}

/// Wrong-length vectors and a rectangular operator are the caller's
/// input: both Krylov solvers refuse them with a `RelError` (they used
/// to `assert_eq!` inside a `RelResult` function).
#[test]
fn krylov_solvers_refuse_mismatched_systems_without_panicking() {
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
        let res = gmres(op, &pc, &b, &mut x, GmresOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "gmres, {what}: {res:?}");
        assert_eq!(x, before[..xlen], "{what}: a refused solve must not touch x");
    }
}

/// A preconditioner built for another matrix is the caller's input
/// too: each solver refuses each preconditioner type with a `RelError`
/// where the application used to panic (`copy_from_slice`, a length
/// assert, the sweeps' `expect`).
#[test]
fn krylov_solvers_refuse_a_preconditioner_of_another_order() {
    use bernoulli::RelError;
    use bernoulli_formats::Csr;
    use bernoulli_solvers::{IdentityPreconditioner, Preconditioner, SymGs};
    fn refused(what: &str, a: &SparseMatrix, pc: &impl Preconditioner) {
        let (n, ctx) = (a.nrows(), ExecCtx::default());
        assert_ne!(pc.dim(), n);
        let (b, mut x) = (vec![1.0; n], vec![0.5; n]);
        let res = cg(a, pc, &b, &mut x, CgOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "cg, {what}: {res:?}");
        let res = gmres(a, pc, &b, &mut x, GmresOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "gmres, {what}: {res:?}");
        assert_eq!(x, vec![0.5; n], "{what}: a refused solve must not touch x");
    }
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &fem_grid_2d(3, 3, 1));
    let other = fem_grid_2d(4, 3, 1);
    refused("Identity", &a, &IdentityPreconditioner { n: a.nrows() + 1 });
    refused("Diagonal", &a, &DiagonalPreconditioner::from_matrix(&other));
    refused("Ic0", &a, &Ic0::factor(&other).unwrap());
    refused("SymGs", &a, &SymGs::new(Csr::from_triplets(&other), &ExecCtx::default()).unwrap());
}
