//! CG against the facts of Krylov theory rather than against another
//! run of itself: a zero right-hand side and an exact guess take no
//! step, a system with k distinct eigenvalues takes at most k, an
//! order-n system takes at most n, and the energy norm of the error
//! never grows from one step to the next.

use bernoulli::ExecCtx;
use bernoulli_formats::gen::{fem_grid_2d, grid2d_5pt};
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::cg::{cg, CgOptions, CgResult};
use bernoulli_solvers::precond::{DiagonalPreconditioner, IdentityPreconditioner};
use bernoulli_solvers::Preconditioner;

fn diagonal(values: &[f64]) -> Triplets {
    let n = values.len();
    Triplets::from_entries(n, n, &values.iter().enumerate().map(|(i, &v)| (i, i, v)).collect::<Vec<_>>())
}

fn solve(t: &Triplets, pc: &impl Preconditioner, b: &[f64], x: &mut [f64], opts: CgOptions) -> CgResult {
    let a = SparseMatrix::from_triplets(FormatKind::Csr, t);
    cg(&a, pc, b, x, opts, &ExecCtx::serial()).unwrap()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 7 % 11) as f64) * 0.2).collect()
}

#[test]
fn a_zero_rhs_is_solved_by_zero_without_a_step() {
    let t = grid2d_5pt(5, 5);
    let mut x = vec![0.0; 25];
    let r = solve(&t, &IdentityPreconditioner { n: 25 }, &[0.0; 25], &mut x, CgOptions::default());
    assert!(r.converged, "{r:?}");
    assert_eq!((r.iters, r.final_residual), (0, 0.0));
    assert_eq!(r.residual_history, vec![0.0]);
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn an_exact_guess_stops_before_the_first_step() {
    // A diagonal system's solution is exact in floating point when
    // every quotient is: b = A·x for x of small integers.
    let t = diagonal(&[2.0, 4.0, 8.0, 0.5, 1.0]);
    let want = vec![3.0, -1.0, 2.0, 8.0, 5.0];
    let mut b = vec![0.0; 5];
    t.matvec_acc(&want, &mut b);
    let mut x = want.clone();
    let r = solve(&t, &IdentityPreconditioner { n: 5 }, &b, &mut x, CgOptions::default());
    assert!(r.converged && r.iters == 0, "{r:?}");
    assert_eq!(x, want);
}

#[test]
fn jacobi_on_a_diagonal_system_is_exact_after_one_step() {
    let values: Vec<f64> = (0..40).map(|i| 1.0 + (i % 9) as f64 * 3.5).collect();
    let t = diagonal(&values);
    let b = rhs(40);
    let mut x = vec![0.0; 40];
    let r = solve(&t, &DiagonalPreconditioner::from_matrix(&t), &b, &mut x, CgOptions::default());
    assert!(r.converged && r.iters == 1, "{r:?}");
    for i in 0..40 {
        assert!((x[i] - b[i] / values[i]).abs() <= 1e-14 * x[i].abs(), "row {i}");
    }
}

#[test]
fn k_distinct_eigenvalues_take_at_most_k_steps() {
    for k in 1..=4usize {
        let values: Vec<f64> = (0..36).map(|i| [1.0, 3.0, 10.0, 30.0][i % k]).collect();
        let t = diagonal(&values);
        let mut x = vec![0.0; 36];
        let r = solve(&t, &IdentityPreconditioner { n: 36 }, &rhs(36), &mut x, CgOptions::default());
        assert!(r.converged && r.iters <= k, "{k} eigenvalues: {r:?}");
    }
}

#[test]
fn an_order_n_system_takes_at_most_n_steps() {
    // A 3×4 grid Laplacian: order 12, well conditioned.
    let t = grid2d_5pt(3, 4);
    let n = t.nrows();
    let mut x = vec![0.0; n];
    let r = solve(&t, &IdentityPreconditioner { n }, &rhs(n), &mut x, CgOptions { max_iters: n, rel_tol: 1e-12 });
    assert!(r.converged && r.iters <= n, "{r:?}");
}

#[test]
fn no_step_is_taken_when_the_cap_is_zero() {
    let t = grid2d_5pt(4, 4);
    let b = rhs(16);
    let mut x = vec![0.0; 16];
    let r = solve(&t, &IdentityPreconditioner { n: 16 }, &b, &mut x, CgOptions { max_iters: 0, rel_tol: 1e-10 });
    let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(!r.converged, "{r:?}");
    assert_eq!(r.iters, 0);
    assert_eq!(r.residual_history, vec![norm_b]);
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn the_energy_norm_of_the_error_never_grows() {
    let t = fem_grid_2d(5, 4, 2);
    let n = t.nrows();
    let b = rhs(n);
    let a = Csr::from_triplets(&t);
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let mut exact = vec![0.0; n];
    let r = solve(&t, &pc, &b, &mut exact, CgOptions { max_iters: 1000, rel_tol: 1e-14 });
    assert!(r.converged, "{r:?}");
    let energy = |x: &[f64]| {
        let e: Vec<f64> = x.iter().zip(&exact).map(|(p, q)| p - q).collect();
        let mut ae = vec![0.0; n];
        t.matvec_acc(&e, &mut ae);
        ae.iter().zip(&e).map(|(p, q)| p * q).sum::<f64>().sqrt()
    };
    let mut last = energy(&vec![0.0; n]);
    for steps in 1..=r.iters.min(20) {
        // Benchmark mode runs exactly `steps` iterations from zero.
        let mut x = vec![0.0; n];
        cg(&a, &pc, &b, &mut x, CgOptions { max_iters: steps, rel_tol: 0.0 }, &ExecCtx::serial()).unwrap();
        let now = energy(&x);
        assert!(now <= last * (1.0 + 1e-12), "step {steps}: {now} after {last}");
        last = now;
    }
}
