//! Restarted GMRES(m) — Saad & Schultz.
//!
//! The Table-1 suite contains unsymmetric matrices (the `memplus`
//! circuit twin) on which CG is not applicable; GMRES is the standard
//! Krylov method there, built on exactly the same compiled SpMV
//! substrate (one matvec per Arnoldi step).
//!
//! Left-preconditioned: solves `M⁻¹ A x = M⁻¹ b` using any
//! [`Preconditioner`]. Arnoldi with modified Gram–Schmidt; the small
//! least-squares problem is solved incrementally with Givens rotations.

use crate::precond::Preconditioner;
use crate::vecops::{par_axpy, par_dot, par_norm2};
use bernoulli::{ExecCtx, Operator, RelResult};
use bernoulli_obs::events::SolverTrace;

/// GMRES configuration.
#[derive(Clone, Copy, Debug)]
pub struct GmresOptions {
    /// Krylov subspace dimension between restarts.
    pub restart: usize,
    /// Maximum total matvecs.
    pub max_iters: usize,
    /// Relative (preconditioned) residual tolerance.
    pub rel_tol: f64,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions { restart: 30, max_iters: 1000, rel_tol: 1e-10 }
    }
}

/// Solve outcome.
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// Total matvecs performed.
    pub iters: usize,
    /// Final preconditioned-residual estimate.
    pub final_residual: f64,
    pub converged: bool,
    /// Preconditioned-residual estimate per matvec (index 0 = initial
    /// residual; entries within a restart cycle are the Givens
    /// recurrence estimates, so the last entry can differ slightly from
    /// the recomputed [`GmresResult::final_residual`]).
    pub residual_history: Vec<f64>,
}

/// Restarted GMRES: solves `A x = b` with `op` applying `A` (any
/// [`Operator`]) and all policy carried by the [`ExecCtx`].
///
/// `ExecCtx::default()` is the exact serial solver; a parallel ctx
/// dispatches the hot vector operations (Gram–Schmidt dots and
/// orthogonalisation updates, norms) through its thread pool; an
/// [instrumented](ExecCtx::instrument) ctx records the whole solve as a
/// `solver.gmres` span plus a [`SolverTrace`] of the residual history.
pub fn gmres(
    op: &dyn Operator,
    precond: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: GmresOptions,
    ctx: &ExecCtx,
) -> RelResult<GmresResult> {
    let obs = ctx.obs();
    let span = obs.span("solver.gmres");
    let res = gmres_inner(op, precond, b, x, opts, ctx);
    drop(span);
    if let Ok(res) = &res {
        obs.solver(|| SolverTrace {
            solver: "gmres".to_string(),
            n: b.len(),
            iters: res.iters,
            converged: res.converged,
            final_residual: res.final_residual,
            residuals: res.residual_history.clone(),
        });
    }
    res
}

fn gmres_inner(
    op: &dyn Operator,
    precond: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: GmresOptions,
    ctx: &ExecCtx,
) -> RelResult<GmresResult> {
    crate::check_square_system("gmres", op, precond.dim(), b, x)?;
    let n = b.len();
    let m = opts.restart.max(1);
    let mut total_iters = 0usize;

    let mut scratch = vec![0.0; n];
    let mut pre = vec![0.0; n];

    // Preconditioned initial residual norm (for the relative target).
    let mut r0_norm = {
        op.apply(x, &mut scratch)?;
        for i in 0..n {
            scratch[i] = b[i] - scratch[i];
        }
        precond.precondition(&scratch, &mut pre);
        par_norm2(&pre, ctx)
    };
    // One entry per matvec, index 0 = initial (the SolverTrace shape).
    let mut history = vec![r0_norm];
    if r0_norm == 0.0 {
        return Ok(GmresResult {
            iters: 0,
            final_residual: 0.0,
            converged: true,
            residual_history: history,
        });
    }
    let target = opts.rel_tol * r0_norm;

    loop {
        // Arnoldi basis (m+1 vectors) and Hessenberg in Givens form.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut h = vec![vec![0.0f64; m]; m + 1]; // h[row][col]
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];

        // v0 = M⁻¹(b − A x) / β
        op.apply(x, &mut scratch)?;
        for i in 0..n {
            scratch[i] = b[i] - scratch[i];
        }
        precond.precondition(&scratch, &mut pre);
        let beta = par_norm2(&pre, ctx);
        if beta <= target || total_iters >= opts.max_iters {
            return Ok(GmresResult {
                iters: total_iters,
                final_residual: beta,
                converged: beta <= target,
                residual_history: history,
            });
        }
        v.push(pre.iter().map(|&p| p / beta).collect());
        g[0] = beta;

        let mut k_used = 0usize;
        for k in 0..m {
            if total_iters >= opts.max_iters {
                break;
            }
            // w = M⁻¹ A v_k
            op.apply(&v[k], &mut scratch)?;
            precond.precondition(&scratch, &mut pre);
            total_iters += 1;
            // Modified Gram–Schmidt.
            let mut w = pre.clone();
            for (j, vj) in v.iter().enumerate() {
                let hjk = par_dot(&w, vj, ctx);
                h[j][k] = hjk;
                par_axpy(-hjk, vj, &mut w, ctx);
            }
            let hk1 = par_norm2(&w, ctx);
            h[k + 1][k] = hk1;
            // Apply previous Givens rotations to column k.
            for j in 0..k {
                let t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t;
            }
            // New rotation annihilating h[k+1][k].
            let denom = (h[k][k] * h[k][k] + hk1 * hk1).sqrt();
            if denom == 0.0 {
                // Lucky breakdown: the estimate is unchanged from the
                // previous step.
                history.push(g[k].abs());
                k_used = k + 1;
                break;
            }
            cs[k] = h[k][k] / denom;
            sn[k] = hk1 / denom;
            h[k][k] = denom;
            h[k + 1][k] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            k_used = k + 1;

            let res = g[k + 1].abs();
            history.push(res);
            if res <= target || hk1 == 0.0 {
                break;
            }
            v.push(w.iter().map(|&wi| wi / hk1).collect());
        }

        // Back-substitute y from the triangularised H and update x.
        let kk = k_used;
        let mut y = vec![0.0f64; kk];
        for i in (0..kk).rev() {
            let mut acc = g[i];
            for (j, &yj) in y.iter().enumerate().skip(i + 1) {
                acc -= h[i][j] * yj;
            }
            y[i] = acc / h[i][i];
        }
        for (j, &yj) in y.iter().enumerate() {
            for i in 0..n {
                x[i] += yj * v[j][i];
            }
        }
        r0_norm = g[kk].abs();
        if r0_norm <= target || total_iters >= opts.max_iters {
            // Recompute the true preconditioned residual for reporting.
            op.apply(x, &mut scratch)?;
            for i in 0..n {
                scratch[i] = b[i] - scratch[i];
            }
            precond.precondition(&scratch, &mut pre);
            let rn = par_norm2(&pre, ctx);
            return Ok(GmresResult {
                iters: total_iters,
                final_residual: rn,
                converged: rn <= target * 1.01 + f64::EPSILON,
                residual_history: history,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{DiagonalPreconditioner, IdentityPreconditioner};
    use bernoulli_formats::gen::{circuit, grid2d_5pt};
    use bernoulli_formats::{Csr, Triplets};

    fn true_residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        t.matvec_acc(x, &mut ax);
        ax.iter().zip(b).map(|(a, bb)| (a - bb) * (a - bb)).sum::<f64>().sqrt()
    }

    #[test]
    fn solves_spd_system_like_cg() {
        let t = grid2d_5pt(8, 8);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut x = vec![0.0; n];
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let res = gmres(&a, &pc, &b, &mut x, GmresOptions::default(), &ExecCtx::default()).unwrap();
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(true_residual(&t, &x, &b) < 1e-7);
    }

    #[test]
    fn solves_unsymmetric_circuit_matrix() {
        // The memplus twin class — CG is inapplicable here.
        let t = circuit(400, 5);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x = vec![0.0; n];
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let res = gmres(
            &a,
            &pc,
            &b,
            &mut x,
            GmresOptions { restart: 40, max_iters: 2000, rel_tol: 1e-9 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(res.converged, "residual {} after {} matvecs", res.final_residual, res.iters);
        assert!(true_residual(&t, &x, &b) < 1e-5 * (n as f64).sqrt());
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let t = grid2d_5pt(4, 4);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b = vec![0.0; n];
        let mut x = vec![0.0; n];
        let res =
            gmres(&a, &IdentityPreconditioner { n }, &b, &mut x, GmresOptions::default(), &ExecCtx::default())
                .unwrap();
        assert!(res.converged);
        assert_eq!(res.iters, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let t = grid2d_5pt(10, 10);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        // A rough RHS (constant vectors solve grid Laplacians in one
        // Krylov step, so use something spectrally rich instead).
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 19) as f64) - 9.0).collect();
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &IdentityPreconditioner { n },
            &b,
            &mut x,
            GmresOptions { restart: 5, max_iters: 7, rel_tol: 1e-14 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(res.iters <= 7);
        assert!(!res.converged);
    }

    #[test]
    fn restart_smaller_than_needed_still_converges() {
        let t = grid2d_5pt(6, 6);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 2) as f64 + 0.5).collect();
        let mut x = vec![0.0; n];
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let res = gmres(
            &a,
            &pc,
            &b,
            &mut x,
            GmresOptions { restart: 4, max_iters: 5000, rel_tol: 1e-9 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(res.converged, "GMRES(4) residual {}", res.final_residual);
    }

    #[test]
    fn residual_history_has_one_entry_per_matvec() {
        let t = grid2d_5pt(7, 7);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        for opts in [
            GmresOptions::default(),
            GmresOptions { restart: 3, max_iters: 11, rel_tol: 1e-14 },
            GmresOptions { restart: 5, max_iters: 5000, rel_tol: 1e-9 },
        ] {
            let mut x = vec![0.0; n];
            let res = gmres(&a, &pc, &b, &mut x, opts, &ExecCtx::default()).unwrap();
            assert_eq!(
                res.residual_history.len(),
                res.iters + 1,
                "restart {} max {}",
                opts.restart,
                opts.max_iters
            );
            assert!(res.residual_history.iter().all(|r| r.is_finite()));
        }
        // The zero-RHS immediate return keeps the invariant too.
        let mut x = vec![0.0; n];
        let res = gmres(&a, &pc, &vec![0.0; n], &mut x, GmresOptions::default(), &ExecCtx::default())
            .unwrap();
        assert_eq!(res.residual_history, vec![0.0]);
    }

    #[test]
    fn instrumented_ctx_records_trace_and_span() {
        use bernoulli_obs::Obs;
        let t = grid2d_5pt(6, 6);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64 - 1.5).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let obs = Obs::enabled();
        let mut x = vec![0.0; n];
        let ctx = ExecCtx::default().instrument(obs.clone());
        let res = gmres(&a, &pc, &b, &mut x, GmresOptions::default(), &ctx).unwrap();
        let r = obs.report();
        r.validate().unwrap();
        assert_eq!(r.solvers.len(), 1);
        let tr = &r.solvers[0];
        assert_eq!((tr.solver.as_str(), tr.n, tr.iters), ("gmres", n, res.iters));
        assert_eq!(tr.residuals, res.residual_history);
        assert_eq!(r.spans["solver.gmres"].calls, 1);

        // Disabled handle: same numerics, nothing recorded.
        let silent = Obs::disabled();
        let mut x2 = vec![0.0; n];
        let quiet = ExecCtx::default().instrument(silent.clone());
        let res2 = gmres(&a, &pc, &b, &mut x2, GmresOptions::default(), &quiet).unwrap();
        assert_eq!(x, x2);
        assert_eq!(res.final_residual, res2.final_residual);
        assert!(silent.report().solvers.is_empty());
    }
}
