//! The hand-written parallel matvec — the BlockSolve baseline of
//! Tables 2 and 3.
//!
//! Inspector ([`BsParallelMatvec::inspect`]): the `Used` set is read
//! straight off the `A_SNL` structure (no discovery work — the point of
//! the mixed specification), joined with the replicated
//! contiguous-runs distribution, and the ghost-slot translation is
//! baked into a copy of `A_SNL` so the executor's inner loop has no
//! index translation at all.
//!
//! Executor ([`BsParallelMatvec::execute`]): posts sends, computes the
//! purely local products `A_D·x + A_SL·x` while values travel, then
//! receives and applies `A_SNL·ghosts` — the communication/computation
//! overlap the paper credits for the hand-written code's last 2–4%.

use crate::split::BsLocal;
use bernoulli_spmd::dist::Distribution;
use bernoulli_spmd::executor::{finish_receives, gather_ghosts, start_sends, GhostRows};
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_spmd::machine::Ctx;

/// Per-processor executor state produced by the inspector.
#[derive(Clone, Debug)]
pub struct BsParallelMatvec {
    pub sched: CommSchedule,
    /// `A_SNL` over the rows that touch a ghost, columns rewritten to
    /// ghost slots.
    pub a_snl_ghost: GhostRows,
    /// Scratch ghost buffer, reused across iterations.
    ghosts: Vec<f64>,
}

impl BsParallelMatvec {
    /// The hand-written inspector. Communication: one request exchange,
    /// volume proportional to the boundary (`used_nonlocal`).
    pub fn inspect(ctx: &mut Ctx, local: &BsLocal, dist: &dyn Distribution) -> BsParallelMatvec {
        let used = local.used_nonlocal();
        let sched = CommSchedule::build_replicated(ctx, dist, &used);
        // Bake the global→ghost translation into the stored matrix so
        // the executor performs no translation (the paper's point about
        // avoiding the extra level of indirection).
        let a_snl_ghost = GhostRows::build(&sched, &local.a_snl);
        let ghosts = vec![0.0; sched.num_ghosts];
        BsParallelMatvec { sched, a_snl_ghost, ghosts }
    }

    /// One parallel matvec: `y_local = A·x |_p`. With `overlap`, the
    /// local products hide the gather latency (the hand-written code's
    /// strategy); without it, the exchange completes first (what the
    /// compiler-generated executor of §4 does).
    pub fn execute(
        &mut self,
        ctx: &mut Ctx,
        local: &BsLocal,
        x_local: &[f64],
        y_local: &mut [f64],
        overlap: bool,
    ) {
        y_local.fill(0.0);
        if overlap {
            start_sends(ctx, &self.sched, x_local);
            local.matvec_diag(x_local, y_local);
            local.matvec_sl(x_local, y_local);
            finish_receives(ctx, &self.sched, &mut self.ghosts);
        } else {
            gather_ghosts(ctx, &self.sched, x_local, &mut self.ghosts);
            local.matvec_diag(x_local, y_local);
            local.matvec_sl(x_local, y_local);
        }
        self.a_snl_ghost.apply(&self.ghosts, y_local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::build_layout;
    use crate::split::split_matrix;
    use bernoulli_formats::gen::{fem_grid_2d, fem_grid_3d};
    use bernoulli_formats::Triplets;
    use bernoulli_spmd::machine::Machine;

    fn reference(t: &Triplets, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; t.nrows()];
        t.matvec_acc(x, &mut y);
        y
    }

    fn run_parallel(t: &Triplets, dof: usize, nprocs: usize, overlap: bool) -> (Vec<f64>, Vec<f64>) {
        let layout = build_layout(t, dof, nprocs, 2);
        let rt = layout.permute_matrix(t);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let want = reference(&rt, &x);
        let locals = split_matrix(&layout, &rt);
        let dist = layout.dist.clone();
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let local = &locals[me];
            let x_local: Vec<f64> =
                dist.owned_globals(me).iter().map(|&g| x[g]).collect();
            let mut pm = BsParallelMatvec::inspect(ctx, local, &dist);
            let mut y_local = vec![0.0; local.n_local];
            pm.execute(ctx, local, &x_local, &mut y_local, overlap);
            y_local
        });
        let mut got = vec![0.0; n];
        for (p, y_local) in out.results.iter().enumerate() {
            for (l, &g) in dist.owned_globals(p).iter().enumerate() {
                got[g] = y_local[l];
            }
        }
        (got, want)
    }

    #[test]
    fn parallel_matvec_matches_reference_2d() {
        for nprocs in [1, 2, 4] {
            let t = fem_grid_2d(5, 4, 3);
            let (got, want) = run_parallel(&t, 3, nprocs, false);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10, "P={nprocs}");
            }
        }
    }

    #[test]
    fn overlap_gives_identical_results() {
        let t = fem_grid_3d(3, 3, 2, 5);
        let (plain, want) = run_parallel(&t, 5, 4, false);
        let (over, _) = run_parallel(&t, 5, 4, true);
        for ((a, b), w) in plain.iter().zip(&over).zip(&want) {
            assert!((a - b).abs() < 1e-12);
            assert!((a - w).abs() < 1e-10);
        }
    }

    #[test]
    fn inspector_traffic_proportional_to_boundary() {
        let t = fem_grid_3d(4, 4, 2, 5);
        let layout = build_layout(&t, 5, 4, 2);
        let rt = layout.permute_matrix(&t);
        let locals = split_matrix(&layout, &rt);
        let dist = layout.dist.clone();
        let out = Machine::run(4, |ctx| {
            let before = ctx.stats();
            let pm = BsParallelMatvec::inspect(ctx, &locals[ctx.rank()], &dist);
            (ctx.stats().since(&before).bytes_sent, pm.sched.recv_volume())
        });
        let n = t.nrows() as u64;
        for &(bytes, boundary) in &out.results {
            // Far below problem size × 8 bytes; roughly ∝ boundary.
            assert!(bytes <= 8 * (boundary as u64) * 4 + 64, "bytes {bytes} boundary {boundary}");
            assert!(bytes < 8 * n, "inspector moved ∝ problem size");
        }
    }

    #[test]
    fn ghost_translation_baked_in() {
        let t = fem_grid_2d(4, 2, 2);
        let layout = build_layout(&t, 2, 2, 2);
        let rt = layout.permute_matrix(&t);
        let locals = split_matrix(&layout, &rt);
        let dist = layout.dist.clone();
        let out = Machine::run(2, |ctx| {
            let pm = BsParallelMatvec::inspect(ctx, &locals[ctx.rank()], &dist);
            (pm.a_snl_ghost.nnz(), pm.sched.num_ghosts, locals[ctx.rank()].a_snl.len())
        });
        for &(ghost_nnz, num_ghosts, snl_len) in &out.results {
            assert_eq!(ghost_nnz, snl_len);
            // Every ghost column is within the ghost buffer.
            assert!(num_ghosts > 0);
        }
    }
}
