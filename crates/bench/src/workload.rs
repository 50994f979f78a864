//! The §4 experimental workload and the three solver implementations.
//!
//! The paper: "synthetic three-dimensional grid problems. The
//! connectivity of the resulting sparse matrix corresponds to a 7-point
//! stencil with 5 degrees of freedom at each discretization point …
//! during each run we kept the problem size per processor constant at
//! 900" rows (weak scaling), 10 solver iterations.
//!
//! We use a `6 × 6 × 5P` grid: exactly `180·P` points = `900·P` rows,
//! i.e. 900 rows per processor at every `P`, partitioned through the
//! BlockSolve color/clique layout.

use bernoulli::spmd::{fragment_matrix, CompiledMixed, CompiledNaive, MixedSpec};
use bernoulli_blocksolve::matvec::BsParallelMatvec;
use bernoulli_blocksolve::reorder::{build_layout, BlockSolveLayout};
use bernoulli_blocksolve::split::{split_matrix, BsLocal};
use bernoulli_formats::gen::fem_grid_3d;
use bernoulli_formats::{Csr, Triplets};
use bernoulli_solvers::cg::{cg_parallel, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_spmd::chaos::ChaosTable;
use bernoulli_spmd::dist::Distribution;
use bernoulli_spmd::machine::{Ctx, Machine, NetworkModel};
use std::time::Instant;

/// Median wall-clock seconds of `samples` runs of `f`.
pub fn median_time(samples: usize, mut f: impl FnMut()) -> f64 {
    assert!(samples >= 1);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Degrees of freedom per grid point (the paper's 5).
pub const DOF: usize = 5;
/// Grid points per processor (the paper's 900 rows / 5 dof = 180).
pub const POINTS_PER_PROC: usize = 180;
/// Solver iterations measured (the paper's 10).
pub const CG_ITERS: usize = 10;

/// The five implementations of Tables 2–3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Impl {
    /// Hand-written BlockSolve library code (overlapped executor).
    BlockSolve,
    /// Compiler output from the mixed local/global spec (eq. 24).
    BernoulliMixed,
    /// Compiler output from the fully data-parallel spec (eq. 23).
    Bernoulli,
    /// Mixed spec, but ownership through a Chaos translation table.
    IndirectMixed,
    /// Data-parallel spec through a Chaos translation table.
    Indirect,
}

impl Impl {
    pub const TABLE2: [Impl; 3] = [Impl::BlockSolve, Impl::BernoulliMixed, Impl::Bernoulli];
    pub const TABLE3: [Impl; 5] = [
        Impl::BlockSolve,
        Impl::BernoulliMixed,
        Impl::Bernoulli,
        Impl::IndirectMixed,
        Impl::Indirect,
    ];

    pub fn paper_name(&self) -> &'static str {
        match self {
            Impl::BlockSolve => "BlockSolve",
            Impl::BernoulliMixed => "Bernoulli-Mixed",
            Impl::Bernoulli => "Bernoulli",
            Impl::IndirectMixed => "Indirect-Mixed",
            Impl::Indirect => "Indirect",
        }
    }
}

/// The prepared (pre-SPMD) problem for one processor count.
pub struct Workload {
    pub nprocs: usize,
    pub layout: BlockSolveLayout,
    /// The reordered global matrix.
    pub reordered: Triplets,
    /// Per-processor BlockSolve fragments (`A_D`/`A_SL`/`A_SNL`).
    pub bs_locals: Vec<BsLocal>,
    /// Per-processor full fragments with global columns (naive spec).
    pub full_frags: Vec<bernoulli::spmd::GlobalFragment>,
    /// Per-processor mixed specs derived from the BlockSolve split.
    pub mixed_specs: Vec<MixedSpec>,
    /// Per-processor right-hand sides and diagonal preconditioners.
    pub b_locals: Vec<Vec<f64>>,
    pub pc_locals: Vec<DiagonalPreconditioner>,
}

/// Build the weak-scaling workload for `nprocs` processors.
pub fn build_workload(nprocs: usize) -> Workload {
    let nz = (POINTS_PER_PROC * nprocs) / 36;
    let t = fem_grid_3d(6, 6, nz.max(1), DOF);
    let layout = build_layout(&t, DOF, nprocs, 2);
    let reordered = layout.permute_matrix(&t);
    let bs_locals = split_matrix(&layout, &reordered);
    let full_frags = fragment_matrix(&reordered, &layout.dist);
    let dist = &layout.dist;
    let mixed_specs: Vec<MixedSpec> = bs_locals.iter().map(bs_to_mixed).collect();

    let n = reordered.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 17) as f64) * 0.1).collect();
    let pc = DiagonalPreconditioner::from_matrix(&reordered);
    let b_locals: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| dist.owned_globals(p).iter().map(|&g| b[g]).collect())
        .collect();
    let pc_locals: Vec<DiagonalPreconditioner> =
        (0..nprocs).map(|p| pc.restrict(&dist.owned_globals(p))).collect();

    Workload { nprocs, layout, reordered, bs_locals, full_frags, mixed_specs, b_locals, pc_locals }
}

/// Convert a BlockSolve fragment into the compiler's mixed spec: the
/// dense clique blocks and the sparse-local part become two local
/// products (the two `local:` statements of eq. 24), `A_SNL` the global
/// one.
pub fn bs_to_mixed(l: &BsLocal) -> MixedSpec {
    let mut diag_t = Triplets::new(l.n_local, l.n_local);
    for b in &l.diag {
        for r in 0..b.size {
            for c in 0..b.size {
                let v = b.data[r * b.size + c];
                if v != 0.0 {
                    diag_t.push(b.l0 + r, b.l0 + c, v);
                }
            }
        }
    }
    MixedSpec::new(
        vec![Csr::from_triplets(&diag_t), l.a_sl.clone()],
        bernoulli::spmd::GlobalFragment {
            n_local: l.n_local,
            n_global: usize::MAX, // unused
            entries: l.a_snl.clone(),
        },
    )
}

/// Timing results of one SPMD solver run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    /// Max across processors of the inspector phase, seconds.
    pub inspector_s: f64,
    /// Max across processors of the 10-iteration executor, seconds.
    pub executor_s: f64,
    /// Final residual (sanity: all implementations must agree).
    pub final_residual: f64,
    /// Total bytes moved by the inspector across all processors.
    pub inspector_bytes: u64,
    /// Total bytes moved by the executor across all processors.
    pub executor_bytes: u64,
}

impl RunTimes {
    /// Inspector overhead as a ratio to one executor iteration —
    /// the paper's Table 3 quantity.
    pub fn inspector_overhead(&self) -> f64 {
        self.inspector_s / (self.executor_s / CG_ITERS as f64)
    }
}

/// Run one implementation of the CG solver and time its phases.
/// Equivalent to [`run_solver_reps`] with 5 repetitions.
pub fn run_solver(w: &Workload, implementation: Impl) -> RunTimes {
    run_solver_reps(w, implementation, 5)
}

/// Run one implementation of the CG solver and time its phases.
///
/// Both phases are repeated `reps` times inside the machine (the
/// inspector fully rebuilds its engine each time) and the minimum of
/// the per-repetition maxima across processors is reported (the
/// standard low-noise estimator for fixed-work phases on a shared
/// machine). Traffic counters cover one
/// repetition of each phase.
pub fn run_solver_reps(w: &Workload, implementation: Impl, reps: usize) -> RunTimes {
    run_solver_model(w, implementation, reps, Some(NetworkModel::sp2_scaled()))
}

/// As [`run_solver_reps`] with an explicit network cost model (`None`
/// for free, shared-memory channels). The Tables 2–3 runs use
/// [`NetworkModel::sp2_scaled`], which is what makes the Chaos table's
/// communication volume — and BlockSolve's overlap — show up in time,
/// not just in the byte counters.
pub fn run_solver_model(
    w: &Workload,
    implementation: Impl,
    reps: usize,
    network: Option<NetworkModel>,
) -> RunTimes {
    assert!(reps >= 1);
    let nprocs = w.nprocs;
    let dist = w.layout.dist.clone();
    let n = w.reordered.nrows();
    let opts = CgOptions { max_iters: CG_ITERS, rel_tol: 0.0 };

    let best = |xs: Vec<f64>| -> f64 { xs.into_iter().fold(f64::INFINITY, f64::min) };

    let out = Machine::run_in(nprocs, network, "workload", &bernoulli::ExecCtx::default(), |ctx| {
        let me = ctx.rank();
        let n_local = dist.local_len(me);

        // ---- inspector phase -----------------------------------------
        let mut insp_times = Vec::with_capacity(reps);
        let mut insp_bytes = 0;
        let mut engine = None;
        for rep in 0..reps {
            ctx.barrier();
            let t0 = Instant::now();
            let stats0 = ctx.stats();
            let e = build_engine(ctx, w, implementation, &dist, n);
            insp_times.push(ctx.all_reduce_max(t0.elapsed().as_secs_f64()));
            if rep == 0 {
                insp_bytes = ctx.stats().since(&stats0).bytes_sent;
            }
            engine = Some(e);
        }
        let mut engine = engine.expect("reps >= 1");

        // ---- executor phase ------------------------------------------
        let mut exec_times = Vec::with_capacity(reps);
        let mut exec_bytes = 0;
        let mut residual = 0.0;
        for rep in 0..reps {
            let mut x_local = vec![0.0; n_local];
            ctx.barrier();
            let t1 = Instant::now();
            let stats1 = ctx.stats();
            let res = cg_parallel(
                ctx,
                |ctx, p, out| engine.matvec(ctx, p, out),
                &w.pc_locals[me],
                &w.b_locals[me],
                &mut x_local,
                opts,
            );
            exec_times.push(ctx.all_reduce_max(t1.elapsed().as_secs_f64()));
            if rep == 0 {
                exec_bytes = ctx.stats().since(&stats1).bytes_sent;
                residual = res.final_residual;
            }
        }
        (insp_times, exec_times, residual, insp_bytes, exec_bytes)
    });

    let mut rt = RunTimes::default();
    for (p, (i_ts, e_ts, res, ib, eb)) in out.results.into_iter().enumerate() {
        if p == 0 {
            rt.inspector_s = best(i_ts);
            rt.executor_s = best(e_ts);
            rt.final_residual = res;
        }
        rt.inspector_bytes += ib;
        rt.executor_bytes += eb;
    }
    rt
}

/// The per-processor executor engine, unified across implementations.
enum Engine<'a> {
    Bs { pm: BsParallelMatvec, local: &'a BsLocal },
    Mixed(CompiledMixed),
    Naive(CompiledNaive),
}

impl Engine<'_> {
    fn matvec(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        match self {
            Engine::Bs { pm, local } => pm.execute(ctx, local, x, y, true),
            Engine::Mixed(e) => e.execute(ctx, x, y),
            Engine::Naive(e) => e.execute(ctx, x, y),
        }
    }
}

fn build_engine<'a>(
    ctx: &mut Ctx,
    w: &'a Workload,
    implementation: Impl,
    dist: &bernoulli_spmd::dist::ContiguousRunsDist,
    n: usize,
) -> Engine<'a> {
    let me = ctx.rank();
    match implementation {
        Impl::BlockSolve => Engine::Bs {
            pm: BsParallelMatvec::inspect(ctx, &w.bs_locals[me], dist),
            local: &w.bs_locals[me],
        },
        Impl::BernoulliMixed => {
            Engine::Mixed(CompiledMixed::inspect(ctx, &w.mixed_specs[me], dist))
        }
        Impl::Bernoulli => Engine::Naive(CompiledNaive::inspect(ctx, &w.full_frags[me], dist)),
        Impl::IndirectMixed => {
            // Table construction is part of the inspector cost: "setting
            // up the distributed translation table … requires the round
            // of all-to-all communication with the volume proportional
            // to the problem size".
            let table = ChaosTable::build(ctx, n, &dist.owned_globals(me));
            Engine::Mixed(CompiledMixed::inspect_chaos(ctx, &w.mixed_specs[me], &table))
        }
        Impl::Indirect => {
            let table = ChaosTable::build(ctx, n, &dist.owned_globals(me));
            Engine::Naive(CompiledNaive::inspect_chaos(ctx, &w.full_frags[me], &table))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_weak_scaling_sizes() {
        for p in [1, 2, 4] {
            let w = build_workload(p);
            assert_eq!(w.reordered.nrows(), 900 * p, "P={p}");
            for q in 0..p {
                assert!(w.layout.dist.local_len(q) > 0);
            }
        }
    }

    #[test]
    fn all_implementations_agree_on_residual() {
        let w = build_workload(2);
        let mut residuals = Vec::new();
        for imp in Impl::TABLE3 {
            let rt = run_solver(&w, imp);
            residuals.push((imp, rt.final_residual));
            assert!(rt.executor_s > 0.0);
            assert!(rt.inspector_s >= 0.0);
        }
        let base = residuals[0].1;
        for (imp, r) in &residuals {
            assert!(
                (r - base).abs() < 1e-6 * base.abs().max(1.0),
                "{} residual {r} vs {base}",
                imp.paper_name()
            );
        }
    }

    #[test]
    fn indirect_inspectors_move_more_bytes() {
        let w = build_workload(2);
        let mixed = run_solver(&w, Impl::BernoulliMixed);
        let ind_mixed = run_solver(&w, Impl::IndirectMixed);
        assert!(
            ind_mixed.inspector_bytes > 3 * mixed.inspector_bytes,
            "indirect {} vs mixed {}",
            ind_mixed.inspector_bytes,
            mixed.inspector_bytes
        );
    }

    #[test]
    fn executor_traffic_identical_across_specs() {
        // The executors exchange exactly the same boundary values.
        let w = build_workload(2);
        let a = run_solver(&w, Impl::BernoulliMixed);
        let b = run_solver(&w, Impl::Bernoulli);
        assert_eq!(a.executor_bytes, b.executor_bytes);
    }
}
