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

use bernoulli::spmd::{fragment_matrix, CompiledMixed, CompiledNaive, GlobalFragment, MixedSpec};
use bernoulli::ExecCtx;
use bernoulli_blocksolve::matvec::BsParallelMatvec;
use bernoulli_blocksolve::reorder::build_layout;
use bernoulli_blocksolve::split::{split_matrix, BsLocal};
use bernoulli_formats::gen::fem_grid_3d;
use bernoulli_formats::{Csr, Triplets};
use bernoulli_solvers::cg::{cg_parallel, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_spmd::chaos::ChaosTable;
use bernoulli_spmd::dist::{ContiguousRunsDist, Distribution, IndexTranslation};
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_spmd::machine::{Ctx, Machine, NetworkModel};
use std::time::Instant;

/// Wall-clock seconds of `samples` runs of each of `f(0)` … `f(N - 1)`,
/// one list per arm. The arms' samples are interleaved, so a change of
/// host speed mid-measurement lands on all of them alike.
pub fn sample_times<const N: usize>(samples: usize, mut f: impl FnMut(usize)) -> [Vec<f64>; N] {
    assert!(samples >= 1);
    let mut times = [(); N].map(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (arm, ts) in times.iter_mut().enumerate() {
            let t = Instant::now();
            f(arm);
            ts.push(t.elapsed().as_secs_f64());
        }
    }
    times
}

/// The upper median of a non-empty list.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall-clock seconds of each arm of [`sample_times`].
pub fn median_times<const N: usize>(samples: usize, f: impl FnMut(usize)) -> [f64; N] {
    sample_times(samples, f).map(median)
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
    /// Rows of the global matrix.
    pub n: usize,
    /// The BlockSolve color/clique layout's distribution relation.
    pub dist: ContiguousRunsDist,
    /// Per-processor BlockSolve fragments (`A_D`/`A_SL`/`A_SNL`).
    pub bs_locals: Vec<BsLocal>,
    /// Per-processor full fragments with global columns (naive spec).
    pub full_frags: Vec<GlobalFragment>,
    /// Per-processor mixed specs derived from the BlockSolve split.
    pub mixed_specs: Vec<MixedSpec>,
    /// Per-processor right-hand sides and diagonal preconditioners.
    pub b_locals: Vec<Vec<f64>>,
    pub pc_locals: Vec<DiagonalPreconditioner>,
}

/// Build the weak-scaling workload for `nprocs` processors.
pub fn build_workload(nprocs: usize) -> Workload {
    let t = fem_grid_3d(6, 6, (POINTS_PER_PROC * nprocs / 36).max(1), DOF);
    let layout = build_layout(&t, DOF, nprocs, 2);
    let reordered = layout.permute_matrix(&t);
    let bs_locals = split_matrix(&layout, &reordered);
    let full_frags = fragment_matrix(&reordered, &layout.dist);
    let mixed_specs = bs_locals.iter().map(bs_to_mixed).collect();

    let n = reordered.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 17) as f64) * 0.1).collect();
    let pc = DiagonalPreconditioner::from_matrix(&reordered);
    let owned: Vec<Vec<usize>> = (0..nprocs).map(|p| layout.dist.owned_globals(p)).collect();
    let b_locals = owned.iter().map(|gs| gs.iter().map(|&g| b[g]).collect()).collect();
    let pc_locals = owned.iter().map(|gs| pc.restrict(gs)).collect();
    let dist = layout.dist;
    Workload { n, dist, bs_locals, full_frags, mixed_specs, b_locals, pc_locals }
}

/// Convert a BlockSolve fragment into the compiler's mixed spec: the
/// dense clique blocks and the sparse-local part become two local
/// products (the two `local:` statements of eq. 24), `A_SNL` the global
/// one.
fn bs_to_mixed(l: &BsLocal) -> MixedSpec {
    let mut diag_t = Triplets::new(l.n_local, l.n_local);
    for b in &l.diag {
        for (k, &v) in b.data.iter().enumerate().filter(|&(_, &v)| v != 0.0) {
            diag_t.push(b.l0 + k / b.size, b.l0 + k % b.size, v);
        }
    }
    // `n_global` is not read by the mixed inspector.
    let a_snl =
        GlobalFragment { n_local: l.n_local, n_global: usize::MAX, entries: l.a_snl.clone() };
    MixedSpec::new(vec![Csr::from_triplets(&diag_t), l.a_sl.clone()], a_snl)
}

/// What one implementation cost at one processor count.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    /// Max across processors of the inspector phase, seconds.
    pub inspector_s: f64,
    /// Max across processors of the 10-iteration executor, seconds.
    pub executor_s: f64,
    pub final_residual: f64,
    /// Bytes the inspector / the executor sent, all processors.
    pub inspector_bytes: u64,
    pub executor_bytes: u64,
    /// Inspector work as a count: referenced columns (`|Used|`) put
    /// through the ownership translation, all processors.
    pub used_translated: usize,
    /// Local `x` values the executor copies into its buffer every
    /// iteration (the naive spec's redundant translation), all processors.
    pub local_x_copies: usize,
}

impl RunTimes {
    /// Inspector overhead as a ratio to one executor iteration —
    /// the paper's Table 3 quantity.
    pub fn inspector_overhead(&self) -> f64 {
        self.inspector_s / (self.executor_s / CG_ITERS as f64)
    }
}

/// One barrier-fenced phase: its seconds (max over processors), the
/// bytes this processor sent in it, and what `work` returned.
fn phase<T>(ctx: &mut Ctx, work: impl FnOnce(&mut Ctx) -> T) -> (f64, u64, T) {
    ctx.barrier();
    let (t0, stats0) = (Instant::now(), ctx.stats());
    let out = work(ctx);
    let secs = ctx.all_reduce_max(t0.elapsed().as_secs_f64());
    (secs, ctx.stats().since(&stats0).bytes_sent, out)
}

/// Run one implementation of the CG solver and time its phases.
///
/// Both phases run five times inside the machine (the inspector fully
/// rebuilds its engine each time) and the minimum is reported, the
/// standard low-noise estimator for fixed-work phases on a shared
/// machine; a phase's traffic is the same every time. The network is
/// [`NetworkModel::sp2_scaled`], which is what makes the Chaos table's
/// communication volume — and BlockSolve's overlap — show up in time,
/// not just in the byte counters.
pub fn run_solver(w: &Workload, implementation: Impl) -> RunTimes {
    let opts = CgOptions { max_iters: CG_ITERS, rel_tol: 0.0 };
    let network = Some(NetworkModel::sp2_scaled());
    let out = Machine::run_in(w.dist.nprocs(), network, "workload", &ExecCtx::default(), |ctx| {
        let me = ctx.rank();
        let mut rt = RunTimes::default();
        (rt.inspector_s, rt.executor_s) = (f64::INFINITY, f64::INFINITY);
        let mut engine = None;
        for _ in 0..5 {
            let (secs, bytes, e) = phase(ctx, |ctx| Engine::inspect(ctx, w, implementation));
            (rt.inspector_s, rt.inspector_bytes) = (rt.inspector_s.min(secs), bytes);
            engine = Some(e);
        }
        let mut engine = engine.expect("the loop ran");
        (rt.used_translated, rt.local_x_copies) = engine.translation_counts(w, me);
        for _ in 0..5 {
            let mut x_local = vec![0.0; w.dist.local_len(me)];
            let (secs, bytes, res) = phase(ctx, |ctx| {
                let matvec = |ctx: &mut Ctx, p: &[f64], out: &mut [f64]| engine.matvec(ctx, p, out);
                cg_parallel(ctx, matvec, &w.pc_locals[me], &w.b_locals[me], &mut x_local, opts)
            });
            (rt.executor_s, rt.executor_bytes) = (rt.executor_s.min(secs), bytes);
            rt.final_residual = res.final_residual;
        }
        rt
    });

    // Times and the residual are all-reduced, so rank 0's are everyone's;
    // bytes and counts add up across processors.
    let mut total = out.results[0];
    for rt in &out.results[1..] {
        total.inspector_bytes += rt.inspector_bytes;
        total.executor_bytes += rt.executor_bytes;
        total.used_translated += rt.used_translated;
        total.local_x_copies += rt.local_x_copies;
    }
    total
}

/// The per-processor executor engine, unified across implementations.
enum Engine<'a> {
    Bs(BsParallelMatvec, &'a BsLocal),
    Mixed(CompiledMixed),
    Naive(CompiledNaive),
}

impl<'a> Engine<'a> {
    /// This processor's inspector: BlockSolve's own, or the compiled
    /// spec (mixed or naive) over its `IND`.
    fn inspect(ctx: &mut Ctx, w: &'a Workload, implementation: Impl) -> Engine<'a> {
        let me = ctx.rank();
        if implementation == Impl::BlockSolve {
            let bs = &w.bs_locals[me];
            return Engine::Bs(BsParallelMatvec::inspect(ctx, bs, &w.dist), bs);
        }
        // The Indirect rows hold the same relation in a Chaos table, and
        // building it is part of their cost: "setting up the distributed
        // translation table … requires the round of all-to-all
        // communication with the volume proportional to the problem size".
        let table;
        let ind: &dyn IndexTranslation = match implementation {
            Impl::IndirectMixed | Impl::Indirect => {
                table = ChaosTable::build(ctx, w.n, &w.dist.owned_globals(me));
                &table
            }
            _ => &w.dist,
        };
        match implementation {
            Impl::BernoulliMixed | Impl::IndirectMixed => {
                Engine::Mixed(CompiledMixed::inspect(ctx, &w.mixed_specs[me], ind))
            }
            _ => Engine::Naive(CompiledNaive::inspect(ctx, &w.full_frags[me], ind)),
        }
    }

    fn matvec(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        match self {
            Engine::Bs(pm, local) => pm.execute(ctx, local, x, y, true),
            Engine::Mixed(e) => e.execute(ctx, x, y),
            Engine::Naive(e) => e.execute(ctx, x, y),
        }
    }

    /// `(|Used| the inspector translated, local x copies per iteration)`
    /// on processor `me`. A used column that is not a ghost is a local
    /// value the executor copies into its buffer.
    fn translation_counts(&self, w: &Workload, me: usize) -> (usize, usize) {
        let boundary_only = |used: usize, sched: &CommSchedule| (used, used - sched.num_ghosts);
        match self {
            Engine::Bs(pm, local) => boundary_only(local.used_nonlocal().len(), &pm.sched),
            Engine::Mixed(e) => {
                boundary_only(w.mixed_specs[me].global_part.used_columns().len(), e.schedule())
            }
            Engine::Naive(e) => (w.full_frags[me].used_columns().len(), e.redundant_copies()),
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
            assert_eq!(w.n, 900 * p, "P={p}");
            assert!((0..p).all(|q| w.dist.local_len(q) > 0));
        }
    }
}
