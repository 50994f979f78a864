//! Parallel (SPMD) code generation — §3 of the paper.
//!
//! Given each processor's fragment of the matrix and an
//! index-translation relation `IND`, the compiler derives an
//! **inspector** (evaluate `Used ⋈ IND`, build the communication
//! schedule) and an **executor** (exchange ghost values, run the local
//! query). Two translations of the matrix-vector product are produced,
//! matching §4's measured variants:
//!
//! * [`CompiledNaive`] — from the fully data-parallel specification
//!   (eq. 23): every reference to `x` goes through global-to-local
//!   translation. The inspector's `Used` set is *every* referenced
//!   column (work ∝ problem size, even to discover that most are
//!   local), and the executor reads `x` through one extra level of
//!   indirection even for local references — the paper's measured
//!   ~10% executor and ~10× inspector penalty;
//! * [`CompiledMixed`] — from the mixed local/global specification
//!   (eq. 24): the purely local products are node-level code on local
//!   indices, and only the sparse-nonlocal part is compiled at the
//!   global level. `Used` is just the boundary.
//!
//! Each inspector also comes in a Chaos flavour (`inspect_chaos`),
//! where `IND` is a distributed translation table and the join itself
//! costs all-to-all rounds — the `Indirect-*` rows of Table 3.
//!
//! Both executors run their products on the operands' i-node level
//! (Fig. 2(c): the rows of one discretisation point share a column
//! list) through the one row-group body [`spmv_csr_inodes_with`], over
//! the CRS arrays in place — so what separates them is what the paper
//! measures, translation and inspector work, not the kernel. The
//! partition is structure known before any iteration: a [`MixedSpec`]
//! finds it when it is built, the naive inspector (whose work is ∝
//! problem size anyway) at inspection.

use bernoulli_formats::kernels::{spmv_csr_inodes, spmv_csr_inodes_with};
use bernoulli_formats::{Csr, InodePartition, Triplets};
use bernoulli_spmd::chaos::ChaosTable;
use bernoulli_spmd::dist::Distribution;
use bernoulli_spmd::executor::{gather_ghosts, GhostRows};
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_spmd::machine::Ctx;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One processor's fragment of a distributed matrix: local rows,
/// **global** column indices (the form the fragmentation equation
/// delivers before any translation).
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalFragment {
    pub n_local: usize,
    pub n_global: usize,
    /// `(local_row, global_col, value)`.
    pub entries: Vec<(usize, usize, f64)>,
}

impl GlobalFragment {
    /// Distinct referenced global columns, ascending — the `Used` set
    /// of eq. (21) for this fragment.
    pub fn used_columns(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.entries.iter().map(|&(_, c, _)| c).collect();
        set.into_iter().collect()
    }
}

/// The mixed local/global specification (eq. 24): any number of purely
/// local operands plus the one global fragment needing communication.
#[derive(Clone, Debug)]
pub struct MixedSpec {
    /// Local products `y += L·x_local` (BlockSolve's `A_D` and `A_SL`
    /// are CSR operands here; columns are local indices).
    /// Shared, not copied: the compiled executor references the same
    /// storage, so inspecting costs O(boundary), not O(local matrix).
    pub local_parts: Arc<Vec<Csr>>,
    /// The i-node level of each local part, shared the same way.
    local_inodes: Arc<Vec<InodePartition>>,
    /// The sparse-nonlocal part `A_SNL`, global columns.
    pub global_part: GlobalFragment,
}

impl MixedSpec {
    /// The spec over these local operands; finds each one's i-node
    /// partition (one O(nnz) pass, here and not in any inspector).
    pub fn new(local_parts: Vec<Csr>, global_part: GlobalFragment) -> Self {
        let local_inodes = local_parts.iter().map(InodePartition::of).collect();
        MixedSpec {
            local_parts: Arc::new(local_parts),
            local_inodes: Arc::new(local_inodes),
            global_part,
        }
    }
}

/// Executor compiled from the **naive** data-parallel spec (eq. 23).
///
/// The stored matrix's columns are *used-set ranks*, and every access
/// to `x` goes `xbuf[trans[colind[k]]]` — the "extra level of
/// indirection in the accesses to x even for the local references" the
/// paper measures a ~10% executor penalty for. The inspector's
/// translation work (and the executor's per-iteration copy of local
/// values into the x-buffer) is likewise proportional to the problem
/// size, not the boundary.
pub struct CompiledNaive {
    sched: CommSchedule,
    /// The whole fragment, columns rewritten to used-set ranks.
    a_used: Csr,
    inodes: InodePartition,
    /// used-set rank → x-buffer slot (the run-time translation table).
    trans: Vec<usize>,
    /// `(xbuf_slot, local_offset)` copies performed every iteration —
    /// the redundant translation for local references.
    local_srcs: Vec<(usize, usize)>,
    ghost_base: usize,
    xbuf: Vec<f64>,
}

impl CompiledNaive {
    /// Inspector over a replicated distribution (the paper's
    /// `Bernoulli` row): ownership lookups are local but are performed
    /// for *every* referenced column.
    pub fn inspect(ctx: &mut Ctx, frag: &GlobalFragment, dist: &dyn Distribution) -> Self {
        let me = ctx.rank();
        let used = frag.used_columns();
        let owners: Vec<(usize, usize)> = used.iter().map(|&g| dist.owner(g)).collect();
        Self::finish(ctx, frag, &used, &owners, me, |ctx, nonlocal| {
            CommSchedule::build_replicated(ctx, dist, nonlocal)
        })
    }

    /// Inspector over a Chaos distributed translation table (the
    /// paper's `Indirect` row): every referenced column is
    /// dereferenced through the table — all-to-all volume ∝ references.
    pub fn inspect_chaos(ctx: &mut Ctx, frag: &GlobalFragment, table: &ChaosTable) -> Self {
        let me = ctx.rank();
        let used = frag.used_columns();
        let owners = table.dereference(ctx, &used);
        Self::finish(ctx, frag, &used, &owners, me, |ctx, nonlocal| {
            CommSchedule::build_with_chaos(ctx, table, nonlocal)
        })
    }

    fn finish(
        ctx: &mut Ctx,
        frag: &GlobalFragment,
        used: &[usize],
        owners: &[(usize, usize)],
        me: usize,
        build: impl FnOnce(&mut Ctx, &[usize]) -> CommSchedule,
    ) -> Self {
        // Split used into local and nonlocal; locals get the leading
        // x-buffer slots. `used` is sorted, so the rank of a global is
        // its position in `used`.
        let mut local_srcs: Vec<(usize, usize)> = Vec::new();
        let mut nonlocal: Vec<usize> = Vec::new();
        for (&_g, &(p, l)) in used.iter().zip(owners) {
            if p == me {
                local_srcs.push((local_srcs.len(), l));
            } else {
                nonlocal.push(_g);
            }
        }
        let ghost_base = local_srcs.len();
        let sched = build(ctx, &nonlocal);
        // trans[rank] = x-buffer slot of used[rank].
        let mut trans = vec![0usize; used.len()];
        let mut next_local = 0usize;
        for (rank, (&g, &(p, _))) in used.iter().zip(owners).enumerate() {
            if p == me {
                trans[rank] = next_local;
                next_local += 1;
            } else {
                trans[rank] = ghost_base + sched.ghost_of_global[&g];
            }
        }
        let width = ghost_base + sched.num_ghosts;
        // Rewrite every column to its used-set rank (translation work
        // proportional to the number of stored entries).
        let rewritten: Vec<(usize, usize, f64)> = frag
            .entries
            .iter()
            .map(|&(lr, gc, v)| {
                let rank = used.binary_search(&gc).expect("column in used set");
                (lr, rank, v)
            })
            .collect();
        let a_used = Csr::from_entries_nodup(frag.n_local, used.len().max(1), &rewritten);
        let inodes = InodePartition::of(&a_used);
        CompiledNaive { sched, a_used, inodes, trans, local_srcs, ghost_base, xbuf: vec![0.0; width] }
    }

    /// One executor iteration: `y_local = A·x |_p`. Copies every local
    /// used value into the x-buffer (the redundant translation), then
    /// gathers ghosts, then runs the sparse product through the
    /// rank→slot table — one extra load per referenced column.
    pub fn execute(&mut self, ctx: &mut Ctx, x_local: &[f64], y_local: &mut [f64]) {
        for &(slot, l) in &self.local_srcs {
            self.xbuf[slot] = x_local[l];
        }
        let (_, ghost_part) = self.xbuf.split_at_mut(self.ghost_base);
        gather_ghosts(ctx, &self.sched, x_local, ghost_part);
        let (xbuf, trans) = (&self.xbuf, &self.trans);
        y_local.fill(0.0);
        spmv_csr_inodes_with(&self.a_used, &self.inodes, |c| xbuf[trans[c]], y_local);
    }

    pub fn schedule(&self) -> &CommSchedule {
        &self.sched
    }

    /// Number of per-iteration redundant local copies.
    pub fn redundant_copies(&self) -> usize {
        self.local_srcs.len()
    }
}

/// Executor compiled from the **mixed** local/global spec (eq. 24).
pub struct CompiledMixed {
    sched: CommSchedule,
    local_parts: Arc<Vec<Csr>>,
    local_inodes: Arc<Vec<InodePartition>>,
    a_snl_ghost: GhostRows,
    ghosts: Vec<f64>,
}

impl CompiledMixed {
    /// Inspector over a replicated distribution (the paper's
    /// `Bernoulli-Mixed` row): `Used` is read off the global part's
    /// structure — work and communication ∝ boundary.
    pub fn inspect(ctx: &mut Ctx, spec: &MixedSpec, dist: &dyn Distribution) -> Self {
        let used = spec.global_part.used_columns();
        let sched = CommSchedule::build_replicated(ctx, dist, &used);
        Self::finish(spec, sched)
    }

    /// Inspector over a Chaos translation table (`Indirect-Mixed`):
    /// the boundary is still small, but dereferencing it — and having
    /// built the table at all — costs all-to-all communication.
    pub fn inspect_chaos(ctx: &mut Ctx, spec: &MixedSpec, table: &ChaosTable) -> Self {
        let used = spec.global_part.used_columns();
        let sched = CommSchedule::build_with_chaos(ctx, table, &used);
        Self::finish(spec, sched)
    }

    fn finish(spec: &MixedSpec, sched: CommSchedule) -> Self {
        let a_snl_ghost = GhostRows::build(&sched, &spec.global_part.entries);
        let ghosts = vec![0.0; sched.num_ghosts];
        CompiledMixed {
            sched,
            local_parts: Arc::clone(&spec.local_parts),
            local_inodes: Arc::clone(&spec.local_inodes),
            a_snl_ghost,
            ghosts,
        }
    }

    /// One executor iteration: gather, then local products plus the
    /// ghost product. (No overlap: "the Bernoulli compiler generates
    /// simpler code, which first exchanges the non-local values of x
    /// and then does the computation" — the measured 2–4% gap to the
    /// hand-written overlapped code.)
    pub fn execute(&mut self, ctx: &mut Ctx, x_local: &[f64], y_local: &mut [f64]) {
        gather_ghosts(ctx, &self.sched, x_local, &mut self.ghosts);
        y_local.fill(0.0);
        for (part, inodes) in self.local_parts.iter().zip(self.local_inodes.iter()) {
            spmv_csr_inodes(part, inodes, x_local, y_local);
        }
        self.a_snl_ghost.apply(&self.ghosts, y_local);
    }

    pub fn schedule(&self) -> &CommSchedule {
        &self.sched
    }
}

/// Split a full global fragment into the mixed specification, given the
/// ownership predicate (what the paper's user supplies when writing the
/// mixed program): entries with local columns go to one local CSR part,
/// the rest form the global part.
pub fn to_mixed_spec(
    frag: &GlobalFragment,
    local_of: impl Fn(usize) -> Option<usize>,
) -> MixedSpec {
    let mut local_t = Triplets::new(frag.n_local, frag.n_local);
    let mut global_entries = Vec::new();
    for &(lr, gc, v) in &frag.entries {
        match local_of(gc) {
            Some(lc) => local_t.push(lr, lc, v),
            None => global_entries.push((lr, gc, v)),
        }
    }
    MixedSpec::new(
        vec![Csr::from_triplets(&local_t)],
        GlobalFragment { n_local: frag.n_local, n_global: frag.n_global, entries: global_entries },
    )
}

/// Build each processor's [`GlobalFragment`] of a global matrix under a
/// distribution (a test/bench helper: in a real application fragments
/// arrive already distributed).
pub fn fragment_matrix(t: &Triplets, dist: &dyn Distribution) -> Vec<GlobalFragment> {
    let nprocs = dist.nprocs();
    let mut frags: Vec<GlobalFragment> = (0..nprocs)
        .map(|p| GlobalFragment {
            n_local: dist.local_len(p),
            n_global: t.ncols(),
            entries: Vec::new(),
        })
        .collect();
    for &(r, c, v) in t.canonicalize().entries() {
        let (p, lr) = dist.owner(r);
        frags[p].entries.push((lr, c, v));
    }
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::fem_grid_2d;
    use bernoulli_spmd::dist::BlockDist;
    use bernoulli_spmd::machine::Machine;

    fn reference(t: &Triplets, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; t.nrows()];
        t.matvec_acc(x, &mut y);
        y
    }

    fn stitch(dist: &dyn Distribution, parts: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; dist.len()];
        for (p, part) in parts.iter().enumerate() {
            for (l, &g) in dist.owned_globals(p).iter().enumerate() {
                out[g] = part[l];
            }
        }
        out
    }

    #[test]
    fn naive_executor_matches_reference() {
        let t = fem_grid_2d(6, 4, 2);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let want = reference(&t, &x);
        let nprocs = 3;
        let dist = BlockDist::new(n, nprocs);
        let frags = fragment_matrix(&t, &dist);
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let x_local: Vec<f64> = dist.owned_globals(me).iter().map(|&g| x[g]).collect();
            let mut eng = CompiledNaive::inspect(ctx, &frags[me], &dist);
            assert!(eng.redundant_copies() > 0, "naive must translate local refs");
            let mut y = vec![0.0; frags[me].n_local];
            eng.execute(ctx, &x_local, &mut y);
            y
        });
        let got = stitch(&dist, &out.results);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn mixed_executor_matches_reference() {
        let t = fem_grid_2d(5, 5, 2);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let want = reference(&t, &x);
        let nprocs = 4;
        let dist = BlockDist::new(n, nprocs);
        let frags = fragment_matrix(&t, &dist);
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let x_local: Vec<f64> = dist.owned_globals(me).iter().map(|&g| x[g]).collect();
            let spec = to_mixed_spec(&frags[me], |g| {
                let (p, l) = dist.owner(g);
                (p == me).then_some(l)
            });
            let mut eng = CompiledMixed::inspect(ctx, &spec, &dist);
            let mut y = vec![0.0; frags[me].n_local];
            eng.execute(ctx, &x_local, &mut y);
            y
        });
        let got = stitch(&dist, &out.results);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn chaos_variants_match_replicated() {
        let t = fem_grid_2d(4, 4, 2);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let want = reference(&t, &x);
        let nprocs = 2;
        let dist = BlockDist::new(n, nprocs);
        let frags = fragment_matrix(&t, &dist);
        for mixed in [false, true] {
            let out = Machine::run(nprocs, |ctx| {
                let me = ctx.rank();
                let x_local: Vec<f64> =
                    dist.owned_globals(me).iter().map(|&g| x[g]).collect();
                let table = ChaosTable::build(ctx, n, &dist.owned_globals(me));
                let mut y = vec![0.0; frags[me].n_local];
                if mixed {
                    let spec = to_mixed_spec(&frags[me], |g| {
                        let (p, l) = dist.owner(g);
                        (p == me).then_some(l)
                    });
                    let mut eng = CompiledMixed::inspect_chaos(ctx, &spec, &table);
                    eng.execute(ctx, &x_local, &mut y);
                } else {
                    let mut eng = CompiledNaive::inspect_chaos(ctx, &frags[me], &table);
                    eng.execute(ctx, &x_local, &mut y);
                }
                y
            });
            let got = stitch(&dist, &out.results);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10, "mixed={mixed}");
            }
        }
    }

    #[test]
    fn mixed_inspector_cheaper_than_naive() {
        let t = fem_grid_2d(8, 8, 3);
        let n = t.nrows();
        let nprocs = 4;
        let dist = BlockDist::new(n, nprocs);
        let frags = fragment_matrix(&t, &dist);
        let run = |mixed: bool| {
            Machine::run(nprocs, |ctx| {
                let me = ctx.rank();
                let before = ctx.stats();
                if mixed {
                    let spec = to_mixed_spec(&frags[me], |g| {
                        let (p, l) = dist.owner(g);
                        (p == me).then_some(l)
                    });
                    let eng = CompiledMixed::inspect(ctx, &spec, &dist);
                    (ctx.stats().since(&before).bytes_sent, eng.schedule().recv_volume())
                } else {
                    let eng = CompiledNaive::inspect(ctx, &frags[me], &dist);
                    (ctx.stats().since(&before).bytes_sent, eng.schedule().recv_volume())
                }
            })
        };
        let mixed = run(true);
        let naive = run(false);
        // Same communication schedule in the end...
        for p in 0..nprocs {
            assert_eq!(mixed.results[p].1, naive.results[p].1);
        }
        // Chaos-flavoured naive moves ∝ problem size; replicated naive
        // still *computes* ∝ problem size but communicates the same
        // boundary — the asymmetry shows up against the chaos table:
        let chaos_naive = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let table = ChaosTable::build(ctx, n, &dist.owned_globals(me));
            let before = ctx.stats();
            let _eng = CompiledNaive::inspect_chaos(ctx, &frags[me], &table);
            ctx.stats().since(&before).bytes_sent
        });
        let mixed_bytes: u64 = mixed.results.iter().map(|r| r.0).sum();
        let chaos_bytes: u64 = chaos_naive.results.iter().sum();
        assert!(
            chaos_bytes > 3 * mixed_bytes,
            "chaos naive {chaos_bytes} vs mixed {mixed_bytes}"
        );
    }
}
