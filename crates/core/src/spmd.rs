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
//! The two inspectors differ only in their `Used` set: both take any
//! `IND` ([`IndexTranslation`]) and reach their schedule through the one
//! [`CommSchedule::build`], so a Chaos table in place of a replicated
//! relation gives Table 3's `Indirect-*` rows with no code of its own.
//!
//! Both executors run their products in i-node storage (Fig. 2(c): the
//! rows of one discretisation point share a column list and a dense
//! block) through the one group body [`spmv_inode_with`] — so what
//! separates them is what the paper measures, translation and inspector
//! work, not the kernel. The storage is built before any iteration: a
//! [`MixedSpec`] builds it from its CRS parts when it is built, the
//! naive inspector (whose work is ∝ problem size anyway) at inspection.

use bernoulli_formats::kernels::spmv_inode_with;
use bernoulli_formats::{Csr, InodeMatrix, Triplets};
use bernoulli_spmd::dist::{Distribution, IndexTranslation};
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
    /// are CSR operands here; columns are local indices), as given to
    /// [`MixedSpec::new`]. The executor multiplies by their i-node
    /// storage, built there, and never reads these.
    pub local_parts: Arc<Vec<Csr>>,
    /// Each local part in i-node storage. Shared, not copied: the
    /// compiled executor references the same storage, so inspecting
    /// costs O(boundary), not O(local matrix).
    local_inodes: Arc<Vec<InodeMatrix>>,
    /// The sparse-nonlocal part `A_SNL`, global columns.
    pub global_part: GlobalFragment,
}

impl MixedSpec {
    /// The spec over these local operands; builds each one's i-node
    /// storage (one O(nnz) pass, here and not in any inspector).
    pub fn new(local_parts: Vec<Csr>, global_part: GlobalFragment) -> Self {
        let local_inodes = local_parts.iter().map(InodeMatrix::of).collect();
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
/// to `x` goes `xbuf[trans[cols[k]]]` — the "extra level of
/// indirection in the accesses to x even for the local references" the
/// paper measures a ~10% executor penalty for. The inspector's
/// translation work (and the executor's per-iteration copy of local
/// values into the x-buffer) is likewise proportional to the problem
/// size, not the boundary.
pub struct CompiledNaive {
    sched: CommSchedule,
    /// The whole fragment in i-node storage, columns rewritten to
    /// used-set ranks.
    a_used: InodeMatrix,
    /// used-set rank → x-buffer slot (the run-time translation table).
    trans: Vec<usize>,
    /// `(xbuf_slot, local_offset)` copies performed every iteration —
    /// the redundant translation for local references.
    local_srcs: Vec<(usize, usize)>,
    ghost_base: usize,
    xbuf: Vec<f64>,
}

impl CompiledNaive {
    /// The inspector of eq. (23): `Used` is *every* referenced column,
    /// and all of it is joined with `ind` — the translation work the
    /// paper's `Bernoulli` and `Indirect` rows pay even to discover
    /// that most columns are local. The schedule is then built over the
    /// nonlocal part, whose join `ind` answers a second time.
    pub fn inspect(ctx: &mut Ctx, frag: &GlobalFragment, ind: &(impl IndexTranslation + ?Sized)) -> Self {
        let me = ctx.rank();
        let used = frag.used_columns();
        let owners = ind.join(ctx, &used);
        // Locals get the leading x-buffer slots. `used` is sorted, so
        // the rank of a global is its position in `used`.
        let mut local_srcs: Vec<(usize, usize)> = Vec::new();
        let mut nonlocal: Vec<usize> = Vec::new();
        for (&g, &(p, l)) in used.iter().zip(&owners) {
            if p == me {
                local_srcs.push((local_srcs.len(), l));
            } else {
                nonlocal.push(g);
            }
        }
        let ghost_base = local_srcs.len();
        let sched = CommSchedule::build(ctx, ind, &nonlocal);
        // trans[rank] = x-buffer slot of used[rank].
        let mut trans = vec![0usize; used.len()];
        let mut next_local = 0usize;
        for (rank, (g, &(p, _))) in used.iter().zip(&owners).enumerate() {
            if p == me {
                trans[rank] = next_local;
                next_local += 1;
            } else {
                trans[rank] = ghost_base + sched.ghost_of_global[g];
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
        let a_used =
            InodeMatrix::of(&Csr::from_entries_nodup(frag.n_local, used.len().max(1), &rewritten));
        CompiledNaive { sched, a_used, trans, local_srcs, ghost_base, xbuf: vec![0.0; width] }
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
        spmv_inode_with(&self.a_used, |c| xbuf[trans[c]], y_local);
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
    local_inodes: Arc<Vec<InodeMatrix>>,
    a_snl_ghost: GhostRows,
    ghosts: Vec<f64>,
}

impl CompiledMixed {
    /// The inspector of eq. (24): `Used` is read off the global part's
    /// structure, so the join with `ind` is boundary-sized — work and,
    /// over a replicated relation, communication too (the paper's
    /// `Bernoulli-Mixed` row; over a Chaos table, `Indirect-Mixed`).
    pub fn inspect(ctx: &mut Ctx, spec: &MixedSpec, ind: &(impl IndexTranslation + ?Sized)) -> Self {
        let sched = CommSchedule::build(ctx, ind, &spec.global_part.used_columns());
        let a_snl_ghost = GhostRows::build(&sched, &spec.global_part.entries);
        let ghosts = vec![0.0; sched.num_ghosts];
        CompiledMixed { sched, local_inodes: Arc::clone(&spec.local_inodes), a_snl_ghost, ghosts }
    }

    /// One executor iteration: gather, then local products plus the
    /// ghost product. (No overlap: "the Bernoulli compiler generates
    /// simpler code, which first exchanges the non-local values of x
    /// and then does the computation" — the measured 2–4% gap to the
    /// hand-written overlapped code.)
    pub fn execute(&mut self, ctx: &mut Ctx, x_local: &[f64], y_local: &mut [f64]) {
        gather_ghosts(ctx, &self.sched, x_local, &mut self.ghosts);
        y_local.fill(0.0);
        for part in self.local_inodes.iter() {
            spmv_inode_with(part, |c| x_local[c], y_local);
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
    for &(r, c, v) in t.canonical_entries().iter() {
        let (p, lr) = dist.owner(r);
        frags[p].entries.push((lr, c, v));
    }
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::fem_grid_2d;
    use bernoulli_spmd::chaos::ChaosTable;
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
                    let mut eng = CompiledMixed::inspect(ctx, &spec, &table);
                    eng.execute(ctx, &x_local, &mut y);
                } else {
                    let mut eng = CompiledNaive::inspect(ctx, &frags[me], &table);
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
    fn mixed_inspector_shares_the_specs_inode_storage() {
        let t = fem_grid_2d(5, 4, 3);
        let nprocs = 2;
        let dist = BlockDist::new(t.nrows(), nprocs);
        let frags = fragment_matrix(&t, &dist);
        let specs: Vec<MixedSpec> = (0..nprocs)
            .map(|me| {
                to_mixed_spec(&frags[me], |g| {
                    let (p, l) = dist.owner(g);
                    (p == me).then_some(l)
                })
            })
            .collect();
        let engines = Machine::run(nprocs, |ctx| CompiledMixed::inspect(ctx, &specs[ctx.rank()], &dist));
        for (spec, eng) in specs.iter().zip(&engines.results) {
            assert!(Arc::ptr_eq(&spec.local_inodes, &eng.local_inodes), "the executor copied its operand");
            assert_eq!(Arc::strong_count(&spec.local_inodes), 2, "one spec, one executor");
            assert!(spec.local_inodes.iter().all(|m| m.nnz() > 0));
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
            let _eng = CompiledNaive::inspect(ctx, &frags[me], &table);
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
