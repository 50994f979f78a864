//! The per-processor split `A = A_D + A_SL + A_SNL` (§3.3).
//!
//! After the color/clique reordering, each processor's rows decompose
//! into:
//!
//! * `A_D` — the **dense** clique-diagonal blocks (black triangles of
//!   Fig. 2(b)): couplings within one clique, stored as small dense
//!   matrices, touching only local entries of `x`;
//! * `A_SL` — sparse off-clique couplings whose column is **local**
//!   (owned by the same processor), stored with local column indices;
//! * `A_SNL` — sparse couplings whose column is **non-local**: the only
//!   part whose product needs communication and index translation.
//!
//! This storage split is what makes the *mixed* specification (eq. (24))
//! possible: the products with `A_D` and `A_SL` are pure node-level
//! code, and only `A_SNL` goes through the global (data-parallel) path.
//!
//! `A_SL` keeps the i-node structure BlockSolve stores (Fig. 2(c)): the
//! rows of one point share a column list. [`split_matrix`] stores it as
//! an [`InodeMatrix`] and [`BsLocal::matvec_sl`] runs the group body on
//! it — the same body, on the same storage, the compiled
//! executors of `bernoulli::spmd` run, so Table 2 compares translation
//! and overlap, not kernels.

use crate::reorder::BlockSolveLayout;
use bernoulli_formats::kernels::spmv_inode_with;
use bernoulli_formats::{InodeMatrix, Triplets};
use bernoulli_spmd::dist::Distribution;

/// One dense clique-diagonal block: rows/cols `l0 .. l0+size` of the
/// local numbering, values row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagBlock {
    pub l0: usize,
    pub size: usize,
    pub data: Vec<f64>,
}

/// One processor's fragment of the matrix in BlockSolve form.
#[derive(Clone, Debug, PartialEq)]
pub struct BsLocal {
    pub rank: usize,
    pub n_local: usize,
    /// Dense clique blocks, ascending `l0`.
    pub diag: Vec<DiagBlock>,
    /// Sparse local part: `n_local × n_local`, local column indices, in
    /// i-node storage.
    pub a_sl: InodeMatrix,
    /// Sparse non-local part as `(local_row, global_col, value)`
    /// triplets; the inspector later rewrites the columns to ghost
    /// slots.
    pub a_snl: Vec<(usize, usize, f64)>,
}

impl BsLocal {
    /// Distinct global columns referenced by `A_SNL` — the `Used`
    /// set of eq. (21), available *structurally* (no query needed):
    /// this is why the hand-written/mixed inspectors are cheap.
    pub fn used_nonlocal(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.a_snl.iter().map(|&(_, c, _)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Stored entries across all three parts.
    pub fn nnz(&self) -> usize {
        self.diag.iter().map(|b| b.size * b.size).sum::<usize>()
            + self.a_sl.nnz()
            + self.a_snl.len()
    }

    /// `y += A_D·x` (dense clique blocks, local only).
    pub fn matvec_diag(&self, x_local: &[f64], y_local: &mut [f64]) {
        for b in &self.diag {
            let xs = &x_local[b.l0..b.l0 + b.size];
            let ys = &mut y_local[b.l0..b.l0 + b.size];
            for (r, yv) in ys.iter_mut().enumerate() {
                let row = &b.data[r * b.size..(r + 1) * b.size];
                let mut acc = 0.0;
                for (av, &xv) in row.iter().zip(xs) {
                    acc += av * xv;
                }
                *yv += acc;
            }
        }
    }

    /// `y += A_SL·x` (sparse local part).
    pub fn matvec_sl(&self, x_local: &[f64], y_local: &mut [f64]) {
        spmv_inode_with(&self.a_sl, |c| x_local[c], y_local);
    }
}

/// Split the (already reordered) matrix into per-processor fragments.
pub fn split_matrix(layout: &BlockSolveLayout, reordered: &Triplets) -> Vec<BsLocal> {
    let nprocs = layout.nprocs;
    let dist = &layout.dist;
    let mut locals: Vec<BsLocal> = (0..nprocs)
        .map(|p| BsLocal {
            rank: p,
            n_local: dist.local_len(p),
            diag: Vec::new(),
            a_sl: InodeMatrix::from_triplets(&Triplets::new(dist.local_len(p), dist.local_len(p))),
            a_snl: Vec::new(),
        })
        .collect();

    // Dense clique blocks (zero-initialised, filled below).
    for (c, &(start, len)) in layout.clique_ranges.iter().enumerate() {
        let p = layout.clique_proc[c];
        let (_, l0) = dist.owner(start);
        let _ = c;
        locals[p].diag.push(DiagBlock { l0, size: len, data: vec![0.0; len * len] });
    }
    for l in &mut locals {
        l.diag.sort_by_key(|b| b.l0);
    }

    let mut sl_trip: Vec<Triplets> = (0..nprocs)
        .map(|p| Triplets::new(dist.local_len(p), dist.local_len(p)))
        .collect();

    for &(r, col, v) in reordered.canonical_entries().iter() {
        let (p, lr) = dist.owner(r);
        let same_clique = layout.clique_of_new_row[r] == layout.clique_of_new_row.get(col).copied().unwrap_or(usize::MAX)
            && layout.clique_of_new_row[r] == layout.clique_of_new_row[col];
        if same_clique {
            // Dense block entry.
            let c_id = layout.clique_of_new_row[r];
            let (c_start, c_len) = layout.clique_ranges[c_id];
            let local = &mut locals[p];
            let (_, block_l0) = dist.owner(c_start);
            let b = local
                .diag
                .iter_mut()
                .find(|b| b.l0 == block_l0)
                .expect("clique block exists");
            let br = r - c_start;
            let bc = col - c_start;
            b.data[br * c_len + bc] = v;
        } else {
            let (owner_c, lc) = dist.owner(col);
            if owner_c == p {
                sl_trip[p].push(lr, lc, v);
            } else {
                locals[p].a_snl.push((lr, col, v));
            }
        }
    }
    for (p, t) in sl_trip.into_iter().enumerate() {
        locals[p].a_sl = InodeMatrix::from_triplets(&t);
    }
    locals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::build_layout;
    use bernoulli_formats::gen::fem_grid_2d;

    fn setup(nprocs: usize) -> (Triplets, BlockSolveLayout, Vec<BsLocal>) {
        let t = fem_grid_2d(4, 3, 3);
        let l = build_layout(&t, 3, nprocs, 2);
        let rt = l.permute_matrix(&t);
        let locals = split_matrix(&l, &rt);
        (rt, l, locals)
    }

    #[test]
    fn split_conserves_entries() {
        let (rt, _, locals) = setup(3);
        let total: usize = locals.iter().map(BsLocal::nnz).sum();
        // Dense blocks may store structural zeros, so ≥ canonical nnz.
        assert!(total >= rt.canonicalize().len());
        // And every stored sparse entry must be a real matrix entry.
        for l in &locals {
            assert!(l.a_sl.nnz() > 0 || l.a_snl.is_empty() || l.n_local > 0);
        }
    }

    #[test]
    fn local_products_match_reference() {
        let (rt, layout, locals) = setup(2);
        let n = rt.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; n];
        rt.matvec_acc(&x, &mut want);

        // Reassemble y from the three per-processor parts, resolving
        // A_SNL columns from the global x (no communication in this
        // sequential check).
        let dist = &layout.dist;
        let mut got = vec![0.0; n];
        for l in &locals {
            let x_local: Vec<f64> =
                dist.owned_globals(l.rank).iter().map(|&g| x[g]).collect();
            let mut y_local = vec![0.0; l.n_local];
            l.matvec_diag(&x_local, &mut y_local);
            l.matvec_sl(&x_local, &mut y_local);
            for &(lr, gc, v) in &l.a_snl {
                y_local[lr] += v * x[gc];
            }
            for (ll, &g) in dist.owned_globals(l.rank).iter().enumerate() {
                got[g] = y_local[ll];
            }
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn used_nonlocal_is_sorted_dedup() {
        let (_, _, locals) = setup(3);
        for l in &locals {
            let u = l.used_nonlocal();
            assert!(u.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn single_proc_has_no_nonlocal() {
        let (_, _, locals) = setup(1);
        assert_eq!(locals.len(), 1);
        assert!(locals[0].a_snl.is_empty());
        assert!(locals[0].used_nonlocal().is_empty());
    }

    #[test]
    fn diag_blocks_match_cliques() {
        let (_, layout, locals) = setup(2);
        let blocks: usize = locals.iter().map(|l| l.diag.len()).sum();
        assert_eq!(blocks, layout.cliques.num_cliques());
        // Block sizes are clique sizes × dof.
        for l in &locals {
            for b in &l.diag {
                assert!(b.size % layout.dof == 0);
            }
        }
    }
}
