//! The BlockSolve layout (point graph → cliques → coloring →
//! color-major reordering → A_D + A_SL + A_SNL split) checked on the
//! reordered matrix itself, over 2-D and 3-D meshes, shuffled point
//! numberings, several processor counts and clique bounds: the
//! properties the hand-written baseline of Tables 2 and 3 relies on.

use bernoulli_blocksolve::reorder::{build_layout, BlockSolveLayout};
use bernoulli_blocksolve::split::split_matrix;
use bernoulli_formats::gen::{fem_grid_2d, fem_grid_3d, shuffle_points};
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::cg::{cg, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_spmd::dist::Distribution;

/// `(matrix, dof)` meshes: lexicographic and mesh-generator numbering.
fn meshes() -> Vec<(Triplets, usize)> {
    let (t2, t3) = (fem_grid_2d(5, 4, 3), fem_grid_3d(3, 3, 2, 2));
    vec![(shuffle_points(&t2, 3, 7), 3), (t2, 3), (shuffle_points(&t3, 2, 11), 2), (t3, 2)]
}

/// Every layout the tests sweep: each mesh at 1–4 processors and
/// clique bounds 1–3.
fn layouts() -> Vec<(Triplets, BlockSolveLayout)> {
    let mut out = Vec::new();
    for (t, dof) in meshes() {
        for nprocs in 1..=4 {
            for max_clique in 1..=3 {
                let layout = build_layout(&t, dof, nprocs, max_clique);
                out.push((t.clone(), layout));
            }
        }
    }
    out
}

fn tag(l: &BlockSolveLayout) -> String {
    format!("dof {} P {} colors {}", l.dof, l.nprocs, l.num_colors)
}

#[test]
fn no_entry_couples_two_cliques_of_one_color() {
    // What the coloring buys: the rows of one color, outside their own
    // clique block, read no row of the same color.
    for (t, l) in layouts() {
        let rt = l.permute_matrix(&t);
        for &(r, c, _) in rt.entries() {
            let (cr, cc) = (l.clique_of_new_row[r], l.clique_of_new_row[c]);
            if cr != cc {
                assert_ne!(l.colors[cr], l.colors[cc], "{}: ({r},{c})", tag(&l));
            }
        }
    }
}

#[test]
fn each_color_is_one_row_block_split_into_one_run_per_processor() {
    for (_, l) in layouts() {
        let n = l.row_perm.len();
        let color_of = |row: usize| l.colors[l.clique_of_new_row[row]];
        assert!((1..n).all(|r| color_of(r - 1) <= color_of(r)), "{}: colors out of order", tag(&l));
        l.dist.validate().unwrap();
        // Within a color, owners never decrease: processor p's share of
        // a color is one contiguous run.
        for r in 1..n {
            if color_of(r - 1) == color_of(r) {
                assert!(l.dist.owner(r - 1).0 <= l.dist.owner(r).0, "{}: row {r}", tag(&l));
            }
        }
    }
}

#[test]
fn a_clique_is_whole_on_one_processor_and_its_points_keep_their_dof_rows_together() {
    for (_, l) in layouts() {
        for (c, &(start, len)) in l.clique_ranges.iter().enumerate() {
            assert_eq!(len, l.cliques.cliques[c].len() * l.dof, "{}: clique {c}", tag(&l));
            let owner = l.dist.owner(start).0;
            assert_eq!(owner, l.clique_proc[c]);
            for row in start..start + len {
                assert_eq!(l.dist.owner(row).0, owner, "{}: clique {c} row {row}", tag(&l));
                assert_eq!(l.clique_of_new_row[row], c);
            }
        }
        // A point's dof rows are consecutive in the new numbering.
        for point in 0..l.row_perm.len() / l.dof {
            let first = l.row_perm.forward(point * l.dof);
            for d in 1..l.dof {
                assert_eq!(l.row_perm.forward(point * l.dof + d), first + d, "{}: point {point}", tag(&l));
            }
        }
    }
}

#[test]
fn the_three_parts_hold_every_entry_once_and_only_off_rank_columns_are_nonlocal() {
    for (t, l) in layouts() {
        let rt = l.permute_matrix(&t);
        let locals = split_matrix(&l, &rt);
        let mut in_clique = 0;
        for &(r, c, _) in rt.canonicalize().entries() {
            in_clique += usize::from(l.clique_of_new_row[r] == l.clique_of_new_row[c]);
        }
        let sparse: usize = locals.iter().map(|p| p.a_sl.nnz() + p.a_snl.len()).sum();
        assert_eq!(in_clique + sparse, rt.canonicalize().len(), "{}", tag(&l));
        for p in &locals {
            assert_eq!(p.n_local, l.dist.local_len(p.rank));
            assert_eq!(p.diag.iter().map(|b| b.size).sum::<usize>(), p.n_local, "{}: rank {}", tag(&l), p.rank);
            for &(lr, gc, _) in &p.a_snl {
                assert!(lr < p.n_local);
                assert_ne!(l.dist.owner(gc).0, p.rank, "{}: rank {} column {gc}", tag(&l), p.rank);
            }
            if l.nprocs == 1 {
                assert!(p.a_snl.is_empty());
            }
        }
    }
}

#[test]
fn solving_in_the_blocksolve_numbering_answers_the_original_system() {
    for (t, dof) in meshes() {
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let l = build_layout(&t, dof, 3, 2);
        let rt = l.permute_matrix(&t);
        let mut x_new = vec![0.0; n];
        let r = cg(
            &Csr::from_triplets(&rt),
            &DiagonalPreconditioner::from_matrix(&rt),
            &l.row_perm.apply_to_vec(&b),
            &mut x_new,
            CgOptions { max_iters: 1000, rel_tol: 1e-12 },
            &bernoulli::ExecCtx::serial(),
        )
        .unwrap();
        assert!(r.converged, "{r:?}");
        let x = l.row_perm.unapply_to_vec(&x_new);
        let mut ax = vec![0.0; n];
        SparseMatrix::from_triplets(FormatKind::Csr, &t).spmv_acc(&x, &mut ax);
        let res = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res <= 1e-10 * norm_b, "dof {dof}: residual {res}");
    }
}
