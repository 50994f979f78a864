//! The color/clique reordering and processor layout of Fig. 2(b).
//!
//! Rows are laid out color-major; within a color, each processor's
//! cliques are contiguous — so "each processor receives several blocks
//! of contiguous rows", one per color, which is exactly the
//! [`ContiguousRunsDist`] distribution relation with a small replicated
//! run table.

use crate::clique::CliquePartition;
use crate::color::{greedy_coloring, num_colors, validate_coloring};
use crate::graph::PointGraph;
use bernoulli_formats::Triplets;
use bernoulli_relational::permutation::Permutation;
use bernoulli_spmd::dist::{ContiguousRunsDist, Distribution};

/// The complete BlockSolve layout of a multi-DOF matrix.
pub struct BlockSolveLayout {
    pub dof: usize,
    pub nprocs: usize,
    pub num_colors: usize,
    pub cliques: CliquePartition,
    /// Color of each clique.
    pub colors: Vec<usize>,
    /// Processor owning each clique.
    pub clique_proc: Vec<usize>,
    /// Row permutation: `row_perm.forward(old_row) = new_row`.
    pub row_perm: Permutation,
    /// Distribution relation over the *new* row numbering.
    pub dist: ContiguousRunsDist,
    /// For each clique: `(new_row_start, num_rows)`.
    pub clique_ranges: Vec<(usize, usize)>,
    /// Clique id of each new row.
    pub clique_of_new_row: Vec<usize>,
}

/// Run the pipeline: point graph → cliques → contracted-graph coloring
/// → per-color processor assignment → reordering + distribution.
pub fn build_layout(
    t: &Triplets,
    dof: usize,
    nprocs: usize,
    max_clique_points: usize,
) -> BlockSolveLayout {
    let n = t.nrows();
    let g = PointGraph::from_matrix(t, dof);
    let cliques = CliquePartition::greedy(&g, max_clique_points);
    let contracted = cliques.contracted_graph(&g);
    let colors = greedy_coloring(&contracted);
    debug_assert!(validate_coloring(&contracted, &colors).is_ok());
    let ncolors = num_colors(&colors);

    // "Each color is divided among the processors": within each color,
    // cliques (in index order, which tracks the mesh's spatial order)
    // are split into `nprocs` contiguous chunks. Chunked — not
    // round-robin — assignment keeps spatially adjacent cliques on the
    // same processor, so the communication boundary stays a surface,
    // not the whole volume.
    let mut clique_proc = vec![0usize; cliques.num_cliques()];
    for color in 0..ncolors {
        let in_color: Vec<usize> =
            (0..cliques.num_cliques()).filter(|&c| colors[c] == color).collect();
        let m = in_color.len();
        for (k, &c) in in_color.iter().enumerate() {
            clique_proc[c] = (k * nprocs) / m.max(1);
        }
    }

    // Lay out rows color-major, processor-major within a color.
    let mut perm_fwd = vec![usize::MAX; n];
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    let mut clique_ranges = vec![(0usize, 0usize); cliques.num_cliques()];
    let mut clique_of_new_row = vec![0usize; n];
    let mut next = 0usize;
    for color in 0..ncolors {
        for p in 0..nprocs {
            let run_start = next;
            for (c, members) in cliques.cliques.iter().enumerate() {
                if colors[c] != color || clique_proc[c] != p {
                    continue;
                }
                let c_start = next;
                for &point in members {
                    for d in 0..dof {
                        perm_fwd[point * dof + d] = next;
                        clique_of_new_row[next] = c;
                        next += 1;
                    }
                }
                clique_ranges[c] = (c_start, next - c_start);
            }
            if next > run_start {
                runs.push((run_start, next - run_start, p));
            }
        }
    }
    assert_eq!(next, n, "reordering must cover every row");
    let row_perm = Permutation::from_forward(perm_fwd).expect("reordering is a bijection");
    let dist = ContiguousRunsDist::new(nprocs, runs);
    debug_assert!(dist.validate().is_ok());

    BlockSolveLayout {
        dof,
        nprocs,
        num_colors: ncolors,
        cliques,
        colors,
        clique_proc,
        row_perm,
        dist,
        clique_ranges,
        clique_of_new_row,
    }
}

impl BlockSolveLayout {
    /// Symmetrically permute a matrix into the new numbering.
    pub fn permute_matrix(&self, t: &Triplets) -> Triplets {
        let mut out = Triplets::with_capacity(t.nrows(), t.ncols(), t.len());
        for &(r, c, v) in t.canonical_entries().iter() {
            out.push(self.row_perm.forward(r), self.row_perm.forward(c), v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::fem_grid_2d;

    fn sample_layout(nprocs: usize) -> (Triplets, BlockSolveLayout) {
        let t = fem_grid_2d(4, 3, 3); // 12 points × 3 dof = 36 rows
        let l = build_layout(&t, 3, nprocs, 2);
        (t, l)
    }

    #[test]
    fn layout_covers_all_rows() {
        let (t, l) = sample_layout(3);
        assert_eq!(l.row_perm.len(), t.nrows());
        l.dist.validate().unwrap();
        assert_eq!(l.dist.len(), t.nrows());
        // Every processor owns something.
        for p in 0..3 {
            assert!(l.dist.local_len(p) > 0, "proc {p} owns no rows");
        }
    }

    #[test]
    fn cliques_are_contiguous_and_single_proc() {
        let (_, l) = sample_layout(3);
        for (c, &(start, len)) in l.clique_ranges.iter().enumerate() {
            assert_eq!(len, l.cliques.cliques[c].len() * l.dof);
            let owner = l.dist.owner(start).0;
            for r in start..start + len {
                assert_eq!(l.clique_of_new_row[r], c);
                assert_eq!(l.dist.owner(r).0, owner, "clique {c} split across procs");
            }
            assert_eq!(owner, l.clique_proc[c]);
        }
    }

    #[test]
    fn colors_ascend_with_new_rows() {
        let (_, l) = sample_layout(2);
        let mut last_color = 0;
        for r in 0..l.dist.len() {
            let c = l.colors[l.clique_of_new_row[r]];
            assert!(c >= last_color, "colors must be laid out ascending");
            last_color = c;
        }
        assert!(l.num_colors >= 2);
    }

    #[test]
    fn runs_bounded_by_colors_times_procs() {
        let (_, l) = sample_layout(3);
        assert!(l.dist.num_runs() <= l.num_colors * 3);
    }

    #[test]
    fn permute_roundtrip() {
        let (t, l) = sample_layout(2);
        let x: Vec<f64> = (0..t.nrows()).map(|i| i as f64).collect();
        let px = l.row_perm.apply_to_vec(&x);
        assert_eq!(l.row_perm.unapply_to_vec(&px), x);
        // Permuted matvec equals permuted reference.
        let pt = l.permute_matrix(&t);
        let mut py = vec![0.0; t.nrows()];
        pt.matvec_acc(&px, &mut py);
        let mut y = vec![0.0; t.nrows()];
        t.matvec_acc(&x, &mut y);
        for (a, b) in l.row_perm.unapply_to_vec(&py).iter().zip(&y) {
            assert!((a - b).abs() < 1e-10, "permuted matvec mismatch");
        }
    }

    #[test]
    fn single_processor_layout() {
        let (t, l) = sample_layout(1);
        assert_eq!(l.dist.local_len(0), t.nrows());
    }
}
