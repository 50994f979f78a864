//! The point-adjacency graph underlying a multi-DOF FEM matrix.
//!
//! The paper's Fig. 2(a): each discretisation point carries `dof`
//! matrix rows (its degrees of freedom); two points are adjacent when
//! any of their rows couple. BlockSolve operates on this *contracted*
//! graph of points, not on individual matrix rows.

use bernoulli_formats::Triplets;

/// Undirected graph over discretisation points, CSR adjacency.
#[derive(Clone, Debug, PartialEq)]
pub struct PointGraph {
    nverts: usize,
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl PointGraph {
    /// Build from an edge list (self-loops ignored, duplicates merged).
    pub fn from_edges(nverts: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nverts];
        for &(a, b) in edges {
            assert!(a < nverts && b < nverts, "edge ({a},{b}) out of range");
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        let mut xadj = Vec::with_capacity(nverts + 1);
        let mut adjncy = Vec::new();
        xadj.push(0);
        for l in adj {
            adjncy.extend(l);
            xadj.push(adjncy.len());
        }
        PointGraph { nverts, xadj, adjncy }
    }

    /// Contract a matrix with `dof` rows per point to its point graph:
    /// points `p`, `q` are adjacent iff some entry couples a row of `p`
    /// with a column of `q`.
    pub fn from_matrix(t: &Triplets, dof: usize) -> Self {
        assert!(dof >= 1);
        assert_eq!(t.nrows() % dof, 0, "rows not a multiple of dof");
        assert_eq!(t.nrows(), t.ncols(), "point graphs need square matrices");
        let npoints = t.nrows() / dof;
        let edges: Vec<(usize, usize)> = t
            .canonical_entries()
            .iter()
            .map(|&(r, c, _)| (r / dof, c / dof))
            .filter(|&(p, q)| p != q)
            .collect();
        PointGraph::from_edges(npoints, &edges)
    }

    pub fn nverts(&self) -> usize {
        self.nverts
    }

    pub fn nedges(&self) -> usize {
        self.adjncy.len() / 2
    }

    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree (bounds the number of colors greedy coloring uses).
    pub fn max_degree(&self) -> usize {
        (0..self.nverts).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::fem_grid_2d;

    #[test]
    fn from_edges_basics() {
        let g = PointGraph::from_edges(4, &[(0, 1), (1, 2), (1, 2), (2, 2), (3, 0)]);
        assert_eq!(g.nverts(), 4);
        assert_eq!(g.nedges(), 3); // dup merged, self-loop dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.are_adjacent(0, 3));
        assert!(!g.are_adjacent(0, 2));
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn grid_matrix_contracts_to_grid_graph() {
        // 3×2 grid, 3 DOF → 6 points with 5-point adjacency.
        let t = fem_grid_2d(3, 2, 3);
        let g = PointGraph::from_matrix(&t, 3);
        assert_eq!(g.nverts(), 6);
        // Point 0 (corner) touches points 1 and 3.
        assert_eq!(g.neighbors(0), &[1, 3]);
        // Point 1 (edge) touches 0, 2, 4.
        assert_eq!(g.neighbors(1), &[0, 2, 4]);
        assert_eq!(g.nedges(), 7); // 4 horizontal + 3 vertical
    }

    #[test]
    fn dof_one_is_row_graph() {
        let t = fem_grid_2d(2, 2, 1);
        let g = PointGraph::from_matrix(&t, 1);
        assert_eq!(g.nverts(), 4);
        assert_eq!(g.nedges(), 4);
    }

    #[test]
    #[should_panic]
    fn dof_must_divide_rows() {
        let t = Triplets::from_entries(5, 5, &[(0, 0, 1.0)]);
        PointGraph::from_matrix(&t, 2);
    }
}
