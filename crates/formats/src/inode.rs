//! I-node ("identical nodes") storage — Fig. 2(c) of the paper.
//!
//! Stiffness matrices from multi-component finite-element models have
//! groups of (consecutive) rows with *identical column structure*: one
//! group per discretisation point, one row per degree of freedom. An
//! i-node stores the shared column-index list once and gathers the
//! groups' values into a small **dense** block, cutting index-array
//! overhead and letting the matvec kernel run dense inner loops — the
//! same idea the BlockSolve library builds on.
//!
//! Detection here is structural: consecutive rows with equal column
//! lists are grouped (the paper's matrices get their i-nodes from the
//! mesh numbering, which our grid generators reproduce).
//!
//! The same structure also exists as a *description* of a matrix already
//! held in CRS: an [`InodePartition`] names the row groups and the CRS
//! arrays are used in place (rows of a group have equal length and are
//! adjacent, so their `vals` already form the dense block). The SPMD
//! executors run their local products that way
//! ([`crate::kernels::spmv_csr_inodes`]).

use crate::csr::Csr;
use crate::triplet::Triplets;
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_sorted_strict, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;

/// One i-node: `rows` consecutive rows starting at `first_row`, all
/// with column structure `cols`, values stored as a dense
/// `rows × cols.len()` row-major block.
#[derive(Clone, Debug, PartialEq)]
pub struct Inode {
    pub first_row: usize,
    pub rows: usize,
    pub cols: Vec<usize>,
    /// Dense block, row-major: `vals[r * cols.len() + k]` is the value
    /// at `(first_row + r, cols[k])`.
    pub vals: Vec<f64>,
}

/// I-node sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct InodeMatrix {
    nrows: usize,
    ncols: usize,
    inodes: Vec<Inode>,
    /// `row_inode[r]` = index of the i-node containing row `r`.
    row_inode: Vec<usize>,
    /// Stored nonzeros (block slots that are structurally present; a
    /// block slot may hold numeric zero if one row of the group lacks
    /// the entry — that is the format's padding cost).
    nnz_stored: usize,
}

/// Most rows in one group of an [`InodePartition`]: the row-group body
/// keeps one accumulator per row, and eight still sit in registers.
pub const MAX_GROUP_ROWS: usize = 8;

/// The i-node level of a CRS matrix, over its arrays in place: maximal
/// runs (up to [`MAX_GROUP_ROWS`]) of consecutive rows with identical
/// column slices, one byte per group and no copy of the matrix. Found
/// by one O(nnz) pass of slice comparisons in [`InodePartition::of`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InodePartition {
    /// Rows per group, in row order; the sizes sum to `nrows`.
    sizes: Vec<u8>,
    nrows: usize,
    /// Stored entries of the matrix partitioned. With `nrows`, the O(1)
    /// check the body makes that it was handed the same matrix.
    nnz: usize,
}

impl InodePartition {
    /// Partition the rows of `a`.
    pub fn of(a: &Csr) -> Self {
        let nrows = a.nrows();
        let mut sizes = Vec::new();
        let mut first = 0;
        while first < nrows {
            let cols = a.row_cols(first);
            let mut rows = 1;
            while rows < MAX_GROUP_ROWS
                && first + rows < nrows
                && a.row_cols(first + rows) == cols
            {
                rows += 1;
            }
            sizes.push(rows as u8);
            first += rows;
        }
        InodePartition { sizes, nrows, nnz: a.nnz() }
    }

    /// The groups as row ranges, ascending.
    pub fn groups(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.sizes.iter().scan(0usize, |first, &rows| {
            let lo = *first;
            *first += usize::from(rows);
            Some(lo..*first)
        })
    }

    /// Whether this partition was built from a matrix of `a`'s shape
    /// and entry count.
    pub fn fits(&self, a: &Csr) -> bool {
        self.nrows == a.nrows() && self.nnz == a.nnz()
    }
}

impl InodeMatrix {
    /// Build with unbounded i-node size.
    pub fn from_triplets(t: &Triplets) -> Self {
        Self::from_triplets_max(t, usize::MAX)
    }

    /// Build, capping each i-node at `max_rows` rows (the BlockSolve
    /// library caps groups at the number of degrees of freedom).
    pub fn from_triplets_max(t: &Triplets, max_rows: usize) -> Self {
        assert!(max_rows >= 1);
        let c = t.canonicalize();
        let nrows = t.nrows();
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); nrows];
        let mut row_vals: Vec<Vec<f64>> = vec![Vec::new(); nrows];
        for &(r, cc, v) in c.entries() {
            row_cols[r].push(cc);
            row_vals[r].push(v);
        }
        let mut inodes: Vec<Inode> = Vec::new();
        let mut row_inode = vec![0usize; nrows];
        let mut r = 0;
        while r < nrows {
            let mut rows = 1;
            while r + rows < nrows && rows < max_rows && row_cols[r + rows] == row_cols[r] {
                rows += 1;
            }
            let cols = row_cols[r].clone();
            let mut vals = Vec::with_capacity(rows * cols.len());
            for rr in 0..rows {
                vals.extend_from_slice(&row_vals[r + rr]);
            }
            for rr in 0..rows {
                row_inode[r + rr] = inodes.len();
            }
            inodes.push(Inode { first_row: r, rows, cols, vals });
            r += rows;
        }
        let nnz_stored = inodes.iter().map(|g| g.vals.len()).sum();
        InodeMatrix { nrows, ncols: t.ncols(), inodes, row_inode, nnz_stored }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz_stored);
        for g in &self.inodes {
            let w = g.cols.len();
            for r in 0..g.rows {
                for (k, &c) in g.cols.iter().enumerate() {
                    let v = g.vals[r * w + k];
                    if v != 0.0 {
                        t.push(g.first_row + r, c, v);
                    }
                }
            }
        }
        t
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored slots (structural entries; includes any numeric zeros
    /// shared into a group's dense block).
    pub fn nnz(&self) -> usize {
        self.nnz_stored
    }

    pub fn num_inodes(&self) -> usize {
        self.inodes.len()
    }

    pub fn inodes(&self) -> &[Inode] {
        &self.inodes
    }

    /// Average rows per i-node — the "i-node richness" statistic that
    /// predicts when this format wins Table 1 columns.
    pub fn avg_inode_rows(&self) -> f64 {
        if self.inodes.is_empty() {
            0.0
        } else {
            self.nrows as f64 / self.inodes.len() as f64
        }
    }

    fn inode_of_row(&self, r: usize) -> &Inode {
        &self.inodes[self.row_inode[r]]
    }
}

impl MatrixAccess for InodeMatrix {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz_stored,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        // OuterCursor.a = i-node index, .b = row offset within it.
        Box::new(self.inodes.iter().enumerate().flat_map(|(gi, g)| {
            (0..g.rows).map(move |rr| OuterCursor { index: g.first_row + rr, a: gi, b: rr })
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        if index >= self.nrows {
            return None;
        }
        let gi = self.row_inode[index];
        let g = &self.inodes[gi];
        Some(OuterCursor { index, a: gi, b: index - g.first_row })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        let g = &self.inodes[outer.a];
        let w = g.cols.len();
        InnerIter::Pairs {
            idx: &g.cols,
            vals: &g.vals[outer.b * w..(outer.b + 1) * w],
            pos: 0,
        }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        let g = &self.inodes[outer.a];
        let w = g.cols.len();
        g.cols.binary_search(&index).ok().map(|k| g.vals[outer.b * w + k])
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new(self.inodes.iter().flat_map(|g| {
            let w = g.cols.len();
            (0..g.rows).flat_map(move |rr| {
                g.cols
                    .iter()
                    .enumerate()
                    .map(move |(k, &c)| (g.first_row + rr, c, g.vals[rr * w + k]))
            })
        }))
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.nrows {
            return None;
        }
        let g = self.inode_of_row(i);
        let w = g.cols.len();
        g.cols.binary_search(&j).ok().map(|k| g.vals[(i - g.first_row) * w + k])
    }
}

impl Validate for InodeMatrix {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        if self.row_inode.len() != self.nrows {
            d.push(meta_mismatch(
                "row_inode",
                format!("{} row slots for {} rows", self.row_inode.len(), self.nrows),
            ));
            return d;
        }
        let mut expect_row = 0usize;
        for (gi, g) in self.inodes.iter().enumerate() {
            if g.first_row != expect_row || g.rows == 0 || g.first_row + g.rows > self.nrows {
                d.push(meta_mismatch(
                    "inodes",
                    format!(
                        "i-node {gi} spans rows {}..{} but the previous one ended at {expect_row}",
                        g.first_row,
                        g.first_row + g.rows
                    ),
                ));
                return d;
            }
            if g.vals.len() != g.rows * g.cols.len() {
                d.push(meta_mismatch(
                    "inodes",
                    format!(
                        "i-node {gi} has {} value slots for a {}x{} block",
                        g.vals.len(),
                        g.rows,
                        g.cols.len()
                    ),
                ));
            }
            d.extend(check_bounds("cols", &g.cols, self.ncols));
            d.extend(check_sorted_strict("cols", &g.cols, &format!("i-node {gi}")));
            for rr in 0..g.rows {
                if self.row_inode[g.first_row + rr] != gi {
                    d.push(meta_mismatch(
                        "row_inode",
                        format!("row {} does not map back to i-node {gi}", g.first_row + rr),
                    ));
                }
            }
            expect_row += g.rows;
        }
        if expect_row != self.nrows {
            d.push(meta_mismatch(
                "inodes",
                format!("i-nodes cover {expect_row} rows of {}", self.nrows),
            ));
        }
        let true_stored: usize = self.inodes.iter().map(|g| g.vals.len()).sum();
        if self.nnz_stored != true_stored {
            d.push(meta_mismatch(
                "nnz",
                format!("declared {} stored slots but the blocks hold {true_stored}", self.nnz_stored),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        check_access_contract(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two discretisation points with 2 DOFs each: rows {0,1} share the
    /// column set {0,1,2}, rows {2,3} share {1,2,3}.
    fn sample() -> Triplets {
        let mut t = Triplets::new(4, 4);
        for r in 0..2 {
            for (k, c) in [0, 1, 2].iter().enumerate() {
                t.push(r, *c, (r * 3 + k + 1) as f64);
            }
        }
        for r in 2..4 {
            for (k, c) in [1, 2, 3].iter().enumerate() {
                t.push(r, *c, (r * 3 + k + 1) as f64);
            }
        }
        t
    }

    #[test]
    fn detects_identical_rows() {
        let m = InodeMatrix::from_triplets(&sample());
        assert_eq!(m.num_inodes(), 2);
        assert_eq!(m.inodes()[0].rows, 2);
        assert_eq!(m.inodes()[0].cols, vec![0, 1, 2]);
        assert_eq!(m.inodes()[1].first_row, 2);
        assert!((m.avg_inode_rows() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_block_layout() {
        let m = InodeMatrix::from_triplets(&sample());
        let g = &m.inodes()[0];
        // Row 0 values then row 1 values, contiguous.
        assert_eq!(g.vals, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn max_rows_cap() {
        let m = InodeMatrix::from_triplets_max(&sample(), 1);
        assert_eq!(m.num_inodes(), 4);
        assert_eq!(m.to_triplets().canonicalize(), sample().canonicalize());
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let m = InodeMatrix::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn access_paths() {
        let m = InodeMatrix::from_triplets(&sample());
        assert_eq!(m.search_pair(1, 2), Some(6.0));
        assert_eq!(m.search_pair(1, 3), None);
        let c = m.search_outer(3).unwrap();
        assert_eq!(m.enum_inner(&c).collect::<Vec<_>>(), vec![(1, 10.0), (2, 11.0), (3, 12.0)]);
        assert_eq!(m.search_inner(&c, 3), Some(12.0));
        // Hierarchical and flat views agree.
        let mut hier = Vec::new();
        for c in m.enum_outer() {
            for (j, v) in m.enum_inner(&c) {
                hier.push((c.index, j, v));
            }
        }
        assert_eq!(hier, m.enum_flat().collect::<Vec<_>>());
    }

    #[test]
    fn distinct_rows_become_singletons() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let m = InodeMatrix::from_triplets(&t);
        assert_eq!(m.num_inodes(), 3);
        assert!((m.avg_inode_rows() - 1.0).abs() < 1e-12);
    }
}
