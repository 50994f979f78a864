//! I-node ("identical nodes") storage — Fig. 2(c) of the paper.
//!
//! Stiffness matrices from multi-component finite-element models have
//! groups of (consecutive) rows with *identical column structure*: one
//! group per discretisation point, one row per degree of freedom. An
//! i-node stores the shared column-index list once and gathers the
//! group's values into a small **dense** block, cutting index-array
//! overhead and letting the matvec kernel run dense inner loops — the
//! same idea the BlockSolve library builds on.
//!
//! Detection is structural: maximal runs of consecutive rows with equal
//! column lists form the groups (the paper's matrices get their i-nodes
//! from the mesh numbering, which our grid generators reproduce).
//!
//! The storage is flat: every group's column list sits in one array and
//! every group's values in another, each block **interleaved** by row —
//! `vals[k·h + r]` is row `r`'s value in column `cols[k]` of a group of
//! height `h`. That is the order the product streams: for each shared
//! column the group's rows read adjacent slots, so the kernel loads one
//! column index and one `x` value per column and vectorises across rows
//! ([`crate::kernels`]' group body). A CRS matrix's own arrays hold the
//! same numbers row-major with a column index per entry; reading them
//! in place forgoes both halves of that, which is why the SPMD
//! executors and BlockSolve's `A_SL` build this copy once, O(nnz), from
//! their CRS part ([`InodeMatrix::of`]) and multiply on it.

use crate::csr::Csr;
use crate::triplet::Triplets;
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_ptr, check_sorted_strict, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;

/// Most rows the group body multiplies at once: it keeps one
/// accumulator per row, and eight still sit in registers. A taller
/// group is processed eight rows at a time.
pub const MAX_GROUP_ROWS: usize = 8;

/// One i-node, borrowed from its [`InodeMatrix`]: `rows` consecutive
/// rows starting at `first_row`, all with column structure `cols`,
/// values interleaved by row — `vals[k * rows + r]` is the value at
/// `(first_row + r, cols[k])`.
#[derive(Clone, Copy, Debug)]
pub struct Inode<'a> {
    pub first_row: usize,
    pub rows: usize,
    pub cols: &'a [usize],
    pub vals: &'a [f64],
}

impl Inode<'_> {
    /// Row `r` of the group in column `cols[k]`.
    pub fn at(&self, r: usize, k: usize) -> f64 {
        self.vals[k * self.rows + r]
    }
}

/// I-node sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct InodeMatrix {
    nrows: usize,
    ncols: usize,
    /// Group `g` holds rows `row_start[g]..row_start[g + 1]`.
    row_start: Vec<usize>,
    /// Group `g`'s column list is `cols[col_start[g]..col_start[g + 1]]`.
    col_start: Vec<usize>,
    cols: Vec<usize>,
    /// Group `g`'s interleaved block is `vals[val_start[g]..val_start[g + 1]]`.
    val_start: Vec<usize>,
    vals: Vec<f64>,
}

impl InodeMatrix {
    /// Build from triplets (canonicalised), grouping maximal runs.
    pub fn from_triplets(t: &Triplets) -> Self {
        Self::of(&Csr::from_triplets(t))
    }

    /// The i-node storage of `a`: maximal runs of consecutive rows with
    /// identical column slices form the groups, found by one O(nnz)
    /// pass of slice comparisons. Every stored entry is copied bit for
    /// bit, so a product on the copy is [`crate::kernels::spmv_csr`]'s
    /// on `a`.
    pub fn of(a: &Csr) -> Self {
        let nrows = a.nrows();
        let (mut row_start, mut col_start, mut val_start) = (vec![0], vec![0], vec![0]);
        let mut cols = Vec::new();
        let mut vals = vec![0.0; a.nnz()];
        let mut first = 0;
        while first < nrows {
            let list = a.row_cols(first);
            let mut end = first + 1;
            while end < nrows && a.row_cols(end) == list {
                end += 1;
            }
            let (h, base) = (end - first, *val_start.last().expect("val_start opens at 0"));
            for r in 0..h {
                for (k, &v) in a.row_vals(first + r).iter().enumerate() {
                    vals[base + k * h + r] = v;
                }
            }
            cols.extend_from_slice(list);
            row_start.push(end);
            col_start.push(cols.len());
            val_start.push(base + h * list.len());
            first = end;
        }
        InodeMatrix { nrows, ncols: a.ncols(), row_start, col_start, cols, val_start, vals }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.vals.len());
        for (i, j, v) in self.enum_flat() {
            t.push(i, j, v);
        }
        t
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    pub fn num_inodes(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Group `g`.
    #[inline]
    pub fn inode(&self, g: usize) -> Inode<'_> {
        Inode {
            first_row: self.row_start[g],
            rows: self.row_start[g + 1] - self.row_start[g],
            cols: &self.cols[self.col_start[g]..self.col_start[g + 1]],
            vals: &self.vals[self.val_start[g]..self.val_start[g + 1]],
        }
    }

    /// The groups, in row order.
    pub fn inodes(&self) -> impl Iterator<Item = Inode<'_>> + '_ {
        (0..self.num_inodes()).map(|g| self.inode(g))
    }

    /// The group holding row `r < nrows`.
    #[inline]
    pub(crate) fn inode_of_row(&self, r: usize) -> usize {
        self.row_start.partition_point(|&s| s <= r) - 1
    }

    /// Average rows per i-node — the "i-node richness" statistic that
    /// predicts when this format wins Table 1 columns.
    pub fn avg_inode_rows(&self) -> f64 {
        match self.num_inodes() {
            0 => 0.0,
            groups => self.nrows as f64 / groups as f64,
        }
    }
}

impl MatrixAccess for InodeMatrix {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.vals.len(),
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        // OuterCursor.a = i-node index, .b = row offset within it.
        Box::new(self.inodes().enumerate().flat_map(|(gi, g)| {
            (0..g.rows).map(move |b| OuterCursor { index: g.first_row + b, a: gi, b })
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        if index >= self.nrows {
            return None;
        }
        let a = self.inode_of_row(index);
        Some(OuterCursor { index, a, b: index - self.row_start[a] })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        let g = self.inode(outer.a);
        if g.cols.is_empty() {
            return InnerIter::Empty;
        }
        InnerIter::Strided {
            idx: g.cols,
            idx_stride: 1,
            vals: &g.vals[outer.b..],
            val_stride: g.rows,
            count: g.cols.len(),
            pos: 0,
        }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        let g = self.inode(outer.a);
        g.cols.binary_search(&index).ok().map(|k| g.at(outer.b, k))
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        let none = Inode { first_row: 0, rows: 0, cols: &[], vals: &[] };
        Box::new(Flat { m: self, g: none, next_group: 0, r: 0, k: 0 })
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        let c = self.search_outer(i)?;
        self.search_inner(&c, j)
    }
}

/// The flat view, row by row: slot `k` of row `r` of group `g`, then
/// the next slot, row, group. (One cursor, not nested `flat_map`s: the
/// structure key of a non-CRS operand walks this view.)
struct Flat<'a> {
    m: &'a InodeMatrix,
    g: Inode<'a>,
    next_group: usize,
    r: usize,
    k: usize,
}

impl Iterator for Flat<'_> {
    type Item = (usize, usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize, f64)> {
        while self.k == self.g.cols.len() {
            self.k = 0;
            self.r += 1;
            if self.r >= self.g.rows {
                if self.next_group == self.m.num_inodes() {
                    return None;
                }
                self.g = self.m.inode(self.next_group);
                self.next_group += 1;
                self.r = 0;
            }
        }
        let k = self.k;
        self.k += 1;
        Some((self.g.first_row + self.r, self.g.cols[k], self.g.at(self.r, k)))
    }
}

impl Validate for InodeMatrix {
    fn validate(&self) -> Vec<Diagnostic> {
        let groups = self.row_start.len().saturating_sub(1);
        let mut d = check_ptr("row_start", &self.row_start, groups + 1, self.nrows);
        d.extend(check_ptr("col_start", &self.col_start, groups + 1, self.cols.len()));
        d.extend(check_ptr("val_start", &self.val_start, groups + 1, self.vals.len()));
        if !d.is_empty() {
            return d;
        }
        for g in 0..groups {
            let (h, w) = (
                self.row_start[g + 1] - self.row_start[g],
                self.col_start[g + 1] - self.col_start[g],
            );
            if h == 0 {
                d.push(meta_mismatch("row_start", format!("i-node {g} has no rows")));
            }
            if self.val_start[g + 1] - self.val_start[g] != h * w {
                d.push(meta_mismatch(
                    "val_start",
                    format!(
                        "i-node {g} has {} value slots for a {h}x{w} block",
                        self.val_start[g + 1] - self.val_start[g]
                    ),
                ));
            }
            let list = &self.cols[self.col_start[g]..self.col_start[g + 1]];
            d.extend(check_sorted_strict("cols", list, format_args!("i-node {g}")));
        }
        d.extend(check_bounds("cols", &self.cols, self.ncols));
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
        assert_eq!(m.inode(0).rows, 2);
        assert_eq!(m.inode(0).cols, &[0, 1, 2]);
        assert_eq!(m.inode(1).first_row, 2);
        assert!((m.avg_inode_rows() - 2.0).abs() < 1e-12);
        assert!(m.validate().is_empty());
    }

    #[test]
    fn dense_block_is_interleaved_by_row() {
        let m = InodeMatrix::from_triplets(&sample());
        // Row 0 is 1 2 3 and row 1 is 4 5 6: column by column, the
        // group's two rows sit side by side.
        assert_eq!(m.inode(0).vals, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(m.inode(0).at(1, 2), 6.0);
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
        assert_eq!(m.search_pair(4, 0), None);
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
    fn flat_view_walks_past_empty_groups() {
        // Rows 0, 2 and 3 are empty; rows 2..4 form one empty group.
        let t = Triplets::from_entries(5, 3, &[(1, 0, 1.0), (1, 2, 2.0), (4, 1, 3.0)]);
        let m = InodeMatrix::from_triplets(&t);
        assert_eq!(m.num_inodes(), 4);
        assert_eq!(m.enum_flat().collect::<Vec<_>>(), t.canonicalize().entries());
        assert!(InodeMatrix::from_triplets(&Triplets::new(0, 2)).enum_flat().next().is_none());
        assert!(m.validate().is_empty());
    }

    #[test]
    fn distinct_rows_become_singletons() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let m = InodeMatrix::from_triplets(&t);
        assert_eq!(m.num_inodes(), 3);
        assert!((m.avg_inode_rows() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_a_short_block() {
        let mut m = InodeMatrix::from_triplets(&sample());
        m.vals.pop();
        *m.val_start.last_mut().unwrap() -= 1;
        assert!(!m.validate().is_empty());
    }
}
