//! Compressed Column Storage (CCS) — Fig. 1(b) of the paper.
//!
//! The matrix is compressed along columns and stored in three arrays:
//! `COLP`, `VALS` and `ROWIND`. The nonzero values of column `j` live in
//! `VALS[COLP(j) .. COLP(j+1)]` with their row indices in the matching
//! positions of `ROWIND`. The relational view is the hierarchy
//! `J ≻ (I, V)` (§2.1): for a given column index we can access the set
//! of `⟨row, value⟩` tuples — CCS provides *no* way of enumerating row
//! indices without first fixing a column, and the planner respects that.

use crate::triplet::Triplets;
use bernoulli_analysis::validate::{
    check_access_contract, check_compressed, check_ptr, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;

/// CCS sparse matrix (column-major compressed).
#[derive(Clone, Debug, PartialEq)]
pub struct Ccs {
    nrows: usize,
    ncols: usize,
    /// `COLP`: column pointers, length `ncols + 1`.
    colp: Vec<usize>,
    /// `ROWIND`: row indices, sorted within each column.
    rowind: Vec<usize>,
    /// `VALS`: the nonzero values.
    vals: Vec<f64>,
}

impl Ccs {
    pub fn from_triplets(t: &Triplets) -> Self {
        let entries = t.canonical_col_major();
        let ncols = t.ncols();
        let mut colp = vec![0usize; ncols + 1];
        for &(_, c, _) in &entries {
            colp[c + 1] += 1;
        }
        for j in 0..ncols {
            colp[j + 1] += colp[j];
        }
        let mut rowind = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        for &(r, _, v) in &entries {
            rowind.push(r);
            vals.push(v);
        }
        Ccs { nrows: t.nrows(), ncols, colp, rowind, vals }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz());
        for j in 0..self.ncols {
            for k in self.colp[j]..self.colp[j + 1] {
                t.push(self.rowind[k], j, self.vals[k]);
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

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The `COLP` array.
    pub fn colp(&self) -> &[usize] {
        &self.colp
    }

    /// The `ROWIND` array.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// The `VALS` array.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Number of entirely empty columns (motivates CCCS, Fig. 1(c)).
    pub fn empty_cols(&self) -> usize {
        (0..self.ncols).filter(|&j| self.colp[j] == self.colp[j + 1]).count()
    }
}

impl MatrixAccess for Ccs {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz(),
            orientation: Orientation::ColMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_unsorted(), // column-major tuple order
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new((0..self.ncols).map(move |j| OuterCursor {
            index: j,
            a: self.colp[j],
            b: self.colp[j + 1],
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.ncols).then(|| OuterCursor {
            index,
            a: self.colp[index],
            b: self.colp[index + 1],
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        InnerIter::Pairs {
            idx: &self.rowind[outer.a..outer.b],
            vals: &self.vals[outer.a..outer.b],
            pos: 0,
        }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        self.rowind[outer.a..outer.b]
            .binary_search(&index)
            .ok()
            .map(|k| self.vals[outer.a + k])
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new((0..self.ncols).flat_map(move |j| {
            (self.colp[j]..self.colp[j + 1]).map(move |k| (self.rowind[k], j, self.vals[k]))
        }))
    }
}

impl Validate for Ccs {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = check_ptr("colp", &self.colp, self.ncols + 1, self.vals.len());
        if self.rowind.len() != self.vals.len() {
            d.push(meta_mismatch(
                "rowind",
                format!("{} row indices but {} values", self.rowind.len(), self.vals.len()),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_compressed("rowind", &self.colp, &self.rowind, self.nrows, "column"));
        if !d.is_empty() {
            return d;
        }
        check_access_contract(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A 6×6 matrix in the spirit of the paper's Fig. 1 example,
    /// including zero columns (columns 2 and 4 are empty) so that the
    /// CCS → CCCS comparison is meaningful.
    pub(crate) fn fig1_matrix() -> Triplets {
        Triplets::from_entries(
            6,
            6,
            &[
                (0, 0, 1.0),
                (2, 0, 2.0),
                (1, 1, 3.0),
                (4, 1, 4.0),
                (5, 1, 5.0),
                (0, 3, 6.0),
                (3, 3, 7.0),
                (2, 5, 8.0),
                (5, 5, 9.0),
            ],
        )
    }

    #[test]
    fn fig1_layout() {
        let m = Ccs::from_triplets(&fig1_matrix());
        // Column extents: col0 has 2, col1 has 3, col2 none, col3 two,
        // col4 none, col5 two.
        assert_eq!(m.colp(), &[0, 2, 5, 5, 7, 7, 9]);
        assert_eq!(m.rowind(), &[0, 2, 1, 4, 5, 0, 3, 2, 5]);
        assert_eq!(m.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(m.empty_cols(), 2);
    }

    #[test]
    fn roundtrip() {
        let t = fig1_matrix();
        let m = Ccs::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn hierarchy_is_col_major() {
        let m = Ccs::from_triplets(&fig1_matrix());
        assert_eq!(m.meta().orientation, Orientation::ColMajor);
        let c = m.search_outer(3).unwrap();
        assert_eq!(m.enum_inner(&c).collect::<Vec<_>>(), vec![(0, 6.0), (3, 7.0)]);
        assert_eq!(m.search_inner(&c, 3), Some(7.0));
        assert_eq!(m.search_inner(&c, 1), None);
    }

    #[test]
    fn flat_covers_everything() {
        let m = Ccs::from_triplets(&fig1_matrix());
        assert_eq!(m.enum_flat().count(), 9);
        assert_eq!(m.search_pair(4, 1), Some(4.0));
        assert_eq!(m.search_pair(4, 2), None);
    }
}
