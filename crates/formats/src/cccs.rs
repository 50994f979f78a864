//! Compressed Compressed Column Storage (CCCS) — Fig. 1(c) of the paper.
//!
//! When a matrix has many zero columns, CCS wastes `COLP` slots on them.
//! CCCS adds another level of indirection — the `COLIND` array — to
//! compress the column dimension as well: only nonempty columns are
//! stored, `COLIND(q)` giving the global column index of stored column
//! `q`. Relationally the outer level becomes *sparse*: enumeration
//! yields only nonempty columns, and outer search is a binary search
//! over `COLIND` (cost class `Logarithmic` instead of `Constant`) —
//! precisely the property difference the planner keys on.

use crate::triplet::Triplets;
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_compressed, check_ptr, check_sorted_strict, meta_mismatch,
    Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::{LevelProps, SearchCost};

/// CCCS sparse matrix: CCS with the column dimension compressed too.
#[derive(Clone, Debug, PartialEq)]
pub struct Cccs {
    nrows: usize,
    ncols: usize,
    /// `COLIND`: global column index of each stored column (sorted).
    colind: Vec<usize>,
    /// `COLP`: pointers into `ROWIND`/`VALS`, length `colind.len() + 1`.
    colp: Vec<usize>,
    /// `ROWIND`: row indices, sorted within each stored column.
    rowind: Vec<usize>,
    /// `VALS`: the nonzero values.
    vals: Vec<f64>,
}

impl Cccs {
    pub fn from_triplets(t: &Triplets) -> Self {
        let entries = t.canonical_col_major();
        let mut colind: Vec<usize> = Vec::new();
        let mut colp: Vec<usize> = vec![0];
        let mut rowind = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        for &(r, c, v) in &entries {
            if colind.last() != Some(&c) {
                colind.push(c);
                colp.push(rowind.len());
            }
            rowind.push(r);
            vals.push(v);
            *colp.last_mut().expect("colp nonempty") = rowind.len();
        }
        Cccs { nrows: t.nrows(), ncols: t.ncols(), colind, colp, rowind, vals }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz());
        for (q, &j) in self.colind.iter().enumerate() {
            for k in self.colp[q]..self.colp[q + 1] {
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

    /// Number of stored (nonempty) columns.
    pub fn stored_cols(&self) -> usize {
        self.colind.len()
    }

    /// The `COLIND` array.
    pub fn colind(&self) -> &[usize] {
        &self.colind
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
}

impl MatrixAccess for Cccs {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz(),
            orientation: Orientation::ColMajor,
            outer: LevelProps::sparse_sorted().with_search(SearchCost::Logarithmic),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_unsorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new((0..self.colind.len()).map(move |q| OuterCursor {
            index: self.colind[q],
            a: self.colp[q],
            b: self.colp[q + 1],
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        self.colind.binary_search(&index).ok().map(|q| OuterCursor {
            index,
            a: self.colp[q],
            b: self.colp[q + 1],
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
        Box::new((0..self.colind.len()).flat_map(move |q| {
            (self.colp[q]..self.colp[q + 1])
                .map(move |k| (self.rowind[k], self.colind[q], self.vals[k]))
        }))
    }
}

impl Validate for Cccs {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = check_ptr("colp", &self.colp, self.colind.len() + 1, self.vals.len());
        if self.rowind.len() != self.vals.len() {
            d.push(meta_mismatch(
                "rowind",
                format!("{} row indices but {} values", self.rowind.len(), self.vals.len()),
            ));
        }
        d.extend(check_bounds("colind", &self.colind, self.ncols));
        d.extend(check_sorted_strict("colind", &self.colind, "stored columns"));
        if !d.is_empty() {
            return d;
        }
        d.extend(check_compressed("rowind", &self.colp, &self.rowind, self.nrows, "stored column"));
        if !d.is_empty() {
            return d;
        }
        check_access_contract(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccs::tests::fig1_matrix;
    use crate::ccs::Ccs;

    #[test]
    fn fig1_layout_compresses_columns() {
        let m = Cccs::from_triplets(&fig1_matrix());
        // Columns 2 and 4 are empty: only 4 stored columns remain.
        assert_eq!(m.colind(), &[0, 1, 3, 5]);
        assert_eq!(m.colp(), &[0, 2, 5, 7, 9]);
        assert_eq!(m.rowind(), &[0, 2, 1, 4, 5, 0, 3, 2, 5]);
        assert_eq!(m.stored_cols(), 4);
    }

    #[test]
    fn matches_ccs_content() {
        let t = fig1_matrix();
        let ccs = Ccs::from_triplets(&t);
        let cccs = Cccs::from_triplets(&t);
        assert_eq!(
            ccs.to_triplets().canonicalize(),
            cccs.to_triplets().canonicalize()
        );
        // Same VALS/ROWIND payload, shorter column structure.
        assert_eq!(ccs.vals(), cccs.vals());
        assert_eq!(ccs.rowind(), cccs.rowind());
        assert!(cccs.colp().len() < ccs.colp().len());
    }

    #[test]
    fn outer_enumeration_skips_empty_columns() {
        let m = Cccs::from_triplets(&fig1_matrix());
        let cols: Vec<usize> = m.enum_outer().map(|c| c.index).collect();
        assert_eq!(cols, vec![0, 1, 3, 5]);
        assert!(m.search_outer(2).is_none());
        assert!(m.search_outer(3).is_some());
    }

    #[test]
    fn outer_level_is_sparse_searchable() {
        let m = Cccs::from_triplets(&fig1_matrix());
        let meta = m.meta();
        assert!(!meta.outer.is_dense());
        assert_eq!(meta.outer.search, SearchCost::Logarithmic);
    }

    #[test]
    fn probes_and_flat() {
        let m = Cccs::from_triplets(&fig1_matrix());
        assert_eq!(m.search_pair(3, 3), Some(7.0));
        assert_eq!(m.search_pair(3, 2), None);
        assert_eq!(m.enum_flat().count(), 9);
    }

    #[test]
    fn roundtrip() {
        let t = fig1_matrix();
        let m = Cccs::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }
}
