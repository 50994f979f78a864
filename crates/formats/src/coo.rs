//! Coordinate (COO) storage: three parallel arrays of row indices,
//! column indices and values (Appendix A of the paper).
//!
//! COO has no usable index hierarchy — the relational view is
//! [`Orientation::Flat`]: an efficient whole-relation enumeration of
//! `⟨i, j, v⟩` tuples, unsorted, with only linear-scan random probes.
//! This is exactly the property record that steers the planner toward
//! flat-enumeration plans (scatter-style SpMV).

use crate::triplet::Triplets;
use bernoulli_analysis::diag::{codes, Diagnostic, Span};
use bernoulli_analysis::validate::{check_access_contract, check_bounds, meta_mismatch, Validate};
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;

/// Coordinate-format sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Coo {
    /// Build from triplets (canonicalised: duplicates summed, zeros
    /// dropped, row-major sorted — sortedness is *not* advertised to
    /// the planner, matching classical COO which makes no such promise).
    pub fn from_triplets(t: &Triplets) -> Self {
        let c = t.canonical_entries();
        let rows = c.iter().map(|e| e.0).collect();
        let cols = c.iter().map(|e| e.1).collect();
        let vals = c.iter().map(|e| e.2).collect();
        Coo { nrows: t.nrows(), ncols: t.ncols(), rows, cols, vals }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz());
        for k in 0..self.nnz() {
            t.push(self.rows[k], self.cols[k], self.vals[k]);
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

    /// The parallel index/value arrays.
    pub fn arrays(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.rows, &self.cols, &self.vals)
    }
}

impl MatrixAccess for Coo {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz(),
            orientation: Orientation::Flat,
            outer: LevelProps::enumerate_only(),
            inner: LevelProps::enumerate_only(),
            flat: LevelProps::sparse_unsorted(),
            pair_search_cheap: false,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new(std::iter::empty())
    }

    fn search_outer(&self, _index: usize) -> Option<OuterCursor> {
        None
    }

    fn enum_inner(&self, _outer: &OuterCursor) -> InnerIter<'_> {
        InnerIter::Empty
    }

    fn search_inner(&self, _outer: &OuterCursor, _index: usize) -> Option<f64> {
        None
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new((0..self.nnz()).map(move |k| (self.rows[k], self.cols[k], self.vals[k])))
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        (0..self.nnz())
            .find(|&k| self.rows[k] == i && self.cols[k] == j)
            .map(|k| self.vals[k])
    }
}

impl Validate for Coo {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        if self.rows.len() != self.vals.len() || self.cols.len() != self.vals.len() {
            d.push(meta_mismatch(
                "arrays",
                format!(
                    "parallel arrays disagree: {} rows, {} cols, {} values",
                    self.rows.len(),
                    self.cols.len(),
                    self.vals.len()
                ),
            ));
            return d;
        }
        d.extend(check_bounds("rows", &self.rows, self.nrows));
        d.extend(check_bounds("cols", &self.cols, self.ncols));
        // COO promises no order, but it does promise set semantics:
        // the same (i, j) stored twice is a corrupt relation.
        let mut seen: Vec<(usize, usize)> = self.rows.iter().copied().zip(self.cols.iter().copied()).collect();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                d.push(Diagnostic::error(
                    codes::FMT_DUPLICATE,
                    Span::Component { name: "arrays", at: None },
                    format!("duplicate tuple at ({}, {})", w[0].0, w[0].1),
                ));
                break;
            }
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

    fn sample() -> Coo {
        Coo::from_triplets(&Triplets::from_entries(
            3,
            3,
            &[(2, 0, 3.0), (0, 1, 1.0), (1, 2, 2.0), (0, 1, 1.0)],
        ))
    }

    #[test]
    fn builder_canonicalises() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.search_pair(0, 1), Some(2.0)); // duplicates summed
    }

    #[test]
    fn flat_enumeration_covers_all() {
        let m = sample();
        let mut tuples: Vec<_> = m.enum_flat().collect();
        tuples.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(tuples, vec![(0, 1, 2.0), (1, 2, 2.0), (2, 0, 3.0)]);
    }

    #[test]
    fn hierarchy_absent() {
        let m = sample();
        assert_eq!(m.meta().orientation, Orientation::Flat);
        assert_eq!(m.enum_outer().count(), 0);
        assert!(m.search_outer(0).is_none());
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let back = Coo::from_triplets(&m.to_triplets());
        assert_eq!(m, back);
    }

    #[test]
    fn pair_search_linear() {
        let m = sample();
        assert_eq!(m.search_pair(1, 2), Some(2.0));
        assert_eq!(m.search_pair(1, 1), None);
    }
}
