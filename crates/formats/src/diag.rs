//! Sparse Diagonal storage.
//!
//! Appendix A of the paper: "a variant on banded storage: it stores an
//! arbitrary set of diagonals. Instead of storing an entire diagonal
//! only the entries between the first and last non-zero are stored.
//! This is basically Skyline storage re-oriented along the diagonals."
//!
//! Each stored diagonal is identified by its offset `d = j - i` and
//! keeps a contiguous run of values (which may include explicit zeros
//! between the first and last nonzero — that is the format's space/time
//! trade-off, reflected faithfully here). The relational view is
//! [`Orientation::Flat`]: diagonal-major enumeration of `⟨i, j, v⟩`
//! tuples, with cheap pair probes (binary search over offsets, then
//! direct indexing).

use crate::triplet::Triplets;
use bernoulli_analysis::diag::{codes, Diagnostic, Span};
use bernoulli_analysis::validate::{check_access_contract, meta_mismatch, Validate};
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;
use std::collections::BTreeMap;

/// One stored diagonal: offset `d = j - i`, values for rows
/// `first_row ..= last stored row` along that diagonal.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredDiagonal {
    pub offset: isize,
    pub first_row: usize,
    pub vals: Vec<f64>,
}

/// Diagonal-format sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagonalMatrix {
    nrows: usize,
    ncols: usize,
    /// Sorted by offset.
    diags: Vec<StoredDiagonal>,
    /// Stored nonzero count (explicit padding zeros excluded).
    nnz: usize,
}

impl DiagonalMatrix {
    pub fn from_triplets(t: &Triplets) -> Self {
        // Group by offset, tracking first/last row per diagonal.
        let mut by_off: BTreeMap<isize, Vec<(usize, f64)>> = BTreeMap::new();
        for &(r, cc, v) in t.canonical_entries().iter() {
            by_off.entry(cc as isize - r as isize).or_default().push((r, v));
        }
        let mut diags = Vec::with_capacity(by_off.len());
        let mut nnz = 0usize;
        for (offset, mut rv) in by_off {
            rv.sort_by_key(|&(r, _)| r);
            let first_row = rv[0].0;
            let last_row = rv[rv.len() - 1].0;
            let mut vals = vec![0.0; last_row - first_row + 1];
            for (r, v) in rv {
                vals[r - first_row] = v;
                nnz += 1;
            }
            diags.push(StoredDiagonal { offset, first_row, vals });
        }
        DiagonalMatrix { nrows: t.nrows(), ncols: t.ncols(), diags, nnz }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz);
        for d in &self.diags {
            for (k, &v) in d.vals.iter().enumerate() {
                if v != 0.0 {
                    let i = d.first_row + k;
                    let j = (i as isize + d.offset) as usize;
                    t.push(i, j, v);
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

    /// Stored nonzeros (padding zeros inside a diagonal run excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored diagonals.
    pub fn num_diagonals(&self) -> usize {
        self.diags.len()
    }

    /// Total stored slots including run padding — the format's real
    /// memory footprint.
    pub fn stored_len(&self) -> usize {
        self.diags.iter().map(|d| d.vals.len()).sum()
    }

    pub fn diagonals(&self) -> &[StoredDiagonal] {
        &self.diags
    }
}

impl MatrixAccess for DiagonalMatrix {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz,
            orientation: Orientation::Flat,
            outer: LevelProps::enumerate_only(),
            inner: LevelProps::enumerate_only(),
            flat: LevelProps::sparse_unsorted(), // diagonal-major order
            pair_search_cheap: true,
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
        Box::new(self.diags.iter().flat_map(move |d| {
            d.vals.iter().enumerate().filter_map(move |(k, &v)| {
                if v != 0.0 {
                    let i = d.first_row + k;
                    Some((i, (i as isize + d.offset) as usize, v))
                } else {
                    None
                }
            })
        }))
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.nrows || j >= self.ncols {
            return None;
        }
        let off = j as isize - i as isize;
        let q = self.diags.binary_search_by_key(&off, |d| d.offset).ok()?;
        let d = &self.diags[q];
        if i < d.first_row {
            return None;
        }
        let v = *d.vals.get(i - d.first_row)?;
        (v != 0.0).then_some(v)
    }
}

impl Validate for DiagonalMatrix {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        let mut last_off: Option<isize> = None;
        let mut true_nnz = 0usize;
        for (q, sd) in self.diags.iter().enumerate() {
            let at = || Span::Component { name: "diags", at: Some(q) };
            if let Some(lo) = last_off {
                if sd.offset == lo {
                    d.push(Diagnostic::error(
                        codes::FMT_DUPLICATE,
                        at(),
                        format!("offset {} stored twice", sd.offset),
                    ));
                } else if sd.offset < lo {
                    d.push(Diagnostic::error(
                        codes::FMT_UNSORTED,
                        at(),
                        format!("offset {} after {lo}", sd.offset),
                    ));
                }
            }
            last_off = Some(sd.offset);
            if !sd.vals.is_empty() {
                let last_row = sd.first_row + sd.vals.len() - 1;
                let first_col = sd.first_row as isize + sd.offset;
                let last_col = last_row as isize + sd.offset;
                if last_row >= self.nrows || first_col < 0 || last_col >= self.ncols as isize {
                    d.push(Diagnostic::error(
                        codes::FMT_INDEX_OOB,
                        at(),
                        format!(
                            "diagonal {} covers rows {}..={last_row}, outside {}x{}",
                            sd.offset, sd.first_row, self.nrows, self.ncols
                        ),
                    ));
                }
            }
            true_nnz += sd.vals.iter().filter(|&&v| v != 0.0).count();
        }
        if self.nnz != true_nnz {
            d.push(meta_mismatch(
                "nnz",
                format!("declared {} but the runs hold {true_nnz} nonzeros", self.nnz),
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

    fn tridiag(n: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t
    }

    #[test]
    fn tridiagonal_stores_three_diagonals() {
        let m = DiagonalMatrix::from_triplets(&tridiag(5));
        assert_eq!(m.num_diagonals(), 3);
        assert_eq!(m.nnz(), 5 + 4 + 4);
        assert_eq!(m.stored_len(), 5 + 4 + 4); // no padding needed
        let offs: Vec<isize> = m.diagonals().iter().map(|d| d.offset).collect();
        assert_eq!(offs, vec![-1, 0, 1]);
    }

    #[test]
    fn partial_diagonal_run_padding() {
        // Diagonal 0 has entries only at rows 1 and 4: run covers 1..=4
        // with padding zeros at rows 2 and 3.
        let t = Triplets::from_entries(6, 6, &[(1, 1, 5.0), (4, 4, 7.0)]);
        let m = DiagonalMatrix::from_triplets(&t);
        assert_eq!(m.num_diagonals(), 1);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.stored_len(), 4); // rows 1..=4
        assert_eq!(m.search_pair(2, 2), None); // padding zero, not stored
        assert_eq!(m.search_pair(4, 4), Some(7.0));
        assert_eq!(m.search_pair(0, 0), None); // before the run
        assert_eq!(m.search_pair(5, 5), None); // after the run
    }

    #[test]
    fn roundtrip() {
        let t = tridiag(7);
        let m = DiagonalMatrix::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn flat_enumeration_skips_padding() {
        let t = Triplets::from_entries(4, 4, &[(0, 0, 1.0), (3, 3, 2.0), (0, 2, 3.0)]);
        let m = DiagonalMatrix::from_triplets(&t);
        let mut tuples: Vec<_> = m.enum_flat().collect();
        tuples.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(tuples, vec![(0, 0, 1.0), (0, 2, 3.0), (3, 3, 2.0)]);
    }

    #[test]
    fn rectangular_offsets() {
        let t = Triplets::from_entries(2, 4, &[(0, 3, 1.0), (1, 0, 2.0)]);
        let m = DiagonalMatrix::from_triplets(&t);
        assert_eq!(m.search_pair(0, 3), Some(1.0));
        assert_eq!(m.search_pair(1, 0), Some(2.0));
        assert_eq!(m.search_pair(0, 1), None);
    }
}
