//! Jagged Diagonal (JDIAG) storage (Saad, "Krylov subspace methods on
//! supercomputers"; Appendix A of the paper).
//!
//! Rows are permuted by decreasing stored length (the `PERM`/`IPERM`
//! pair of §2.2), then the k-th stored entries of all rows long enough
//! to have one are gathered into the k-th *jagged diagonal* — long
//! vectorisable segments ideal for vector machines. The permutation is
//! exposed both internally (the flat view translates back to global row
//! indices) and as a first-class [`Permutation`] value, so the permuted
//! query formulation of §2.2 can be reproduced explicitly.

use crate::triplet::{row_ptr, Triplets};
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_permutation, check_ptr, check_sorted_strict,
    meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::permutation::Permutation;
use bernoulli_relational::props::LevelProps;

/// Jagged-diagonal sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct JDiag {
    nrows: usize,
    ncols: usize,
    /// `perm.forward(global_row) = stored position`; rows sorted by
    /// decreasing stored length.
    perm: Permutation,
    /// Start of each jagged diagonal in `colind`/`vals`;
    /// `jd_ptr.len() = ndiags + 1`.
    jd_ptr: Vec<usize>,
    colind: Vec<usize>,
    vals: Vec<f64>,
}

impl JDiag {
    pub fn from_triplets(t: &Triplets) -> Self {
        let c = t.canonical_entries();
        let nrows = t.nrows();
        let rows: Vec<_> = row_ptr(nrows, &c).windows(2).map(|w| &c[w[0]..w[1]]).collect();
        // Permutation sorting rows by decreasing length (stable).
        let neg_lens: Vec<isize> = rows.iter().map(|r| -(r.len() as isize)).collect();
        let perm = Permutation::sorting(&neg_lens);
        let ndiags = rows.iter().map(|r| r.len()).max().unwrap_or(0);

        // jd_len[d] = number of stored rows with length > d; because the
        // permuted order is by decreasing length these are exactly the
        // first jd_len[d] stored rows.
        let mut jd_len = vec![0usize; ndiags];
        for r in &rows {
            for slot in jd_len.iter_mut().take(r.len()) {
                *slot += 1;
            }
        }
        let mut jd_ptr = vec![0usize; ndiags + 1];
        for d in 0..ndiags {
            jd_ptr[d + 1] = jd_ptr[d] + jd_len[d];
        }
        let total: usize = jd_len.iter().sum();
        let mut colind = vec![0usize; total];
        let mut vals = vec![0.0; total];
        for (gr, entries) in rows.iter().enumerate() {
            let p = perm.forward(gr);
            for (d, &(_, cc, v)) in entries.iter().enumerate() {
                let at = jd_ptr[d] + p;
                colind[at] = cc;
                vals[at] = v;
            }
        }
        JDiag { nrows, ncols: t.ncols(), perm, jd_ptr, colind, vals }
    }

    /// Build from raw parts **without** checking any invariant — the
    /// sanitizer's seam for materialising corrupt instances (e.g. a
    /// non-bijective permutation) and diagnosing them with
    /// [`Validate::validate`] instead of panicking.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        perm: Permutation,
        jd_ptr: Vec<usize>,
        colind: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        JDiag { nrows, ncols, perm, jd_ptr, colind, vals }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz());
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

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of jagged diagonals (= maximum stored row length).
    pub fn num_jdiags(&self) -> usize {
        self.jd_ptr.len() - 1
    }

    /// Length of jagged diagonal `d`.
    pub fn jdiag_len(&self, d: usize) -> usize {
        self.jd_ptr[d + 1] - self.jd_ptr[d]
    }

    /// The row permutation (`PERM`/`IPERM` of §2.2): global row `i` is
    /// stored at position `perm.forward(i)`.
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Raw arrays `(jd_ptr, colind, vals)` for the hand-written kernel.
    pub fn arrays(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.jd_ptr, &self.colind, &self.vals)
    }

    /// Stored length of the row at *stored* position `p`.
    fn stored_row_len(&self, p: usize) -> usize {
        (0..self.num_jdiags()).take_while(|&d| self.jdiag_len(d) > p).count()
    }
}

impl MatrixAccess for JDiag {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz(),
            orientation: Orientation::Flat,
            outer: LevelProps::enumerate_only(),
            inner: LevelProps::enumerate_only(),
            flat: LevelProps::sparse_unsorted(), // jagged-diagonal order
            // Probes walk one (short) row: effectively cheap.
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
        let nd = self.num_jdiags();
        Box::new((0..nd).flat_map(move |d| {
            (self.jd_ptr[d]..self.jd_ptr[d + 1]).map(move |at| {
                let p = at - self.jd_ptr[d];
                (self.perm.backward(p), self.colind[at], self.vals[at])
            })
        }))
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.nrows || j >= self.ncols {
            return None;
        }
        let p = self.perm.forward(i);
        let len = self.stored_row_len(p);
        for d in 0..len {
            let at = self.jd_ptr[d] + p;
            if self.colind[at] == j {
                return Some(self.vals[at]);
            }
        }
        None
    }
}

impl Validate for JDiag {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = check_permutation("perm", &self.perm, self.nrows);
        d.extend(check_ptr("jd_ptr", &self.jd_ptr, self.jd_ptr.len().max(1), self.vals.len()));
        if self.colind.len() != self.vals.len() {
            d.push(meta_mismatch(
                "colind",
                format!("{} column indices but {} values", self.colind.len(), self.vals.len()),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        // Jagged-diagonal lengths must fit the row count and be
        // non-increasing (each diagonal holds a prefix of the stored
        // rows) — otherwise the flat view indexes out of range.
        for dd in 0..self.num_jdiags() {
            let len = self.jdiag_len(dd);
            if len > self.nrows {
                d.push(meta_mismatch(
                    "jd_ptr",
                    format!("jagged diagonal {dd} has {len} entries for {} rows", self.nrows),
                ));
            } else if dd > 0 && len > self.jdiag_len(dd - 1) {
                d.push(meta_mismatch(
                    "jd_ptr",
                    format!(
                        "jagged diagonal {dd} ({len} entries) is longer than diagonal {} ({})",
                        dd - 1,
                        self.jdiag_len(dd - 1)
                    ),
                ));
            }
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_bounds("colind", &self.colind, self.ncols));
        // Each stored row's columns (gathered across diagonals) must be
        // strictly ascending — the canonical row order JDIAG scatters.
        let stored_rows = if self.num_jdiags() == 0 { 0 } else { self.jdiag_len(0) };
        let mut row: Vec<usize> = Vec::new();
        for p in 0..stored_rows {
            row.clear();
            row.extend((0..self.stored_row_len(p)).map(|dd| self.colind[self.jd_ptr[dd] + p]));
            d.extend(check_sorted_strict("colind", &row, format_args!("stored row {p}")));
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

    fn sample() -> Triplets {
        // Row lengths: 1, 3, 2 → permuted order: row1, row2, row0.
        Triplets::from_entries(
            3,
            4,
            &[
                (0, 2, 1.0),
                (1, 0, 2.0),
                (1, 1, 3.0),
                (1, 3, 4.0),
                (2, 0, 5.0),
                (2, 2, 6.0),
            ],
        )
    }

    #[test]
    fn structure() {
        let m = JDiag::from_triplets(&sample());
        assert_eq!(m.num_jdiags(), 3);
        assert_eq!(m.jdiag_len(0), 3); // all rows have ≥1 entry
        assert_eq!(m.jdiag_len(1), 2); // rows 1 and 2
        assert_eq!(m.jdiag_len(2), 1); // row 1 only
        // Longest row (global 1) stored first.
        assert_eq!(m.permutation().forward(1), 0);
        assert_eq!(m.permutation().forward(2), 1);
        assert_eq!(m.permutation().forward(0), 2);
    }

    #[test]
    fn first_jdiag_holds_first_entries() {
        let m = JDiag::from_triplets(&sample());
        let (jd_ptr, colind, vals) = m.arrays();
        assert_eq!(jd_ptr, &[0, 3, 5, 6]);
        // jdiag 0 = first entries of stored rows [1, 2, 0]:
        assert_eq!(&colind[0..3], &[0, 0, 2]);
        assert_eq!(&vals[0..3], &[2.0, 5.0, 1.0]);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let m = JDiag::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn flat_yields_global_rows() {
        let m = JDiag::from_triplets(&sample());
        let mut tuples: Vec<_> = m.enum_flat().collect();
        tuples.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(tuples.len(), 6);
        assert_eq!(tuples[0], (0, 2, 1.0));
        assert_eq!(tuples[5], (2, 2, 6.0));
    }

    #[test]
    fn pair_search() {
        let m = JDiag::from_triplets(&sample());
        assert_eq!(m.search_pair(1, 3), Some(4.0));
        assert_eq!(m.search_pair(0, 2), Some(1.0));
        assert_eq!(m.search_pair(0, 0), None);
        assert_eq!(m.search_pair(9, 0), None);
    }

    #[test]
    fn empty_and_uniform() {
        let e = JDiag::from_triplets(&Triplets::new(2, 2));
        assert_eq!(e.num_jdiags(), 0);
        assert_eq!(e.enum_flat().count(), 0);
        // Uniform row lengths: permutation is identity (stable sort).
        let u = JDiag::from_triplets(&Triplets::from_entries(
            2,
            2,
            &[(0, 0, 1.0), (1, 1, 2.0)],
        ));
        assert_eq!(u.permutation().forward(0), 0);
        assert_eq!(u.permutation().forward(1), 1);
    }
}
