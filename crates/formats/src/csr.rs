//! Compressed Row Storage (CRS).
//!
//! The paper's Appendix A defines CRS as "the transpose of the matrix
//! using the CCS format": rows are compressed, with `ROWPTR` giving each
//! row's extent into parallel `COLIND`/`VALS` arrays. The relational
//! view is the hierarchy `I ≻ (J, V)`: a dense, directly indexable
//! outer row level over sorted, binary-searchable column entries.

use crate::fast::IndexDigest;
use bernoulli_analysis::binding::OperandBinding;
use crate::triplet::{row_ptr, Triplets};
use bernoulli_analysis::validate::{
    check_access_contract, check_compressed, check_ptr, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_analysis::wavefront::Triangle;
use bernoulli_relational::error::{RelError, RelResult};
use bernoulli_relational::props::LevelProps;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// CRS sparse matrix.
#[derive(Clone, Debug)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    vals: Vec<f64>,
    /// Built by the first sweep over this operand. The index arrays
    /// have no `_mut` accessor, so it cannot go stale.
    diag: OnceLock<DiagIndex>,
    /// Same argument: filled by the first certificate bound to this
    /// operand ([`Csr::binding`]).
    digest: IndexDigest,
    /// The value version ([`Csr::stamp`]).
    stamp: u64,
}

/// The one source of [`Csr::stamp`]s: a stamp is never drawn twice.
static STAMPS: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed)
}

/// Where each row's diagonal sits: the inspector product the DO-ACROSS
/// row bodies (`kernels::gs_row`, `kernels::sptrsv_row`) execute over.
#[derive(Clone, Debug)]
pub(crate) struct DiagIndex {
    /// Per row, the in-row offset of the first stored column ≥ the row
    /// index: already-swept columns of a forward sweep lie before it.
    pub(crate) split: Vec<u32>,
    /// Every row stores its diagonal as its last / first entry.
    last: bool,
    first: bool,
}

/// Equality is over what the matrix stores; the derived index and the
/// stamp are not part of it.
impl PartialEq for Csr {
    fn eq(&self, o: &Csr) -> bool {
        (self.nrows, self.ncols) == (o.nrows, o.ncols)
            && self.rowptr == o.rowptr
            && self.colind == o.colind
            && self.vals == o.vals
    }
}

impl Csr {
    /// Build from triplets (canonicalised).
    pub fn from_triplets(t: &Triplets) -> Self {
        let c = t.canonical_entries();
        let rowptr = row_ptr(t.nrows(), &c);
        let colind = c.iter().map(|e| e.1).collect();
        let vals = c.iter().map(|e| e.2).collect();
        Csr::from_raw_unchecked(t.nrows(), t.ncols(), rowptr, colind, vals)
    }

    /// Build from raw arrays, checked: the BA2x sanitizer
    /// ([`Validate::validate`]) runs once, and arrays that break a CRS
    /// invariant (a malformed `rowptr`, a column out of range, unsorted
    /// or repeated within its row) are refused with its findings
    /// ([`RelError::Validation`]) instead of built.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<usize>,
        vals: Vec<f64>,
    ) -> RelResult<Self> {
        let m = Csr::from_raw_unchecked(nrows, ncols, rowptr, colind, vals);
        m.validate_ok().map_err(|e| RelError::Validation(format!("Csr::from_raw: {e}")))?;
        Ok(m)
    }

    /// Build from raw arrays **without** checking any invariant.
    ///
    /// The sanitizer's seam: lets tests (and I/O paths that prefer
    /// diagnostics over panics) materialise a possibly-corrupt matrix
    /// and run [`Validate::validate`] on it instead of asserting.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        let (diag, digest) = (OnceLock::new(), IndexDigest::default());
        Csr { nrows, ncols, rowptr, colind, vals, diag, digest, stamp: fresh_stamp() }
    }

    /// The `(rowptr, colind, vals)` buffers back, the inverse of
    /// [`Csr::from_raw_unchecked`]; the derived indexes are dropped.
    pub fn into_raw(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.rowptr, self.colind, self.vals)
    }

    /// Fast constructor for entries known to be duplicate-free: a
    /// counting sort by row plus a per-row column sort, with no
    /// `BTreeMap` canonicalisation. Used on inspector-critical paths
    /// where construction cost is part of the measured phase (a
    /// duplicate-free guarantee comes from the fragmenting code).
    pub fn from_entries_nodup(
        nrows: usize,
        ncols: usize,
        entries: &[(usize, usize, f64)],
    ) -> Self {
        let mut rowptr = vec![0usize; nrows + 1];
        for &(r, _, _) in entries {
            debug_assert!(r < nrows);
            rowptr[r + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let nnz = entries.len();
        let mut colind = vec![0usize; nnz];
        let mut vals = vec![0.0; nnz];
        let mut next = rowptr.clone();
        for &(r, c, v) in entries {
            debug_assert!(c < ncols, "column {c} out of {ncols}");
            let at = next[r];
            next[r] += 1;
            colind[at] = c;
            vals[at] = v;
        }
        // Sort within each row (rows are typically short).
        let mut perm: Vec<usize> = Vec::new();
        for r in 0..nrows {
            let (s, e) = (rowptr[r], rowptr[r + 1]);
            if e - s > 1 && !colind[s..e].windows(2).all(|w| w[0] < w[1]) {
                perm.clear();
                perm.extend(s..e);
                perm.sort_by_key(|&k| colind[k]);
                let cs: Vec<usize> = perm.iter().map(|&k| colind[k]).collect();
                let vs: Vec<f64> = perm.iter().map(|&k| vals[k]).collect();
                debug_assert!(cs.windows(2).all(|w| w[0] < w[1]), "duplicate column in row {r}");
                colind[s..e].copy_from_slice(&cs);
                vals[s..e].copy_from_slice(&vs);
            }
        }
        Csr::from_raw_unchecked(nrows, ncols, rowptr, colind, vals)
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                t.push(r, self.colind[k], self.vals[k]);
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

    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    pub fn colind(&self) -> &[usize] {
        &self.colind
    }

    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// The values, for writing: the one way to change what a built
    /// matrix stores, so it starts a new value version ([`stamp`](Self::stamp))
    /// whether or not the caller writes.
    pub fn vals_mut(&mut self) -> &mut [f64] {
        self.stamp = fresh_stamp();
        &mut self.vals
    }

    /// The value version: drawn from one process-wide counter when the
    /// matrix is built and again by [`vals_mut`](Self::vals_mut), the
    /// only mutator, and copied by `clone`. Two matrices with equal
    /// stamps store the same arrays, so a verdict about one content
    /// (`SymGs`'s proof that an operator is its own matrix) can be kept
    /// against its stamp. Unequal stamps prove nothing: equal contents
    /// built twice get two.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Column indices of one row.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.colind[self.rowptr[r]..self.rowptr[r + 1]]
    }

    /// Values of one row.
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.vals[self.rowptr[r]..self.rowptr[r + 1]]
    }

    /// Stored length of one row.
    pub fn row_len(&self, r: usize) -> usize {
        self.rowptr[r + 1] - self.rowptr[r]
    }

    /// The diagonal index, built on first use in one pass over the
    /// index arrays. Total on any `from_raw_unchecked` input: a row
    /// whose extent is not a range of `colind` counts as empty, an
    /// unsorted row gets some in-row offset.
    pub(crate) fn diag_index(&self) -> &DiagIndex {
        self.diag.get_or_init(|| {
            let (mut last, mut first) = (true, true);
            let split = (self.rowptr.windows(2).enumerate())
                .map(|(i, w)| {
                    let cols = self.colind.get(w[0]..w[1]).unwrap_or(&[]);
                    last &= cols.last() == Some(&i);
                    first &= cols.first() == Some(&i);
                    cols.partition_point(|&j| j < i).min(u32::MAX as usize) as u32
                })
                .collect();
            DiagIndex { split, last, first }
        })
    }

    /// Content digest of `rowptr ++ colind` — what a certificate
    /// binds. One O(nnz) pass on first use, O(1) after.
    pub fn index_digest(&self) -> u64 {
        self.digest.of(&[&self.rowptr, &self.colind])
    }

    /// What every certificate over this operand binds: its order, its
    /// index arrays and their [`index_digest`](Self::index_digest).
    #[inline]
    pub fn binding(&self) -> OperandBinding {
        OperandBinding::new(self.nrows, self.ncols, [&self.rowptr, &self.colind], self.index_digest())
    }

    /// Whether every row stores its diagonal entry **last**
    /// ([`Triangle::Lower`]) or **first** ([`Triangle::Upper`]) — what a
    /// non-unit triangular solve in that direction needs of its operand.
    pub fn stores_diag(&self, tri: Triangle) -> bool {
        let d = self.diag_index();
        if tri == Triangle::Lower { d.last } else { d.first }
    }

    /// The transpose, also in CRS (equivalently: this matrix in CCS).
    pub fn transposed(&self) -> Csr {
        Csr::from_triplets(&self.to_triplets().transposed())
    }
}

impl MatrixAccess for Csr {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz(),
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new((0..self.nrows).map(move |r| OuterCursor {
            index: r,
            a: self.rowptr[r],
            b: self.rowptr[r + 1],
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.nrows).then(|| OuterCursor {
            index,
            a: self.rowptr[index],
            b: self.rowptr[index + 1],
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        InnerIter::Pairs {
            idx: &self.colind[outer.a..outer.b],
            vals: &self.vals[outer.a..outer.b],
            pos: 0,
        }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        self.colind[outer.a..outer.b]
            .binary_search(&index)
            .ok()
            .map(|k| self.vals[outer.a + k])
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new((0..self.nrows).flat_map(move |r| {
            (self.rowptr[r]..self.rowptr[r + 1]).map(move |k| (r, self.colind[k], self.vals[k]))
        }))
    }
}

impl Validate for Csr {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = check_ptr("rowptr", &self.rowptr, self.nrows + 1, self.vals.len());
        if self.colind.len() != self.vals.len() {
            d.push(meta_mismatch(
                "colind",
                format!("{} column indices but {} values", self.colind.len(), self.vals.len()),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_compressed("colind", &self.rowptr, &self.colind, self.ncols, "row"));
        if !d.is_empty() {
            return d;
        }
        check_access_contract(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(&Triplets::from_entries(
            3,
            4,
            &[(0, 0, 1.0), (0, 3, 2.0), (2, 1, 3.0), (2, 2, 4.0)],
        ))
    }

    #[test]
    fn layout_arrays() {
        let m = sample();
        assert_eq!(m.rowptr(), &[0, 2, 2, 4]);
        assert_eq!(m.colind(), &[0, 3, 1, 2]);
        assert_eq!(m.vals(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.row_cols(2), &[1, 2]);
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Csr::from_triplets(&m.to_triplets()), m);
    }

    #[test]
    fn hierarchy_and_flat_agree() {
        let m = sample();
        let mut hier = Vec::new();
        for c in m.enum_outer() {
            for (j, v) in m.enum_inner(&c) {
                hier.push((c.index, j, v));
            }
        }
        assert_eq!(hier, m.enum_flat().collect::<Vec<_>>());
    }

    #[test]
    fn searches() {
        let m = sample();
        assert_eq!(m.search_pair(0, 3), Some(2.0));
        assert_eq!(m.search_pair(1, 0), None);
        let c = m.search_outer(2).unwrap();
        assert_eq!(m.search_inner(&c, 2), Some(4.0));
    }

    #[test]
    fn transpose() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.search_pair(3, 0), Some(2.0));
    }

    #[test]
    fn from_raw_validates() {
        let m = Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_raw_rejects_unsorted_row() {
        let err = Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(&err, RelError::Validation(m) if m.contains("[BA23]")), "{err}");
    }

    /// Each broken CRS invariant is refused with its BA2x code, never a panic.
    #[test]
    fn from_raw_refuses_each_broken_invariant() {
        let cases = [
            (2, vec![0, 2], vec![0, 1], 2, "BA21"), // rowptr too short
            (2, vec![0, 1, 3], vec![0, 1], 2, "BA21"), // rowptr end ≠ nnz
            (2, vec![0, 2, 1], vec![0, 1], 2, "BA21"), // rowptr decreases
            (2, vec![0, 1, 2], vec![0, 2], 2, "BA22"), // column out of range
            (1, vec![0, 2], vec![1, 1], 2, "BA24"), // repeated column
        ];
        for (nrows, rowptr, colind, nnz, code) in cases {
            let err = Csr::from_raw(nrows, 2, rowptr.clone(), colind, vec![1.0; nnz]).unwrap_err();
            assert!(matches!(&err, RelError::Validation(m) if m.contains(code)), "{rowptr:?}: {err}");
        }
        // Fewer values than column indices.
        let err = Csr::from_raw(1, 2, vec![0, 1], vec![0], vec![]).unwrap_err();
        assert!(matches!(&err, RelError::Validation(m) if m.contains("BA25")), "{err}");
    }

    #[test]
    fn from_entries_nodup_matches_canonical() {
        // Unsorted, duplicate-free input in arbitrary order.
        let entries = vec![
            (2usize, 3usize, 1.0),
            (0, 1, 2.0),
            (2, 0, 3.0),
            (0, 0, 4.0),
            (1, 2, 5.0),
        ];
        let fast = Csr::from_entries_nodup(3, 4, &entries);
        let slow = Csr::from_triplets(&Triplets::from_entries(3, 4, &entries));
        assert_eq!(fast, slow);
    }

    #[test]
    fn from_entries_nodup_empty() {
        let m = Csr::from_entries_nodup(2, 2, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rowptr(), &[0, 0, 0]);
    }
}
