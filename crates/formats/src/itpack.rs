//! ITPACK/ELLPACK storage (Kincaid et al., "Algorithm 586 ITPACK 2C";
//! Appendix A of the paper).
//!
//! Every row is padded to the same width `W` (the maximum stored row
//! length); column indices and values are stored in `nrows × W` arrays
//! laid out **column-major** so that consecutive rows' k-th entries are
//! adjacent — the vectorisation-friendly layout ITPACK was designed
//! around. Padding slots repeat the row's last real column index with a
//! zero value (the classical convention), but the relational view skips
//! them via the per-row length array, so the relation contains exactly
//! the nonzeros.

use crate::fast::IndexDigest;
use bernoulli_analysis::binding::OperandBinding;
use crate::triplet::{row_ptr, Triplets};
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_sorted_strict, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::{LevelProps, SearchCost};

/// ITPACK/ELLPACK sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Itpack {
    nrows: usize,
    ncols: usize,
    /// Padded row width (max stored row length).
    width: usize,
    /// Column indices, `nrows × width`, column-major: slot `k` of row
    /// `r` lives at `k * nrows + r`.
    colind: Vec<usize>,
    /// Values, same layout.
    vals: Vec<f64>,
    /// Real (unpadded) length of each row.
    rowlen: Vec<usize>,
    nnz: usize,
    /// Memoised [`Itpack::index_digest`].
    digest: IndexDigest,
}

impl Itpack {
    pub fn from_triplets(t: &Triplets) -> Self {
        let c = t.canonical_entries();
        let nrows = t.nrows();
        let ptr = row_ptr(nrows, &c);
        let rowlen: Vec<usize> = ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let width = rowlen.iter().copied().max().unwrap_or(0);
        let mut colind = vec![0usize; nrows * width];
        let mut vals = vec![0.0; nrows * width];
        for (r, w) in ptr.windows(2).enumerate() {
            let row = &c[w[0]..w[1]];
            let pad_col = row.last().map_or(0, |e| e.1);
            for k in 0..width {
                let at = k * nrows + r;
                (colind[at], vals[at]) = row.get(k).map_or((pad_col, 0.0), |e| (e.1, e.2));
            }
        }
        let (nnz, digest) = (c.len(), IndexDigest::default());
        Itpack { nrows, ncols: t.ncols(), width, colind, vals, rowlen, nnz, digest }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz);
        for r in 0..self.nrows {
            for k in 0..self.rowlen[r] {
                let at = k * self.nrows + r;
                t.push(r, self.colind[at], self.vals[at]);
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
        self.nnz
    }

    /// The padded row width `W`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Real length of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.rowlen[r]
    }

    /// Total stored slots including padding — the format's footprint.
    pub fn stored_len(&self) -> usize {
        self.nrows * self.width
    }

    /// Content digest of the padded `colind` (see
    /// [`crate::Csr::index_digest`]).
    pub fn index_digest(&self) -> u64 {
        self.digest.of(&[&self.colind])
    }

    /// What a certificate over this operand binds (see
    /// [`crate::Csr::binding`]): `colind` is the one index array.
    #[inline]
    pub fn binding(&self) -> OperandBinding {
        OperandBinding::new(self.nrows, self.ncols, [&self.colind, &[]], self.index_digest())
    }

    /// Raw column-major arrays (for the hand-written kernel).
    pub fn arrays(&self) -> (&[usize], &[f64]) {
        (&self.colind, &self.vals)
    }
}

impl MatrixAccess for Itpack {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            // Rows are short and strided: linear search within a row.
            inner: LevelProps::sparse_sorted().with_search(SearchCost::Linear),
            flat: LevelProps::sparse_unsorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new((0..self.nrows).map(move |r| OuterCursor {
            index: r,
            a: r,
            b: self.rowlen[r],
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.nrows).then(|| OuterCursor {
            index,
            a: index,
            b: self.rowlen[index],
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        if outer.b == 0 {
            return InnerIter::Empty;
        }
        InnerIter::Strided {
            idx: &self.colind[outer.a..],
            idx_stride: self.nrows,
            vals: &self.vals[outer.a..],
            val_stride: self.nrows,
            count: outer.b,
            pos: 0,
        }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        let r = outer.a;
        for k in 0..outer.b {
            let at = k * self.nrows + r;
            if self.colind[at] == index {
                return Some(self.vals[at]);
            }
        }
        None
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new((0..self.nrows).flat_map(move |r| {
            (0..self.rowlen[r]).map(move |k| {
                let at = k * self.nrows + r;
                (r, self.colind[at], self.vals[at])
            })
        }))
    }
}

impl Validate for Itpack {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        let slots = self.nrows * self.width;
        if self.colind.len() != slots || self.vals.len() != slots {
            d.push(meta_mismatch(
                "arrays",
                format!(
                    "{} index and {} value slots for {} rows of width {}",
                    self.colind.len(),
                    self.vals.len(),
                    self.nrows,
                    self.width
                ),
            ));
        }
        if self.rowlen.len() != self.nrows {
            d.push(meta_mismatch(
                "rowlen",
                format!("{} row lengths for {} rows", self.rowlen.len(), self.nrows),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        for (r, &len) in self.rowlen.iter().enumerate() {
            if len > self.width {
                d.push(meta_mismatch(
                    "rowlen",
                    format!("row {r} claims {len} entries but the width is {}", self.width),
                ));
            }
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_bounds("colind", &self.colind, self.ncols));
        let mut row: Vec<usize> = Vec::new();
        for r in 0..self.nrows {
            row.clear();
            row.extend((0..self.rowlen[r]).map(|k| self.colind[k * self.nrows + r]));
            d.extend(check_sorted_strict("colind", &row, format_args!("row {r}")));
        }
        let true_nnz: usize = self.rowlen.iter().sum();
        if self.nnz != true_nnz {
            d.push(meta_mismatch(
                "nnz",
                format!("declared {} but the row lengths sum to {true_nnz}", self.nnz),
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

    fn sample() -> Triplets {
        Triplets::from_entries(
            3,
            4,
            &[(0, 0, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 1, 4.0), (2, 0, 5.0), (2, 3, 6.0)],
        )
    }

    #[test]
    fn width_is_max_row_length() {
        let m = Itpack::from_triplets(&sample());
        assert_eq!(m.width(), 3);
        assert_eq!(m.row_len(0), 3);
        assert_eq!(m.row_len(1), 1);
        assert_eq!(m.stored_len(), 9);
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn column_major_layout() {
        let m = Itpack::from_triplets(&sample());
        let (colind, vals) = m.arrays();
        // Slot 0 of rows 0,1,2 first, then slot 1, then slot 2.
        assert_eq!(&colind[0..3], &[0, 1, 0]);
        assert_eq!(&vals[0..3], &[1.0, 4.0, 5.0]);
        // Row 1's padding repeats its last real column (1) with 0.0.
        assert_eq!(colind[3 + 1], 1); // slot 1 of row 1
        assert_eq!(vals[3 + 1], 0.0);
    }

    #[test]
    fn relation_view_skips_padding() {
        let m = Itpack::from_triplets(&sample());
        assert_eq!(m.enum_flat().count(), 6);
        let c = m.search_outer(1).unwrap();
        assert_eq!(m.enum_inner(&c).collect::<Vec<_>>(), vec![(1, 4.0)]);
        // The padded slot must not surface through search either.
        assert_eq!(m.search_pair(1, 1), Some(4.0));
        assert_eq!(m.search_pair(1, 2), None);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let m = Itpack::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn empty_matrix() {
        let m = Itpack::from_triplets(&Triplets::new(3, 3));
        assert_eq!(m.width(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.enum_flat().count(), 0);
    }
}
