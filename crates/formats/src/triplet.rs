//! Triplet (assembly) form: the common builder every storage format is
//! constructed from and converts back to.
//!
//! `Triplets` is deliberately the *only* place where duplicate summing,
//! explicit-zero dropping and sorting happen, so that each format's
//! constructor can assume clean, sorted input and round-trips between
//! formats are exact.

use std::collections::BTreeMap;

/// A matrix under assembly: a list of `(row, col, value)` entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Triplets {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// An empty `nrows × ncols` assembly.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Triplets { nrows, ncols, entries: Vec::new() }
    }

    /// With pre-reserved capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Triplets { nrows, ncols, entries: Vec::with_capacity(cap) }
    }

    /// Build directly from a slice of entries.
    pub fn from_entries(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> Self {
        let mut t = Triplets::with_capacity(nrows, ncols, entries.len());
        for &(r, c, v) in entries {
            t.push(r, c, v);
        }
        t
    }

    /// Add one entry. Duplicates are allowed and summed at
    /// [`Triplets::canonicalize`] time (finite-element assembly style).
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row},{col}) outside {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, val));
    }

    /// Add `val` at `(row, col)` and `(col, row)` (symmetric assembly).
    pub fn push_sym(&mut self, row: usize, col: usize, val: f64) {
        self.push(row, col, val);
        if row != col {
            self.push(col, row, val);
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of raw entries (before duplicate summing).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw entries, in insertion order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Sort row-major, sum duplicates, drop entries that are exactly
    /// zero after summing. Idempotent.
    pub fn canonicalize(&self) -> Triplets {
        let mut map: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(r, c, v) in &self.entries {
            *map.entry((r, c)).or_insert(0.0) += v;
        }
        let entries: Vec<(usize, usize, f64)> = map
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        Triplets { nrows: self.nrows, ncols: self.ncols, entries }
    }

    /// Canonical entries sorted column-major (for CCS/CCCS assembly).
    pub fn canonical_col_major(&self) -> Vec<(usize, usize, f64)> {
        let mut e = self.canonicalize().entries;
        e.sort_by_key(|&(r, c, _)| (c, r));
        e
    }

    /// Dense matvec reference used throughout the test suites:
    /// `y += A·x` computed straight off the triplets.
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        for &(r, c, v) in &self.canonicalize().entries {
            y[r] += v * x[c];
        }
    }

    /// The transpose assembly.
    pub fn transposed(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.ncols, self.nrows, self.entries.len());
        for &(r, c, v) in &self.entries {
            t.push(c, r, v);
        }
        t
    }

    /// True when the canonical matrix equals its transpose.
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        self.canonicalize().entries == self.transposed().canonicalize().entries
    }

    /// Extract the main diagonal as a dense vector (zeros where absent),
    /// in one pass over the raw entries: each `d[r]` sums its entries in
    /// insertion order from `+0.0`, the sum [`Triplets::canonicalize`]
    /// forms, so the result is bitwise the canonical diagonal (a sum
    /// that cancels reads `+0.0`, as a dropped entry does).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows.min(self.ncols)];
        for &(r, c, v) in &self.entries {
            if r == c {
                d[r] += v;
            }
        }
        d
    }

    /// Per-row stored-entry counts of the canonical matrix.
    pub fn row_lengths(&self) -> Vec<usize> {
        let mut lens = vec![0usize; self.nrows];
        for &(r, _, _) in &self.canonicalize().entries {
            lens[r] += 1;
        }
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sums_sorts_drops() {
        let mut t = Triplets::new(3, 3);
        t.push(2, 1, 4.0);
        t.push(0, 0, 1.0);
        t.push(2, 1, -4.0); // cancels
        t.push(0, 2, 2.0);
        t.push(0, 0, 3.0); // sums to 4
        let c = t.canonicalize();
        assert_eq!(c.entries(), &[(0, 0, 4.0), (0, 2, 2.0)]);
        // Idempotent.
        assert_eq!(c.canonicalize(), c);
    }

    #[test]
    fn symmetric_assembly() {
        let mut t = Triplets::new(3, 3);
        t.push_sym(0, 1, 5.0);
        t.push_sym(2, 2, 7.0);
        assert!(t.is_symmetric());
        assert_eq!(t.canonicalize().len(), 3);
    }

    #[test]
    fn col_major_ordering() {
        let t = Triplets::from_entries(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (0, 0, 3.0)]);
        let cm = t.canonical_col_major();
        assert_eq!(cm, vec![(0, 0, 3.0), (1, 0, 2.0), (0, 2, 1.0)]);
    }

    #[test]
    fn matvec_reference() {
        let t = Triplets::from_entries(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]);
        let mut y = vec![0.0; 2];
        t.matvec_acc(&[1.0, 2.0], &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    #[test]
    fn transpose_and_symmetry() {
        let t = Triplets::from_entries(2, 2, &[(0, 1, 1.0)]);
        assert!(!t.is_symmetric());
        assert_eq!(t.transposed().canonicalize().entries(), &[(1, 0, 1.0)]);
        let rect = Triplets::new(2, 3);
        assert!(!rect.is_symmetric());
    }

    #[test]
    fn diagonal_and_row_lengths() {
        let t = Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 5.0), (1, 2, 1.0), (2, 0, 1.0)],
        );
        assert_eq!(t.diagonal(), vec![2.0, 5.0, 0.0]);
        assert_eq!(t.row_lengths(), vec![1, 3, 1]);
    }

    /// The diagonal off the canonical entries, as `diagonal` read it
    /// before it went one-pass.
    fn canonical_diagonal(t: &Triplets) -> Vec<f64> {
        let mut d = vec![0.0; t.nrows().min(t.ncols())];
        for &(r, c, v) in t.canonicalize().entries() {
            if r == c {
                d[r] = v;
            }
        }
        d
    }

    proptest::proptest! {
        /// One pass is the canonical diagonal bit for bit: duplicates,
        /// exact cancellation, `-0.0`, NaN and rectangular shapes.
        #[test]
        fn diagonal_is_bitwise_the_canonical_one(
            nrows in 0usize..6,
            ncols in 0usize..6,
            picks in proptest::collection::vec((0usize..6, 0usize..6, 0usize..8), 0..40),
        ) {
            const VALUES: [f64; 8] = [1.5, -1.5, 0.0, -0.0, f64::NAN, 0.1, 0.2, -0.30000000000000004];
            let mut t = Triplets::new(nrows, ncols);
            for (r, c, v) in picks {
                if r < nrows && c < ncols {
                    t.push(r, c, VALUES[v]);
                    // A diagonal twin of every pick, so duplicates and
                    // cancellations on the diagonal are common.
                    if r < ncols {
                        t.push(r, r, VALUES[v]);
                    }
                }
            }
            let bits = |d: Vec<f64>| d.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(t.diagonal()), bits(canonical_diagonal(&t)));
        }
    }

    #[test]
    fn diagonal_cancellation_and_negative_zero_read_positive_zero() {
        let t = Triplets::from_entries(3, 2, &[(0, 0, 2.5), (1, 1, -0.0), (0, 0, -2.5), (2, 1, 1.0)]);
        let d = t.diagonal();
        assert_eq!(d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), vec![0, 0]);
        assert_eq!(d, canonical_diagonal(&t));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_rejected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 5, 1.0);
    }
}
