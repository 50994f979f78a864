//! Triplet (assembly) form: the common builder every storage format is
//! constructed from and converts back to.
//!
//! `Triplets` is deliberately the *only* place where duplicate summing,
//! explicit-zero dropping and sorting happen, so that each format's
//! constructor can assume clean, sorted input and round-trips between
//! formats are exact.
//!
//! Canonical assembly is a counting sort, O(nnz + n) for `n` rows (or
//! columns, for the column-major form) plus a stable sort of each row's
//! own entries, which is linear on the rows assemblers emit in order.
//! The entries are counted per row, scattered stably into one output
//! buffer of exact size through one cursor per row, sorted within each
//! row by column, and compacted in place. The sum-order contract: the
//! entries at one `(row, col)` are summed in insertion order starting
//! from `+0.0` (so a lone `-0.0` reads `+0.0` and NaN payloads travel
//! as `0.0 + v` carries them), and a sum `== 0.0` is dropped.
//!
//! The sort is skipped when the entries already are their own assembly
//! ([`Triplets::canonical_entries`] then borrows them): strictly
//! ascending by `(row, col)`, so every sum has one term, and every value
//! `v` nonzero with `0.0 + v` bitwise `v`, so that term is what the
//! assembly would store (it fails for `-0.0`, dropped, and for a
//! signalling NaN, which the addition quiets). The check is one
//! read-only pass; any entry that fails it sends the whole list through
//! the counting sort, so a borrowed view and an assembled one cannot
//! differ in a bit. Canonical input is common — what `canonicalize`
//! returns, and what a row-major format's `to_triplets` gives back — and
//! the constructors reading it pay that pass instead of a sort and a
//! copy.

use std::borrow::Cow;

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
        let entries = self.canonical_entries().into_owned();
        Triplets { nrows: self.nrows, ncols: self.ncols, entries }
    }

    /// The entries of [`Triplets::canonicalize`], borrowed when the raw
    /// entries already are their own assembly (see the module doc),
    /// assembled otherwise.
    pub fn canonical_entries(&self) -> Cow<'_, [(usize, usize, f64)]> {
        // The sum the sort would form for a lone `v`, added at run time:
        // a `+0.0` the optimiser sees may let it assume `0.0 + v` is `v`
        // for a nonzero `v`, which is not what the sort's addition does
        // to a signalling NaN.
        let zero = std::hint::black_box(0.0);
        let kept = |v: f64| {
            let sum = zero + v;
            sum != 0.0 && sum.to_bits() == v.to_bits()
        };
        let canonical = self.entries.first().is_none_or(|e| kept(e.2))
            && self.entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1) && kept(w[1].2));
        if canonical {
            Cow::Borrowed(&self.entries)
        } else {
            Cow::Owned(self.assemble(false))
        }
    }

    /// Canonical entries sorted column-major (for CCS/CCCS assembly):
    /// the same counting sort keyed by column, so the sums are
    /// [`Triplets::canonicalize`]'s and the order is theirs sorted by
    /// `(col, row)`.
    pub fn canonical_col_major(&self) -> Vec<(usize, usize, f64)> {
        self.assemble(true)
    }

    /// The canonical entries grouped by row (by column when
    /// `col_major`), each group ascending in the other index: counted,
    /// scattered stably through one cursor per group, sorted stably
    /// within each group so duplicates keep insertion order, then
    /// summed and compacted in place.
    fn assemble(&self, col_major: bool) -> Vec<(usize, usize, f64)> {
        let split = |&(r, c, _): &(usize, usize, f64)| if col_major { (c, r) } else { (r, c) };
        let groups = if col_major { self.ncols } else { self.nrows };
        // `end[g]` starts as group `g`'s first slot and is its cursor,
        // so after the scatter it is the group's end.
        let mut end = vec![0usize; groups + 1];
        for e in &self.entries {
            end[split(e).0 + 1] += 1;
        }
        for g in 0..groups {
            end[g + 1] += end[g];
        }
        let mut out = vec![(0, 0, 0.0); self.entries.len()];
        for &e in &self.entries {
            let slot = &mut end[split(&e).0];
            out[*slot] = e;
            *slot += 1;
        }
        let mut lo = 0;
        for &hi in &end[..groups] {
            out[lo..hi].sort_by_key(|e| split(e).1);
            lo = hi;
        }
        let (mut kept, mut k) = (0, 0);
        while k < out.len() {
            let (r, c, _) = out[k];
            let mut sum = 0.0;
            while k < out.len() && (out[k].0, out[k].1) == (r, c) {
                sum += out[k].2;
                k += 1;
            }
            if sum != 0.0 {
                out[kept] = (r, c, sum);
                kept += 1;
            }
        }
        out.truncate(kept);
        out
    }

    /// Dense matvec reference used throughout the test suites:
    /// `y += A·x` computed straight off the triplets.
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length");
        assert_eq!(y.len(), self.nrows, "y length");
        for &(r, c, v) in self.canonical_entries().iter() {
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

    /// True when the canonical matrix equals its transpose: the
    /// canonical entries against the column-major assembly (the
    /// transpose's canonical entries, indices swapped).
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let (rows, cols) = (self.canonical_entries(), self.canonical_col_major());
        rows.len() == cols.len() && rows.iter().zip(&cols).all(|(&e, &(r, c, v))| e == (c, r, v))
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
}

/// Where each row of canonical `entries` starts, plus their end: the
/// CRS row pointer of an `nrows`-row matrix.
pub(crate) fn row_ptr(nrows: usize, entries: &[(usize, usize, f64)]) -> Vec<usize> {
    let mut ptr = vec![0usize; nrows + 1];
    for &(r, _, _) in entries {
        ptr[r + 1] += 1;
    }
    for i in 0..nrows {
        ptr[i + 1] += ptr[i];
    }
    ptr
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
    fn diagonal_reads_zero_where_nothing_is_stored() {
        let t = Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 5.0), (1, 2, 1.0), (2, 0, 1.0)],
        );
        assert_eq!(t.diagonal(), vec![2.0, 5.0, 0.0]);
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

    /// The assembly `canonicalize` ran as before it became a counting
    /// sort: a `BTreeMap` keyed `(row, col)`, each key's sum started at
    /// `+0.0`, zero sums dropped. The oracle the counting sort is held
    /// to bit for bit. Its `+0.0` is opaque to the optimiser, as
    /// [`Triplets::canonical_entries`]' is: a literal lets it fold
    /// `0.0 + NaN` to the default NaN, which the sort's run-time
    /// addition does not produce.
    fn btree_canonical(t: &Triplets) -> Vec<(usize, usize, f64)> {
        let zero = std::hint::black_box(0.0);
        let mut map = std::collections::BTreeMap::new();
        for &(r, c, v) in t.entries() {
            *map.entry((r, c)).or_insert(zero) += v;
        }
        map.into_iter().filter(|&(_, v)| v != 0.0).map(|((r, c), v)| (r, c, v)).collect()
    }

    fn bits(e: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
        e.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect()
    }

    /// [`bits`], except that in a cell whose sum adds a NaN to a NaN any
    /// NaN reads the same: which operand's payload such an addition
    /// keeps is unspecified (IEEE 754 leaves it open, and the optimiser
    /// may commute an addition's operands, differently at each site).
    fn bits_up_to_nan_choice(t: &Triplets, e: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
        let (mut sums, mut met) = (std::collections::BTreeMap::new(), std::collections::BTreeSet::new());
        for &(r, c, v) in t.entries() {
            let sum: &mut f64 = sums.entry((r, c)).or_insert(0.0);
            if sum.is_nan() && v.is_nan() {
                met.insert((r, c));
            }
            *sum += v;
        }
        let nan = f64::NAN.to_bits();
        e.iter().map(|&(r, c, v)| (r, c, if v.is_nan() && met.contains(&(r, c)) { nan } else { v.to_bits() })).collect()
    }

    /// Duplicates, exact cancellation, both zeros, NaNs with distinct
    /// payloads and both infinities (whose sum is a NaN).
    const AWKWARD: [f64; 12] = [
        1.5,
        -1.5,
        0.0,
        -0.0,
        f64::NAN,
        0.1,
        0.2,
        -0.30000000000000004,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_0000_0000_beef),
        f64::from_bits(0xfff0_0000_0000_0001),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]
        /// The counting sort is the `BTreeMap` assembly bit for bit (up
        /// to the payload of a NaN-plus-NaN sum), in both orders, and a
        /// second pass is the identity — on rectangular and 0-row
        /// shapes, empty rows, and input that is already canonical.
        #[test]
        fn counting_sort_is_bitwise_the_btree_assembly(
            nrows in 0usize..7,
            ncols in 0usize..7,
            picks in proptest::collection::vec((0usize..7, 0usize..7, 0usize..12), 0..60),
        ) {
            let mut t = Triplets::new(nrows, ncols);
            for (r, c, v) in picks {
                if r < nrows && c < ncols {
                    t.push(r, c, AWKWARD[v]);
                }
            }
            let oracle = btree_canonical(&t);
            let c = t.canonicalize();
            let t_bits = |e: &[(usize, usize, f64)]| bits_up_to_nan_choice(&t, e);
            proptest::prop_assert_eq!(t_bits(c.entries()), t_bits(&oracle));
            proptest::prop_assert_eq!(bits(c.canonicalize().entries()), bits(c.entries()));
            proptest::prop_assert_eq!(bits(&btree_canonical(&c)), bits(c.entries()));
            let mut by_col = oracle;
            by_col.sort_by_key(|&(r, c, _)| (c, r));
            proptest::prop_assert_eq!(t_bits(&t.canonical_col_major()), t_bits(&by_col));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]
        /// The canonical view of ascending input — whose values may be
        /// zeros of either sign, quiet or signalling NaNs with payloads,
        /// and which may carry one duplicate or one swapped pair — is
        /// the `BTreeMap` assembly bit for bit, and borrows exactly when
        /// the input is its own assembly.
        #[test]
        fn canonical_view_is_bitwise_the_btree_assembly(
            nrows in 1usize..7,
            ncols in 1usize..7,
            cells in proptest::collection::vec((0usize..7, 0usize..7, 0usize..20), 0..40),
            flaw in 0usize..3,
            at in 0usize..64,
        ) {
            // Most picks are ordinary numbers, so many inputs are clean.
            const VALUES: [f64; 8] = [
                0.0,
                -0.0,
                f64::NAN,
                f64::from_bits(0xfff8_0000_0000_beef), // quiet, negative, with payload
                f64::from_bits(0x7ff0_0000_0000_0001), // signalling
                f64::from_bits(0xfff4_0000_0000_0042), // signalling, negative
                f64::INFINITY,
                -0.30000000000000004,
            ];
            let value = |k: usize| VALUES.get(k).copied().unwrap_or(k as f64 - 13.5);
            let mut e: Vec<(usize, usize, f64)> = cells
                .into_iter()
                .filter(|&(r, c, _)| r < nrows && c < ncols)
                .map(|(r, c, k)| (r, c, value(k)))
                .collect();
            e.sort_by_key(|t| (t.0, t.1));
            e.dedup_by_key(|t| (t.0, t.1));
            let n = e.len();
            match flaw {
                1 if n > 0 => e.insert(at % n, e[at % n]),
                2 if n > 1 => e.swap(at % (n - 1), at % (n - 1) + 1),
                _ => {}
            }
            let t = Triplets::from_entries(nrows, ncols, &e);
            let (view, oracle) = (t.canonical_entries(), btree_canonical(&t));
            proptest::prop_assert_eq!(bits(&view), bits(&oracle));
            let borrowed = matches!(view, std::borrow::Cow::Borrowed(_));
            proptest::prop_assert_eq!(borrowed, bits(t.entries()) == bits(&oracle));
        }
    }

    #[test]
    fn duplicates_sum_in_insertion_order() {
        // (1e16 + 1) + 1 loses both ones; 1 + 1 + 1e16 keeps them.
        let t = Triplets::from_entries(2, 2, &[(1, 0, 1e16), (0, 1, 1.0), (1, 0, 1.0), (1, 0, 1.0)]);
        let u = Triplets::from_entries(2, 2, &[(1, 0, 1.0), (1, 0, 1.0), (1, 0, 1e16)]);
        assert_eq!(t.canonicalize().entries(), &[(0, 1, 1.0), (1, 0, 1e16)]);
        assert_eq!(u.canonicalize().entries(), &[(1, 0, 1e16 + 2.0)]);
        assert_eq!(bits(t.canonicalize().entries()), bits(&btree_canonical(&t)));
        assert_eq!(bits(u.canonicalize().entries()), bits(&btree_canonical(&u)));
        // A lone -0.0 is dropped; a NaN payload survives `0.0 + v`.
        let nan = f64::from_bits(0x7ff8_0000_0000_0042);
        let z = Triplets::from_entries(1, 3, &[(0, 0, -0.0), (0, 2, nan)]);
        assert_eq!(bits(z.canonicalize().entries()), bits(&[(0, 2, std::hint::black_box(0.0) + nan)]));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_rejected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 5, 1.0);
    }
}
