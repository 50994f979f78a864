//! Structural statistics of sparse matrices.
//!
//! These are the quantities that decide which Table 1 format wins on
//! which matrix (the paper's point: *no single format is appropriate
//! for all kinds of problems*): bandedness favours Diagonal, uniform
//! row lengths favour ITPACK, high row-length variance favours JDIAG,
//! i-node richness favours BS95-style storage.

use crate::triplet::Triplets;

/// Summary statistics of a matrix's nonzero structure.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    /// Maximum of `|j - i|` over stored entries.
    pub bandwidth: usize,
    /// Number of distinct diagonals holding nonzeros.
    pub num_diagonals: usize,
    pub min_row_len: usize,
    pub max_row_len: usize,
    pub avg_row_len: f64,
    /// Population standard deviation of row lengths.
    pub row_len_stddev: f64,
    /// Number of maximal groups of consecutive rows with identical
    /// column structure (fewer groups = more i-node sharing).
    pub inode_groups: usize,
    pub symmetric: bool,
}

impl MatrixStats {
    /// Fraction of padded slots an ITPACK layout would waste.
    pub fn itpack_waste(&self) -> f64 {
        let padded = self.nrows as f64 * self.max_row_len as f64;
        if padded == 0.0 {
            0.0
        } else {
            1.0 - self.nnz as f64 / padded
        }
    }

    /// Average rows per i-node group.
    pub fn avg_inode_rows(&self) -> f64 {
        if self.inode_groups == 0 {
            0.0
        } else {
            self.nrows as f64 / self.inode_groups as f64
        }
    }

    /// Density of stored entries.
    pub fn density(&self) -> f64 {
        let total = self.nrows as f64 * self.ncols as f64;
        if total == 0.0 {
            0.0
        } else {
            self.nnz as f64 / total
        }
    }
}

/// Compute statistics for a matrix in triplet form.
pub fn analyze(t: &Triplets) -> MatrixStats {
    let c = t.canonical_entries();
    let nrows = t.nrows();
    let ncols = t.ncols();
    let nnz = c.len();

    let mut bandwidth = 0usize;
    let mut diag_set = std::collections::BTreeSet::new();
    let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); nrows];
    for &(r, cc, _) in c.iter() {
        let d = cc as isize - r as isize;
        bandwidth = bandwidth.max(d.unsigned_abs());
        diag_set.insert(d);
        row_cols[r].push(cc);
    }

    let lens: Vec<usize> = row_cols.iter().map(Vec::len).collect();
    let min_row_len = lens.iter().copied().min().unwrap_or(0);
    let max_row_len = lens.iter().copied().max().unwrap_or(0);
    let avg_row_len = if nrows == 0 { 0.0 } else { nnz as f64 / nrows as f64 };
    let var = if nrows == 0 {
        0.0
    } else {
        lens.iter()
            .map(|&l| {
                let d = l as f64 - avg_row_len;
                d * d
            })
            .sum::<f64>()
            / nrows as f64
    };

    let mut inode_groups = 0usize;
    let mut r = 0;
    while r < nrows {
        let mut span = 1;
        while r + span < nrows && row_cols[r + span] == row_cols[r] {
            span += 1;
        }
        inode_groups += 1;
        r += span;
    }

    MatrixStats {
        nrows,
        ncols,
        nnz,
        bandwidth,
        num_diagonals: diag_set.len(),
        min_row_len,
        max_row_len,
        avg_row_len,
        row_len_stddev: var.sqrt(),
        inode_groups,
        symmetric: t.is_symmetric(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tridiagonal_stats() {
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let s = analyze(&t);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.num_diagonals, 3);
        assert_eq!(s.max_row_len, 3);
        assert_eq!(s.min_row_len, 2);
        assert!(s.symmetric);
        assert!(s.row_len_stddev > 0.0);
    }

    #[test]
    fn uniform_rows_zero_stddev() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let s = analyze(&t);
        assert_eq!(s.row_len_stddev, 0.0);
        assert_eq!(s.itpack_waste(), 0.0);
        assert!((s.density() - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn itpack_waste_reflects_imbalance() {
        // One long row (4 entries), three singleton rows.
        let mut t = Triplets::new(4, 4);
        for c in 0..4 {
            t.push(0, c, 1.0);
        }
        for r in 1..4 {
            t.push(r, r, 1.0);
        }
        let s = analyze(&t);
        assert_eq!(s.max_row_len, 4);
        // padded = 16 slots, nnz = 7 → waste = 9/16
        assert!((s.itpack_waste() - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn inode_groups_counted() {
        // Rows 0-1 identical, rows 2-3 identical.
        let mut t = Triplets::new(4, 4);
        for r in 0..2 {
            t.push(r, 0, 1.0);
            t.push(r, 1, 1.0);
        }
        for r in 2..4 {
            t.push(r, 2, 1.0);
        }
        let s = analyze(&t);
        assert_eq!(s.inode_groups, 2);
        assert!((s.avg_inode_rows() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let s = analyze(&Triplets::new(0, 0));
        assert_eq!(s.nnz, 0);
        assert_eq!(s.avg_row_len, 0.0);
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.avg_inode_rows(), 0.0);
    }
}
