//! Dense row-major matrix storage.
//!
//! Dense arrays are relations too (§2 of the paper): their `NZ`
//! predicate is identically true, so they never enter the sparsity
//! predicate, and their levels are directly indexable
//! ([`LevelProps::dense`]). `DenseMatrix` doubles as the correctness
//! oracle for every sparse format.

use crate::triplet::Triplets;
use bernoulli_analysis::validate::{check_access_contract, meta_mismatch, Validate};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Planner metadata of any `nrows × ncols` dense matrix, without
    /// materializing one.
    pub fn meta_of(nrows: usize, ncols: usize) -> MatMeta {
        MatMeta {
            nrows,
            ncols,
            nnz: nrows * ncols,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::dense(),
            flat: LevelProps::dense(),
            pair_search_cheap: true,
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// From a row-major buffer.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer size mismatch");
        DenseMatrix { nrows, ncols, data }
    }

    pub fn from_triplets(t: &Triplets) -> Self {
        let mut m = DenseMatrix::zeros(t.nrows(), t.ncols());
        for &(r, c, v) in t.canonical_entries().iter() {
            m[(r, c)] = v;
        }
        m
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let v = self[(r, c)];
                if v != 0.0 {
                    t.push(r, c, v);
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

    /// Count of stored (all) entries — for a dense matrix, `nrows·ncols`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `y += A·x` (the serial tier of the dense [`crate::kernels::SpmvBody`]).
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) {
        crate::kernels::spmv_in::<bernoulli_relational::semiring::F64Plus, DenseMatrix>(self, x, y)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.ncols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.ncols + c]
    }
}

impl Validate for DenseMatrix {
    fn validate(&self) -> Vec<Diagnostic> {
        if self.data.len() != self.nrows * self.ncols {
            return vec![meta_mismatch(
                "data",
                format!(
                    "{} value slots for a {}x{} matrix",
                    self.data.len(),
                    self.nrows,
                    self.ncols
                ),
            )];
        }
        check_access_contract(self)
    }
}

impl MatrixAccess for DenseMatrix {
    fn meta(&self) -> MatMeta {
        DenseMatrix::meta_of(self.nrows, self.ncols)
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        let nc = self.ncols;
        Box::new((0..self.nrows).map(move |r| OuterCursor { index: r, a: r * nc, b: (r + 1) * nc }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.nrows).then(|| OuterCursor {
            index,
            a: index * self.ncols,
            b: (index + 1) * self.ncols,
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        InnerIter::DenseRange { lo: 0, vals: &self.data[outer.a..outer.b], pos: 0 }
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        (index < self.ncols).then(|| self.data[outer.a + index])
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        let nc = self.ncols;
        Box::new(
            self.data
                .iter()
                .enumerate()
                .map(move |(k, &v)| (k / nc, k % nc, v)),
        )
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        (i < self.nrows && j < self.ncols).then(|| self.data[i * self.ncols + j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec() {
        let m = DenseMatrix::identity(3);
        let mut y = vec![0.0; 3];
        m.matvec_acc(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn triplet_roundtrip() {
        let t = Triplets::from_entries(2, 3, &[(0, 1, 4.0), (1, 2, -2.0)]);
        let m = DenseMatrix::from_triplets(&t);
        assert_eq!(m[(0, 1)], 4.0);
        assert_eq!(m[(1, 2)], -2.0);
        assert_eq!(m.row(1), &[0.0, 0.0, -2.0]);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn access_methods_consistent() {
        let m = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let flat: Vec<_> = m.enum_flat().collect();
        assert_eq!(flat, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let c = m.search_outer(1).unwrap();
        assert_eq!(m.enum_inner(&c).collect::<Vec<_>>(), vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(m.search_inner(&c, 0), Some(3.0));
        assert_eq!(m.search_pair(0, 1), Some(2.0));
        assert_eq!(m.search_pair(5, 0), None);
        // Dense matrices store zeros: nnz is the full extent.
        assert_eq!(m.meta().nnz, 4);
    }
}
