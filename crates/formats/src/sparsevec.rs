//! Sorted sparse vectors.
//!
//! The paper's running example makes `x` sparse too (`P = NZ(A) ∧
//! NZ(X)`), which is what exercises two-sided sparsity predicates and
//! merge joins in the planner. `SparseVec` is the vector-relation
//! counterpart of the matrix formats: a sorted index array plus values,
//! advertising `sorted / logarithmic-search / sparse` level properties.

use bernoulli_analysis::validate::{check_bounds, check_sorted_strict, meta_mismatch, Validate};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{InnerIter, VecMeta, VectorAccess};

/// A sorted sparse vector `X(i, x)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    len: usize,
    idx: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseVec {
    /// Build from (index, value) pairs: sorted, duplicates summed,
    /// exact zeros dropped.
    pub fn from_pairs(len: usize, pairs: &[(usize, f64)]) -> Self {
        let mut p: Vec<(usize, f64)> = pairs.to_vec();
        p.sort_by_key(|&(i, _)| i);
        let mut idx: Vec<usize> = Vec::with_capacity(p.len());
        let mut vals: Vec<f64> = Vec::with_capacity(p.len());
        for (i, v) in p {
            assert!(i < len, "index {i} out of 0..{len}");
            if idx.last() == Some(&i) {
                *vals.last_mut().expect("parallel") += v;
            } else {
                idx.push(i);
                vals.push(v);
            }
        }
        let keep: Vec<bool> = vals.iter().map(|&v| v != 0.0).collect();
        let idx = idx.into_iter().zip(&keep).filter(|(_, &k)| k).map(|(x, _)| x).collect();
        let vals = vals.into_iter().zip(&keep).filter(|(_, &k)| k).map(|(v, _)| v).collect();
        SparseVec { len, idx, vals }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Density of stored entries.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.len as f64
        }
    }

    /// The sorted index/value arrays.
    pub fn arrays(&self) -> (&[usize], &[f64]) {
        (&self.idx, &self.vals)
    }
}

impl Validate for SparseVec {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        if self.idx.len() != self.vals.len() {
            d.push(meta_mismatch(
                "idx",
                format!("{} indices but {} values", self.idx.len(), self.vals.len()),
            ));
            return d;
        }
        d.extend(check_bounds("idx", &self.idx, self.len));
        d.extend(check_sorted_strict("idx", &self.idx, "vector"));
        d
    }
}

impl VectorAccess for SparseVec {
    fn meta(&self) -> VecMeta {
        VecMeta::sparse_sorted(self.len, self.nnz())
    }

    fn enumerate(&self) -> InnerIter<'_> {
        InnerIter::Pairs { idx: &self.idx, vals: &self.vals, pos: 0 }
    }

    fn search(&self, index: usize) -> Option<f64> {
        self.idx.binary_search(&index).ok().map(|k| self.vals[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_sums_drops() {
        let v = SparseVec::from_pairs(10, &[(7, 1.0), (2, 3.0), (7, -1.0), (4, 2.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.arrays().0, &[2, 4]);
        assert_eq!(v.search(7), None); // cancelled
        assert_eq!(v.search(2), Some(3.0));
    }

    #[test]
    fn density_counts_stored_entries() {
        let v = SparseVec::from_pairs(5, &[(1, 1.5), (3, -2.0), (4, 0.0)]);
        assert_eq!(v.nnz(), 2);
        assert!((v.density() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn vector_access_view() {
        let v = SparseVec::from_pairs(8, &[(1, 5.0), (6, 7.0)]);
        let m = v.meta();
        assert_eq!(m.len, 8);
        assert_eq!(m.nnz, 2);
        assert!(!m.props.is_dense());
        assert_eq!(v.enumerate().collect::<Vec<_>>(), vec![(1, 5.0), (6, 7.0)]);
        assert_eq!(v.search(6), Some(7.0));
        assert_eq!(v.search(0), None);
    }

    #[test]
    #[should_panic]
    fn out_of_range_rejected() {
        SparseVec::from_pairs(3, &[(3, 1.0)]);
    }
}
