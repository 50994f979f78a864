//! Index-translation (permutation) relations (§2.2 of the paper).
//!
//! A permutation `P` over `0..n` is viewed as a relation of
//! `⟨i, i'⟩` tuples, stored as the pair of arrays `PERM` / `IPERM`
//! (the map and its inverse), exactly as the paper describes for
//! jagged-diagonal storage. Both directions are O(1) lookups, which is
//! the property the planner relies on to treat permutation terms as
//! pure derivations rather than joins.

use crate::error::{RelError, RelResult};

/// A bijection on `0..n` with its inverse, usable as the relation
/// `P(i, i')` where `i' = perm[i]` and `i = iperm[i']`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    iperm: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<usize> = (0..n).collect();
        Permutation { iperm: perm.clone(), perm }
    }

    /// Build from the forward map `perm`, validating bijectivity.
    pub fn from_forward(perm: Vec<usize>) -> RelResult<Self> {
        let n = perm.len();
        let mut iperm = vec![usize::MAX; n];
        for (i, &p) in perm.iter().enumerate() {
            if p >= n {
                return Err(RelError::MalformedQuery(format!(
                    "permutation value {p} out of range 0..{n}"
                )));
            }
            if iperm[p] != usize::MAX {
                return Err(RelError::MalformedQuery(format!(
                    "permutation maps two sources to {p}"
                )));
            }
            iperm[p] = i;
        }
        Ok(Permutation { perm, iperm })
    }

    /// Build directly from the raw `PERM`/`IPERM` pair **without**
    /// checking bijectivity or mutual consistency. Exists so the
    /// static-analysis corpus can represent corrupt permutations; the
    /// sanitizer's `BA26` check (in `bernoulli-analysis`) is the
    /// validating counterpart.
    pub fn from_raw_parts(perm: Vec<usize>, iperm: Vec<usize>) -> Self {
        Permutation { perm, iperm }
    }

    /// Build the permutation that sorts the given keys ascending (stable):
    /// `forward(rank) = original position`... more precisely, this returns
    /// the permutation `σ` with `σ(i) = new position of element i`, such
    /// that applying it to the key array yields sorted order.
    pub fn sorting(keys: &[impl Ord]) -> Self {
        let n = keys.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
        // order[rank] = original index; we want perm[original] = rank.
        let mut perm = vec![0usize; n];
        for (rank, &orig) in order.iter().enumerate() {
            perm[orig] = rank;
        }
        Permutation::from_forward(perm).expect("sorting permutation is bijective")
    }

    pub fn len(&self) -> usize {
        self.perm.len()
    }

    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `i → i'`.
    #[inline]
    pub fn forward(&self, i: usize) -> usize {
        self.perm[i]
    }

    /// `i' → i`.
    #[inline]
    pub fn backward(&self, ip: usize) -> usize {
        self.iperm[ip]
    }

    /// The raw `PERM` array.
    pub fn as_forward(&self) -> &[usize] {
        &self.perm
    }

    /// The raw `IPERM` array.
    pub fn as_backward(&self) -> &[usize] {
        &self.iperm
    }

    /// The inverse permutation as a value.
    pub fn inverse(&self) -> Permutation {
        Permutation { perm: self.iperm.clone(), iperm: self.perm.clone() }
    }

    /// Gather a vector through the permutation: `out[perm[i]] = v[i]`,
    /// i.e. element `i` moves to its permuted position.
    pub fn apply_to_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len(), "vector/permutation length mismatch");
        let mut out = vec![0.0; v.len()];
        for (i, &x) in v.iter().enumerate() {
            out[self.perm[i]] = x;
        }
        out
    }

    /// Inverse application: `out[i] = v[perm[i]]`.
    pub fn unapply_to_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len(), "vector/permutation length mismatch");
        (0..v.len()).map(|i| v[self.perm[i]]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.forward(i), i);
            assert_eq!(p.backward(i), i);
        }
    }

    #[test]
    fn from_forward_validates() {
        assert!(Permutation::from_forward(vec![1, 2, 0]).is_ok());
        assert!(Permutation::from_forward(vec![1, 1, 0]).is_err());
        assert!(Permutation::from_forward(vec![0, 3]).is_err());
    }

    #[test]
    fn forward_backward_inverse() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]).unwrap();
        for i in 0..4 {
            assert_eq!(p.backward(p.forward(i)), i);
            assert_eq!(p.forward(p.backward(i)), i);
        }
        let inv = p.inverse();
        for i in 0..4 {
            assert_eq!(inv.forward(i), p.backward(i));
        }
    }

    #[test]
    fn sorting_permutation_sorts() {
        // Jagged-diagonal use case: sort rows by descending row length.
        let row_lens = [2usize, 5, 1, 4];
        let neg: Vec<isize> = row_lens.iter().map(|&l| -(l as isize)).collect();
        let p = Permutation::sorting(&neg);
        // Row 1 (len 5) should land first, then row 3, row 0, row 2.
        assert_eq!(p.forward(1), 0);
        assert_eq!(p.forward(3), 1);
        assert_eq!(p.forward(0), 2);
        assert_eq!(p.forward(2), 3);
    }

    #[test]
    fn sorting_is_stable() {
        let keys = [1, 0, 1, 0];
        let p = Permutation::sorting(&keys);
        // The two zeros keep their relative order, as do the ones.
        assert!(p.forward(1) < p.forward(3));
        assert!(p.forward(0) < p.forward(2));
    }

    #[test]
    fn apply_unapply_roundtrip() {
        let p = Permutation::from_forward(vec![2, 0, 1]).unwrap();
        let v = vec![10.0, 20.0, 30.0];
        let w = p.apply_to_vec(&v);
        assert_eq!(w, vec![20.0, 30.0, 10.0]);
        assert_eq!(p.unapply_to_vec(&w), v);
    }
}
