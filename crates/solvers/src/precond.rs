//! Preconditioners: the trait, the identity, and the diagonal (Jacobi)
//! instance used by the paper's CG experiments. Symmetric Gauss-Seidel
//! lives in [`crate::symgs`].

use bernoulli_formats::Triplets;

/// Application of `z = M⁻¹ r` for some preconditioner `M ≈ A`.
pub trait Preconditioner {
    /// Problem dimension.
    fn dim(&self) -> usize;

    /// `z ← M⁻¹ r` (overwrites `z`).
    fn precondition(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner (plain CG).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdentityPreconditioner {
    pub n: usize,
}

impl Preconditioner for IdentityPreconditioner {
    fn dim(&self) -> usize {
        self.n
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// `M = diag(A)`; application is `z = M⁻¹ r`.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagonalPreconditioner {
    inv_diag: Vec<f64>,
}

impl DiagonalPreconditioner {
    /// From an explicit diagonal. Zero entries are treated as 1
    /// (identity on that component) so the preconditioner is always
    /// applicable.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        DiagonalPreconditioner {
            inv_diag: diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 }).collect(),
        }
    }

    /// From a matrix in triplet form.
    pub fn from_matrix(t: &Triplets) -> Self {
        Self::from_diagonal(&t.diagonal())
    }

    pub fn len(&self) -> usize {
        self.inv_diag.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inv_diag.is_empty()
    }

    /// `z ← M⁻¹ r`.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len());
        assert_eq!(z.len(), self.inv_diag.len());
        for ((zv, &rv), &inv) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zv = rv * inv;
        }
    }

    /// Restrict to a subset of rows (building a processor's local
    /// preconditioner from the global diagonal).
    pub fn restrict(&self, rows: &[usize]) -> DiagonalPreconditioner {
        DiagonalPreconditioner {
            inv_diag: rows.iter().map(|&r| self.inv_diag[r]).collect(),
        }
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn dim(&self) -> usize {
        self.len()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.apply(r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_inverse_diagonal() {
        let p = DiagonalPreconditioner::from_diagonal(&[2.0, 4.0, 0.5]);
        let mut z = vec![0.0; 3];
        p.apply(&[2.0, 2.0, 2.0], &mut z);
        assert_eq!(z, vec![1.0, 0.5, 4.0]);
    }

    #[test]
    fn zero_diagonal_falls_back_to_identity() {
        let p = DiagonalPreconditioner::from_diagonal(&[0.0, 5.0]);
        let mut z = vec![0.0; 2];
        p.apply(&[3.0, 5.0], &mut z);
        assert_eq!(z, vec![3.0, 1.0]);
    }

    #[test]
    fn from_matrix_extracts_diagonal() {
        let t = Triplets::from_entries(2, 2, &[(0, 0, 4.0), (0, 1, 9.0), (1, 1, 2.0)]);
        let p = DiagonalPreconditioner::from_matrix(&t);
        let mut z = vec![0.0; 2];
        p.apply(&[4.0, 4.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0]);
    }

    #[test]
    fn restrict_selects_rows() {
        let p = DiagonalPreconditioner::from_diagonal(&[1.0, 2.0, 4.0, 8.0]);
        let r = p.restrict(&[3, 1]);
        let mut z = vec![0.0; 2];
        r.apply(&[8.0, 8.0], &mut z);
        assert_eq!(z, vec![1.0, 4.0]);
    }
}
