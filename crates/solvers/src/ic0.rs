//! Incomplete Cholesky factorisation with zero fill — IC(0).
//!
//! The paper's §6 names "matrix factorizations (full and incomplete)
//! and triangular linear system solution" as the next kernels the
//! Bernoulli approach targets; this module supplies that substrate:
//! the IC(0) factor on the lower-triangular CSR pattern, sparse
//! forward/backward triangular solves, and a [`Preconditioner`] so the
//! existing CG drives it unchanged.

use crate::precond::Preconditioner;
use bernoulli_formats::{kernels, Csr, Triplets};

/// Errors from incomplete factorisation.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// Pivot became non-positive at the given row (matrix not SPD
    /// enough for IC(0) without shifting).
    Breakdown { row: usize, pivot: f64 },
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Breakdown { row, pivot } => {
                write!(f, "IC(0) breakdown at row {row}: pivot {pivot}")
            }
            FactorError::NotSquare => write!(f, "IC(0) requires a square matrix"),
        }
    }
}

impl std::error::Error for FactorError {}

/// The IC(0) factor: `A ≈ L·Lᵀ` with `pattern(L) = pattern(lower(A))`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ic0 {
    /// Lower-triangular factor including the diagonal, CSR,
    /// columns sorted within each row (diagonal last).
    l: Csr,
}

impl Ic0 {
    /// Factor a symmetric positive definite matrix.
    pub fn factor(t: &Triplets) -> Result<Ic0, FactorError> {
        if t.nrows() != t.ncols() {
            return Err(FactorError::NotSquare);
        }
        // Lower triangle of A in CSR (sorted columns, diagonal last).
        let mut lower = Triplets::new(t.nrows(), t.ncols());
        for &(r, c, v) in t.canonicalize().entries() {
            if c <= r {
                lower.push(r, c, v);
            }
        }
        let a = Csr::from_triplets(&lower);
        let n = a.nrows();
        let rowptr = a.rowptr().to_vec();
        let colind = a.colind().to_vec();
        let mut vals = a.vals().to_vec();

        // Row-oriented up-looking IC(0).
        for i in 0..n {
            let (ri, re) = (rowptr[i], rowptr[i + 1]);
            if re == ri || colind[re - 1] != i {
                return Err(FactorError::Breakdown { row: i, pivot: 0.0 });
            }
            for kk in ri..re {
                let j = colind[kk];
                // dot of rows i and j over columns < j.
                let mut sum = 0.0;
                {
                    let (mut p, mut q) = (ri, rowptr[j]);
                    let (pe, qe) = (re, rowptr[j + 1]);
                    while p < pe && q < qe && colind[p] < j && colind[q] < j {
                        match colind[p].cmp(&colind[q]) {
                            std::cmp::Ordering::Less => p += 1,
                            std::cmp::Ordering::Greater => q += 1,
                            std::cmp::Ordering::Equal => {
                                sum += vals[p] * vals[q];
                                p += 1;
                                q += 1;
                            }
                        }
                    }
                }
                if j < i {
                    // Off-diagonal: L(i,j) = (A(i,j) − Σ) / L(j,j).
                    let djj = vals[rowptr[j + 1] - 1];
                    vals[kk] = (vals[kk] - sum) / djj;
                } else {
                    // Diagonal: L(i,i) = sqrt(A(i,i) − Σ).
                    let radicand = vals[kk] - sum;
                    if radicand <= 0.0 {
                        return Err(FactorError::Breakdown { row: i, pivot: radicand });
                    }
                    vals[kk] = radicand.sqrt();
                }
            }
        }
        let l = Csr::from_raw(n, n, rowptr, colind, vals);
        Ok(Ic0 { l })
    }

    /// Factor with a diagonal shift retry: tries `A`, then
    /// `A + shift·diag(A)` with growing shift until IC(0) succeeds.
    pub fn factor_shifted(t: &Triplets, max_tries: usize) -> Result<Ic0, FactorError> {
        let mut shift = 0.0;
        let diag = t.diagonal();
        for _ in 0..=max_tries {
            let mut shifted = t.clone();
            if shift > 0.0 {
                for (i, &d) in diag.iter().enumerate() {
                    shifted.push(i, i, shift * d.abs().max(1.0));
                }
            }
            match Ic0::factor(&shifted) {
                Ok(f) => return Ok(f),
                Err(FactorError::NotSquare) => return Err(FactorError::NotSquare),
                Err(_) => shift = if shift == 0.0 { 1e-3 } else { shift * 10.0 },
            }
        }
        Ic0::factor(t)
    }

    /// The factor `L`.
    pub fn l(&self) -> &Csr {
        &self.l
    }

    /// Forward substitution: solve `L w = r` through the shared SpTRSV
    /// path ([`kernels::sptrsv_csr_lower`]): subtract the strictly-lower
    /// entries in storage order (nearest dependency last), then multiply
    /// by the reciprocal of the diagonal stored last — pinned bitwise by
    /// `hand_rolled_loops_reproduced_bitwise`.
    pub fn forward(&self, r: &[f64], w: &mut [f64]) {
        kernels::sptrsv_csr_lower(&self.l, false, r, w);
    }

    /// Backward substitution: solve `Lᵀ z = w` through the shared
    /// SpTRSV path ([`kernels::sptrsv_csr_lower_transposed`]) — the
    /// same column-oriented reverse scatter sweep as the historical
    /// loop, bitwise-pinned alongside [`Ic0::forward`].
    pub fn backward(&self, w: &[f64], z: &mut [f64]) {
        kernels::sptrsv_csr_lower_transposed(&self.l, false, w, z);
    }
}

impl Preconditioner for Ic0 {
    fn dim(&self) -> usize {
        self.l.nrows()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        let mut w = vec![0.0; r.len()];
        self.forward(r, &mut w);
        self.backward(&w, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{cg, CgOptions};
    use bernoulli::ExecCtx;
    use crate::precond::DiagonalPreconditioner;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_formats::DenseMatrix;

    #[test]
    fn factor_of_diagonal_matrix_is_sqrt() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 4.0), (1, 1, 9.0), (2, 2, 16.0)]);
        let f = Ic0::factor(&t).unwrap();
        assert_eq!(f.l().vals(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn exact_for_tridiagonal_spd() {
        // For a tridiagonal SPD matrix IC(0) IS the complete Cholesky:
        // L Lᵀ must reproduce A exactly.
        let mut t = Triplets::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 4.0);
            if i + 1 < 5 {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let f = Ic0::factor(&t).unwrap();
        let l = DenseMatrix::from_triplets(&f.l().to_triplets());
        let n = 5;
        let a = DenseMatrix::from_triplets(&t);
        for i in 0..n {
            for j in 0..n {
                let mut llt = 0.0;
                for k in 0..n {
                    llt += l[(i, k)] * l[(j, k)];
                }
                assert!((llt - a[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solves_invert_the_factor() {
        let t = grid2d_5pt(5, 5);
        let f = Ic0::factor(&t).unwrap();
        let n = t.nrows();
        let r: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut w = vec![0.0; n];
        f.forward(&r, &mut w);
        // L w = r.
        let l = f.l();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let mut acc = 0.0;
            for (k, &c) in l.row_cols(i).iter().enumerate() {
                acc += l.row_vals(i)[k] * w[c];
            }
            assert!((acc - r[i]).abs() < 1e-9, "row {i}");
        }
        let mut z = vec![0.0; n];
        f.backward(&w, &mut z);
        // Lᵀ z = w.
        let mut acc = vec![0.0; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for (k, &c) in l.row_cols(i).iter().enumerate() {
                acc[c] += l.row_vals(i)[k] * z[i];
            }
        }
        for (a, b) in acc.iter().zip(&w) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ic0_pcg_beats_diagonal_pcg() {
        let t = grid2d_5pt(16, 16);
        let n = t.nrows();
        let a = bernoulli_formats::Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let opts = CgOptions { max_iters: 500, rel_tol: 1e-10 };
        let mut x1 = vec![0.0; n];
        let diag = DiagonalPreconditioner::from_matrix(&t);
        let r1 = cg(&a, &diag, &b, &mut x1, opts, &ExecCtx::default()).unwrap();
        let mut x2 = vec![0.0; n];
        let ic = Ic0::factor(&t).unwrap();
        let r2 = cg(&a, &ic, &b, &mut x2, opts, &ExecCtx::default()).unwrap();
        assert!(r1.converged && r2.converged);
        assert!(
            r2.iters < r1.iters,
            "IC(0) PCG took {} iters vs diagonal's {}",
            r2.iters,
            r1.iters
        );
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn hand_rolled_loops_reproduced_bitwise() {
        // `forward`/`backward` now route through the shared SpTRSV
        // kernels; this pins them bitwise against local hand-rolled
        // loops (forward closes with the row body's reciprocal multiply)
        // so CG+IC0 goldens cannot drift.
        let f = Ic0::factor(&grid2d_5pt(9, 11)).unwrap();
        let l = f.l();
        let n = l.nrows();
        let (rowptr, colind, vals) = (l.rowptr(), l.colind(), l.vals());
        let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 3.0 - 2.0).collect();

        let mut w_old = vec![0.0; n];
        for i in 0..n {
            let mut acc = r[i];
            let (s, e) = (rowptr[i], rowptr[i + 1]);
            for k in s..e - 1 {
                acc -= vals[k] * w_old[colind[k]];
            }
            w_old[i] = acc * (1.0 / vals[e - 1]);
        }
        let mut w_new = vec![0.0; n];
        f.forward(&r, &mut w_new);
        for (a, b) in w_old.iter().zip(&w_new) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut z_old = w_old.clone();
        for i in (0..n).rev() {
            let (s, e) = (rowptr[i], rowptr[i + 1]);
            z_old[i] /= vals[e - 1];
            let zi = z_old[i];
            for k in s..e - 1 {
                z_old[colind[k]] -= vals[k] * zi;
            }
        }
        let mut z_new = vec![0.0; n];
        f.backward(&w_new, &mut z_new);
        for (a, b) in z_old.iter().zip(&z_new) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn breakdown_detected_and_shift_recovers() {
        // Indefinite matrix: plain IC(0) must break down.
        let t = Triplets::from_entries(2, 2, &[(0, 0, 1.0), (1, 1, -1.0)]);
        assert!(matches!(Ic0::factor(&t), Err(FactorError::Breakdown { .. })));
        // A strong diagonal shift rescues it.
        assert!(Ic0::factor_shifted(&t, 8).is_ok());
        // Rectangular rejected.
        let r = Triplets::new(2, 3);
        assert_eq!(Ic0::factor(&r), Err(FactorError::NotSquare));
    }
}
