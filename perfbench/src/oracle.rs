//! Reference results computed straight off canonical triplets, sharing
//! no code with the kernels, engines or solvers under test.

use bernoulli_formats::Triplets;

/// Relative slack for results that only differ by summation order.
const ORDER_TOL: f64 = 1e-12;

/// `A·X` for a row-major `ncols × k` block `x`, plus per-entry
/// `Σ|a|·|x|` (the scale rounding errors are relative to).
pub fn spmv_multi(t: &Triplets, x: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
    let mut y = vec![0.0; t.nrows() * k];
    let mut scale = vec![0.0; t.nrows() * k];
    for &(r, c, v) in t.entries() {
        for j in 0..k {
            y[r * k + j] += v * x[c * k + j];
            scale[r * k + j] += (v * x[c * k + j]).abs();
        }
    }
    (y, scale)
}

/// `y[i] = min_j (a[i][j] + x[j])` over stored entries, `+inf` for an
/// empty row. `min` is exact, so the kernels must match bit for bit.
pub fn min_plus(t: &Triplets, x: &[f64]) -> Vec<f64> {
    let mut y = vec![f64::INFINITY; t.nrows()];
    for &(r, c, v) in t.entries() {
        y[r] = y[r].min(v + x[c]);
    }
    y
}

/// True when `actual` matches `expected` to summation-order rounding.
pub fn close(actual: &[f64], expected: &[f64], scale: &[f64]) -> bool {
    actual.len() == expected.len()
        && actual.iter().zip(expected).zip(scale).all(|((a, e), s)| (a - e).abs() <= ORDER_TOL * s.max(1.0))
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True when `x` solves the triangular system `L·x = b`.
pub fn solves(lower: &Triplets, x: &[f64], b: &[f64]) -> bool {
    x.len() == lower.ncols() && {
        let (lx, scale) = spmv_multi(lower, x, 1);
        close(&lx, b, &scale)
    }
}

/// True when `z` is the symmetric Gauss-Seidel application to `r`:
/// `(D+L)·D⁻¹·(D+U)·z = r`, checked as two triangular products.
pub fn is_symgs_of(a: &Triplets, z: &[f64], r: &[f64]) -> bool {
    let n = a.nrows();
    if z.len() != n {
        return false;
    }
    let (mut diag, mut upper, mut uscale) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for &(i, j, v) in a.entries() {
        if i == j {
            diag[i] = v;
        }
        if j >= i {
            upper[i] += v * z[j];
            uscale[i] += (v * z[j]).abs();
        }
    }
    let mid: Vec<f64> = upper.iter().zip(&diag).map(|(u, d)| u / d).collect();
    let (mut lhs, mut scale) = (vec![0.0; n], vec![0.0; n]);
    for &(i, j, v) in a.entries() {
        if j <= i {
            lhs[i] += v * mid[j];
            scale[i] += (v * uscale[j] / diag[j]).abs();
        }
    }
    close(&lhs, r, &scale)
}

/// `‖b − A·x‖₂ / ‖b‖₂`.
pub fn rel_residual(a: &Triplets, x: &[f64], b: &[f64]) -> f64 {
    let mut r = b.to_vec();
    for &(i, j, v) in a.entries() {
        r[i] -= v * x[j];
    }
    norm2(&r) / norm2(b)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `‖r‖₂` before and after each of `iters` iterations of CG
/// preconditioned by `diag(A)`, from a zero initial guess (textbook
/// recurrences, triplet-walk products).
pub fn jacobi_cg_history(a: &Triplets, b: &[f64], iters: usize) -> Vec<f64> {
    let n = b.len();
    let diag = a.diagonal();
    let precond = |r: &[f64]| -> Vec<f64> { r.iter().zip(&diag).map(|(r, d)| r / d).collect() };
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = precond(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut history = vec![norm2(&r)];
    for _ in 0..iters {
        let mut ap = vec![0.0; n];
        for &(i, j, v) in a.entries() {
            ap[i] += v * p[j];
        }
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        z = precond(&r);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        history.push(norm2(&r));
    }
    history
}

/// True when two residual histories agree to `tol`, relative to the
/// initial residual.
pub fn histories_agree(actual: &[f64], expected: &[f64], tol: f64) -> bool {
    actual.len() == expected.len() && actual.iter().zip(expected).all(|(a, e)| (a - e).abs() <= tol * expected[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::grid2d_5pt;

    #[test]
    fn oracles_accept_exact_answers_and_reject_wrong_ones() {
        let t = grid2d_5pt(4, 4).canonicalize();
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();

        let (y, scale) = spmv_multi(&t, &x, 1);
        let mut via_dense = vec![0.0; n];
        t.matvec_acc(&x, &mut via_dense);
        assert!(close(&via_dense, &y, &scale));
        via_dense[3] += 1e-6;
        assert!(!close(&via_dense, &y, &scale));

        // x = A⁻¹b from enough CG iterations has a tiny true residual.
        let b = y;
        let hist = jacobi_cg_history(&t, &b, 40);
        assert!(hist[40] < 1e-10 * hist[0]);
        assert!(rel_residual(&t, &x, &b) < 1e-14);
        assert!(histories_agree(&hist, &hist, 0.0));
        assert!(!histories_agree(&hist[..5], &hist[1..6], 1e-9));
    }
}
