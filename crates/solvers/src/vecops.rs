//! Dense vector primitives: the serial bodies, and the same operations
//! dispatched through an [`ExecCtx`]'s pool.

use bernoulli_formats::ExecCtx;

/// `Σ aᵢ·bᵢ`, summed left to right.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y)
}

/// `y ← y + alpha·x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y ← x + beta·y` (the CG direction update).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = xv + beta * *yv;
    }
}

/// Shared-memory parallel `Σ aᵢ·bᵢ`.
///
/// Falls back to the serial [`dot`] below `exec`'s work threshold.
/// When parallel, each worker sums a contiguous chunk and the partials
/// are combined in fixed chunk order, so the result is deterministic
/// for a given `ExecCtx` (though the association differs from the
/// serial left-to-right sum by O(n·ε) rounding).
pub fn par_dot(a: &[f64], b: &[f64], exec: &ExecCtx) -> f64 {
    assert_eq!(a.len(), b.len());
    if !exec.should_parallelize(a.len()) {
        return dot(a, b);
    }
    exec.par_ranges(a.len(), |lo, hi| dot(&a[lo..hi], &b[lo..hi])).iter().sum()
}

/// Shared-memory parallel `y ← y + alpha·x`. Element-wise, so the
/// result is bit-identical to [`axpy`] for any worker count.
pub fn par_axpy(alpha: f64, x: &[f64], y: &mut [f64], exec: &ExecCtx) {
    assert_eq!(x.len(), y.len());
    if !exec.should_parallelize(y.len()) {
        return axpy(alpha, x, y);
    }
    exec.par_blocks(y, 1, |lo, yc| axpy(alpha, &x[lo..lo + yc.len()], yc));
}

/// Shared-memory parallel `y ← x + beta·y` (bit-identical to [`xpby`]).
pub fn par_xpby(x: &[f64], beta: f64, y: &mut [f64], exec: &ExecCtx) {
    assert_eq!(x.len(), y.len());
    if !exec.should_parallelize(y.len()) {
        return xpby(x, beta, y);
    }
    exec.par_blocks(y, 1, |lo, yc| xpby(&x[lo..lo + yc.len()], beta, yc));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ops() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, -1.0, 0.5];
        assert_eq!(dot(&a, &b), 4.0 - 2.0 + 1.5);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![6.0, 3.0, 6.5]);
        let mut y = b;
        xpby(&a, 0.5, &mut y);
        assert_eq!(y, vec![3.0, 1.5, 3.25]);
    }

    #[test]
    fn parallel_ops_match_serial() {
        let n = 10_000;
        let a: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64) * 0.125 - 3.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 17 % 89) as f64) * 0.25 - 5.0).collect();
        let exec = ExecCtx::with_threads(4).threshold(1);
        // Reduction: chunked partials, tight tolerance vs serial.
        let ds = dot(&a, &b);
        let dp = par_dot(&a, &b, &exec);
        assert!((ds - dp).abs() <= 1e-12 * ds.abs().max(1.0));
        // Element-wise ops: bit-identical partitioning.
        let mut y1 = b.clone();
        let mut y2 = b.clone();
        axpy(1.5, &a, &mut y1);
        par_axpy(1.5, &a, &mut y2, &exec);
        assert_eq!(y1, y2);
        let mut y1 = b.clone();
        let mut y2 = b.clone();
        xpby(&a, -0.75, &mut y1);
        par_xpby(&a, -0.75, &mut y2, &exec);
        assert_eq!(y1, y2);
    }

    #[test]
    fn parallel_ops_below_threshold_are_serial() {
        let exec = ExecCtx::with_threads(4); // default ~32k threshold
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, -1.0, 0.5];
        // Small vectors take the serial path: exact same bits as dot().
        assert_eq!(par_dot(&a, &b, &exec).to_bits(), dot(&a, &b).to_bits());
    }
}
