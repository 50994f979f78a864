//! Dense vector primitives, sequential and distributed.
//!
//! The distributed variants operate on each processor's local fragment
//! and reduce across the machine — the vector side of the paper's CG
//! experiments, where vectors are distributed exactly like the matrix
//! rows.

use bernoulli_formats::ExecCtx;
use bernoulli_relational::semiring::{F64Plus, Semiring};
use bernoulli_spmd::machine::Ctx;

/// `⊕ᵢ (aᵢ ⊗ bᵢ)` — the dot product under an arbitrary semiring: the
/// classical inner product at [`F64Plus`], the cheapest relaxed path
/// through paired hops at `MinPlus`, existence of a matching pair at
/// `BoolOrAnd`. The fold runs left to right from `S::zero()`, so at
/// [`F64Plus`] it is bit-identical to [`dot`].
pub fn dot_in<S: Semiring>(a: &[S::Elem], b: &[S::Elem]) -> S::Elem {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(S::zero(), |acc, (&x, &y)| S::plus(acc, S::times(x, y)))
}

/// `Σ aᵢ·bᵢ`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_in::<F64Plus>(a, b)
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
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

/// `y ← alpha·y`.
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yv in y.iter_mut() {
        *yv *= alpha;
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

/// Shared-memory parallel Euclidean norm (see [`par_dot`]).
pub fn par_norm2(a: &[f64], exec: &ExecCtx) -> f64 {
    par_dot(a, a, exec).sqrt()
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

/// Distributed dot product: local part + all-reduce.
pub fn dot_dist(ctx: &mut Ctx, a_local: &[f64], b_local: &[f64]) -> f64 {
    ctx.all_reduce_sum(dot(a_local, b_local))
}

/// Distributed semiring dot over f64-element algebras: the local
/// ⊕-fold of [`dot_in`], combined across ranks by the machine's
/// ⊕-all-reduce (which insists on an associative-commutative ⊕ — see
/// `Ctx::all_reduce_semiring`).
pub fn dot_dist_in<S: Semiring<Elem = f64>>(
    ctx: &mut Ctx,
    a_local: &[f64],
    b_local: &[f64],
) -> f64 {
    let local = dot_in::<S>(a_local, b_local);
    ctx.all_reduce_semiring::<S>(local)
}

/// Distributed Euclidean norm.
pub fn norm2_dist(ctx: &mut Ctx, a_local: &[f64]) -> f64 {
    ctx.all_reduce_sum(dot(a_local, a_local)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_spmd::machine::Machine;

    #[test]
    fn sequential_ops() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, -1.0, 0.5];
        assert_eq!(dot(&a, &b), 4.0 - 2.0 + 1.5);
        assert!((norm2(&a) - 14.0f64.sqrt()).abs() < 1e-15);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![6.0, 3.0, 6.5]);
        let mut y = b.clone();
        xpby(&a, 0.5, &mut y);
        assert_eq!(y, vec![3.0, 1.5, 3.25]);
        let mut y = b;
        scale(-2.0, &mut y);
        assert_eq!(y, vec![-8.0, 2.0, -1.0]);
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
        assert!((norm2(&a) - par_norm2(&a, &exec)).abs() <= 1e-12 * norm2(&a));
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

    #[test]
    fn semiring_dot_generalizes_the_classical_one() {
        use bernoulli_relational::semiring::MinPlus;
        let a = vec![1.0, 2.0, 3.0, -0.5];
        let b = vec![4.0, -1.0, 0.5, 2.0];
        // At F64Plus the generic fold is bit-identical to dot().
        assert_eq!(dot_in::<F64Plus>(&a, &b).to_bits(), dot(&a, &b).to_bits());
        // At MinPlus it is the cheapest paired hop: min over aᵢ + bᵢ.
        assert_eq!(dot_in::<MinPlus>(&a, &b), 1.0);
        assert_eq!(dot_in::<MinPlus>(&[], &[]), f64::INFINITY);
    }

    #[test]
    fn distributed_semiring_dot_reduces_with_the_algebra() {
        use bernoulli_relational::semiring::MinPlus;
        let n = 12;
        let a: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) * 0.5).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) * 0.25 - 1.0).collect();
        let want = dot_in::<MinPlus>(&a, &b);
        let out = Machine::run(3, |ctx| {
            let lo = (ctx.rank() * n) / 3;
            let hi = ((ctx.rank() + 1) * n) / 3;
            dot_dist_in::<MinPlus>(ctx, &a[lo..hi], &b[lo..hi])
        });
        for got in out.results {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn distributed_dot_matches_sequential() {
        let n = 10;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let want = dot(&a, &b);
        let out = Machine::run(3, |ctx| {
            // Block partition: rank r owns indices r*4..min(n,(r+1)*4)-ish.
            let lo = (ctx.rank() * n) / 3;
            let hi = ((ctx.rank() + 1) * n) / 3;
            dot_dist(ctx, &a[lo..hi], &b[lo..hi])
        });
        for got in out.results {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_norm() {
        let out = Machine::run(2, |ctx| {
            let local = vec![3.0 * (ctx.rank() as f64 + 1.0)]; // 3 and 6
            norm2_dist(ctx, &local)
        });
        for got in out.results {
            assert!((got - 45.0f64.sqrt()).abs() < 1e-12);
        }
    }
}
