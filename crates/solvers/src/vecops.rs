//! Dense vector primitives: the serial bodies, and the same operations
//! dispatched through an [`ExecCtx`]'s pool.
//!
//! Every inner product has one summation order, serial, parallel and
//! rank-local alike. The vectors are cut into blocks of 1 024 elements
//! at multiples of 1 024; inside a block element `k` goes to lane
//! `k mod 8`, and the lanes combine by the fixed tree
//! `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`; the block sums are added in
//! ascending order from `+0.0`. Eight independent chains run at the
//! speed of the loads, where one accumulator runs at the latency of its
//! add chain, and a block is the unit a parallel [`par_dot`] splits at,
//! so its bits are [`dot`]'s for any worker count.

use bernoulli_formats::ExecCtx;

/// Elements per block of the inner-product shape; blocks start at
/// multiples of `BLOCK` (a multiple of the lane count).
const BLOCK: usize = 1024;

/// Accumulator lanes inside a block.
const LANES: usize = 8;

/// One block's `Σ aᵢ·bᵢ`: element `k` into lane `k mod 8`, the lanes
/// combined by a fixed tree.
fn block_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut l = [0.0; LANES];
    let (a8, a_tail) = a.as_chunks::<LANES>();
    let (b8, b_tail) = b.as_chunks::<LANES>();
    for (x, y) in a8.iter().zip(b8) {
        for k in 0..LANES {
            l[k] += x[k] * y[k];
        }
    }
    for (k, (x, y)) in a_tail.iter().zip(b_tail).enumerate() {
        l[k] += x * y;
    }
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `Σ aᵢ·bᵢ` in the one inner-product shape (see the module docs).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.chunks(BLOCK).zip(b.chunks(BLOCK)).fold(0.0, |acc, (a, b)| acc + block_dot(a, b))
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

/// Shared-memory parallel `Σ aᵢ·bᵢ`, bit-identical to [`dot`] for any
/// worker count and threshold: the workers split the blocks, and the
/// block sums are added in ascending order as [`dot`] adds them.
pub fn par_dot(a: &[f64], b: &[f64], exec: &ExecCtx) -> f64 {
    assert_eq!(a.len(), b.len());
    if !exec.should_parallelize(a.len()) {
        return dot(a, b);
    }
    let mut sums = vec![0.0; a.len().div_ceil(BLOCK)];
    exec.par_blocks(&mut sums, 1, |first, out| {
        let lo = first * BLOCK;
        for (s, (a, b)) in out.iter_mut().zip(a[lo..].chunks(BLOCK).zip(b[lo..].chunks(BLOCK))) {
            *s = block_dot(a, b);
        }
    });
    sums.iter().fold(0.0, |acc, s| acc + s)
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

    /// Inputs whose products are inexact in binary, so a different
    /// association of the sum shows in the bits.
    fn rounding_inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..n).map(|i| ((i * 31 % 97) as f64) * 0.1 - 3.0).collect();
        let b = (0..n).map(|i| ((i * 17 % 89) as f64) * 0.3 - 5.0).collect();
        (a, b)
    }

    /// The shape written out index by index: lane `g mod 8` of block
    /// `g / BLOCK`, the fixed tree, blocks ascending from `+0.0`.
    fn shape_by_index(a: &[f64], b: &[f64]) -> f64 {
        let mut total = 0.0;
        for blk in 0..a.len().div_ceil(BLOCK) {
            let mut l = [0.0; 8];
            for g in blk * BLOCK..((blk + 1) * BLOCK).min(a.len()) {
                l[g % 8] += a[g] * b[g];
            }
            total += ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        }
        total
    }

    #[test]
    fn dot_is_the_blocked_eight_lane_shape() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut random_n = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 9000) as usize
        };
        let lens: Vec<usize> = [0, 1, 7, 8, 9, 1023, 1024, 1025, 4101].into_iter().chain((0..6).map(|_| random_n())).collect();
        for n in lens {
            let (a, b) = rounding_inputs(n);
            let want = dot(&a, &b).to_bits();
            assert_eq!(want, shape_by_index(&a, &b).to_bits(), "n = {n}");
            for workers in 1..=4 {
                let exec = ExecCtx::with_threads(workers).threshold(1);
                assert_eq!(par_dot(&a, &b, &exec).to_bits(), want, "n = {n}, {workers} workers");
            }
        }
    }

    #[test]
    fn dot_is_exact_on_small_integers() {
        // Every partial sum is an integer below 2⁵³, so any association
        // gives the exact sum, and the shape must too.
        for n in [1, 9, 1025, 5000] {
            let a: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
            let exact: i64 = (0..n as i64).map(|i| (i % 13 - 6) * (i % 7 - 3)).sum();
            assert_eq!(dot(&a, &b), exact as f64, "n = {n}");
        }
        assert_eq!(dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn parallel_element_wise_ops_match_serial() {
        let n = 10_000;
        let (a, b) = rounding_inputs(n);
        let exec = ExecCtx::with_threads(4).threshold(1);
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
}
