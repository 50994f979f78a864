//! The shared-memory parallel tier: three generic drivers over the
//! ranged bodies of [`crate::kernels`]. No loop body lives here — a
//! parallel kernel is the *serial* body of its format run under the
//! driver its [`Family`] names, so the two tiers cannot drift apart —
//! and no thread is spawned here: every driver forks through
//! [`ExecCtx::par_blocks`] / [`ExecCtx::par_ranges`].
//!
//! **Row family** (CRS, ITPACK, JDIAG, Diagonal, i-node, Dense,
//! CRS × skinny-dense) — `par_blocks` itself: the output vector is
//! split into one contiguous block of rows per worker. Each
//! `y[i]` is written by exactly one worker, with the *same per-element
//! operation order* as the serial tier — so the result is **bit-for-bit
//! identical** to serial, for any worker count, with no atomics and no
//! extra memory, under *any* semiring, including non-commutative ⊕
//! (mirroring the race checker's algebra-independent `DisjointWrites`
//! certificate).
//!
//! **`par_scatter` — scatter family** (CCS, CCCS, COO): the stored
//! items are split into one range per worker (`par_ranges`), each
//! accumulated into a thread-local full-length vector, and the partials
//! are merged into `y` in fixed range order (itself a `par_blocks` pass).
//! The merge order is deterministic for a given worker count, but
//! partial accumulation re-associates and re-orders ⊕ — sound only when
//! ⊕ is an associative-commutative monoid (the `Reduction` certificate;
//! for f64 "sound" means agreement with serial to rounding, ≤ 1e-12
//! relative for reasonable inputs — the usual contract for parallel
//! reductions). For a semiring whose ⊕ is **not** AC the driver refuses
//! to split and runs the body serially, exactly as the race checker
//! refuses the nest with BA06.
//!
//! **`par_wave` — DO-ACROSS** (SpTRSV, Gauss-Seidel): levels of a
//! certified [`LevelSchedule`] run in order (a backward Gauss-Seidel
//! sweep walks its one schedule in reverse); within a level the
//! (mutually independent) rows are computed into a scratch wave by
//! `par_blocks`, then written back serially in schedule order. Each row
//! replays the serial row update and every dependence it reads was
//! finalized by an earlier level, so the result is **bit-for-bit
//! identical** to the serial sweep for any worker count. Soundness is
//! not taken on faith: the driver re-checks [`WavefrontCert::covers`]
//! at entry — the certificate is only constructible by the analysis
//! pass and binds the relation it proved, the operand (its
//! `OperandBinding`: index arrays and their digest) and the exact
//! schedule — and falls back to the serial sweep on any
//! mismatch, exactly like the fast tier's certificate re-check.
//!
//! The primitives own the worker gate and the chunk geometry; below
//! the gate they run the body over the whole range on the calling
//! thread, which *is* the serial tier.
//! Work-size thresholds are the caller's business
//! ([`crate::SparseMatrix::spmv_acc_on`], `core::pipeline`).

use crate::exec::ExecCtx;
use crate::kernels::{self, Family, SplitStep, SpmvBody, SweepSplit};
use crate::Csr;
use bernoulli_analysis::wavefront::{LevelSchedule, Relation, Triangle, WavefrontCert};
use bernoulli_relational::semiring::{F64Plus, Semiring};

/// Scatter driver: accumulate each range of `0..items` into a
/// thread-local partial via `body(lo, hi, partial)`, then merge the
/// partials into `y` in fixed range order. Runs `body` straight into
/// `y` — the serial tier — below the worker gate, for fewer than two
/// items, and for a ⊕ that is not associative-commutative (merging
/// partials reassociates and commutes it).
pub(crate) fn par_scatter<S: Semiring>(
    exec: &ExecCtx,
    items: usize,
    y: &mut [S::Elem],
    body: impl Fn(usize, usize, &mut [S::Elem]) + Sync,
) {
    let ac = S::PLUS_IS_ASSOCIATIVE && S::PLUS_IS_COMMUTATIVE;
    if !ac || y.is_empty() || exec.threads_hint().min(items) <= 1 {
        return body(0, items, y);
    }
    let n = y.len();
    let partials = exec.par_ranges(items, |lo, hi| {
        let mut part = vec![S::zero(); n];
        body(lo, hi, &mut part);
        part
    });
    exec.par_blocks(y, 1, |r0, yc| {
        for part in &partials {
            for (yv, &pv) in yc.iter_mut().zip(&part[r0..]) {
                *yv = S::plus(*yv, pv);
            }
        }
    });
}

/// `y ⊕= A·x` on the parallel tier: the format's one ranged body under
/// its family's driver (see the module docs for the result-vs-serial
/// contract of each).
pub fn par_spmv_in<S: Semiring, A: SpmvBody + Sync>(
    a: &A,
    x: &[S::Elem],
    y: &mut [S::Elem],
    exec: &ExecCtx,
) {
    kernels::staged::<S, A>(a, x, y, |out| match A::FAMILY {
        Family::Rows => exec.par_blocks(out, 1, |lo, yc| a.acc::<S>(lo, lo + yc.len(), x, yc)),
        Family::Scatter => {
            par_scatter::<S>(exec, a.extent(), out, |lo, hi, part| a.acc::<S>(lo, hi, x, part))
        }
    });
}

/// `y ⊕= A·x` for CRS, parallel over row blocks.
pub fn par_spmv_csr_in<S: Semiring>(a: &Csr, x: &[S::Elem], y: &mut [S::Elem], exec: &ExecCtx) {
    par_spmv_in::<S, Csr>(a, x, y, exec)
}

/// Multi-vector SpMV `Y ⊕= A·X` (CRS × skinny row-major dense),
/// parallel over blocks of whole rows of `Y`. Bit-identical to
/// [`kernels::spmm_csr_dense_in`].
pub fn par_spmm_csr_dense_in<S: Semiring>(
    a: &Csr,
    x: &[S::Elem],
    k: usize,
    y: &mut [S::Elem],
    exec: &ExecCtx,
) {
    kernels::check_spmm_dense(a, x, k, y);
    if k == 0 {
        return; // zero-width multivector: nothing to accumulate
    }
    exec.par_blocks(y, k, |e0, yc| {
        kernels::spmm_csr_dense_rows::<S>(a, e0 / k, (e0 + yc.len()) / k, x, k, yc)
    });
}

/// `Y += A·X` (skinny dense `X`) on the classical f64 algebra.
pub fn par_spmm_csr_dense(a: &Csr, x: &[f64], k: usize, y: &mut [f64], exec: &ExecCtx) {
    par_spmm_csr_dense_in::<F64Plus>(a, x, k, y, exec)
}

/// Sparse × sparse product over an arbitrary semiring (Gustavson),
/// parallel over row ranges of `A`: each worker runs the serial
/// per-row SPA over its range, and the per-range entry lists are
/// concatenated in range (= row) order. Bit-identical to
/// [`kernels::spmm_csr_csr_in`].
pub fn par_spmm_csr_csr_in<S: Semiring>(
    a: &Csr,
    b: &Csr,
    exec: &ExecCtx,
) -> Vec<(usize, usize, S::Elem)> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions");
    let blocks = exec.par_ranges(a.nrows(), |lo, hi| kernels::spmm_csr_csr_rows::<S>(a, b, lo, hi));
    blocks.into_iter().flatten().collect()
}

/// Sparse × sparse product in CRS (Gustavson) on the classical f64
/// algebra. Bit-identical to [`kernels::spmm_csr_csr`].
pub fn par_spmm_csr_csr(a: &Csr, b: &Csr, exec: &ExecCtx) -> Csr {
    kernels::csr_from_entries(a.nrows(), b.ncols(), par_spmm_csr_csr_in::<F64Plus>(a, b, exec))
}

/// One armed DO-ACROSS plan as the drivers take it: a certified
/// schedule and its certificate.
pub type Wave<'a> = (&'a LevelSchedule, &'a WavefrontCert);

/// DO-ACROSS driver: `x[i] ← row(i, x)` level by level along a schedule
/// of `relation` over `a`'s pattern — first level to last, except that
/// a backward ([`Triangle::Upper`]) Gauss-Seidel sweep walks the forward
/// schedule last level first (see [`Relation::GaussSeidel`]). Below the
/// worker gate, or whenever the certificate does not cover `(a,
/// relation, schedule)`, this is the serial `kernels::sweep`. Reads of
/// `x` inside `row` are race-free because same-level rows are never
/// dependence-connected (what the certificate proves).
pub(crate) fn par_wave(
    exec: &ExecCtx,
    a: &Csr,
    relation: Relation,
    tri: Triangle,
    (sched, cert): Wave<'_>,
    x: &mut [f64],
    row: impl Fn(usize, &[f64]) -> f64 + Sync,
) {
    if exec.threads_hint() <= 1
        || x.is_empty()
        || !cert.covers(&a.binding(), relation, sched)
    {
        return kernels::sweep(tri, x, row);
    }
    let reversed = relation == Relation::GaussSeidel && tri == Triangle::Upper;
    let levels = sched.num_levels();
    let mut wave = vec![0.0f64; sched.max_level_width()];
    for l in 0..levels {
        let level = sched.level(if reversed { levels - 1 - l } else { l });
        let xs: &[f64] = x;
        exec.par_blocks(&mut wave[..level.len()], 1, |p0, wc| {
            for (wp, &i) in wc.iter_mut().zip(&level[p0..]) {
                *wp = row(i, xs);
            }
        });
        for (&i, &w) in level.iter().zip(&wave) {
            x[i] = w;
        }
    }
}

/// Level-parallel substitution: solve `T·x = b` along a schedule
/// certified for `tri`'s solve relation over `T`. Bit-identical to
/// [`kernels::sptrsv_csr`]; serial fallback below the worker gate or
/// whenever the certificate does not cover `(T, schedule)`.
pub fn par_sptrsv_csr(a: &Csr, tri: Triangle, unit_diag: bool, b: &[f64], x: &mut [f64], wave: Wave<'_>, exec: &ExecCtx) {
    kernels::check_sweep(a, b, x);
    par_wave(exec, a, Relation::Solve(tri), tri, wave, x, kernels::sptrsv_row(a, tri, unit_diag, b));
}

/// Level-parallel weighted Gauss-Seidel sweep on square `A` (forward
/// for [`Triangle::Lower`], backward for [`Triangle::Upper`]) along one
/// schedule certified for [`Relation::GaussSeidel`] over `A`'s own
/// arrays. For any dependence-neighbour pair the earlier-level row has
/// the smaller (forward) / larger (backward) index, so each row
/// observes new-vs-old neighbour values exactly as the serial sweep
/// does. Bit-identical to [`kernels::symgs_sweep_csr`]; serial fallback
/// on the worker gate or a certificate mismatch.
pub fn par_symgs_csr(a: &Csr, tri: Triangle, omega: f64, b: &[f64], x: &mut [f64], wave: Wave<'_>, exec: &ExecCtx) {
    kernels::check_sweep(a, b, x);
    par_wave(exec, a, Relation::GaussSeidel, tri, wave, x, kernels::gs_row(a, tri, omega, b));
}

/// One sweep over `a`'s split, along `a`'s one Gauss-Seidel `wave` or
/// serially with the `i∓1` value carried (see [`split_ssor`]). Inlined
/// per call so each sweep's direction is a constant in its row loop.
#[inline(always)]
fn split_sweep(a: &Csr, tri: Triangle, wave: Option<Wave<'_>>, exec: &ExecCtx, z: &mut [f64], row: impl Fn(usize, &[f64], Option<f64>) -> f64 + Sync) {
    match wave {
        Some(wave) => par_wave(exec, a, Relation::GaussSeidel, tri, wave, z, |i, z| row(i, z, None)),
        None => kernels::sweep_carry(tri, z, row),
    }
}

/// `z ← M⁻¹·r` over `a`'s [`SweepSplit`]: the forward sweep overwrites
/// `z` from `r` (no fill comes first), the backward one finishes it in
/// place, both along `a`'s one Gauss-Seidel `wave`. A split sweep
/// reads a subset of what the Gauss-Seidel sweep of its operand reads,
/// so the schedule covers it, and each row loads the `i∓1` value the
/// serial driver carries — the same bits. `None`, the worker gate, a
/// split of another operand or a certificate mismatch run serially.
pub fn split_ssor(a: &Csr, sp: &SweepSplit, r: &[f64], z: &mut [f64], wave: Option<Wave<'_>>, exec: &ExecCtx) {
    assert_eq!((r.len(), z.len()), (sp.nrows(), sp.nrows()));
    let wave = wave.filter(|_| sp.is_of(a));
    split_sweep(a, Triangle::Lower, wave, exec, z, kernels::split_row(sp, Triangle::Lower, r));
    split_sweep(a, Triangle::Upper, wave, exec, z, kernels::split_row(sp, Triangle::Upper, r));
}

/// `r̂ ← M₁⁻¹·r`, the forward half of [`split_ssor`]: how Eisenstat's
/// form ([`SplitStep`]) opens from the residual.
pub fn split_forward(a: &Csr, sp: &SweepSplit, r: &[f64], rhat: &mut [f64], wave: Option<Wave<'_>>, exec: &ExecCtx) {
    assert_eq!((r.len(), rhat.len()), (sp.nrows(), sp.nrows()));
    let wave = wave.filter(|_| sp.is_of(a));
    split_sweep(a, Triangle::Lower, wave, exec, rhat, kernels::split_row(sp, Triangle::Lower, r));
}

/// One step of Eisenstat's form over `a`'s split ([`SplitStep`]),
/// returning `⟨p̂, t + u⟩`. Serially it is two passes: the direction
/// head fused into the backward one, and `w` and the inner product
/// (ascending, one accumulator) into the forward one, `t[i+1]` and
/// `u[i−1]` carried. Along `a`'s `wave` the chains run level by level
/// and the head, `w` and the inner product are row-independent passes
/// around them. Each output row is the one row body of
/// [`SweepSplit`], so the two tiers agree to the bit; `None`, a split of
/// another operand or a certificate mismatch run serially.
pub fn split_operator(a: &Csr, sp: &SweepSplit, step: SplitStep<'_>, wave: Option<Wave<'_>>, exec: &ExecCtx) -> f64 {
    let SplitStep { r, beta, p, t, u, w } = step;
    let n = sp.nrows();
    assert!([r.len(), p.len(), t.len(), u.len(), w.len()].iter().all(|&l| l == n));
    let Some(wave) = wave.filter(|_| sp.is_of(a)) else {
        let mut carried = 0.0;
        for i in (0..n).rev() {
            p[i] = sp.direction_row(r[i], beta, p[i]);
            carried = sp.back_row(i, p[i], t, Some(carried));
            t[i] = carried;
        }
        let (mut carried, mut pq) = (0.0, 0.0);
        for i in 0..n {
            carried = sp.forward_row(i, p[i], t[i], u, Some(carried));
            u[i] = carried;
            w[i] = sp.product_row(i, p[i], t);
            pq += sp.dot_row(i, p[i], t[i] + carried);
        }
        return pq;
    };
    exec.par_blocks(p, 1, |lo, pc| {
        for (pv, &rv) in pc.iter_mut().zip(&r[lo..]) {
            *pv = sp.direction_row(rv, beta, *pv);
        }
    });
    let p: &[f64] = p;
    split_sweep(a, Triangle::Upper, Some(wave), exec, t, |i, t, c| sp.back_row(i, p[i], t, c));
    let t: &[f64] = t;
    split_sweep(a, Triangle::Lower, Some(wave), exec, u, |i, u, c| sp.forward_row(i, p[i], t[i], u, c));
    exec.par_blocks(w, 1, |lo, wc| {
        for (k, wv) in wc.iter_mut().enumerate() {
            *wv = sp.product_row(lo + k, p[lo + k], t);
        }
    });
    (0..n).fold(0.0, |pq, i| pq + sp.dot_row(i, p[i], t[i] + u[i]))
}
