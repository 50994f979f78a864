//! Hand-written sparse kernels — every loop body written **once**,
//! generic over the scalar [`Semiring`].
//!
//! These are the "hand-written library code" baselines of the paper's
//! experiments: each body is written the way a numerical library would
//! write it for that specific layout (scatter loops for COO, stride-1
//! jagged-diagonal sweeps for JDIAG, dense inner loops for i-nodes, …).
//! The compiler-generated executors are benchmarked against these in
//! Table 1 and the dispatch-hoisting ablation.
//!
//! A kernel is a **ranged body**: a storage format implements
//! [`SpmvBody::acc`] — "accumulate range `lo..hi` of my storage order"
//! — and nothing else. The serial tier ([`spmv_in`]) is that body over
//! the whole range; the parallel tier
//! ([`crate::par_kernels::par_spmv_in`]) is the *same* body under the
//! driver its [`Family`] names. The DO-ACROSS kernels work the same
//! way: one per-row update (`sptrsv_row`, `gs_row`, `split_row`) that
//! `sweep` walks in storage order and `par_kernels::par_wave` walks
//! level by level. Parallelisation is a transformation *of* the one
//! loop, never a second kernel.
//!
//! Formats store `f64` regardless of the semiring; values are lifted on
//! the fly via [`Semiring::from_f64`] — the identity for [`F64Plus`],
//! so the generic bodies monomorphise to the classical f64 loops
//! (pinned bitwise by the goldens in `tests/observability.rs` and
//! `tests/semiring_equivalence.rs`). The f64 names external callers use
//! (`spmv_csr`, `spmm_csr_csr`, …) are thin [`F64Plus`] instantiations.
//!
//! All SpMV kernels *accumulate*: `y ⊕= A·x`. Fill `y` with
//! `S::zero()` first for a plain product.

use crate::inode::{InodePartition, MAX_GROUP_ROWS};
use crate::{Ccs, Cccs, Coo, Csr, DenseMatrix, DiagonalMatrix, InodeMatrix, Itpack, JDiag, Triplets};
use bernoulli_analysis::wavefront::Triangle;
use bernoulli_relational::access::MatrixAccess;
use bernoulli_relational::error::{RelError, RelResult};
use bernoulli_relational::permutation::Permutation;
use bernoulli_relational::semiring::{F64Plus, Semiring};

/// How a format's SpMV body is cut into ranges — which decides the
/// driver that parallelises it and what the parallel result promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The range is over **rows** and `out` is `y[lo..hi]`: every
    /// `y[i]` has one writer and the serial per-element ⊕ chain, so any
    /// split is bitwise identical to serial under any semiring.
    Rows,
    /// The range is over **stored items** (columns, entries) and `out`
    /// is a full-length vector: a split accumulates thread-local
    /// partials that are merged in fixed range order, which
    /// re-associates ⊕ — sound only for an associative-commutative ⊕.
    Scatter,
}

/// One storage format's `y ⊕= A·x`, written once as a ranged body.
pub trait SpmvBody: MatrixAccess {
    /// Which family of ranges [`SpmvBody::acc`] takes.
    const FAMILY: Family;

    /// Length of the whole range: rows for [`Family::Rows`] (the
    /// default), stored items for [`Family::Scatter`].
    fn extent(&self) -> usize {
        self.meta().nrows
    }

    /// `Some(perm)` when the body's rows are *stored positions* rather
    /// than global rows (JDIAG): the tiers run it over a zeroed
    /// workspace and scatter `y[perm.backward(p)] ⊕= work[p]` after.
    fn row_permutation(&self) -> Option<&Permutation> {
        None
    }

    /// Accumulate range `lo..hi` of `A·x` into `out`, in storage order
    /// (see [`Family`] for what the range and `out` are).
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], out: &mut [S::Elem]);
}

/// Shape check shared by both tiers, then `run` over `y` itself or —
/// for a row-permuted body — over a workspace scattered back into `y`.
pub(crate) fn staged<S: Semiring, A: SpmvBody>(
    a: &A,
    x: &[S::Elem],
    y: &mut [S::Elem],
    run: impl FnOnce(&mut [S::Elem]),
) {
    let m = a.meta();
    assert_eq!(x.len(), m.ncols);
    assert_eq!(y.len(), m.nrows);
    let Some(perm) = a.row_permutation() else {
        return run(y);
    };
    let mut work = vec![S::zero(); y.len()];
    run(&mut work);
    for (p, &w) in work.iter().enumerate() {
        let r = perm.backward(p);
        y[r] = S::plus(y[r], w);
    }
}

/// `y ⊕= A·x` on the serial tier: the format's body over its whole
/// range, in storage order.
pub fn spmv_in<S: Semiring, A: SpmvBody>(a: &A, x: &[S::Elem], y: &mut [S::Elem]) {
    staged::<S, A>(a, x, y, |out| a.acc::<S>(0, a.extent(), x, out));
}

/// CRS: row-wise dot products.
impl SpmvBody for Csr {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let colind = self.colind();
        let vals = self.vals();
        for (yr, row) in y.iter_mut().zip(self.rowptr()[lo..=hi].windows(2)) {
            let (s, e) = (row[0], row[1]);
            let mut acc = S::zero();
            for (&av, &c) in vals[s..e].iter().zip(&colind[s..e]) {
                acc = S::plus(acc, S::times(S::from_f64(av), x[c]));
            }
            *yr = S::plus(*yr, acc);
        }
    }
}

/// `y ⊕= A·x` for CRS.
pub fn spmv_csr_in<S: Semiring>(a: &Csr, x: &[S::Elem], y: &mut [S::Elem]) {
    spmv_in::<S, Csr>(a, x, y)
}

/// `y += A·x` for CRS on the classical f64 algebra.
pub fn spmv_csr(a: &Csr, x: &[f64], y: &mut [f64]) {
    spmv_in::<F64Plus, Csr>(a, x, y)
}

/// CCS: column-wise axpys (scatter into `y`), ranged over columns.
///
/// Skipping a column scaled by a "zero" `x[j]` is delegated to
/// [`Semiring::skip_scaled_column`]: for f64 that is only sound when
/// the column is all finite (NaN·0 and ±Inf·0 are NaN and must reach
/// `y`); other semirings never skip.
impl SpmvBody for Ccs {
    const FAMILY: Family = Family::Scatter;

    fn extent(&self) -> usize {
        self.ncols()
    }

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let colp = self.colp();
        let rowind = self.rowind();
        let vals = self.vals();
        for j in lo..hi {
            let xj = x[j];
            let (s, e) = (colp[j], colp[j + 1]);
            if S::skip_scaled_column(xj, &vals[s..e]) {
                continue;
            }
            for k in s..e {
                y[rowind[k]] = S::plus(y[rowind[k]], S::times(S::from_f64(vals[k]), xj));
            }
        }
    }
}

/// CCCS: axpys over stored columns only, ranged over stored columns.
impl SpmvBody for Cccs {
    const FAMILY: Family = Family::Scatter;

    fn extent(&self) -> usize {
        self.stored_cols()
    }

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let colind = self.colind();
        let colp = self.colp();
        let rowind = self.rowind();
        let vals = self.vals();
        for q in lo..hi {
            let xj = x[colind[q]];
            for k in colp[q]..colp[q + 1] {
                y[rowind[k]] = S::plus(y[rowind[k]], S::times(S::from_f64(vals[k]), xj));
            }
        }
    }
}

/// COO: one scatter per stored entry, ranged over entries.
impl SpmvBody for Coo {
    const FAMILY: Family = Family::Scatter;

    fn extent(&self) -> usize {
        self.nnz()
    }

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let (rows, cols, vals) = self.arrays();
        for k in lo..hi {
            y[rows[k]] = S::plus(y[rows[k]], S::times(S::from_f64(vals[k]), x[cols[k]]));
        }
    }
}

/// Diagonal storage: one shifted axpy per diagonal, clipped to the row
/// range (stride-1 on both `x` and `y` — the reason this format wins on
/// banded matrices).
impl SpmvBody for DiagonalMatrix {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        for d in self.diagonals() {
            let i0 = d.first_row.max(lo);
            let i1 = (d.first_row + d.vals.len()).min(hi);
            if i0 >= i1 {
                continue;
            }
            let j0 = (i0 as isize + d.offset) as usize;
            let ys = &mut y[i0 - lo..i1 - lo];
            let xs = &x[j0..j0 + (i1 - i0)];
            let vs = &d.vals[i0 - d.first_row..i1 - d.first_row];
            for ((yv, &xv), &av) in ys.iter_mut().zip(xs).zip(vs) {
                *yv = S::plus(*yv, S::times(S::from_f64(av), xv));
            }
        }
    }
}

/// ITPACK: sweep the padded slots column-major; padded entries multiply
/// the annihilating zero (branch-free inner loop, the classical ITPACK
/// kernel).
impl SpmvBody for Itpack {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, _hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let n = self.nrows();
        let (colind, vals) = self.arrays();
        for k in 0..self.width() {
            let base = k * n + lo;
            for (r, yr) in y.iter_mut().enumerate() {
                *yr = S::plus(*yr, S::times(S::from_f64(vals[base + r]), x[colind[base + r]]));
            }
        }
    }
}

/// JDIAG: long stride-1 sweeps along each jagged diagonal, ranged over
/// *stored positions* — the tiers hand it a permuted workspace and
/// scatter back through `IPERM` (see [`SpmvBody::row_permutation`]).
impl SpmvBody for JDiag {
    const FAMILY: Family = Family::Rows;

    fn row_permutation(&self) -> Option<&Permutation> {
        Some(self.permutation())
    }

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], work: &mut [S::Elem]) {
        let (jd_ptr, colind, vals) = self.arrays();
        for d in 0..self.num_jdiags() {
            // Positions of this jagged diagonal inside the range (they
            // shrink with d: rows are sorted by decreasing length).
            let (s, e) = (jd_ptr[d] + lo, jd_ptr[d] + hi.min(jd_ptr[d + 1] - jd_ptr[d]));
            for (p, k) in (s..e).enumerate() {
                work[p] = S::plus(work[p], S::times(S::from_f64(vals[k]), x[colind[k]]));
            }
        }
    }
}

/// `R` rows of one i-node: `y[r] ⊕= Σₖ block[r·w + k] ⊗ x(cols[k])`
/// over the dense row-major `R × w` block sharing the column list
/// `cols`. The list and `x` are read once for the group; each row keeps
/// its own accumulator and adds its products in column order — the ⊕
/// chain of the CRS body, so a row's result does not depend on how the
/// rows were grouped.
#[inline]
fn inode_rows<S: Semiring, const R: usize>(
    cols: &[usize],
    block: &[f64],
    x_at: &impl Fn(usize) -> S::Elem,
    y: &mut [S::Elem],
) {
    let w = cols.len();
    let rows: [&[f64]; R] = std::array::from_fn(|r| &block[r * w..(r + 1) * w]);
    let mut acc = [S::zero(); R];
    for (k, &c) in cols.iter().enumerate() {
        let xv = x_at(c);
        for r in 0..R {
            acc[r] = S::plus(acc[r], S::times(S::from_f64(rows[r][k]), xv));
        }
    }
    for (yr, a) in y[..R].iter_mut().zip(acc) {
        *yr = S::plus(*yr, a);
    }
}

/// The i-node group step: [`inode_rows`] for a group of any height,
/// [`MAX_GROUP_ROWS`] rows at a time.
#[inline]
fn inode_group<S: Semiring>(
    cols: &[usize],
    block: &[f64],
    x_at: &impl Fn(usize) -> S::Elem,
    y: &mut [S::Elem],
) {
    let w = cols.len();
    let mut r = 0;
    while r < y.len() {
        let rows = (y.len() - r).min(MAX_GROUP_ROWS);
        let (b, out) = (&block[r * w..(r + rows) * w], &mut y[r..r + rows]);
        match rows {
            1 => inode_rows::<S, 1>(cols, b, x_at, out),
            2 => inode_rows::<S, 2>(cols, b, x_at, out),
            3 => inode_rows::<S, 3>(cols, b, x_at, out),
            4 => inode_rows::<S, 4>(cols, b, x_at, out),
            5 => inode_rows::<S, 5>(cols, b, x_at, out),
            6 => inode_rows::<S, 6>(cols, b, x_at, out),
            7 => inode_rows::<S, 7>(cols, b, x_at, out),
            _ => inode_rows::<S, 8>(cols, b, x_at, out),
        }
        r += rows;
    }
}

/// I-node storage: the group step per i-node (an i-node straddling a
/// range boundary is computed partly by each side).
impl SpmvBody for InodeMatrix {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        for g in self.inodes() {
            let i0 = g.first_row.max(lo);
            let i1 = (g.first_row + g.rows).min(hi);
            if i0 >= i1 {
                continue;
            }
            let w = g.cols.len();
            let block = &g.vals[(i0 - g.first_row) * w..(i1 - g.first_row) * w];
            inode_group::<S>(&g.cols, block, &|c| x[c], &mut y[i0 - lo..i1 - lo]);
        }
    }
}

/// `y += A·x` for CRS on its i-node level, the arrays used in place:
/// the group step over each group of `part`, reading `x[c]` as
/// `x_at(c)` (an executor that translates columns passes its table
/// here). Every `y[i]` is bit-for-bit [`spmv_csr`]'s.
pub fn spmv_csr_inodes_with(
    a: &Csr,
    part: &InodePartition,
    x_at: impl Fn(usize) -> f64,
    y: &mut [f64],
) {
    assert!(part.fits(a), "i-node partition of another matrix");
    assert_eq!(y.len(), a.nrows());
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    for g in part.groups() {
        let (s, e) = (rowptr[g.start], rowptr[g.end]);
        let cols = &colind[s..rowptr[g.start + 1]];
        inode_group::<F64Plus>(cols, &vals[s..e], &x_at, &mut y[g]);
    }
}

/// [`spmv_csr_inodes_with`] reading `x` directly.
pub fn spmv_csr_inodes(a: &Csr, part: &InodePartition, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    spmv_csr_inodes_with(a, part, |c| x[c], y)
}

/// Dense storage: plain row-wise dot products.
impl SpmvBody for DenseMatrix {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let ncols = self.ncols();
        let data = &self.as_slice()[lo * ncols..hi * ncols];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = S::zero();
            for (c, &xv) in x.iter().enumerate() {
                acc = S::plus(acc, S::times(S::from_f64(data[r * ncols + c]), xv));
            }
            *yr = S::plus(*yr, acc);
        }
    }
}

/// Shape check of the sparse × skinny-dense product.
pub(crate) fn check_spmm_dense<E>(a: &Csr, x: &[E], k: usize, y: &[E]) {
    assert_eq!(x.len(), a.ncols() * k);
    assert_eq!(y.len(), a.nrows() * k);
}

/// Ranged body of `Y ⊕= A·X` (CRS × skinny row-major dense): rows
/// `lo..hi` of `Y` into `y = Y[lo·k..hi·k]` — a row-family body.
#[inline]
pub(crate) fn spmm_csr_dense_rows<S: Semiring>(
    a: &Csr,
    lo: usize,
    hi: usize,
    x: &[S::Elem],
    k: usize,
    y: &mut [S::Elem],
) {
    let rowptr = a.rowptr();
    let colind = a.colind();
    let vals = a.vals();
    for r in lo..hi {
        let yrow = &mut y[(r - lo) * k..(r - lo + 1) * k];
        for p in rowptr[r]..rowptr[r + 1] {
            let av = S::from_f64(vals[p]);
            let xrow = &x[colind[p] * k..(colind[p] + 1) * k];
            for (yv, &xv) in yrow.iter_mut().zip(xrow) {
                *yv = S::plus(*yv, S::times(av, xv));
            }
        }
    }
}

/// Sparse matrix × skinny dense matrix: `Y ⊕= A·X` where `X` is
/// `ncols × k` row-major and `Y` is `nrows × k` row-major. This is the
/// other core operation of iterative solvers the paper's conclusion
/// names ("the product of a sparse matrix and a skinny dense matrix").
pub fn spmm_csr_dense_in<S: Semiring>(a: &Csr, x: &[S::Elem], k: usize, y: &mut [S::Elem]) {
    check_spmm_dense(a, x, k, y);
    spmm_csr_dense_rows::<S>(a, 0, a.nrows(), x, k, y);
}

/// `Y += A·X` (skinny dense `X`) on the classical f64 algebra.
pub fn spmm_csr_dense(a: &Csr, x: &[f64], k: usize, y: &mut [f64]) {
    spmm_csr_dense_in::<F64Plus>(a, x, k, y)
}

/// Ranged body of the sparse × sparse product (Gustavson's algorithm
/// with a dense SPA row accumulator): the stored entries of rows
/// `lo..hi` of `A·B`. Rows are independent, so this is a row-family
/// body and sound for any semiring.
pub(crate) fn spmm_csr_csr_rows<S: Semiring>(
    a: &Csr,
    b: &Csr,
    lo: usize,
    hi: usize,
) -> Vec<(usize, usize, S::Elem)> {
    let mut out: Vec<(usize, usize, S::Elem)> = Vec::new();
    // Dense accumulator per row (SPA), classic Gustavson.
    let mut marker = vec![usize::MAX; b.ncols()];
    let mut acc = vec![S::zero(); b.ncols()];
    let mut touched: Vec<usize> = Vec::new();
    for i in lo..hi {
        touched.clear();
        for (p, &kcol) in a.row_cols(i).iter().enumerate() {
            let av = S::from_f64(a.row_vals(i)[p]);
            for (q, &j) in b.row_cols(kcol).iter().enumerate() {
                let bv = S::from_f64(b.row_vals(kcol)[q]);
                if marker[j] != i {
                    marker[j] = i;
                    acc[j] = S::zero();
                    touched.push(j);
                }
                acc[j] = S::plus(acc[j], S::times(av, bv));
            }
        }
        for &j in &touched {
            if acc[j] != S::zero() {
                out.push((i, j, acc[j]));
            }
        }
    }
    out
}

/// Sparse × sparse matrix product over an arbitrary semiring. Returns
/// the stored entries `(i, j, c_ij)` with rows ascending and columns
/// in first-touch order within a row; entries equal to `S::zero()`
/// after accumulation are dropped, mirroring the f64 kernel's
/// numeric-cancellation rule.
pub fn spmm_csr_csr_in<S: Semiring>(a: &Csr, b: &Csr) -> Vec<(usize, usize, S::Elem)> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions");
    spmm_csr_csr_rows::<S>(a, b, 0, a.nrows())
}

/// Assemble product entries into CRS (the f64 wrappers of both tiers).
pub(crate) fn csr_from_entries(nrows: usize, ncols: usize, entries: Vec<(usize, usize, f64)>) -> Csr {
    let mut t = Triplets::with_capacity(nrows, ncols, entries.len());
    for (i, j, v) in entries {
        t.push(i, j, v);
    }
    Csr::from_triplets(&t)
}

/// Sparse × sparse matrix product in CRS (Gustavson's algorithm) on
/// the classical f64 algebra: the hand-written baseline for the
/// compiled `C(i,j) += A(i,k)·B(k,j)`.
pub fn spmm_csr_csr(a: &Csr, b: &Csr) -> Csr {
    csr_from_entries(a.nrows(), b.ncols(), spmm_csr_csr_in::<F64Plus>(a, b))
}

// --- Triangular sweeps (f64 only: they divide by the diagonal, and a
// --- general `Semiring` has no multiplicative inverse) -------------------
//
// A DO-ACROSS kernel is one per-row update `x[i] ← row(i, x)` plus an
// order to apply it in. The serial tier (`sweep`) walks the rows in
// storage order; the level-parallel tier (`par_kernels::par_wave`)
// walks a certified level schedule with the *same* row closure, so
// serial and level-parallel results are *bitwise identical* — the
// schedule only changes which independent rows run concurrently, never
// what any row computes.
//
// A sweep runs at the speed of its loop-carried chain `x[i∓1] → x[i]`,
// not of its traffic, so both row bodies take the entries the sweep has
// not reached first, then the updated ones with the nearest dependency
// last, and close with a multiply by `1/diag` computed beside the sum:
// ≈ 12 cycles a row on the chain where storage order and a divide put 34.
// Those bodies serve any operand handed in. An owner that always sweeps
// from zero (a preconditioner) inspects its operand once into a
// `SweepSplit`, whose `split_row` shortens the chain again: the scaling
// is in the stored values, so a row closes with one multiply-subtract,
// and `sweep_carry` hands it `x[i∓1]` in a register, not through memory.

/// Shape check shared by every sweep entry point.
pub(crate) fn check_sweep(a: &Csr, b: &[f64], x: &[f64]) {
    assert_eq!(a.nrows(), a.ncols());
    assert_eq!(b.len(), a.nrows());
    assert_eq!(x.len(), a.nrows());
}

/// The serial DO-ACROSS tier: `x[i] ← row(i, x)` for every row in
/// storage order — ascending for a [`Triangle::Lower`] (forward) sweep,
/// descending for [`Triangle::Upper`] (backward).
#[inline]
pub(crate) fn sweep(tri: Triangle, x: &mut [f64], row: impl Fn(usize, &[f64]) -> f64) {
    sweep_carry(tri, x, |i, x, _| row(i, x));
}

/// [`sweep`] for a row body that can take `x[i∓1]` — the value the
/// previous step just produced — from a register instead of waiting for
/// its store to come back through memory. (The first row is handed a
/// placeholder: no row precedes it, so its body never asks.)
#[inline(always)]
pub(crate) fn sweep_carry(tri: Triangle, x: &mut [f64], row: impl Fn(usize, &[f64], Option<f64>) -> f64) {
    let n = x.len();
    let mut carried = 0.0;
    // One loop (hence one call site, so `row` always inlines) for both
    // directions; `tri` is loop-invariant and usually a constant.
    for k in 0..n {
        let i = match tri {
            Triangle::Lower => k,
            Triangle::Upper => n - 1 - k,
        };
        carried = row(i, x, Some(carried));
        x[i] = carried;
    }
}

/// `acc − Σ av·x[j]` over one run of a row's entries, in iterator order.
#[inline(always)]
fn sub_products<'a>(acc: f64, entries: impl Iterator<Item = (&'a f64, &'a usize)>, x: &[f64]) -> f64 {
    entries.fold(acc, |acc, (&av, &j)| acc - av * x[j])
}

/// The substitution row update of `T·x = b` (gather form):
/// `x[i] = (b[i] − Σ_{j≠i} T[i][j]·x[j]) · (1 / T[i][i])`, off-diagonals
/// taken nearest-dependency-last (ascending for [`Triangle::Lower`],
/// descending for [`Triangle::Upper`]). With `unit_diag` the diagonal is
/// implicitly 1 and must not be stored; otherwise every row must store
/// its diagonal **last** (lower) or **first** (upper) — sorted CSR
/// guarantees this for a triangular pattern, and it is asserted here
/// once per operand ([`Csr::stores_diag`]), not per row.
#[inline]
pub(crate) fn sptrsv_row<'a>(
    a: &'a Csr,
    tri: Triangle,
    unit_diag: bool,
    b: &'a [f64],
) -> impl Fn(usize, &[f64]) -> f64 + Sync + 'a {
    assert!(unit_diag || a.stores_diag(tri), "non-unit solve needs every row's diagonal stored last (lower) / first (upper)");
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    move |i, x| {
        let (mut s, mut e) = (rowptr[i], rowptr[i + 1]);
        let mut inv = 1.0;
        if !unit_diag {
            match tri {
                Triangle::Lower => {
                    e -= 1;
                    inv = 1.0 / vals[e];
                }
                Triangle::Upper => {
                    inv = 1.0 / vals[s];
                    s += 1;
                }
            }
        }
        let off = vals[s..e].iter().zip(&colind[s..e]);
        let acc = match tri {
            Triangle::Lower => sub_products(b[i], off, x),
            Triangle::Upper => sub_products(b[i], off.rev(), x),
        };
        if unit_diag { acc } else { acc * inv }
    }
}

/// Solve `T·x = b` for triangular CSR `T` by substitution in storage
/// order: forward for [`Triangle::Lower`], backward for
/// [`Triangle::Upper`]. With `unit_diag` the diagonal is implicitly 1
/// and must not be stored; otherwise every row must store it **last**
/// (lower) or **first** (upper), as sorted CSR does for a triangular
/// pattern.
#[inline]
pub fn sptrsv_csr(a: &Csr, tri: Triangle, unit_diag: bool, b: &[f64], x: &mut [f64]) {
    check_sweep(a, b, x);
    sweep(tri, x, sptrsv_row(a, tri, unit_diag, b));
}

/// Solve `L·x = b` for lower-triangular CSR `L` by forward
/// substitution.
pub fn sptrsv_csr_lower(a: &Csr, unit_diag: bool, b: &[f64], x: &mut [f64]) {
    sptrsv_csr(a, Triangle::Lower, unit_diag, b, x)
}

/// The weighted Gauss-Seidel row update on square CSR `A`:
/// `x[i] ← (1−ω)·x[i] + ω·(b[i] − Σ_{j≠i} A[i][j]·x[j]) · (1 / A[i][i])`.
/// The sum runs far-to-near over the operand's diagonal index: a
/// forward ([`Triangle::Lower`]) sweep takes the upper part, then the
/// lower part ascending; a backward sweep the lower part, then the
/// upper part descending. `ω = 1` is the plain Gauss-Seidel update (the
/// `(1−ω)·x[i]` term is skipped entirely so ω = 1 costs nothing extra
/// and stays bitwise equal to the unweighted sweep). A missing diagonal
/// is treated as 1, matching the diagonal preconditioner's convention.
#[inline]
pub(crate) fn gs_row<'a>(
    a: &'a Csr,
    tri: Triangle,
    omega: f64,
    b: &'a [f64],
) -> impl Fn(usize, &[f64]) -> f64 + Sync + 'a {
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    let split = &a.diag_index().split[..];
    move |i, x| {
        let (s, e) = (rowptr[i], rowptr[i + 1]);
        let k = split[i] as usize;
        let ((lc, uc), (lv, uv)) = (colind[s..e].split_at(k), vals[s..e].split_at(k));
        let (diag, uc, uv) = match uc.first() {
            Some(&j) if j == i => (uv[0], &uc[1..], &uv[1..]),
            _ => (1.0, uc, uv),
        };
        let inv = 1.0 / diag;
        let (lower, upper) = (lv.iter().zip(lc), uv.iter().zip(uc));
        let acc = match tri {
            Triangle::Lower => sub_products(sub_products(b[i], upper, x), lower, x),
            Triangle::Upper => sub_products(sub_products(b[i], lower, x), upper.rev(), x),
        };
        let gs = acc * inv;
        if omega == 1.0 { gs } else { (1.0 - omega) * x[i] + omega * gs }
    }
}

/// One weighted Gauss-Seidel sweep on square CSR `A`, in place, using
/// already-updated values for rows swept earlier: ascending rows for
/// [`Triangle::Lower`] (forward), descending for [`Triangle::Upper`]
/// (backward). A forward sweep from `x = 0` followed by a backward
/// sweep applies the symmetric Gauss-Seidel (ω = 1) / SSOR
/// preconditioner.
#[inline]
pub fn symgs_sweep_csr(a: &Csr, tri: Triangle, omega: f64, b: &[f64], x: &mut [f64]) {
    check_sweep(a, b, x);
    sweep(tri, x, gs_row(a, tri, omega, b));
}

/// One forward (ascending-row) weighted Gauss-Seidel sweep.
pub fn symgs_forward_csr(a: &Csr, omega: f64, b: &[f64], x: &mut [f64]) {
    symgs_sweep_csr(a, Triangle::Lower, omega, b, x)
}

/// One backward (descending-row) weighted Gauss-Seidel sweep.
pub fn symgs_backward_csr(a: &Csr, omega: f64, b: &[f64], x: &mut [f64]) {
    symgs_sweep_csr(a, Triangle::Upper, omega, b, x)
}

/// What SSOR *from a zero guess* needs of square `A = L + D + U`, laid
/// out for that one computation: `L̃ = ω·D⁻¹L` and `Ũ = ω·D⁻¹U` as row
/// lists (pointers, `u32` columns, values), and `ω/d` and `d/ω` per
/// row, a missing diagonal counting as 1. Forward `z_i = (ω/d_i)·r_i −
/// Σ_{j<i} L̃_ij·z_j` never meets the upper triangle (it would multiply
/// zeros) and leaves `D·z/ω = r − L·z`, so backward is `z_i ← (2−ω)·z_i
/// − Σ_{j>i} Ũ_ij·z_j` in place: no lower triangle, no second read of
/// `r`. The same lists run Eisenstat's form of the preconditioned
/// operator ([`SplitStep`]), which is `A`'s only when every row stores
/// its diagonal exactly once ([`is_exact`](Self::is_exact)). The copy
/// carries *values*, so it belongs to whoever owns the matrix — never
/// to a structure-keyed cache.
#[derive(Clone, Debug)]
pub struct SweepSplit {
    /// `[L̃, Ũ]`.
    tri: [(Vec<u32>, Vec<u32>, Vec<f64>); 2],
    /// `ω / d_i`.
    dinv: Vec<f64>,
    /// `d_i / ω`.
    dw: Vec<f64>,
    /// `ω`.
    omega: f64,
    /// `2 − ω`.
    back: f64,
    /// Every row stores its diagonal exactly once.
    exact: bool,
    /// [`Csr::index_digest`] of the operand this was built from.
    digest: u64,
}

impl SweepSplit {
    /// Inspect `a` once for weight `omega`. Entries are classed by
    /// column against row, so both triangles are strict whatever the
    /// in-row order; an order, entry count or column the `u32` lists
    /// cannot hold is refused, never truncated. A row's first stored
    /// diagonal is its `d`; a missing one counts as 1, and a repeated
    /// one leaves the split short of it — both make it inexact.
    pub fn of(a: &Csr, omega: f64) -> RelResult<SweepSplit> {
        let n = a.nrows();
        let refuse = |why: &str| Err(RelError::Validation(format!("sweep split of a {n}x{} operand: {why}", a.ncols())));
        if a.ncols() != n || n.max(a.nnz()) > u32::MAX as usize {
            return refuse("needs a square order and an entry count within u32");
        }
        let mut count = [0usize; 2];
        for (i, j) in (0..n).flat_map(|i| a.row_cols(i).iter().map(move |&j| (i, j))) {
            if j >= n {
                return refuse(&format!("row {i} stores column {j}"));
            }
            count[usize::from(j > i)] += usize::from(j != i);
        }
        // Exact capacities: the split is the largest thing its build allocates.
        let mut tri = count.map(|c| (Vec::with_capacity(n + 1), Vec::with_capacity(c), Vec::with_capacity(c)));
        let (mut dinv, mut dw, mut exact) = (Vec::with_capacity(n), Vec::with_capacity(n), true);
        for i in 0..n {
            let (cols, vals) = (a.row_cols(i), a.row_vals(i));
            exact &= cols.iter().filter(|&&j| j == i).count() == 1;
            let d = cols.iter().position(|&j| j == i).map_or(1.0, |k| vals[k]);
            let scale = omega / d;
            dinv.push(scale);
            dw.push(d / omega);
            tri.iter_mut().for_each(|t| t.0.push(t.1.len() as u32));
            for (&j, &v) in cols.iter().zip(vals).filter(|&(&j, _)| j != i) {
                let t = &mut tri[usize::from(j > i)];
                t.1.push(j as u32);
                t.2.push(v * scale);
            }
        }
        tri.iter_mut().for_each(|t| t.0.push(t.1.len() as u32));
        Ok(SweepSplit { tri, dinv, dw, omega, back: 2.0 - omega, exact, digest: a.index_digest() })
    }

    /// Order of the operand.
    pub fn nrows(&self) -> usize {
        self.dinv.len()
    }

    /// Strictly triangular entries: what one application visits.
    pub fn nnz(&self) -> usize {
        self.triangle_nnz(Triangle::Lower) + self.triangle_nnz(Triangle::Upper)
    }

    /// Entries of one strict triangle: what one sweep visits.
    pub fn triangle_nnz(&self, tri: Triangle) -> usize {
        self.tri[usize::from(tri == Triangle::Upper)].1.len()
    }

    /// Whether `a` has the order and index arrays this was built from.
    pub fn is_of(&self, a: &Csr) -> bool {
        self.nrows() == a.nrows() && self.digest == a.index_digest()
    }

    /// Whether every row of the operand stored its diagonal exactly
    /// once, so that `M₁ + M₂ − K` is the operand itself (see
    /// [`SplitStep`]).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// `P_i = (2−ω)·d_i/ω`: row `i` of Eisenstat's diagonal
    /// preconditioner (see [`SplitStep`]).
    #[inline(always)]
    pub fn pdiag(&self, i: usize) -> f64 {
        self.back * self.dw[i]
    }

    /// `head − Σ T̃_ij·z_j` over row `i` of the `tri` triangle, summed
    /// far-to-near. When the nearest entry is `i∓1` and the driver
    /// hands that row's value in `carried`, it stands in for the load —
    /// the same bits either way.
    #[inline(always)]
    fn row_sum(&self, tri: Triangle, i: usize, head: f64, z: &[f64], carried: Option<f64>) -> f64 {
        #[inline(always)]
        fn sum<'a>(head: f64, mut far_to_near: impl DoubleEndedIterator<Item = (&'a f64, &'a u32)>, prev: (usize, Option<f64>), z: &[f64]) -> f64 {
            let Some((&v, &j)) = far_to_near.next_back() else { return head };
            let acc = far_to_near.fold(head, |acc, (&v, &j)| acc - v * z[j as usize]);
            let near = match prev {
                (i, Some(carried)) if i == j as usize => carried,
                _ => z[j as usize],
            };
            acc - v * near
        }
        let (ptr, cols, vals) = &self.tri[usize::from(tri == Triangle::Upper)];
        let (s, e) = (ptr[i] as usize, ptr[i + 1] as usize);
        let entries = vals[s..e].iter().zip(&cols[s..e]);
        match tri {
            Triangle::Lower => sum(head, entries, (i.wrapping_sub(1), carried), z),
            Triangle::Upper => sum(head, entries.rev(), (i + 1, carried), z),
        }
    }

    /// The direction head of a [`SplitStep`], in the scaled `p̃`:
    /// `p̃_i ← (2−ω)·r̂_i + β·p̃_i`.
    #[inline(always)]
    pub(crate) fn direction_row(&self, r: f64, beta: f64, p: f64) -> f64 {
        self.back * r + beta * p
    }

    /// Row `i` of `t = M₂⁻¹·p̂` (backward): `p̃_i − Σ_{j>i} Ũ_ij·t_j`.
    #[inline(always)]
    pub(crate) fn back_row(&self, i: usize, p: f64, t: &[f64], carried: Option<f64>) -> f64 {
        self.row_sum(Triangle::Upper, i, p, t, carried)
    }

    /// Row `i` of `u = M₁⁻¹·(p̂ − K·t)` (forward):
    /// `p̃_i − (2−ω)·t_i − Σ_{j<i} L̃_ij·u_j`.
    #[inline(always)]
    pub(crate) fn forward_row(&self, i: usize, p: f64, t: f64, u: &[f64], carried: Option<f64>) -> f64 {
        self.row_sum(Triangle::Lower, i, p - self.back * t, u, carried)
    }

    /// Row `i` of `w = A·t`, off the chain: `(d_i/ω)·(p̃_i + Σ_{j<i}
    /// L̃_ij·t_j + (ω−1)·t_i)`, the lower triangle's entries in storage
    /// order.
    #[inline(always)]
    pub(crate) fn product_row(&self, i: usize, p: f64, t: &[f64]) -> f64 {
        self.dw[i] * (p - self.row_sum(Triangle::Lower, i, (1.0 - self.omega) * t[i], t, None))
    }

    /// Row `i`'s term of `⟨p̂, q⟩`: `(d_i/ω)·p̃_i·q_i`.
    #[inline(always)]
    pub(crate) fn dot_row(&self, i: usize, p: f64, q: f64) -> f64 {
        self.dw[i] * p * q
    }
}

/// The vectors of one step of Eisenstat's form of SSOR-preconditioned
/// CG over a [`SweepSplit`] (S. C. Eisenstat, SIAM J. Sci. Stat.
/// Comput. 2(1), 1981). With `M₁ = D/ω + L`, `M₂ = D/ω + U`, `K =
/// (2/ω − 1)·D` and `P = ((2−ω)/ω)·D`, SSOR is `M⁻¹ = M₂⁻¹·P·M₁⁻¹`, and
/// `A = M₁ + M₂ − K` (which is what an [exact](SweepSplit::is_exact)
/// split guarantees), so `Â = M₁⁻¹·A·M₂⁻¹` applies as one backward and
/// one forward pass over the split with no product by `A`:
///
/// * the direction head `p̂ ← P·r̂ + β·p̂`;
/// * backward `t = M₂⁻¹·p̂`;
/// * forward `u = M₁⁻¹·(p̂ − K·t)`, so that `Â·p̂ = t + u`, and off the
///   chain `w = A·t = p̂ + (D/ω)·(L̃·t + (ω−1)·t)`.
///
/// The direction is held scaled, `p̃ = (ω/D)·p̂`, which is what both
/// passes consume: the head becomes `p̃ ← (2−ω)·r̂ + β·p̃` and neither
/// pass reads `ω/d`. A driver returns `⟨p̂, t + u⟩`. Every vector has
/// the operand's order.
pub struct SplitStep<'a> {
    /// `r̂`, read by the direction head.
    pub r: &'a [f64],
    /// `β` of the direction head (0 over a zero `p̃` opens).
    pub beta: f64,
    /// `p̃ = (ω/D)·p̂`, updated in place by the head.
    pub p: &'a mut [f64],
    /// `t = M₂⁻¹·p̂`, overwritten.
    pub t: &'a mut [f64],
    /// `u = M₁⁻¹·(p̂ − K·t)`, overwritten.
    pub u: &'a mut [f64],
    /// `w = A·t`, overwritten.
    pub w: &'a mut [f64],
}

/// The row update of one sweep over a [`SweepSplit`] (see there):
/// forward for [`Triangle::Lower`], in-place backward for
/// [`Triangle::Upper`], summed far-to-near as in [`gs_row`], the
/// `i∓1` value taken from `carried` when the driver hands it.
#[inline]
pub(crate) fn split_row<'a>(
    sp: &'a SweepSplit,
    tri: Triangle,
    r: &'a [f64],
) -> impl Fn(usize, &[f64], Option<f64>) -> f64 + Sync + 'a {
    // Always inlined: a driver with two call sites (serial and wave)
    // must still get `tri` and `carried` as constants in each.
    #[inline(always)]
    move |i, z, carried| {
        let head = match tri {
            Triangle::Lower => sp.dinv[i] * r[i],
            Triangle::Upper => sp.back * z[i],
        };
        sp.row_sum(tri, i, head, z, carried)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{FormatKind, SparseMatrix};
    use crate::DenseMatrix;
    use bernoulli_relational::semiring::{BoolOrAnd, MinPlus};

    fn sample() -> Triplets {
        Triplets::from_entries(
            5,
            5,
            &[
                (0, 0, 2.0),
                (0, 4, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 3, 1.5),
                (3, 3, 6.0),
                (4, 1, -1.0),
                (4, 4, 2.5),
            ],
        )
    }

    fn reference_y(t: &Triplets, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; t.nrows()];
        t.matvec_acc(x, &mut y);
        y
    }

    #[test]
    fn all_spmv_kernels_agree() {
        let t = sample();
        let x: Vec<f64> = (0..5).map(|i| (i as f64) - 1.5).collect();
        let want = reference_y(&t, &x);
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            let mut y = vec![0.0; 5];
            m.spmv_acc(&x, &mut y);
            for (a, b) in y.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "kernel for {kind}: {y:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn spmv_accumulates() {
        let a = Csr::from_triplets(&sample());
        let x = vec![1.0; 5];
        let mut y = vec![10.0; 5];
        spmv_csr(&a, &x, &mut y);
        let mut want = vec![10.0; 5];
        sample().matvec_acc(&x, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn spmm_dense_skinny() {
        let a = Csr::from_triplets(&sample());
        let k = 3;
        let x: Vec<f64> = (0..5 * k).map(|i| i as f64 * 0.5).collect();
        let mut y = vec![0.0; 5 * k];
        spmm_csr_dense(&a, &x, k, &mut y);
        // Column-by-column check against spmv.
        for col in 0..k {
            let xc: Vec<f64> = (0..5).map(|r| x[r * k + col]).collect();
            let mut yc = vec![0.0; 5];
            spmv_csr(&a, &xc, &mut yc);
            for r in 0..5 {
                assert!((y[r * k + col] - yc[r]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmm_csr_csr_matches_dense() {
        let ta = sample();
        let tb = Triplets::from_entries(
            5,
            4,
            &[(0, 1, 1.0), (1, 0, 2.0), (2, 2, 3.0), (3, 3, 1.0), (4, 1, 4.0)],
        );
        let a = Csr::from_triplets(&ta);
        let b = Csr::from_triplets(&tb);
        let c = spmm_csr_csr(&a, &b);
        let da = DenseMatrix::from_triplets(&ta);
        let db = DenseMatrix::from_triplets(&tb);
        let mut want = DenseMatrix::zeros(5, 4);
        for i in 0..5 {
            for j in 0..4 {
                let mut s = 0.0;
                for kk in 0..5 {
                    s += da[(i, kk)] * db[(kk, j)];
                }
                want[(i, j)] = s;
            }
        }
        let got = DenseMatrix::from_triplets(&c.to_triplets());
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn spmm_numeric_cancellation_dropped() {
        // A row whose products cancel exactly must not create a stored
        // zero in the result.
        let a = Csr::from_triplets(&Triplets::from_entries(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]));
        let b = Csr::from_triplets(&Triplets::from_entries(2, 1, &[(0, 0, 3.0), (1, 0, 3.0)]));
        let c = spmm_csr_csr(&a, &b);
        assert_eq!(c.nnz(), 0);
    }

    /// Reference `y ⊕= A·x` straight off the triplets, any semiring.
    fn matvec_acc_in<S: Semiring>(t: &Triplets, x: &[S::Elem], y: &mut [S::Elem]) {
        for &(r, c, v) in t.canonicalize().entries() {
            y[r] = S::plus(y[r], S::times(S::from_f64(v), x[c]));
        }
    }

    #[test]
    fn min_plus_relaxation_over_every_format() {
        // One SpMV over (min,+) relaxes distances through one edge.
        // Graph: 0→1 (w=2), 0→2 (w=7), 1→2 (w=3), stored as A[i][j] =
        // weight of edge j→i so that y = A ⊗ x relaxes into targets.
        let t = Triplets::from_entries(3, 3, &[(1, 0, 2.0), (2, 0, 7.0), (2, 1, 3.0)]);
        let x = vec![0.0, f64::INFINITY, f64::INFINITY]; // dist after 0 hops
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            // One Bellman-Ford step: y = min(x, A ⊗ x).
            let mut y = x.clone();
            m.spmv_acc_in::<MinPlus>(&x, &mut y);
            assert_eq!(y, vec![0.0, 2.0, 7.0], "format {kind}, 1 hop");
            // Second step finds the cheaper 2-hop path 0→1→2.
            let mut z = y.clone();
            m.spmv_acc_in::<MinPlus>(&y, &mut z);
            assert_eq!(z, vec![0.0, 2.0, 5.0], "format {kind}, 2 hops");
        }
    }

    #[test]
    fn bool_spmv_is_neighborhood() {
        let t = sample();
        let a = Csr::from_triplets(&t);
        let x = vec![true, false, false, false, false];
        let mut y = vec![false; 5];
        spmv_csr_in::<BoolOrAnd>(&a, &x, &mut y);
        // Rows with a stored entry in column 0: rows 0 and 2.
        assert_eq!(y, vec![true, false, true, false, false]);
        let mut want = vec![false; 5];
        matvec_acc_in::<BoolOrAnd>(&t, &x, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn bool_spmm_is_two_hop_reachability() {
        // C = A ⊗ A over (∨,∧) marks every pair joined by a length-2
        // walk through the pattern. Triangle of nodes {0,1,2}.
        let t = Triplets::from_entries(
            3,
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        );
        let a = Csr::from_triplets(&t);
        let c = spmm_csr_csr_in::<BoolOrAnd>(&a, &a);
        // Every node reaches itself (i→j→i) and each other node (via
        // the third) in two hops.
        assert_eq!(c.len(), 9);
        assert!(c.iter().all(|&(_, _, reached)| reached));
    }

    /// `L = [[2,0,0],[1,3,0],[0,4,5]]`, sorted CSR (diag last per row).
    fn lower3() -> Csr {
        let t = Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0), (2, 1, 4.0), (2, 2, 5.0)],
        );
        Csr::from_triplets(&t)
    }

    #[test]
    fn sptrsv_lower_inverts_forward_substitution() {
        let l = lower3();
        let xt = [1.0, -2.0, 0.5];
        let mut b = vec![0.0; 3];
        spmv_csr(&l, &xt, &mut b);
        let mut x = vec![0.0; 3];
        sptrsv_csr_lower(&l, false, &b, &mut x);
        for (got, want) in x.iter().zip(xt) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn sptrsv_upper_inverts_backward_substitution() {
        let u = lower3().transposed();
        let xt = [3.0, 0.25, -1.0];
        let mut b = vec![0.0; 3];
        spmv_csr(&u, &xt, &mut b);
        let mut x = vec![0.0; 3];
        sptrsv_csr(&u, Triangle::Upper, false, &b, &mut x);
        for (got, want) in x.iter().zip(xt) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn sptrsv_unit_diag_ignores_implicit_diagonal() {
        // Strictly lower part of lower3 with unit diagonal:
        // x0 = b0; x1 = b1 - 1·x0; x2 = b2 - 4·x1.
        let t = Triplets::from_entries(3, 3, &[(1, 0, 1.0), (2, 1, 4.0)]);
        let l = Csr::from_triplets(&t);
        let mut x = vec![0.0; 3];
        sptrsv_csr_lower(&l, true, &[1.0, 1.0, 1.0], &mut x);
        assert_eq!(x, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn symgs_sweep_fixed_point_is_the_solution() {
        // If x already solves A·x = b, a GS sweep leaves it unchanged
        // (up to roundoff) for any sweep direction and ω.
        let t = Triplets::from_entries(
            3,
            3,
            &[(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 4.0), (1, 2, -1.0), (2, 1, -1.0), (2, 2, 4.0)],
        );
        let a = Csr::from_triplets(&t);
        let xt = [1.0, 2.0, -1.0];
        let mut b = vec![0.0; 3];
        spmv_csr(&a, &xt, &mut b);
        for omega in [1.0, 1.3] {
            let mut x = xt.to_vec();
            symgs_forward_csr(&a, omega, &b, &mut x);
            symgs_backward_csr(&a, omega, &b, &mut x);
            for (got, want) in x.iter().zip(xt) {
                assert!((got - want).abs() < 1e-12, "ω={omega}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn sweep_split_lays_out_scaled_strict_triangles() {
        // Row 1 stores no diagonal (treated as 1), row 3 nothing at all.
        let t = Triplets::from_entries(
            4,
            4,
            &[(0, 0, 4.0), (0, 2, -1.0), (1, 0, 3.0), (1, 2, 5.0), (2, 0, -2.0), (2, 1, 6.0), (2, 2, 8.0)],
        );
        let sp = SweepSplit::of(&Csr::from_triplets(&t), 1.5).unwrap();
        assert_eq!((sp.nrows(), sp.nnz(), sp.back, sp.is_exact()), (4, 5, 0.5, false));
        assert_eq!(sp.dinv, [1.5 / 4.0, 1.5, 1.5 / 8.0, 1.5]);
        assert_eq!(sp.dw, [4.0 / 1.5, 1.0 / 1.5, 8.0 / 1.5, 1.0 / 1.5]);
        let scaled = |v: f64, d: f64| v * (1.5 / d);
        assert_eq!(sp.tri[0], (vec![0, 0, 1, 3, 3], vec![0, 0, 1], vec![3.0 * 1.5, scaled(-2.0, 8.0), scaled(6.0, 8.0)]));
        assert_eq!(sp.tri[1], (vec![0, 1, 2, 2, 2], vec![2, 2], vec![scaled(-1.0, 4.0), 5.0 * 1.5]));
    }

    #[test]
    fn a_split_is_exact_when_every_row_stores_its_diagonal_once() {
        let once = Csr::from_triplets(&sample());
        assert!(SweepSplit::of(&once, 1.0).unwrap().is_exact());
        // Row 1 stores its diagonal twice (an SpMV sums the two); the
        // split takes the first and drops the second.
        let twice = Csr::from_raw_unchecked(2, 2, vec![0, 1, 3], vec![0, 1, 1], vec![2.0, 1.5, 2.5]);
        let sp = SweepSplit::of(&twice, 1.0).unwrap();
        assert_eq!((sp.is_exact(), sp.nnz(), &sp.dw[..]), (false, 0, &[2.0, 1.5][..]));
        // Row 0 stores none.
        let none = Csr::from_triplets(&Triplets::from_entries(2, 2, &[(0, 1, 1.0), (1, 1, 3.0)]));
        assert!(!SweepSplit::of(&none, 1.0).unwrap().is_exact());
    }

    #[test]
    fn sweep_split_refuses_what_its_lists_cannot_hold() {
        let refused = |a: &Csr| matches!(SweepSplit::of(a, 1.0), Err(RelError::Validation(_)));
        assert!(refused(&Csr::from_triplets(&Triplets::new(2, 3))));
        // A column past the order, reachable through the sanitizer's seam.
        assert!(refused(&Csr::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 1.0])));
        // An order a `u32` column cannot name: refused before any row
        // is read, never truncated.
        #[cfg(target_pointer_width = "64")]
        {
            let big = u32::MAX as usize + 1;
            assert!(refused(&Csr::from_raw_unchecked(big, big, vec![0], vec![], vec![])));
        }
        let a = Csr::from_triplets(&sample());
        let sp = SweepSplit::of(&a, 1.0).unwrap();
        assert!(sp.is_of(&a) && sp.is_of(&a.clone()));
        assert!(!sp.is_of(&Csr::from_triplets(&Triplets::from_entries(3, 3, &[(0, 0, 1.0)]))));
    }

    #[test]
    fn carried_and_loaded_neighbours_give_the_same_bits() {
        // A band (every row's nearest entry is i∓1: the register path)
        // plus far couplings, swept serially with the carry and by a
        // driver that always loads, as the level-scheduled tier does.
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + (i % 3) as f64);
            for j in [i.wrapping_sub(7), i.wrapping_sub(1), i + 1, i + 5] {
                if j < n {
                    t.push(i, j, 0.3 - 0.1 * ((i + j) % 4) as f64);
                }
            }
        }
        let a = Csr::from_triplets(&t);
        let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        for omega in [1.0, 1.3] {
            let sp = SweepSplit::of(&a, omega).unwrap();
            let (mut carried, mut loaded) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            for tri in [Triangle::Lower, Triangle::Upper] {
                sweep_carry(tri, &mut carried, split_row(&sp, tri, &r));
                let row = split_row(&sp, tri, &r);
                sweep(tri, &mut loaded, |i, z| row(i, z, None));
            }
            assert_eq!(carried.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), loaded.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            // And it is the textbook application, to rounding.
            let mut want = vec![0.0; n];
            symgs_forward_csr(&a, omega, &r, &mut want);
            symgs_backward_csr(&a, omega, &r, &mut want);
            for (got, want) in carried.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-14 * want.abs().max(1.0), "ω={omega}: {got} vs {want}");
            }
        }
    }
}
