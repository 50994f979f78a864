//! Bitwise-equivalence of the semiring-generic kernels at `F64Plus`
//! with the pre-refactor f64 kernels.
//!
//! The semiring refactor rewrote every hand-written kernel as
//! `*_in::<S: Semiring>` and deleted most of the f64-only originals.
//! The contract is that at `F64Plus` nothing changed — not "agrees to
//! rounding" but the *same bits*, because the generic code preserves
//! the exact operation order and the f64 instance compiles down to the
//! same `+`/`*`. This suite pins that contract: the pre-refactor
//! kernels are reproduced below as local references (copied from this
//! repo's own history at the refactor base commit) and compared
//! bit-for-bit against the generic kernels over random matrices, for
//! every storage format, serial and parallel.

use bernoulli_formats::{
    Ccs, Cccs, Coo, Csr, DenseMatrix, DiagonalMatrix, ExecCtx, FormatKind, InodeMatrix, Itpack,
    JDiag, SparseMatrix, Triplets,
};
use bernoulli_formats::{kernels, par_kernels};
use bernoulli_relational::semiring::F64Plus;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Pre-refactor serial references (f64, hand-written per format).
// ---------------------------------------------------------------------

fn ref_spmv_csr(a: &Csr, x: &[f64], y: &mut [f64]) {
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    for (r, yr) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in rowptr[r]..rowptr[r + 1] {
            acc += vals[k] * x[colind[k]];
        }
        *yr += acc;
    }
}

fn ref_spmv_ccs(a: &Ccs, x: &[f64], y: &mut [f64]) {
    let (colp, rowind, vals) = (a.colp(), a.rowind(), a.vals());
    for (j, &xj) in x.iter().enumerate() {
        let (s, e) = (colp[j], colp[j + 1]);
        if xj == 0.0 && vals[s..e].iter().all(|v| v.is_finite()) {
            continue;
        }
        for k in s..e {
            y[rowind[k]] += vals[k] * xj;
        }
    }
}

fn ref_spmv_cccs(a: &Cccs, x: &[f64], y: &mut [f64]) {
    let (colind, colp, rowind, vals) = (a.colind(), a.colp(), a.rowind(), a.vals());
    for (q, &j) in colind.iter().enumerate() {
        let xj = x[j];
        for k in colp[q]..colp[q + 1] {
            y[rowind[k]] += vals[k] * xj;
        }
    }
}

/// The pre-refactor `DenseMatrix::matvec_acc`, verbatim (that method is
/// now the serial tier of the shared dense body).
fn ref_spmv_dense(a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
    let (data, ncols) = (a.as_slice(), a.ncols());
    for (r, yr) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (c, &xv) in x.iter().enumerate() {
            acc += data[r * ncols + c] * xv;
        }
        *yr += acc;
    }
}

fn ref_spmv_coo(a: &Coo, x: &[f64], y: &mut [f64]) {
    let (rows, cols, vals) = a.arrays();
    for k in 0..vals.len() {
        y[rows[k]] += vals[k] * x[cols[k]];
    }
}

fn ref_spmv_diag(a: &DiagonalMatrix, x: &[f64], y: &mut [f64]) {
    for d in a.diagonals() {
        let i0 = d.first_row;
        let j0 = (i0 as isize + d.offset) as usize;
        let ys = &mut y[i0..i0 + d.vals.len()];
        let xs = &x[j0..j0 + d.vals.len()];
        for ((yv, &xv), &av) in ys.iter_mut().zip(xs).zip(&d.vals) {
            *yv += av * xv;
        }
    }
}

fn ref_spmv_itpack(a: &Itpack, x: &[f64], y: &mut [f64]) {
    let n = a.nrows();
    let (colind, vals) = a.arrays();
    for k in 0..a.width() {
        let base = k * n;
        for (r, yr) in y.iter_mut().enumerate() {
            *yr += vals[base + r] * x[colind[base + r]];
        }
    }
}

fn ref_spmv_jdiag(a: &JDiag, x: &[f64], y: &mut [f64]) {
    let (jd_ptr, colind, vals) = a.arrays();
    let mut work = vec![0.0; a.nrows()];
    for d in 0..a.num_jdiags() {
        let (s, e) = (jd_ptr[d], jd_ptr[d + 1]);
        for (p, k) in (s..e).enumerate() {
            work[p] += vals[k] * x[colind[k]];
        }
    }
    let perm = a.permutation();
    for (p, &w) in work.iter().enumerate() {
        y[perm.backward(p)] += w;
    }
}

fn ref_spmv_inode(a: &InodeMatrix, x: &[f64], y: &mut [f64]) {
    let mut gx: Vec<f64> = Vec::new();
    for g in a.inodes() {
        gx.clear();
        gx.extend(g.cols.iter().map(|&c| x[c]));
        for r in 0..g.rows {
            // Row r's values sit at r, r + h, r + 2h, … of the block.
            let row = g.vals.iter().skip(r).step_by(g.rows);
            let mut acc = 0.0;
            for (a_rv, &xv) in row.zip(&gx) {
                acc += a_rv * xv;
            }
            y[g.first_row + r] += acc;
        }
    }
}

fn ref_spmm_csr_dense(a: &Csr, x: &[f64], k: usize, y: &mut [f64]) {
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    for r in 0..a.nrows() {
        let yrow = &mut y[r * k..(r + 1) * k];
        for p in rowptr[r]..rowptr[r + 1] {
            let av = vals[p];
            let xrow = &x[colind[p] * k..(colind[p] + 1) * k];
            for (yv, &xv) in yrow.iter_mut().zip(xrow) {
                *yv += av * xv;
            }
        }
    }
}

/// Serial reference dispatch: the pre-refactor `SparseMatrix::spmv_acc`.
fn ref_spmv(m: &SparseMatrix, x: &[f64], y: &mut [f64]) {
    match m {
        SparseMatrix::Dense(d) => ref_spmv_dense(d, x, y),
        SparseMatrix::Coordinate(c) => ref_spmv_coo(c, x, y),
        SparseMatrix::Csr(c) => ref_spmv_csr(c, x, y),
        SparseMatrix::Ccs(c) => ref_spmv_ccs(c, x, y),
        SparseMatrix::Cccs(c) => ref_spmv_cccs(c, x, y),
        SparseMatrix::Diagonal(d) => ref_spmv_diag(d, x, y),
        SparseMatrix::Itpack(i) => ref_spmv_itpack(i, x, y),
        SparseMatrix::JDiag(j) => ref_spmv_jdiag(j, x, y),
        SparseMatrix::Inode(i) => ref_spmv_inode(i, x, y),
    }
}

// ---------------------------------------------------------------------
// Pre-refactor parallel references. The row-major family was (and is)
// bit-identical to serial, so its reference is `ref_spmv`. The scatter
// family (CCS / CCCS / COO) accumulated per-chunk partials serially
// and merged them in fixed chunk order — deterministic for a given
// worker count but re-associated vs serial — reproduced here with the
// same chunk geometry, computed on one thread (the schedule never
// affected the result, only which thread ran which chunk).
// ---------------------------------------------------------------------

fn merge_ref_partials(y: &mut [f64], partials: &[Vec<f64>]) {
    for part in partials {
        for (yv, &pv) in y.iter_mut().zip(part) {
            *yv += pv;
        }
    }
}

fn ref_par_spmv(m: &SparseMatrix, x: &[f64], y: &mut [f64], threads: usize, threshold: usize) {
    let work = match m {
        SparseMatrix::Dense(d) => d.nrows() * d.ncols(),
        _ => m.nnz(),
    };
    if work < threshold {
        return ref_spmv(m, x, y);
    }
    match m {
        SparseMatrix::Ccs(a) => {
            if threads <= 1 || y.is_empty() || a.ncols() < 2 {
                return ref_spmv_ccs(a, x, y);
            }
            let nchunks = threads.min(a.ncols());
            let per = a.ncols().div_ceil(nchunks);
            let partials: Vec<Vec<f64>> = (0..nchunks)
                .map(|c| {
                    let j0 = c * per;
                    let j1 = (j0 + per).min(a.ncols());
                    let mut part = vec![0.0; a.nrows()];
                    let (colp, rowind, vals) = (a.colp(), a.rowind(), a.vals());
                    for j in j0..j1 {
                        let xj = x[j];
                        let (s, e) = (colp[j], colp[j + 1]);
                        if xj == 0.0 && vals[s..e].iter().all(|v| v.is_finite()) {
                            continue;
                        }
                        for k in s..e {
                            part[rowind[k]] += vals[k] * xj;
                        }
                    }
                    part
                })
                .collect();
            merge_ref_partials(y, &partials);
        }
        SparseMatrix::Cccs(a) => {
            let stored = a.colind().len();
            if threads <= 1 || y.is_empty() || stored < 2 {
                return ref_spmv_cccs(a, x, y);
            }
            let nchunks = threads.min(stored);
            let per = stored.div_ceil(nchunks);
            let (colind, colp, rowind, vals) = (a.colind(), a.colp(), a.rowind(), a.vals());
            let partials: Vec<Vec<f64>> = (0..nchunks)
                .map(|c| {
                    let q0 = c * per;
                    let q1 = (q0 + per).min(stored);
                    let mut part = vec![0.0; a.nrows()];
                    for q in q0..q1 {
                        let xj = x[colind[q]];
                        for k in colp[q]..colp[q + 1] {
                            part[rowind[k]] += vals[k] * xj;
                        }
                    }
                    part
                })
                .collect();
            merge_ref_partials(y, &partials);
        }
        SparseMatrix::Coordinate(a) => {
            let nnz = a.nnz();
            if threads <= 1 || y.is_empty() || nnz < 2 {
                return ref_spmv_coo(a, x, y);
            }
            let nchunks = threads.min(nnz);
            let per = nnz.div_ceil(nchunks);
            let (rows, cols, vals) = a.arrays();
            let partials: Vec<Vec<f64>> = (0..nchunks)
                .map(|c| {
                    let k0 = c * per;
                    let k1 = (k0 + per).min(nnz);
                    let mut part = vec![0.0; a.nrows()];
                    for k in k0..k1 {
                        part[rows[k]] += vals[k] * x[cols[k]];
                    }
                    part
                })
                .collect();
            merge_ref_partials(y, &partials);
        }
        // Row-major family: parallel was defined to be bit-identical
        // to serial for any worker count.
        _ => ref_spmv(m, x, y),
    }
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

fn arb_matrix() -> impl Strategy<Value = Triplets> {
    (1usize..10, 1usize..10).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec(
            (0..nr, 0..nc, -64i32..64).prop_map(|(r, c, v)| (r, c, v as f64 / 8.0)),
            0..50,
        )
        .prop_map(move |entries| Triplets::from_entries(nr, nc, &entries))
    })
}

/// Vector with exact dyadic values (and plenty of zeros, to exercise
/// the CCS zero-column skip).
fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-16i32..16).prop_map(|v| v as f64 / 4.0), len..=len)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial: `spmv_acc_on::<F64Plus>` without a context is
    /// byte-identical to the pre-refactor kernel for every storage
    /// format.
    #[test]
    fn serial_generic_spmv_bitwise_equals_f64((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            let mut y_gen = vec![0.25; t.nrows()];
            let mut y_ref = vec![0.25; t.nrows()];
            m.spmv_acc_on::<F64Plus>(&x, &mut y_gen, None);
            ref_spmv(&m, &x, &mut y_ref);
            prop_assert_eq!(bits(&y_gen), bits(&y_ref), "format {}", kind);
        }
    }

    /// Parallel: `spmv_acc_on::<F64Plus>` at 4 workers is
    /// byte-identical to the pre-refactor parallel kernel (row family:
    /// same bits as serial; scatter family: same chunk-partial bits).
    #[test]
    fn parallel_generic_spmv_bitwise_equals_f64((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let exec = ExecCtx::with_threads(4).threshold(1);
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            let mut y_gen = vec![-0.5; t.nrows()];
            let mut y_ref = vec![-0.5; t.nrows()];
            m.spmv_acc_on::<F64Plus>(&x, &mut y_gen, Some(&exec));
            ref_par_spmv(&m, &x, &mut y_ref, 4, 1);
            prop_assert_eq!(bits(&y_gen), bits(&y_ref), "format {}", kind);
        }
    }

    /// The CRS × skinny-dense kernel, serial + parallel: the generic
    /// code path behind the surviving f64 wrappers is byte-identical to
    /// the pre-refactor loop.
    #[test]
    fn generic_spmm_bitwise_equals_f64((t, k) in arb_matrix().prop_flat_map(|t| (Just(t), 1usize..4))) {
        let a = Csr::from_triplets(&t);
        // A·X with a skinny dense X (dyadic entries).
        let x: Vec<f64> = (0..a.ncols() * k).map(|i| ((i % 7) as f64) * 0.5 - 1.5).collect();
        let exec = ExecCtx::with_threads(4).threshold(1);
        let mut y_gen = vec![0.0; a.nrows() * k];
        let mut y_ref = vec![0.0; a.nrows() * k];
        kernels::spmm_csr_dense_in::<F64Plus>(&a, &x, k, &mut y_gen);
        ref_spmm_csr_dense(&a, &x, k, &mut y_ref);
        prop_assert_eq!(bits(&y_gen), bits(&y_ref));
        let mut y_par = vec![0.0; a.nrows() * k];
        par_kernels::par_spmm_csr_dense_in::<F64Plus>(&a, &x, k, &mut y_par, &exec);
        prop_assert_eq!(bits(&y_par), bits(&y_ref), "par_spmm_csr_dense");
    }
}

/// Non-finite values must flow through the generic zero-column skip
/// exactly as the pre-refactor finiteness gate did: a NaN/Inf column
/// scaled by 0.0 still reaches `y` (as NaN), a finite column does not.
#[test]
fn non_finite_columns_keep_the_pre_refactor_gate() {
    let t = Triplets::from_entries(
        3,
        3,
        &[
            (0, 0, f64::NAN),
            (1, 1, 2.0),
            (2, 2, f64::INFINITY),
        ],
    );
    let x = vec![0.0, 0.0, 0.0];
    let a = Ccs::from_triplets(&t);
    let mut y_gen = vec![1.0; 3];
    let mut y_ref = vec![1.0; 3];
    kernels::spmv_in::<F64Plus, Ccs>(&a, &x, &mut y_gen);
    ref_spmv_ccs(&a, &x, &mut y_ref);
    assert_eq!(bits(&y_gen), bits(&y_ref));
    assert!(y_gen[0].is_nan() && y_gen[2].is_nan() && y_gen[1] == 1.0);
}
