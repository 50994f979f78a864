//! One table-driven suite for the kernel tiers: every storage format's
//! single ranged body (`formats::kernels`) under the three parallel
//! drivers (`formats::par_kernels`) must keep its family's
//! result-vs-serial contract, for every semiring class, worker count
//! and degenerate operand:
//!
//! * **row family** (CRS, ITPACK, JDIAG, Diagonal, i-node, Dense,
//!   CRS × skinny-dense): bitwise == serial, always;
//! * **scatter family** (CCS, CCCS, COO): ≤ 1e-12 relative to serial
//!   under an associative-commutative ⊕, and bitwise == serial (the
//!   driver refuses to split) under a non-AC ⊕;
//! * **DO-ACROSS** (SpTRSV, Gauss-Seidel): bitwise == serial under a
//!   valid `WavefrontCert`, and the serial sweep itself under a foreign
//!   certificate or schedule.
//!
//! Underneath the drivers, the two fork/join primitives
//! (`ExecCtx::{par_blocks, par_ranges}`) get a table of their own:
//! geometry, result order, panic propagation, and bit patterns that pin
//! where the chunk boundaries fall.
//!
//! Worker counts are forced past the host's core count and the size
//! gate is 1, so the drivers — not the environment — decide.

use bernoulli_analysis::wavefront::{analyze_wavefront, certify_wavefront, LevelSchedule, Relation, Triangle};
use bernoulli_formats::kernels::{self, SpmvBody};
use bernoulli_formats::{
    gen, par_kernels, Ccs, Csr, ExecCtx, FormatKind, InodeMatrix, SparseMatrix, Triplets, Validate,
};
use proptest::prelude::*;
use bernoulli_relational::access::MatrixAccess;
use bernoulli_relational::semiring::{F64Plus, FirstNonZero, MinPlus, Semiring};
use bernoulli_solvers::vecops;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

const WORKERS: [usize; 4] = [1, 2, 3, 7];

fn ctx(workers: usize) -> ExecCtx {
    ExecCtx::with_threads(workers).threshold(1).oversubscribe(true)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The format table: `t` held in every `FormatKind`, with its name and
/// whether its body is in the scatter family.
fn formats(t: &Triplets) -> Vec<(String, bool, SparseMatrix)> {
    let scatter = [FormatKind::Ccs, FormatKind::Cccs, FormatKind::Coordinate];
    FormatKind::ALL
        .into_iter()
        .map(|kind| (kind.to_string(), scatter.contains(&kind), SparseMatrix::from_triplets(kind, t)))
        .collect()
}

/// The operand table: degenerate shapes, holes, and generators whose
/// multi-row structures (diagonals, 3-row i-nodes) straddle
/// the chunk boundaries of 2, 3 and 7 workers.
fn operands() -> Vec<(&'static str, Triplets)> {
    let holes: Vec<(usize, usize, f64)> = (0..12)
        .flat_map(|i| (0..12).map(move |j| (i, j)))
        .filter(|&(i, j)| i % 2 == 0 && j % 3 == 0 && (i + j) % 5 != 0)
        .map(|(i, j)| (i, j, (i * 12 + j) as f64 * 0.125 - 7.0))
        .collect();
    let wide: Vec<(usize, usize, f64)> = [0, 2, 3, 7, 8].iter().map(|&j| (0, j, j as f64 - 3.5)).collect();
    let tall: Vec<(usize, usize, f64)> = [1, 4, 5, 8].iter().map(|&i| (i, 0, 2.5 - i as f64)).collect();
    vec![
        ("0x0", Triplets::new(0, 0)),
        ("empty 6x4", Triplets::new(6, 4)),
        ("1xn", Triplets::from_entries(1, 9, &wide)),
        ("nx1", Triplets::from_entries(9, 1, &tall)),
        ("empty rows and columns", Triplets::from_entries(12, 12, &holes)),
        // 221 rows: every stored diagonal spans all chunk boundaries.
        ("grid2d 17x13", gen::grid2d_5pt(17, 13)),
        // 45 rows in 3-row i-nodes: 2 workers cut at row 23, inside one.
        ("fem 5x3 dof 3", gen::fem_grid_2d(5, 3, 3)),
        ("rectangular random", gen::random_sparse(14, 22, 90, 5)),
    ]
}

/// A small operand with NaN and ±Inf stored values, hit by zeros in `x`
/// (`0·NaN` and `0·Inf` are NaN and must reach `y` on every tier).
fn nonfinite() -> (Triplets, Vec<f64>) {
    let t = Triplets::from_entries(
        6,
        6,
        &[
            (0, 0, f64::NAN),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, f64::INFINITY),
            (3, 1, f64::NEG_INFINITY),
            (3, 4, 1.5),
            (4, 3, -2.0),
            (5, 5, 4.0),
            (5, 2, f64::INFINITY),
        ],
    );
    (t, vec![0.0, 1.0, 0.0, -1.0, 2.0, 0.5])
}

/// Scatter-family agreement under an AC ⊕: same NaN-ness, same
/// infinities, finite values within 1e-12 relative.
fn close(got: &[f64], want: &[f64]) -> bool {
    got.iter().zip(want).all(|(&g, &w)| {
        g.to_bits() == w.to_bits()
            || (g.is_nan() && w.is_nan())
            || (g - w).abs() <= 1e-12 * w.abs().max(1.0)
    })
}

/// The contract of one `(operand, semiring)` cell, over every format
/// and worker count.
fn check_cell<S: Semiring>(name: &str, t: &Triplets, x: &[f64], y0: f64) {
    let ac = S::PLUS_IS_ASSOCIATIVE && S::PLUS_IS_COMMUTATIVE;
    for (format, scatter, a) in formats(t) {
        let mut want = vec![y0; t.nrows()];
        a.spmv_acc_on::<S>(x, &mut want, None);
        for workers in WORKERS {
            let mut got = vec![y0; t.nrows()];
            a.spmv_acc_on::<S>(x, &mut got, Some(&ctx(workers)));
            let cell = format!("{name}, {format}, {}, {workers} workers", S::NAME);
            if scatter && ac {
                assert!(close(&got, &want), "{cell}: {got:?} vs {want:?}");
            } else {
                assert_eq!(bits(&got), bits(&want), "{cell}");
            }
        }
    }
}

#[test]
fn spmv_tiers_keep_their_family_contract() {
    for (name, t) in operands() {
        let n = t.ncols();
        let xf: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
        check_cell::<F64Plus>(name, &t, &xf, 0.1);
        // Distances: a third of the sources reachable, y seeded both
        // unreached (the ⊕ identity) and with a finite bound.
        let xm: Vec<f64> =
            (0..n).map(|i| if i % 3 == 0 { (i % 7) as f64 } else { f64::INFINITY }).collect();
        check_cell::<MinPlus>(name, &t, &xm, MinPlus::zero());
        check_cell::<MinPlus>(name, &t, &xm, 2.5);
        // Non-commutative ⊕: any re-ordering of a scatter shows.
        let xn: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) % 5) as f64 - 1.0).collect();
        check_cell::<FirstNonZero>(name, &t, &xn, 0.0);
    }
}

#[test]
fn nonfinite_values_propagate_identically_on_every_tier() {
    let (t, x) = nonfinite();
    check_cell::<F64Plus>("nonfinite", &t, &x, 0.0);
    check_cell::<FirstNonZero>("nonfinite", &t, &x, 0.0);
    // The serial CCS body itself must not drop NaN·0 / Inf·0 (its
    // zero-column skip is gated on the column being finite), and the
    // split keeps that rule per range.
    let ccs = Ccs::from_triplets(&t);
    let mut ys = vec![0.0; 6];
    kernels::spmv_in::<F64Plus, _>(&ccs, &x, &mut ys);
    assert!(ys[0].is_nan(), "NaN·0 dropped by serial CCS kernel");
    assert!(ys[2].is_nan(), "Inf·0 dropped by serial CCS kernel");
    let mut yp = vec![0.0; 6];
    par_kernels::par_spmv_in::<F64Plus, _>(&ccs, &x, &mut yp, &ctx(3));
    assert!(yp[0].is_nan() && yp[2].is_nan(), "parallel CCS differs from serial");
    assert_eq!(ys[1], yp[1]);
}

/// The serial tier of every format is the textbook product (the other
/// cells only compare tiers with each other).
#[test]
fn serial_tier_matches_the_triplet_oracle() {
    for (name, t) in operands() {
        let x: Vec<f64> = (0..t.ncols()).map(|i| ((i * 5 + 1) % 9) as f64 - 4.0).collect();
        let mut want = vec![0.0; t.nrows()];
        t.matvec_acc(&x, &mut want);
        for (format, _, a) in formats(&t) {
            let mut y = vec![0.0; t.nrows()];
            a.spmv_acc_on::<F64Plus>(&x, &mut y, None);
            assert!(close(&y, &want), "{name}, {format}: {y:?} vs {want:?}");
        }
    }
}

/// Below the work threshold the dispatcher stays serial (observable
/// through bit-identity even for the scatter family).
#[test]
fn threshold_keeps_small_matrices_serial() {
    let t = gen::grid2d_5pt(17, 13);
    let x: Vec<f64> = (0..t.ncols()).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
    let exec = ExecCtx::with_threads(4); // default threshold ≫ grid nnz
    for kind in FormatKind::ALL {
        let m = SparseMatrix::from_triplets(kind, &t);
        let mut want = vec![0.0; t.nrows()];
        m.spmv_acc(&x, &mut want);
        let mut got = vec![0.0; t.nrows()];
        m.spmv_acc_on::<F64Plus>(&x, &mut got, Some(&exec));
        assert_eq!(bits(&got), bits(&want), "format {kind}");
    }
}

/// CRS × skinny-dense is a row-family body: bitwise == serial for every
/// worker count, any width (0 included), any semiring.
#[test]
fn spmm_tiers_are_bitwise_serial() {
    for (name, t) in operands() {
        let a = Csr::from_triplets(&t);
        for k in [0, 1, 4] {
            let x: Vec<f64> = (0..t.ncols() * k).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
            let mut want = vec![0.5; t.nrows() * k];
            kernels::spmm_csr_dense(&a, &x, k, &mut want);
            let mut want_min = vec![1.5; t.nrows() * k];
            kernels::spmm_csr_dense_in::<MinPlus>(&a, &x, k, &mut want_min);
            for workers in WORKERS {
                let mut got = vec![0.5; t.nrows() * k];
                par_kernels::par_spmm_csr_dense(&a, &x, k, &mut got, &ctx(workers));
                assert_eq!(bits(&got), bits(&want), "{name}, k={k}, {workers} workers");
                let mut got_min = vec![1.5; t.nrows() * k];
                par_kernels::par_spmm_csr_dense_in::<MinPlus>(&a, &x, k, &mut got_min, &ctx(workers));
                assert_eq!(bits(&got_min), bits(&want_min), "{name}, min-plus, k={k}, {workers} workers");
            }
        }
    }
}

// --- I-node storage built from CRS -------------------------------------

/// `rows` consecutive rows sharing the column list `cols`, distinct
/// values everywhere.
fn identical_rows(rows: usize, cols: &[usize], ncols: usize) -> Triplets {
    let mut t = Triplets::new(rows, ncols);
    for r in 0..rows {
        for (k, &c) in cols.iter().enumerate() {
            t.push(r, c, (r * cols.len() + k) as f64 * 0.375 - 2.9);
        }
    }
    t
}

/// The group body over `InodeMatrix::of(&a)` is `spmv_csr` on `a` bit
/// for bit, whatever the groups look like: the paper's multi-dof grids
/// as numbered and with shuffled points, no repeated column list at
/// all, empty rows (which group with each other), a group taller than
/// the body's eight rows, and non-finite `x`. So is the body over any
/// row range, including ranges that start and end inside a group.
#[test]
fn csr_inode_body_is_bitwise_the_crs_body() {
    let mut table: Vec<(String, Triplets)> = Vec::new();
    for dof in 1..=5 {
        let (g2, g3) = (gen::fem_grid_2d(6, 5, dof), gen::fem_grid_3d(4, 3, 3, dof));
        table.push((format!("fem 2d dof {dof}, shuffled"), gen::shuffle_points(&g2, dof, 7)));
        table.push((format!("fem 3d dof {dof}, shuffled"), gen::shuffle_points(&g3, dof, 11)));
        table.push((format!("fem 2d dof {dof}"), g2));
        table.push((format!("fem 3d dof {dof}"), g3));
    }
    table.push(("no repeated column list".into(), gen::grid2d_5pt(9, 7)));
    table.extend(operands().into_iter().map(|(name, t)| (name.to_string(), t)));
    table.push(("13 identical rows".into(), identical_rows(13, &[0, 2, 3, 9], 11)));

    for (name, t) in &table {
        let a = Csr::from_triplets(t);
        let m = InodeMatrix::of(&a);
        let n = t.ncols();
        let finite: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 * 0.3 - 1.7).collect();
        let mut nonfinite = finite.clone();
        for (at, v) in [(0, f64::NAN), (n / 2, f64::INFINITY), (n.saturating_sub(1), f64::NEG_INFINITY)] {
            if let Some(x) = nonfinite.get_mut(at) {
                *x = v;
            }
        }
        for x in [&finite, &nonfinite] {
            let mut want = vec![0.25; t.nrows()];
            kernels::spmv_csr(&a, x, &mut want);
            let mut got = vec![0.25; t.nrows()];
            kernels::spmv_in::<F64Plus, InodeMatrix>(&m, x, &mut got);
            assert_eq!(bits(&got), bits(&want), "{name}");
            // Through a column translation, as the naive executor reads x.
            let shifted: Vec<f64> = std::iter::once(0.0).chain(x.iter().copied()).collect();
            let mut via = vec![0.25; t.nrows()];
            kernels::spmv_inode_with(&m, |c| shifted[c + 1], &mut via);
            assert_eq!(bits(&via), bits(&want), "{name}, translated");
            // Rows in ranges of 3 and of 11: both cut 5-row groups and
            // the 13-row one, at every offset.
            for width in [3, 11] {
                let mut ranged = vec![0.25; t.nrows()];
                for lo in (0..t.nrows()).step_by(width) {
                    let hi = (lo + width).min(t.nrows());
                    m.acc::<F64Plus>(lo, hi, x, &mut ranged[lo..hi]);
                }
                assert_eq!(bits(&ranged), bits(&want), "{name}, ranges of {width}");
            }
        }
    }

    let sizes = |t: &Triplets| -> Vec<usize> {
        InodeMatrix::of(&Csr::from_triplets(t)).inodes().map(|g| g.rows).collect()
    };
    assert_eq!(sizes(&gen::fem_grid_2d(6, 5, 5)), vec![5; 30], "one group per point");
    assert!(sizes(&gen::grid2d_5pt(9, 7)).iter().all(|&rows| rows == 1));
    assert_eq!(sizes(&identical_rows(13, &[0, 2, 3, 9], 11)), vec![13], "one group, run as 8 + 5 rows");
    assert_eq!(sizes(&Triplets::new(6, 4)), vec![6], "empty rows share the empty list");
}

proptest! {
    /// The groups tile `0..nrows` in order, every group's rows have
    /// equal column slices, no group could have taken the next row (the
    /// matrix ended, or the next row differs), and the interleaved block
    /// holds each row's CRS values: `vals[k·h + r]` is row `r`'s `k`-th.
    #[test]
    fn inode_matrix_tiles_rows_into_maximal_equal_groups(
        nrows in 0usize..40,
        ncols in 1usize..7,
        // Few distinct lists, so runs of equal rows — long ones too — occur.
        lists in proptest::collection::vec(0usize..8, 0..40),
    ) {
        let mut t = Triplets::new(nrows, ncols);
        for r in 0..nrows {
            let mask = lists.get(r).copied().unwrap_or(5);
            for c in (0..ncols).filter(|c| mask >> (c % 3) & 1 == 1) {
                t.push(r, c, (r * ncols + c) as f64 + 1.0);
            }
        }
        let a = Csr::from_triplets(&t);
        let m = InodeMatrix::of(&a);
        prop_assert!(m.validate().is_empty());
        let mut next = 0;
        for g in m.inodes() {
            let rows = g.first_row..g.first_row + g.rows;
            prop_assert_eq!(rows.start, next, "groups tile the rows in order");
            prop_assert!(g.rows >= 1);
            prop_assert!(rows.clone().all(|r| a.row_cols(r) == g.cols));
            let maximal = rows.end == nrows || a.row_cols(rows.end) != g.cols;
            prop_assert!(maximal, "group {:?} stops early", rows);
            for r in 0..g.rows {
                let row: Vec<f64> = (0..g.cols.len()).map(|k| g.at(r, k)).collect();
                prop_assert_eq!(bits(&row), bits(a.row_vals(g.first_row + r)));
            }
            next = rows.end;
        }
        prop_assert_eq!(next, nrows);
    }
}

/// The copy's access views read the CRS entries back bit for bit —
/// stored NaN and ±Inf too: the flat view in row order, each row
/// through its outer cursor and the strided inner walk, every stored
/// pair by search (and no pair that is not stored), `to_triplets` back
/// to `a` itself, and `from_triplets` the same entries as `of`.
#[test]
fn inode_matrix_views_read_back_the_crs_entries() {
    let entries = |a: &Csr| -> Vec<(usize, usize, u64)> {
        (0..a.nrows())
            .flat_map(|i| a.row_cols(i).iter().zip(a.row_vals(i)).map(move |(&j, v)| (i, j, v.to_bits())))
            .collect()
    };
    let mut table: Vec<(String, Triplets)> =
        operands().into_iter().map(|(name, t)| (name.to_string(), t)).collect();
    table.push(("non-finite values".into(), nonfinite().0));
    table.push(("13 identical rows".into(), identical_rows(13, &[0, 2, 3, 9], 11)));
    table.push(("fem 3d dof 4, shuffled".into(), gen::shuffle_points(&gen::fem_grid_3d(3, 3, 2, 4), 4, 5)));

    for (name, t) in &table {
        let a = Csr::from_triplets(t);
        let m = InodeMatrix::of(&a);
        let want = entries(&a);
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (a.nrows(), a.ncols(), a.nnz()), "{name}: shape");

        let flat: Vec<_> = m.enum_flat().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        assert_eq!(flat, want, "{name}: flat view");

        let mut nested = Vec::new();
        for cur in m.enum_outer() {
            assert_eq!(m.search_outer(cur.index).map(|c| (c.a, c.b)), Some((cur.a, cur.b)), "{name}");
            nested.extend(m.enum_inner(&cur).map(|(j, v)| (cur.index, j, v.to_bits())));
        }
        assert_eq!(nested, want, "{name}: outer then inner");

        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let stored = want.iter().find(|e| (e.0, e.1) == (i, j)).map(|e| e.2);
                assert_eq!(m.search_pair(i, j).map(f64::to_bits), stored, "{name}: ({i}, {j})");
            }
        }
        assert_eq!(entries(&Csr::from_triplets(&m.to_triplets())), want, "{name}: to_triplets");
        let via: Vec<_> = InodeMatrix::from_triplets(t).enum_flat().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        assert_eq!(via, want, "{name}: from_triplets");
    }
}

// --- DO-ACROSS ---------------------------------------------------------

/// One triangle of the 12×9 grid stencil (108 rows, anti-diagonal
/// wavefronts), off-diagonals scaled to keep the solve tame; `strict`
/// drops the diagonal for the unit-diagonal solves.
fn triangle_of(tri: Triangle, strict: bool) -> Csr {
    let t = gen::grid2d_5pt(12, 9);
    let keep: Vec<(usize, usize, f64)> = t
        .entries()
        .iter()
        .filter(|&&(i, j, _)| match tri {
            Triangle::Lower => j < i || (j == i && !strict),
            Triangle::Upper => j > i || (j == i && !strict),
        })
        .map(|&(i, j, v)| (i, j, if i == j { v } else { 0.25 * v }))
        .collect();
    Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &keep))
}

/// Every row in one level: following it would compute a Jacobi-style
/// update, not the sweep — so equality with serial proves it was
/// refused.
fn one_level(n: usize) -> LevelSchedule {
    LevelSchedule::from_raw_unchecked(n, (0..n).collect(), vec![0, n])
}

fn rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
    b[n / 2] = f64::INFINITY;
    b[n - 1] = f64::NAN;
    b
}

#[test]
fn sptrsv_level_parallel_is_bitwise_serial_and_refuses_foreign_certificates() {
    for tri in [Triangle::Lower, Triangle::Upper] {
        for unit in [false, true] {
            let a = triangle_of(tri, unit);
            let n = a.nrows();
            let b = rhs(n);
            let mut want = vec![0.0; n];
            kernels::sptrsv_csr(&a, tri, unit, &b, &mut want);

            let report = analyze_wavefront(n, a.rowptr(), a.colind(), tri);
            let (sched, cert) = (report.schedule.unwrap(), report.certificate.unwrap());
            assert!(sched.num_levels() > 1 && sched.max_level_width() > 1);
            // Certificates of another operand: same pattern, other arrays.
            let twin = a.clone();
            let foreign = analyze_wavefront(n, twin.rowptr(), twin.colind(), tri);
            let (fsched, fcert) = (foreign.schedule.unwrap(), foreign.certificate.unwrap());

            for workers in WORKERS {
                let exec = ctx(workers);
                let case = format!("{tri:?}, unit={unit}, {workers} workers");
                let mut got = vec![0.0; n];
                par_kernels::par_sptrsv_csr(&a, tri, unit, &b, &mut got, (&sched, &cert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}");
                let mut got = vec![0.0; n];
                par_kernels::par_sptrsv_csr(&a, tri, unit, &b, &mut got, (&fsched, &fcert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}, foreign certificate");
                let mut got = vec![0.0; n];
                par_kernels::par_sptrsv_csr(&a, tri, unit, &b, &mut got, (&one_level(n), &cert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}, forged schedule");
            }
        }
    }
}

#[test]
fn symgs_level_parallel_is_bitwise_serial_and_refuses_foreign_certificates() {
    let a = Csr::from_triplets(&gen::grid2d_5pt(12, 9));
    let n = a.nrows();
    let b = rhs(n);
    let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
    // One schedule over A's own arrays serves both sweeps.
    let gauss_seidel = |m: &Csr| certify_wavefront(n, m.rowptr(), m.colind(), m.index_digest(), Relation::GaussSeidel, None).unwrap();
    let (sched, cert) = gauss_seidel(&a);
    assert!(sched.num_levels() > 1 && sched.max_level_width() > 1);
    // Certificates of another operand: same pattern, other arrays.
    let twin = a.clone();
    let (fsched, fcert) = gauss_seidel(&twin);
    for tri in [Triangle::Lower, Triangle::Upper] {
        for omega in [1.0, 1.3] {
            let mut want = x0.clone();
            kernels::symgs_sweep_csr(&a, tri, omega, &b, &mut want);
            for workers in WORKERS {
                let exec = ctx(workers);
                let case = format!("{tri:?}, ω={omega}, {workers} workers");
                let mut got = x0.clone();
                par_kernels::par_symgs_csr(&a, tri, omega, &b, &mut got, (&sched, &cert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}");
                let mut got = x0.clone();
                par_kernels::par_symgs_csr(&a, tri, omega, &b, &mut got, (&fsched, &fcert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}, foreign certificate");
                let mut got = x0.clone();
                par_kernels::par_symgs_csr(&a, tri, omega, &b, &mut got, (&one_level(n), &cert), &exec);
                assert_eq!(bits(&got), bits(&want), "{case}, forged schedule");
            }
        }
    }
}

/// The sweeps' diagonal index is built by the first sweep over an
/// operand and is no part of its value: `==` and `clone()` read the same
/// before and after, and a clone sweeps to the same bits either way.
#[test]
fn diagonal_index_is_invisible_to_clone_and_eq() {
    let t = gen::grid2d_5pt(12, 9);
    let (fresh, swept) = (Csr::from_triplets(&t), Csr::from_triplets(&t));
    let n = swept.nrows();
    let b = rhs(n);
    let early = swept.clone();
    let mut want = vec![0.0; n];
    kernels::symgs_sweep_csr(&swept, Triangle::Lower, 1.3, &b, &mut want);
    let late = swept.clone();
    assert!(fresh == swept && early == swept && late == swept && late == early);
    let mut other = late.clone();
    other.vals_mut()[0] += 1.0;
    assert!(other != swept);
    for (case, twin) in [("cloned before the first sweep", &early), ("cloned after", &late), ("never swept", &fresh)] {
        let mut got = vec![0.0; n];
        kernels::symgs_sweep_csr(twin, Triangle::Lower, 1.3, &b, &mut got);
        assert_eq!(bits(&got), bits(&want), "{case}");
    }
}

// --- the fork/join primitives -------------------------------------------

/// Geometry of `par_blocks` and `par_ranges` over workers × lengths
/// around the worker count × units (4 and 5 leave a ragged tail on most
/// lengths): every element is visited exactly once at its own offset,
/// blocks start on unit boundaries at `(len/unit).div_ceil(t).max(1)·unit`
/// strides, and ranges come back in order at `items.div_ceil(min(t, items))`
/// strides — empty tail ranges and the single empty range of
/// `items == 0` included.
#[test]
fn fork_join_primitives_partition_their_index_space_in_order() {
    for t in WORKERS {
        let exec = ExecCtx::with_threads(t);
        for len in [0, 1, t - 1, t, t + 1, 103] {
            for unit in [1, 4, 5] {
                let case = format!("{t} workers, len {len}, unit {unit}");
                let mut y = vec![0usize; len];
                let blocks = Mutex::new(Vec::new());
                exec.par_blocks(&mut y, unit, |offset, block| {
                    blocks.lock().unwrap().push((offset, block.len()));
                    for (d, v) in block.iter_mut().enumerate() {
                        *v += offset + d + 1;
                    }
                });
                assert_eq!(y, (1..=len).collect::<Vec<_>>(), "{case}");
                let mut blocks = blocks.into_inner().unwrap();
                blocks.sort_unstable();
                let chunk = (len / unit).div_ceil(t).max(1) * unit;
                let want: Vec<(usize, usize)> = if t == 1 || len == 0 {
                    vec![(0, len)]
                } else {
                    (0..len).step_by(chunk).map(|lo| (lo, chunk.min(len - lo))).collect()
                };
                assert_eq!(blocks, want, "{case}");
                // One block per worker; a ragged tail may add one more.
                assert!(blocks.len() <= t + usize::from(len % unit != 0), "{case}");
                assert!(blocks.iter().all(|&(lo, _)| lo % unit == 0), "{case}");
            }

            let ranges = exec.par_ranges(len, |lo, hi| (lo, hi));
            let nchunks = t.min(len).max(1);
            let per = len.div_ceil(nchunks);
            let want: Vec<(usize, usize)> =
                (0..nchunks).map(|c| ((c * per).min(len), ((c + 1) * per).min(len))).collect();
            assert_eq!(ranges, want, "{t} workers, {len} items");
            assert_eq!((ranges[0].0, ranges[nchunks - 1].1), (0, len));
            assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0), "{t} workers, {len} items");
        }
    }
}

/// A body that panics — on the calling thread (block 0) or on a spawned
/// worker — surfaces as that panic, payload intact, after every other
/// block has run to completion; it never hangs or turns into a generic
/// "a scoped thread panicked".
#[test]
fn a_panicking_block_is_re_raised_on_the_caller_after_the_join() {
    let exec = ExecCtx::with_threads(3);
    let message = |r: std::thread::Result<()>| r.unwrap_err().downcast_ref::<String>().cloned();
    for bad in 0..3 {
        let mut y = vec![0u8; 9];
        let blocks = catch_unwind(AssertUnwindSafe(|| {
            exec.par_blocks(&mut y, 1, |offset, block| {
                assert!(offset != 3 * bad, "block {bad} failed");
                block.fill(1);
            })
        }));
        assert_eq!(message(blocks), Some(format!("block {bad} failed")));
        let survivors: Vec<u8> = (0..9).map(|i| u8::from(i / 3 != bad)).collect();
        assert_eq!(y, survivors, "block {bad}: the others must have finished");

        let ranges = catch_unwind(AssertUnwindSafe(|| {
            exec.par_ranges(9, |lo, _| assert!(lo != 3 * bad, "range {bad} failed"));
        }));
        assert_eq!(message(ranges), Some(format!("range {bad} failed")));
    }
}

fn bit_hash(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

/// Where the chunk boundaries fall decides how a parallel reduction
/// rounds, so they are part of the contract. A dot is cut at fixed
/// blocks, never at the workers' chunks, so it has one bit pattern for
/// every worker count; the CCS merge's patterns were captured from the
/// work-queue runtime these primitives replaced and differ per worker
/// count; the element-wise ops must not.
#[test]
fn chunk_boundaries_reproduce_the_pinned_bit_patterns() {
    let n = 1003;
    let a: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64) * 0.1 - 3.0).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 17 % 89) as f64) * 0.3 - 5.0).collect();
    let t = gen::random_sparse(61, 47, 900, 9);
    let ccs = Ccs::from_triplets(&t);
    let x: Vec<f64> = (0..47).map(|i| ((i * 7 + 3) % 11) as f64 * 0.1 - 0.45).collect();
    const DOT: u64 = 0x40cc_a23c_28f5_c290;
    assert_eq!(vecops::dot(&a, &b).to_bits(), DOT);
    for (workers, spmv) in [(2, 0xf85a_82b0_f14a_61aa), (3, 0x6313_981b_079a_9616), (7, 0xa247_a84a_3842_2452)] {
        let exec = ctx(workers);
        assert_eq!(vecops::par_dot(&a, &b, &exec).to_bits(), DOT, "par_dot, {workers} workers");
        let mut y = b.clone();
        vecops::par_axpy(0.7, &a, &mut y, &exec);
        assert_eq!(bit_hash(&y), 0x0f8f_55d7_b764_64b7, "par_axpy, {workers} workers");
        vecops::par_xpby(&a, -0.3, &mut y, &exec);
        assert_eq!(bit_hash(&y), 0x98df_0330_d99c_fa79, "par_xpby, {workers} workers");
        let mut y = vec![0.1; 61];
        par_kernels::par_spmv_in::<F64Plus, _>(&ccs, &x, &mut y, &exec);
        assert_eq!(bit_hash(&y), spmv, "CCS SpMV, {workers} workers");
    }
    // Fewer blocks than workers (here none or one) leaves workers
    // idle, not a stray index or a different sum.
    for len in [0, 1, 5, 9] {
        let (got, want) = (vecops::par_dot(&a[..len], &b[..len], &ctx(4)), vecops::dot(&a[..len], &b[..len]));
        assert_eq!(got.to_bits(), want.to_bits(), "par_dot, {len} elements");
    }
}
