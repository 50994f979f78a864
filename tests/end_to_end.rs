//! End-to-end integration: the compiler pipeline (loop nest → query →
//! plan → executor) against every storage format and workload class.

use bernoulli::ast::programs;
use bernoulli::compile::Compiler;
use bernoulli::engines::SpmvEngine;
use bernoulli_formats::gen::{table1_suite, Scale};
use bernoulli_formats::{DenseMatrix, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta};
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;

fn reference_matvec(t: &Triplets, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; t.nrows()];
    t.matvec_acc(x, &mut y);
    y
}

#[test]
fn compiled_spmv_matches_reference_on_whole_suite() {
    for m in table1_suite(Scale::Small) {
        let n = m.triplets.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 31) as f64) - 15.0).collect();
        let want = reference_matvec(&m.triplets, &x);
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &m.triplets);
            let eng = SpmvEngine::compile(&a).unwrap();
            let mut y = vec![0.0; n];
            eng.run(&a, &x, &mut y).unwrap();
            for (g, w) in y.iter().zip(&want) {
                assert!(
                    (g - w).abs() < 1e-6 * w.abs().max(1.0),
                    "{} in {kind}: {g} vs {w}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn interpreted_path_matches_specialized_on_suite() {
    for m in table1_suite(Scale::Small).into_iter().take(4) {
        let n = m.triplets.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        for kind in [FormatKind::Csr, FormatKind::Ccs, FormatKind::Diagonal, FormatKind::Inode] {
            let a = SparseMatrix::from_triplets(kind, &m.triplets);
            let fast = SpmvEngine::compile(&a).unwrap();
            // The plan interpreter itself, past every engine.
            let meta = QueryMeta::new()
                .mat(MAT_A, a.meta())
                .vec(VEC_X, VecMeta::dense(n))
                .vec(VEC_Y, VecMeta::dense(n));
            let slow = Compiler::new().compile(&programs::matvec(), &meta).unwrap();
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            fast.run(&a, &x, &mut y1).unwrap();
            let mut binds = Bindings::new();
            binds.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y2);
            slow.run(&mut binds).unwrap();
            for (a1, a2) in y1.iter().zip(&y2) {
                assert!((a1 - a2).abs() < 1e-9, "{} in {kind}", m.name);
            }
        }
    }
}

#[test]
fn format_conversion_graph_is_lossless() {
    let t = table1_suite(Scale::Small)
        .into_iter()
        .find(|m| m.name == "medium")
        .unwrap()
        .triplets
        .canonicalize();
    // Chain conversions through several formats and come back.
    let chain = [FormatKind::JDiag, FormatKind::Cccs, FormatKind::Diagonal, FormatKind::Inode, FormatKind::Coordinate];
    let m = chain.into_iter().fold(SparseMatrix::from_triplets(FormatKind::Csr, &t), |m, kind| {
        SparseMatrix::from_triplets(kind, &m.to_triplets())
    });
    assert_eq!(m.to_triplets().canonicalize(), t);
}

#[test]
fn matrix_market_roundtrip_on_generated_suite() {
    for m in table1_suite(Scale::Small).into_iter().take(5) {
        let mut buf = Vec::new();
        bernoulli_formats::io::write_matrix_market(&m.triplets, &mut buf).unwrap();
        let back =
            bernoulli_formats::io::read_matrix_market(std::io::BufReader::new(buf.as_slice()))
                .unwrap();
        assert_eq!(back.canonicalize(), m.triplets.canonicalize(), "{}", m.name);
    }
}

#[test]
fn sequential_cg_solves_every_suite_spd_matrix() {
    use bernoulli::{ExecCtx, Operator};
    use bernoulli_solvers::cg::{cg, CgOptions};
    use bernoulli_solvers::precond::DiagonalPreconditioner;
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        if !s.symmetric {
            continue; // memplus/circuit twins are unsymmetric
        }
        let n = s.nrows;
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &m.triplets);
        let eng = SpmvEngine::compile(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut x = vec![0.0; n];
        let pc = DiagonalPreconditioner::from_matrix(&m.triplets);
        let op = eng.bind(&a);
        assert_eq!((op.out_len(), op.in_len()), (n, n));
        let res = cg(
            &op,
            &pc,
            &b,
            &mut x,
            CgOptions { max_iters: 2000, rel_tol: 1e-9 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(res.converged, "{} residual {}", m.name, res.final_residual);
    }
}

/// Under the first-nonzero algebra ⊕ keeps the accumulator, so every
/// format's serial body must offer a row's products in ascending column
/// order: `y[i]` is the product of the lowest column whose `A(i,j)·x(j)`
/// is nonzero — whatever the storage order, padding or row permutation.
#[test]
fn first_nonzero_spmv_selects_the_lowest_contributing_column_in_every_format() {
    use bernoulli::engines::SemiringSpmvEngine;
    use bernoulli_relational::semiring::FirstNonZero;
    let t = bernoulli_formats::gen::random_sparse(23, 19, 120, 31);
    // Zeros in `x` silence some columns, so "first stored" is not
    // always "first contributing".
    let x: Vec<f64> = (0..19).map(|j| if j % 4 == 1 { 0.0 } else { j as f64 + 1.5 }).collect();
    let mut want = vec![0.0; 23];
    for &(i, j, v) in t.canonicalize().entries() {
        if want[i] == 0.0 {
            want[i] = v * x[j];
        }
    }
    assert!(want.iter().filter(|&&w| w != 0.0).count() > 10, "operand too sparse to test anything");
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let eng = SemiringSpmvEngine::<FirstNonZero>::compile(&a).unwrap();
        let mut y = vec![0.0; 23];
        eng.run(&a, &x, &mut y).unwrap();
        assert_eq!(y, want, "format {kind}");
    }
}

/// Min-plus lifts a stored `0.0` to its `+∞`: a stored zero is no
/// edge at all — an explicit zero weight CRS keeps, and the zeros the
/// padding formats (Dense, ITPACK, Diagonal) store for absent entries.
#[test]
fn min_plus_reads_a_stored_zero_weight_as_no_edge_in_every_format() {
    use bernoulli::engines::SemiringSpmvEngine;
    use bernoulli_formats::Csr;
    use bernoulli_relational::semiring::MinPlus;
    // Edges j → i as A(i, j): 0 →(4) 1, 1 →(1) 2, 2 →(2) 3, and in the
    // raw CRS a stored 0.0 at A(2, 0) besides.
    let t = Triplets::from_entries(4, 4, &[(1, 0, 4.0), (2, 1, 1.0), (3, 2, 2.0)]);
    let raw = Csr::from_raw(4, 4, vec![0, 0, 1, 3, 4], vec![0, 0, 1, 2], vec![4.0, 0.0, 1.0, 2.0]);
    assert_eq!(raw.nnz(), 4);
    let mut operands: Vec<SparseMatrix> =
        FormatKind::ALL.into_iter().map(|kind| SparseMatrix::from_triplets(kind, &t)).collect();
    operands.push(SparseMatrix::Csr(raw));
    // Three relaxations from node 0; read as a 0-weight edge, a stored
    // zero would give [0, 4, 0, 2] (or worse, for padding).
    let inf = f64::INFINITY;
    for a in &operands {
        let eng = SemiringSpmvEngine::<MinPlus>::compile(a).unwrap();
        let mut d = vec![0.0, inf, inf, inf];
        for _ in 0..3 {
            let prev = d.clone();
            eng.run(a, &prev, &mut d).unwrap();
        }
        assert_eq!(d, [0.0, 4.0, 5.0, 7.0], "{} with {} stored", a.kind(), a.meta().nnz);
    }
}

/// The compiled matrix-matrix nest *accumulates*: `C += A·B` adds the
/// product to whatever `C` holds, for the Gustavson plan and for plans
/// that drive from a column-major or coordinate operand alike.
#[test]
fn compiled_matrix_product_accumulates_into_c() {
    use bernoulli::ast::programs;
    use bernoulli::Compiler;
    use bernoulli_relational::exec::Bindings;
    use bernoulli_relational::ids::{MAT_A, MAT_B, MAT_C};
    use bernoulli_relational::planner::QueryMeta;
    let (ta, tb) = (
        bernoulli_formats::gen::random_sparse(7, 9, 25, 41),
        bernoulli_formats::gen::random_sparse(9, 6, 22, 42),
    );
    let c0: Vec<f64> = (0..7 * 6).map(|k| (k % 5) as f64 - 2.0).collect();
    let (da, db) = (DenseMatrix::from_triplets(&ta), DenseMatrix::from_triplets(&tb));
    let mut want = c0.clone();
    for i in 0..7 {
        for j in 0..6 {
            want[i * 6 + j] += (0..9).map(|k| da[(i, k)] * db[(k, j)]).sum::<f64>();
        }
    }
    for (ka, kb) in [
        (FormatKind::Csr, FormatKind::Csr),
        (FormatKind::Ccs, FormatKind::Csr),
        (FormatKind::Coordinate, FormatKind::Ccs),
    ] {
        let (a, b) = (SparseMatrix::from_triplets(ka, &ta), SparseMatrix::from_triplets(kb, &tb));
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, b.meta());
        let kernel = Compiler::new().compile(&programs::matmat(), &meta).unwrap();
        let mut c = c0.clone();
        let mut binds = Bindings::new();
        binds.bind_mat(MAT_A, &a).bind_mat(MAT_B, &b).bind_mat_mut(MAT_C, &mut c, 7, 6);
        kernel.run(&mut binds).unwrap();
        drop(binds);
        for (k, (g, w)) in c.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-12, "({ka}, {kb}) plan {} at {k}: {g} vs {w}", kernel.shape());
        }
    }
}
