//! The relational query shapes beyond `Y += A·X`, each lowered from its
//! DO-ANY loop nest, then planned and executed over every storage
//! format's access-method description: a transposed product, a bilinear
//! form, a Frobenius product, a row-permuted product and a sparse ×
//! sparse product, each against a triplet oracle. The paper's claim is that one query covers every format (and
//! every pairing of formats); these tests hold the executor to it.

use bernoulli_formats::gen::{grid2d_9pt, random_sparse};
use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::ast::{AccessRef, ArrayDecl, ExprAst};
use bernoulli_relational::ids::PERM_P;
use bernoulli_relational::prelude::*;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
}

fn assert_all_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(close(*g, *w), "{what}: entry {k}: {g} vs {w}");
    }
}

fn wave(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64) * 0.37 + phase).sin() + 0.25).collect()
}

fn plan(q: &Query, meta: &QueryMeta) -> Plan {
    Planner::new().plan(q, meta).unwrap()
}

fn lowered(nest: &LoopNest) -> Query {
    extract_query(nest).unwrap()
}

#[test]
fn transposed_product_matches_the_oracle_in_every_format() {
    let t = random_sparse(17, 11, 60, 5);
    let x = wave(17, 0.0);
    let mut want = vec![0.0; 11];
    t.transposed().matvec_acc(&x, &mut want);
    let q = lowered(&programs::matvec_transposed());
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).vec(VEC_X, VecMeta::dense(17));
        let mut y = vec![0.0; 11];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan(&q, &meta), &q, &mut b).unwrap();
        assert_all_close(&y, &want, &format!("Aᵀx in {kind}"));
    }
}

#[test]
fn bilinear_form_matches_the_oracle_in_every_format() {
    let t = random_sparse(13, 9, 45, 6);
    let (x, z) = (wave(9, 0.5), wave(13, 1.5));
    let want: f64 = t.entries().iter().map(|&(i, j, v)| z[i] * v * x[j]).sum();
    // s += A(i,j) · X(j) · Z(i), with Z declared under the id VEC_Y.
    let decl = |id, name: &str, rank, sparse| ArrayDecl { id, name: name.into(), rank, sparse };
    let q = lowered(&LoopNest::new(
        vec![VAR_I, VAR_J],
        vec![decl(MAT_A, "A", 2, true), decl(VEC_X, "X", 1, false), decl(VEC_Y, "Z", 1, false), decl(MAT_C, "s", 0, false)],
        AccessRef { array: MAT_C, indices: vec![] },
        UpdateOp::AddAssign,
        ExprAst::access(AccessRef::mat(MAT_A, VAR_I, VAR_J))
            .mul(ExprAst::access(AccessRef::vec(VEC_X, VAR_J)))
            .mul(ExprAst::access(AccessRef::vec(VEC_Y, VAR_I))),
    ));
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, VecMeta::dense(9))
            .vec(VEC_Y, VecMeta::dense(13));
        let mut s = 0.0;
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec(VEC_Y, &z).bind_scalar_mut(MAT_C, &mut s);
        execute(&plan(&q, &meta), &q, &mut b).unwrap();
        assert!(close(s, want), "zᵀAx in {kind}: {s} vs {want}");
    }
}

#[test]
fn frobenius_product_matches_the_oracle_for_every_pair_of_formats() {
    // Overlapping but unequal patterns: the merge must skip entries
    // stored on one side only.
    let ta = random_sparse(10, 12, 50, 7);
    let tb = random_sparse(10, 12, 50, 8);
    let dense_b = bernoulli_formats::DenseMatrix::from_triplets(&tb);
    let want: f64 = ta.canonicalize().entries().iter().map(|&(i, j, v)| v * dense_b[(i, j)]).sum();
    let q = lowered(&programs::mat_dot());
    for ka in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(ka, &ta);
        for kb in FormatKind::ALL {
            let bm = SparseMatrix::from_triplets(kb, &tb);
            let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, bm.meta());
            let mut s = 0.0;
            let mut b = Bindings::new();
            b.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_scalar_mut(MAT_C, &mut s);
            execute(&plan(&q, &meta), &q, &mut b).unwrap();
            assert!(close(s, want), "A:B with ({ka}, {kb}): {s} vs {want}");
        }
    }
}

#[test]
fn row_permuted_product_matches_the_oracle_in_every_format() {
    // The stored matrix holds global row i at row `p.forward(i)`; the
    // query joins through P and writes y in the global numbering.
    let t = grid2d_9pt(4, 5);
    let n = t.nrows();
    let p = Permutation::from_forward((0..n).map(|i| (i * 7 + 3) % n).collect()).unwrap();
    let mut stored = Triplets::new(n, n);
    for &(r, c, v) in t.entries() {
        stored.push(p.forward(r), c, v);
    }
    let x = wave(n, 0.25);
    let mut want = vec![0.0; n];
    t.matvec_acc(&x, &mut want);
    let q = lowered(&programs::matvec_row_permuted());
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &stored);
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).vec(VEC_X, VecMeta::dense(n)).perm(PERM_P, n);
        let mut y = vec![0.0; n];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_perm(PERM_P, &p).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan(&q, &meta), &q, &mut b).unwrap();
        assert_all_close(&y, &want, &format!("P-joined Ax in {kind}"));
    }
}

#[test]
fn sparse_times_sparse_matches_the_oracle_for_every_pair_of_formats() {
    let (ta, tb) = (random_sparse(6, 8, 20, 9), random_sparse(8, 5, 18, 10));
    let (da, db) = (
        bernoulli_formats::DenseMatrix::from_triplets(&ta),
        bernoulli_formats::DenseMatrix::from_triplets(&tb),
    );
    let mut want = vec![0.0; 6 * 5];
    for i in 0..6 {
        for k in 0..8 {
            for j in 0..5 {
                want[i * 5 + j] += da[(i, k)] * db[(k, j)];
            }
        }
    }
    let q = lowered(&programs::matmat());
    for ka in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(ka, &ta);
        for kb in FormatKind::ALL {
            let bm = SparseMatrix::from_triplets(kb, &tb);
            let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, bm.meta());
            let mut c = vec![0.0; 6 * 5];
            let mut b = Bindings::new();
            b.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_mat_mut(MAT_C, &mut c, 6, 5);
            execute(&plan(&q, &meta), &q, &mut b).unwrap();
            assert_all_close(&c, &want, &format!("AB with ({ka}, {kb})"));
        }
    }
}

#[test]
fn every_enumerated_plan_computes_the_same_product() {
    // The planner's cost model picks one plan; every plan it weighed is
    // a correct program, so the choice can only change speed.
    let t = random_sparse(14, 14, 70, 11);
    let x = wave(14, 2.0);
    let mut want = vec![0.0; 14];
    t.matvec_acc(&x, &mut want);
    let q = lowered(&programs::matvec());
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).vec(VEC_X, VecMeta::dense(14));
        let plans = Planner::new().plan_all(&q, &meta).unwrap();
        assert!(!plans.is_empty(), "{kind}: no plan");
        for p in &plans {
            let mut y = vec![0.0; 14];
            let mut b = Bindings::new();
            b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
            execute(p, &q, &mut b).unwrap();
            assert_all_close(&y, &want, &format!("{kind}, plan {}", p.shape()));
        }
    }
}

#[test]
fn a_scaled_statement_scales_the_product_in_every_format() {
    let t = random_sparse(9, 9, 30, 12);
    let x = wave(9, 0.75);
    let mut want = vec![0.0; 9];
    t.matvec_acc(&x, &mut want);
    // Y(i) += -2 · A(i,j) · X(j): a constant factor keeps A's zeros
    // annihilating, so the predicate stays NZ(A).
    let mut nest = programs::matvec();
    nest.rhs = ExprAst::constant(-2.0).mul(nest.rhs);
    let q = lowered(&nest);
    assert_eq!(q.predicate, vec![MAT_A]);
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).vec(VEC_X, VecMeta::dense(9));
        let mut y = vec![1.0; 9];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan(&q, &meta), &q, &mut b).unwrap();
        let scaled: Vec<f64> = want.iter().map(|w| 1.0 - 2.0 * w).collect();
        assert_all_close(&y, &scaled, &format!("y += -2Ax in {kind}"));
    }
}

#[test]
fn a_sparse_x_joins_only_its_stored_entries_in_every_format() {
    // With X sparse, the product's sparsity predicate includes X: the
    // executor fires a statement only where both A(i,j) and X(j) are
    // stored, and the answer matches the dense-x product.
    let t = random_sparse(12, 15, 55, 13);
    let dense_x: Vec<f64> = (0..15).map(|j| if j % 3 == 0 { (j as f64) - 4.5 } else { 0.0 }).collect();
    let stored_x: Vec<(usize, f64)> = dense_x.iter().copied().enumerate().filter(|&(_, v)| v != 0.0).collect();
    let xs = bernoulli_formats::SparseVec::from_pairs(15, &stored_x);
    let mut want = vec![0.0; 12];
    t.matvec_acc(&dense_x, &mut want);
    let stored_pairs = t.canonicalize().entries().iter().filter(|&&(_, j, _)| dense_x[j] != 0.0).count() as u64;
    let mut nest = programs::matvec();
    nest.arrays.iter_mut().find(|a| a.id == VEC_X).unwrap().sparse = true;
    let q = lowered(&nest);
    assert_eq!(q.predicate, vec![MAT_A, VEC_X]);
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, VecMeta::sparse_sorted(15, xs.nnz()));
        let mut y = vec![0.0; 12];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &xs).bind_vec_mut(VEC_Y, &mut y);
        let stats = execute_with_stats(&plan(&q, &meta), &q, &mut b).unwrap();
        assert_all_close(&y, &want, &format!("A·sparse x in {kind}"));
        // Dense storage stores every cell, zeros included.
        let stored = if kind == FormatKind::Dense { 12 * xs.nnz() as u64 } else { stored_pairs };
        assert_eq!(stats.tuples, stored, "{kind}: statements fired");
    }
}
