//! The planner's whole candidate list, pinned: for every canned program
//! on every storage format (plus a sparse-`X` matvec whose predicate
//! takes `X`), `Planner::plan_all` must return the same shapes with the
//! same estimated costs, bit for bit, in the same order. The order
//! matters beyond the first plan: EXPLAIN's runners-up and the plan
//! events list it, and ties in cost keep the order the candidates were
//! enumerated in. One more matvec, on 16 entries in 12 rows, makes
//! CCS's flat plan tie its column-major loop plan for the cheapest:
//! which one `plan` returns is that enumeration order.

use bernoulli::ast::programs;
use bernoulli::lower::extract_query;
use bernoulli::LoopNest;
use bernoulli_formats::{DenseMatrix, FormatKind, SparseMatrix, SparseVec, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta, VectorAccess};
use bernoulli_relational::ids::{MAT_A, MAT_B, PERM_P, VEC_X, VEC_Y};
use bernoulli_relational::plan::Plan;
use bernoulli_relational::planner::{Planner, QueryMeta};

/// The recorded list: one `== case / format` header per cell, then one
/// `shape cost-bits` line per candidate, cheapest first.
const GOLDEN: &str = include_str!("plan_all_golden.txt");

/// Every cell's `plan_all` list, rendered as [`GOLDEN`] is.
fn cells() -> Vec<(String, Vec<Plan>)> {
    let n = 12;
    let t: Triplets = bernoulli_formats::gen::random_sparse(n, n, n * 3, 9);
    let sv = SparseVec::from_pairs(n, &[(1, 2.0), (5, -1.0), (9, 3.5)]);
    // 4n/3 entries: CCS's flat pass (1.5 per entry) then costs what its
    // column loop does (2 per column plus 2 per entry).
    let entries: Vec<(usize, usize, f64)> =
        (0..n).map(|i| (i, i, 1.0)).chain((0..4).map(|i| (i, n - 1 - i, 2.0))).collect();
    let tie = Triplets::from_entries(n, n, &entries);
    let planner = Planner::default();
    let mut out = Vec::new();
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t).meta();
        let a_tie = SparseMatrix::from_triplets(kind, &tie).meta();
        let dense_x = |a| QueryMeta::new().mat(MAT_A, a).vec(VEC_X, VecMeta::dense(n)).vec(VEC_Y, VecMeta::dense(n));
        let sparse_x = QueryMeta::new().mat(MAT_A, a).vec(VEC_X, sv.meta()).vec(VEC_Y, VecMeta::dense(n));
        let dense_b = DenseMatrix::zeros(n, 3).meta();
        let cases: Vec<(&str, LoopNest, QueryMeta)> = vec![
            ("matvec", programs::matvec(), dense_x(a)),
            ("matvec_transposed", programs::matvec_transposed(), dense_x(a)),
            ("matmat", programs::matmat(), QueryMeta::new().mat(MAT_A, a).mat(MAT_B, a)),
            ("matvec_multi", programs::matvec_multi(), QueryMeta::new().mat(MAT_A, a).mat(MAT_B, dense_b)),
            ("mat_dot", programs::mat_dot(), QueryMeta::new().mat(MAT_A, a).mat(MAT_B, a)),
            ("vec_dot_sparse_sparse", programs::vec_dot(true, true), QueryMeta::new().vec(VEC_X, sv.meta()).vec(VEC_Y, sv.meta())),
            ("vec_dot_sparse_dense", programs::vec_dot(true, false), QueryMeta::new().vec(VEC_X, sv.meta()).vec(VEC_Y, VecMeta::dense(n))),
            ("matvec_row_permuted", programs::matvec_row_permuted(), dense_x(a).perm(PERM_P, n)),
            ("matvec_sparse_x", programs::matvec(), sparse_x),
            ("matvec_tie", programs::matvec(), dense_x(a_tie)),
        ];
        for (name, nest, meta) in cases {
            let mut q = extract_query(&nest).unwrap();
            if name == "matvec_sparse_x" {
                q.infer_predicate(&|r| r == MAT_A || r == VEC_X);
            }
            let plans = planner.plan_all(&q, &meta).unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
            out.push((format!("{name} / {kind}"), plans));
        }
    }
    out
}

#[test]
fn every_cell_plans_the_recorded_candidates_in_the_recorded_order() {
    let mut text = String::new();
    for (cell, plans) in cells() {
        text += &format!("== {cell}\n");
        for p in plans {
            text += &format!("{} {:016x}\n", p.shape(), p.est_cost.to_bits());
        }
    }
    let diff = text.lines().zip(GOLDEN.lines()).enumerate().find(|(_, (got, want))| got != want);
    if let Some((k, (got, want))) = diff {
        panic!("line {}: got `{got}`, recorded `{want}`", k + 1);
    }
    assert_eq!(text.lines().count(), GOLDEN.lines().count(), "candidate count differs from the record");
}

/// The enumerator builds each plan once: no cell lists a shape twice.
#[test]
fn no_cell_lists_one_shape_twice() {
    for (cell, plans) in cells() {
        let mut shapes: Vec<String> = plans.iter().map(Plan::shape).collect();
        shapes.sort();
        let twice = shapes.windows(2).find(|w| w[0] == w[1]);
        assert!(twice.is_none(), "{cell}: {twice:?}");
    }
}
