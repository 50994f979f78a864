//! Index translations as relations — §2.2 of the paper, live.
//!
//! ```text
//! cargo run --release --example permuted_rows
//! ```
//!
//! Jagged-diagonal storage permutes the matrix rows by decreasing
//! length. The paper handles this by viewing the permutation `P` as a
//! relation of `⟨i, i'⟩` tuples (`PERM`/`IPERM` arrays) and joining it
//! into the query:
//!
//! ```text
//! Q = σ_P ( I(i,j) ⋈ X(j,x) ⋈ Y(i,y) ⋈ P(i,i') ⋈ A(i',j,a) )
//! ```
//!
//! This example builds a row-length-skewed matrix, stores it
//! row-permuted, compiles the permuted query, and shows the planner
//! treating the permutation as an O(1) derivation — no extra loop.

use bernoulli::ast::programs;
use bernoulli::compile::Compiler;
use bernoulli_formats::gen::circuit;
use bernoulli_formats::{JDiag, SparseMatrix, Triplets};
use bernoulli_relational::access::MatrixAccess;
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, PERM_P, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_relational::semiring::F64Plus;

fn main() {
    // A row-length-skewed matrix (the class JDIAG exists for).
    let t = circuit(300, 9);
    let n = t.nrows();
    let jd = JDiag::from_triplets(&t);
    let perm = jd.permutation().clone();
    println!(
        "matrix: {n} rows, {} jagged diagonals; longest row stored first",
        jd.num_jdiags()
    );

    // The stored (permuted) matrix as its own relation: row p of this
    // matrix is global row perm.backward(p).
    let mut stored = Triplets::new(n, n);
    for &(r, c, v) in t.canonicalize().entries() {
        stored.push(perm.forward(r), c, v);
    }
    let a_stored = SparseMatrix::from_triplets(bernoulli_formats::FormatKind::Csr, &stored);

    // Compile the permuted query of §2.2.
    let nest = programs::matvec_row_permuted();
    let meta = QueryMeta::new()
        .mat(MAT_A, a_stored.meta())
        .vec(VEC_X, bernoulli_relational::access::VecMeta::dense(n))
        .vec(VEC_Y, bernoulli_relational::access::VecMeta::dense(n))
        .perm(PERM_P, n);
    let kernel = Compiler::new().compile(&nest, &meta).expect("permuted query compiles");
    println!("plan: {}", kernel.plan);

    // Execute and verify against the unpermuted reference.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let mut binds = Bindings::new();
    binds
        .bind_mat(MAT_A, &a_stored)
        .bind_vec(VEC_X, &x)
        .bind_perm(PERM_P, &perm)
        .bind_vec_mut(VEC_Y, &mut y);
    kernel.run(&mut binds).expect("permuted query executes");
    drop(binds);

    let mut want = vec![0.0; n];
    t.matvec_acc(&x, &mut want);
    let err = y.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |y - reference| = {err:.3e}");
    assert!(err < 1e-9);

    // The same computation through the JDiag view, which translates
    // internally — both roads lead to the same numbers.
    let mut y2 = vec![0.0; n];
    bernoulli_formats::kernels::spmv_in::<F64Plus, _>(&jd, &x, &mut y2);
    let err2 = y2.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("JDiag hand kernel agrees: max err {err2:.3e}");
    assert!(err2 < 1e-9);
    println!("\npermutations are just relations: one more join, zero extra loops ✓");
}
