//! The paper's "36 versions" point, §1: a sparse BLAS would need one
//! hand-written sparse matrix-matrix product per *pair* of input
//! formats. The compiler needs one dense loop nest —
//!
//! ```text
//! DO i, k, j: C(i,j) += A(i,k) * B(k,j)
//! ```
//!
//! — and plans it for every format pairing from the access-method
//! properties alone: no pairing has a hand-written kernel, each runs
//! the plan the compiler chose for it.
//!
//! ```text
//! cargo run --release --example spmm_formats
//! ```
//!
//! Checks every pairing against the dense product and exits nonzero on
//! any mismatch.

use bernoulli::ast::programs;
use bernoulli::Compiler;
use bernoulli_formats::gen::random_sparse;
use bernoulli_formats::{DenseMatrix, FormatKind, SparseMatrix};
use bernoulli_relational::access::MatrixAccess;
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, MAT_B, MAT_C};
use bernoulli_relational::planner::QueryMeta;

fn main() {
    let n = 40;
    let ta = random_sparse(n, n, 5 * n, 11);
    let tb = random_sparse(n, n, 5 * n, 13);

    // Dense reference product.
    let da = DenseMatrix::from_triplets(&ta);
    let db = DenseMatrix::from_triplets(&tb);
    let mut want = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let av = da[(i, k)];
            if av != 0.0 {
                for j in 0..n {
                    want[i * n + j] += av * db[(k, j)];
                }
            }
        }
    }

    let kinds = FormatKind::ALL;
    let pairs = kinds.len() * kinds.len();
    println!("C(i,j) += A(i,k)·B(k,j) for every (A-format, B-format) pairing ({pairs} versions):\n");
    let nest = programs::matmat();
    let mut wrong = 0;
    for ka in kinds {
        let a = SparseMatrix::from_triplets(ka, &ta);
        for kb in kinds {
            let b = SparseMatrix::from_triplets(kb, &tb);
            let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, b.meta());
            let kernel = Compiler::new().compile(&nest, &meta).expect("every pairing compiles");
            let mut c = vec![0.0; n * n];
            let mut binds = Bindings::new();
            binds.bind_mat(MAT_A, &a).bind_mat(MAT_B, &b).bind_mat_mut(MAT_C, &mut c, n, n);
            kernel.run(&mut binds).expect("every pairing runs");
            drop(binds);
            let err = c.iter().zip(&want).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
            let ok = err < 1e-9;
            wrong += usize::from(!ok);
            println!(
                "  A={:<11} B={:<11} {} max|err| {err:.1e}  {}",
                ka.paper_name(),
                kb.paper_name(),
                if ok { "ok  " } else { "FAIL" },
                kernel.shape()
            );
        }
    }
    if wrong > 0 {
        eprintln!("\n{wrong} of {pairs} pairings disagree with the dense product");
        std::process::exit(1);
    }
    println!("\nall {pairs} pairings correct — one loop nest, every format, no per-pair kernel.");
}
