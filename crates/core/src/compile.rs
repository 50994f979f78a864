//! The compilation driver: loop nest + access-method metadata →
//! executable kernel.

use crate::ast::LoopNest;
use crate::lower::extract_query;
use bernoulli_relational::error::RelResult;
use bernoulli_relational::exec::{execute, Bindings};
use bernoulli_relational::plan::Plan;
use bernoulli_relational::planner::{Planner, QueryMeta};
use bernoulli_relational::query::Query;

/// Compiler configuration.
#[derive(Clone, Debug)]
pub struct Compiler {
    planner: Planner,
}

impl Default for Compiler {
    /// Debug builds install the independent plan verifier of
    /// `bernoulli-analysis` on the planner seam: every emitted plan is
    /// re-checked against the declared level properties (BA11–BA16) and
    /// a discrepancy aborts compilation instead of executing a plan the
    /// metadata cannot support. Release builds trust the planner.
    fn default() -> Self {
        #[allow(unused_mut)]
        let mut planner = Planner::default();
        #[cfg(debug_assertions)]
        {
            planner.verifier = Some(bernoulli_analysis::plan_verify::verify_plan_hook);
        }
        Compiler { planner }
    }
}

impl Compiler {
    pub fn new() -> Self {
        Compiler::default()
    }

    /// A compiler wired to an execution context: the planner records
    /// plan provenance (shape, estimated cost, candidate count, full
    /// EXPLAIN text) through the context's observability handle. With
    /// the default (uninstrumented) context this is exactly
    /// [`Compiler::new`] — the disabled handle costs nothing.
    pub fn in_ctx(ctx: &bernoulli_formats::ExecCtx) -> Self {
        let mut c = Compiler::default();
        c.planner.obs = ctx.obs().clone();
        c
    }

    /// Compile a loop nest against concrete array metadata.
    pub fn compile(&self, nest: &LoopNest, meta: &QueryMeta) -> RelResult<CompiledKernel> {
        let query = extract_query(nest)?;
        let plan = self.planner.plan(&query, meta)?;
        Ok(CompiledKernel { query, plan })
    }
}

/// A compiled kernel: the extracted query and its physical plan.
/// Execution happens against [`Bindings`]; downstream engines may
/// bypass [`CompiledKernel::run`] with a specialised kernel when the
/// plan shape matches a known format traversal.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    pub query: Query,
    pub plan: Plan,
}

impl CompiledKernel {
    /// Run through the general plan interpreter.
    pub fn run(&self, binds: &mut Bindings<'_>) -> RelResult<()> {
        execute(&self.plan, &self.query, binds)
    }

    /// The plan-shape signature used for kernel specialisation.
    pub fn shape(&self) -> String {
        self.plan.shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::programs;
    use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
    use bernoulli_relational::access::{MatrixAccess, VecMeta, VectorAccess};
    use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};

    fn sample() -> Triplets {
        Triplets::from_entries(
            4,
            4,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 1, 4.0), (3, 0, 5.0), (3, 3, 6.0)],
        )
    }

    #[test]
    fn compile_and_run_matvec_every_format() {
        let t = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut want = vec![0.0; 4];
        t.matvec_acc(&x, &mut want);
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let meta = QueryMeta::new()
                .mat(MAT_A, a.meta())
                .vec(VEC_X, VecMeta::dense(4))
                .vec(VEC_Y, VecMeta::dense(4));
            let k = Compiler::new().compile(&programs::matvec(), &meta).unwrap();
            let mut y = vec![0.0; 4];
            let mut b = Bindings::new();
            b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
            k.run(&mut b).unwrap();
            drop(b);
            for (g, w) in y.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "format {kind}: {y:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn explicit_verifier_accepts_every_format_plan() {
        // A planner with the verifier installed directly runs the
        // BA11–BA16 re-check in every build profile; every format's
        // matvec plan must pass it.
        let planner = Planner {
            verifier: Some(bernoulli_analysis::plan_verify::verify_plan_hook),
            ..Planner::default()
        };
        let query = extract_query(&programs::matvec()).unwrap();
        let t = sample();
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let meta = QueryMeta::new()
                .mat(MAT_A, a.meta())
                .vec(VEC_X, VecMeta::dense(4))
                .vec(VEC_Y, VecMeta::dense(4));
            planner.plan(&query, &meta).unwrap_or_else(|e| panic!("format {kind}: {e}"));
        }
    }

    #[test]
    fn sparse_sparse_vector_dot_merges() {
        use bernoulli_formats::SparseVec;
        use bernoulli_relational::ids::MAT_C;
        let x = SparseVec::from_pairs(1000, &[(3, 2.0), (500, 4.0), (999, 1.0), (7, -1.0)]);
        let z = SparseVec::from_pairs(1000, &[(7, 3.0), (500, 0.5), (998, 9.0)]);
        let meta = QueryMeta::new().vec(VEC_X, x.meta()).vec(VEC_Y, z.meta());
        let nest = programs::vec_dot(true, true);
        let k = Compiler::new().compile(&nest, &meta).unwrap();
        // One loop over one sparse vector, merging the other.
        assert_eq!(k.plan.nodes.len(), 1, "plan: {}", k.shape());
        assert!(k.shape().contains('~'), "expected a merge join: {}", k.shape());
        let mut s = 0.0;
        let mut b = Bindings::new();
        b.bind_vec(VEC_X, &x).bind_vec(VEC_Y, &z).bind_scalar_mut(MAT_C, &mut s);
        k.run(&mut b).unwrap();
        drop(b);
        assert_eq!(s, -3.0 + 2.0); // overlap at indices 7 and 500
    }

    #[test]
    fn sparse_dense_vector_dot_drives_from_sparse() {
        use bernoulli_formats::SparseVec;
        use bernoulli_relational::ids::MAT_C;
        let x = SparseVec::from_pairs(50, &[(0, 1.0), (10, 2.0), (49, 3.0)]);
        let z: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let meta = QueryMeta::new()
            .vec(VEC_X, x.meta())
            .vec(VEC_Y, VecMeta::dense(50));
        let nest = programs::vec_dot(true, false);
        let k = Compiler::new().compile(&nest, &meta).unwrap();
        assert!(k.shape().contains("vec(X)"), "sparse X must drive: {}", k.shape());
        let mut s = 0.0;
        let mut b = Bindings::new();
        b.bind_vec(VEC_X, &x).bind_vec(VEC_Y, &z).bind_scalar_mut(MAT_C, &mut s);
        k.run(&mut b).unwrap();
        drop(b);
        assert_eq!(s, 0.0 + 20.0 + 147.0);
    }

    #[test]
    fn plan_shapes_differ_per_format() {
        // Dense-enough rows that hierarchical traversal beats flat
        // enumeration (at avg row length < ~2 the planner rightly
        // prefers the flat scatter plan even for CSR).
        let t = bernoulli_formats::gen::grid2d_5pt(8, 8);
        let n = t.nrows();
        let shape_of = |kind| {
            let a = SparseMatrix::from_triplets(kind, &t);
            let meta = QueryMeta::new()
                .mat(MAT_A, a.meta())
                .vec(VEC_X, VecMeta::dense(n))
                .vec(VEC_Y, VecMeta::dense(n));
            Compiler::new().compile(&programs::matvec(), &meta).unwrap().shape()
        };
        assert_eq!(shape_of(FormatKind::Csr), "i:outer(A)>j:inner(A)[X?]");
        assert_eq!(shape_of(FormatKind::Ccs), "j:outer(A)[X?]>i:inner(A)");
        assert_eq!(shape_of(FormatKind::Coordinate), "(i,j):flat(A)[X?]");
    }
}
