//! DO-ANY engine facades over the unified compilation core.
//!
//! The Bernoulli compiler emitted C tuned to each format; a library
//! cannot JIT, so the equivalent is **monomorphised kernels selected by
//! plan shape**: the planner runs exactly as in the paper, and when the
//! plan it produces is a format's natural traversal, execution
//! dispatches (once, outside all loops) to the hand-tuned kernel for
//! that traversal. Any other plan — exotic formats, sparse vectors,
//! unusual predicates — runs on the general interpreter, so the system
//! is never *wrong*, only occasionally slower. The dispatch-hoisting
//! ablation bench quantifies the difference.
//!
//! Every type here is one [`Engine`]: a [`CompiledOp`] whose kind is
//! fixed by a marker type, so the typed `run` cannot be handed an op of
//! another kind. Compilation — the gate chain, the obs `strategies`
//! record, the structure-cache hint replay — lives once in
//! [`crate::pipeline::compile`]; a facade contributes its op's
//! [`OpSpec`], the typed `run` signature, and nothing else. What the
//! compile decided (`strategy`, `tier`, `plan_shape`, `downgrade`,
//! `hints`, `schedule`, ...) is read off the `CompiledOp` itself
//! through `Deref`. Code dispatching heterogeneous ops (the `Dispatcher`)
//! holds plain `CompiledOp`s; `TryFrom<CompiledOp>` checks the kind.
//! Results are bitwise-identical to the pre-unification engines on
//! every tier (pinned by `tests/pipeline_equivalence.rs`).
//!
//! Every engine has exactly two entry points: `compile(operands)` — the
//! default serial, uninstrumented context — and
//! `compile_in(operands, &ExecCtx)`, which reads *all* policy (threads,
//! parallel threshold, checked mode, telemetry) from
//! the one context object instead of growing per-capability parameter
//! variants.

use crate::pipeline::{self, CompiledOp, OpKind, OpSpec, Operands};
use bernoulli_formats::{ExecCtx, SparseMatrix};
use bernoulli_relational::error::{RelError, RelResult};
use bernoulli_relational::semiring::{F64Plus, Semiring};
use std::marker::PhantomData;
use std::ops::Deref;

pub use crate::pipeline::Strategy;

/// Names the op kinds an [`Engine`] may wrap.
pub trait OpFamily {
    fn admits(kind: OpKind) -> bool;
}

/// A [`CompiledOp`] known to be of family `F`.
pub struct Engine<F> {
    op: CompiledOp,
    _family: PhantomData<fn() -> F>,
}

impl<F> Deref for Engine<F> {
    type Target = CompiledOp;

    fn deref(&self) -> &CompiledOp {
        &self.op
    }
}

impl<F: OpFamily> TryFrom<CompiledOp> for Engine<F> {
    type Error = RelError;

    fn try_from(op: CompiledOp) -> RelResult<Engine<F>> {
        if !F::admits(op.kind()) {
            return Err(RelError::Validation(format!(
                "a compiled {} op is not a {}",
                op.kind().tag(),
                std::any::type_name::<F>()
            )));
        }
        Ok(Engine { op, _family: PhantomData })
    }
}

/// Family markers of the three DO-ANY facades.
pub struct SpmvOp;
pub struct SpmvMultiOp;
pub struct SemiringSpmvOp<S>(PhantomData<S>);

impl OpFamily for SpmvOp {
    fn admits(kind: OpKind) -> bool {
        kind == OpKind::Spmv
    }
}

impl OpFamily for SpmvMultiOp {
    fn admits(kind: OpKind) -> bool {
        kind == OpKind::SpmvMulti
    }
}

impl<S: Semiring> OpFamily for SemiringSpmvOp<S> {
    fn admits(kind: OpKind) -> bool {
        kind == OpKind::SemiringSpmv(S::NAME)
    }
}

/// A compiled `y += A·x` engine for one matrix.
pub type SpmvEngine = Engine<SpmvOp>;

impl SpmvEngine {
    /// Compile for a matrix (dense `x`/`y`), choosing the execution
    /// strategy from the plan shape. Uses the default [`ExecCtx`]:
    /// serial, unchecked, uninstrumented — the original library
    /// behaviour. Use [`SpmvEngine::compile_in`] for thresholded
    /// parallel dispatch, checked mode or telemetry.
    pub fn compile(a: &SparseMatrix) -> RelResult<SpmvEngine> {
        Self::compile_in(a, &ExecCtx::default())
    }

    /// Compile under an execution context. The plan is exactly as in
    /// [`SpmvEngine::compile`]; the context decides everything else: a
    /// specialisable plan whose matrix clears the work threshold
    /// compiles to [`Strategy::Parallel`] (below the threshold, or
    /// serial, the engine is byte-identical to the default one — same
    /// plan shape, same kernel, same strategy);
    /// [`ExecCtx::checked`] validates operands before compiling; an
    /// [instrumented](ExecCtx::instrument) context records plan
    /// provenance, the strategy decision and per-run kernel counters.
    pub fn compile_in(a: &SparseMatrix, ctx: &ExecCtx) -> RelResult<SpmvEngine> {
        pipeline::compile::<F64Plus>(OpSpec::Spmv, Operands::Mat(a), ctx, None)?.try_into()
    }

    /// `y += A·x`. The matrix must be the one the engine was compiled
    /// for (same format and shape; enforced by the shape checks in the
    /// underlying paths).
    pub fn run(&self, a: &SparseMatrix, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.run_spmv(a, x, y)
    }
}

/// A compiled `Y += A·X` engine for a sparse matrix times a skinny
/// dense multivector (`X` is `ncols × k` row-major, `Y` is `nrows × k`)
/// — the paper's §6 "product of a sparse matrix and a skinny dense
/// matrix", the workhorse of block Krylov methods.
pub type SpmvMultiEngine = Engine<SpmvMultiOp>;

impl SpmvMultiEngine {
    /// Compile with the default [`ExecCtx`] (serial, unchecked,
    /// uninstrumented).
    pub fn compile(a: &SparseMatrix, k: usize) -> RelResult<SpmvMultiEngine> {
        Self::compile_in(a, k, &ExecCtx::default())
    }

    /// Compile under an execution context (see
    /// [`SpmvEngine::compile_in`] for the policy the ctx carries).
    pub fn compile_in(a: &SparseMatrix, k: usize, ctx: &ExecCtx) -> RelResult<SpmvMultiEngine> {
        pipeline::compile::<F64Plus>(OpSpec::SpmvMulti { k }, Operands::Mat(a), ctx, None)?
            .try_into()
    }

    /// `Y += A·X` with `X: ncols×k` and `Y: nrows×k`, both row-major.
    pub fn run(&self, a: &SparseMatrix, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.run_spmv_multi(a, x, y)
    }
}

/// A compiled `y = y ⊕ (A ⊗ x)` engine under an arbitrary
/// [`Semiring`] — SpMV as a relational query whose scalar algebra is a
/// type parameter. Same planner, same [`ExecCtx`] policy, same strategy
/// telemetry as [`SpmvEngine`]; three differences follow from leaving
/// the classical algebra:
///
/// * Stored values lift through `S::from_f64` (structural zeros lift to
///   `S::zero()`, so formats that pad — Dense, ITPACK, Diagonal — stay
///   correct under algebras like min-plus where the identity is +∞).
/// * There is no interpreter tier off the f64 algebra: every format
///   dispatches to its generic serial kernel, which *is* the baseline
///   tier.
/// * The parallel gate consults the race checker **under `S`'s
///   algebra**: a non-associative-commutative ⊕ is refused the
///   reduction certificate (BA06) and provably compiles to the serial
///   tier — scatter-family formats additionally self-gate at run time.
pub type SemiringSpmvEngine<S> = Engine<SemiringSpmvOp<S>>;

impl<S: Semiring> SemiringSpmvEngine<S> {
    /// Compile with the default [`ExecCtx`] (serial, unchecked,
    /// uninstrumented).
    pub fn compile(a: &SparseMatrix) -> RelResult<SemiringSpmvEngine<S>> {
        Self::compile_in(a, &ExecCtx::default())
    }

    /// Compile under an execution context (see
    /// [`SpmvEngine::compile_in`] for the policy the ctx carries).
    pub fn compile_in(a: &SparseMatrix, ctx: &ExecCtx) -> RelResult<SemiringSpmvEngine<S>> {
        let spec = OpSpec::SemiringSpmv { algebra: S::NAME };
        pipeline::compile::<S>(spec, Operands::Mat(a), ctx, None)?.try_into()
    }

    /// `y = y ⊕ (A ⊗ x)` under `S` (accumulating, like
    /// [`SpmvEngine::run`]).
    pub fn run(&self, a: &SparseMatrix, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.run_semiring_spmv::<S>(a, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::programs;
    use crate::compile::Compiler;
    use crate::pipeline::Reason;
    use bernoulli_relational::exec::Bindings;
    use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
    use bernoulli_relational::planner::QueryMeta;
    use bernoulli_formats::{fast, Csr, FormatKind, Triplets};
    use bernoulli_obs::Obs;
    use bernoulli_relational::access::{MatrixAccess, VecMeta};

    fn sample(n: usize, seed: u64) -> Triplets {
        bernoulli_formats::gen::random_sparse(n, n, n * 3, seed)
    }

    /// Warm compile through the one entry point: `spec` against
    /// `operands`, replaying `hints`, as the facade type `E`.
    fn compile_warm<S: Semiring, E: TryFrom<CompiledOp, Error = RelError>>(
        spec: OpSpec,
        operands: Operands<'_>,
        ctx: &ExecCtx,
        hints: &pipeline::OpHints,
    ) -> E {
        pipeline::compile::<S>(spec, operands, ctx, Some(hints)).unwrap().try_into().unwrap()
    }

    fn warm_spmv(a: &SparseMatrix, ctx: &ExecCtx, hints: &pipeline::OpHints) -> SpmvEngine {
        compile_warm::<F64Plus, _>(OpSpec::Spmv, Operands::Mat(a), ctx, hints)
    }

    #[test]
    fn spmv_specializes_on_natural_plans() {
        let t = sample(12, 1);
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let eng = SpmvEngine::compile(&a).unwrap();
            assert_eq!(
                eng.strategy(),
                Strategy::Specialized,
                "format {kind} plan {}",
                eng.plan_shape()
            );
        }
    }

    #[test]
    fn spmv_specialized_and_interpreted_agree() {
        let t = sample(15, 2);
        let x: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7).cos()).collect();
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let fast = SpmvEngine::compile(&a).unwrap();
            // The plan interpreter itself, past every engine.
            let meta = QueryMeta::new()
                .mat(MAT_A, a.meta())
                .vec(VEC_X, VecMeta::dense(15))
                .vec(VEC_Y, VecMeta::dense(15));
            let slow = Compiler::new().compile(&programs::matvec(), &meta).unwrap();
            let mut y1 = vec![0.0; 15];
            let mut y2 = vec![0.0; 15];
            fast.run(&a, &x, &mut y1).unwrap();
            let mut binds = Bindings::new();
            binds.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y2);
            slow.run(&mut binds).unwrap();
            for (a1, a2) in y1.iter().zip(&y2) {
                assert!((a1 - a2).abs() < 1e-12, "format {kind}");
            }
        }
    }

    #[test]
    fn multivector_product_specializes_for_csr() {
        let t = sample(12, 7);
        let k = 4;
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let eng = SpmvMultiEngine::compile(&a, k).unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized, "plan {}", eng.plan_shape());
        assert_eq!(eng.io_lens(), (12 * k, 12 * k));
        let x: Vec<f64> = (0..12 * k).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; 12 * k];
        eng.run(&a, &x, &mut y).unwrap();
        // Column-by-column check against plain SpMV.
        for col in 0..k {
            let xc: Vec<f64> = (0..12).map(|r| x[r * k + col]).collect();
            let mut yc = vec![0.0; 12];
            t.matvec_acc(&xc, &mut yc);
            for r in 0..12 {
                assert!((y[r * k + col] - yc[r]).abs() < 1e-10, "col {col} row {r}");
            }
        }
        // The interpreted tier, which a CCS operand takes, agrees.
        let ccs = SparseMatrix::from_triplets(FormatKind::Ccs, &t);
        let slow = SpmvMultiEngine::compile(&ccs, k).unwrap();
        assert_eq!(slow.strategy(), Strategy::Interpreted);
        let mut y2 = vec![0.0; 12 * k];
        slow.run(&ccs, &x, &mut y2).unwrap();
        for (a1, a2) in y.iter().zip(&y2) {
            assert!((a1 - a2).abs() < 1e-10);
        }
    }

    #[test]
    fn multivector_product_other_formats_interpret() {
        let t = sample(9, 8);
        let k = 3;
        for kind in [FormatKind::Ccs, FormatKind::Coordinate, FormatKind::Itpack] {
            let a = SparseMatrix::from_triplets(kind, &t);
            let eng = SpmvMultiEngine::compile(&a, k).unwrap();
            let x: Vec<f64> = (0..9 * k).map(|i| i as f64 * 0.25 - 2.0).collect();
            let mut y = vec![0.0; 9 * k];
            eng.run(&a, &x, &mut y).unwrap();
            for col in 0..k {
                let xc: Vec<f64> = (0..9).map(|r| x[r * k + col]).collect();
                let mut yc = vec![0.0; 9];
                t.matvec_acc(&xc, &mut yc);
                for r in 0..9 {
                    assert!((y[r * k + col] - yc[r]).abs() < 1e-10, "{kind} col {col}");
                }
            }
        }
    }

    #[test]
    fn spmv_parallel_only_above_threshold() {
        // The engine selects Parallel only when nnz clears the ctx's
        // work threshold, and below the threshold it is byte-identical
        // to the plain default engine — same strategy, same plan shape,
        // same results.
        let t = sample(64, 11);
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            // Each format's own work measure (Dense reports nrows·ncols).
            let nnz = a.meta().nnz;
            let serial = SpmvEngine::compile(&a).unwrap();

            // Threshold above nnz: parallel ctx degrades to the exact
            // serial engine.
            let below =
                SpmvEngine::compile_in(&a, &ExecCtx::with_threads(4).threshold(nnz + 1)).unwrap();
            assert_eq!(below.strategy(), Strategy::Specialized, "format {kind}");
            assert_eq!(below.strategy(), serial.strategy(), "format {kind}");
            assert_eq!(below.plan_shape(), serial.plan_shape(), "format {kind}");

            // Threshold at/below nnz: Parallel, same plan shape.
            let above = SpmvEngine::compile_in(
                &a,
                &ExecCtx::with_threads(4).threshold(1).oversubscribe(true),
            )
            .unwrap();
            assert_eq!(above.strategy(), Strategy::Parallel, "format {kind}");
            assert_eq!(above.plan_shape(), serial.plan_shape(), "format {kind}");

            // All three paths agree (row-family formats bit-for-bit;
            // everything in FormatKind::ALL here is deterministic, so
            // compare within reduction tolerance to stay format-generic).
            let n = a.meta().ncols;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
            let mut y_ser = vec![0.0; a.meta().nrows];
            let mut y_bel = y_ser.clone();
            let mut y_par = y_ser.clone();
            serial.run(&a, &x, &mut y_ser).unwrap();
            below.run(&a, &x, &mut y_bel).unwrap();
            above.run(&a, &x, &mut y_par).unwrap();
            assert_eq!(y_ser, y_bel, "below-threshold engine must be bitwise serial ({kind})");
            for (p, s) in y_par.iter().zip(&y_ser) {
                assert!((p - s).abs() <= 1e-12 * s.abs().max(1.0), "format {kind}");
            }
        }
    }

    #[test]
    fn spmv_serial_ctx_never_parallelizes() {
        let t = sample(64, 12);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let eng = SpmvEngine::compile_in(&a, &ExecCtx::serial()).unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
    }

    #[test]
    fn multivector_parallel_above_threshold_agrees() {
        let ta = sample(40, 13);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &ta);
        let hot = ExecCtx::with_threads(4).threshold(1).oversubscribe(true);
        let k = 3;
        let mpar = SpmvMultiEngine::compile_in(&a, k, &hot).unwrap();
        assert_eq!(mpar.strategy(), Strategy::Parallel);
        let mser = SpmvMultiEngine::compile(&a, k).unwrap();
        let x: Vec<f64> = (0..40 * k).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut y1 = vec![0.0; 40 * k];
        let mut y2 = vec![0.0; 40 * k];
        mpar.run(&a, &x, &mut y1).unwrap();
        mser.run(&a, &x, &mut y2).unwrap();
        // Row-partitioned multivector kernel is bit-identical to serial.
        assert_eq!(y1, y2);
    }

    #[test]
    fn checked_mode_refuses_corrupt_operand() {
        // Row 0 stores columns out of order: the sanitizer flags BA23
        // and checked compilation refuses the operand up front.
        let bad = SparseMatrix::Csr(Csr::from_raw_unchecked(
            2,
            3,
            vec![0, 2, 2],
            vec![2, 0],
            vec![1.0, 2.0],
        ));
        let checked = ExecCtx::serial().checked(true);
        match SpmvEngine::compile_in(&bad, &checked) {
            Err(RelError::Validation(msg)) => {
                assert!(msg.contains("BA23"), "{msg}");
                assert!(msg.contains("operand A"), "{msg}");
            }
            Err(other) => panic!("expected Validation, got {other:?}"),
            Ok(_) => panic!("corrupt operand compiled"),
        }
        // The same matrix compiles fine unchecked (and would compute
        // garbage — exactly what checked mode exists to prevent)…
        SpmvEngine::compile_in(&bad, &ExecCtx::serial()).unwrap();
        // …and a clean operand passes checked compilation untouched.
        let good = SparseMatrix::from_triplets(FormatKind::Csr, &sample(8, 21));
        let eng = SpmvEngine::compile_in(&good, &checked).unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
        // The multivector product checks its sparse operand the same
        // way before it sizes the dense one.
        match SpmvMultiEngine::compile_in(&bad, 2, &checked) {
            Err(RelError::Validation(msg)) => assert!(msg.contains("operand A"), "{msg}"),
            other => panic!("expected Validation for A, got {:?}", other.err()),
        }
    }

    #[test]
    fn semiring_spmv_engine_relaxes_over_every_format() {
        use bernoulli_relational::semiring::MinPlus;
        // One Bellman-Ford step from source 0 on the weighted path
        // 0 →(2) 1 →(3) 2, plus the direct edge 0 →(7) 2: the engine
        // computes min-plus SpMV identically across all format kinds.
        let t = Triplets::from_entries(3, 3, &[(1, 0, 2.0), (2, 0, 7.0), (2, 1, 3.0)]);
        let d0 = [0.0, f64::INFINITY, f64::INFINITY];
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let eng = SemiringSpmvEngine::<MinPlus>::compile(&a).unwrap();
            assert_eq!(eng.strategy(), Strategy::Specialized, "format {kind}");
            let mut d1 = d0;
            eng.run(&a, &d0, &mut d1).unwrap();
            assert_eq!(d1, [0.0, 2.0, 7.0], "format {kind}");
            let mut d2 = d1;
            eng.run(&a, &d1, &mut d2).unwrap();
            assert_eq!(d2, [0.0, 2.0, 5.0], "format {kind}: relaxation via 1 must win");
        }
    }

    #[test]
    fn semiring_engine_parallel_tier_is_per_algebra() {
        use bernoulli_relational::semiring::{FirstNonZero, MinPlus};
        let t = sample(64, 17);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let hot = ExecCtx::with_threads(4).threshold(1).oversubscribe(true);
        // An associative-commutative ⊕ clears the race gate…
        let obs = Obs::enabled();
        let eng = SemiringSpmvEngine::<MinPlus>::compile_in(
            &a,
            &hot.clone().instrument(obs.clone()),
        )
        .unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel);
        let s = &obs.report().strategies[0];
        assert_eq!((s.algebra, s.race_checked, s.race_safe), ("min_plus", true, true));
        // …while a non-commutative ⊕ is refused the reduction
        // certificate (BA06) and provably downgraded to serial.
        let obs = Obs::enabled();
        let eng = SemiringSpmvEngine::<FirstNonZero>::compile_in(
            &a,
            &hot.clone().instrument(obs.clone()),
        )
        .unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
        let s = &obs.report().strategies[0];
        assert_eq!(
            (s.algebra, s.race_checked, s.race_safe),
            ("first_nonzero", true, false)
        );
    }

    #[test]
    fn semiring_engines_record_algebra_qualified_telemetry() {
        use bernoulli_relational::semiring::MinPlus;
        let t = sample(16, 18);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        let eng = SemiringSpmvEngine::<MinPlus>::compile_in(
            &a,
            &ExecCtx::serial().instrument(obs.clone()),
        )
        .unwrap();
        let x = vec![0.0; 16];
        let mut y = vec![f64::INFINITY; 16];
        eng.run(&a, &x, &mut y).unwrap();
        let r = obs.report();
        r.validate().unwrap();
        let k = &r.kernels["spmv_csr.min_plus"];
        assert_eq!((k.calls, k.algebra), (1, "min_plus"));
        assert!(r.to_json().contains("\"algebra\":\"min_plus\""));
    }

    #[test]
    fn obs_records_plan_strategy_and_kernel_streams() {
        let t = sample(16, 41);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        let eng =
            SpmvEngine::compile_in(&a, &ExecCtx::serial().instrument(obs.clone())).unwrap();
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        eng.run(&a, &x, &mut y).unwrap();
        eng.run(&a, &x, &mut y).unwrap();
        let r = obs.report();
        r.validate().unwrap();
        // Plan provenance from the planner seam.
        assert_eq!(r.plans.len(), 1);
        assert_eq!(r.plans[0].shape, "i:outer(A)>j:inner(A)[X?]");
        assert!(r.plans[0].explain.contains("probe X(j)"), "{}", r.plans[0].explain);
        // The strategy decision with its gates.
        assert_eq!(r.strategies.len(), 1);
        assert_eq!(r.strategies[0].op, "spmv");
        assert_eq!(r.strategies[0].strategy, "Specialized");
        assert!(r.strategies[0].specializable);
        assert!(!r.strategies[0].race_checked, "serial config never reaches the race gate");
        assert_eq!(r.counters["engine.compile"], 1);
        // Per-kernel counters merged across the two runs.
        let k = &r.kernels["spmv_csr"];
        let nnz = a.meta().nnz as u64;
        assert_eq!((k.calls, k.nnz, k.flops), (2, 2 * nnz, 4 * nnz));
        assert!(k.bytes > 0);
    }

    #[test]
    fn obs_disabled_engine_is_identical_and_silent() {
        let t = sample(20, 42);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.13).sin()).collect();
        let silent = Obs::disabled();
        let eng_obs =
            SpmvEngine::compile_in(&a, &ExecCtx::serial().instrument(silent.clone())).unwrap();
        let eng = SpmvEngine::compile_in(&a, &ExecCtx::serial()).unwrap();
        assert_eq!(eng_obs.strategy(), eng.strategy());
        assert_eq!(eng_obs.plan_shape(), eng.plan_shape());
        let mut y1 = vec![0.0; 20];
        let mut y2 = vec![0.0; 20];
        eng_obs.run(&a, &x, &mut y1).unwrap();
        eng.run(&a, &x, &mut y2).unwrap();
        assert_eq!(y1, y2, "obs-threaded engine must be byte-identical when disabled");
        assert!(silent.report().kernels.is_empty());
    }

    #[test]
    fn obs_reports_race_gate_in_parallel_strategy() {
        let t = sample(64, 43);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        let eng = SpmvEngine::compile_in(
            &a,
            &ExecCtx::with_threads(4).threshold(1).oversubscribe(true).instrument(obs.clone()),
        )
        .unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel);
        let r = obs.report();
        let s = &r.strategies[0];
        assert_eq!(s.strategy, "Parallel");
        assert!(s.race_checked && s.race_safe);
        assert_eq!(s.threads, 4);
        assert_eq!(s.threshold, 1);
        assert_eq!(s.work, a.meta().nnz as u64);
    }

    #[test]
    fn multivector_obs_kernel_names_track_strategy() {
        let ta = sample(40, 44);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &ta);
        let obs = Obs::enabled();
        let par =
            ExecCtx::with_threads(2).threshold(1).oversubscribe(true).instrument(obs.clone());
        let multi = SpmvMultiEngine::compile_in(&a, 3, &par).unwrap();
        let x = vec![1.0; 120];
        let mut y = vec![0.0; 120];
        multi.run(&a, &x, &mut y).unwrap();
        let r = obs.report();
        r.validate().unwrap();
        assert!(r.kernels.contains_key("par_spmm_csr_dense"), "{:?}", r.kernels.keys());
        let ops: Vec<&str> = r.strategies.iter().map(|s| s.op).collect();
        assert_eq!(ops, ["spmv_multi"]);
        assert_eq!(r.plans.len(), 1);
    }

    #[test]
    fn single_worker_pool_downgrades_parallel_with_reason() {
        let t = sample(64, 46);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        // Request 4 workers without oversubscription: on a machine with
        // one hardware thread the effective pool is 1 worker and the
        // plan is downgraded to serial with the recorded reason; on a
        // bigger machine the plan goes parallel with no downgrade.
        let ctx = ExecCtx::with_threads(4).threshold(1).instrument(obs.clone());
        let eng = SpmvEngine::compile_in(&a, &ctx).unwrap();
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let s = &obs.report().strategies[0];
        if hw <= 1 {
            assert_eq!(eng.strategy(), Strategy::Specialized);
            assert_eq!(s.downgrade, Reason::SingleWorkerPool.as_str());
            assert!(!s.race_checked);
        } else {
            assert_eq!(eng.strategy(), Strategy::Parallel);
            assert_eq!(s.downgrade, Reason::None.as_str());
        }
        // Oversubscription restores the historical behaviour anywhere.
        let eng = SpmvEngine::compile_in(&a, &ctx.clone().oversubscribe(true)).unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel);
    }

    #[test]
    fn fast_tier_dispatches_certified_csr() {
        let t = sample(64, 47);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        let ctx = ExecCtx::serial().fast_kernels(true).instrument(obs.clone());
        let eng = SpmvEngine::compile_in(&a, &ctx).unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
        assert_eq!(eng.tier(), "fast");
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut y = vec![0.0; 64];
        eng.run(&a, &x, &mut y).unwrap();
        // Bitwise: the fast kernel matches its documented lane order.
        let mut y_ref = vec![0.0; 64];
        if let SparseMatrix::Csr(m) = &a {
            fast::spmv_csr_lanes(m, &x, &mut y_ref);
        }
        for (p, q) in y.iter().zip(&y_ref) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        let r = obs.report();
        r.validate().unwrap();
        assert_eq!(r.strategies[0].tier, "fast");
        assert!(r.kernels.contains_key("fast_spmv_csr"), "{:?}", r.kernels.keys());
        // The fast tier stays opt-in: a default ctx reports reference.
        let eng = SpmvEngine::compile_in(&a, &ExecCtx::serial()).unwrap();
        assert_eq!(eng.tier(), "reference");
    }

    #[test]
    fn fast_tier_refused_without_certificate() {
        // An uncovered format stays on the reference tier…
        let t = sample(32, 48);
        let a = SparseMatrix::from_triplets(FormatKind::Ccs, &t);
        let obs = Obs::enabled();
        let ctx = ExecCtx::serial().fast_kernels(true).instrument(obs.clone());
        let eng = SpmvEngine::compile_in(&a, &ctx).unwrap();
        assert_eq!(eng.tier(), "reference");
        assert_eq!(obs.report().strategies[0].tier, "reference");
        // …and so does a matrix the sanitizer rejects (columns out of
        // order, BA23 — the reference kernel still computes correctly).
        let bad = SparseMatrix::Csr(Csr::from_raw_unchecked(
            2,
            3,
            vec![0, 2, 2],
            vec![2, 0],
            vec![1.0, 2.0],
        ));
        let eng = SpmvEngine::compile_in(&bad, &ExecCtx::serial().fast_kernels(true)).unwrap();
        assert_eq!(eng.tier(), "reference");
        let mut y = vec![0.0; 2];
        eng.run(&bad, &[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, [3.0, 0.0]);
    }

    #[test]
    fn fast_engine_falls_back_to_reference_for_uncovered_matrix() {
        // The certificate fingerprints the exact arrays it certified; a
        // clone has different storage, so the engine falls back to the
        // reference kernel instead of trusting a stale certificate.
        let t = sample(48, 49);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let obs = Obs::enabled();
        let eng = SpmvEngine::compile_in(
            &a,
            &ExecCtx::serial().fast_kernels(true).instrument(obs.clone()),
        )
        .unwrap();
        assert_eq!(eng.tier(), "fast");
        let b = a.clone();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut y = vec![0.0; 48];
        eng.run(&b, &x, &mut y).unwrap();
        let mut y_ref = vec![0.0; 48];
        b.spmv_acc(&x, &mut y_ref);
        assert_eq!(y, y_ref, "clone must take the reference path bitwise");
        let r = obs.report();
        assert!(r.kernels.contains_key("spmv_csr"), "{:?}", r.kernels.keys());
        assert!(!r.kernels.contains_key("fast_spmv_csr"), "{:?}", r.kernels.keys());
    }

    #[test]
    fn hinted_compile_replays_cold_decisions_bitwise() {
        let t = sample(64, 51);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let cold = SpmvEngine::compile_in(&a, &ExecCtx::serial().fast_kernels(true)).unwrap();
        assert_eq!((cold.strategy(), cold.tier()), (Strategy::Specialized, "fast"));
        let hints = cold.hints();
        let obs = Obs::enabled();
        let warm =
            warm_spmv(&a, &ExecCtx::serial().fast_kernels(true).instrument(obs.clone()), &hints);
        assert_eq!(warm.strategy(), cold.strategy());
        assert_eq!(warm.plan_shape(), cold.plan_shape());
        assert_eq!(warm.tier(), "fast");
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.17).sin()).collect();
        let (mut y_cold, mut y_warm) = (vec![0.0; 64], vec![0.0; 64]);
        cold.run(&a, &x, &mut y_cold).unwrap();
        warm.run(&a, &x, &mut y_warm).unwrap();
        assert_eq!(
            y_cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let r = obs.report();
        // The warm path skipped the planner entirely: no plan event,
        // but the strategy decision and the hinted counter are there.
        assert!(r.plans.is_empty(), "{:?}", r.plans);
        assert_eq!(r.counters["engine.compile_warm"], 1);
        assert_eq!(r.strategies[0].strategy, "Specialized");
        assert!(!r.strategies[0].race_checked, "hinted path never re-runs the race gate");
    }

    #[test]
    fn hinted_compile_recertifies_fast_tier_on_a_rebuilt_matrix() {
        // The cached certificate fingerprints the cold operand's
        // buffers; a structurally identical rebuild misses covers() and
        // must earn a *fresh* certificate, not inherit the stale one.
        let t = sample(48, 52);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let cold = SpmvEngine::compile_in(&a, &ExecCtx::serial().fast_kernels(true)).unwrap();
        let hints = cold.hints();
        assert!(hints.fast_cert.is_some());
        let b = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let warm = warm_spmv(&b, &ExecCtx::serial().fast_kernels(true), &hints);
        assert_eq!(warm.tier(), "fast", "re-derived certificate still arms the fast tier");
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut y = vec![0.0; 48];
        warm.run(&b, &x, &mut y).unwrap();
        let mut y_ref = vec![0.0; 48];
        if let SparseMatrix::Csr(m) = &b {
            fast::spmv_csr_lanes(m, &x, &mut y_ref);
        }
        for (p, q) in y.iter().zip(&y_ref) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn hinted_parallel_verdict_regates_against_this_context() {
        let t = sample(64, 53);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let par = ExecCtx::with_threads(2).threshold(1).oversubscribe(true);
        let cold = SpmvEngine::compile_in(&a, &par).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        let hints = cold.hints();
        // Replaying a Parallel verdict under a serial context re-applies
        // the O(1) gates and lands on the serial specialized tier.
        let warm = warm_spmv(&a, &ExecCtx::serial(), &hints);
        assert_eq!(warm.strategy(), Strategy::Specialized);
        // Under an equivalent parallel context the verdict replays as-is
        // and both engines agree bitwise.
        let warm_par = warm_spmv(&a, &par, &hints);
        assert_eq!(warm_par.strategy(), Strategy::Parallel);
        let x: Vec<f64> = (0..64).map(|i| i as f64 * 0.11 - 3.0).collect();
        let (mut y1, mut y2) = (vec![0.0; 64], vec![0.0; 64]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm_par.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hinted_interpreter_tier_falls_back_to_the_full_compile() {
        // An Interpreted hint needs a real plan to interpret, so the
        // warm path degenerates to the cold one (plan event and all).
        // A multivector product on a non-CSR operand has no hand kernel.
        let t = sample(15, 54);
        let a = SparseMatrix::from_triplets(FormatKind::Coordinate, &t);
        let k = 2;
        let cold = SpmvMultiEngine::compile(&a, k).unwrap();
        assert_eq!(cold.strategy(), Strategy::Interpreted);
        let obs = Obs::enabled();
        let ctx = ExecCtx::default().instrument(obs.clone());
        let warm: SpmvMultiEngine =
            compile_warm::<F64Plus, _>(OpSpec::SpmvMulti { k }, Operands::Mat(&a), &ctx, &cold.hints());
        assert_eq!(warm.strategy(), Strategy::Interpreted);
        let r = obs.report();
        assert_eq!(r.plans.len(), 1, "fallback goes through the planner");
        assert!(!r.counters.contains_key("engine.compile_warm"));
        let x: Vec<f64> = (0..15 * k).map(|i| (i as f64).sqrt()).collect();
        let (mut y1, mut y2) = (vec![0.0; 15 * k], vec![0.0; 15 * k]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm.run(&a, &x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn multivector_hinted_compile_replays_and_regates() {
        // Satellite: the multivector engine now rides the unified hint
        // seam — a cold Parallel verdict replays bitwise under an
        // equivalent context and regates to serial under ExecCtx::serial.
        let t = sample(48, 55);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let k = 3;
        let par = ExecCtx::with_threads(2).threshold(1).oversubscribe(true);
        let cold = SpmvMultiEngine::compile_in(&a, k, &par).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        let hints = cold.hints();
        let obs = Obs::enabled();
        let multi = OpSpec::SpmvMulti { k };
        let warm: SpmvMultiEngine = compile_warm::<F64Plus, _>(
            multi,
            Operands::Mat(&a),
            &par.clone().instrument(obs.clone()),
            &hints,
        );
        assert_eq!(warm.strategy(), Strategy::Parallel);
        assert_eq!(warm.plan_shape(), cold.plan_shape());
        assert_eq!(warm.io_lens(), (48 * k, 48 * k));
        let r = obs.report();
        assert!(r.plans.is_empty(), "warm path must skip the planner: {:?}", r.plans);
        assert_eq!(r.counters["engine.compile_warm"], 1);
        let x: Vec<f64> = (0..48 * k).map(|i| (i as f64 * 0.19).sin()).collect();
        let (mut y1, mut y2) = (vec![0.0; 48 * k], vec![0.0; 48 * k]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let regated: SpmvMultiEngine =
            compile_warm::<F64Plus, _>(multi, Operands::Mat(&a), &ExecCtx::serial(), &hints);
        assert_eq!(regated.strategy(), Strategy::Specialized);
    }

    #[test]
    fn semiring_hinted_compile_replays_per_algebra_verdicts() {
        use bernoulli_relational::semiring::{FirstNonZero, MinPlus};
        // Satellite: graph workloads replay through the same seam. The
        // cached verdict is per-algebra: min-plus replays Parallel,
        // while a first_nonzero cold verdict (Specialized via BA06)
        // replays serial — no upgrade is possible on the warm path.
        let t = sample(48, 56);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let par = ExecCtx::with_threads(2).threshold(1).oversubscribe(true);
        let cold = SemiringSpmvEngine::<MinPlus>::compile_in(&a, &par).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        let obs = Obs::enabled();
        let warm: SemiringSpmvEngine<MinPlus> = compile_warm::<MinPlus, _>(
            OpSpec::SemiringSpmv { algebra: MinPlus::NAME },
            Operands::Mat(&a),
            &par.clone().instrument(obs.clone()),
            &cold.hints(),
        );
        assert_eq!(warm.strategy(), Strategy::Parallel);
        let r = obs.report();
        assert!(r.plans.is_empty(), "warm path must skip the planner: {:?}", r.plans);
        assert_eq!(r.counters["engine.compile_warm"], 1);
        assert_eq!(r.strategies[0].algebra, "min_plus");
        let x: Vec<f64> = (0..48).map(|i| i as f64 * 0.5).collect();
        let (mut y1, mut y2) = (vec![f64::INFINITY; 48], vec![f64::INFINITY; 48]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The non-commutative algebra's serial verdict replays as-is.
        let cold_fnz = SemiringSpmvEngine::<FirstNonZero>::compile_in(&a, &par).unwrap();
        assert_eq!(cold_fnz.strategy(), Strategy::Specialized);
        let warm_fnz: SemiringSpmvEngine<FirstNonZero> = compile_warm::<FirstNonZero, _>(
            OpSpec::SemiringSpmv { algebra: FirstNonZero::NAME },
            Operands::Mat(&a),
            &par,
            &cold_fnz.hints(),
        );
        assert_eq!(warm_fnz.strategy(), Strategy::Specialized);
    }
}
