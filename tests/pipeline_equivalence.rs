//! The unified-pipeline equivalence suite: every engine facade is a
//! thin veneer over `bernoulli::pipeline::compile`, and this file pins
//! the two properties the unification must preserve:
//!
//! 1. **Uniform provenance** — all five op specs emit `strategies`
//!    records with the *identical* field set under
//!    `bernoulli.profile/v2`; no engine gets a private vocabulary.
//! 2. **Replay parity** — compiling with hints (the plan cache's warm
//!    path) is bitwise-identical to the cold path for every op, a
//!    forged schedule is rejected by the independent verifier without
//!    corrupting the result, and hints from another op kind or a
//!    mismatched operand bundle never panic.

use bernoulli::engines::{SemiringSpmvEngine, SpmvEngine, SpmvMultiEngine, Strategy};
use bernoulli::{
    compile_op, CompiledOp, OpHints, OpSpec, Operands, Reason, RelError, RelResult, SptrsvEngine,
    SymGsEngine, TriangularOp,
};
use bernoulli_analysis::wavefront::LevelSchedule;
use bernoulli_formats::{gen, Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_obs::Obs;
use bernoulli_relational::semiring::{F64Plus, MinPlus, Semiring};

fn lower_triangle(t: &Triplets) -> Csr {
    let mut lt = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.canonicalize().entries() {
        if c < r {
            lt.push(r, c, v);
        } else if c == r {
            lt.push(r, c, 4.0);
        }
    }
    Csr::from_triplets(&lt)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The ordered key list of one JSON object body (top-level keys only —
/// the strategies records are flat).
fn json_keys(obj: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = obj;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let end = after.find('"').expect("unterminated key");
        let key = &after[..end];
        let tail = &after[end + 1..];
        if tail.starts_with(':') {
            keys.push(key.to_string());
        }
        // Skip past this key *and* its value's opening quote if the
        // value is a string (so value text never looks like a key).
        let skip = if let Some(val) = tail.strip_prefix(":\"") {
            let vend = val.find('"').expect("unterminated value") + 3;
            end + 1 + vend
        } else {
            end + 1
        };
        rest = &after[skip..];
    }
    keys
}

/// Satellite golden: one compile per op spec, one report, and every
/// `strategies` record must carry the same field set in the same
/// order — the unified pipeline emits one vocabulary for all five.
#[test]
fn all_five_op_specs_emit_identical_strategy_field_sets() {
    let obs = Obs::enabled();
    let ctx = ExecCtx::with_threads(2)
        .oversubscribe(true)
        .threshold(1)
        .instrument(obs.clone());

    let t = gen::grid2d_5pt(8, 8);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let sym_t = gen::grid3d_7pt(4, 4, 4);
    let sym = Csr::from_triplets(&sym_t);
    let l = lower_triangle(&sym_t);

    SpmvEngine::compile_in(&a, &ctx).unwrap();
    SpmvMultiEngine::compile_in(&a, 2, &ctx).unwrap();
    SemiringSpmvEngine::<MinPlus>::compile_in(&a, &ctx).unwrap();
    SptrsvEngine::compile_in(&l, TriangularOp::Lower { unit_diag: false }, &ctx).unwrap();
    SymGsEngine::compile_in(&sym, &ctx).unwrap();

    let report = obs.report();
    report.validate().unwrap();
    assert_eq!(report.strategies.len(), 5, "one decision record per op spec");
    let ops: Vec<&str> = report.strategies.iter().map(|s| s.op).collect();
    assert_eq!(ops, ["spmv", "spmv_multi", "spmv", "sptrsv", "symgs"]);
    let algebras: Vec<&str> = report.strategies.iter().map(|s| s.algebra).collect();
    assert_eq!(algebras, ["f64_plus", "f64_plus", "min_plus", "f64_plus", "f64_plus"]);

    // The golden: identical field sets, pinned by name and order.
    let json = report.to_json();
    assert!(json.starts_with("{\"schema\":\"bernoulli.profile/v2\""));
    let arr_start = json.find("\"strategies\":[").expect("strategies stream") + 14;
    let arr_end = json[arr_start..].find(']').expect("unterminated stream") + arr_start;
    let records: Vec<&str> = json[arr_start..arr_end]
        .split("},{")
        .map(|r| r.trim_matches(|c| c == '{' || c == '}'))
        .collect();
    assert_eq!(records.len(), 5);
    let want = [
        "op",
        "strategy",
        "algebra",
        "specializable",
        "work",
        "threshold",
        "threads",
        "race_checked",
        "race_safe",
        "tier",
        "downgrade",
        "levels",
        "max_level_width",
        "mean_level_width",
    ];
    for (i, r) in records.iter().enumerate() {
        assert_eq!(json_keys(r), want, "record {i} ({}) field set diverged", ops[i]);
    }
}

/// Warm compile through the one entry point, as the facade type `E`.
fn compile_warm<S: Semiring, E: TryFrom<CompiledOp, Error = RelError>>(
    spec: OpSpec,
    operands: Operands<'_>,
    ctx: &ExecCtx,
    hints: &OpHints,
) -> E {
    compile_op::<S>(spec, operands, ctx, Some(hints)).unwrap().try_into().unwrap()
}

/// Hinted replay is bitwise-identical to the cold compile for the
/// whole multiply family, fast tier included.
#[test]
fn hinted_replay_matches_cold_compile_bitwise_for_the_multiply_family() {
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1).fast_kernels(true);
    let t = gen::grid2d_9pt(12, 12);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();

    // Classical SpMV.
    let cold = SpmvEngine::compile_in(&a, &ctx).unwrap();
    let warm: SpmvEngine =
        compile_warm::<F64Plus, _>(OpSpec::Spmv, Operands::Mat(&a), &ctx, &cold.hints());
    let (mut y1, mut y2) = (vec![0.0; n], vec![0.0; n]);
    cold.run(&a, &x, &mut y1).unwrap();
    warm.run(&a, &x, &mut y2).unwrap();
    assert_eq!(bits(&y1), bits(&y2));
    assert_eq!((cold.strategy(), cold.tier()), (warm.strategy(), warm.tier()));

    // Multi-RHS.
    let k = 3;
    let xk: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.07).cos()).collect();
    let cold = SpmvMultiEngine::compile_in(&a, k, &ctx).unwrap();
    let warm: SpmvMultiEngine =
        compile_warm::<F64Plus, _>(OpSpec::SpmvMulti { k }, Operands::Mat(&a), &ctx, &cold.hints());
    let (mut y1, mut y2) = (vec![0.0; n * k], vec![0.0; n * k]);
    cold.run(&a, &xk, &mut y1).unwrap();
    warm.run(&a, &xk, &mut y2).unwrap();
    assert_eq!(bits(&y1), bits(&y2));

    // Semiring SpMV (min-plus relaxation).
    let d0: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { f64::INFINITY }).collect();
    let cold = SemiringSpmvEngine::<MinPlus>::compile_in(&a, &ctx).unwrap();
    let warm: SemiringSpmvEngine<MinPlus> = compile_warm::<MinPlus, _>(
        OpSpec::SemiringSpmv { algebra: MinPlus::NAME },
        Operands::Mat(&a),
        &ctx,
        &cold.hints(),
    );
    let (mut d1, mut d2) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    cold.run(&a, &d0, &mut d1).unwrap();
    warm.run(&a, &d0, &mut d2).unwrap();
    assert_eq!(bits(&d1), bits(&d2));
}

/// Replaying the engine's own schedule is bitwise-identical; replaying
/// a forged one is refused by the independent verifier and falls back
/// to the serial sweep — same answer, downgraded tier.
#[test]
fn schedule_replay_parity_and_forged_schedule_rejection() {
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let sym_t = gen::grid3d_7pt(5, 5, 5);
    let l = lower_triangle(&sym_t);
    let sym = Csr::from_triplets(&sym_t);
    let op = TriangularOp::Lower { unit_diag: false };
    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
    let solve = OpSpec::Sptrsv { op };

    let cold = SptrsvEngine::compile_in(&l, op, &ctx).unwrap();
    assert_eq!(cold.strategy(), Strategy::Parallel);
    assert!(cold.schedule().is_some(), "parallel tier must carry its schedule");
    let warm: SptrsvEngine =
        compile_warm::<F64Plus, _>(solve, Operands::Tri(&l), &ctx, &cold.hints());
    assert_eq!(warm.strategy(), Strategy::Parallel);
    let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
    cold.run(&l, &b, &mut x1).unwrap();
    warm.run(&l, &b, &mut x2).unwrap();
    assert_eq!(bits(&x1), bits(&x2));

    // Forged: claim every row is independent (one flat level). BA4x
    // must refuse it and the engine must fall back to the serial sweep.
    let forged = LevelSchedule::from_raw_unchecked(n, (0..n).collect(), vec![0, n]);
    let forged = OpHints { schedule: Some(forged), ..cold.hints() };
    let bad: SptrsvEngine = compile_warm::<F64Plus, _>(solve, Operands::Tri(&l), &ctx, &forged);
    assert_eq!(bad.strategy(), Strategy::Specialized);
    assert_eq!(bad.downgrade(), Reason::ScheduleRejected);
    let mut x3 = vec![0.0; n];
    bad.run(&l, &b, &mut x3).unwrap();
    assert_eq!(bits(&x1), bits(&x3), "rejected schedule must not corrupt the solve");

    // SymGS: one schedule, both sweeps, replay parity.
    let gs_cold = SymGsEngine::compile_in(&sym, &ctx).unwrap();
    assert!(gs_cold.schedule().is_some(), "the sweeps armed");
    let gs_warm: SymGsEngine =
        compile_warm::<F64Plus, _>(OpSpec::Symgs, Operands::Tri(&sym), &ctx, &gs_cold.hints());
    let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
    gs_cold.apply_ssor(&sym, 1.2, &b, &mut z1).unwrap();
    gs_warm.apply_ssor(&sym, 1.2, &b, &mut z2).unwrap();
    assert_eq!(bits(&z1), bits(&z2));
}

type Compile = for<'a, 'b> fn(
    OpSpec,
    Operands<'a>,
    &'b ExecCtx,
    Option<&'b OpHints>,
) -> RelResult<CompiledOp>;
type Run = for<'a, 'b> fn(&'b CompiledOp, Operands<'a>, &'b [f64], &'b mut [f64]) -> RelResult<()>;

/// One row per `OpSpec`: what to compile, against what, under which
/// algebra (the two function pointers carry the semiring type).
struct Case<'a> {
    spec: OpSpec,
    operands: Operands<'a>,
    compile: Compile,
    run: Run,
}

impl Case<'_> {
    /// Compile (cold or hinted) and run against the case's own
    /// operands; the result starts from the min-plus ⊕-identity for
    /// the semiring rows and from zero otherwise.
    fn output(&self, ctx: &ExecCtx, hints: Option<&OpHints>) -> RelResult<(CompiledOp, Vec<f64>)> {
        let op = (self.compile)(self.spec, self.operands, ctx, hints)?;
        let (n_in, n_out) = op.io_lens();
        let rhs: Vec<f64> = (0..n_in).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        let zero = if op.kind().algebra() == MinPlus::NAME { f64::INFINITY } else { 0.0 };
        let mut out = vec![zero; n_out];
        (self.run)(&op, self.operands, &rhs, &mut out)?;
        Ok((op, out))
    }
}

fn five_cases<'a>(a: &'a SparseMatrix, ca: &'a Csr, l: &'a Csr) -> [Case<'a>; 5] {
    let f64_plus = |spec, operands| Case {
        spec,
        operands,
        compile: compile_op::<F64Plus>,
        run: CompiledOp::run::<F64Plus>,
    };
    let min_plus = |spec, operands| Case {
        spec,
        operands,
        compile: compile_op::<MinPlus>,
        run: CompiledOp::run::<MinPlus>,
    };
    let algebra = MinPlus::NAME;
    [
        f64_plus(OpSpec::Spmv, Operands::Mat(a)),
        f64_plus(OpSpec::SpmvMulti { k: 3 }, Operands::Mat(a)),
        min_plus(OpSpec::SemiringSpmv { algebra }, Operands::Mat(a)),
        f64_plus(
            OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } },
            Operands::Tri(l),
        ),
        f64_plus(OpSpec::Symgs, Operands::Tri(ca)),
    ]
}

/// The table-driven contract of the single entry point, over all five
/// `OpSpec`s: (a) a compile replaying the op's own hints is the cold
/// compile in every observable — verdict and output bits; (b) hints
/// exported by a *different* op kind, and a spec handed another op's
/// operand bundle, yield a correct result or a `RelError`, never a
/// panic.
#[test]
fn every_op_spec_replays_its_own_hints_and_survives_foreign_ones() {
    let t = gen::grid3d_7pt(5, 5, 5);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let ca = Csr::from_triplets(&t);
    let l = lower_triangle(&t);
    let cases = five_cases(&a, &ca, &l);
    let verdict = |op: &CompiledOp| (op.strategy(), op.tier(), op.plan_shape(), op.downgrade());

    // (a) Under the parallel context (wavefront schedules arm) and the
    // serial fast-tier one (the SpMV certificate replays).
    let par = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    for ctx in [par.clone(), ExecCtx::serial().fast_kernels(true)] {
        for case in &cases {
            let (cold, y_cold) = case.output(&ctx, None).unwrap();
            let (warm, y_warm) = case.output(&ctx, Some(&cold.hints())).unwrap();
            assert_eq!(verdict(&warm), verdict(&cold), "{:?}", case.spec);
            assert_eq!(bits(&y_warm), bits(&y_cold), "{:?}", case.spec);
        }
    }

    // (b) Foreign hints: every op's export fed to every other op. The
    // tier may differ from the cold one (a foreign verdict can
    // mis-tier), the answer may not — up to rounding.
    let same = |p: &f64, q: &f64| {
        p.to_bits() == q.to_bits() || (p - q).abs() <= 1e-12 * q.abs().max(1.0)
    };
    let cold: Vec<_> = cases.iter().map(|c| c.output(&par, None).unwrap()).collect();
    for (i, donor) in cold.iter().enumerate() {
        for (j, case) in cases.iter().enumerate().filter(|&(j, _)| j != i) {
            match case.output(&par, Some(&donor.0.hints())) {
                Ok((_, y)) => assert!(
                    y.len() == cold[j].1.len() && y.iter().zip(&cold[j].1).all(|(p, q)| same(p, q)),
                    "{:?} mis-computed under hints from {:?}",
                    case.spec,
                    cases[i].spec
                ),
                Err(RelError::Validation(_)) => {}
                Err(other) => panic!("{:?}: unexpected error class {other:?}", case.spec),
            }
        }
    }

    // (b) Spec/operands mismatch: a spec compiled against another op's
    // bundle is refused unless the bundle has the shape it takes, and a
    // compiled op run against a foreign bundle is refused likewise.
    let shape = |o: &Operands<'_>| match o {
        Operands::Mat(_) => 0,
        Operands::Tri(_) => 2,
    };
    for (i, case) in cases.iter().enumerate() {
        for other in &cases {
            let compiled = (case.compile)(case.spec, other.operands, &par, None);
            if shape(&case.operands) != shape(&other.operands) {
                assert!(matches!(compiled, Err(RelError::Validation(_))), "{:?}", case.spec);
                let (op, y) = &cold[i];
                let ran = (case.run)(op, other.operands, &vec![1.0; op.io_lens().0], &mut y.clone());
                assert!(matches!(ran, Err(RelError::Validation(_))), "{:?}", case.spec);
            } else if matches!((case.spec, other.spec), (OpSpec::Sptrsv { .. }, OpSpec::Symgs)) {
                // Right shape, wrong operand: SymGS's full rows do not
                // store the diagonal last, and a non-unit solve says so.
                assert!(matches!(compiled, Err(RelError::Validation(_))), "{:?}", case.spec);
            } else {
                assert!(compiled.is_ok(), "{:?} on {:?}'s operands", case.spec, other.spec);
            }
        }
    }
}

/// A serial and a parallel context.
fn tier_ctxs() -> [ExecCtx; 2] {
    [ExecCtx::serial(), ExecCtx::with_threads(2).oversubscribe(true).threshold(1)]
}

/// A multivector width whose `X`/`Y` lengths overflow `usize` is
/// refused with `Validation` at compile on the serial and parallel
/// tiers, on the interpreting tier (a CCS operand has no hand kernel)
/// and through the dispatcher — not a capacity panic, a debug-build
/// multiply panic, or (wrapped) an empty result.
#[test]
fn a_multivector_width_that_overflows_is_refused_on_every_tier() {
    let ctxs = tier_ctxs();
    let t = gen::grid2d_5pt(2, 2);
    let overflow = |r: RelResult<()>| matches!(r, Err(RelError::Validation(m)) if m.contains("overflows"));
    for k in [usize::MAX, 1 << 62] {
        for kind in [FormatKind::Csr, FormatKind::Ccs] {
            let a = SparseMatrix::from_triplets(kind, &t);
            for ctx in &ctxs {
                let compiled = SpmvMultiEngine::compile_in(&a, k, ctx).map(drop);
                assert!(overflow(compiled), "k = {k}, {kind}, {ctx:?}");
            }
        }
        let mut dispatcher = bernoulli_tune::Dispatcher::new(ctxs[1].clone());
        let id = dispatcher.register(&t);
        assert!(overflow(dispatcher.submit(id, OpSpec::SpmvMulti { k }, &[]).map(drop)), "k = {k}, submit");
    }
}

/// A compiled semiring op is bound to its algebra: run through the
/// untyped front door under another semiring it is refused, on every
/// tier, and leaves the output untouched — a min-plus plan is never
/// evaluated with `(+, ×)` or first-nonzero.
#[test]
fn a_compiled_semiring_op_refuses_to_run_under_another_algebra() {
    use bernoulli_relational::semiring::FirstNonZero;
    let t = gen::grid2d_5pt(4, 4);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let operands = Operands::Mat(&a);
    let x = vec![1.0; 16];
    let mut want = vec![7.0f64; 16];
    for &(i, _, v) in t.canonicalize().entries() {
        want[i] = want[i].min(v + 1.0);
    }
    for ctx in tier_ctxs() {
        let spec = OpSpec::SemiringSpmv { algebra: MinPlus::NAME };
        let op = compile_op::<MinPlus>(spec, operands, &ctx, None).unwrap();
        let mut y = vec![7.0; 16];
        for ran in [op.run::<F64Plus>(operands, &x, &mut y), op.run::<FirstNonZero>(operands, &x, &mut y)] {
            assert!(matches!(ran, Err(RelError::Validation(_))), "{ctx:?}: {ran:?}");
        }
        assert_eq!(y, vec![7.0; 16], "{ctx:?}: a refused run wrote its output");
        op.run::<MinPlus>(operands, &x, &mut y).unwrap();
        assert_eq!(y, want, "{ctx:?}");
    }
}
