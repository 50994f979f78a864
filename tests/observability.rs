//! Observability golden tests: the EXPLAIN text and the JSON report
//! schema are contracts, so any change here is a deliberate schema
//! bump, not drift. Plus the headline zero-cost guarantee: with a
//! disabled handle, every instrumented path produces byte-identical
//! results to the uninstrumented one.

use bernoulli::ast::programs;
use bernoulli::compile::Compiler;
use bernoulli::engines::{SpmvEngine, SpmvMultiEngine};
use bernoulli::ExecCtx;
use bernoulli_formats::{gen, Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_obs::events::{
    KernelCounters, PlanEvent, SolverTrace, StrategyEvent, TrafficEvent, TrafficSample,
};
use bernoulli_obs::report::{Report, SCHEMA};
use bernoulli_obs::Obs;
use bernoulli_relational::access::{MatrixAccess, VecMeta};
use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_solvers::cg::{cg, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;

fn plan_event_for(a: &SparseMatrix, n: usize) -> PlanEvent {
    let meta = QueryMeta::new()
        .mat(MAT_A, a.meta())
        .vec(VEC_X, VecMeta::dense(n))
        .vec(VEC_Y, VecMeta::dense(n));
    let obs = Obs::enabled();
    Compiler::in_ctx(&ExecCtx::default().instrument(obs.clone()))
        .compile(&programs::matvec(), &meta)
        .unwrap();
    obs.report().plans.remove(0)
}

#[test]
fn explain_golden_hierarchical_csr() {
    // The full EXPLAIN for the canonical CSR matvec plan, pinned
    // byte-for-byte: join order, per-level properties, the search-join
    // justification. Changing this text is a provenance-schema change.
    let t = gen::grid2d_5pt(8, 8);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let p = plan_event_for(&a, t.nrows());
    assert_eq!(p.op, "Y(i) += (val(A) * val(X))");
    assert_eq!(p.shape, "i:outer(A)>j:inner(A)[X?]");
    assert_eq!(p.est_cost, 928.0);
    assert_eq!(p.candidates, 11);
    assert_eq!(
        p.runners_up.first().map(|(s, c)| (s.as_str(), *c)),
        Some(("i:range[A?]>j:inner(A)[X?]", 992.0))
    );
    assert_eq!(
        p.explain,
        "plan i:outer(A)>j:inner(A)[X?] (est cost 928.0)\n\
         stmt: Y(i) += (val(A) * val(X))\n\
         predicate: NZ(A)\n\
         for i in outer(A) -- level sorted/Constant/dense, ~64 candidates/start\n\
         \x20 for j in inner(A) -- level sorted/Logarithmic/sparse, ~4.5 candidates/start\n\
         \x20   probe X(j) -- search join: partner sorted/Constant/dense, O(1) direct index; \
         value supply (miss contributes 0)\n"
    );
}

#[test]
fn explain_golden_flat_coordinate() {
    // A too-sparse matrix (avg row < 2) makes the flat scatter plan
    // win even for CSR; the EXPLAIN says so in terms of stored tuples.
    let t = Triplets::from_entries(
        4,
        4,
        &[(0, 0, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 1, 4.0), (3, 0, 5.0), (3, 3, 6.0)],
    );
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let p = plan_event_for(&a, 4);
    assert_eq!(p.shape, "(i,j):flat(A)[X?]");
    assert_eq!(
        p.explain,
        "plan (i,j):flat(A)[X?] (est cost 21.0)\n\
         stmt: Y(i) += (val(A) * val(X))\n\
         predicate: NZ(A)\n\
         for (i,j) in flat(A) -- level sorted/Logarithmic/sparse, ~6 stored tuples\n\
         \x20 probe X(j) -- search join: partner sorted/Constant/dense, O(1) direct index; \
         value supply (miss contributes 0)\n"
    );
}

#[test]
fn json_schema_golden() {
    // The empty report pins the section skeleton; a one-event-per-
    // stream report pins every field name and the JSON number format.
    assert_eq!(
        Report::empty().to_json(),
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"counters\":{{}},\"spans\":[],\"plans\":[],\
             \"strategies\":[],\"kernels\":[],\"traffic\":[],\"solvers\":[]}}"
        )
    );

    let obs = Obs::enabled();
    obs.counter("engine.compile", 2);
    obs.span_ns("solver.cg", 1500);
    obs.plan(|| PlanEvent {
        op: "Y(i) += (val(A) * val(X))".into(),
        shape: "i:outer(A)>j:inner(A)[X?]".into(),
        est_cost: 928.0,
        candidates: 11,
        runners_up: vec![("(i,j):flat(A)[X?]".into(), 1008.0)],
        explain: "plan ...".into(),
    });
    obs.strategy(|| StrategyEvent {
        op: "spmv",
        strategy: "Parallel",
        algebra: "f64_plus",
        specializable: true,
        work: 320,
        threshold: 1,
        threads: 2,
        race_checked: true,
        race_safe: true,
        tier: "reference",
        downgrade: "",
        levels: 31,
        max_level_width: 16,
        mean_level_width: 10.5,
    });
    obs.kernel(
        "par_spmv_csr",
        KernelCounters { nnz: 320, flops: 640, bytes: 7168, algebra: "f64_plus" },
    );
    obs.traffic(|| TrafficEvent {
        phase: "cg.dist".into(),
        nprocs: 2,
        elapsed_ns: 9000,
        per_rank: vec![
            TrafficSample { msgs_sent: 3, bytes_sent: 96, barriers: 1, allreduces: 4, alltoalls: 0 },
            TrafficSample { msgs_sent: 3, bytes_sent: 96, barriers: 1, allreduces: 4, alltoalls: 0 },
        ],
    });
    obs.solver(|| SolverTrace {
        solver: "cg".into(),
        n: 64,
        iters: 2,
        converged: true,
        final_residual: 0.25,
        residuals: vec![1.0, 0.5, 0.25],
    });
    let report = obs.report();
    report.validate().unwrap();
    assert_eq!(
        report.to_json(),
        "{\"schema\":\"bernoulli.profile/v2\",\"counters\":{\"engine.compile\":2},\
         \"spans\":[{\"name\":\"solver.cg\",\"calls\":1,\"total_ns\":1500}],\
         \"plans\":[{\"op\":\"Y(i) += (val(A) * val(X))\",\"shape\":\"i:outer(A)>j:inner(A)[X?]\",\
         \"est_cost\":928.0,\"candidates\":11,\
         \"runners_up\":[{\"shape\":\"(i,j):flat(A)[X?]\",\"est_cost\":1008.0}],\
         \"explain\":\"plan ...\"}],\
         \"strategies\":[{\"op\":\"spmv\",\"strategy\":\"Parallel\",\"algebra\":\"f64_plus\",\
         \"specializable\":true,\
         \"work\":320,\"threshold\":1,\"threads\":2,\"race_checked\":true,\"race_safe\":true,\
         \"tier\":\"reference\",\"downgrade\":\"\",\
         \"levels\":31,\"max_level_width\":16,\"mean_level_width\":10.5}],\
         \"kernels\":[{\"kernel\":\"par_spmv_csr\",\"algebra\":\"f64_plus\",\"calls\":1,\
         \"nnz\":320,\"flops\":640,\
         \"bytes\":7168}],\
         \"traffic\":[{\"phase\":\"cg.dist\",\"nprocs\":2,\"elapsed_ns\":9000,\
         \"per_rank\":[{\"msgs_sent\":3,\"bytes_sent\":96,\"barriers\":1,\"allreduces\":4,\
         \"alltoalls\":0},{\"msgs_sent\":3,\"bytes_sent\":96,\"barriers\":1,\"allreduces\":4,\
         \"alltoalls\":0}],\
         \"total\":{\"msgs_sent\":6,\"bytes_sent\":192,\"barriers\":2,\"allreduces\":8,\
         \"alltoalls\":0}}],\
         \"solvers\":[{\"solver\":\"cg\",\"n\":64,\"iters\":2,\"converged\":true,\
         \"final_residual\":0.25,\"residuals\":[1.0,0.5,0.25]}]}"
    );
}

#[test]
fn results_byte_identical_with_instrumentation_disabled() {
    // The acceptance condition: threading a disabled handle through
    // every instrumented layer changes no bit of any result.
    let t = gen::grid2d_5pt(12, 12);
    let n = t.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        for ctx in [ExecCtx::serial(), ExecCtx::with_threads(2).threshold(1)] {
            let plain = SpmvEngine::compile_in(&a, &ctx).unwrap();
            let wired =
                SpmvEngine::compile_in(&a, &ctx.clone().instrument(Obs::disabled())).unwrap();
            assert_eq!(plain.strategy(), wired.strategy(), "format {kind}");
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            plain.run(&a, &x, &mut y1).unwrap();
            wired.run(&a, &x, &mut y2).unwrap();
            assert_eq!(y1, y2, "format {kind}: obs-disabled SpMV must be bitwise identical");
        }
    }

    // Solvers: the instrumented ctx around an untouched core.
    let csr = Csr::from_triplets(&t);
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let plain = ExecCtx::default();
    let wired = ExecCtx::default().instrument(Obs::disabled());
    let mut x1 = vec![0.0; n];
    let mut x2 = vec![0.0; n];
    let r1 = cg(&csr, &pc, &b, &mut x1, CgOptions::default(), &plain).unwrap();
    let r2 = cg(&csr, &pc, &b, &mut x2, CgOptions::default(), &wired).unwrap();
    assert_eq!(x1, x2);
    assert_eq!(r1.residual_history, r2.residual_history);
}

/// FNV-1a-style fold over f64 bit patterns: the golden fingerprint.
fn bit_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf29ce484222325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn ctx_path_is_bitwise_identical_to_pre_refactor_goldens() {
    // Captured from the pre-ExecCtx library (the separate
    // `compile`/`cg` default-ctx entry points) on this exact workload,
    // before the refactor landed; the CG pair again when every dot took
    // the blocked eight-lane shape (`vecops`). The unified ctx path must
    // reproduce every bit: SpMV across all nine formats, then the CG
    // solution and residual history.
    const SPMV_GOLD: u64 = 0x68298f63ec3a43f9;
    const CG_X_GOLD: u64 = 0xf087abeb3e6e469b;
    const CG_HIST_GOLD: u64 = 0xd9e3c888d14247cf;
    const CG_ITERS_GOLD: usize = 29;

    let t = gen::grid2d_5pt(12, 12);
    let n = t.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let eng = SpmvEngine::compile_in(&a, &ExecCtx::default()).unwrap();
        let mut y = vec![0.0; n];
        eng.run(&a, &x, &mut y).unwrap();
        assert_eq!(bit_hash(&y), SPMV_GOLD, "format {kind} drifted from the pre-refactor bits");
        // The no-ctx convenience form is the same engine.
        let mut y2 = vec![0.0; n];
        SpmvEngine::compile(&a).unwrap().run(&a, &x, &mut y2).unwrap();
        assert_eq!(y, y2, "format {kind}");
    }

    let csr = Csr::from_triplets(&t);
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut xs = vec![0.0; n];
    let r = cg(&csr, &pc, &b, &mut xs, CgOptions::default(), &ExecCtx::default()).unwrap();
    assert_eq!(r.iters, CG_ITERS_GOLD);
    assert_eq!(bit_hash(&xs), CG_X_GOLD, "CG solution drifted from the pre-refactor bits");
    assert_eq!(bit_hash(&r.residual_history), CG_HIST_GOLD);
}

#[test]
fn one_handle_collects_every_stream() {
    // A single shared handle wired through planner, engines, SPMD
    // machine and solvers ends up with all six streams populated and a
    // valid report.
    let obs = Obs::enabled();
    let t = gen::grid2d_5pt(10, 10);
    let n = t.nrows();
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let ctx = ExecCtx::serial().instrument(obs.clone());
    let eng = SpmvEngine::compile_in(&a, &ctx).unwrap();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    eng.run(&a, &x, &mut y).unwrap();
    let multi = SpmvMultiEngine::compile_in(&a, 2, &ctx).unwrap();
    let mut ym = vec![0.0; n * 2];
    multi.run(&a, &vec![1.0; n * 2], &mut ym).unwrap();

    let csr = Csr::from_triplets(&t);
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let b: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
    let mut xs = vec![0.0; n];
    cg(&csr, &pc, &b, &mut xs, CgOptions::default(), &ctx).unwrap();

    bernoulli_spmd::machine::Machine::run_in(3, None, "allreduce", &ctx, |ctx| {
        ctx.all_reduce_sum(ctx.rank() as f64)
    });

    let report = obs.report();
    report.validate().unwrap();
    assert_eq!(report.plans.len(), 2);
    assert_eq!(report.strategies.len(), 2);
    assert!(report.kernels.contains_key("spmv_csr"));
    assert_eq!(report.traffic[0].phase, "allreduce");
    assert_eq!(report.traffic[0].per_rank.len(), 3);
    assert_eq!(report.solvers[0].solver, "cg");
    assert!(report.spans.contains_key("spmd.allreduce"));
    // Serialisation is deterministic and re-parses as the same string.
    assert_eq!(report.to_json(), report.to_json());
}
