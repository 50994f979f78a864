//! Cross-crate checks that the `bernoulli-analysis` passes hold over
//! everything the repo actually builds: the race checker certifies the
//! canned kernels and refuses the sweep nest, every plan `plan_all`
//! emits verifies clean, every format's constructor output validates
//! clean, the wavefront pass certifies triangular patterns (and refuses
//! a full one or a forged schedule), and the engines provably refuse
//! `Strategy::Parallel` for a nest the race checker rejects.

use bernoulli::ast::programs;
use bernoulli::engines::SpmvEngine;
use bernoulli::pipeline::do_any_decision;
use bernoulli::lower::extract_query;
use bernoulli::{ExecCtx, Strategy};
use bernoulli_analysis::plan_verify::verify_plan;
use bernoulli_analysis::race::{check_do_any, ParallelCertificate};
use bernoulli_analysis::wavefront::{
    analyze_wavefront, certify_wavefront, verify_level_schedule, LevelSchedule, Relation, Triangle,
};
use bernoulli_formats::gen::{grid2d_5pt, grid3d_7pt};
use bernoulli_formats::{Csr, DenseMatrix, FormatKind, SparseMatrix, SparseVec, Triplets, Validate};
use bernoulli_relational::access::{MatrixAccess, VecMeta, VectorAccess};
use bernoulli_relational::ids::{MAT_A, MAT_B, PERM_P, VEC_X, VEC_Y};
use bernoulli_relational::planner::{Planner, QueryMeta};
use bernoulli_relational::scalar::UpdateOp;
use bernoulli_relational::semiring::AlgebraProps;

fn sample(n: usize, seed: u64) -> Triplets {
    bernoulli_formats::gen::random_sparse(n, n, n * 3, seed)
}

#[test]
fn permuted_matvec_is_certified_parallel_safe() {
    // The §2.2 permuted kernel: Y(i) covers the i↔k bijection, J is
    // reduced over — a reduction certificate, not merely disjoint
    // writes.
    let r = check_do_any(&programs::matvec_row_permuted());
    assert!(r.is_parallel_safe(), "{:?}", r.diagnostics);
    assert_eq!(r.certificate, Some(ParallelCertificate::Reduction));
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn mat_dot_is_reduction_only() {
    // s += A(i,j)·B(i,j) writes a scalar: *no* loop variable is
    // covered, so the certificate rests entirely on commutativity.
    let r = check_do_any(&programs::mat_dot());
    assert_eq!(r.certificate, Some(ParallelCertificate::Reduction));
    // Flip the operator to assignment and the certificate must vanish.
    let mut racy = programs::mat_dot();
    racy.op = UpdateOp::Assign;
    assert!(!check_do_any(&racy).is_parallel_safe());
}

#[test]
fn engines_refuse_parallel_for_racy_nest() {
    // Acceptance condition: Strategy::Parallel is provably refused for
    // a nest the race checker rejects, through the exact decision
    // function every engine's compile_in routes through.
    let mut racy = programs::matvec();
    racy.op = UpdateOp::Assign;
    // Oversubscribed so the single-worker downgrade (a different,
    // host-dependent gate) stays out of the way of the race gate.
    let exec = ExecCtx::with_threads(4).threshold(1).oversubscribe(true);
    let work = 1 << 20; // far above threshold: only the race gate differs
    let f64_plus = AlgebraProps::f64_plus();
    let decide = |nest| do_any_decision(nest, true, work, &exec, &f64_plus).strategy;
    assert_eq!(decide(&racy), Strategy::Specialized);
    assert_eq!(decide(&programs::matvec()), Strategy::Parallel);
    // And the engine built from the clean nest does go parallel on the
    // same config — the gate, not the plumbing, made the difference.
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &sample(64, 5));
    let eng = SpmvEngine::compile_in(&a, &exec).unwrap();
    assert_eq!(eng.strategy(), Strategy::Parallel);
}

/// Every plan `plan_all` emits for every canned program, across every
/// storage format, passes the independent verifier with zero findings.
#[test]
fn all_plans_for_all_programs_verify_clean() {
    let n = 12;
    let t = sample(n, 9);
    let sv = SparseVec::from_pairs(n, &[(1, 2.0), (5, -1.0), (9, 3.5)]);
    let planner = Planner::default();
    let mut checked = 0usize;

    assert!(sv.validate().is_empty(), "{:?}", sv.validate());
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        assert!(a.validate().is_empty(), "{kind}: {:?}", a.validate());
        let b = SparseMatrix::from_triplets(kind, &t);
        let dense_multi = DenseMatrix::zeros(n, 3).meta();
        let cases: Vec<(&str, bernoulli::LoopNest, QueryMeta)> = vec![
            (
                "matvec",
                programs::matvec(),
                QueryMeta::new()
                    .mat(MAT_A, a.meta())
                    .vec(VEC_X, VecMeta::dense(n))
                    .vec(VEC_Y, VecMeta::dense(n)),
            ),
            (
                "matvec_transposed",
                programs::matvec_transposed(),
                QueryMeta::new()
                    .mat(MAT_A, a.meta())
                    .vec(VEC_X, VecMeta::dense(n))
                    .vec(VEC_Y, VecMeta::dense(n)),
            ),
            (
                "matmat",
                programs::matmat(),
                QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, b.meta()),
            ),
            (
                "matvec_multi",
                programs::matvec_multi(),
                QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, dense_multi),
            ),
            (
                "mat_dot",
                programs::mat_dot(),
                QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, b.meta()),
            ),
            (
                "vec_dot_sparse_sparse",
                programs::vec_dot(true, true),
                QueryMeta::new().vec(VEC_X, sv.meta()).vec(VEC_Y, sv.meta()),
            ),
            (
                "vec_dot_sparse_dense",
                programs::vec_dot(true, false),
                QueryMeta::new().vec(VEC_X, sv.meta()).vec(VEC_Y, VecMeta::dense(n)),
            ),
            (
                "matvec_row_permuted",
                programs::matvec_row_permuted(),
                QueryMeta::new()
                    .mat(MAT_A, a.meta())
                    .vec(VEC_X, VecMeta::dense(n))
                    .vec(VEC_Y, VecMeta::dense(n))
                    .perm(PERM_P, n),
            ),
        ];
        for (name, nest, meta) in cases {
            let q = extract_query(&nest).unwrap_or_else(|e| panic!("{name}: {e}"));
            let plans = planner
                .plan_all(&q, &meta)
                .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
            assert!(!plans.is_empty(), "{name} on {kind}: no plans");
            for p in &plans {
                let diags = verify_plan(p, &q, &meta);
                assert!(
                    diags.iter().all(|d| !d.is_error()),
                    "{name} on {kind}, plan `{}`: {diags:?}",
                    p.shape()
                );
                checked += 1;
            }
        }
    }
    // Sanity: the sweep actually covered a meaningful plan population.
    assert!(checked > 100, "only {checked} plans verified");
}

/// The sweep nest is loop-carried, so DO-ANY must refuse it — that
/// refusal is why the wavefront pass exists. That pass then certifies
/// the lower triangle of every built-in pattern with a schedule the
/// independent BA4x verifier accepts, refuses a pattern with both
/// triangles, and certifies Gauss-Seidel's relation on a full operand
/// while refusing a forged one-wave schedule for it.
#[test]
fn the_sweep_nest_is_refused_and_the_wavefront_pass_certifies_only_sound_schedules() {
    assert!(!check_do_any(&programs::sptrsv()).is_parallel_safe());
    let lower = |t: &Triplets| {
        let kept: Vec<_> = t.canonicalize().entries().iter().copied().filter(|&(r, c, _)| c <= r).collect();
        Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &kept))
    };
    let chain: Vec<_> = (0..16usize).map(|i| (i, i, 2.0)).chain((1..16).map(|i| (i, i - 1, -1.0))).collect();
    for (name, m) in [
        ("grid2d_16x16", lower(&grid2d_5pt(16, 16))),
        ("grid3d_6x6x6", lower(&grid3d_7pt(6, 6, 6))),
        ("random", lower(&sample(16, 42))),
        ("chain", lower(&Triplets::from_entries(16, 16, &chain))),
    ] {
        let r = analyze_wavefront(m.nrows(), m.rowptr(), m.colind(), Triangle::Lower);
        assert!(r.certificate.is_some() && r.diagnostics.is_empty(), "{name}: {:?}", r.diagnostics);
        let sched = r.schedule.unwrap();
        let diags = verify_level_schedule(m.nrows(), m.rowptr(), m.colind(), Triangle::Lower, &sched);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
    let full = Csr::from_triplets(&grid2d_5pt(8, 8));
    assert!(!analyze_wavefront(full.nrows(), full.rowptr(), full.colind(), Triangle::Lower).is_parallel_safe());
    for (name, m) in [("grid2d_8x8", full), ("random", Csr::from_triplets(&sample(16, 42)))] {
        let (n, rp, ci, digest) = (m.nrows(), m.rowptr(), m.colind(), m.index_digest());
        certify_wavefront(n, rp, ci, digest, Relation::GaussSeidel, None).unwrap_or_else(|d| panic!("{name}: {d:?}"));
        let one_wave = LevelSchedule::from_raw_unchecked(n, (0..n).collect(), vec![0, n]);
        assert!(certify_wavefront(n, rp, ci, digest, Relation::GaussSeidel, Some(one_wave)).is_err(), "{name}");
    }
}
