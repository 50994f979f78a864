//! The `bernoulli-analysis` lint driver: run all four static passes —
//! DO-ANY race checker, plan verifier, format-invariant sanitizer, and
//! the wavefront (DO-ACROSS) dependence pass with its independent
//! schedule verifier — over everything the repo builds in, and report
//! per-pass counts.
//!
//! ```text
//! cargo run --release --example lint
//! ```
//!
//! Exits nonzero if any built-in kernel, plan, or format produces an
//! error-severity finding; CI runs this as the "zero false positives"
//! acceptance gate.

use bernoulli::ast::programs;
use bernoulli::lower::extract_query;
use bernoulli::LoopNest;
use bernoulli_analysis::diag::{codes, Diagnostic};
use bernoulli_analysis::plan_verify::verify_plan;
use bernoulli_analysis::race::check_do_any;
use bernoulli_analysis::validate::Validate;
use bernoulli_analysis::wavefront::{
    analyze_wavefront, certify_wavefront, verify_level_schedule, LevelSchedule, Relation, Triangle,
};
use bernoulli_formats::{Csr, DenseMatrix, FormatKind, SparseMatrix, SparseVec, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta, VectorAccess};
use bernoulli_relational::ids::{MAT_A, MAT_B, PERM_P, VEC_X, VEC_Y};
use bernoulli_relational::planner::{Planner, QueryMeta};
use bernoulli_spmd::dist::BlockDist;
use bernoulli_spmd::{verify_comm_schedule, CommSchedule, Machine};

fn canned_programs() -> Vec<(&'static str, LoopNest)> {
    vec![
        ("matvec", programs::matvec()),
        ("matvec_transposed", programs::matvec_transposed()),
        ("matmat", programs::matmat()),
        ("matvec_multi", programs::matvec_multi()),
        ("mat_dot", programs::mat_dot()),
        ("vec_dot", programs::vec_dot(true, true)),
        ("matvec_row_permuted", programs::matvec_row_permuted()),
    ]
}

fn report(label: &str, diags: &[Diagnostic], errors: &mut usize) {
    for d in diags {
        println!("  {label}: {d}");
        if d.is_error() {
            *errors += 1;
        }
    }
}

fn main() {
    let mut errors = 0usize;
    let n = 16;
    let t = bernoulli_formats::gen::random_sparse(n, n, n * 3, 42);

    println!("== pass 1: DO-ANY race checker ({} kernels)", canned_programs().len());
    let mut certified = 0;
    for (name, nest) in canned_programs() {
        let r = check_do_any(&nest);
        report(name, &r.diagnostics, &mut errors);
        if let Some(c) = r.certificate {
            certified += 1;
            println!("  {name}: parallel-safe ({c:?})");
        }
    }
    println!("  {certified} kernels certified parallel-safe");

    println!("\n== pass 2: plan verifier (all plans, all programs, all formats)");
    let planner = Planner::default();
    let sv = SparseVec::from_pairs(n, &[(1, 2.0), (7, -1.0), (12, 3.5)]);
    let mut plans_checked = 0;
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let metas: Vec<(&str, LoopNest, QueryMeta)> = vec![
            (
                "matvec",
                programs::matvec(),
                QueryMeta::new()
                    .mat(MAT_A, a.meta())
                    .vec(VEC_X, VecMeta::dense(n))
                    .vec(VEC_Y, VecMeta::dense(n)),
            ),
            (
                "matmat",
                programs::matmat(),
                QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, a.meta()),
            ),
            (
                "matvec_multi",
                programs::matvec_multi(),
                QueryMeta::new()
                    .mat(MAT_A, a.meta())
                    .mat(MAT_B, DenseMatrix::zeros(n, 4).meta()),
            ),
            (
                "vec_dot",
                programs::vec_dot(true, true),
                QueryMeta::new().vec(VEC_X, sv.meta()).vec(VEC_Y, sv.meta()),
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
        for (name, nest, meta) in metas {
            let q = extract_query(&nest).expect("canned programs lower");
            match planner.plan_all(&q, &meta) {
                Ok(plans) => {
                    for p in &plans {
                        report(&format!("{name}/{kind}/{}", p.shape()), &verify_plan(p, &q, &meta), &mut errors);
                        plans_checked += 1;
                    }
                }
                Err(e) => {
                    println!("  {name}/{kind}: planning failed: {e}");
                    errors += 1;
                }
            }
        }
    }
    println!("  {plans_checked} plans verified");

    println!("\n== pass 3: format-invariant sanitizer");
    let mut formats_checked = 0;
    for kind in FormatKind::ALL {
        let m = SparseMatrix::from_triplets(kind, &t);
        report(&format!("{kind}"), &m.validate(), &mut errors);
        formats_checked += 1;
    }
    // The one storage type outside the SparseMatrix enum.
    report("SparseVec", &sv.validate(), &mut errors);
    formats_checked += 1;
    println!("  {formats_checked} formats validated");

    println!("\n== pass 3b: SPMD communication schedules");
    let d = BlockDist::new(24, 3);
    let out = Machine::run(3, |ctx| {
        let used: Vec<usize> = match ctx.rank() {
            0 => vec![10, 23],
            1 => vec![0, 20],
            _ => vec![7, 8],
        };
        CommSchedule::build_replicated(ctx, &d, &used)
    });
    for (r, s) in out.results.iter().enumerate() {
        report(&format!("proc{r}"), &verify_comm_schedule(s, 3), &mut errors);
    }
    println!("  {} schedules verified", out.results.len());

    println!("\n== pass 4: wavefront dependence analysis (DO-ACROSS)");
    // The sweep nest is DO-ANY-racy by nature — its refusal is the
    // *reason* the wavefront pass exists, so certification here would
    // be the bug.
    if check_do_any(&programs::sptrsv()).is_parallel_safe() {
        println!("  sptrsv: DO-ANY certified a loop-carried sweep nest");
        errors += 1;
    } else {
        println!("  sptrsv: DO-ANY refuses (loop-carried dependence) — as designed");
    }
    let lower_pattern = |t: &Triplets| -> Csr {
        let mut l = Triplets::new(t.nrows(), t.ncols());
        for &(r, c, v) in t.canonicalize().entries() {
            if c <= r {
                l.push(r, c, v);
            }
        }
        Csr::from_triplets(&l)
    };
    let chain = {
        let mut c = Triplets::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
        }
        Csr::from_triplets(&c)
    };
    let mut schedules_certified = 0;
    for (name, m) in [
        ("grid2d_16x16/lower", lower_pattern(&bernoulli_formats::gen::grid2d_5pt(16, 16))),
        ("grid3d_6x6x6/lower", lower_pattern(&bernoulli_formats::gen::grid3d_7pt(6, 6, 6))),
        ("random/lower", lower_pattern(&t)),
        ("chain/lower", chain),
    ] {
        let r = analyze_wavefront(m.nrows(), m.rowptr(), m.colind(), Triangle::Lower);
        report(name, &r.diagnostics, &mut errors);
        match (r.schedule, r.certificate) {
            (Some(sched), Some(cert)) => {
                // Never trust the pass's own word: re-verify the
                // schedule with the independent BA4x checker.
                let diags =
                    verify_level_schedule(m.nrows(), m.rowptr(), m.colind(), Triangle::Lower, &sched);
                report(name, &diags, &mut errors);
                schedules_certified += 1;
                println!(
                    "  {name}: certified — {} levels, max width {}, mean width {:.2}",
                    cert.levels(),
                    cert.max_level_width(),
                    cert.mean_level_width()
                );
            }
            _ => {
                println!("  {name}: no certificate for a triangular pattern");
                errors += 1;
            }
        }
    }
    // Adversarial probe: a symmetric stencil has both triangles, so
    // the Lower-orientation pass MUST refuse it — certifying it would
    // license a racy schedule.
    let full = Csr::from_triplets(&bernoulli_formats::gen::grid2d_5pt(8, 8));
    let adversarial = analyze_wavefront(full.nrows(), full.rowptr(), full.colind(), Triangle::Lower);
    if adversarial.is_parallel_safe() {
        println!("  grid2d_8x8/full: certified a NON-triangular pattern");
        errors += 1;
    } else {
        let code = adversarial
            .diagnostics
            .iter()
            .find(|d| d.is_error())
            .map(|d| d.code)
            .unwrap_or("??");
        println!("  grid2d_8x8/full: refused ({code}) — as designed");
    }
    // Gauss-Seidel reads its relation off the full operand, and the one
    // schedule certified for it serves both sweeps. A forged schedule —
    // every row in one wave — must be refused.
    for (name, m) in [("grid2d_8x8/gauss-seidel", &full), ("random/gauss-seidel", &Csr::from_triplets(&t))] {
        let (nr, rp, ci, digest) = (m.nrows(), m.rowptr(), m.colind(), m.index_digest());
        let cert = match certify_wavefront(nr, rp, ci, digest, Relation::GaussSeidel, None) {
            Ok((_, cert)) => cert,
            Err(diags) => {
                report(name, &diags, &mut errors);
                println!("  {name}: no certificate for a square pattern");
                errors += 1;
                continue;
            }
        };
        schedules_certified += 1;
        println!("  {name}: certified — {} levels, max width {}", cert.levels(), cert.max_level_width());
        let forged = LevelSchedule::from_raw_unchecked(nr, (0..nr).collect(), vec![0, nr]);
        match certify_wavefront(nr, rp, ci, digest, Relation::GaussSeidel, Some(forged)) {
            Err(diags) => println!("  {name}: one-wave forgery refused ({}) — as designed", diags[0].code),
            Ok(_) => {
                println!("  {name}: certified a forged one-wave schedule");
                errors += 1;
            }
        }
    }
    println!("  {schedules_certified} wavefront schedules certified and independently verified");

    println!("\n== diagnostic codes");
    for (code, summary) in codes::ALL {
        println!("  {code}  {summary}");
    }

    if errors > 0 {
        println!("\nlint: {errors} error(s)");
        std::process::exit(1);
    }
    println!(
        "\nlint: clean ({certified} kernels, {plans_checked} plans, {formats_checked} formats, \
         {schedules_certified} wavefront schedules)"
    );
}
