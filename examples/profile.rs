//! The observability driver: one run that exercises every telemetry
//! stream and emits the stable JSON profile.
//!
//! ```text
//! cargo run --release --example profile [OUT.json]
//! ```
//!
//! Prints the `bernoulli.profile/v1` report to stdout (and to
//! `OUT.json` when given). Exits nonzero if the report fails
//! structural validation or any of the seven streams — plan
//! provenance, strategy decisions, kernel counters, SPMD traffic,
//! solver traces, calibration measurements, spans — came back empty;
//! `scripts/ci.sh` runs this as its schema gate, so a stream going
//! silent fails CI rather than silently producing undiffable
//! profiles.

use bernoulli::engines::{SpmmEngine, SpmvEngine, SpmvMultiEngine};
use bernoulli::spmd::{fragment_matrix, to_mixed_spec, CompiledMixed};
use bernoulli_formats::{gen, Csr, ExecCtx, FormatKind, SparseMatrix};
use bernoulli_obs::Obs;
use bernoulli_solvers::cg::{cg, cg_parallel, CgOptions};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_spmd::dist::{BlockDist, Distribution};
use bernoulli_spmd::machine::Machine;

fn main() {
    let obs = Obs::enabled();
    let t = gen::grid2d_5pt(40, 40);
    let n = t.nrows();

    // Plan provenance, strategy decisions and kernel counters: SpMV
    // engines over three representative formats, in both the serial
    // and the thresholded-parallel configuration.
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.037).sin()).collect();
    for kind in [FormatKind::Csr, FormatKind::Ccs, FormatKind::Coordinate] {
        let a = SparseMatrix::from_triplets(kind, &t);
        for ctx in [
            ExecCtx::serial().instrument(obs.clone()),
            ExecCtx::with_threads(2).threshold(1).instrument(obs.clone()),
        ] {
            let eng = SpmvEngine::compile_in(&a, &ctx).expect("spmv compile");
            let mut y = vec![0.0; n];
            eng.run(&a, &x, &mut y).expect("spmv run");
        }
    }

    // SpMM (Gustavson) and the skinny multivector product.
    let ts = gen::grid2d_5pt(16, 16);
    let ns = ts.nrows();
    let s = SparseMatrix::from_triplets(FormatKind::Csr, &ts);
    let serial_obs = ExecCtx::serial().instrument(obs.clone());
    let spmm = SpmmEngine::compile_in(&s, &s, &serial_obs).expect("spmm compile");
    let mut c = vec![0.0; ns * ns];
    spmm.run(&s, &s, &mut c).expect("spmm run");
    let a_csr = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let k = 4;
    let multi =
        SpmvMultiEngine::compile_in(&a_csr, k, &serial_obs).expect("multivector compile");
    let xm = vec![1.0; n * k];
    let mut ym = vec![0.0; n * k];
    multi.run(&a_csr, &xm, &mut ym).expect("multivector run");

    // Solver convergence traces (and their spans): CG on the SPD grid
    // Laplacian.
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let csr = Csr::from_triplets(&t);
    let mut xs = vec![0.0; n];
    let cg_res =
        cg(&csr, &pc, &b, &mut xs, CgOptions::default(), &serial_obs).expect("cg solve");

    // SPMD traffic: a distributed CG (block distribution, the compiled
    // mixed spec's inspector and executor) timed and counted per rank.
    const P: usize = 4;
    let dist = BlockDist::new(n, P);
    let frags = fragment_matrix(&t, &dist);
    Machine::run_in(P, None, "cg.dist", &serial_obs, |ctx| {
        let me = ctx.rank();
        let owned = dist.owned_globals(me);
        let spec = to_mixed_spec(&frags[me], |g| {
            let (p, l) = dist.owner(g);
            (p == me).then_some(l)
        });
        let mut eng = CompiledMixed::inspect(ctx, &spec, &dist);
        let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
        let mut x_local = vec![0.0; owned.len()];
        let res = cg_parallel(
            ctx,
            |ctx, p_local, out| eng.execute(ctx, p_local, out),
            &pc.restrict(&owned),
            &b_local,
            &mut x_local,
            CgOptions { max_iters: 100, rel_tol: 1e-8 },
        );
        (res.iters, res.converged)
    });

    // Calibration measurements: time the SpMV candidate tiers on the
    // grid operand, recording the cost model's estimate next to each
    // measurement (the tune crate's calibration mode).
    bernoulli_tune::calibrate_spmv(&a_csr, &serial_obs, 3).expect("calibration");

    let report = obs.report();
    if let Err(e) = report.validate_complete() {
        eprintln!("profile: report failed validation: {e}");
        std::process::exit(2);
    }
    let json = report.to_json();
    if let Some(path) = std::env::args().nth(1) {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("profile: cannot write {path}: {e}");
            std::process::exit(3);
        }
    }
    eprintln!(
        "profile: {} plans, {} strategies, {} kernels, {} traffic phases, {} solver traces, \
         {} calibrations (cg {} iters conv={})",
        report.plans.len(),
        report.strategies.len(),
        report.kernels.len(),
        report.traffic.len(),
        report.solvers.len(),
        report.calibrations.len(),
        cg_res.iters,
        cg_res.converged,
    );
    println!("{json}");
}
