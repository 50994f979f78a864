//! The plan-cache driver: cold plan + persist, then reload and replay
//! warm — the SpComp "compile once per structure" loop as a runnable
//! demo and CI gate.
//!
//! ```text
//! cargo run --release --example plancache [CACHE.json [PROFILE.json]]
//! ```
//!
//! Phase 1 (cold) compiles SpMV/SpTRSV/SymGS engines against fresh
//! structures and saves the cache. Phase 2 simulates a process
//! restart: it reloads the cache from disk, regenerates the same
//! matrices, and demands that every compile is a warm hit replaying
//! the persisted verdicts, that every warm engine computes what the
//! uncached reference computes, and that the obs report validates
//! under `bernoulli.profile/v2`. Exits nonzero on any failed
//! expectation; `scripts/ci.sh` runs this as the plan-cache smoke gate.

use bernoulli_formats::{gen, Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_obs::Obs;
use bernoulli_tune::{structure_key, PlanCache, SCHEMA};
use bernoulli::{SptrsvEngine, SymGsEngine, TriangularOp};
use std::time::Instant;

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("plancache: {msg}");
    std::process::exit(code);
}

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

fn main() {
    let cache_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| {
            std::env::temp_dir()
                .join("bernoulli_plancache_example.json")
                .to_string_lossy()
                .into_owned()
        });
    let _ = std::fs::remove_file(&cache_path);

    let obs = Obs::enabled();
    let serial = ExecCtx::serial().fast_kernels(true).instrument(obs.clone());
    let par = ExecCtx::with_threads(2)
        .oversubscribe(true)
        .threshold(1)
        .instrument(obs.clone());

    let spmv_t = gen::grid2d_9pt(30, 30);
    let tri_t = gen::grid3d_7pt(8, 8, 8);

    // ---- Phase 1: cold. Full planner search and wavefront analysis,
    // then persist the verdicts.
    let cache = PlanCache::new();
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &spmv_t);
    let l = lower_triangle(&tri_t);
    let sym = Csr::from_triplets(&tri_t);
    let op = TriangularOp::Lower { unit_diag: false };

    let t0 = Instant::now();
    let cold_spmv = cache.spmv_engine(&a, &serial).unwrap_or_else(|e| {
        fail(2, &format!("cold spmv compile failed: {e}"));
    });
    cache
        .sptrsv_engine(&l, op, &par)
        .unwrap_or_else(|e| fail(2, &format!("cold sptrsv compile failed: {e}")));
    cache
        .symgs_engine(&sym, &par)
        .unwrap_or_else(|e| fail(2, &format!("cold symgs compile failed: {e}")));
    let cold_ns = t0.elapsed().as_nanos();

    println!(
        "cold: spmv tier={} strategy={:?} on {}",
        cold_spmv.tier(),
        cold_spmv.strategy(),
        structure_key(&a),
    );

    if let Err(e) = cache.save(&cache_path) {
        fail(3, &format!("cannot write {cache_path}: {e}"));
    }

    // ---- Phase 2: restart. Reload the cache, regenerate the operands
    // from scratch, and replay warm.
    let reloaded = match PlanCache::load(&cache_path) {
        Ok(c) => c,
        Err(e) => fail(3, &format!("cannot reload {cache_path}: {e}")),
    };
    if reloaded.is_empty() {
        fail(4, "reloaded cache is empty — schema or persistence regression");
    }
    let a2 = SparseMatrix::from_triplets(FormatKind::Csr, &gen::grid2d_9pt(30, 30));
    let l2 = lower_triangle(&gen::grid3d_7pt(8, 8, 8));
    let sym2 = Csr::from_triplets(&gen::grid3d_7pt(8, 8, 8));

    let t1 = Instant::now();
    let warm_spmv = reloaded
        .spmv_engine(&a2, &serial)
        .unwrap_or_else(|e| fail(2, &format!("warm spmv compile failed: {e}")));
    let warm_tri = reloaded
        .sptrsv_engine(&l2, op, &par)
        .unwrap_or_else(|e| fail(2, &format!("warm sptrsv compile failed: {e}")));
    let warm_gs = reloaded
        .symgs_engine(&sym2, &par)
        .unwrap_or_else(|e| fail(2, &format!("warm symgs compile failed: {e}")));
    let warm_ns = t1.elapsed().as_nanos();

    let stats = reloaded.stats();
    if stats.hits != 3 || stats.misses != 0 {
        fail(
            4,
            &format!(
                "expected 3 warm hits and 0 misses after reload, got {} hits {} misses",
                stats.hits, stats.misses
            ),
        );
    }

    // The warm engines actually compute: one application each, checked
    // against an uncached reference — the straight-off-the-triplets
    // matvec for SpMV, a compile that bypasses the cache (bit for bit)
    // for the two sweeps.
    let n = a2.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    warm_spmv.run(&a2, &x, &mut y).unwrap_or_else(|e| fail(2, &format!("warm spmv run: {e}")));
    let mut want = vec![0.0; n];
    gen::grid2d_9pt(30, 30).matvec_acc(&x, &mut want);
    if y.iter().zip(&want).any(|(p, q)| (p - q).abs() > 1e-9) {
        fail(4, "warm spmv replay diverged from the reference matvec");
    }
    let nt = l2.nrows();
    let b: Vec<f64> = (0..nt).map(|i| ((i * 5 + 2) % 11) as f64 - 5.0).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (mut xs, mut xs_ref) = (vec![0.0; nt], vec![0.0; nt]);
    warm_tri.run(&l2, &b, &mut xs).unwrap_or_else(|e| fail(2, &format!("warm sptrsv run: {e}")));
    SptrsvEngine::compile_in(&l2, op, &par)
        .and_then(|e| e.run(&l2, &b, &mut xs_ref))
        .unwrap_or_else(|e| fail(2, &format!("uncached sptrsv: {e}")));
    if bits(&xs) != bits(&xs_ref) {
        fail(4, "warm sptrsv replay diverged from the uncached solve");
    }
    let (mut zs, mut zs_ref) = (vec![0.0; nt], vec![0.0; nt]);
    warm_gs
        .apply_ssor(&sym2, 1.0, &b, &mut zs)
        .unwrap_or_else(|e| fail(2, &format!("warm symgs run: {e}")));
    SymGsEngine::compile_in(&sym2, &par)
        .and_then(|e| e.apply_ssor(&sym2, 1.0, &b, &mut zs_ref))
        .unwrap_or_else(|e| fail(2, &format!("uncached symgs: {e}")));
    if bits(&zs) != bits(&zs_ref) {
        fail(4, "warm symgs replay diverged from the uncached sweep");
    }

    // ---- Report gate: a valid bernoulli.profile/v2 report carrying the
    // cold compiles' plan provenance.
    let report = obs.report();
    if let Err(e) = report.validate() {
        fail(2, &format!("report failed validation: {e}"));
    }
    if report.plans.is_empty() || report.strategies.is_empty() {
        fail(4, "cold compiles must leave plan provenance in the report");
    }
    if structure_key(&a2) != structure_key(&a) {
        fail(4, "regenerated operand keys differently — structure hash instability");
    }

    let json = report.to_json();
    if let Some(path) = std::env::args().nth(2) {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            fail(3, &format!("cannot write {path}: {e}"));
        }
    }
    let _ = std::fs::remove_file(&cache_path);
    eprintln!(
        "plancache: schema {SCHEMA}; cold plan {:.2} ms, warm replay {:.3} ms \
         ({} entries: {} spmv, {} sptrsv, {} symgs); warm tiers: spmv={} sptrsv={:?} symgs={:?}",
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
        stats.entries(),
        stats.spmv_entries,
        stats.sptrsv_entries,
        stats.symgs_entries,
        warm_spmv.tier(),
        warm_tri.strategy(),
        warm_gs.strategy(),
    );
}
