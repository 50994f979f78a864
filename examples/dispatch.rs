//! The dispatch-registry driver: a small matrix population, one
//! [`Dispatcher`], and a mixed op stream through the single `submit`
//! front door — the unified pipeline's answer to a long-lived solver
//! service.
//!
//! ```text
//! cargo run --release --example dispatch [PROFILE.json]
//! ```
//!
//! Registers six matrices (two pairs share a sparsity structure under
//! different values — the plan cache keys on structure, so the second
//! member of each pair is warm from its very first request), then
//! pushes ~200 requests mixing classical SpMV, multi-RHS SpMV,
//! min-plus SpMV (single-source shortest-path relaxation), lower
//! triangular solves and SymGS sweeps. Every compile goes through the
//! shared structure-keyed plan cache; the driver demands a warm-cache
//! hit rate of at least 90% and bitwise-stable replay across rounds,
//! and the obs report must validate under `bernoulli.profile/v2` with
//! per-op `dispatch.<op>` latency spans and live `strategies`
//! provenance. Exits nonzero on any failed expectation; `scripts/ci.sh`
//! runs this as the dispatch smoke gate.

use bernoulli::pipeline::OpSpec;
use bernoulli::TriangularOp;
use bernoulli_formats::{gen, ExecCtx, Triplets};
use bernoulli_obs::Obs;
use bernoulli_tune::Dispatcher;

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("dispatch: {msg}");
    std::process::exit(code);
}

/// Same pattern, different numbers: structurally identical to `t`, so
/// it lands on the same cache line as `t` does.
fn perturb(t: &Triplets, scale: f64) -> Triplets {
    let mut out = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.canonicalize().entries() {
        out.push(r, c, v * scale + if r == c { 0.5 } else { 0.0 });
    }
    out
}

fn lower_triangle(t: &Triplets) -> Triplets {
    let mut lt = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.canonicalize().entries() {
        if c < r {
            lt.push(r, c, v);
        } else if c == r {
            lt.push(r, c, 4.0);
        }
    }
    lt
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let obs = Obs::enabled();
    let ctx = ExecCtx::with_threads(2)
        .oversubscribe(true)
        .threshold(1)
        .fast_kernels(true)
        .instrument(obs.clone());

    // ---- The population: six matrices, two structure-sharing pairs.
    let grid_t = gen::grid2d_9pt(20, 20); //  400 rows, 9-point stencil
    let small_t = gen::grid2d_5pt(16, 16); //  256 rows, 5-point stencil
    let sym_t = gen::grid3d_7pt(6, 6, 6); //  216 rows, 7-point operator
    let tri_t = lower_triangle(&sym_t);

    let mut d = Dispatcher::new(ctx);
    let m0 = d.register(&grid_t);
    let m1 = d.register(&perturb(&grid_t, 1.75)); // same structure as m0
    let m2 = d.register(&small_t);
    let sym = d.register(&sym_t);
    let l0 = d.register(&tri_t);
    let l1 = d.register(&perturb(&tri_t, 0.6)); // same structure as l0

    let nrows = |id| match d.matrix(id) {
        Ok(m) => m.nrows(),
        Err(e) => fail(2, &format!("registered matrix lookup: {e}")),
    };
    let (n_grid, n_small, n_sym) = (nrows(m0), nrows(m2), nrows(sym));
    let x_grid: Vec<f64> = (0..n_grid).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let x_small: Vec<f64> = (0..n_small).map(|i| (i as f64 * 0.31).sin()).collect();
    let x_multi: Vec<f64> = (0..n_grid * 2).map(|i| (i as f64 * 0.11).cos()).collect();
    let dist: Vec<f64> = (0..n_grid).map(|i| if i == 0 { 0.0 } else { f64::INFINITY }).collect();
    let b_sym: Vec<f64> = (0..n_sym).map(|i| ((i * 5 + 2) % 11) as f64 - 5.0).collect();

    let lower = OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } };
    let rounds = 22;
    let mut first: Vec<Vec<f64>> = Vec::new();

    // ---- The stream: nine requests per round, 198 total. Round 0 pays
    // the cold planner/wavefront cost once per (structure, op) pair;
    // every later round must replay warm and bitwise-identically.
    for round in 0..rounds {
        let outs = vec![
            d.submit(m0, OpSpec::Spmv, &x_grid),
            d.submit(m1, OpSpec::Spmv, &x_grid),
            d.submit(m2, OpSpec::Spmv, &x_small),
            d.submit(m0, OpSpec::SpmvMulti { k: 2 }, &x_multi),
            d.submit(m0, OpSpec::SemiringSpmv { algebra: "min_plus" }, &dist),
            d.submit(l0, lower, &b_sym),
            d.submit(l1, lower, &b_sym),
            d.submit(sym, OpSpec::Symgs, &b_sym),
            d.submit(m2, OpSpec::Symgs, &x_small),
        ];
        let outs: Vec<Vec<f64>> = outs
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|e| fail(2, &format!("request {i} round {round}: {e}"))))
            .collect();
        if round == 0 {
            first = outs;
        } else {
            for (i, y) in outs.iter().enumerate() {
                if bits(y) != bits(&first[i]) {
                    fail(4, &format!("request {i} diverged on round {round}: warm replay is not bitwise-identical"));
                }
            }
        }
    }

    // ---- Correctness spot checks against straight-off-the-triplets
    // references.
    let mut want = vec![0.0; n_grid];
    grid_t.matvec_acc(&x_grid, &mut want);
    if first[0].iter().zip(&want).any(|(p, q)| (p - q).abs() > 1e-9) {
        fail(4, "dispatched spmv diverged from the reference matvec");
    }
    // One relaxation step from dist = (0, ∞, …): row i lands on
    // a(i,0) + 0 when node i sees node 0, and stays at ∞ otherwise.
    let mut want_mp = vec![f64::INFINITY; n_grid];
    for &(r, c, v) in grid_t.canonicalize().entries() {
        let cand = v + dist[c];
        if cand < want_mp[r] {
            want_mp[r] = cand;
        }
    }
    let mp_bad = first[4].iter().zip(&want_mp).any(|(p, q)| {
        if q.is_infinite() { p != q } else { (p - q).abs() > 1e-9 }
    });
    if mp_bad {
        fail(4, "min-plus relaxation diverged from the reference");
    }

    // ---- The gates: warm-cache hit rate and the profile report.
    let stats = d.stats();
    let hit_rate = stats.hit_rate();
    if stats.submitted != rounds * 9 {
        fail(4, &format!("expected {} requests, dispatched {}", rounds * 9, stats.submitted));
    }
    if hit_rate < 0.90 {
        fail(
            4,
            &format!(
                "warm-cache hit rate {:.1}% < 90% ({} hits / {} misses; entries: {})",
                hit_rate * 100.0,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.entries(),
            ),
        );
    }

    let report = obs.report();
    if let Err(e) = report.validate() {
        fail(2, &format!("report failed validation: {e}"));
    }
    if report.strategies.is_empty() {
        fail(4, "compiles must leave strategy provenance in the report");
    }
    for op in ["spmv", "spmv.min_plus", "spmv_multi", "sptrsv.lower", "symgs"] {
        let key = format!("dispatch.{op}");
        match report.spans.get(&key) {
            Some(s) if s.calls > 0 => {}
            _ => fail(4, &format!("no latency span for {key}")),
        }
    }

    if let Some(path) = std::env::args().nth(1) {
        if let Err(e) = std::fs::write(&path, format!("{}\n", report.to_json())) {
            fail(3, &format!("cannot write {path}: {e}"));
        }
    }

    eprintln!(
        "dispatch: {} requests over {} matrices, {:.1}% warm ({} cold compiles); per-op mean latency:",
        stats.submitted,
        6,
        hit_rate * 100.0,
        stats.cache.misses,
    );
    for (name, s) in &report.spans {
        if let Some(op) = name.strip_prefix("dispatch.") {
            eprintln!(
                "  {:<12} {:>4} calls  {:>9.1} us/op",
                op,
                s.calls,
                s.total_ns as f64 / s.calls as f64 / 1e3,
            );
        }
    }
}
