//! The `Dispatcher` front door against textbook oracles and across a
//! save/load of its plan cache: every vector op it serves computes what
//! its name says, verdicts are keyed by structure and op (not by values
//! or by registration), and a dispatcher seeded with a reloaded cache
//! starts warm and answers with the bits of the one that saved it.

use bernoulli::pipeline::OpSpec;
use bernoulli::TriangularOp;
use bernoulli_formats::gen::{grid2d_5pt, grid3d_7pt};
use bernoulli_formats::{ExecCtx, Triplets};
use bernoulli_obs::Obs;
use bernoulli_tune::{DispatchStats, Dispatcher, PlanCache};

const LOWER: OpSpec = OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } };
const UPPER: OpSpec = OpSpec::Sptrsv { op: TriangularOp::Upper { unit_diag: false } };

fn dense(t: &Triplets) -> Vec<Vec<f64>> {
    let mut a = vec![vec![0.0; t.ncols()]; t.nrows()];
    for &(r, c, v) in t.entries() {
        a[r][c] += v;
    }
    a
}

fn triangle(t: &Triplets, lower: bool) -> Triplets {
    let mut out = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.canonicalize().entries() {
        if (lower && c <= r) || (!lower && c >= r) {
            out.push(r, c, v);
        }
    }
    out
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i as f64) * 0.29).cos()).collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g == w || (g - w).abs() <= 1e-12 * w.abs().max(1.0), "{what}: entry {k}: {g} vs {w}");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The contexts the dispatcher is exercised under: the serial default,
/// a real pool with a zero size gate, so the parallel and wavefront
/// tiers arm on these small operands, and that pool again on the fast
/// tier with telemetry on.
fn contexts() -> [ExecCtx; 3] {
    let pool = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    [ExecCtx::serial(), pool.clone(), pool.fast_kernels(true).instrument(Obs::enabled())]
}

#[test]
fn the_multiply_family_answers_match_the_dense_oracle() {
    let t = grid2d_5pt(7, 6);
    let n = t.nrows();
    let a = dense(&t);
    let x = rhs(n);
    let want: Vec<f64> = a.iter().map(|row| row.iter().zip(&x).map(|(v, xv)| v * xv).sum()).collect();
    // (min, +): the empty row-minimum is +inf, and only stored entries
    // take part. One relaxation step from the distances (0, inf, ...)
    // leaves every row that does not see node 0 at +inf.
    let dist: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { f64::INFINITY }).collect();
    let want_min = |x: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| {
                t.entries()
                    .iter()
                    .filter(|e| e.0 == i)
                    .map(|&(_, j, v)| v + x[j])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let k = 3;
    let xs: Vec<f64> = (0..n * k).map(|i| ((i as f64) * 0.11).sin()).collect();
    for ctx in contexts() {
        let mut d = Dispatcher::new(ctx);
        let id = d.register(&t);
        assert_close(&d.submit(id, OpSpec::Spmv, &x).unwrap(), &want, "A·x");
        for x in [&x, &dist] {
            let got = d.submit(id, OpSpec::SemiringSpmv { algebra: "min_plus" }, x).unwrap();
            assert_close(&got, &want_min(x), "A ⊗ x over (min, +)");
        }
        let ys = d.submit(id, OpSpec::SpmvMulti { k }, &xs).unwrap();
        for c in 0..k {
            let col: Vec<f64> = (0..n).map(|j| xs[j * k + c]).collect();
            let want_c: Vec<f64> =
                a.iter().map(|row| row.iter().zip(&col).map(|(v, xv)| v * xv).sum()).collect();
            let got_c: Vec<f64> = (0..n).map(|i| ys[i * k + c]).collect();
            assert_close(&got_c, &want_c, &format!("A·X column {c}"));
        }
    }
}

#[test]
fn the_triangular_solves_answer_the_substitution_oracle() {
    let t = grid3d_7pt(4, 4, 3);
    let n = t.nrows();
    let b = rhs(n);
    for ctx in contexts() {
        let mut d = Dispatcher::new(ctx);
        for (spec, lower) in [(LOWER, true), (UPPER, false)] {
            let tri = triangle(&t, lower);
            let a = dense(&tri);
            let mut want = vec![0.0; n];
            let order: Vec<usize> = if lower { (0..n).collect() } else { (0..n).rev().collect() };
            for &i in &order {
                let s: f64 = (0..n).filter(|&j| j != i).map(|j| a[i][j] * want[j]).sum();
                want[i] = (b[i] - s) / a[i][i];
            }
            let id = d.register(&tri);
            assert_close(&d.submit(id, spec, &b).unwrap(), &want, &format!("{spec:?}"));
        }
    }
}

#[test]
fn a_symgs_request_is_one_symmetric_gauss_seidel_sweep_from_zero() {
    let t = grid2d_5pt(6, 6);
    let n = t.nrows();
    let a = dense(&t);
    let b = rhs(n);
    let mut want = vec![0.0; n];
    let relax = |x: &mut Vec<f64>, i: usize| {
        let s: f64 = (0..n).filter(|&j| j != i).map(|j| a[i][j] * x[j]).sum();
        x[i] = (b[i] - s) / a[i][i];
    };
    for i in 0..n {
        relax(&mut want, i);
    }
    for i in (0..n).rev() {
        relax(&mut want, i);
    }
    for ctx in contexts() {
        let mut d = Dispatcher::new(ctx);
        let id = d.register(&t);
        assert_close(&d.submit(id, OpSpec::Symgs, &b).unwrap(), &want, "SymGS");
    }
}

#[test]
fn same_pattern_operands_share_a_verdict_and_keep_their_own_values() {
    let t = grid2d_5pt(6, 5);
    let n = t.nrows();
    let mut scaled = Triplets::new(n, n);
    for &(r, c, v) in t.entries() {
        scaled.push(r, c, if r == c { 3.0 * v } else { -0.5 * v });
    }
    let x = rhs(n);
    for ctx in contexts() {
        let mut d = Dispatcher::new(ctx);
        let (first, second) = (d.register(&t), d.register(&scaled));
        let y1 = d.submit(first, OpSpec::Spmv, &x).unwrap();
        let y2 = d.submit(second, OpSpec::Spmv, &x).unwrap();
        let s = d.stats().cache;
        assert_eq!((s.misses, s.hits, s.entries()), (1, 1, 1), "{s:?}");
        let (mut w1, mut w2) = (vec![0.0; n], vec![0.0; n]);
        t.matvec_acc(&x, &mut w1);
        scaled.matvec_acc(&x, &mut w2);
        assert_close(&y1, &w1, "first operand");
        assert_close(&y2, &w2, "second operand");
    }
}

/// Every (structure, op) pair is its own verdict. The wavefront ops
/// store only a compile that armed its level schedule: on the serial
/// context they re-derive their verdict every time, and on the pooled
/// one they replay like the multiply family.
#[test]
fn each_op_on_one_structure_is_its_own_cache_entry() {
    let t = grid2d_5pt(8, 8);
    let n = t.nrows();
    for (ctx, stored) in contexts().into_iter().zip([3u64, 6, 6]) {
        let mut d = Dispatcher::new(ctx);
        let (full, lower, upper) =
            (d.register(&t), d.register(&triangle(&t, true)), d.register(&triangle(&t, false)));
        let requests = [
            (full, OpSpec::Spmv, n),
            (full, OpSpec::SpmvMulti { k: 2 }, 2 * n),
            (full, OpSpec::SemiringSpmv { algebra: "min_plus" }, n),
            (full, OpSpec::Symgs, n),
            (lower, LOWER, n),
            (upper, UPPER, n),
        ];
        for round in 0..2u64 {
            for &(id, spec, len) in &requests {
                d.submit(id, spec, &vec![1.0; len]).unwrap();
            }
            let s = d.stats().cache;
            assert_eq!(s.entries() as u64, stored, "round {round}: {s:?}");
            assert_eq!(s.hits, round * stored, "round {round}: {s:?}");
            assert_eq!(s.misses, 6 + round * (6 - stored), "round {round}: {s:?}");
        }
        assert_eq!(d.stats().submitted, 12);
    }
}

#[test]
fn hit_rate_is_hits_over_compiles_and_zero_before_any() {
    assert_eq!(DispatchStats::default().hit_rate(), 0.0);
    let t = grid2d_5pt(4, 4);
    let mut d = Dispatcher::new(ExecCtx::serial());
    let id = d.register(&t);
    assert_eq!(d.stats().hit_rate(), 0.0);
    for _ in 0..4 {
        d.submit(id, OpSpec::Spmv, &rhs(16)).unwrap();
    }
    let s = d.stats();
    assert_eq!((s.submitted, s.cache.hits, s.cache.misses), (4, 3, 1));
    assert_eq!(s.hit_rate(), 0.75);
}

#[test]
fn a_dispatcher_over_a_reloaded_cache_starts_warm_with_the_same_bits() {
    let t = grid3d_7pt(5, 4, 4);
    let n = t.nrows();
    let (lower, b) = (triangle(&t, true), rhs(n));
    let specs = [OpSpec::Spmv, OpSpec::SemiringSpmv { algebra: "min_plus" }, OpSpec::Symgs];
    let dir = std::env::temp_dir().join("bernoulli_dispatcher_reload");
    std::fs::create_dir_all(&dir).unwrap();
    for (k, ctx) in contexts().into_iter().enumerate() {
        let path = dir.join(format!("cache{k}.json"));
        let mut cold = Dispatcher::new(ctx.clone());
        let (full_id, lower_id) = (cold.register(&t), cold.register(&lower));
        let mut answers: Vec<Vec<f64>> = specs.iter().map(|&s| cold.submit(full_id, s, &b).unwrap()).collect();
        answers.push(cold.submit(lower_id, LOWER, &b).unwrap());
        cold.cache().save(&path).unwrap();

        let mut warm = Dispatcher::with_cache(ctx.clone(), PlanCache::load(&path).unwrap());
        let (full_id, lower_id) = (warm.register(&t), warm.register(&lower));
        let mut again: Vec<Vec<f64>> = specs.iter().map(|&s| warm.submit(full_id, s, &b).unwrap()).collect();
        again.push(warm.submit(lower_id, LOWER, &b).unwrap());
        // Serially, the two wavefront requests stored nothing to replay.
        let s = warm.stats().cache;
        let expect = if k == 0 { (2, 2) } else { (0, 4) };
        assert_eq!((s.misses, s.hits), expect, "context {k}: {s:?}");
        for (i, (got, want)) in again.iter().zip(&answers).enumerate() {
            assert_eq!(bits(got), bits(want), "context {k}, request {i}");
        }
        // An instrumented context's cold compiles left plan provenance.
        let r = ctx.obs().report();
        r.validate().unwrap();
        assert_eq!(ctx.obs().is_enabled(), !r.plans.is_empty() && !r.strategies.is_empty(), "context {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registration_keeps_the_operand_exactly_as_csr() {
    let t = Triplets::from_entries(4, 6, &[(3, 5, 2.5), (0, 1, -1.0), (2, 2, 4.0), (0, 1, 0.5)]);
    let mut d = Dispatcher::new(ExecCtx::serial());
    let id = d.register(&t);
    let m = d.matrix(id).unwrap();
    assert_eq!(m.kind(), bernoulli_formats::FormatKind::Csr);
    assert_eq!((m.nrows(), m.ncols()), (4, 6));
    assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    // A rectangular operand serves the multiply family: y has nrows
    // entries for an x of ncols.
    let y = d.submit(id, OpSpec::Spmv, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    assert_eq!(y, vec![-1.0, 0.0, 12.0, 15.0]);
}

/// The dispatcher serves the classical and the min-plus algebra. A
/// request under any other — one the workspace compiles elsewhere
/// (`first_nonzero`) or a name nothing knows — is refused with its name
/// before it reaches the cache: nothing compiled, nothing counted, and
/// the next served request is the first.
#[test]
fn a_request_under_an_algebra_it_does_not_serve_is_refused_before_the_cache() {
    let mut d = Dispatcher::new(ExecCtx::serial());
    let id = d.register(&grid2d_5pt(4, 4));
    for algebra in ["first_nonzero", "max_times"] {
        match d.submit(id, OpSpec::SemiringSpmv { algebra }, &rhs(16)) {
            Err(bernoulli::RelError::Validation(m)) => assert!(m.contains(algebra), "{m}"),
            other => panic!("{algebra}: expected a Validation refusal, got {other:?}"),
        }
    }
    let s = d.stats();
    assert_eq!((s.submitted, s.cache.hits, s.cache.misses, s.cache.entries()), (0, 0, 0, 0));
    d.submit(id, OpSpec::SemiringSpmv { algebra: "min_plus" }, &rhs(16)).unwrap();
    let s = d.stats();
    assert_eq!((s.submitted, s.cache.misses, s.cache.entries()), (1, 1, 1));
}
