//! Integration tests for the structure-keyed plan cache
//! (`bernoulli-tune`): structure-key properties across random matrices
//! and the Table 1 suite, persistence round-trips, schema
//! invalidation, and warm-replay equivalence through a full
//! preconditioned solve.

use bernoulli_formats::gen::{table1_suite, Scale};
use bernoulli_formats::{Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::{cg, CgOptions, Preconditioner, SymGs};
use bernoulli_tune::{structure_key, structure_key_csr, PlanCache, StructureKey, SCHEMA};
use proptest::prelude::*;

/// Strategy: a small random matrix as triplets.
fn arb_matrix() -> impl Strategy<Value = Triplets> {
    (1usize..12, 1usize..12).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec(
            (0..nr, 0..nc, -100i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 4.0)),
            1..60,
        )
        .prop_map(move |entries| Triplets::from_entries(nr, nc, &entries))
    })
}

/// Rebuild `t` with every stored value mapped through `f`, keeping the
/// pattern byte-for-byte.
fn map_values(t: &Triplets, f: impl Fn(f64) -> f64) -> Triplets {
    let c = t.canonicalize();
    let mut out = Triplets::new(t.nrows(), t.ncols());
    for &(r, col, v) in c.entries() {
        out.push(r, col, f(v));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Value perturbation (a refactorization with the same pattern)
    /// never changes the key — in any format.
    #[test]
    fn structure_key_is_value_invariant(t in arb_matrix()) {
        let t2 = map_values(&t, |v| v * 2.5 - 7.0);
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let b = SparseMatrix::from_triplets(kind, &t2);
            prop_assert_eq!(structure_key(&a), structure_key(&b), "format {}", kind);
        }
    }

    /// Dropping one pattern position changes the key of every format
    /// that stores a pattern; a dense matrix stores every position, so
    /// its key is its dimensions.
    #[test]
    fn structure_key_is_pattern_sensitive(t in arb_matrix(), pick in 0usize..4096) {
        let c = t.canonicalize();
        prop_assume!(c.entries().len() > 1);
        let drop = pick % c.entries().len();
        let mut t2 = Triplets::new(t.nrows(), t.ncols());
        for (i, &(r, col, v)) in c.entries().iter().enumerate() {
            if i != drop {
                t2.push(r, col, v);
            }
        }
        for kind in FormatKind::ALL {
            let a = structure_key(&SparseMatrix::from_triplets(kind, &c));
            let b = structure_key(&SparseMatrix::from_triplets(kind, &t2));
            prop_assert_eq!(a == b, kind == FormatKind::Dense, "format {}", kind);
        }
    }

    /// Through `from_triplets` the key is a pure function of the
    /// canonical pattern: assembly order and duplicate accumulation are
    /// invisible — in any format.
    #[test]
    fn structure_key_ignores_assembly_order(t in arb_matrix()) {
        let c = t.canonicalize();
        let mut reversed = Triplets::new(t.nrows(), t.ncols());
        for &(r, col, v) in c.entries().iter().rev() {
            // Split each entry into two triplets that sum back.
            reversed.push(r, col, v - 1.0);
            reversed.push(r, col, 1.0);
        }
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &c);
            let b = SparseMatrix::from_triplets(kind, &reversed);
            prop_assert_eq!(structure_key(&a), structure_key(&b), "format {}", kind);
        }
    }
}

#[test]
fn degenerate_and_rectangular_operands_key_apart_in_every_format() {
    // Empty (0×0, n×0, 0×n), all-empty-rows and rectangular operands:
    // every format keys them without panicking, and no two
    // (operand, format) pairs share a key.
    let rect = [(0, 5, 1.0), (1, 0, 2.0), (1, 3, 3.0), (3, 2, 4.0)];
    let operands = [
        Triplets::new(0, 0),
        Triplets::new(5, 0),
        Triplets::new(0, 5),
        Triplets::new(4, 4),
        Triplets::from_entries(4, 6, &rect),
        Triplets::from_entries(6, 4, &rect.map(|(r, c, v)| (c, r, v))),
    ];
    let mut seen: std::collections::HashMap<StructureKey, String> = Default::default();
    for t in &operands {
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, t);
            let label = format!("{}x{}/{}nz/{kind}", t.nrows(), t.ncols(), t.len());
            if let Some(prev) = seen.insert(structure_key(&a), label.clone()) {
                panic!("key collision: {label} vs {prev}");
            }
        }
        let csr = Csr::from_triplets(t);
        assert_eq!(structure_key_csr(&csr), structure_key(&SparseMatrix::Csr(csr.clone())));
    }
}

#[test]
fn no_collisions_across_the_table1_suite() {
    // Every suite structure, in every sparse format, keys uniquely —
    // and the hex spelling round-trips.
    let sparse = FormatKind::ALL.into_iter().filter(|&k| k != FormatKind::Dense);
    let mut seen: std::collections::HashMap<StructureKey, String> = Default::default();
    for s in table1_suite(Scale::Small) {
        for kind in sparse.clone() {
            let a = SparseMatrix::from_triplets(kind, &s.triplets);
            let k = structure_key(&a);
            assert_eq!(StructureKey::from_hex(&k.hex()), Some(k));
            let label = format!("{}/{kind}", s.name);
            if let Some(prev) = seen.insert(k, label.clone()) {
                panic!("key collision: {label} vs {prev} both map to {k}");
            }
        }
    }
    assert_eq!(seen.len(), 8 * 8);
}

#[test]
fn keys_are_stable_across_regeneration_and_persistence() {
    // Simulate a process restart: compile the suite into a cache, save,
    // reload, regenerate the matrices from scratch, and demand that
    // every recompile is a warm hit under the reloaded cache.
    let dir = std::env::temp_dir().join("bernoulli_plancache_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");

    let ctx = ExecCtx::serial().fast_kernels(true);
    let cache = PlanCache::new();
    for s in table1_suite(Scale::Small) {
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &s.triplets);
        cache.spmv_engine(&a, &ctx).unwrap();
    }
    assert_eq!(cache.stats().misses, 8);
    cache.save(&path).unwrap();

    let reloaded = PlanCache::load(&path).unwrap();
    assert_eq!(reloaded.stats().spmv_entries, 8);
    // Deterministic serialization survives the round trip.
    assert!(reloaded.to_json().contains(SCHEMA));
    assert_eq!(reloaded.to_json(), cache.to_json());

    for s in table1_suite(Scale::Small) {
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &s.triplets);
        reloaded.spmv_engine(&a, &ctx).unwrap();
    }
    let stats = reloaded.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (8, 0),
        "regenerated suite matrices must key identically after reload"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_pcg_solve_is_bitwise_identical_to_uncached() {
    // The acceptance bar: a repeat solve through the cache must be
    // bitwise identical to the uncached compile, preconditioner and
    // all — under the parallel context, where the cached wavefront
    // schedules actually arm the level-parallel sweeps.
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let t = bernoulli_formats::gen::grid2d_5pt(12, 12);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
    let opts = CgOptions { max_iters: 400, rel_tol: 1e-10 };

    let solve = |pre: &SymGs| {
        let mut x = vec![0.0; n];
        let res = cg(&a, pre, &b, &mut x, opts, &ctx).unwrap();
        (res.iters, res.converged, x)
    };

    let uncached = SymGs::new(Csr::from_triplets(&t), &ctx).unwrap();
    let (iters0, conv0, x0) = solve(&uncached);
    assert!(conv0);

    let cache = PlanCache::new();
    let cold = SymGs::with_engine_from(Csr::from_triplets(&t), 1.0, |m| {
        cache.symgs_engine(m, &ctx)
    })
    .unwrap();
    let warm = SymGs::with_engine_from(Csr::from_triplets(&t), 1.0, |m| {
        cache.symgs_engine(m, &ctx)
    })
    .unwrap();
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(warm.engine().strategy(), cold.engine().strategy());

    for pre in [&cold, &warm] {
        let (iters, conv, x) = solve(pre);
        assert!(conv);
        assert_eq!(iters, iters0);
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "cached replay must be bitwise identical to the uncached solve"
        );
    }

    // And the preconditioner application itself, one sweep, bitwise.
    let r: Vec<f64> = (0..n).map(|i| ((i * 11 % 23) as f64) - 11.0).collect();
    let (mut z0, mut z1) = (vec![0.0; n], vec![0.0; n]);
    uncached.precondition(&r, &mut z0);
    warm.precondition(&r, &mut z1);
    assert_eq!(
        z0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        z1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// The cache is keyed by structure and replays one verdict across
/// matrices of equal pattern, so the values-carrying sweep split must
/// not travel with it: two preconditioners built through one cache —
/// the second compile a hit — each apply their *own* values.
#[test]
fn same_pattern_preconditioners_through_one_cache_apply_their_own_values() {
    use bernoulli_formats::kernels::{symgs_backward_csr, symgs_forward_csr};
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let t = bernoulli_formats::gen::grid2d_5pt(12, 12);
    let n = t.nrows();
    let scaled = map_values(&t, |v| if v > 0.0 { 3.0 * v } else { 0.5 * v });
    let cache = PlanCache::new();
    let build = |t: &Triplets| {
        SymGs::with_engine_from(Csr::from_triplets(t), 1.2, |m| cache.symgs_engine(m, &ctx)).unwrap()
    };
    let (first, second) = (build(&t), build(&scaled));
    assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
    let r: Vec<f64> = (0..n).map(|i| ((i * 11 % 23) as f64) - 11.0).collect();
    let apply = |pre: &SymGs| {
        let (mut z, mut want) = (vec![0.0; n], vec![0.0; n]);
        pre.precondition(&r, &mut z);
        symgs_forward_csr(pre.matrix(), 1.2, &r, &mut want);
        symgs_backward_csr(pre.matrix(), 1.2, &r, &mut want);
        for (got, want) in z.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-13 * want.abs().max(1.0), "{got} vs {want}");
        }
        z
    };
    assert_ne!(apply(&first), apply(&second));
}

#[test]
fn csr_helper_key_matches_enum_key_on_suite() {
    for s in table1_suite(Scale::Small) {
        let csr = Csr::from_triplets(&s.triplets);
        let via_enum = structure_key(&SparseMatrix::Csr(csr.clone()));
        assert_eq!(structure_key_csr(&csr), via_enum, "{}", s.name);
    }
}

#[test]
fn loaded_entry_without_schedules_compiles_cold_instead_of_panicking() {
    // A well-formed cache file can carry a wavefront entry with no
    // schedule (hand-edited, or written by a build that cached serial
    // verdicts). Replaying it must degrade to the cold compile — same
    // verdict, same bits as the uncached engine — not panic.
    use bernoulli::{SptrsvEngine, SymGsEngine, TriangularOp};
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let t = bernoulli_formats::gen::grid3d_7pt(5, 5, 5);
    let full = Csr::from_triplets(&t);
    let mut lt = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.canonicalize().entries() {
        if c <= r {
            lt.push(r, c, if c == r { 4.0 } else { v });
        }
    }
    let l = Csr::from_triplets(&lt);
    let entry = |key: StructureKey, op: &str| {
        format!(
            "{{\"structure\":\"{}\",\"op\":\"{op}\",\"strategy\":\"parallel\",\"plan_shape\":\"\",\
             \"fast_eligible\":false,\"rows\":null,\"level_ptr\":null}}",
            key.hex()
        )
    };
    let json = format!(
        "{{\"schema\":\"{SCHEMA}\",\"ops\":[{},{}]}}",
        entry(structure_key_csr(&l), "sptrsv.lower"),
        entry(structure_key_csr(&full), "symgs"),
    );
    let cache = PlanCache::from_json(&json).unwrap();
    assert_eq!((cache.stats().sptrsv_entries, cache.stats().symgs_entries), (1, 1));

    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let op = TriangularOp::Lower { unit_diag: false };
    let cached = cache.sptrsv_engine(&l, op, &ctx).unwrap();
    let uncached = SptrsvEngine::compile_in(&l, op, &ctx).unwrap();
    assert_eq!(
        (cached.strategy(), cached.downgrade()),
        (uncached.strategy(), uncached.downgrade())
    );
    let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
    cached.run(&l, &b, &mut x1).unwrap();
    uncached.run(&l, &b, &mut x2).unwrap();
    assert_eq!(bits(&x1), bits(&x2));

    let cached = cache.symgs_engine(&full, &ctx).unwrap();
    let uncached = SymGsEngine::compile_in(&full, &ctx).unwrap();
    assert_eq!(
        (cached.strategy(), cached.downgrade()),
        (uncached.strategy(), uncached.downgrade())
    );
    let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
    cached.apply_ssor(&full, 1.1, &b, &mut z1).unwrap();
    uncached.apply_ssor(&full, 1.1, &b, &mut z2).unwrap();
    assert_eq!(bits(&z1), bits(&z2));

    // Both compiles armed their schedules, so the empty entries were
    // overwritten: the next compile replays for real.
    assert!(!cache.to_json().contains("\"rows\":null"), "{}", cache.to_json());
}

#[test]
fn unsorted_csr_keys_apart_from_its_sorted_twin_and_neither_replays_onto_the_other() {
    // Unsorted rows are only reachable through the unchecked
    // constructor. The key identifies what is *stored*, so the twins
    // key apart (no panic, no canonicalising fallback): two cold
    // compiles, two entries, and each engine out of the shared cache is
    // bit for bit its own uncached engine.
    use bernoulli::SpmvEngine;
    let (rowptr, vals) = (vec![0, 3, 5, 6], vec![1.5, -2.0, 0.25, 3.0, 7.0, -1.0]);
    let scrambled = Csr::from_raw_unchecked(3, 4, rowptr.clone(), vec![3, 0, 2, 1, 0, 2], vals.clone());
    let sorted = Csr::from_raw(3, 4, rowptr, vec![0, 2, 3, 0, 1, 2], vals).unwrap();
    assert_ne!(structure_key_csr(&scrambled), structure_key_csr(&sorted));

    let ctx = ExecCtx::serial().fast_kernels(true);
    let cache = PlanCache::new();
    let x = [1.0, -0.5, 0.125, 3.0];
    for csr in [scrambled, sorted] {
        let a = SparseMatrix::Csr(csr);
        let cached = cache.spmv_engine(&a, &ctx).unwrap();
        let uncached = SpmvEngine::compile_in(&a, &ctx).unwrap();
        assert_eq!((cached.strategy(), cached.tier()), (uncached.strategy(), uncached.tier()));
        let (mut y1, mut y2) = (vec![0.5; 3], vec![0.5; 3]);
        cached.run(&a, &x, &mut y1).unwrap();
        uncached.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.spmv_entries), (2, 0, 2));
}

/// `THREADS` threads released together each compile the same
/// `(structure, op)` into one cold cache and check `run`'s bits against
/// `want`. However the misses interleave, the cache ends with one entry,
/// every call is counted once, and the next compile hits.
fn race_first_compiles<E>(compile: impl Fn(&PlanCache) -> E + Sync, run: impl Fn(&E) -> Vec<u64> + Sync, want: &[u64]) {
    const THREADS: usize = 8;
    let cache = PlanCache::new();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                assert_eq!(run(&compile(&cache)), want, "a racing compile changed the bits");
            });
        }
    });
    let stats = cache.stats();
    assert_eq!((stats.entries(), stats.hits + stats.misses), (1, THREADS as u64), "{stats:?}");
    assert_eq!(run(&compile(&cache)), want);
    assert_eq!(cache.stats().hits, stats.hits + 1, "the next compile hits");
}

#[test]
fn concurrent_first_spmv_compiles_leave_one_entry_and_the_uncached_bits() {
    use bernoulli::SpmvEngine;
    let ctx = ExecCtx::serial().fast_kernels(true);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &bernoulli_formats::gen::grid2d_5pt(12, 12));
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).sin()).collect();
    let run = |e: &SpmvEngine| {
        let mut y = vec![0.25; a.nrows()];
        e.run(&a, &x, &mut y).unwrap();
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let want = run(&SpmvEngine::compile_in(&a, &ctx).unwrap());
    race_first_compiles(|cache| cache.spmv_engine(&a, &ctx).unwrap(), run, &want);
}

#[test]
fn concurrent_first_armed_symgs_compiles_leave_one_entry_and_the_uncached_bits() {
    use bernoulli::SymGsEngine;
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let a = Csr::from_triplets(&bernoulli_formats::gen::grid3d_7pt(5, 5, 5));
    let r: Vec<f64> = (0..a.nrows()).map(|i| ((i * 11 % 23) as f64) - 11.0).collect();
    let run = |e: &SymGsEngine| {
        assert!(e.schedule().is_some(), "the sweeps armed");
        let mut z = vec![0.0; a.nrows()];
        e.apply_ssor(&a, 1.1, &r, &mut z).unwrap();
        z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let want = run(&SymGsEngine::compile_in(&a, &ctx).unwrap());
    race_first_compiles(|cache| cache.symgs_engine(&a, &ctx).unwrap(), run, &want);
}

/// The lower triangle of `t`, diagonal stored last.
fn lower_of(t: &Triplets) -> Csr {
    let e: Vec<_> = t.canonicalize().entries().iter().copied().filter(|&(r, c, _)| c <= r).collect();
    Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &e))
}

#[test]
fn a_v4_cache_file_loads_as_an_empty_cache() {
    // v4 carried one more field per entry, between `fast_eligible` and
    // `rows`: the tier a measured run had picked, or `null`; v5 drops
    // it. Build what a v4 build writes for an SpMV entry and an armed
    // SymGS one. The two share a key, so the SpMV entry (one winner
    // recorded) sorts first. The file is wholesale stale by its tag
    // alone: cold, not an error, and what compiles next through it
    // compiles cold.
    assert_eq!(SCHEMA, "bernoulli.plancache/v5");
    let t = bernoulli_formats::gen::grid2d_5pt(6, 6);
    let (a, full) = (SparseMatrix::from_triplets(FormatKind::Csr, &t), Csr::from_triplets(&t));
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let current = PlanCache::new();
    current.spmv_engine(&a, &ExecCtx::serial().fast_kernels(true)).unwrap();
    current.symgs_engine(&full, &ctx).unwrap();
    let v5 = current.to_json();
    let parts: Vec<&str> = v5.split(",\"rows\"").collect();
    assert!(parts.len() == 3 && parts[0].contains("\"op\":\"spmv\""), "{v5}");
    let field = |v: &str| format!(",\"calibrated\":{v},\"rows\"");
    let v4 = [parts[0], &field("\"fast\""), parts[1], &field("null"), parts[2]]
        .concat()
        .replace(SCHEMA, "bernoulli.plancache/v4");
    assert!(PlanCache::from_json(&v4.replace("bernoulli.plancache/v4", SCHEMA)).is_ok());
    assert!(PlanCache::from_json(&v4).unwrap_err().starts_with("schema mismatch"));

    let dir = std::env::temp_dir().join("bernoulli_plancache_v4");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    std::fs::write(&path, v4).unwrap();
    let cache = PlanCache::load(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(cache.is_empty());
    let eng = cache.symgs_engine(&full, &ctx).unwrap();
    assert_eq!((cache.stats().misses, eng.downgrade()), (1, bernoulli::Reason::None));
}

/// A v5 file may carry entries for op kinds this build does not know —
/// the sparse × sparse product and the boolean SpMV earlier builds
/// cached, a semiring product, an algebra it does not ship, a transposed
/// solve. It still loads under the same schema: those entries are
/// dropped (the tags do not parse) and every other entry loads
/// unchanged and hits.
#[test]
fn a_v5_file_with_entries_for_removed_op_kinds_drops_them_and_keeps_the_rest() {
    use bernoulli::TriangularOp;
    use bernoulli_analysis::binding::{fnv, FNV_OFFSET};
    use bernoulli_relational::semiring::{FirstNonZero, MinPlus};
    assert_eq!(SCHEMA, "bernoulli.plancache/v5");
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let t = bernoulli_formats::gen::grid3d_7pt(5, 5, 5);
    let (a, full, l) = (SparseMatrix::from_triplets(FormatKind::Csr, &t), Csr::from_triplets(&t), lower_of(&t));
    let u = l.transposed();
    let (lower, upper) = (TriangularOp::Lower { unit_diag: false }, TriangularOp::Upper { unit_diag: false });
    // One compile of every op kind there is; the calls hit from the
    // second round on.
    let compile_all = |cache: &PlanCache| {
        cache.spmv_engine(&a, &ctx).unwrap();
        cache.spmv_multi_engine(&a, 3, &ctx).unwrap();
        cache.semiring_spmv_engine::<MinPlus>(&a, &ctx).unwrap();
        cache.semiring_spmv_engine::<FirstNonZero>(&a, &ctx).unwrap();
        cache.sptrsv_engine(&l, lower, &ctx).unwrap();
        cache.sptrsv_engine(&u, upper, &ctx).unwrap();
        cache.symgs_engine(&full, &ctx).unwrap();
    };
    let cache = PlanCache::new();
    compile_all(&cache);
    assert_eq!(cache.stats().entries(), 7);
    let json = cache.to_json();

    let removed = |op: &str, key: &str, shape: &str| {
        format!(
            "{{\"structure\":\"{key}\",\"op\":\"{op}\",\"strategy\":\"parallel\",\"plan_shape\":\"{shape}\",\
             \"fast_eligible\":false,\"rows\":null,\"level_ptr\":null}}"
        )
    };
    // Earlier builds keyed a product by FNV-1a over both operands'
    // digests, and cached `spmm` and `spmv.bool_or_and` entries for
    // `a` under this context as below.
    let digest = u64::from_str_radix(&structure_key(&a).hex(), 16).unwrap();
    let pair = [digest; 2].iter().flat_map(|d| d.to_le_bytes()).fold(FNV_OFFSET, |h, b| fnv(h, b as u64));
    assert_eq!(format!("{pair:016x}"), "849c5c7af63619c5", "the key such a build wrote");
    let key = |k: StructureKey| k.hex();
    let old = json.replacen(
        "\"ops\":[",
        &format!(
            "\"ops\":[{},{},{},{},{},",
            removed("spmv.bool_or_and", &key(structure_key(&a)), "i:outer(A)>j:inner(A)[X?]"),
            removed("spmm", &format!("{pair:016x}"), "i:outer(A)>k:inner(A)[B?]>j:inner(B)"),
            removed("spmm.count_u64", &format!("{pair:016x}"), ""),
            removed("spmv.max_plus", &key(structure_key(&a)), ""),
            removed("sptrsv.lower_transposed", &key(structure_key_csr(&l)), ""),
        ),
        1,
    );
    let dir = std::env::temp_dir().join("bernoulli_plancache_removed_kinds");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    std::fs::write(&path, &old).unwrap();
    let loaded = PlanCache::load(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Exactly the removed entries went; the rest is what was written.
    assert_eq!(loaded.to_json(), json);
    compile_all(&loaded);
    let stats = loaded.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries()), (7, 0, 7), "{stats:?}");
}

/// A cache file is whatever is on disk when it is read back. Every
/// byte-level mutant of a saved v5 file loads or is an error — never a
/// panic — and whatever schedule a loaded mutant hands the wavefront
/// compiles, the wave tier arms only on one the verifier accepts for
/// the operand, and the results stay the uncached engines' bits.
#[test]
fn byte_mutants_of_a_saved_cache_load_or_fail_and_never_arm_past_the_verifier() {
    use bernoulli::{SptrsvEngine, Strategy, SymGsEngine, TriangularOp};
    use bernoulli_analysis::wavefront::{certify_wavefront, Relation, Triangle};
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let t = bernoulli_formats::gen::grid2d_5pt(5, 4);
    let (full, l) = (Csr::from_triplets(&t), lower_of(&t));
    let (n, op) = (full.nrows(), TriangularOp::Lower { unit_diag: false });
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let solve = |e: &SptrsvEngine| {
        let mut x = vec![0.0; n];
        e.run(&l, &b, &mut x).unwrap();
        bits(&x)
    };
    let ssor = |e: &SymGsEngine| {
        let mut z = vec![0.0; n];
        e.apply_ssor(&full, 1.0, &b, &mut z).unwrap();
        bits(&z)
    };
    let (want_x, want_z) = (solve(&SptrsvEngine::compile(&l, op).unwrap()), ssor(&SymGsEngine::compile(&full).unwrap()));

    let cache = PlanCache::new();
    let (cold_l, cold_a) = (cache.sptrsv_engine(&l, op, &ctx).unwrap(), cache.symgs_engine(&full, &ctx).unwrap());
    assert_eq!((cold_l.strategy(), cold_a.strategy()), (Strategy::Parallel, Strategy::Parallel));
    let dir = std::env::temp_dir().join("bernoulli_plancache_mutants");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(saved.is_ascii());

    let verifies = |m: &Csr, relation, e: Option<&bernoulli_analysis::LevelSchedule>| {
        e.is_none_or(|s| certify_wavefront(n, m.rowptr(), m.colind(), m.index_digest(), relation, Some(s.clone())).is_ok())
    };
    let (mut loaded, mut armed) = (0, 0);
    for at in 0..saved.len() {
        for byte in [None, Some(b'['), Some(b'{'), Some(b'"'), Some(b','), Some(b'0'), Some(b'7'), Some(b'-'), Some(b'x')] {
            let mut mutant = saved.clone();
            match byte {
                None => drop(mutant.remove(at)),
                Some(c) if mutant[at] != c => mutant[at] = c,
                Some(_) => continue,
            }
            let Ok(mutated) = PlanCache::from_json(std::str::from_utf8(&mutant).unwrap()) else { continue };
            loaded += 1;
            let (Ok(el), Ok(ea)) = (mutated.sptrsv_engine(&l, op, &ctx), mutated.symgs_engine(&full, &ctx)) else {
                panic!("a loaded mutant failed a compile at byte {at}");
            };
            let case = format!("byte {at} -> {byte:?}");
            assert!(verifies(&l, Relation::Solve(Triangle::Lower), el.schedule()), "{case}");
            assert!(verifies(&full, Relation::GaussSeidel, ea.schedule()), "{case}");
            armed += usize::from(el.schedule().is_some() && ea.schedule().is_some());
            // A schedule other than the cold one that still armed runs
            // for real: the same bits or the test fails.
            if el.schedule() != cold_l.schedule() {
                assert_eq!(solve(&el), want_x, "{case}");
            }
            if ea.schedule() != cold_a.schedule() {
                assert_eq!(ssor(&ea), want_z, "{case}");
            }
        }
    }
    println!("{} bytes: {loaded} mutants loaded, {armed} armed both ops", saved.len());
    assert!(loaded > 0 && armed > 0, "{loaded} mutants loaded, {armed} armed");
    // Nesting deep enough to exhaust the stack is an error, not an abort.
    assert!(PlanCache::from_json(&"[".repeat(200_000)).is_err());
}
