//! The structure-keyed plan cache: plan, certify and tune once per
//! sparsity structure, replay on every repeat solve.
//!
//! Since the pipeline unification the cache holds **one table**, keyed
//! by `(StructureKey, OpKind)`: every op the unified compilation core
//! knows — SpMV, multi-RHS SpMV, the semiring variants, SpTRSV and
//! SymGS — files its verdict under the same key shape and replays it
//! through the same [`OpHints`] seam.
//!
//! # What is cached, what is re-verified
//!
//! A cache entry holds *decisions*, never *proofs*:
//!
//! * **SpMV family** (classical, multi-RHS, semiring) — the
//!   [`OpHints`] a cold compile produced (strategy tier, plan shape,
//!   fast-tier eligibility, and — in memory only — the validation
//!   certificate). A hit hands them back to `pipeline::compile`,
//!   which skips the planner search and the race-gate re-derivation
//!   but re-applies the O(1) context gates and re-validates (or
//!   re-derives) the fast certificate via `covers()` against the
//!   operand actually handed in.
//! * **SpTRSV / SymGS** — the one wavefront level schedule per entry.
//!   A hit skips the level computation, never the verification: the
//!   engine re-runs the independent BA4x verifier against this
//!   operand's pattern before the parallel tier is armed, and a stale
//!   or forged schedule downgrades to the bit-identical serial sweep
//!   (`schedule_rejected`).
//!
//! The worst a wrong cache entry can do is therefore pick a suboptimal
//! tier; it can never mis-compute. Serial planning verdicts (below
//! threshold, narrow levels, non-triangular) are *not* cached for the
//! wavefront ops — they are either O(1) to re-derive or must be
//! re-derived for soundness — and an entry that carries no schedule
//! (a hand-edited file) simply compiles cold. Every op takes the same
//! route, [`PlanCache::compile`]; the `*_engine` methods wrap it.
//!
//! # Persistence
//!
//! [`PlanCache::save`] writes versioned JSON ([`SCHEMA`]); a restarted
//! process [`load`](PlanCache::load)s it and re-tunes nothing. A schema
//! bump invalidates the file wholesale (load returns an empty cache).
//! In-memory certificates are never persisted — they fingerprint heap
//! addresses — so the first warm compile after a reload re-certifies
//! through the sanitizer and the cache re-arms itself. Entries whose
//! op tag a newer schema knows but this build does not are dropped on
//! load (cold, not fatal).

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bernoulli::engines::{SemiringSpmvEngine, SpmvEngine, SpmvMultiEngine, Strategy};
use bernoulli::pipeline::{self, CompiledOp, OpHints, OpKind, OpSpec, Operands};
use bernoulli::{SptrsvEngine, SymGsEngine, TriangularOp};
use bernoulli_analysis::LevelSchedule;
use bernoulli_formats::{Csr, ExecCtx, SparseMatrix};
use bernoulli_obs::json::{array, Obj};
use bernoulli_relational::error::RelResult;
use bernoulli_relational::semiring::{F64Plus, Semiring};

use crate::jsonio::{parse, Value};
use crate::key::{structure_key, structure_key_csr, StructureKey};

/// On-disk schema identifier. Any change to the cache's JSON layout or
/// to the [`StructureKey`] digest layout bumps the version suffix, and
/// [`PlanCache::load`] treats a file carrying a different identifier as
/// absent — a bump is a wholesale cache invalidation, never a migration.
pub const SCHEMA: &str = "bernoulli.plancache/v5";

#[derive(Debug, Default)]
struct Inner {
    /// One cached verdict per `(structure, op)` pair, shared: a hit
    /// hands out a reference, not a copy.
    ops: HashMap<(StructureKey, OpKind), Arc<OpHints>>,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn lookup(&mut self, key: (StructureKey, OpKind)) -> Option<Arc<OpHints>> {
        let hit = self.ops.get(&key).cloned();
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }
}

/// Cache effectiveness counters ([`PlanCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiles served from a cached verdict (planner search, race
    /// gate and wavefront construction all skipped).
    pub hits: u64,
    /// Compiles that replayed nothing: every compile that was not a
    /// hit, whether or not its verdict was then cached.
    pub misses: u64,
    /// Cached classical SpMV verdicts.
    pub spmv_entries: usize,
    /// Cached SpTRSV level schedules (one per structure × triangle).
    pub sptrsv_entries: usize,
    /// Cached SymGS schedules (one serves both sweeps).
    pub symgs_entries: usize,
    /// Cached verdicts for every other op kind (multi-RHS SpMV and the
    /// semiring variants).
    pub other_entries: usize,
}

impl CacheStats {
    /// Total cached verdicts across all operations.
    pub fn entries(&self) -> usize {
        self.spmv_entries + self.sptrsv_entries + self.symgs_entries + self.other_entries
    }
}

/// The structure-keyed plan/strategy cache. Thread-safe (`&self`
/// everywhere); clone-free sharing via `Arc<PlanCache>` if needed.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache: the first compile per structure is cold.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// A poisoned mutex is recovered, not propagated: every critical
    /// section is one map operation or counter bump, so the table is
    /// valid at every step, and what it holds is re-verified on replay.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Compile any op, serving repeated structures from the cache —
    /// the one lookup → compile → insert every typed method below goes
    /// through. The key is the operand's [`StructureKey`] plus the
    /// spec's [`OpKind`], which folds the algebra in and the
    /// instance parameters (`k`, `unit_diag`) out. A miss runs the cold
    /// `pipeline::compile` and stores its verdict; a hit hands the
    /// stored [`OpHints`] back to the same call — bitwise-identical
    /// results, planning skipped, every soundness gate re-applied.
    ///
    /// The wavefront ops cache only a compile that armed its level
    /// schedule (serial verdicts are O(1) to re-derive or must be
    /// re-derived for soundness), and an entry holding no schedule is
    /// overwritten by the first compile that arms one. Where the
    /// context's pool gates keep a wavefront op serial
    /// ([`pipeline::reads_hints`]), no entry could replay: the operand
    /// is not keyed, and the compile counts as a miss.
    pub fn compile<S: Semiring>(
        &self,
        spec: OpSpec,
        operands: Operands<'_>,
        ctx: &ExecCtx,
    ) -> RelResult<CompiledOp> {
        if !pipeline::reads_hints(spec, operands, ctx) {
            self.lock().misses += 1;
            return pipeline::compile::<S>(spec, operands, ctx, None);
        }
        let kind = spec.kind();
        // A wavefront verdict without its schedule replays nothing.
        let replayable = |h: &OpHints| !(kind.is_wavefront() && h.schedule.is_none());
        let key = (key_of(&operands), kind);
        let hit = self.lock().lookup(key);
        let op = pipeline::compile::<S>(spec, operands, ctx, hit.as_deref())?;
        match hit {
            Some(h) if replayable(&h) => {
                // Refresh only the in-memory certificate, and only when
                // the compile re-issued it for a new operand instance
                // (a replayed one is already stored); the cold verdict
                // fields stay.
                if let Some(cert) = op.fast_cert().filter(|c| h.fast_cert != Some(*c)) {
                    if let Some(stored) = self.lock().ops.get_mut(&key) {
                        Arc::make_mut(stored).fast_cert = Some(cert);
                    }
                }
            }
            _ => {
                let hints = op.hints();
                if replayable(&hints) {
                    self.lock().ops.insert(key, Arc::new(hints));
                }
            }
        }
        Ok(op)
    }

    /// A `y += A·x` engine through [`compile`](Self::compile).
    pub fn spmv_engine(&self, a: &SparseMatrix, ctx: &ExecCtx) -> RelResult<SpmvEngine> {
        self.compile::<F64Plus>(OpSpec::Spmv, Operands::Mat(a), ctx)?.try_into()
    }

    /// A `Y += A·X` multi-RHS engine through
    /// [`compile`](Self::compile). The cached verdict is per
    /// *structure*: the width `k` is re-supplied on every call.
    pub fn spmv_multi_engine(
        &self,
        a: &SparseMatrix,
        k: usize,
        ctx: &ExecCtx,
    ) -> RelResult<SpmvMultiEngine> {
        self.compile::<F64Plus>(OpSpec::SpmvMulti { k }, Operands::Mat(a), ctx)?.try_into()
    }

    /// A semiring SpMV engine through [`compile`](Self::compile),
    /// keyed per algebra: the parallel verdict depends on `S`'s
    /// algebraic properties (a non-commutative ⊕ is refused the
    /// reduction certificate), so `min_plus` and `first_nonzero`
    /// verdicts for the same structure are distinct entries.
    pub fn semiring_spmv_engine<S: Semiring>(
        &self,
        a: &SparseMatrix,
        ctx: &ExecCtx,
    ) -> RelResult<SemiringSpmvEngine<S>> {
        let spec = OpSpec::SemiringSpmv { algebra: S::NAME };
        self.compile::<S>(spec, Operands::Mat(a), ctx)?.try_into()
    }

    /// A triangular-solve engine through [`compile`](Self::compile),
    /// replaying the cached level schedule when this structure (and
    /// solve direction) armed the parallel tier before.
    pub fn sptrsv_engine(
        &self,
        a: &Csr,
        op: TriangularOp,
        ctx: &ExecCtx,
    ) -> RelResult<SptrsvEngine> {
        self.compile::<F64Plus>(OpSpec::Sptrsv { op }, Operands::Tri(a), ctx)?.try_into()
    }

    /// A symmetric Gauss-Seidel engine through
    /// [`compile`](Self::compile), replaying the one cached schedule
    /// both sweeps walk.
    pub fn symgs_engine(&self, a: &Csr, ctx: &ExecCtx) -> RelResult<SymGsEngine> {
        self.compile::<F64Plus>(OpSpec::Symgs, Operands::Tri(a), ctx)?.try_into()
    }

    /// Hit/miss counters and per-operation entry counts.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        let mut s = CacheStats { hits: g.hits, misses: g.misses, ..CacheStats::default() };
        for (_, kind) in g.ops.keys() {
            match kind {
                OpKind::Spmv => s.spmv_entries += 1,
                OpKind::SptrsvLower | OpKind::SptrsvUpper => s.sptrsv_entries += 1,
                OpKind::Symgs => s.symgs_entries += 1,
                _ => s.other_entries += 1,
            }
        }
        s
    }

    /// True when no verdict has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.stats().entries() == 0
    }

    /// Serialize to the versioned on-disk JSON ([`SCHEMA`]): one `ops`
    /// array, one object per `(structure, op)` verdict, written in
    /// `(structure, op tag)` order so the output is deterministic.
    /// In-memory certificates are omitted (they fingerprint heap
    /// addresses of the process that issued them); a wavefront entry's
    /// schedule is written inline as its raw `rows` and `level_ptr`
    /// (`null` without one), so the document nests four levels deep,
    /// and it is re-verified on every replay.
    pub fn to_json(&self) -> String {
        let g = self.lock();
        let mut ops: Vec<_> = g.ops.iter().collect();
        ops.sort_by_key(|((k, kind), _)| (*k, kind.tag()));
        let ops = array(ops.into_iter().map(|((k, kind), h)| {
            let (rows, level_ptr) = match &h.schedule {
                Some(s) => (usize_array(s.rows()), usize_array(s.level_ptr())),
                None => ("null".to_string(), "null".to_string()),
            };
            Obj::new()
                .str("structure", &k.hex())
                .str("op", &kind.tag())
                .str("strategy", strategy_str(h.strategy))
                .str("plan_shape", &h.plan_shape)
                .bool("fast_eligible", h.fast_eligible)
                .raw("rows", &rows)
                .raw("level_ptr", &level_ptr)
                .finish()
        }));
        Obj::new().str("schema", SCHEMA).raw("ops", ops).finish()
    }

    /// Rebuild a cache from [`to_json`](Self::to_json) output. A
    /// schema identifier other than [`SCHEMA`] yields an error carrying
    /// the found identifier — the caller decides whether a stale cache
    /// is fatal or just cold ([`load`](Self::load) treats it as cold).
    /// Entries whose op tag this build does not know are skipped.
    pub fn from_json(text: &str) -> Result<PlanCache, String> {
        let v = parse(text)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("schema mismatch: found {schema:?}, want {SCHEMA:?}"));
        }
        let mut inner = Inner::default();
        for e in v.get("ops").and_then(Value::as_arr).unwrap_or(&[]) {
            let key = e
                .get("structure")
                .and_then(Value::as_str)
                .and_then(StructureKey::from_hex)
                .ok_or("ops entry: bad structure key")?;
            let Some(kind) =
                e.get("op").and_then(Value::as_str).and_then(OpKind::from_tag)
            else {
                continue; // unknown op tag: drop the entry, stay cold
            };
            let strategy = strategy_from_str(
                e.get("strategy").and_then(Value::as_str).ok_or("ops entry: no strategy")?,
            )?;
            let plan_shape = e
                .get("plan_shape")
                .and_then(Value::as_str)
                .ok_or("ops entry: no plan_shape")?
                .into();
            let fast_eligible = e
                .get("fast_eligible")
                .and_then(Value::as_bool)
                .ok_or("ops entry: no fast_eligible")?;
            let schedule = sched_of(e)?;
            inner.ops.insert(
                (key, kind),
                Arc::new(OpHints { strategy, plan_shape, fast_eligible, fast_cert: None, schedule }),
            );
        }
        Ok(PlanCache { inner: Mutex::new(inner) })
    }

    /// Persist to disk. This crate is the workspace's only sanctioned
    /// filesystem writer outside the Matrix Market reader (enforced by
    /// `scripts/ci.sh`).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a persisted cache. A missing file or a schema/version
    /// mismatch yields an *empty* cache (cold start, not an error —
    /// the bump is the invalidation mechanism); an unreadable or
    /// malformed file is an I/O error.
    pub fn load(path: impl AsRef<Path>) -> io::Result<PlanCache> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(PlanCache::new()),
            Err(e) => return Err(e),
        };
        match PlanCache::from_json(&text) {
            Ok(c) => Ok(c),
            Err(e) if e.starts_with("schema mismatch") => Ok(PlanCache::new()),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )),
        }
    }
}

/// The structure half of a cache key: the operand's key.
fn key_of(operands: &Operands<'_>) -> StructureKey {
    match *operands {
        Operands::Mat(a) => structure_key(a),
        Operands::Tri(a) => structure_key_csr(a),
    }
}

fn usize_array(v: &[usize]) -> String {
    array(v.iter().map(|x| x.to_string()))
}

/// Rebuild an entry's persisted schedule, if it has one.
/// `from_raw_unchecked` is sound here because nothing trusts the
/// result until the BA4x verifier re-accepts it against the live
/// operand at replay time.
fn sched_of(e: &Value) -> Result<Option<LevelSchedule>, String> {
    let read = |field: &str| -> Result<Option<Vec<usize>>, String> {
        match e.get(field) {
            Some(Value::Null) => Ok(None),
            Some(Value::Arr(items)) => (items.iter())
                .map(|x| x.as_usize().ok_or(format!("ops entry: bad {field} element")))
                .collect::<Result<_, _>>()
                .map(Some),
            _ => Err(format!("ops entry: no {field}")),
        }
    };
    match (read("rows")?, read("level_ptr")?) {
        (Some(rows), Some(level_ptr)) => Ok(Some(LevelSchedule::from_raw_unchecked(rows.len(), rows, level_ptr))),
        (None, None) => Ok(None),
        _ => Err("ops entry: half a schedule".to_string()),
    }
}

fn strategy_str(s: Strategy) -> &'static str {
    match s {
        Strategy::Specialized => "specialized",
        Strategy::Parallel => "parallel",
        Strategy::Interpreted => "interpreted",
    }
}

fn strategy_from_str(s: &str) -> Result<Strategy, String> {
    match s {
        "specialized" => Ok(Strategy::Specialized),
        "parallel" => Ok(Strategy::Parallel),
        "interpreted" => Ok(Strategy::Interpreted),
        other => Err(format!("unknown strategy {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::{grid2d_5pt, grid3d_7pt};
    use bernoulli_formats::FormatKind;
    use bernoulli_relational::semiring::MinPlus;

    fn par_ctx() -> ExecCtx {
        ExecCtx::with_threads(2).oversubscribe(true).threshold(1)
    }

    #[test]
    fn spmv_cold_then_warm_with_bitwise_identical_results() {
        let cache = PlanCache::new();
        let ctx = ExecCtx::serial().fast_kernels(true);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &grid2d_5pt(9, 9));
        let n = 81;
        let cold = cache.spmv_engine(&a, &ctx).unwrap();
        assert_eq!(cache.stats(), CacheStats {
            hits: 0,
            misses: 1,
            spmv_entries: 1,
            ..CacheStats::default()
        });
        let warm = cache.spmv_engine(&a, &ctx).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(warm.strategy(), cold.strategy());
        assert_eq!(warm.plan_shape(), cold.plan_shape());
        assert_eq!(warm.tier(), cold.tier());
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut y1, mut y2) = (vec![0.0; n], vec![0.0; n]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn value_perturbed_rebuild_hits_the_same_entry() {
        // Same pattern, new numbers (a refactorization): same key, a
        // cache hit, and the warm engine re-certifies for the new
        // operand instance (the cached certificate cannot cover it).
        let cache = PlanCache::new();
        let ctx = ExecCtx::serial().fast_kernels(true);
        let t = grid2d_5pt(8, 8);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let mut t2 = bernoulli_formats::Triplets::new(8 * 8, 8 * 8);
        for &(r, c, v) in t.canonicalize().entries() {
            t2.push(r, c, v * 3.5 - 1.0);
        }
        let b = SparseMatrix::from_triplets(FormatKind::Csr, &t2);
        let cold = cache.spmv_engine(&a, &ctx).unwrap();
        let warm = cache.spmv_engine(&b, &ctx).unwrap();
        assert_eq!(cache.stats().hits, 1, "value perturbation must not change the key");
        assert_eq!(warm.tier(), cold.tier());
        // And the refreshed certificate binds b, so a third call still
        // hits, still runs fast, and replays it as stored.
        let stored = || cache.lock().ops.values().next().unwrap().fast_cert;
        assert_ne!(warm.fast_cert(), cold.fast_cert());
        assert_eq!(stored(), warm.fast_cert());
        let again = cache.spmv_engine(&b, &ctx).unwrap();
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(again.tier(), "fast");
        assert_eq!(stored(), again.fast_cert());
    }

    #[test]
    fn multi_and_semiring_engines_replay_through_the_unified_seam() {
        let cache = PlanCache::new();
        let ctx = par_ctx();
        let t = grid2d_5pt(8, 8);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let n = 64;

        // Multi-RHS: the width is an instance parameter — a different k
        // still hits the same structure entry.
        let k = 3;
        let cold = cache.spmv_multi_engine(&a, k, &ctx).unwrap();
        assert_eq!(cache.stats().other_entries, 1);
        let warm = cache.spmv_multi_engine(&a, k, &ctx).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(warm.strategy(), cold.strategy());
        let x: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.21).cos()).collect();
        let (mut y1, mut y2) = (vec![0.0; n * k], vec![0.0; n * k]);
        cold.run(&a, &x, &mut y1).unwrap();
        warm.run(&a, &x, &mut y2).unwrap();
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let wider = cache.spmv_multi_engine(&a, k + 2, &ctx).unwrap();
        assert_eq!(cache.stats().hits, 2, "width is not part of the key");
        assert_eq!(wider.io_lens(), (n * (k + 2), n * (k + 2)));

        // Semiring SpMV: per-algebra entries for the same structure.
        let cold_mp = cache.semiring_spmv_engine::<MinPlus>(&a, &ctx).unwrap();
        let warm_mp = cache.semiring_spmv_engine::<MinPlus>(&a, &ctx).unwrap();
        assert_eq!(warm_mp.strategy(), cold_mp.strategy());
        assert_eq!(cache.stats().other_entries, 2);
        let d0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (mut d1, mut d2) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
        cold_mp.run(&a, &d0, &mut d1).unwrap();
        warm_mp.run(&a, &d0, &mut d2).unwrap();
        assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A 5³ grid operator and its lower and upper triangles (diagonal
    /// 4): operands every wavefront spec arms its schedule on.
    fn sweep_operands() -> (Csr, Csr, Csr) {
        let t = grid3d_7pt(5, 5, 5);
        let n = t.nrows();
        let triangle = |keep: fn(usize, usize) -> bool| {
            let mut h = bernoulli_formats::Triplets::new(n, n);
            for &(r, c, v) in t.canonicalize().entries() {
                if keep(r, c) {
                    h.push(r, c, if c == r { 4.0 } else { v });
                }
            }
            Csr::from_triplets(&h)
        };
        (Csr::from_triplets(&t), triangle(|r, c| c <= r), triangle(|r, c| c >= r))
    }

    /// The three wavefront specs, each with the operand it solves or
    /// sweeps.
    fn sweeps<'a>(full: &'a Csr, lower: &'a Csr, upper: &'a Csr) -> [(OpSpec, &'a Csr); 3] {
        let solve = |op| OpSpec::Sptrsv { op };
        [
            (solve(TriangularOp::Lower { unit_diag: false }), lower),
            (solve(TriangularOp::Upper { unit_diag: false }), upper),
            (OpSpec::Symgs, full),
        ]
    }

    fn run_bits(op: &CompiledOp, a: &Csr) -> Vec<u64> {
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect();
        let mut x = vec![0.0; a.nrows()];
        op.run::<F64Plus>(Operands::Tri(a), &b, &mut x).unwrap();
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Structure keys one compile through `cache` computes.
    fn keys_of<S: Semiring>(cache: &PlanCache, spec: OpSpec, operands: Operands<'_>, ctx: &ExecCtx) -> usize {
        let before = crate::key::tests::key_runs();
        cache.compile::<S>(spec, operands, ctx).unwrap();
        crate::key::tests::key_runs() - before
    }

    #[test]
    fn only_a_compile_that_can_replay_keys_its_operand() {
        let cache = PlanCache::new();
        let (full, lower, upper) = sweep_operands();
        // Serial sweeps: by thread count, and by size on a pool.
        let serial = [ExecCtx::serial(), par_ctx().threshold(usize::MAX)];
        for ctx in &serial {
            for (spec, a) in sweeps(&full, &lower, &upper) {
                for _ in 0..2 {
                    assert_eq!(keys_of::<F64Plus>(&cache, spec, Operands::Tri(a), ctx), 0, "{spec:?}");
                }
            }
        }
        for (spec, a) in sweeps(&full, &lower, &upper) {
            for _ in 0..2 {
                assert_eq!(keys_of::<F64Plus>(&cache, spec, Operands::Tri(a), &par_ctx()), 1, "{spec:?}");
            }
        }
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &grid2d_5pt(8, 8));
        let min_plus = OpSpec::SemiringSpmv { algebra: MinPlus::NAME };
        for ctx in serial.iter().chain([&par_ctx()]) {
            for _ in 0..2 {
                for spec in [OpSpec::Spmv, OpSpec::SpmvMulti { k: 2 }] {
                    assert_eq!(keys_of::<F64Plus>(&cache, spec, Operands::Mat(&a), ctx), 1, "{spec:?}");
                }
                assert_eq!(keys_of::<MinPlus>(&cache, min_plus, Operands::Mat(&a), ctx), 1);
            }
        }
    }

    #[test]
    fn every_context_compiles_what_the_uncached_pipeline_compiles() {
        let cache = PlanCache::new();
        let (full, lower, upper) = sweep_operands();
        // The count model: an entry exists once some compile of its
        // kind armed a schedule, and a compile hits when it finds one
        // and its pool gates let it read it. One that finds an entry it
        // cannot read replays nothing: a miss here, and a hit up to
        // commit 4a9d967, which keyed every compile.
        let mut armed = std::collections::HashSet::new();
        let (mut compiles, mut hits, mut unread) = (0, 0, 0);
        for threads in 1..=3 {
            for threshold in [|_: usize| 1, |nnz| nnz, |nnz| nnz + 1] {
                for oversubscribe in [false, true] {
                    for (spec, a) in sweeps(&full, &lower, &upper) {
                        let ctx =
                            ExecCtx::with_threads(threads).oversubscribe(oversubscribe).threshold(threshold(a.nnz()));
                        let uncached = pipeline::compile::<F64Plus>(spec, Operands::Tri(a), &ctx, None).unwrap();
                        for _ in 0..2 {
                            let found = armed.contains(&spec.kind());
                            let read = pipeline::reads_hints(spec, Operands::Tri(a), &ctx);
                            (compiles, hits, unread) =
                                (compiles + 1, hits + u64::from(found && read), unread + u64::from(found && !read));
                            let op = cache.compile::<F64Plus>(spec, Operands::Tri(a), &ctx).unwrap();
                            let what = format!("{spec:?} threads {threads} oversubscribe {oversubscribe}");
                            assert_eq!(op.strategy(), uncached.strategy(), "{what}");
                            assert_eq!(op.downgrade(), uncached.downgrade(), "{what}");
                            assert_eq!(run_bits(&op, a), run_bits(&uncached, a), "{what}");
                            if op.schedule().is_some() {
                                armed.insert(spec.kind());
                            }
                        }
                    }
                }
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries()), (hits, compiles - hits, armed.len()));
        // Recorded at 4a9d967 on a 2-thread host; any host with at least
        // two hardware threads pools the same contexts.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
            assert_eq!((s.hits + unread, s.misses - unread, s.entries()), (69, 39, 3));
        }
    }

    #[test]
    fn sptrsv_and_symgs_schedules_cached_and_replayed() {
        let cache = PlanCache::new();
        let ctx = par_ctx();
        let (full, l, _) = sweep_operands();
        let op = TriangularOp::Lower { unit_diag: false };

        let cold = cache.sptrsv_engine(&l, op, &ctx).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        assert_eq!(cache.stats().sptrsv_entries, 1);
        let warm = cache.sptrsv_engine(&l, op, &ctx).unwrap();
        assert_eq!(warm.strategy(), Strategy::Parallel, "downgrade: {}", warm.downgrade());
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect();
        let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
        cold.run(&l, &b, &mut x1).unwrap();
        warm.run(&l, &b, &mut x2).unwrap();
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let gs_cold = cache.symgs_engine(&full, &ctx).unwrap();
        assert_eq!(cache.stats().symgs_entries, 1);
        let gs_warm = cache.symgs_engine(&full, &ctx).unwrap();
        assert_eq!(gs_warm.strategy(), gs_cold.strategy());
        let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
        gs_cold.apply_ssor(&full, 1.1, &b, &mut z1).unwrap();
        gs_warm.apply_ssor(&full, 1.1, &b, &mut z2).unwrap();
        assert_eq!(
            z1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_load_round_trip_preserves_entries_and_schema_bump_invalidates() {
        let cache = PlanCache::new();
        let ctx = ExecCtx::serial().fast_kernels(true);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &grid2d_5pt(7, 7));
        let full = Csr::from_triplets(&grid3d_7pt(4, 4, 4));
        cache.spmv_engine(&a, &ctx).unwrap();
        cache.symgs_engine(&full, &par_ctx()).unwrap();
        cache.semiring_spmv_engine::<MinPlus>(&a, &ctx).unwrap();
        let json = cache.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));

        let reloaded = PlanCache::from_json(&json).unwrap();
        let s = reloaded.stats();
        assert_eq!((s.spmv_entries, s.symgs_entries, s.other_entries), (1, 1, 1));
        // Deterministic serialization: a reload serializes identically.
        assert_eq!(reloaded.to_json(), json);
        // The reloaded cache actually serves warm compiles.
        let warm = reloaded.spmv_engine(&a, &ctx).unwrap();
        assert_eq!(reloaded.stats().hits, 1);
        assert_eq!(warm.tier(), "fast", "reload re-certifies through the sanitizer");

        // Schema bump = wholesale invalidation.
        let bumped = json.replace(SCHEMA, "bernoulli.plancache/v0");
        assert!(PlanCache::from_json(&bumped).unwrap_err().starts_with("schema mismatch"));
        // An entry with an op tag this build does not know is dropped,
        // not fatal (forward compatibility within one schema version).
        let alien = json.replace("\"op\":\"spmv.min_plus\"", "\"op\":\"conv2d.direct\"");
        assert_ne!(alien, json);
        let partial = PlanCache::from_json(&alien).unwrap();
        assert_eq!(partial.stats().other_entries, 0);
        assert_eq!(partial.stats().spmv_entries, 1);
        // Malformed document is an error, not silently cold.
        assert!(PlanCache::from_json("{\"schema\":").is_err());
    }

    #[test]
    fn load_treats_missing_file_and_stale_schema_as_cold() {
        let dir = std::env::temp_dir().join("bernoulli_tune_test_cache");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("missing.json");
        let _ = std::fs::remove_file(&path);
        assert!(PlanCache::load(&path).unwrap().is_empty());

        let stale = dir.join("stale.json");
        std::fs::write(&stale, "{\"schema\":\"bernoulli.plancache/v999\",\"ops\":[]}").unwrap();
        assert!(PlanCache::load(&stale).unwrap().is_empty());

        let broken = dir.join("broken.json");
        std::fs::write(&broken, "{not json").unwrap();
        assert!(PlanCache::load(&broken).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
