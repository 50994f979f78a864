//! `compile_cold`: one request is one first-encounter compile through
//! a fresh `PlanCache` — compile only, no run.
//!
//! Why: the same `tune::cache` / `core::pipeline` layers as
//! `dispatch_warm`, used the other way — inserts, not lookups. Work
//! moved out of the warm path into compile or `register` shows here
//! (and in every `setup_s`); the `formats` kernels do nothing. The
//! context arms the whole gate chain on any host (two workers,
//! oversubscribed, zero size threshold, fast tier on), and the SpMV
//! third of the requests rotates through every sparse format so the
//! planner and the non-CSR keying path run per format.

use crate::host;
use crate::inputs::{group, vector, Rng, GROUPS};
use crate::oracle;
use crate::rounds::{Metric, Workload};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use bernoulli::ast::programs;
use bernoulli::lower::extract_query;
use bernoulli::{RelResult, SpmvEngine, SptrsvEngine, SymGsEngine, TriangularOp};
use bernoulli_analysis::check_do_any;
use bernoulli_analysis::wavefront::{analyze_wavefront, verify_level_schedule, Triangle};
use bernoulli_formats::fast::MatrixCert;
use bernoulli_formats::{Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta};
use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
use bernoulli_relational::planner::{Planner, QueryMeta};
use bernoulli_tune::{structure_key, PlanCache};
use std::hint::black_box;
use std::time::Instant;

const LOWER: TriangularOp = TriangularOp::Lower { unit_diag: false };
/// Recorded probe replays per (matrix, op) of a traced run.
const PROBE_REPS: usize = 3;

enum Operand {
    Spmv(SparseMatrix),
    Sptrsv(Csr),
    Symgs(Csr),
}

enum Engine {
    Spmv(SpmvEngine),
    Sptrsv(SptrsvEngine),
    Symgs(SymGsEngine),
}

struct Item {
    operand: Operand,
    /// The operand as canonical triplets, for the oracle.
    reference: Triplets,
    rhs: Vec<f64>,
}

impl Item {
    fn compile(&self, cache: &PlanCache, ctx: &ExecCtx) -> RelResult<Engine> {
        Ok(match &self.operand {
            Operand::Spmv(a) => Engine::Spmv(cache.spmv_engine(a, ctx)?),
            Operand::Sptrsv(l) => Engine::Sptrsv(cache.sptrsv_engine(l, LOWER, ctx)?),
            Operand::Symgs(a) => Engine::Symgs(cache.symgs_engine(a, ctx)?),
        })
    }

    fn span(&self) -> &'static str {
        match self.operand {
            Operand::Spmv(_) => "tune.compile_cold.spmv",
            Operand::Sptrsv(_) => "tune.compile_cold.sptrsv",
            Operand::Symgs(_) => "tune.compile_cold.symgs",
        }
    }
}

impl Engine {
    /// What the gate chain decided; must repeat on every cold compile.
    fn verdict(&self) -> String {
        match self {
            Engine::Spmv(e) => format!("{:?}/{}/{}", e.strategy(), e.tier(), e.plan_shape()),
            Engine::Sptrsv(e) => format!("{:?}/{}", e.strategy(), e.downgrade()),
            Engine::Symgs(e) => format!("{:?}/{}", e.strategy(), e.downgrade()),
        }
    }
}

pub struct CompileCold {
    ctx: ExecCtx,
    items: Vec<Item>,
    order: Vec<usize>,
    rng: Rng,
    /// Engines and cache of the set-up's cold pass.
    first: Vec<Option<Engine>>,
    first_cache: PlanCache,
    verdicts: Vec<String>,
}

/// The sparse formats the SpMV requests rotate through.
fn sparse_formats() -> Vec<FormatKind> {
    FormatKind::ALL.into_iter().filter(|&k| k != FormatKind::Dense).collect()
}

/// Generate 16 groups, convert to the operand forms, and compile every
/// (matrix, op) once through a new cache.
pub fn setup(seed: u64) -> CompileCold {
    let mut rng = Rng::new(seed);
    let ctx = ExecCtx::with_threads(2).oversubscribe(true).threshold(1).fast_kernels(true);
    let formats = sparse_formats();
    let mut items = Vec::new();
    for g in 0..GROUPS {
        let grp = group(g, seed);
        let spmv = SparseMatrix::from_triplets(formats[g % formats.len()], &grp.grid2d);
        for (operand, reference) in [
            (Operand::Spmv(spmv), grp.grid2d),
            (Operand::Sptrsv(Csr::from_triplets(&grp.lower)), grp.lower),
            (Operand::Symgs(Csr::from_triplets(&grp.grid3d)), grp.grid3d),
        ] {
            let rhs = vector(&mut rng, reference.ncols());
            items.push(Item { operand, reference, rhs });
        }
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut order);
    let first_cache = PlanCache::new();
    let mut first: Vec<Option<Engine>> = items.iter().map(|_| None).collect();
    for &i in &order {
        first[i] = items[i].compile(&first_cache, &ctx).ok();
    }
    let verdicts = first.iter().map(|e| e.as_ref().map_or(String::new(), Engine::verdict)).collect();
    CompileCold { ctx, items, order, rng, first, first_cache, verdicts }
}

impl Workload for CompileCold {
    fn memory_share(&self) -> f64 {
        0.4
    }

    fn unit(&self) -> usize {
        self.items.len()
    }

    /// Runs each engine of the cold pass once against the oracle (the
    /// only place this workload executes a kernel).
    fn verify_setup(&mut self, corrupt: bool) -> (u64, u64) {
        let mut failed = 0;
        for (i, (item, engine)) in self.items.iter().zip(&self.first).enumerate() {
            let t = &item.reference;
            let mut rhs = item.rhs.clone();
            let mut out = vec![0.0; t.nrows()];
            let ran = match (engine, &item.operand) {
                (Some(Engine::Spmv(e)), Operand::Spmv(a)) => e.run(a, &rhs, &mut out).is_ok(),
                (Some(Engine::Sptrsv(e)), Operand::Sptrsv(l)) => e.run(l, &rhs, &mut out).is_ok(),
                (Some(Engine::Symgs(e)), Operand::Symgs(a)) => e.apply_ssor(a, 1.0, &rhs, &mut out).is_ok(),
                _ => false,
            };
            if corrupt && i == 0 {
                rhs[0] += 1.0;
            }
            let ok = ran
                && match item.operand {
                    Operand::Spmv(_) => {
                        let (y, scale) = oracle::spmv_multi(t, &rhs, 1);
                        oracle::close(&out, &y, &scale)
                    }
                    Operand::Sptrsv(_) => oracle::solves(t, &out, &rhs),
                    Operand::Symgs(_) => oracle::is_symgs_of(t, &out, &rhs),
                };
            failed += u64::from(!ok);
        }
        // Every structure is distinct, so the pass must have been all misses.
        let stats = self.first_cache.stats();
        failed += u64::from(stats.hits != 0 || stats.misses != self.items.len() as u64);
        (self.items.len() as u64 + 1, failed)
    }

    fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for _ in 0..n / self.items.len() {
            let cache = PlanCache::new();
            self.rng.shuffle(&mut self.order);
            for &i in &self.order {
                let t0 = Instant::now();
                let engine = self.items[i].compile(&cache, &self.ctx);
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                failed += u64::from(!matches!(&engine, Ok(e) if e.verdict() == self.verdicts[i]));
            }
        }
        failed
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer) -> (Vec<Metric>, f64) {
        let (mut outer_s, mut n) = (0.0, 0u32);
        let host_before = self.host_probe();
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds / 2.0 {
            let cache = PlanCache::new();
            self.rng.shuffle(&mut self.order);
            for &i in &self.order {
                n += 1;
                let outer = Instant::now();
                let (engine, _) =
                    tracer.time(ROOT, n, self.items[i].span(), || self.items[i].compile(&cache, &self.ctx));
                outer_s += outer.elapsed().as_secs_f64();
                black_box(engine.is_ok());
            }
        }

        let slowdown = host::slowdown(host_before, self.host_probe(), self.memory_share());

        // Layer probes: each gate of the chain called on its own, as a
        // child of a direct cold compile of the same operand.
        let ctx = &self.ctx;
        let warm = PlanCache::new();
        let planner = Planner::default();
        let mut req = n;
        for item in &self.items {
            for rep in 0..PROBE_REPS {
                req += 1;
                match &item.operand {
                    Operand::Spmv(a) => {
                        let (_, cold) =
                            tracer.time(ROOT, req, "core.compile_cold.spmv", || SpmvEngine::compile_in(a, ctx).is_ok());
                        let nest = programs::matvec();
                        let query = extract_query(&nest).expect("matvec lowers");
                        let m = a.meta();
                        let meta = QueryMeta::new()
                            .mat(MAT_A, m)
                            .vec(VEC_X, VecMeta::dense(m.ncols))
                            .vec(VEC_Y, VecMeta::dense(m.nrows));
                        tracer.time(cold, req, "relational.planner.plan", || planner.plan(&query, &meta).is_ok());
                        tracer.time(cold, req, "analysis.race.check", || check_do_any(&nest).is_parallel_safe());
                        let csr = SparseMatrix::from_triplets(FormatKind::Csr, &item.reference);
                        tracer.time(ROOT, req, "formats.fast.certify", || MatrixCert::certify(&csr).is_ok());
                        tracer.time(ROOT, req, "tune.key.csr", || structure_key(&csr));
                        if a.kind() != FormatKind::Csr {
                            tracer.time(ROOT, req, "tune.key.noncsr", || structure_key(a));
                        }
                    }
                    Operand::Sptrsv(l) => {
                        let (_, cold) = tracer.time(ROOT, req, "core.compile_cold.sptrsv", || {
                            SptrsvEngine::compile_in(l, LOWER, ctx).is_ok()
                        });
                        let (n, rp, ci) = (l.nrows(), l.rowptr(), l.colind());
                        let (report, _) = tracer.time(cold, req, "analysis.wavefront.analyze", || {
                            analyze_wavefront(n, rp, ci, Triangle::Lower)
                        });
                        let sched = report.schedule.expect("generated lower triangle schedules");
                        tracer.time(cold, req, "analysis.wavefront.verify", || {
                            verify_level_schedule(n, rp, ci, Triangle::Lower, &sched).is_empty()
                        });
                        if rep == 0 {
                            drop(warm.sptrsv_engine(l, LOWER, ctx));
                        }
                        tracer
                            .time(ROOT, req, "tune.compile_warm.sptrsv", || warm.sptrsv_engine(l, LOWER, ctx).is_ok());
                    }
                    Operand::Symgs(a) => {
                        tracer.time(ROOT, req, "core.compile_cold.symgs", || SymGsEngine::compile_in(a, ctx).is_ok());
                        if rep == 0 {
                            drop(warm.symgs_engine(a, ctx));
                        }
                        tracer.time(ROOT, req, "tune.compile_warm.symgs", || warm.symgs_engine(a, ctx).is_ok());
                    }
                }
            }
        }

        // Persistence round trip of the cache the set-up populated.
        let mut json_bytes = 0;
        for _ in 0..PROBE_REPS {
            req += 1;
            tracer.time(ROOT, req, "tune.cache.roundtrip", || {
                let json = self.first_cache.to_json();
                json_bytes = json.len();
                black_box(PlanCache::from_json(&json).is_ok())
            });
        }

        let p50 = |name: &str| median(&tracer.durations_us(name));
        let cold = p50("core.compile_cold.sptrsv") + p50("core.compile_cold.symgs");
        let warmed = p50("tune.compile_warm.sptrsv") + p50("tune.compile_warm.symgs");
        let metrics = vec![
            ("core.compile_cold.spmv.us", p50("core.compile_cold.spmv"), "us"),
            ("core.compile_cold.sptrsv.us", p50("core.compile_cold.sptrsv"), "us"),
            ("core.compile_cold.symgs.us", p50("core.compile_cold.symgs"), "us"),
            ("relational.planner.plan.us", p50("relational.planner.plan"), "us"),
            ("analysis.race.check.us", p50("analysis.race.check"), "us"),
            ("analysis.wavefront.analyze.us", p50("analysis.wavefront.analyze"), "us"),
            ("analysis.wavefront.verify.us", p50("analysis.wavefront.verify"), "us"),
            ("formats.fast.certify.us", p50("formats.fast.certify"), "us"),
            ("tune.key.csr.us", p50("tune.key.csr"), "us"),
            ("tune.key.noncsr.us", p50("tune.key.noncsr"), "us"),
            ("tune.compile_warm.sptrsv.us", p50("tune.compile_warm.sptrsv"), "us"),
            ("tune.compile_warm.symgs.us", p50("tune.compile_warm.symgs"), "us"),
            ("tune.compile.cold_over_warm", cold / warmed, "ratio"),
            ("tune.cache.roundtrip_ms", p50("tune.cache.roundtrip") / 1e3, "ms"),
            ("tune.cache.json_bytes", json_bytes as f64, "B"),
        ];
        (metrics, f64::from(n) / outer_s * slowdown)
    }
}
