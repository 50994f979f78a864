//! `dispatch_warm`: one request is one `Dispatcher::submit` against a
//! registered population, every plan already cached.
//!
//! Why: on 12–27k-nonzero operands the kernel is a small part of a warm
//! submit; the rest is the per-request tax of `tune` and
//! `core::pipeline` (an O(nnz) structure key, two mutex takes, a hinted
//! compile, a fresh result vector). This workload is where making the
//! warm path kernel-bound shows, and where `formats` kernels matter
//! least.

use crate::alloc;
use crate::host;
use crate::inputs::{group, vector, Rng, GROUPS};
use crate::oracle;
use crate::rounds::{Metric, Workload};
use crate::stats::{mean, median};
use crate::trace::{Tracer, ROOT};
use bernoulli::pipeline::OpSpec;
use bernoulli::TriangularOp;
use bernoulli_formats::fast::{spmv_csr_fast, CsrCert};
use bernoulli_formats::{kernels, Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::semiring::{MinPlus, Semiring};
use bernoulli_tune::{structure_key, structure_key_csr, Dispatcher, MatrixId, PlanCache};
use std::hint::black_box;
use std::time::Instant;

const LOWER: TriangularOp = TriangularOp::Lower { unit_diag: false };
const MULTI_K: usize = 2;
/// Key and kernel probe passes of a traced run.
const PROBE_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Spmv,
    SpmvMulti,
    MinPlus,
    Sptrsv,
    Symgs,
}

impl Kind {
    fn spec(self) -> OpSpec {
        match self {
            Kind::Spmv => OpSpec::Spmv,
            Kind::SpmvMulti => OpSpec::SpmvMulti { k: MULTI_K },
            Kind::MinPlus => OpSpec::SemiringSpmv { algebra: MinPlus::NAME },
            Kind::Sptrsv => OpSpec::Sptrsv { op: LOWER },
            Kind::Symgs => OpSpec::Symgs,
        }
    }

    /// Right-hand sides per request.
    fn width(self) -> usize {
        if self == Kind::SpmvMulti {
            MULTI_K
        } else {
            1
        }
    }

    /// What a result starts from: the algebra's additive identity.
    fn init(self) -> f64 {
        if self == Kind::MinPlus {
            MinPlus::zero()
        } else {
            0.0
        }
    }

    fn submit_span(self) -> &'static str {
        match self {
            Kind::Spmv => "tune.submit.spmv",
            Kind::SpmvMulti => "tune.submit.spmv_multi",
            Kind::MinPlus => "tune.submit.spmv_min_plus",
            Kind::Sptrsv => "tune.submit.sptrsv",
            Kind::Symgs => "tune.submit.symgs",
        }
    }
}

struct Request {
    id: MatrixId,
    /// Index into `refs`.
    mat: usize,
    kind: Kind,
    rhs: Vec<f64>,
}

pub struct DispatchWarm {
    ctx: ExecCtx,
    dispatcher: Dispatcher,
    requests: Vec<Request>,
    /// Request order of the current pass, reshuffled every pass.
    stream: Vec<usize>,
    pos: usize,
    rng: Rng,
    /// Output of each request's first (cold) submit; empty on `Err`.
    first: Vec<Vec<f64>>,
    /// The registered matrices as canonical triplets, for the oracle.
    refs: Vec<Triplets>,
}

/// Generate and register 48 matrices in 16 groups, then serve every
/// request once cold.
pub fn setup(seed: u64) -> DispatchWarm {
    let mut rng = Rng::new(seed);
    let ctx = ExecCtx::serial().fast_kernels(true);
    let mut dispatcher = Dispatcher::new(ctx.clone());
    let (mut requests, mut refs) = (Vec::new(), Vec::new());
    for g in 0..GROUPS {
        let grp = group(g, seed);
        for (t, kinds) in [
            (grp.grid2d, &[Kind::Spmv, Kind::SpmvMulti, Kind::MinPlus][..]),
            (grp.lower, &[Kind::Sptrsv][..]),
            (grp.grid3d, &[Kind::Symgs, Kind::Spmv][..]),
        ] {
            let id = dispatcher.register(&t);
            for &kind in kinds {
                let rhs = vector(&mut rng, t.ncols() * kind.width());
                requests.push(Request { id, mat: refs.len(), kind, rhs });
            }
            refs.push(t);
        }
    }
    let mut stream: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut stream);
    let mut first = vec![Vec::new(); requests.len()];
    for &i in &stream {
        let r = &requests[i];
        first[i] = dispatcher.submit(r.id, r.kind.spec(), &r.rhs).unwrap_or_default();
    }
    let pos = stream.len();
    DispatchWarm { ctx, dispatcher, requests, stream, pos, rng, first, refs }
}

/// A compiled engine's run call, writing the result into its argument.
type RunEngine<'a> = Box<dyn Fn(&mut [f64]) + 'a>;

/// What a submit does before the kernel: compile through the cache
/// (a hit once seeded) and hand back the engine's run call.
fn warm_engine<'a>(
    cache: &PlanCache,
    r: &'a Request,
    mat: &'a SparseMatrix,
    csr: &'a Csr,
    ctx: &ExecCtx,
) -> RunEngine<'a> {
    let rhs = &r.rhs[..];
    match r.kind {
        Kind::Spmv => {
            let e = cache.spmv_engine(mat, ctx).expect("probe compile");
            Box::new(move |out| e.run(mat, rhs, out).expect("probe run"))
        }
        Kind::SpmvMulti => {
            let e = cache.spmv_multi_engine(mat, MULTI_K, ctx).expect("probe compile");
            Box::new(move |out| e.run(mat, rhs, out).expect("probe run"))
        }
        Kind::MinPlus => {
            let e = cache.semiring_spmv_engine::<MinPlus>(mat, ctx).expect("probe compile");
            Box::new(move |out| e.run(mat, rhs, out).expect("probe run"))
        }
        Kind::Sptrsv => {
            let e = cache.sptrsv_engine(csr, LOWER, ctx).expect("probe compile");
            Box::new(move |out| e.run(csr, rhs, out).expect("probe run"))
        }
        Kind::Symgs => {
            let e = cache.symgs_engine(csr, ctx).expect("probe compile");
            Box::new(move |out| e.apply_ssor(csr, 1.0, rhs, out).expect("probe run"))
        }
    }
}

/// The kernel a serial, fast-tier engine of this kind ends up in,
/// called with nothing around it.
fn bare_kernel(r: &Request, csr: &Csr, cert: &CsrCert, y: &mut [f64]) {
    match r.kind {
        Kind::Spmv => spmv_csr_fast(csr, &r.rhs, y, cert),
        Kind::SpmvMulti => kernels::spmm_csr_dense(csr, &r.rhs, MULTI_K, y),
        Kind::MinPlus => kernels::spmv_csr_in::<MinPlus>(csr, &r.rhs, y),
        Kind::Sptrsv => kernels::sptrsv_csr_lower(csr, false, &r.rhs, y),
        Kind::Symgs => {
            kernels::symgs_forward_csr(csr, 1.0, &r.rhs, y);
            kernels::symgs_backward_csr(csr, 1.0, &r.rhs, y);
        }
    }
}

impl DispatchWarm {
    fn next_request(&mut self) -> usize {
        if self.pos == self.stream.len() {
            self.rng.shuffle(&mut self.stream);
            self.pos = 0;
        }
        self.pos += 1;
        self.stream[self.pos - 1]
    }
}

impl Workload for DispatchWarm {
    fn memory_share(&self) -> f64 {
        0.5
    }

    fn unit(&self) -> usize {
        self.requests.len()
    }

    fn verify_setup(&mut self, corrupt: bool) -> (u64, u64) {
        let mut failed = 0;
        for (i, (r, out)) in self.requests.iter().zip(&self.first).enumerate() {
            let t = &self.refs[r.mat];
            let falsify = |mut v: Vec<f64>| {
                if corrupt && i == 0 {
                    v[0] += 1.0;
                }
                v
            };
            let ok = match r.kind {
                Kind::Spmv | Kind::SpmvMulti => {
                    let (y, scale) = oracle::spmv_multi(t, &r.rhs, r.kind.width());
                    oracle::close(out, &falsify(y), &scale)
                }
                Kind::MinPlus => oracle::bitwise_eq(out, &falsify(oracle::min_plus(t, &r.rhs))),
                Kind::Sptrsv => oracle::solves(t, out, &falsify(r.rhs.clone())),
                Kind::Symgs => oracle::is_symgs_of(t, out, &falsify(r.rhs.clone())),
            };
            failed += u64::from(!ok);
        }
        (self.requests.len() as u64, failed)
    }

    fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for _ in 0..n {
            let i = self.next_request();
            let r = &self.requests[i];
            let t0 = Instant::now();
            let out = self.dispatcher.submit(r.id, r.kind.spec(), &r.rhs);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            // Warm replays must reproduce the cold result bit for bit.
            failed += u64::from(!matches!(&out, Ok(y) if oracle::bitwise_eq(y, &self.first[i])));
        }
        failed
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer) -> (Vec<Metric>, f64) {
        // Equal operands and a seeded cache of the harness's own, for
        // replaying what a warm submit does inside, one public call at
        // a time.
        let types = self.requests.len();
        let cache = PlanCache::new();
        let operands: Vec<(SparseMatrix, Csr)> = self
            .refs
            .iter()
            .map(|t| (SparseMatrix::from_triplets(FormatKind::Csr, t), Csr::from_triplets(t)))
            .collect();
        let certs: Vec<CsrCert> =
            operands.iter().map(|(_, csr)| CsrCert::certify(csr).expect("generated CSR validates")).collect();
        for r in &self.requests {
            let (mat, csr) = &operands[r.mat];
            drop(warm_engine(&cache, r, mat, csr, &self.ctx));
        }

        // Traced requests: one span per submit, allocations counted
        // around exactly that call. Each is followed at once by its
        // replay — compile through the warm cache, then run — so both
        // meet the same host speed, and the replay's operand copy is as
        // cold in the hardware caches as the dispatcher's was.
        let by_type = || vec![Vec::<f64>::new(); types];
        let (mut submit_us, mut compile_us, mut run_us, mut key_us) = (by_type(), by_type(), by_type(), by_type());
        let mut compile_spans = vec![Vec::new(); types];
        let (mut allocs, mut bytes, mut outer_s, mut n) = (0u64, 0u64, 0.0, 0u32);
        let host_before = self.host_probe();
        alloc::enable(true);
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds / 2.0 {
            let i = self.next_request();
            let r = &self.requests[i];
            n += 1;
            let outer = Instant::now();
            let ((out, before, after), submit) = tracer.time(ROOT, n, r.kind.submit_span(), || {
                let before = alloc::snapshot();
                let out = self.dispatcher.submit(r.id, r.kind.spec(), &r.rhs);
                (out, before, alloc::snapshot())
            });
            outer_s += outer.elapsed().as_secs_f64();
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
            black_box(out.ok());

            let (mat, csr) = &operands[r.mat];
            let (engine, compile) =
                tracer.time(ROOT, n, "tune.compile_warm", || warm_engine(&cache, r, mat, csr, &self.ctx));
            let (_, run) = tracer.time(ROOT, n, "core.run", || {
                let mut out = vec![r.kind.init(); csr.nrows() * r.kind.width()];
                engine(&mut out);
                black_box(out);
            });
            submit_us[i].push(tracer.span_us(submit));
            compile_us[i].push(tracer.span_us(compile));
            run_us[i].push(tracer.span_us(run));
            compile_spans[i].push(compile);
        }
        alloc::enable(false);
        let slowdown = host::slowdown(host_before, self.host_probe(), self.memory_share());

        // The structure key a compile computes and the kernel a run ends
        // up in, each on its own in a pass of its own, in stream order
        // (cold operands again). A key span hangs under a compile span
        // of its request type, so compile self time is compile minus key.
        let mut compile_self = Vec::new();
        for rep in 0..PROBE_REPS {
            let req = |pos: usize| n + (rep * types + pos) as u32 + 1;
            for (pos, &i) in self.stream.iter().enumerate() {
                let r = &self.requests[i];
                let (mat, csr) = &operands[r.mat];
                let parent = compile_spans[i].get(rep).copied().unwrap_or(ROOT);
                let (_, key) = tracer.time(parent, req(pos), "tune.key", || match r.kind {
                    Kind::Sptrsv | Kind::Symgs => black_box(structure_key_csr(csr)),
                    _ => black_box(structure_key(mat)),
                });
                key_us[i].push(tracer.span_us(key));
                if parent != ROOT {
                    compile_self.push(tracer.span_us(parent) - tracer.span_us(key));
                }
            }
            for (pos, &i) in self.stream.iter().enumerate() {
                let r = &self.requests[i];
                let csr = &operands[r.mat].1;
                let mut y = vec![r.kind.init(); csr.nrows() * r.kind.width()];
                tracer.time(ROOT, req(pos), "formats.kernel", || bare_kernel(r, csr, &certs[r.mat], &mut y));
                black_box(&mut y);
            }
        }

        // Does the replay account for a submit? Medians per request
        // type (a stolen time slice must not count), averaged over the
        // types, which the stream visits equally often.
        let typed = |by_type: &[Vec<f64>]| {
            mean(&by_type.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect::<Vec<_>>())
        };
        let (submit_typed, key_typed, compile_typed, run_typed) =
            (typed(&submit_us), typed(&key_us), typed(&compile_us), typed(&run_us));
        println!(
            "dispatch_warm/trace: a submit of {submit_typed:.2} us = key {key_typed:.2} + compile-warm self {:.2} \
             + run {run_typed:.2} + residual {:.2} (result allocation, registry, latency span); \
             the replayed layers account for {:.1} % of it",
            compile_typed - key_typed,
            submit_typed - compile_typed - run_typed,
            100.0 * (compile_typed + run_typed) / submit_typed,
        );

        let submit = tracer.durations_us_prefix("tune.submit.");
        let kernel = tracer.durations_us("formats.kernel");
        let compile = tracer.durations_us("tune.compile_warm");
        let run = tracer.durations_us("core.run");
        let stats = self.dispatcher.stats();
        let mut metrics: Vec<Metric> = vec![
            ("tune.submit.us", median(&submit), "us"),
            ("tune.key.us", median(&tracer.durations_us("tune.key")), "us"),
            ("tune.compile_warm.us", median(&compile), "us"),
            ("tune.compile_warm.self_us", median(&compile_self), "us"),
            ("core.run.us", median(&run), "us"),
            ("formats.kernel.us", median(&kernel), "us"),
            ("tune.submit.overhead_ratio", median(&submit) / median(&kernel), "ratio"),
            ("tune.cache.hit_ratio", stats.hit_rate(), "ratio"),
            ("tune.cache.entries", stats.cache.entries() as f64, "count"),
            ("mem.allocs_per_req", allocs as f64 / f64::from(n), "count"),
            ("mem.alloc_bytes_per_req", bytes as f64 / f64::from(n), "B"),
        ];
        for (name, kind) in [
            ("tune.submit.spmv.us", Kind::Spmv),
            ("tune.submit.spmv_multi.us", Kind::SpmvMulti),
            ("tune.submit.spmv_min_plus.us", Kind::MinPlus),
            ("tune.submit.sptrsv.us", Kind::Sptrsv),
            ("tune.submit.symgs.us", Kind::Symgs),
        ] {
            metrics.push((name, median(&tracer.durations_us(kind.submit_span())), "us"));
        }
        (metrics, f64::from(n) / outer_s * slowdown)
    }
}
