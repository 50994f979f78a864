//! `pcg_solve`: one request is one CG solve preconditioned by symmetric
//! Gauss-Seidel, to a relative residual of 1e-8, on a 64³ 7-point grid
//! (262k rows, 1.8M nonzeros — a working set far beyond the caches).
//!
//! Why: kernel- and bandwidth-bound. `formats::{fast, kernels}` and
//! `solvers` do nearly all the work; `tune` and `analysis` do none
//! after set-up, so an optimisation of the warm dispatch path must
//! leave this workload flat.

use crate::host;
use crate::inputs::{perturb, vector, Rng};
use crate::oracle;
use crate::rounds::{Metric, Workload};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use bernoulli::{Operator, RelResult, SpmvEngine, SymGsEngine};
use bernoulli_formats::fast::{spmv_csr_fast, CsrCert};
use bernoulli_formats::gen::grid3d_7pt;
use bernoulli_formats::{kernels, par_kernels, Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::semiring::F64Plus;
use bernoulli_solvers::{cg, CgOptions, CgResult, Preconditioner, SymGs};
use bernoulli_tune::PlanCache;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const GRID: usize = 64;
const OPTS: CgOptions = CgOptions { max_iters: 200, rel_tol: 1e-8 };
/// Accepted true residual `‖b − A·x‖/‖b‖` of a converged solve.
const TRUE_RESIDUAL_TOL: f64 = 1e-6;
/// Right-hand sides the requests draw from.
const RHS_POOL: usize = 4;
/// Recorded repetitions of each kernel probe of a traced run.
const PROBE_REPS: usize = 3;

pub struct PcgSolve {
    ctx: ExecCtx,
    a: SparseMatrix,
    spmv: SpmvEngine,
    pre: SymGs,
    reference: Triplets,
    rhs: Vec<Vec<f64>>,
    /// Test-only: hold the residual check against a falsified
    /// right-hand side.
    corrupt: bool,
    /// Iterations the first solve of each right-hand side took.
    iters: Vec<usize>,
    rng: Rng,
}

/// Generate the grid, convert it, and compile both engines once
/// through a plan cache.
pub fn setup(seed: u64) -> PcgSolve {
    let mut rng = Rng::new(seed);
    let ctx = ExecCtx::serial().fast_kernels(true);
    let reference = perturb(&grid3d_7pt(GRID, GRID, GRID), seed);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &reference);
    let cache = PlanCache::new();
    let spmv = cache.spmv_engine(&a, &ctx).expect("spmv compiles");
    let pre = SymGs::with_engine_from(Csr::from_triplets(&reference), 1.0, |m| cache.symgs_engine(m, &ctx))
        .expect("symgs compiles");
    let rhs: Vec<Vec<f64>> = (0..RHS_POOL).map(|_| vector(&mut rng, reference.nrows())).collect();
    PcgSolve { ctx, a, spmv, pre, reference, rhs, corrupt: false, iters: Vec::new(), rng }
}

impl PcgSolve {
    fn solve(&self, k: usize, x: &mut [f64]) -> RelResult<CgResult> {
        cg(&self.spmv.bind(&self.a), &self.pre, &self.rhs[k], x, OPTS, &self.ctx)
    }

    /// Converged, and the answer really solves the system.
    fn solved(&self, k: usize, res: &RelResult<CgResult>, x: &[f64]) -> bool {
        let mut b = std::borrow::Cow::Borrowed(&self.rhs[k]);
        if self.corrupt {
            b.to_mut()[0] += 1e3;
        }
        matches!(res, Ok(r) if r.converged) && oracle::rel_residual(&self.reference, x, &b) <= TRUE_RESIDUAL_TOL
    }
}

impl Workload for PcgSolve {
    fn memory_share(&self) -> f64 {
        0.75
    }

    fn verify_setup(&mut self, corrupt: bool) -> (u64, u64) {
        self.corrupt = corrupt;
        let mut failed = 0;
        for k in 0..RHS_POOL {
            let mut x = vec![0.0; self.reference.nrows()];
            let res = self.solve(k, &mut x);
            failed += u64::from(!self.solved(k, &res, &x));
            self.iters.push(res.map_or(0, |r| r.iters));
        }
        (RHS_POOL as u64, failed)
    }

    fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        let mut x = vec![0.0; self.reference.nrows()];
        for _ in 0..n {
            let k = (self.rng.next_u64() % RHS_POOL as u64) as usize;
            x.fill(0.0);
            let t0 = Instant::now();
            let res = self.solve(k, &mut x);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let same_iters = matches!(&res, Ok(r) if r.iters == self.iters[k]);
            failed += u64::from(!(same_iters && self.solved(k, &res, &x)));
        }
        failed
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer) -> (Vec<Metric>, f64) {
        let n = self.reference.nrows();
        let csr = self.pre.matrix();
        let mut x = vec![0.0; n];

        // Traced solves: the operator and the preconditioner are
        // wrapped, so their applications nest inside the solve's span.
        let log = RefCell::new(Vec::new());
        let epoch = tracer.epoch();
        let op = Timed { inner: self.spmv.bind(&self.a), name: "core.run.spmv", log: &log, epoch };
        let pre = Timed { inner: &self.pre, name: "core.symgs.apply", log: &log, epoch };
        let (mut outer_s, mut solves, mut last) = (0.0, 0u32, None);
        let mut iters = Vec::new();
        let host_before = self.host_probe();
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds / 2.0 {
            let k = (self.rng.next_u64() % RHS_POOL as u64) as usize;
            x.fill(0.0);
            solves += 1;
            let outer = Instant::now();
            let (res, solve) =
                tracer.time(ROOT, solves, "solvers.cg", || cg(&op, &pre, &self.rhs[k], &mut x, OPTS, &self.ctx));
            for (name, start, end) in log.borrow_mut().drain(..) {
                tracer.push(solve, solves, name, start, end);
            }
            outer_s += outer.elapsed().as_secs_f64();
            let res = res.expect("traced solve");
            iters.push(res.iters as f64);
            last = Some((res, oracle::rel_residual(&self.reference, &x, &self.rhs[k])));
        }
        let slowdown = host::slowdown(host_before, self.host_probe(), self.memory_share());
        let (last, true_residual) = last.expect("at least one traced solve");
        let serial_solve_us = median(&tracer.durations_us("solvers.cg"));
        // What a solve does outside the operator and the preconditioner
        // (dots, axpys), per iteration.
        let vecops_per_iter: Vec<f64> = tracer.self_us("solvers.cg").iter().zip(&iters).map(|(us, n)| us / n).collect();

        // Kernel probes on the same operand, against a bandwidth
        // ceiling measured in this run. Bytes are *computed* from the
        // repo's own counter model, not measured.
        let v = vector(&mut self.rng, n);
        let mut y = vec![0.0; n];
        let cert = CsrCert::certify(csr).expect("generated CSR validates");
        let mut probe = |name: &'static str, f: &mut dyn FnMut(&mut [f64])| -> f64 {
            f(&mut y);
            for _ in 0..PROBE_REPS {
                tracer.time(ROOT, solves, name, || f(&mut y));
                black_box(&mut y);
            }
            median(&tracer.durations_us(name)) / 1e6
        };
        let fast_s = probe("formats.fast.spmv_csr", &mut |y| spmv_csr_fast(csr, &v, y, &cert));
        let ref_s = probe("formats.kernels.spmv_csr", &mut |y| kernels::spmv_csr(csr, &v, y));
        let symgs_s = probe("formats.kernels.symgs", &mut |y| {
            y.fill(0.0);
            kernels::symgs_forward_csr(csr, 1.0, &v, y);
            kernels::symgs_backward_csr(csr, 1.0, &v, y);
        });
        let spmv_bytes = self.spmv.bind(&self.a).model().bytes as f64;
        // Two sweeps of the triangular-solve model: values and indices
        // read once, right-hand side read and solution written once.
        let symgs_bytes = 2.0 * 8.0 * (2 * csr.nnz() + 2 * n) as f64;
        let triad = host::triad();
        println!(
            "pcg_solve/trace: triad arrays {} MiB each, last-level cache {} MiB (sysfs)",
            triad.array_bytes >> 20,
            triad.llc_bytes >> 20
        );

        // The shared-memory parallel tier on the same operand (recorded
        // here, not a workload: see README, "pcg_solve_par").
        let par = ExecCtx::parallel().fast_kernels(true);
        let par_spmv_s =
            probe("formats.par_kernels.spmv_csr", &mut |y| par_kernels::par_spmv_csr_in::<F64Plus>(csr, &v, y, &par));
        let par_symgs = SymGsEngine::compile_in(csr, &par).expect("parallel symgs compiles");
        let par_symgs_s =
            probe("core.symgs.apply_par", &mut |y| par_symgs.apply_ssor(csr, 1.0, &v, y).expect("parallel sweeps"));
        let par_spmv = SpmvEngine::compile_in(&self.a, &par).expect("parallel spmv compiles");
        let par_pre = SymGs::new(csr.clone(), &par).expect("parallel symgs compiles");
        for _ in 0..PROBE_REPS {
            x.fill(0.0);
            let (res, _) = tracer.time(ROOT, solves, "solvers.cg_par", || {
                cg(&par_spmv.bind(&self.a), &par_pre, &self.rhs[0], &mut x, OPTS, &par)
            });
            black_box(res.is_ok());
        }
        let par_solve_us = median(&tracer.durations_us("solvers.cg_par"));

        let spmv_gbs = spmv_bytes / fast_s / 1e9;
        let metrics = vec![
            ("solvers.cg.iters", last.iters as f64, "count"),
            ("solvers.cg.rel_residual", true_residual, "ratio"),
            ("core.run.spmv.us", median(&tracer.durations_us("core.run.spmv")), "us"),
            ("core.symgs.apply.us", median(&tracer.durations_us("core.symgs.apply")), "us"),
            ("solvers.vecops.self_us", median(&vecops_per_iter), "us"),
            ("formats.kernel.spmv.gbs", spmv_gbs, "GB/s"),
            ("formats.kernel.symgs.gbs", symgs_bytes / symgs_s / 1e9, "GB/s"),
            ("host.triad_gbs", triad.gbs, "GB/s"),
            ("formats.kernel.spmv.roofline_frac", spmv_gbs / triad.gbs, "ratio"),
            ("formats.kernel.spmv.fast_over_ref", ref_s / fast_s, "ratio"),
            ("formats.par_kernels.spmv.speedup_2t", ref_s / par_spmv_s, "ratio"),
            ("core.symgs.par_speedup_2t", symgs_s / par_symgs_s, "ratio"),
            ("solvers.cg.par_speedup_2t", serial_solve_us / par_solve_us, "ratio"),
        ];
        (metrics, f64::from(solves) / outer_s * slowdown)
    }
}

/// `(span name, start_ns, end_ns)` of applications inside a solve.
type Log = RefCell<Vec<(&'static str, u64, u64)>>;

/// An operator or preconditioner that logs each application.
struct Timed<'a, T> {
    inner: T,
    name: &'static str,
    log: &'a Log,
    epoch: Instant,
}

impl<T> Timed<'_, T> {
    fn logged<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&self.inner);
        self.log.borrow_mut().push((self.name, start, self.epoch.elapsed().as_nanos() as u64));
        out
    }
}

impl<T: Operator> Operator for Timed<'_, T> {
    fn out_len(&self) -> usize {
        self.inner.out_len()
    }

    fn in_len(&self) -> usize {
        self.inner.in_len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.logged(|op| op.apply(x, y))
    }
}

impl Preconditioner for Timed<'_, &SymGs> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.logged(|pre| pre.precondition(r, z))
    }
}
