//! Preconditioned Conjugate Gradients (Saad; the paper's §4 solver).
//!
//! One recurrence, two machines, two forms. The paper compiles the SPMD
//! program as the sequential one evaluated over distributed relations:
//! the distribution changes where vector entries live and what a dot
//! product reduces, never the program. So the CG loop is written once,
//! over a crate-private seam (`Form`) of four steps — open, apply the
//! operator to the direction with its inner product, update, new
//! direction — and its general form is written once too, over a
//! vector-space seam (`Space`) that holds exactly what the machines
//! differ in: applying `A`, reducing inner products, the two vector
//! updates, and whether the opening residual needs a product. [`cg`]
//! runs it in one address space over any [`Operator`], with all policy
//! in one [`ExecCtx`]; [`cg_parallel`] runs it on one rank of the
//! machine's [`Ctx`] over local fragments and a communicating matvec
//! closure. Both machines reduce every inner product in the one shape
//! of [`crate::vecops`], and both skip the opening product when the
//! whole guess is zero (`b − A·0` is `b` to the bit for finite `A`):
//! one address space sees the whole guess, the ranks agree on it in
//! one all-reduce, so every rank takes the same branch and no ghost
//! exchange is left unmatched.
//!
//! The second form is a storage choice made by proof, the paper's §6
//! thesis one level up: when the preconditioner is [`SymGs`] and the
//! operator is provably its own matrix
//! ([`Preconditioner::split_form`]), [`cg`] runs Eisenstat's form over
//! the sweep split ([`SplitStep`]) — an iteration is one backward and
//! one forward pass over the strict triangles and one fused vector
//! pass, with no product by `A`. Its iterates are the general form's
//! in exact arithmetic for symmetric `A` (CG's own contract), and it
//! tracks `r` in the original space, so the stopping test and
//! `residual_history` read ‖r‖₂ exactly as the general form's do.
//!
//! Neither form allocates its vectors per solve. Each takes them from
//! its thread's spares (a solver-private pool holding at most one
//! form's worth, larger orders displacing smaller) and gives them back
//! when it drops, so a repeat solve on a thread — [`cg`]'s caller, or
//! a persistent SPMD rank in [`cg_parallel`] — allocates nothing of
//! the operand's order; only `residual_history` grows. A fresh vector
//! per solve would make solve time depend on where the allocator put
//! it: pages it had just mapped fault in on first touch, warm ones do
//! not. `r` starts as a copy of `b` and every other vector at `+0.0`,
//! so a solve's bits never depend on what its spares last held.

use crate::precond::Preconditioner;
use crate::symgs::SymGs;
use crate::vecops::{axpy, dot, par_axpy, par_dot, par_xpby, xpby};
use bernoulli::{ExecCtx, Operator, RelError, RelResult};
use bernoulli_formats::kernels::SplitStep;
use bernoulli_obs::events::SolverTrace;
use bernoulli_spmd::machine::Ctx;
use std::cell::RefCell;
use std::convert::Infallible;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Hard iteration cap (the paper fixes 10 iterations for Table 2).
    pub max_iters: usize,
    /// Relative residual tolerance; set to 0.0 to always run
    /// `max_iters` iterations (benchmark mode).
    pub rel_tol: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { max_iters: 500, rel_tol: 1e-10 }
    }
}

/// Solve outcome.
#[derive(Clone, Debug)]
pub struct CgResult {
    pub iters: usize,
    /// ‖r‖₂ after the last iteration.
    pub final_residual: f64,
    /// ‖r‖₂ per iteration (index 0 = initial residual).
    pub residual_history: Vec<f64>,
    /// The target was met — in benchmark mode, the iterations ran — and
    /// the final residual is finite.
    pub converged: bool,
}

/// Preconditioned CG: solves `A x = b` with `x` as the initial guess
/// (commonly zero) and `op` applying `A` (any [`Operator`]: a bound
/// engine, a raw matrix, a matrix-free closure).
///
/// The context decides everything else. `ExecCtx::default()` is the
/// serial solver; a parallel ctx dispatches the hot vector operations
/// (dots, norms, axpy-style updates) through its thread pool, with the
/// serial general form's bits for any worker count; an [instrumented](ExecCtx::instrument) ctx records the
/// whole solve as a `solver.cg` span plus a [`SolverTrace`] of the
/// residual history the solver already keeps. With a disabled handle
/// the trace closure never runs.
///
/// When `precond` proves `op` is its own matrix
/// ([`Preconditioner::split_form`]) and the ctx would run the vector
/// operations serially (`!ctx.should_parallelize(b.len())`), the solve
/// runs Eisenstat's form (see the module docs): the same iteration
/// count and residuals to rounding. Its fused vector pass is serial, so
/// a ctx that parallelises vector work keeps the general form and never
/// asks for the proof. The proof reads the arrays once per value
/// version of `op` ([`SymGs`]'s `split_form`), so a repeat solve on an
/// unchanged operator skips it.
pub fn cg(
    op: &dyn Operator,
    precond: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: CgOptions,
    ctx: &ExecCtx,
) -> RelResult<CgResult> {
    let obs = ctx.obs();
    let span = obs.span("solver.cg");
    let shared = Shared { op, ctx };
    // Split's vector pass is serial: a ctx that would run the general
    // form's vector operations on its pool keeps the general form, and
    // is not made to pay for a proof it would not use.
    let split = || (!ctx.should_parallelize(b.len())).then(|| precond.split_form(op)).flatten();
    let res = crate::check_square_system("cg", op, precond.dim(), b, x).and_then(|()| match split() {
        Some(pre) => pcg(&mut Split::new(shared, pre, b), b, x, opts),
        None => pcg(&mut General::new(shared, precond, b), b, x, opts),
    });
    drop(span);
    if let Ok(res) = &res {
        obs.solver(|| SolverTrace {
            solver: "cg".to_string(),
            n: b.len(),
            iters: res.iters,
            converged: res.converged,
            final_residual: res.final_residual,
            residuals: res.residual_history.clone(),
        });
    }
    res
}

/// SPMD preconditioned CG over distributed vectors: [`cg`]'s recurrence
/// on one rank. Each processor holds local fragments;
/// `matvec(ctx, p_local, out_local)` computes the local rows of `A·p`
/// (performing whatever communication its implementation needs); dots
/// go through all-reduce — two per iteration: ⟨p,Ap⟩, then ⟨r,z⟩ and
/// ⟨r,r⟩ of the updated residual together. The opening adds one
/// all-reduce of a flag, "my fragment of `x` has a nonzero": when no
/// rank's has, no rank multiplies, so a zero-guess solve of `k`
/// iterations makes `k` products on every rank. At one rank it is
/// [`cg`]'s general form under a serial ctx bit for bit.
pub fn cg_parallel(
    ctx: &mut Ctx,
    matvec: impl FnMut(&mut Ctx, &[f64], &mut [f64]),
    precond_local: &impl Preconditioner,
    b_local: &[f64],
    x_local: &mut [f64],
    opts: CgOptions,
) -> CgResult {
    assert_eq!(x_local.len(), b_local.len());
    let mut form = General::new(Spmd { ctx, matvec }, precond_local, b_local);
    let Ok(res) = pcg(&mut form, b_local, x_local, opts);
    res
}

/// What the CG recurrence asks of the form it runs in, which owns every
/// vector but `x`.
trait Form {
    type Error;
    /// Form the residual of `x` for `b`, precondition it into the first
    /// direction: `[⟨r,z⟩, ⟨r,r⟩]`.
    fn open(&mut self, b: &[f64], x: &[f64]) -> Result<[f64; 2], Self::Error>;
    /// Apply the operator to the direction: `⟨p, A·p⟩`.
    fn apply_dot(&mut self) -> Result<f64, Self::Error>;
    /// `x += α·p`, `r −= α·A·p`, `z = M⁻¹·r`: `[⟨r,z⟩, ⟨r,r⟩]`.
    fn update(&mut self, alpha: f64, x: &mut [f64]) -> [f64; 2];
    /// `p = z + β·p`.
    fn direction(&mut self, beta: f64);
}

/// What the general form asks of the machine it runs on.
trait Space {
    type Error;
    /// Whether `b − A·x` needs the product, or is `b` itself: the
    /// same answer on every rank.
    fn opening_product(&mut self, x: &[f64]) -> bool;
    /// `y ← A·p`.
    fn apply(&mut self, p: &[f64], y: &mut [f64]) -> Result<(), Self::Error>;
    /// `K` inner products in one reduction.
    fn dots<const K: usize>(&mut self, pairs: [(&[f64], &[f64]); K]) -> [f64; K];
    /// `y ← y + alpha·x`.
    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]);
    /// `y ← x + beta·y`.
    fn xpby(&self, x: &[f64], beta: f64, y: &mut [f64]);
}

/// The most vectors a form holds (`Split`'s six).
const SPARES: usize = 6;

thread_local! {
    /// This thread's spare solver vectors, largest capacity first.
    static SPARE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// `K` vectors of `b`'s order from this thread's spares (allocating
/// only what they lack): the first a copy of `b`, the rest `+0.0`.
fn take<const K: usize>(b: &[f64]) -> [Vec<f64>; K] {
    SPARE.with_borrow_mut(|spare| {
        std::array::from_fn(|k| {
            let mut v = spare.pop().unwrap_or_default();
            v.clear();
            match k {
                0 => v.extend_from_slice(b),
                _ => v.resize(b.len(), 0.0),
            }
            v
        })
    })
}

/// Return a form's vectors to this thread's spares, which keep the
/// [`SPARES`] largest.
fn give_back(vecs: impl IntoIterator<Item = Vec<f64>>) {
    SPARE.with_borrow_mut(|spare| {
        spare.extend(vecs);
        spare.sort_by_key(|v| std::cmp::Reverse(v.capacity()));
        spare.truncate(SPARES);
    })
}

/// Whether a guess has an entry other than `±0.0` (a NaN counts).
fn has_nonzero(x: &[f64]) -> bool {
    x.iter().any(|&v| v != 0.0)
}

/// `r = b − A·x` from the product `ax`.
fn residual(r: &mut [f64], b: &[f64], ax: &[f64]) {
    for ((r, &b), &ax) in r.iter_mut().zip(b).zip(ax) {
        *r = b - ax;
    }
}

/// The general form on any machine: each iteration is one `A·p` and two
/// reductions, ⟨p,Ap⟩, then ⟨r,z⟩ and ⟨r,r⟩ of the updated residual.
struct General<'p, S, P> {
    space: S,
    pre: &'p P,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl<'p, S: Space, P: Preconditioner> General<'p, S, P> {
    /// `r = b`, the rest zero.
    fn new(space: S, pre: &'p P, b: &[f64]) -> Self {
        let [r, z, p, ap] = take(b);
        General { space, pre, r, z, p, ap }
    }
}

impl<S, P> Drop for General<'_, S, P> {
    fn drop(&mut self) {
        give_back([&mut self.r, &mut self.z, &mut self.p, &mut self.ap].map(std::mem::take));
    }
}

impl<S: Space, P: Preconditioner> Form for General<'_, S, P> {
    type Error = S::Error;

    fn open(&mut self, b: &[f64], x: &[f64]) -> Result<[f64; 2], S::Error> {
        if self.space.opening_product(x) {
            self.space.apply(x, &mut self.ap)?;
            residual(&mut self.r, b, &self.ap);
        }
        self.pre.precondition(&self.r, &mut self.z);
        self.p.copy_from_slice(&self.z);
        Ok(self.space.dots([(&self.r, &self.z), (&self.r, &self.r)]))
    }

    fn apply_dot(&mut self) -> Result<f64, S::Error> {
        self.space.apply(&self.p, &mut self.ap)?;
        let [pap] = self.space.dots([(&self.p, &self.ap)]);
        Ok(pap)
    }

    fn update(&mut self, alpha: f64, x: &mut [f64]) -> [f64; 2] {
        self.space.axpy(alpha, &self.p, x);
        self.space.axpy(-alpha, &self.ap, &mut self.r);
        self.pre.precondition(&self.r, &mut self.z);
        self.space.dots([(&self.r, &self.z), (&self.r, &self.r)])
    }

    fn direction(&mut self, beta: f64) {
        self.space.xpby(&self.z, beta, &mut self.p)
    }
}

/// One address space: the [`Operator`] seam, vector operations through
/// the ctx's pool.
struct Shared<'a> {
    op: &'a dyn Operator,
    ctx: &'a ExecCtx,
}

impl Space for Shared<'_> {
    type Error = RelError;

    fn opening_product(&mut self, x: &[f64]) -> bool {
        // From an all-zero guess `b − A·x` is `b` to the bit.
        has_nonzero(x)
    }

    fn apply(&mut self, p: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.op.apply(p, y)
    }

    fn dots<const K: usize>(&mut self, pairs: [(&[f64], &[f64]); K]) -> [f64; K] {
        pairs.map(|(a, b)| par_dot(a, b, self.ctx))
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        par_axpy(alpha, x, y, self.ctx)
    }

    fn xpby(&self, x: &[f64], beta: f64, y: &mut [f64]) {
        par_xpby(x, beta, y, self.ctx)
    }
}

/// One rank of the SPMD machine: local fragments, a matvec that does its
/// own communication, dots as local sums plus one all-reduce.
struct Spmd<'c, M> {
    ctx: &'c mut Ctx,
    matvec: M,
}

impl<M: FnMut(&mut Ctx, &[f64], &mut [f64])> Space for Spmd<'_, M> {
    type Error = Infallible;

    fn opening_product(&mut self, x: &[f64]) -> bool {
        // The matvec exchanges ghosts, so the ranks decide together: a
        // skip decided on one rank's fragment would leave its peers'
        // exchange unmatched.
        self.ctx.all_reduce_max(f64::from(u8::from(has_nonzero(x)))) > 0.0
    }

    fn apply(&mut self, p: &[f64], y: &mut [f64]) -> Result<(), Infallible> {
        (self.matvec)(self.ctx, p, y);
        Ok(())
    }

    fn dots<const K: usize>(&mut self, pairs: [(&[f64], &[f64]); K]) -> [f64; K] {
        let mut sums = pairs.map(|(a, b)| dot(a, b));
        self.ctx.all_reduce_sums(&mut sums);
        sums
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        axpy(alpha, x, y)
    }

    fn xpby(&self, x: &[f64], beta: f64, y: &mut [f64]) {
        xpby(x, beta, y)
    }
}

/// SymGS-preconditioned CG in Eisenstat's form ([`SplitStep`]): CG on
/// `Â = M₁⁻¹·A·M₂⁻¹` preconditioned by `P`, with `r̂ = M₁⁻¹·r` and
/// `p = M₂⁻¹·p̂` (held as `p̃ = (ω/D)·p̂`). `x` moves by `t = M₂⁻¹·p̂`
/// and `r` by `w = A·t`, both in the original space, in one fused pass
/// with `⟨r̂, P·r̂⟩` and `⟨r,r⟩`. The direction is deferred: `β` waits
/// for the next step's backward head.
struct Split<'a> {
    shared: Shared<'a>,
    pre: &'a SymGs,
    r: Vec<f64>,
    rhat: Vec<f64>,
    p: Vec<f64>,
    t: Vec<f64>,
    u: Vec<f64>,
    w: Vec<f64>,
    beta: f64,
}

impl<'a> Split<'a> {
    /// `r = b`, the rest zero: the first head, with `β = 0`, makes
    /// `p̂ = P·r̂`.
    fn new(shared: Shared<'a>, pre: &'a SymGs, b: &[f64]) -> Split<'a> {
        let [r, rhat, p, t, u, w] = take(b);
        Split { shared, pre, r, rhat, p, t, u, w, beta: 0.0 }
    }
}

impl Drop for Split<'_> {
    fn drop(&mut self) {
        give_back([&mut self.r, &mut self.rhat, &mut self.p, &mut self.t, &mut self.u, &mut self.w].map(std::mem::take));
    }
}

impl Form for Split<'_> {
    type Error = RelError;

    fn open(&mut self, b: &[f64], x: &[f64]) -> RelResult<[f64; 2]> {
        if self.shared.opening_product(x) {
            self.shared.apply(x, &mut self.w)?;
            residual(&mut self.r, b, &self.w);
        }
        self.pre.split_forward(&self.r, &mut self.rhat)?;
        let sp = self.pre.split();
        let rz = self.rhat.iter().enumerate().fold(0.0, |acc, (i, &v)| acc + v * (sp.pdiag(i) * v));
        let [rr] = self.shared.dots([(&self.r, &self.r)]);
        Ok([rz, rr])
    }

    fn apply_dot(&mut self) -> RelResult<f64> {
        self.pre.split_step(SplitStep {
            r: &self.rhat,
            beta: self.beta,
            p: &mut self.p,
            t: &mut self.t,
            u: &mut self.u,
            w: &mut self.w,
        })
    }

    fn update(&mut self, alpha: f64, x: &mut [f64]) -> [f64; 2] {
        let sp = self.pre.split();
        let (mut rz, mut rr) = (0.0, 0.0);
        let t = self.t.iter().zip(&self.u).zip(&self.w);
        let v = x.iter_mut().zip(self.rhat.iter_mut()).zip(self.r.iter_mut());
        for (i, (((x, rhat), r), ((&t, &u), &w))) in v.zip(t).enumerate() {
            *x += alpha * t;
            *rhat -= alpha * (t + u);
            *r -= alpha * w;
            rz += *rhat * (sp.pdiag(i) * *rhat);
            rr += *r * *r;
        }
        [rz, rr]
    }

    fn direction(&mut self, beta: f64) {
        self.beta = beta;
    }
}

/// The preconditioned CG recurrence, once for every form. Each
/// iteration applies the operator to the direction with ⟨p,Ap⟩, then
/// updates with ⟨r,z⟩ and ⟨r,r⟩ of the new residual: two reduction
/// steps.
fn pcg<F: Form>(form: &mut F, b: &[f64], x: &mut [f64], opts: CgOptions) -> Result<CgResult, F::Error> {
    let [mut rz, rr] = form.open(b, x)?;
    let r0 = rr.sqrt();
    let mut history = vec![r0];
    let target = opts.rel_tol * r0;

    let mut iters = 0;
    while iters < opts.max_iters {
        if history[iters] <= target && opts.rel_tol > 0.0 {
            break;
        }
        let pap = form.apply_dot()?;
        if pap == 0.0 {
            break;
        }
        let alpha = rz / pap;
        let [rz_new, rr] = form.update(alpha, x);
        let beta = rz_new / rz;
        rz = rz_new;
        form.direction(beta);
        iters += 1;
        history.push(rr.sqrt());
    }
    let final_residual = *history.last().unwrap();
    Ok(CgResult {
        iters,
        final_residual,
        // Benchmark mode runs `max_iters` by design, but a residual that
        // went NaN or infinite solved nothing.
        converged: final_residual.is_finite() && (final_residual <= target || opts.rel_tol == 0.0),
        residual_history: history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::DiagonalPreconditioner;
    use bernoulli_formats::gen::{fem_grid_2d, grid2d_5pt};
    use bernoulli_formats::{Csr, Triplets};
    use bernoulli_spmd::dist::{BlockDist, Distribution};
    use bernoulli_spmd::executor::gather_ghosts;
    use bernoulli_spmd::inspector::CommSchedule;
    use bernoulli_spmd::machine::Machine;

    fn residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        t.matvec_acc(x, &mut ax);
        ax.iter().zip(b).map(|(a, bb)| (a - bb) * (a - bb)).sum::<f64>().sqrt()
    }

    #[test]
    fn sequential_solves_laplacian() {
        let t = grid2d_5pt(8, 8);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let res = cg(&a, &pc, &b, &mut x, CgOptions::default(), &ExecCtx::default()).unwrap();
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(residual(&t, &x, &b) < 1e-8);
        // Residual history monotone-ish and shrinking overall.
        assert!(res.residual_history.last().unwrap() < &res.residual_history[0]);
    }

    #[test]
    fn fixed_iteration_benchmark_mode() {
        let t = grid2d_5pt(5, 5);
        let a = Csr::from_triplets(&t);
        let b = vec![1.0; t.nrows()];
        let mut x = vec![0.0; t.nrows()];
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let res = cg(
            &a,
            &pc,
            &b,
            &mut x,
            CgOptions { max_iters: 10, rel_tol: 0.0 },
            &ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.iters, 10);
        assert_eq!(res.residual_history.len(), 11);
    }

    #[test]
    fn matrix_free_operator_drives_the_same_solve() {
        // The closure form of the pre-Operator API, via FnOperator.
        let t = grid2d_5pt(6, 7);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64 - 1.0).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let op = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| {
            out.fill(0.0);
            bernoulli_formats::kernels::spmv_csr(&a, v, out);
        });
        let mut x1 = vec![0.0; n];
        let r1 = cg(&op, &pc, &b, &mut x1, CgOptions::default(), &ExecCtx::default()).unwrap();
        let mut x2 = vec![0.0; n];
        let r2 = cg(&a, &pc, &b, &mut x2, CgOptions::default(), &ExecCtx::default()).unwrap();
        assert_eq!(x1, x2, "FnOperator and Csr operator must solve identically");
        assert_eq!(r1.residual_history, r2.residual_history);
    }

    #[test]
    fn exec_parallel_vecops_match_serial_solve() {
        // Shared-memory CG: the same solve with parallel vector ops is
        // the serial solve to the bit, since every dot has one shape
        // and the element-wise updates never see the chunking. Three
        // dot blocks, so the workers split them.
        let t = grid2d_5pt(48, 47);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) * 0.5 - 3.0).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let opts = CgOptions::default();
        let mut x_ser = vec![0.0; n];
        let res_ser = cg(&a, &pc, &b, &mut x_ser, opts, &ExecCtx::default()).unwrap();
        assert!(res_ser.converged);
        for workers in 2..=4 {
            let par = ExecCtx::with_threads(workers).threshold(1);
            let mut x_par = vec![0.0; n];
            let res_par = cg(&a, &pc, &b, &mut x_par, opts, &par).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&res_par.residual_history), bits(&res_ser.residual_history), "{workers} workers");
            assert_eq!(bits(&x_par), bits(&x_ser), "{workers} workers");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = fem_grid_2d(6, 5, 2);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) * 0.25 - 1.0).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let opts = CgOptions { max_iters: 25, rel_tol: 0.0 };

        // Sequential reference.
        let mut x_seq = vec![0.0; n];
        let res_seq = cg(&a, &pc, &b, &mut x_seq, opts, &ExecCtx::default()).unwrap();

        // Parallel: block rows, ghost exchange per matvec.
        let nprocs = 3;
        let dist = BlockDist::new(n, nprocs);
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let owned = dist.owned_globals(me);
            // Local rows of A with global columns.
            let mut local_rows: Vec<(usize, usize, f64)> = Vec::new();
            for &(r, c, v) in t.canonicalize().entries() {
                if dist.owner(r).0 == me {
                    local_rows.push((dist.owner(r).1, c, v));
                }
            }
            let mut used: Vec<usize> =
                local_rows.iter().map(|&(_, c, _)| c).filter(|&c| dist.owner(c).0 != me).collect();
            used.sort_unstable();
            used.dedup();
            let sched = CommSchedule::build(ctx, &dist, &used);
            // Rewrite columns: locals to local offsets, ghosts to
            // n_local + slot.
            let n_local = owned.len();
            let a_local = Csr::from_triplets(&{
                let mut tl = Triplets::new(n_local, n_local + sched.num_ghosts);
                for &(lr, c, v) in &local_rows {
                    let col = match dist.owner(c) {
                        (p, l) if p == me => l,
                        _ => n_local + sched.ghost_of_global[&c],
                    };
                    tl.push(lr, col, v);
                }
                tl
            });
            let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
            let pc_local = pc.restrict(&owned);
            let mut x_local = vec![0.0; n_local];
            let mut xg = vec![0.0; n_local + sched.num_ghosts];
            let res = cg_parallel(
                ctx,
                |ctx, p_local, out| {
                    xg[..n_local].copy_from_slice(p_local);
                    let (loc, gho) = xg.split_at_mut(n_local);
                    gather_ghosts(ctx, &sched, loc, gho);
                    out.fill(0.0);
                    bernoulli_formats::kernels::spmv_csr(&a_local, &xg, out);
                },
                &pc_local,
                &b_local,
                &mut x_local,
                opts,
            );
            (x_local, res.final_residual)
        });
        // Stitch and compare.
        let mut x_par = vec![0.0; n];
        for (p, (xl, _)) in out.results.iter().enumerate() {
            for (l, &g) in dist.owned_globals(p).iter().enumerate() {
                x_par[g] = xl[l];
            }
        }
        for (a, bb) in x_par.iter().zip(&x_seq) {
            assert!((a - bb).abs() < 1e-8, "parallel CG diverged from sequential");
        }
        let (_, rpar) = &out.results[0];
        assert!((rpar - res_seq.final_residual).abs() < 1e-8);
    }

    #[test]
    fn instrumented_ctx_records_trace_matching_result() {
        use bernoulli_obs::Obs;
        let t = grid2d_5pt(6, 6);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 1.0).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let obs = Obs::enabled();
        let mut x = vec![0.0; n];
        let ctx = ExecCtx::default().instrument(obs.clone());
        let res = cg(&a, &pc, &b, &mut x, CgOptions::default(), &ctx).unwrap();
        assert!(res.converged);
        let r = obs.report();
        r.validate().unwrap();
        let tr = &r.solvers[0];
        assert_eq!((tr.solver.as_str(), tr.n, tr.iters, tr.converged), ("cg", n, res.iters, true));
        assert_eq!(tr.residuals, res.residual_history);
        assert_eq!(tr.residuals.len(), res.iters + 1);
        assert_eq!(r.spans["solver.cg"].calls, 1);

        // Default (uninstrumented) ctx: identical solve, no events.
        let silent = Obs::disabled();
        let mut x2 = vec![0.0; n];
        let quiet = ExecCtx::default().instrument(silent.clone());
        let res2 = cg(&a, &pc, &b, &mut x2, CgOptions::default(), &quiet).unwrap();
        assert_eq!(x, x2);
        assert_eq!(res.residual_history, res2.residual_history);
        assert!(silent.report().solvers.is_empty());
    }

    #[test]
    fn zero_guess_forms_its_residual_without_a_product() {
        use std::cell::Cell;
        let t = grid2d_5pt(9, 8);
        let a = Csr::from_triplets(&t);
        let n = t.nrows();
        // Signed zeros included: `b − A·0` must be `b` to the bit.
        let b: Vec<f64> = (0..n).map(|i| [1.5, -0.0, 0.0, -2.0][i % 4] * (1 + i % 3) as f64).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let opts = CgOptions { max_iters: 11, rel_tol: 0.0 };
        let applied = Cell::new(0);
        let op = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| {
            applied.set(applied.get() + 1);
            out.fill(0.0);
            bernoulli_formats::kernels::spmv_csr(&a, v, out);
        });
        let mut x = vec![0.0; n];
        let skipped = cg(&op, &pc, &b, &mut x, opts, &ExecCtx::default()).unwrap();
        assert_eq!((skipped.iters, applied.get()), (11, 11));
        // The product the zero guess skips changes no bit of the solve:
        // a guess of negative zeros is still all zeros, a guess the
        // scan rejects takes the product, and `A·0 = 0` exactly.
        let mut ax = vec![1.0; n];
        op.apply(&vec![0.0; n], &mut ax).unwrap();
        assert!(b.iter().zip(&ax).all(|(b, ax)| (b - ax).to_bits() == b.to_bits()));
        assert_eq!(skipped.residual_history[0].to_bits(), dot(&b, &b).sqrt().to_bits());
        applied.set(0);
        let mut x_neg = vec![-0.0; n];
        let again = cg(&op, &pc, &b, &mut x_neg, opts, &ExecCtx::default()).unwrap();
        assert_eq!((applied.get(), &again.residual_history), (11, &skipped.residual_history));
        applied.set(0);
        let mut x_one = vec![0.0; n];
        x_one[n - 1] = 1.0;
        cg(&op, &pc, &b, &mut x_one, opts, &ExecCtx::default()).unwrap();
        assert_eq!(applied.get(), 12);

        // A NaN in the operator is still met by the first search
        // direction: the solve does not report convergence.
        let mut poisoned = a.clone();
        poisoned.vals_mut()[3] = f64::NAN;
        let mut x = vec![0.0; n];
        let res = cg(&poisoned, &pc, &b, &mut x, CgOptions::default(), &ExecCtx::default()).unwrap();
        assert!(!res.converged);
    }

    #[test]
    fn a_non_finite_residual_never_converges() {
        // Through both entries, in benchmark mode and against a target:
        // a NaN in the operator or the right-hand side poisons the
        // residual, and a poisoned solve is not a converged one.
        let t = fem_grid_2d(5, 4, 2);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let pc = DiagonalPreconditioner::from_matrix(&t);
        let mut bad_a = a.clone();
        bad_a.vals_mut()[5] = f64::NAN;
        let mut bad_b = b.clone();
        bad_b[n / 2] = f64::NAN;
        for (what, a, b) in [("operator", &bad_a, &b), ("rhs", &a, &bad_b)] {
            for rel_tol in [0.0, 1e-8] {
                let opts = CgOptions { max_iters: 12, rel_tol };
                let mut x = vec![0.0; n];
                let shared = cg(a, &pc, b, &mut x, opts, &ExecCtx::default()).unwrap();
                let spmd = Machine::run(1, |ctx| {
                    let mut x = vec![0.0; n];
                    let matvec = |_: &mut Ctx, v: &[f64], out: &mut [f64]| {
                        out.fill(0.0);
                        bernoulli_formats::kernels::spmv_csr(a, v, out);
                    };
                    cg_parallel(ctx, matvec, &pc, b, &mut x, opts)
                });
                for res in [&shared, &spmd.results[0]] {
                    assert!(res.final_residual.is_nan(), "NaN {what}, rel_tol {rel_tol}");
                    assert!(!res.converged, "NaN {what}, rel_tol {rel_tol}: reported converged");
                }
            }
        }
    }
}
