//! Repeat solves allocate no vectors. `cg`, in Eisenstat's form and in
//! the general form, and `cg_parallel`, on one and on two ranks, take
//! their vectors from their thread's spares from the second solve on,
//! so no allocation of the operand's order happens inside a steady-state
//! solve (only `residual_history` grows). A solve that runs right after
//! one whose vectors went NaN carries the bits of the same solve on a
//! fresh thread.
//!
//! A counting global allocator counts, per thread, the allocations and
//! reallocations of at least a chosen size. `scripts/ci.sh` also runs
//! this suite in release, because allocation placement only matters at
//! the optimisation level the benchmark builds with.

use bernoulli::{ExecCtx, FnOperator};
use bernoulli_formats::gen::{fem_grid_2d, grid2d_5pt};
use bernoulli_formats::{Csr, Triplets};
use bernoulli_solvers::cg::{cg, cg_parallel, CgOptions};
use bernoulli_solvers::precond::{DiagonalPreconditioner, Preconditioner};
use bernoulli_solvers::SymGs;
use bernoulli_spmd::dist::{BlockDist, Distribution};
use bernoulli_spmd::executor::gather_ghosts;
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_spmd::machine::Machine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations on this thread of at least `FLOOR` bytes.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static FLOOR: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if FLOOR.try_with(Cell::get).is_ok_and(|floor| size >= floor) {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with the same `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How many allocations on this thread asked for at least one vector of
/// order `n` while `f` ran.
fn vector_allocs(n: usize, f: impl FnOnce()) -> usize {
    LARGE.set(0);
    FLOOR.set(n * std::mem::size_of::<f64>());
    f();
    FLOOR.set(usize::MAX);
    LARGE.get()
}

/// Runs `f` on a new thread, whose spares start empty.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

const OPTS: CgOptions = CgOptions { max_iters: 40, rel_tol: 1e-10 };

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect()
}

/// A system on one grid and the two forms `cg` solves it in.
struct Solves {
    a: Csr,
    gs: SymGs,
    diag: DiagonalPreconditioner,
}

impl Solves {
    fn new(t: &Triplets) -> Solves {
        let a = Csr::from_triplets(t);
        let gs = SymGs::new(a.clone(), &ExecCtx::default()).unwrap();
        Solves { a, gs, diag: DiagonalPreconditioner::from_matrix(t) }
    }

    /// One solve from a zero guess — in Eisenstat's form (SymGS over its
    /// own matrix) when `split`, else the general form under the
    /// diagonal preconditioner: the bits of `x` and of the residuals.
    fn solve(&self, split: bool, b: &[f64]) -> (Vec<u64>, Vec<u64>) {
        assert!(self.gs.split_form(&self.a).is_some());
        let mut x = vec![0.0; b.len()];
        let ctx = ExecCtx::default();
        let res = match split {
            true => cg(&self.a, &self.gs, b, &mut x, OPTS, &ctx),
            false => cg(&self.a, &self.diag, b, &mut x, OPTS, &ctx),
        };
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect();
        (bits(&x), bits(&res.unwrap().residual_history))
    }
}

#[test]
fn repeat_serial_solves_allocate_no_vectors() {
    // The general form is also run under SymGS behind an operator that
    // cannot prove it is SymGS's matrix.
    for case in ["split form", "general form, diagonal", "general form, SymGS"] {
        let (first, repeat) = on_fresh_thread(|| {
            let t = grid2d_5pt(48, 48);
            let (n, s) = (t.nrows(), Solves::new(&t));
            let b = rhs(n);
            let wrapped = FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| {
                out.fill(0.0);
                bernoulli_formats::kernels::spmv_csr(&s.a, v, out);
            });
            assert!(s.gs.split_form(&wrapped).is_none());
            // Only the solve is counted, not the caller's `x`.
            let mut x = vec![0.0; n];
            let mut run = || {
                x.fill(0.0);
                let ctx = ExecCtx::default();
                match case {
                    "split form" => cg(&s.a, &s.gs, &b, &mut x, OPTS, &ctx),
                    "general form, diagonal" => cg(&s.a, &s.diag, &b, &mut x, OPTS, &ctx),
                    _ => cg(&wrapped, &s.gs, &b, &mut x, OPTS, &ctx),
                }
                .unwrap()
            };
            let first = vector_allocs(n, || drop(run()));
            (first, vector_allocs(n, || (0..3).for_each(|_| drop(run()))))
        });
        // The first solve on a thread fills its spares, which is also
        // the proof that the counter sees the solver's vectors.
        assert!(first >= 4, "{case}: the first solve took {first} vectors");
        assert_eq!(repeat, 0, "{case}: repeat solves allocated vectors");
    }
}

/// `cg_parallel` on `nprocs` ranks over a block-row distribution of `t`:
/// each rank's count of vector allocations during its second and third
/// solves, and the residuals of every solve.
fn spmd_repeat_allocs(t: &Triplets, nprocs: usize) -> Vec<(usize, Vec<Vec<u64>>)> {
    let n = t.nrows();
    let b = rhs(n);
    let dist = BlockDist::new(n, nprocs);
    let pc = DiagonalPreconditioner::from_matrix(t);
    let out = Machine::run(nprocs, |ctx| {
        let me = ctx.rank();
        let owned = dist.owned_globals(me);
        let n_local = owned.len();
        let rows: Vec<(usize, usize, f64)> =
            t.canonicalize().entries().iter().copied().filter(|&(r, _, _)| dist.owner(r).0 == me).collect();
        let mut used: Vec<usize> = rows.iter().map(|&(_, c, _)| c).filter(|&c| dist.owner(c).0 != me).collect();
        used.sort_unstable();
        used.dedup();
        let sched = CommSchedule::build(ctx, &dist, &used);
        let mut local = Triplets::new(n_local, n_local + sched.num_ghosts);
        for &(r, c, v) in &rows {
            let col = match dist.owner(c) {
                (p, l) if p == me => l,
                _ => n_local + sched.ghost_of_global[&c],
            };
            local.push(dist.owner(r).1, col, v);
        }
        let a_local = Csr::from_triplets(&local);
        let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
        let pc_local = pc.restrict(&owned);
        let mut xg = vec![0.0; n_local + sched.num_ghosts];
        let mut x = vec![0.0; n_local];
        let mut history = Vec::new();
        let mut solve = |ctx: &mut _| {
            x.fill(0.0);
            let matvec = |ctx: &mut _, p: &[f64], out: &mut [f64]| {
                xg[..n_local].copy_from_slice(p);
                let (loc, gho) = xg.split_at_mut(n_local);
                gather_ghosts(ctx, &sched, loc, gho);
                out.fill(0.0);
                bernoulli_formats::kernels::spmv_csr(&a_local, &xg, out);
            };
            let res = cg_parallel(ctx, matvec, &pc_local, &b_local, &mut x, OPTS);
            history.push(res.residual_history.iter().map(|v| v.to_bits()).collect());
        };
        solve(ctx);
        let repeat = vector_allocs(n_local, || {
            solve(ctx);
            solve(ctx);
        });
        (repeat, history)
    });
    out.results
}

#[test]
fn repeat_spmd_solves_allocate_no_vectors() {
    let t = grid2d_5pt(48, 48);
    for nprocs in [1, 2] {
        for (rank, (allocs, history)) in spmd_repeat_allocs(&t, nprocs).into_iter().enumerate() {
            assert_eq!(allocs, 0, "P = {nprocs}, rank {rank}: repeat solves allocated vectors");
            assert!(history.windows(2).all(|w| w[0] == w[1]), "P = {nprocs}: repeat solves differ");
        }
    }
}

/// A solve right after one whose every vector went NaN — of the same
/// order, or a larger one — is bitwise the same solve on a fresh
/// thread, in both forms.
#[test]
fn a_solve_after_a_poisoned_one_keeps_a_fresh_threads_bits() {
    let small = fem_grid_2d(9, 8, 2);
    let big = grid2d_5pt(40, 40);
    for split in [true, false] {
        let clean = || Solves::new(&small).solve(split, &rhs(small.nrows()));
        let fresh = on_fresh_thread(clean);
        for (t, poison_split) in [(&small, true), (&small, false), (&big, true)] {
            let after = on_fresh_thread(|| {
                let mut b = rhs(t.nrows());
                b[t.nrows() / 3] = f64::NAN;
                let (x, _) = Solves::new(t).solve(poison_split, &b);
                assert!(x.iter().all(|&v| f64::from_bits(v).is_nan()), "the poison left a finite x");
                clean()
            });
            assert!(after == fresh, "split {split}, after a poisoned {} solve: bits differ", t.nrows());
        }
    }
}
