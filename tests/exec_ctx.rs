//! The `ExecCtx` cost contract.
//!
//! The unified execution context must be free when it does nothing:
//! on a default (serial) ctx the vector ops and both fork/join
//! primitives run their body inline on the calling thread with **zero
//! heap allocations** per call.
//!
//! Allocation counting uses a thread-local tally inside a wrapper
//! global allocator, so worker threads and test-harness threads never
//! perturb the measurement on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bernoulli::{ExecCtx, Operator};
use bernoulli_formats::gen;
use bernoulli_formats::{FormatKind, SparseMatrix};
use bernoulli_solvers::vecops;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations on *this* thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (ALLOCS.with(|c| c.get()) - before, out)
}

#[test]
fn default_ctx_hot_path_is_allocation_free() {
    let ctx = ExecCtx::default();

    let n = 4096;
    let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut y = vec![0.0; n];

    // Warm up once so lazy one-time setup (if any) is out of the way.
    let _ = vecops::par_dot(&a, &b, &ctx);
    vecops::par_axpy(0.5, &a, &mut y, &ctx);
    vecops::par_xpby(&b, -0.25, &mut y, &ctx);

    let (allocs, _) = allocs_during(|| {
        let mut acc = 0.0;
        for _ in 0..100 {
            acc += vecops::par_dot(&a, &b, &ctx);
            vecops::par_axpy(0.5, &a, &mut y, &ctx);
            vecops::par_xpby(&b, -0.25, &mut y, &ctx);
            // The primitives themselves: one body call over the whole,
            // on this thread (forking allocates here, so a zero tally
            // also proves nothing was spawned). `par_ranges` returns a
            // one-element Vec; unit results keep that off the heap.
            ctx.par_blocks(&mut y, 4, |offset, block| assert_eq!((offset, block.len()), (0, n)));
            let whole = ctx.par_ranges(n, |lo, hi| assert_eq!((lo, hi), (0, n)));
            acc += whole.len() as f64;
        }
        acc
    });
    assert_eq!(allocs, 0, "serial ExecCtx hot path must not allocate");
}

#[test]
fn default_ctx_operator_apply_is_allocation_free() {
    let t = gen::grid2d_5pt(16, 16);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let csr = match &a {
        SparseMatrix::Csr(c) => c,
        _ => unreachable!(),
    };
    let n = t.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut y = vec![0.0; n];

    csr.apply(&x, &mut y).unwrap();
    let (allocs, _) = allocs_during(|| {
        for _ in 0..50 {
            csr.apply(&x, &mut y).unwrap();
        }
    });
    assert_eq!(allocs, 0, "Operator::apply on a bound format must not allocate");
}
