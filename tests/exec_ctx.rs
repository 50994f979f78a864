//! The `ExecCtx` cost contract.
//!
//! The unified execution context must be free when it does nothing:
//! on a default (serial) ctx the vector ops and both fork/join
//! primitives run their body inline on the calling thread with **zero
//! heap allocations** per call. The same tally pins the per-request
//! costs of the compile path: a serial-context SymGS compile allocates
//! O(1) bytes, a parallel one certifies one schedule, copies no index
//! array and keeps nothing else, and a structure key costs at most the
//! format's one boxed enumeration — and the mixed SPMD inspector's,
//! which allocates for the boundary and nothing that grows with the
//! local matrix. And one inspector product: `SymGs` builds its sweep
//! split with no temporary and applies it without allocating. A warm
//! `Dispatcher::submit` under a disabled obs pays nothing for telemetry.
//!
//! Allocation counting uses a thread-local tally inside a wrapper
//! global allocator, so worker threads and test-harness threads never
//! perturb the measurement on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bernoulli::{compile_op, ExecCtx, OpSpec, Operands, Operator, SymGsEngine, TriangularOp};
use bernoulli_formats::gen;
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::semiring::{F64Plus, MinPlus, Semiring};
use bernoulli_solvers::{vecops, Preconditioner, SymGs};
use bernoulli_tune::{structure_key, structure_key_csr, Dispatcher};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
    /// `(size, count)`: how many requests were exactly `size` bytes.
    static WATCH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size));
        LARGEST.with(|c| c.set(c.get().max(size)));
        WATCH.with(|c| {
            let (watched, count) = c.get();
            c.set((watched, count + u64::from(size == watched)));
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` on *this* thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let tally = || (ALLOCS.with(|c| c.get()), BYTES.with(|c| c.get()));
    let before = tally();
    let out = f();
    let after = tally();
    ((after.0 - before.0, after.1 - before.1), out)
}

/// What `f` did to this thread's heap.
#[derive(Debug)]
struct Footprint {
    /// Bytes requested.
    bytes: u64,
    /// Bytes requested and not freed: what `f`'s result keeps.
    live: u64,
    /// The largest single request.
    largest: u64,
    /// Requests of exactly the watched size.
    watched: u64,
}

fn footprint<R>(watch: u64, f: impl FnOnce() -> R) -> (Footprint, R) {
    let (bytes, freed) = (BYTES.with(|c| c.get()), FREED.with(|c| c.get()));
    LARGEST.with(|c| c.set(0));
    WATCH.with(|c| c.set((watch, 0)));
    let out = f();
    let bytes = BYTES.with(|c| c.get()) - bytes;
    let freed = FREED.with(|c| c.get()) - freed;
    let (largest, watched) = (LARGEST.with(|c| c.get()), WATCH.with(|c| c.get().1));
    (Footprint { bytes, live: bytes.saturating_sub(freed), largest, watched }, out)
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

    let ((allocs, _), _) = allocs_during(|| {
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
    let ((allocs, _), _) = allocs_during(|| {
        for _ in 0..50 {
            csr.apply(&x, &mut y).unwrap();
        }
    });
    assert_eq!(allocs, 0, "Operator::apply on a bound format must not allocate");
}

#[test]
fn serial_ctx_symgs_compile_decides_its_gates_before_any_o_nnz_work() {
    // Under a serial context the size gate refuses the wavefront tier
    // in O(1), so the compile must not compute and verify a schedule
    // just to drop it: the whole compile stays under one `rowptr`'s
    // worth of bytes.
    let a = Csr::from_triplets(&gen::grid3d_7pt(16, 16, 16));
    let nrows = a.nrows() as u64;
    assert_eq!(nrows, 4096);
    let ((_, bytes), engine) = allocs_during(|| SymGsEngine::compile_in(&a, &ExecCtx::serial()));
    assert!(engine.unwrap().schedule().is_none());
    assert!(bytes < 8 * nrows, "serial SymGS compile allocated {bytes} bytes");
}

#[test]
fn parallel_symgs_compile_certifies_one_schedule_and_keeps_nothing_else() {
    // The Gauss-Seidel relation is read off the operand's own arrays, so
    // no compile copies an index array: no request exceeds n words. A
    // cold compile makes three n-word buffers — the level labels and
    // the schedule's rows (one level computation) and the verifier's
    // row positions (one verification); a warm replay two — the
    // replayed rows and the verifier's positions. Beside them only
    // level bounds and a few small requests are made (the plan's box;
    // in debug builds the DO-ANY consult's loop nest), and what stays
    // live is the armed plan: its schedule, bounds and box.
    let a = Csr::from_triplets(&gen::grid3d_7pt(16, 16, 16));
    let n = a.nrows() as u64;
    let par = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    // The first compile also memoises the operand's index digest and
    // the host's parallelism, once per operand and per process.
    drop(SymGsEngine::compile_in(&a, &par));
    let (cold, engine) = footprint(8 * n, || SymGsEngine::compile_in(&a, &par).unwrap());
    let schedule = engine.schedule().expect("a 16^3 grid arms the wave tier");
    let (bounds, small) = (8 * (schedule.num_levels() as u64 + 1), 2048);
    let plan = 8 * n + bounds + 512;
    assert_eq!(cold.watched, 3, "cold: {cold:?}");
    assert!(cold.largest <= 8 * n && cold.bytes <= 3 * 8 * n + 2 * bounds + small, "cold: {cold:?}");
    assert!(cold.live <= plan, "cold: {cold:?}, plan ≤ {plan} B");

    let hints = Some(engine.hints());
    let warm_compile = || compile_op::<F64Plus>(OpSpec::Symgs, Operands::Tri(&a), &par, hints.as_ref()).unwrap();
    let (warm, replayed) = footprint(8 * n, warm_compile);
    assert_eq!(replayed.schedule(), Some(schedule));
    assert_eq!(warm.watched, 2, "warm: {warm:?}");
    assert!(warm.largest <= 8 * n && warm.bytes <= 2 * 8 * n + bounds + small, "warm: {warm:?}");
    assert!(warm.live <= plan, "warm: {warm:?}, plan ≤ {plan} B");
    println!("parallel SymGS compile at 16^3: cold {cold:?}, warm {warm:?}");
}

#[test]
fn symgs_inspects_once_and_applies_without_allocating() {
    // The preconditioner's one inspector product is its sweep split:
    // `u32` strict triangles and a scaled diagonal, ≈ 0.73× the bytes
    // of the operand's three arrays. Building it requests nothing else
    // — no temporary, so nothing larger than the split is ever live —
    // and applying it requests nothing at all.
    let a = Csr::from_triplets(&gen::grid3d_7pt(16, 16, 16));
    let (n, operand) = (a.nrows(), (8 * (a.nrows() + 1) + 16 * a.nnz()) as u64);
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut z = vec![0.0; n];
    let owned = a.clone();
    let ((_, held), pre) = allocs_during(move || SymGs::new(owned, &ExecCtx::serial()).unwrap());
    assert!(5 * held <= 4 * operand + 5 * 8 * n as u64, "split + engine hold {held} B of a {operand} B operand");
    pre.precondition(&r, &mut z);
    let ((allocs, _), _) = allocs_during(|| (0..20).for_each(|_| pre.precondition(&r, &mut z)));
    assert_eq!(allocs, 0, "a serial SymGs application must not allocate");

    // The level-scheduled tier forks per level, which allocates on the
    // forking thread; the split adds nothing to what the general
    // sweeps cost under the same driver.
    let par = ExecCtx::with_threads(2).oversubscribe(true).threshold(1);
    let pre = SymGs::new(a, &par).unwrap();
    assert!(pre.engine().schedule().is_some(), "{}", pre.engine().downgrade());
    pre.precondition(&r, &mut z);
    let ((split, _), _) = allocs_during(|| pre.precondition(&r, &mut z));
    let ((general, _), _) = allocs_during(|| pre.engine().apply_ssor(pre.matrix(), 1.0, &r, &mut z).unwrap());
    assert!(split <= general, "split application made {split} allocations, the general sweeps {general}");
}

#[test]
fn structure_key_costs_at_most_the_formats_boxed_enumeration() {
    // One digest for every format: CSR folds its row slices in place;
    // every other format pays for its boxed `enum_flat` iterator and
    // nothing that grows with the operand.
    let t = gen::grid2d_5pt(24, 24);
    assert!(t.canonicalize().len() >= 2000);
    for kind in FormatKind::ALL {
        let a = SparseMatrix::from_triplets(kind, &t);
        let ((allocs, _), _) = allocs_during(|| structure_key(&a));
        let budget = if kind == FormatKind::Csr { 0 } else { 2 };
        assert!(allocs <= budget, "structure_key on {kind}: {allocs} allocations");
    }
    let csr = Csr::from_triplets(&t);
    let ((allocs, _), _) = allocs_during(|| structure_key_csr(&csr));
    assert_eq!(allocs, 0, "structure_key_csr must not allocate");
}

#[test]
fn mixed_inspector_allocates_for_the_boundary_not_the_local_matrix() {
    // Two ranks split a 4×4×nz grid across z: whatever nz is, each rank
    // sees one 4×4 plane of ghost points. The inspector reads `Used` off
    // the global part, resolves the slots and builds the ghost rows —
    // all boundary-sized; the local operands and their i-node partition
    // come shared from the spec. So a grid 32 times longer must not
    // move its allocation tally, which stays below one `rowptr` of the
    // local rows (two of them at the commit before the ghost rows were
    // compacted).
    use bernoulli::spmd::{fragment_matrix, to_mixed_spec, CompiledMixed};
    use bernoulli_spmd::dist::{BlockDist, Distribution};
    use bernoulli_spmd::machine::Machine;
    let inspect_bytes = |nz: usize| -> (u64, usize) {
        let t = gen::fem_grid_3d(4, 4, nz, 2);
        let dist = BlockDist::new(t.nrows(), 2);
        let frags = fragment_matrix(&t, &dist);
        let out = Machine::run(2, |ctx| {
            let me = ctx.rank();
            let spec = to_mixed_spec(&frags[me], |g| {
                let (p, l) = dist.owner(g);
                (p == me).then_some(l)
            });
            let ((_, bytes), engine) = allocs_during(|| CompiledMixed::inspect(ctx, &spec, &dist));
            assert_eq!(engine.schedule().num_ghosts, 4 * 4 * 2);
            bytes
        });
        (out.results[0].max(out.results[1]), dist.local_len(0))
    };
    let (short, _) = inspect_bytes(8);
    let (long, n_local) = inspect_bytes(256);
    assert!(long <= short + short / 10, "inspector allocations grew with the grid: {short} -> {long} bytes");
    assert!(long < 8 * n_local as u64, "inspector allocated {long} bytes for {n_local} local rows");
}

/// A warm submit of each request kind the benchmark sends, under the
/// benchmark's context (serial, fast tier, obs disabled): what is left
/// is the request's own cost — cache lookup, hinted compile, result
/// vector — and nothing for telemetry, neither the `dispatch.<op>` span
/// name nor a clock read. Pinned per kind; building the span name alone
/// cost two to four allocations (the op tag, then the name).
#[test]
fn warm_dispatch_under_a_disabled_obs_pays_nothing_for_telemetry() {
    const K: usize = 4;
    let t = gen::grid2d_5pt(8, 8);
    let n = t.nrows();
    let lower: Vec<_> = t.entries().iter().copied().filter(|&(i, j, _)| j <= i).collect();
    let mut d = Dispatcher::new(ExecCtx::serial().fast_kernels(true));
    let (full, tri) = (d.register(&t), d.register(&Triplets::from_entries(n, n, &lower)));
    let (x, xk) = (vec![1.0; n], vec![1.0; n * K]);
    let requests = [
        (full, OpSpec::Spmv, &x, 3),
        (full, OpSpec::SpmvMulti { k: K }, &xk, 3),
        (full, OpSpec::SemiringSpmv { algebra: MinPlus::NAME }, &x, 3),
        (tri, OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } }, &x, 1),
        (full, OpSpec::Symgs, &x, 1),
    ];
    for (id, spec, rhs, want) in requests {
        d.submit(id, spec, rhs).unwrap();
        let ((allocs, _), out) = allocs_during(|| d.submit(id, spec, rhs));
        out.unwrap();
        assert_eq!(allocs, want, "warm {spec:?}");
    }
}
