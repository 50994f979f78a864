//! Canonical input is read in place. A `Triplets` whose entries are
//! already their own assembly is not sorted or copied again by the
//! constructors that read it: no sparse format built from a canonical
//! grid, and no `fragment_matrix` over one, asks for a buffer the size
//! of a canonical triplet copy (24 bytes per entry). Input that is not
//! canonical still goes through the counting sort and builds the same
//! matrix bit for bit.
//!
//! A counting global allocator counts, per thread, the allocations and
//! reallocations of at least a chosen size (the pattern of
//! `tests/solve_allocations.rs`). `scripts/ci.sh` also runs this suite
//! in release, the optimisation level the benchmark's set-up runs at.

use bernoulli::spmd::fragment_matrix;
use bernoulli_formats::gen::grid3d_7pt;
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_spmd::dist::BlockDist;
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

/// What `f` returns, and how many allocations on this thread asked for
/// a canonical copy of `t`'s entries or more while it ran.
fn copies<T>(t: &Triplets, f: impl FnOnce() -> T) -> (T, usize) {
    LARGE.set(0);
    FLOOR.set(t.len() * std::mem::size_of::<(usize, usize, f64)>());
    let out = f();
    FLOOR.set(usize::MAX);
    (out, LARGE.get())
}

/// A 7-point grid as its generator emits it (diagonal first in each
/// row, so not canonical) and canonical.
fn grids() -> (Triplets, Triplets) {
    let raw = grid3d_7pt(12, 11, 10);
    let canonical = raw.canonicalize();
    assert_ne!(raw.entries(), canonical.entries(), "the generator's order is not canonical");
    (raw, canonical)
}

fn bits(m: &Csr) -> Vec<u64> {
    m.vals().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn csr_from_canonical_triplets_makes_no_canonical_copy() {
    let (raw, t) = grids();
    let (a, n) = copies(&t, || Csr::from_triplets(&t));
    assert_eq!(n, 0, "Csr::from_triplets copied canonical input");
    // The counter sees the assembly's copy where there is one.
    let (b, n) = copies(&raw, || Csr::from_triplets(&raw));
    assert!(n >= 1, "the counting sort's buffer went uncounted");
    assert_eq!(a, b);
    assert_eq!(bits(&a), bits(&b));
}

/// Every row-major constructor reads the canonical view. CCS and CCCS
/// assemble column-major, which sorts by construction, and dense
/// storage is `nrows × ncols` by definition, so they are left out.
#[test]
fn row_major_formats_from_canonical_triplets_make_no_canonical_copy() {
    let (raw, t) = grids();
    let kinds = [
        FormatKind::Csr,
        FormatKind::Coordinate,
        FormatKind::Itpack,
        FormatKind::JDiag,
        FormatKind::Inode,
        FormatKind::Diagonal,
    ];
    for kind in kinds {
        let (m, n) = copies(&t, || SparseMatrix::from_triplets(kind, &t));
        assert_eq!(n, 0, "{kind} copied canonical input");
        assert_eq!(m, SparseMatrix::from_triplets(kind, &raw), "{kind}");
        assert_eq!(m.to_triplets().canonicalize(), t, "{kind}");
    }
}

#[test]
fn fragment_matrix_over_canonical_triplets_makes_no_canonical_copy() {
    let (raw, t) = grids();
    // Four ranks, so no rank's own entry list reaches a whole copy.
    let dist = BlockDist::new(t.nrows(), 4);
    let (frags, n) = copies(&t, || fragment_matrix(&t, &dist));
    assert_eq!(n, 0, "fragment_matrix copied canonical input");
    let bits = |f: &[bernoulli::spmd::GlobalFragment]| {
        f.iter().flat_map(|f| f.entries.iter().map(|&(r, c, v)| (r, c, v.to_bits()))).collect::<Vec<_>>()
    };
    let from_raw = fragment_matrix(&raw, &dist);
    assert_eq!(bits(&frags), bits(&from_raw));
    assert_eq!(frags.iter().map(|f| f.entries.len()).sum::<usize>(), t.len());
}

#[test]
fn input_that_is_not_its_own_assembly_is_assembled() {
    let (_, t) = grids();
    let (e, clean) = (t.entries(), Csr::from_triplets(&t));
    // The canonical entries with `with` in place of `e[4..6]`, built.
    let edit = |with: &[(usize, usize, f64)]| {
        let f = Triplets::from_entries(t.nrows(), t.ncols(), &[&e[..4], with, &e[6..]].concat());
        let (a, n) = copies(&f, || Csr::from_triplets(&f));
        assert!(n >= 1, "{with:?}: not assembled");
        a
    };
    let (r, c, v) = e[4];
    // A duplicate is summed from +0.0 in insertion order.
    let a = edit(&[e[4], e[4], e[5]]);
    assert_eq!((a.nnz(), a.vals()[4].to_bits()), (t.len(), (0.0 + v + v).to_bits()));
    // A swapped pair is sorted back.
    let a = edit(&[e[5], e[4]]);
    assert_eq!((&a, bits(&a)), (&clean, bits(&clean)));
    // A lone -0.0 is dropped.
    let a = edit(&[(r, c, -0.0), e[5]]);
    assert_eq!(a.nnz(), t.len() - 1);
    assert!(!a.row_cols(r).contains(&c));
    // A signalling NaN is stored as `0.0 + v` carries it: quieted.
    let snan = f64::from_bits(0x7ff0_0000_0000_0001);
    let a = edit(&[(r, c, snan), e[5]]);
    assert!(a.vals()[4].is_nan() && a.vals()[4].to_bits() != snan.to_bits());
}
