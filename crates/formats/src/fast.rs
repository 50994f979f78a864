//! Certified bounds-check-free serial microkernels.
//!
//! The reference kernels of [`crate::kernels`] are safe-indexed,
//! single-accumulator loops — honest "hand-written library code"
//! baselines, but they leave single-core throughput on the table: every
//! inner-loop access pays a bounds check, and one `f64` accumulator
//! serialises the reduction on the add latency chain. This module is
//! the specialized tier the paper's compiler would have generated for a
//! *validated* data structure: the structure invariants are proven once
//! (by the `bernoulli-analysis` [`Validate`] sanitizer), captured in a
//! certificate, and then the inner loops index without checks.
//!
//! ## The certificate discipline
//!
//! Every `get_unchecked` in this module is justified by a BA2x
//! invariant the sanitizer certified:
//!
//! | access | invariant | BA code |
//! |---|---|---|
//! | `rowptr[r]`, `rowptr[r+1]`, `r < nrows` | pointer array has `nrows+1` monotone entries ending at `vals.len()` | BA21 |
//! | `vals[k]`, `colind[k]`, `k ∈ rowptr[r]..rowptr[r+1]` | pointer range ⊆ `0..vals.len()`; `colind.len() == vals.len()` | BA21 + BA25 |
//! | `x[colind[k]]` | every stored column index `< ncols` (`x.len()` asserted `== ncols`) | BA22 |
//! | MSR `diag[i]`, `x[i]`, `y[i]`, `i < diag.len()` | `diag.len() == min(nrows, ncols)` | BA25 |
//! | BSR `blocks[k·b² .. (k+1)·b²]` | `blocks.len() == bcolind.len()·b²`, `k < bcolind.len()` | BA25 + BA21 |
//! | BSR `x[bc·b .. bc·b+b]` | every block column `bc < ncols/b` | BA22 |
//! | ITPACK `vals[k·n+r]`, `colind[k·n+r]` | both arrays hold exactly `width·nrows` slots | BA25 |
//! | ITPACK `x[colind[s]]` for *every* slot `s` (padding included) | bounds check covers padded slots too | BA22 |
//!
//! A certificate ([`CsrCert`], [`MsrCert`], [`BsrCert`], [`ItpackCert`],
//! or the [`SparseMatrix`]-level [`MatrixCert`]) can only be obtained
//! through `certify`, which runs the full sanitizer. The certificate
//! records a structural fingerprint — dimensions, the address and
//! length of every array it certified, and an FNV-1a content hash over
//! the *index* arrays (the same fold `WavefrontCert` uses for its
//! schedule hash; values are excluded because no BA2x invariant
//! constrains them) — and each fast kernel re-checks that fingerprint
//! at entry ([`covers`](CsrCert::covers)), refusing matrices it does
//! not describe. Address + length alone would not be sound: the
//! allocator is free to hand a *new, never-validated* matrix the same
//! address and length right after a certified one is dropped, and a
//! certificate must not transfer to it. The content hash closes that
//! hole: equal index-array content at equal dimensions re-establishes
//! every BA2x invariant the sanitizer proved (no format exposes `&mut`
//! access to its index structure — only [`Csr::vals_mut`] exists, and
//! values cannot break an index invariant). The same fact makes the
//! hash a property of the operand *instance*: each certifiable format
//! memoises it ([`Csr::index_digest`] and its three siblings), so the
//! O(nnz) sweep runs once per instance — inspector cost — and every
//! later `certify`, `covers()` and kernel entry binds in O(1). A
//! matrix built at a recycled address starts with an empty memo and
//! hashes its *own* arrays, so it is refused exactly as before.
//!
//! ## Determinism contract
//!
//! f64 `+` is not associative, so the multi-accumulator split is a
//! *documented, deterministic* reassociation — never a silent one:
//!
//! * **CSR / MSR row dots** use [`LANES`] = 4 accumulators: the entry
//!   at in-row position `p` feeds lane `p % 4`, each lane accumulates
//!   strictly left-to-right, and the lanes combine as
//!   `(l0 + l1) + (l2 + l3)`. This is *not* bitwise-identical to the
//!   single-accumulator reference in general, so the safe
//!   [`spmv_csr_lanes`] / [`spmv_msr_lanes`] kernels define the exact
//!   order and the fast kernels are property-pinned bitwise against
//!   them (`tests/fast_kernels.rs`).
//! * **BSR** (unrolled 2×2/3×3/4×4 + generic) and **ITPACK** preserve
//!   the reference kernels' exact per-element operation order, so they
//!   are pinned bitwise against [`Bsr::spmv_acc`] and
//!   [`crate::kernels::spmv_in`]`::<F64Plus, Itpack>` themselves.
//!
//! The engine seam ([`bernoulli` core]'s `SpmvEngine`) only arms this
//! tier when [`ExecCtx::fast_kernels`](crate::ExecCtx::fast_kernels)
//! is explicitly enabled, so the default path stays bitwise-pinned by
//! the historical goldens.

use crate::{Bsr, Csr, Itpack, Msr, SparseMatrix, Validate};
use std::sync::OnceLock;

/// Lane count of the multi-accumulator CSR/MSR row-dot split.
pub const LANES: usize = 4;

/// O(1) fingerprint of one certified array: address + length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SliceId {
    ptr: usize,
    len: usize,
}

fn slice_id<T>(s: &[T]) -> SliceId {
    SliceId { ptr: s.as_ptr() as usize, len: s.len() }
}

/// FNV-1a offset basis / fold — the same scheme `WavefrontCert` pins
/// its level schedules with.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100000001b3)
}

#[cfg(test)]
thread_local! {
    /// [`index_hash`] runs on this thread: what the memo tests count.
    static HASH_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// FNV-1a content hash of the certified *index* arrays (values carry no
/// BA2x obligation and are excluded). Four interleaved lanes — element
/// at position `p` feeds lane `p % 4`, lanes folded together at the end
/// — so the per-entry multiply chains stay independent and the sweep
/// does not serialise on one chain. Each array's length is folded
/// in first, separating the arrays so content cannot shift across an
/// array boundary unnoticed.
fn index_hash(arrays: &[&[usize]]) -> u64 {
    #[cfg(test)]
    HASH_RUNS.with(|n| n.set(n.get() + 1));
    let mut lanes = [FNV_OFFSET; 4];
    for a in arrays {
        lanes[0] = fnv(lanes[0], a.len() as u64);
        let mut it = a.chunks_exact(4);
        for c in &mut it {
            lanes[0] = fnv(lanes[0], c[0] as u64);
            lanes[1] = fnv(lanes[1], c[1] as u64);
            lanes[2] = fnv(lanes[2], c[2] as u64);
            lanes[3] = fnv(lanes[3], c[3] as u64);
        }
        for (j, &x) in it.remainder().iter().enumerate() {
            lanes[j] = fnv(lanes[j], x as u64);
        }
    }
    let mut h = FNV_OFFSET;
    for l in lanes {
        h = fnv(h, l);
    }
    h
}

/// One operand instance's [`index_hash`], filled by its first reader.
/// The owning format hands in its index arrays, which have no `_mut`
/// accessor, so the memo cannot go stale; a clone carries it (equal
/// arrays), equality ignores it (derived, not stored, state).
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexDigest(OnceLock<u64>);

impl IndexDigest {
    pub(crate) fn of(&self, arrays: &[&[usize]]) -> u64 {
        *self.0.get_or_init(|| index_hash(arrays))
    }
}

impl PartialEq for IndexDigest {
    fn eq(&self, _: &IndexDigest) -> bool {
        true
    }
}

/// Validation certificate for one [`Csr`] matrix.
///
/// Obtainable only through [`CsrCert::certify`], which runs the full
/// BA2x sanitizer; holds the structural fingerprint the fast kernel
/// re-checks at entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrCert {
    nrows: usize,
    ncols: usize,
    rowptr: SliceId,
    colind: SliceId,
    vals: SliceId,
    /// [`Csr::index_digest`]: the content gate that keeps a
    /// certificate from transferring to a never-validated matrix the
    /// allocator placed at a recycled address.
    content: u64,
}

impl CsrCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Csr) -> Result<CsrCert, String> {
        a.validate_ok()?;
        Ok(CsrCert {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rowptr: slice_id(a.rowptr()),
            colind: slice_id(a.colind()),
            vals: slice_id(a.vals()),
            content: a.index_digest(),
        })
    }

    /// Does this certificate describe exactly this matrix's storage?
    /// Dimension/address checks, then the operand's memoised index
    /// digest: O(nnz) the first time an instance is asked, O(1) after.
    pub fn covers(&self, a: &Csr) -> bool {
        self.nrows == a.nrows()
            && self.ncols == a.ncols()
            && self.rowptr == slice_id(a.rowptr())
            && self.colind == slice_id(a.colind())
            && self.vals == slice_id(a.vals())
            && self.content == a.index_digest()
    }
}

/// The documented lane order of the fast CSR kernel, in safe code: the
/// entry at in-row position `p` feeds lane `p % 4`, lanes accumulate
/// left-to-right and combine as `(l0 + l1) + (l2 + l3)`. The bitwise
/// reference [`spmv_csr_fast`] is pinned against.
pub fn spmv_csr_lanes(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let rowptr = a.rowptr();
    let colind = a.colind();
    let vals = a.vals();
    for (r, yr) in y.iter_mut().enumerate() {
        let (s, e) = (rowptr[r], rowptr[r + 1]);
        let mut l = [0.0f64; LANES];
        let mut k = s;
        while k + LANES <= e {
            l[0] += vals[k] * x[colind[k]];
            l[1] += vals[k + 1] * x[colind[k + 1]];
            l[2] += vals[k + 2] * x[colind[k + 2]];
            l[3] += vals[k + 3] * x[colind[k + 3]];
            k += LANES;
        }
        let mut j = 0;
        while k < e {
            l[j] += vals[k] * x[colind[k]];
            k += 1;
            j += 1;
        }
        *yr += (l[0] + l[1]) + (l[2] + l[3]);
    }
}

/// Bounds-check-free 4-lane `y += A·x` for CSR. Bitwise-identical to
/// [`spmv_csr_lanes`] (same expression structure, same order).
///
/// Panics if `cert` does not cover `a` — the certificate is the proof
/// obligation of every unchecked access in the kernel.
pub fn spmv_csr_fast(a: &Csr, x: &[f64], y: &mut [f64], cert: &CsrCert) {
    assert!(try_spmv_csr_fast(a, x, y, cert), "CsrCert does not cover this matrix");
}

/// [`spmv_csr_fast`], answering instead of panicking: `false` — and `y`
/// untouched — when `cert` does not cover `a`. The `covers()` check —
/// O(1) once `a`'s digest is memoised — dominates every `unsafe` block
/// below.
fn try_spmv_csr_fast(a: &Csr, x: &[f64], y: &mut [f64], cert: &CsrCert) -> bool {
    if !cert.covers(a) {
        return false;
    }
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let rowptr = a.rowptr();
    let colind = a.colind();
    let vals = a.vals();
    for (r, yr) in y.iter_mut().enumerate() {
        // SAFETY: BA21 — rowptr has nrows+1 entries and r < nrows
        // (y.len() == nrows asserted above, r < y.len()).
        let (s, e) = unsafe { (*rowptr.get_unchecked(r), *rowptr.get_unchecked(r + 1)) };
        let mut l = [0.0f64; LANES];
        let mut k = s;
        while k + LANES <= e {
            // SAFETY: BA21 bounds s..e within 0..vals.len() (monotone
            // pointers ending at vals.len()); BA25 gives
            // colind.len() == vals.len(); BA22 gives every
            // colind[k] < ncols == x.len().
            unsafe {
                l[0] += *vals.get_unchecked(k) * *x.get_unchecked(*colind.get_unchecked(k));
                l[1] += *vals.get_unchecked(k + 1)
                    * *x.get_unchecked(*colind.get_unchecked(k + 1));
                l[2] += *vals.get_unchecked(k + 2)
                    * *x.get_unchecked(*colind.get_unchecked(k + 2));
                l[3] += *vals.get_unchecked(k + 3)
                    * *x.get_unchecked(*colind.get_unchecked(k + 3));
            }
            k += LANES;
        }
        let mut j = 0;
        while k < e {
            // SAFETY: same BA21/BA25/BA22 argument as the chunk loop.
            unsafe {
                l[j] += *vals.get_unchecked(k) * *x.get_unchecked(*colind.get_unchecked(k));
            }
            k += 1;
            j += 1;
        }
        *yr += (l[0] + l[1]) + (l[2] + l[3]);
    }
    true
}

/// Validation certificate for one [`Msr`] matrix (see [`CsrCert`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsrCert {
    nrows: usize,
    ncols: usize,
    diag: SliceId,
    rowptr: SliceId,
    colind: SliceId,
    vals: SliceId,
    /// [`Msr::index_digest`] (diag holds values only).
    content: u64,
}

impl MsrCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Msr) -> Result<MsrCert, String> {
        a.validate_ok()?;
        Ok(MsrCert {
            nrows: a.nrows(),
            ncols: a.ncols(),
            diag: slice_id(a.diagonal()),
            rowptr: slice_id(a.rowptr()),
            colind: slice_id(a.colind()),
            vals: slice_id(a.vals()),
            content: a.index_digest(),
        })
    }

    /// Does this certificate describe exactly this matrix's storage?
    pub fn covers(&self, a: &Msr) -> bool {
        self.nrows == a.nrows()
            && self.ncols == a.ncols()
            && self.diag == slice_id(a.diagonal())
            && self.rowptr == slice_id(a.rowptr())
            && self.colind == slice_id(a.colind())
            && self.vals == slice_id(a.vals())
            && self.content == a.index_digest()
    }
}

/// The documented lane order of the fast MSR kernel, in safe code:
/// dense diagonal pass first (reference order), then the off-diagonal
/// row dots with the same 4-lane split as [`spmv_csr_lanes`].
pub fn spmv_msr_lanes(a: &Msr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    for (i, &d) in a.diagonal().iter().enumerate() {
        y[i] += d * x[i];
    }
    let rowptr = a.rowptr();
    let colind = a.colind();
    let vals = a.vals();
    for (r, yr) in y.iter_mut().enumerate() {
        let (s, e) = (rowptr[r], rowptr[r + 1]);
        let mut l = [0.0f64; LANES];
        let mut k = s;
        while k + LANES <= e {
            l[0] += vals[k] * x[colind[k]];
            l[1] += vals[k + 1] * x[colind[k + 1]];
            l[2] += vals[k + 2] * x[colind[k + 2]];
            l[3] += vals[k + 3] * x[colind[k + 3]];
            k += LANES;
        }
        let mut j = 0;
        while k < e {
            l[j] += vals[k] * x[colind[k]];
            k += 1;
            j += 1;
        }
        *yr += (l[0] + l[1]) + (l[2] + l[3]);
    }
}

/// Bounds-check-free `y += A·x` for MSR: stride-1 diagonal pass, then
/// 4-lane off-diagonal dots. Bitwise-identical to [`spmv_msr_lanes`].
pub fn spmv_msr_fast(a: &Msr, x: &[f64], y: &mut [f64], cert: &MsrCert) {
    assert!(cert.covers(a), "MsrCert does not cover this matrix");
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let diag = a.diagonal();
    for (i, &d) in diag.iter().enumerate() {
        // SAFETY: BA25 — diag.len() == min(nrows, ncols), and
        // x.len() == ncols / y.len() == nrows are asserted above, so
        // i < diag.len() indexes both in bounds.
        unsafe {
            *y.get_unchecked_mut(i) += d * *x.get_unchecked(i);
        }
    }
    let rowptr = a.rowptr();
    let colind = a.colind();
    let vals = a.vals();
    for (r, yr) in y.iter_mut().enumerate() {
        // SAFETY: BA21 — rowptr has nrows+1 monotone entries, r < nrows.
        let (s, e) = unsafe { (*rowptr.get_unchecked(r), *rowptr.get_unchecked(r + 1)) };
        let mut l = [0.0f64; LANES];
        let mut k = s;
        while k + LANES <= e {
            // SAFETY: BA21 (s..e ⊆ 0..vals.len()), BA25
            // (colind.len() == vals.len()), BA22 (colind[k] < ncols).
            unsafe {
                l[0] += *vals.get_unchecked(k) * *x.get_unchecked(*colind.get_unchecked(k));
                l[1] += *vals.get_unchecked(k + 1)
                    * *x.get_unchecked(*colind.get_unchecked(k + 1));
                l[2] += *vals.get_unchecked(k + 2)
                    * *x.get_unchecked(*colind.get_unchecked(k + 2));
                l[3] += *vals.get_unchecked(k + 3)
                    * *x.get_unchecked(*colind.get_unchecked(k + 3));
            }
            k += LANES;
        }
        let mut j = 0;
        while k < e {
            // SAFETY: same BA21/BA25/BA22 argument as the chunk loop.
            unsafe {
                l[j] += *vals.get_unchecked(k) * *x.get_unchecked(*colind.get_unchecked(k));
            }
            k += 1;
            j += 1;
        }
        *yr += (l[0] + l[1]) + (l[2] + l[3]);
    }
}

/// Validation certificate for one [`Bsr`] matrix (see [`CsrCert`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BsrCert {
    nrows: usize,
    ncols: usize,
    b: usize,
    browptr: SliceId,
    bcolind: SliceId,
    blocks: SliceId,
    /// [`Bsr::index_digest`].
    content: u64,
}

impl BsrCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Bsr) -> Result<BsrCert, String> {
        a.validate_ok()?;
        Ok(BsrCert {
            nrows: a.nrows(),
            ncols: a.ncols(),
            b: a.block_size(),
            browptr: slice_id(a.browptr()),
            bcolind: slice_id(a.bcolind()),
            blocks: slice_id(a.blocks()),
            content: a.index_digest(),
        })
    }

    /// Does this certificate describe exactly this matrix's storage?
    pub fn covers(&self, a: &Bsr) -> bool {
        self.nrows == a.nrows()
            && self.ncols == a.ncols()
            && self.b == a.block_size()
            && self.browptr == slice_id(a.browptr())
            && self.bcolind == slice_id(a.bcolind())
            && self.blocks == slice_id(a.blocks())
            && self.content == a.index_digest()
    }
}

/// One register-blocked `b×b` micro-step, monomorphised per block size.
/// Reference operation order ([`Bsr::spmv_acc`]): for each block row
/// `r`, accumulate `blk[r·b+c]·x[c]` left-to-right from 0.0, then add
/// into `y[r]` — preserved exactly, so the whole kernel is
/// bitwise-identical to the reference.
macro_rules! bsr_block_step {
    ($B:expr, $yrow:expr, $xs:expr, $blk:expr) => {{
        let yrow: &mut [f64; $B] = $yrow.try_into().expect("block row width");
        let xs: &[f64; $B] = $xs.try_into().expect("block col width");
        let blk: &[f64; $B * $B] = $blk.try_into().expect("block payload");
        for r in 0..$B {
            let mut acc = 0.0;
            for c in 0..$B {
                acc = acc + blk[r * $B + c] * xs[c];
            }
            yrow[r] = yrow[r] + acc;
        }
    }};
}

/// Bounds-check-free `y += A·x` for BSR: register-blocked micro-kernels
/// unrolled for `b ∈ {2, 3, 4}` (the compiler fully unrolls the
/// constant-size block loops) with a generic fallback for other sizes.
/// Bitwise-identical to [`Bsr::spmv_acc`] — the per-element operation
/// order is preserved exactly.
// `a = a + p`, not `a += p`, throughout: the reference is the semiring-
// generic body (`S::plus(a, p)`), and the two spellings can compile to
// opposite operand orders, which shows in NaN payloads (see
// `spmv_itpack_fast`).
#[allow(clippy::assign_op_pattern)]
pub fn spmv_bsr_fast(a: &Bsr, x: &[f64], y: &mut [f64], cert: &BsrCert) {
    assert!(cert.covers(a), "BsrCert does not cover this matrix");
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let b = a.block_size();
    let browptr = a.browptr();
    let bcolind = a.bcolind();
    let blocks = a.blocks();
    // chunks_exact_mut covers all nrows rows: BA25 certified b | nrows.
    for (br, yrow) in y.chunks_exact_mut(b).enumerate() {
        // SAFETY: BA21 — browptr has nrows/b + 1 monotone entries and
        // br < nrows/b by construction of chunks_exact_mut.
        let (s, e) = unsafe { (*browptr.get_unchecked(br), *browptr.get_unchecked(br + 1)) };
        for k in s..e {
            // SAFETY: BA21 bounds k < bcolind.len(); BA22 gives
            // bc < ncols/b so bc·b + b <= ncols == x.len(); BA25 gives
            // blocks.len() == bcolind.len()·b² so the block slice is in
            // bounds.
            let (xs, blk) = unsafe {
                let bc = *bcolind.get_unchecked(k);
                (
                    x.get_unchecked(bc * b..bc * b + b),
                    blocks.get_unchecked(k * b * b..(k + 1) * b * b),
                )
            };
            match b {
                2 => bsr_block_step!(2, yrow, xs, blk),
                3 => bsr_block_step!(3, yrow, xs, blk),
                4 => bsr_block_step!(4, yrow, xs, blk),
                _ => {
                    for (r, yv) in yrow.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (c, &xv) in xs.iter().enumerate() {
                            // SAFETY: r < b and c < b, so r·b + c < b²
                            // == blk.len() (BA25 block payload size).
                            acc = acc + unsafe { *blk.get_unchecked(r * b + c) } * xv;
                        }
                        *yv = *yv + acc;
                    }
                }
            }
        }
    }
}

/// Validation certificate for one [`Itpack`] matrix (see [`CsrCert`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItpackCert {
    nrows: usize,
    ncols: usize,
    width: usize,
    colind: SliceId,
    vals: SliceId,
    /// [`Itpack::index_digest`] (padded slots included — the BA22
    /// obligation covers them too).
    content: u64,
}

impl ItpackCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Itpack) -> Result<ItpackCert, String> {
        a.validate_ok()?;
        let (colind, vals) = a.arrays();
        Ok(ItpackCert {
            nrows: a.nrows(),
            ncols: a.ncols(),
            width: a.width(),
            colind: slice_id(colind),
            vals: slice_id(vals),
            content: a.index_digest(),
        })
    }

    /// Does this certificate describe exactly this matrix's storage?
    pub fn covers(&self, a: &Itpack) -> bool {
        let (colind, vals) = a.arrays();
        self.nrows == a.nrows()
            && self.ncols == a.ncols()
            && self.width == a.width()
            && self.colind == slice_id(colind)
            && self.vals == slice_id(vals)
            && self.content == a.index_digest()
    }
}

/// Bounds-check-free `y += A·x` for ITPACK/ELLPACK: the stride-1
/// column-major sweep over padded slots, arranged so the only
/// non-unit-stride access left in the inner loop is the `x` gather —
/// exactly what autovectorization wants. Bitwise-identical to
/// [`crate::kernels::spmv_in`]`::<F64Plus, Itpack>` (same slot order,
/// padding included: padded slots multiply 0.0 against an in-bounds
/// `x` element, reproducing the reference's NaN/Inf propagation).
pub fn spmv_itpack_fast(a: &Itpack, x: &[f64], y: &mut [f64], cert: &ItpackCert) {
    assert!(try_spmv_itpack_fast(a, x, y, cert), "ItpackCert does not cover this matrix");
}

/// [`spmv_itpack_fast`], answering instead of panicking (see
/// [`try_spmv_csr_fast`]).
// The `y = y + p` spelling below is semantic, not style — see the
// SAFETY/NaN comment on the inner statement.
#[allow(clippy::assign_op_pattern)]
fn try_spmv_itpack_fast(a: &Itpack, x: &[f64], y: &mut [f64], cert: &ItpackCert) -> bool {
    if !cert.covers(a) {
        return false;
    }
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let n = a.nrows();
    let (colind, vals) = a.arrays();
    for k in 0..a.width() {
        let base = k * n;
        for (r, yr) in y.iter_mut().enumerate() {
            // SAFETY: BA25 — both arrays hold exactly width·nrows
            // slots, and base + r = k·n + r < width·n for k < width,
            // r < n. BA22 — every colind slot (padding included) is
            // < ncols == x.len().
            //
            // Written as `y = y + p`, not `y += p`, to mirror the
            // reference kernel's expression exactly: when both addends
            // are (distinct) NaNs the hardware propagates one operand's
            // payload, and the two spellings can compile to opposite
            // operand orders.
            unsafe {
                *yr = *yr
                    + *vals.get_unchecked(base + r)
                        * *x.get_unchecked(*colind.get_unchecked(base + r));
            }
        }
    }
    true
}

/// [`SparseMatrix`]-level validation certificate: the engine seam's
/// handle. Computed once at engine compile time, cached in the engine,
/// and re-checked (dimension/address compare plus the operand's
/// memoised index digest) on every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixCert {
    Csr(CsrCert),
    Itpack(ItpackCert),
}

impl MatrixCert {
    /// Certify a [`SparseMatrix`] for the fast tier. Formats without a
    /// fast microkernel — and any matrix the sanitizer rejects — are
    /// refused with a reason.
    pub fn certify(a: &SparseMatrix) -> Result<MatrixCert, String> {
        match a {
            SparseMatrix::Csr(m) => CsrCert::certify(m).map(MatrixCert::Csr),
            SparseMatrix::Itpack(m) => ItpackCert::certify(m).map(MatrixCert::Itpack),
            other => Err(format!("no fast microkernel for format {}", other.kind())),
        }
    }

    /// Does this certificate describe exactly this matrix's storage?
    pub fn covers(&self, a: &SparseMatrix) -> bool {
        match (self, a) {
            (MatrixCert::Csr(c), SparseMatrix::Csr(m)) => c.covers(m),
            (MatrixCert::Itpack(c), SparseMatrix::Itpack(m)) => c.covers(m),
            _ => false,
        }
    }
}

/// `y += A·x` through the fast tier of whichever format the
/// certificate covers: `true` when it ran. `false` — with `y` untouched
/// — when `cert` does not cover `a` (another matrix, or a clone: the
/// arrays moved); the caller (the engine) then runs the reference tier.
/// The certificate is checked here once per run, in O(1) on every run
/// after the operand's first.
pub fn spmv_acc_fast(a: &SparseMatrix, x: &[f64], y: &mut [f64], cert: &MatrixCert) -> bool {
    match (cert, a) {
        (MatrixCert::Csr(c), SparseMatrix::Csr(m)) => try_spmv_csr_fast(m, x, y, c),
        (MatrixCert::Itpack(c), SparseMatrix::Itpack(m)) => try_spmv_itpack_fast(m, x, y, c),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d_5pt;
    use crate::kernels;
    use crate::Triplets;
    use bernoulli_relational::semiring::F64Plus;

    fn sample() -> Triplets {
        grid2d_5pt(9, 7)
    }

    fn xvec(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect()
    }

    #[test]
    fn csr_fast_is_bitwise_lane_reference() {
        let t = sample();
        let a = Csr::from_triplets(&t);
        let cert = CsrCert::certify(&a).unwrap();
        let x = xvec(a.ncols());
        let mut y1 = vec![0.1; a.nrows()];
        let mut y2 = y1.clone();
        spmv_csr_lanes(&a, &x, &mut y1);
        spmv_csr_fast(&a, &x, &mut y2, &cert);
        for (p, q) in y1.iter().zip(&y2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn msr_fast_is_bitwise_lane_reference() {
        let t = sample();
        let a = Msr::from_triplets(&t);
        let cert = MsrCert::certify(&a).unwrap();
        let x = xvec(a.ncols());
        let mut y1 = vec![-0.25; a.nrows()];
        let mut y2 = y1.clone();
        spmv_msr_lanes(&a, &x, &mut y1);
        spmv_msr_fast(&a, &x, &mut y2, &cert);
        for (p, q) in y1.iter().zip(&y2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn bsr_fast_is_bitwise_reference_for_all_block_sizes() {
        let t = crate::gen::fem_grid_2d(4, 3, 2); // 24×24: divisible by 1..4 and 6
        for b in [1, 2, 3, 4, 6] {
            let a = Bsr::from_triplets(&t, b);
            let cert = BsrCert::certify(&a).unwrap();
            let x = xvec(a.ncols());
            let mut y1 = vec![0.5; a.nrows()];
            let mut y2 = y1.clone();
            a.spmv_acc(&x, &mut y1);
            spmv_bsr_fast(&a, &x, &mut y2, &cert);
            for (p, q) in y1.iter().zip(&y2) {
                assert_eq!(p.to_bits(), q.to_bits(), "block size {b}");
            }
        }
    }

    #[test]
    fn itpack_fast_is_bitwise_reference() {
        let t = sample();
        let a = Itpack::from_triplets(&t);
        let cert = ItpackCert::certify(&a).unwrap();
        let x = xvec(a.ncols());
        let mut y1 = vec![2.0; a.nrows()];
        let mut y2 = y1.clone();
        kernels::spmv_in::<F64Plus, Itpack>(&a, &x, &mut y1);
        spmv_itpack_fast(&a, &x, &mut y2, &cert);
        for (p, q) in y1.iter().zip(&y2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn certificate_refused_for_corrupt_matrix() {
        // Column index out of bounds: BA22 must refuse the certificate.
        let bad = Csr::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]);
        assert!(CsrCert::certify(&bad).is_err());
        assert!(MatrixCert::certify(&SparseMatrix::Csr(bad)).is_err());
        // Non-monotone row pointers: BA21.
        let bad = Csr::from_raw_unchecked(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(CsrCert::certify(&bad).is_err());
    }

    #[test]
    fn index_hash_separates_array_boundaries_and_content() {
        // Moving an element across the array boundary must change the
        // hash (each array's length is folded in as a separator).
        assert_ne!(index_hash(&[&[1], &[]]), index_hash(&[&[], &[1]]));
        assert_ne!(index_hash(&[&[1, 2], &[3]]), index_hash(&[&[1], &[2, 3]]));
        // Same layout, one index changed: different hash.
        let a: Vec<usize> = (0..100).collect();
        let mut b = a.clone();
        b[57] = 9999;
        assert_ne!(index_hash(&[&a]), index_hash(&[&b]));
        assert_eq!(index_hash(&[&a]), index_hash(&[&a.clone()]));
    }

    #[test]
    fn certificate_does_not_cover_a_clone() {
        let a = Csr::from_triplets(&sample());
        let cert = CsrCert::certify(&a).unwrap();
        assert!(cert.covers(&a));
        let b = a.clone();
        assert!(!cert.covers(&b), "clone moved the arrays; fingerprint must miss");
    }

    fn runs() -> usize {
        HASH_RUNS.with(|n| n.get())
    }

    /// `certify` + 100 kernel entries + 100 `covers()` hash the operand
    /// once; a rebuilt operand hashes once more, for its own
    /// certificate, and the old one keeps refusing it.
    macro_rules! binds_in_one_hash_run {
        ($build:expr, $certify:path, $kernel:path) => {{
            let t = sample();
            let (a, start) = ($build(&t), runs());
            let cert = $certify(&a).unwrap();
            let x = xvec(t.ncols());
            let mut y = vec![0.0; t.nrows()];
            for _ in 0..100 {
                let _ = $kernel(&a, &x, &mut y, &cert);
                assert!(cert.covers(&a));
            }
            assert_eq!(runs() - start, 1);
            let rebuilt = $build(&t);
            let cert2 = $certify(&rebuilt).unwrap();
            for _ in 0..100 {
                assert!(!cert.covers(&rebuilt) && cert2.covers(&rebuilt));
            }
            assert_eq!(runs() - start, 2);
        }};
    }

    #[test]
    fn every_certificate_binds_in_one_hash_run_per_operand_instance() {
        binds_in_one_hash_run!(Csr::from_triplets, CsrCert::certify, spmv_csr_fast);
        binds_in_one_hash_run!(Msr::from_triplets, MsrCert::certify, spmv_msr_fast);
        binds_in_one_hash_run!(|t| Bsr::from_triplets(t, 1), BsrCert::certify, spmv_bsr_fast);
        binds_in_one_hash_run!(Itpack::from_triplets, ItpackCert::certify, spmv_itpack_fast);
        for kind in [crate::FormatKind::Csr, crate::FormatKind::Itpack] {
            binds_in_one_hash_run!(
                |t| SparseMatrix::from_triplets(kind, t),
                MatrixCert::certify,
                spmv_acc_fast
            );
        }
    }

    /// The ABA case at O(1) binding: a never-validated replacement built
    /// in the certified operand's buffers starts with an empty memo, so
    /// `covers()` hashes *its* arrays — once — and refuses.
    #[test]
    fn recycled_address_costs_one_hash_run_and_is_refused() {
        const N: usize = 64;
        for at in 0..N {
            let good = Csr::from_raw_unchecked(N, N, (0..=N).collect(), (0..N).collect(), vec![1.0f64; N]);
            let cert = CsrCert::certify(&good).unwrap();
            let (rowptr, mut colind, vals) = good.into_raw();
            colind[at] = N + 9999;
            let bad = Csr::from_raw_unchecked(N, N, rowptr, colind, vals);
            assert_eq!((cert.rowptr, cert.colind, cert.vals), (slice_id(bad.rowptr()), slice_id(bad.colind()), slice_id(bad.vals())));
            let start = runs();
            for _ in 0..100 {
                assert!(!cert.covers(&bad), "column {at}");
            }
            assert_eq!(runs() - start, 1);
        }
    }

    #[test]
    fn digest_memo_invariants() {
        let t = sample();
        let mut a = Csr::from_triplets(&t);
        let start = runs();
        let d = a.index_digest();
        // `Clone` carries the memo, `vals_mut` preserves it.
        let b = a.clone();
        a.vals_mut()[0] = -7.0;
        assert_eq!((b.index_digest(), a.index_digest()), (d, d));
        assert_eq!(runs() - start, 1);
        // `==` ignores it: a hashed operand equals an unhashed rebuild.
        assert_eq!(b, Csr::from_triplets(&t));
        let (m, s) = (Msr::from_triplets(&t), Bsr::from_triplets(&t, 1));
        let i = Itpack::from_triplets(&t);
        // MSR splits the diagonal out of the index arrays CSR hashes.
        assert_ne!(m.index_digest(), d);
        assert_eq!(s.index_digest(), d, "b = 1 block arrays are the CSR arrays");
        assert_ne!(i.index_digest(), d);
        assert_eq!(m, Msr::from_triplets(&t));
        assert_eq!(s, Bsr::from_triplets(&t, 1));
        assert_eq!(i, Itpack::from_triplets(&t));
    }

    #[test]
    fn racing_first_covers_agree_and_hash_once() {
        let a = Csr::from_triplets(&sample());
        // A certificate assembled by hand, so the operand's memo is
        // still empty when the two threads meet.
        let cert = CsrCert {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rowptr: slice_id(a.rowptr()),
            colind: slice_id(a.colind()),
            vals: slice_id(a.vals()),
            content: index_hash(&[a.rowptr(), a.colind()]),
        };
        let gate = std::sync::Barrier::new(2);
        let racer = || {
            gate.wait();
            let start = runs();
            (cert.covers(&a), runs() - start)
        };
        let (p, q) = std::thread::scope(|s| {
            let h = s.spawn(racer);
            (racer(), h.join().unwrap())
        });
        assert!(p.0 && q.0);
        assert_eq!(p.1 + q.1, 1, "the loser of the race waits for the winner's hash");
    }

    #[test]
    fn matrix_cert_refuses_uncovered_formats() {
        let a = SparseMatrix::from_triplets(crate::FormatKind::Coordinate, &sample());
        let err = MatrixCert::certify(&a).unwrap_err();
        assert!(err.contains("no fast microkernel"), "{err}");
    }
}
