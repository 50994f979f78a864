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
//! | ITPACK `vals[k·n+r]`, `colind[k·n+r]` | both arrays hold exactly `width·nrows` slots | BA25 |
//! | ITPACK `x[colind[s]]` for *every* slot `s` (padding included) | bounds check covers padded slots too | BA22 |
//!
//! A certificate ([`CsrCert`], [`ItpackCert`], or the
//! [`SparseMatrix`]-level [`MatrixCert`]) can only be obtained through
//! `certify`, which runs the full sanitizer. It holds the operand's
//! [`OperandBinding`] — the one O(1) binding every certificate in the
//! workspace checks, whose content digest keeps a certificate from
//! transferring to a never-validated matrix built at a recycled address
//! — and each fast kernel re-checks it at entry
//! ([`covers`](CsrCert::covers)), refusing matrices it does not
//! describe. A CSR certificate also binds the `vals` slice, whose
//! length BA21/BA25 tie to the index arrays and which
//! [`Csr::from_raw_unchecked`] could otherwise pair with them at any
//! length; an ITPACK matrix has no such constructor. The digest is
//! memoised per instance ([`Csr::index_digest`],
//! [`Itpack::index_digest`]), so the O(nnz) sweep runs once per operand
//! — inspector cost — and every later `certify`, `covers()` and kernel
//! entry binds in O(1).
//!
//! ## Determinism contract
//!
//! f64 `+` is not associative, so the multi-accumulator split is a
//! *documented, deterministic* reassociation — never a silent one:
//!
//! * **CSR row dots** use [`LANES`] = 4 accumulators: the entry at
//!   in-row position `p` feeds lane `p % 4`, each lane accumulates
//!   strictly left-to-right, and the lanes combine as
//!   `(l0 + l1) + (l2 + l3)`. This is *not* bitwise-identical to the
//!   single-accumulator reference in general, so the safe
//!   [`spmv_csr_lanes`] kernel defines the exact order and the fast
//!   kernel is property-pinned bitwise against it
//!   (`tests/fast_kernels.rs`).
//! * **ITPACK** preserves the reference kernel's exact per-element
//!   operation order, so it is pinned bitwise against
//!   [`crate::kernels::spmv_in`]`::<F64Plus, Itpack>` itself.
//!
//! The engine seam ([`bernoulli` core]'s `SpmvEngine`) only arms this
//! tier when [`ExecCtx::fast_kernels`](crate::ExecCtx::fast_kernels)
//! is explicitly enabled, so the default path stays bitwise-pinned by
//! the historical goldens.

use crate::{Csr, Itpack, SparseMatrix, Validate};
use bernoulli_analysis::binding::{index_digest, OperandBinding, SliceId};
use std::sync::OnceLock;

/// Lane count of the multi-accumulator CSR row-dot split.
pub const LANES: usize = 4;

/// One operand instance's [`index_digest`], filled by its first reader.
/// The owning format hands in its index arrays, which have no `_mut`
/// accessor, so the memo cannot go stale; a clone carries it (equal
/// arrays), equality ignores it (derived, not stored, state).
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexDigest(OnceLock<u64>);

impl IndexDigest {
    pub(crate) fn of(&self, arrays: &[&[usize]]) -> u64 {
        *self.0.get_or_init(|| {
            count_hash_run();
            index_digest(arrays)
        })
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
/// BA2x sanitizer; holds what the fast kernel re-checks at entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrCert {
    operand: OperandBinding,
    vals: SliceId,
}

impl CsrCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Csr) -> Result<CsrCert, String> {
        a.validate_ok()?;
        Ok(CsrCert { operand: a.binding(), vals: SliceId::of(a.vals()) })
    }

    /// Does this certificate describe exactly this matrix's storage?
    /// O(nnz) the first time an instance is asked (its digest), O(1)
    /// after.
    pub fn covers(&self, a: &Csr) -> bool {
        self.operand == a.binding() && self.vals == SliceId::of(a.vals())
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

/// Validation certificate for one [`Itpack`] matrix (see [`CsrCert`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItpackCert {
    operand: OperandBinding,
}

impl ItpackCert {
    /// Run the sanitizer; a clean matrix yields a certificate.
    pub fn certify(a: &Itpack) -> Result<ItpackCert, String> {
        a.validate_ok()?;
        Ok(ItpackCert { operand: a.binding() })
    }

    /// Does this certificate describe exactly this matrix's storage?
    pub fn covers(&self, a: &Itpack) -> bool {
        self.operand == a.binding()
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

/// What the memo tests count: one call per [`index_digest`] run.
#[cfg(not(test))]
fn count_hash_run() {}

#[cfg(test)]
fn count_hash_run() {
    tests::HASH_RUNS.with(|n| n.set(n.get() + 1));
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
    fn certificate_does_not_cover_a_clone() {
        let a = Csr::from_triplets(&sample());
        let cert = CsrCert::certify(&a).unwrap();
        assert!(cert.covers(&a));
        let b = a.clone();
        assert!(!cert.covers(&b), "clone moved the arrays; fingerprint must miss");
    }

    thread_local! {
        /// [`index_digest`] runs on this thread: what the memo tests count.
        pub(super) static HASH_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
            let old = (good.rowptr().as_ptr(), good.colind().as_ptr(), good.vals().as_ptr());
            let (rowptr, mut colind, vals) = good.into_raw();
            colind[at] = N + 9999;
            let bad = Csr::from_raw_unchecked(N, N, rowptr, colind, vals);
            assert_eq!((bad.rowptr().as_ptr(), bad.colind().as_ptr(), bad.vals().as_ptr()), old);
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
        let i = Itpack::from_triplets(&t);
        assert_ne!(i.index_digest(), d);
        assert_eq!(i, Itpack::from_triplets(&t));
    }

    #[test]
    fn racing_first_covers_agree_and_hash_once() {
        let a = Csr::from_triplets(&sample());
        // A certificate assembled by hand, so the operand's memo is
        // still empty when the two threads meet.
        let index = [a.rowptr(), a.colind()];
        let cert = CsrCert {
            operand: OperandBinding::new(a.nrows(), a.ncols(), index, index_digest(&index)),
            vals: SliceId::of(a.vals()),
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
