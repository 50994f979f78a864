//! Bit-equivalence suite for the certified bounds-check-free
//! microkernels (`bernoulli_formats::fast`).
//!
//! The correctness contract is *bitwise*, not approximate:
//!
//! * The CSR fast kernel must reproduce its safe lane-reference kernel
//!   (`spmv_csr_lanes`) bit for bit — the 4-lane split is a documented
//!   reassociation, so the reference that defines it is the lane
//!   kernel, not the single-accumulator one.
//! * The ITPACK fast kernel preserves the reference kernel's exact
//!   operation order, so it is pinned bitwise against
//!   `kernels::spmv_in::<F64Plus, Itpack>` directly.
//!
//! Inputs deliberately include empty rows, dense rows, and NaN/±Inf
//! values (the reassociation must not change which lanes see them —
//! the lane kernels make the order deterministic). Where the reference
//! produces a NaN the fast kernel must too, but the two need not be the
//! same NaN: neither IEEE 754 nor LLVM fixes the sign or payload of a
//! generated NaN, and optimised builds do differ (`0xFFF8…` against
//! `0x7FF8…`). Everything else — ±0, ±Inf, subnormals — is compared
//! bit for bit. Adversarial cases assert the fast path is *refused*:
//! `Validate`-rejected matrices never yield a certificate, so no unsafe
//! code is reachable for them.

use bernoulli::engines::SpmvEngine;
use bernoulli_formats::fast::{spmv_csr_fast, spmv_csr_lanes, spmv_itpack_fast, CsrCert, ItpackCert, MatrixCert};
use bernoulli_formats::{kernels, Csr, ExecCtx, FormatKind, Itpack, SparseMatrix, Triplets};
use bernoulli_relational::semiring::F64Plus;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a small random matrix whose values include NaN, ±Inf,
/// ±0.0 and subnormals alongside ordinary finite values. Row count
/// fixed per case so empty rows (no entries for some r) and dense rows
/// (up to `nc` entries) both occur.
fn arb_matrix() -> impl Strategy<Value = Triplets> {
    (1usize..14, 1usize..14).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec(
            (0..nr, 0..nc, -100i32..100, 0u8..32).prop_map(|(r, c, v, special)| {
                let val = match special {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => f64::MIN_POSITIVE / 2.0, // subnormal
                    _ => v as f64 / 4.0,
                };
                (r, c, val)
            }),
            0..80,
        )
        .prop_map(move |entries| Triplets::from_entries(nr, nc, &entries))
    })
}

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (-50i32..50, 0u8..24).prop_map(|(v, special)| match special {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => v as f64 / 8.0,
        }),
        len..=len,
    )
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.is_nan() && w.is_nan() {
            continue;
        }
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: row {} differs ({} vs {})",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fast CSR == lane-reference CSR, bit for bit, NaN/Inf included.
    #[test]
    fn csr_fast_bitwise_equals_lane_reference((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let a = Csr::from_triplets(&t);
        let cert = CsrCert::certify(&a).expect("clean matrix certifies");
        let mut y_ref = vec![0.5; a.nrows()];
        let mut y_fast = y_ref.clone();
        spmv_csr_lanes(&a, &x, &mut y_ref);
        spmv_csr_fast(&a, &x, &mut y_fast, &cert);
        assert_bits_eq(&y_fast, &y_ref, "csr")?;
    }

    /// Fast ITPACK == reference ITPACK, bit for bit (padding slots
    /// included in the sweep, exactly as the reference orders them).
    #[test]
    fn itpack_fast_bitwise_equals_reference((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let a = Itpack::from_triplets(&t);
        let cert = ItpackCert::certify(&a).expect("clean matrix certifies");
        let mut y_ref = vec![2.0; a.nrows()];
        let mut y_fast = y_ref.clone();
        kernels::spmv_in::<F64Plus, Itpack>(&a, &x, &mut y_ref);
        spmv_itpack_fast(&a, &x, &mut y_fast, &cert);
        assert_bits_eq(&y_fast, &y_ref, "itpack")?;
    }

    /// The fast-armed engine is bitwise the lane reference for CSR and
    /// falls back to the reference tier (bitwise `spmv_acc`) for every
    /// matrix it cannot certify.
    #[test]
    fn fast_engine_bitwise_contract((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let a = SparseMatrix::Csr(Csr::from_triplets(&t));
        let eng = SpmvEngine::compile_in(&a, &ExecCtx::serial().fast_kernels(true)).unwrap();
        // The fast tier arms exactly when the plan specializes (some
        // degenerate shapes — e.g. single-column matrices — plan into
        // a non-natural traversal and stay interpreted) and the
        // operand certifies; every certifiable specialized compile
        // must take it.
        use bernoulli::Strategy;
        prop_assert_eq!(eng.tier() == "fast", eng.strategy() == Strategy::Specialized);
        if eng.tier() == "fast" {
            let mut y = vec![0.0; t.nrows()];
            eng.run(&a, &x, &mut y).unwrap();
            let mut y_ref = vec![0.0; t.nrows()];
            if let SparseMatrix::Csr(m) = &a {
                spmv_csr_lanes(m, &x, &mut y_ref);
            }
            assert_bits_eq(&y, &y_ref, "engine/fast")?;
        }

        // A clone moved the arrays: certificate no longer covers it,
        // the run takes the reference path bitwise.
        let b = a.clone();
        let mut y = vec![0.0; t.nrows()];
        eng.run(&b, &x, &mut y).unwrap();
        let mut y_ref = vec![0.0; t.nrows()];
        b.spmv_acc(&x, &mut y_ref);
        assert_bits_eq(&y, &y_ref, "engine/fallback")?;
    }

    /// The fast tier arms for CSR and ITPACK only: every other format,
    /// compiled with the fast tier enabled, stays on the reference tier
    /// and runs bitwise its own `spmv_acc`.
    #[test]
    fn fast_tier_arms_for_csr_and_itpack_only((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let eng = SpmvEngine::compile_in(&a, &ExecCtx::serial().fast_kernels(true)).unwrap();
            if !matches!(kind, FormatKind::Csr | FormatKind::Itpack) {
                prop_assert_eq!(eng.tier(), "reference", "{}", kind);
                prop_assert!(MatrixCert::certify(&a).is_err());
                let mut y = vec![0.75; t.nrows()];
                let mut y_ref = y.clone();
                eng.run(&a, &x, &mut y).unwrap();
                a.spmv_acc(&x, &mut y_ref);
                assert_bits_eq(&y, &y_ref, kind.paper_name())?;
            }
        }
    }
}

/// Adversarial corpus: every matrix here fails `Validate`, so every
/// certificate request must be refused — the unsafe fast path is
/// unreachable for them, by construction.
#[test]
fn validate_rejected_matrices_are_refused_certificates() {
    // BA22: column index out of bounds.
    let bad = Csr::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 2.0]);
    assert!(CsrCert::certify(&bad).is_err());
    // BA21: non-monotone row pointers.
    let bad = Csr::from_raw_unchecked(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
    assert!(CsrCert::certify(&bad).is_err());
    // BA21: pointer array ends past the value array.
    let bad = Csr::from_raw_unchecked(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]);
    assert!(CsrCert::certify(&bad).is_err());
    // BA23: columns out of order within a row.
    let bad = Csr::from_raw_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    assert!(CsrCert::certify(&bad).is_err());
    // The SparseMatrix-level certificate refuses the same corpus…
    let bad = Csr::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 2.0]);
    assert!(MatrixCert::certify(&SparseMatrix::Csr(bad.clone())).is_err());
    // …and the fast-armed engine quietly stays on the reference tier.
    let eng = SpmvEngine::compile_in(&SparseMatrix::Csr(bad), &ExecCtx::serial().fast_kernels(true))
        .unwrap();
    assert_eq!(eng.tier(), "reference");
}

/// The certificate is bound to the exact storage it certified: mutating
/// values through the one public `&mut` accessor keeps it valid (values
/// carry no index invariant), but a rebuilt matrix does not inherit it.
#[test]
fn certificate_tracks_storage_identity() {
    let t = bernoulli_formats::gen::grid2d_5pt(5, 5);
    let mut a = Csr::from_triplets(&t);
    let cert = CsrCert::certify(&a).unwrap();
    assert!(cert.covers(&a));
    for v in a.vals_mut() {
        *v *= 2.0;
    }
    assert!(cert.covers(&a), "value mutation cannot break index invariants");
    let rebuilt = Csr::from_triplets(&t);
    assert!(!cert.covers(&rebuilt));
}

/// The ITPACK certificate binds its operand the same way: it covers the
/// matrix it certified, and neither a clone nor an equal rebuild.
#[test]
fn itpack_certificate_tracks_storage_identity() {
    let t = bernoulli_formats::gen::grid2d_5pt(5, 5);
    let a = Itpack::from_triplets(&t);
    let cert = ItpackCert::certify(&a).unwrap();
    assert!(cert.covers(&a));
    assert!(!cert.covers(&a.clone()), "a clone moved the arrays");
    let rebuilt = Itpack::from_triplets(&t);
    assert_eq!(rebuilt, a);
    assert!(!cert.covers(&rebuilt));
    // The format-level certificate is format-bound too.
    let m = MatrixCert::Itpack(cert);
    assert!(m.covers(&SparseMatrix::Itpack(a)));
    assert!(!m.covers(&SparseMatrix::from_triplets(FormatKind::Csr, &t)));
}

/// Empty and fully dense extremes, plus rows at every remainder mod 4
/// (the lane count), pinned bitwise.
#[test]
fn lane_remainders_and_extremes_bitwise() {
    for nc in 1..=9usize {
        // One row per possible length 0..=nc: hits every remainder
        // class of the 4-lane chunking, including the empty row.
        let nr = nc + 1;
        let mut t = Triplets::new(nr, nc);
        for r in 0..nr {
            for c in 0..r.min(nc) {
                t.push(r, c, ((r * 31 + c * 7) as f64).sin());
            }
        }
        let a = Csr::from_triplets(&t);
        let cert = CsrCert::certify(&a).unwrap();
        let x: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut y_ref = vec![0.25; nr];
        let mut y_fast = y_ref.clone();
        spmv_csr_lanes(&a, &x, &mut y_ref);
        spmv_csr_fast(&a, &x, &mut y_fast, &cert);
        for (g, w) in y_fast.iter().zip(&y_ref) {
            assert_eq!(g.to_bits(), w.to_bits(), "nc={nc}");
        }
    }
}

/// Regression: a certificate must never transfer to a *never-validated*
/// matrix that the allocator placed at the recycled address of the
/// certified one. The original fingerprint was address + length only,
/// so dropping a certified matrix and building a same-shape corrupt one
/// in its buffers could produce a spurious `covers()` pass — and with
/// it a wildly out-of-bounds unchecked gather. The collision is built
/// deterministically: the corrupt matrix reuses the certified one's
/// buffers, and the content hash must refuse it at every position.
#[test]
fn stale_certificate_never_survives_reallocation() {
    const N: usize = 64;
    for at in 0..N {
        // A clean diagonal matrix.
        let good = Csr::from_raw_unchecked(N, N, (0..=N).collect(), (0..N).collect(), vec![1.0f64; N]);
        let cert = CsrCert::certify(&good).unwrap();
        assert!(cert.covers(&good));
        let old = (good.rowptr().as_ptr(), good.colind().as_ptr(), good.vals().as_ptr());
        // Same dimensions, same arrays, never validated — and holding a
        // column index far out of bounds, exactly what the fast tier's
        // unchecked gather must never be allowed to see.
        let (rowptr, mut colind, vals) = good.into_raw();
        colind[at] = N + 9999;
        let bad = Csr::from_raw_unchecked(N, N, rowptr, colind, vals);
        assert_eq!((bad.rowptr().as_ptr(), bad.colind().as_ptr(), bad.vals().as_ptr()), old);
        assert!(!cert.covers(&bad), "stale certificate accepted a never-validated matrix (column {at})");
    }
}
