//! The corrupt-matrix corpus: hand-broken instances of each invariant
//! the format sanitizer (`bernoulli-analysis`, `BA2x`) guards, plus
//! property tests showing valid matrices always lint clean and random
//! single-field corruption is always caught.

use bernoulli::{ExecCtx, RelError, SptrsvEngine, SymGsEngine, TriangularOp};
use bernoulli_analysis::wavefront::Triangle;
use bernoulli_formats::{kernels, Csr, FormatKind, JDiag, SparseMatrix, Triplets, Validate};
use bernoulli_relational::permutation::Permutation;
use proptest::prelude::*;

/// First error code a matrix lints with (panics when clean).
fn first_code<M: Validate>(m: &M) -> &'static str {
    let diags = m.validate();
    diags
        .iter()
        .find(|d| d.is_error())
        .unwrap_or_else(|| panic!("expected an error, got {diags:?}"))
        .code
}

/// A well-formed 3×4 CSR to corrupt: rows {0: [0,2], 1: [1,3], 2: [2]}.
fn good_parts() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    (vec![0, 2, 4, 5], vec![0, 2, 1, 3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0])
}

#[test]
fn ba21_nonmonotone_rowptr() {
    let (_, colind, vals) = good_parts();
    let m = Csr::from_raw_unchecked(3, 4, vec![0, 4, 2, 5], colind, vals);
    assert_eq!(first_code(&m), "BA21");
}

#[test]
fn ba21_rowptr_wrong_end() {
    let (_, colind, vals) = good_parts();
    let m = Csr::from_raw_unchecked(3, 4, vec![0, 2, 4, 9], colind, vals);
    assert_eq!(first_code(&m), "BA21");
}

#[test]
fn ba22_column_index_out_of_bounds() {
    let (rowptr, mut colind, vals) = good_parts();
    colind[3] = 4; // ncols is 4: one past the edge
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    assert_eq!(first_code(&m), "BA22");
}

#[test]
fn ba23_unsorted_columns_within_row() {
    let (rowptr, mut colind, vals) = good_parts();
    colind.swap(0, 1); // row 0 becomes [2, 0]
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    assert_eq!(first_code(&m), "BA23");
}

#[test]
fn ba24_duplicate_column_within_row() {
    let (rowptr, mut colind, vals) = good_parts();
    colind[1] = 0; // row 0 becomes [0, 0]
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    assert_eq!(first_code(&m), "BA24");
}

#[test]
fn ba25_value_array_length_mismatch() {
    let (rowptr, colind, mut vals) = good_parts();
    vals.pop();
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    // rowptr's declared end no longer matches the value count.
    assert_eq!(first_code(&m), "BA21");
    // A pure parallel-array skew (colind vs vals) is the BA25 case.
    let (rowptr, mut colind, vals) = good_parts();
    colind.push(3);
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    assert_eq!(first_code(&m), "BA25");
}

#[test]
fn ba26_non_bijective_jdiag_permutation() {
    let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
    let good = JDiag::from_triplets(&t);
    assert!(good.validate_ok().is_ok());
    let (jd_ptr, colind, vals) = good.arrays();
    // Row 2 mapped onto position 0 twice: not a bijection.
    let perm = Permutation::from_raw_parts(vec![0, 1, 0], vec![0, 1, 2]);
    let bad = JDiag::from_raw(3, 3, perm, jd_ptr.to_vec(), colind.to_vec(), vals.to_vec());
    assert_eq!(first_code(&bad), "BA26");
}

#[test]
fn corpus_counterparts_are_clean() {
    // The uncorrupted parts pass every check — each trigger test above
    // differs from this baseline in exactly one field.
    let (rowptr, colind, vals) = good_parts();
    let m = Csr::from_raw_unchecked(3, 4, rowptr, colind, vals);
    assert!(m.validate_ok().is_ok());
}

/// The sweeps' per-operand diagonal index must not turn a corrupt
/// operand into a panic: `from_raw_unchecked` stays a plain move, the
/// checked compile still refuses before any sweep, and the index pass
/// itself is total — an unsorted in-range row sweeps to *some* answer
/// without leaving its arrays.
#[test]
fn corrupt_square_operands_meet_the_sweeps_without_a_panic() {
    let vals = vec![4.0, 1.0, 1.0, 4.0, 1.0, 4.0];
    // Rows {0: [0,1], 1: [0,1], 2: [1,2]}, row 1 stored as [1, 0] ...
    let unsorted = Csr::from_raw_unchecked(3, 3, vec![0, 2, 4, 6], vec![0, 1, 1, 0, 1, 2], vals.clone());
    // ... and the sorted arrays under a row pointer that steps back.
    let nonmonotone = Csr::from_raw_unchecked(3, 3, vec![0, 4, 2, 6], vec![0, 1, 0, 1, 1, 2], vals);
    let checked = ExecCtx::default().checked(true);
    let lower = TriangularOp::Lower { unit_diag: false };
    for m in [&unsorted, &nonmonotone] {
        assert!(m.clone() == *m);
        assert!(matches!(SymGsEngine::compile_in(m, &checked), Err(RelError::Validation(_))));
        assert!(matches!(SptrsvEngine::compile_in(m, lower, &checked), Err(RelError::Validation(_))));
        // Unchecked, the diagonal gate reads the index: built without a
        // panic, and neither operand stores every diagonal last.
        assert!(!m.stores_diag(Triangle::Lower) && !m.stores_diag(Triangle::Upper));
        assert!(matches!(SptrsvEngine::compile_in(m, lower, &ExecCtx::default()), Err(RelError::Validation(_))));
        assert!(m.clone() == *m);
    }
    let b = [1.0, 2.0, 3.0];
    for tri in [Triangle::Lower, Triangle::Upper] {
        let mut x = [0.0; 3];
        kernels::symgs_sweep_csr(&unsorted, tri, 1.0, &b, &mut x);
        assert!(x.iter().all(|v| v.is_finite()), "{tri:?}: {x:?}");
    }
}

fn arb_matrix() -> impl Strategy<Value = Triplets> {
    (1usize..10, 1usize..10).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec(
            (0..nr, 0..nc, -100i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 4.0)),
            0..40,
        )
        .prop_map(move |entries| Triplets::from_entries(nr, nc, &entries))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero false positives: every constructor-built matrix, in every
    /// format, lints clean.
    #[test]
    fn constructed_matrices_always_validate(t in arb_matrix()) {
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            prop_assert!(m.validate_ok().is_ok(), "format {}: {:?}", kind, m.validate());
        }
    }

    /// Zero false negatives on single-field damage: corrupt one CSR
    /// component at random and the sanitizer must flag it.
    #[test]
    fn single_field_corruption_is_flagged((t, which, pick) in (arb_matrix(), 0usize..4, 0usize..1024)) {
        let c = Csr::from_triplets(&t);
        let (nr, nc) = (c.nrows(), c.ncols());
        let (mut rowptr, mut colind, mut vals) =
            (c.rowptr().to_vec(), c.colind().to_vec(), c.vals().to_vec());
        let nnz = vals.len();
        match which {
            // Break rowptr monotonicity / endpoint.
            0 => rowptr[pick % (nr + 1)] = nnz + 1 + pick,
            // Push a column index out of range.
            1 if nnz > 0 => colind[pick % nnz] = nc + pick,
            // Skew the parallel arrays.
            2 => vals.push(1.0),
            // Claim an extra row the arrays don't describe.
            _ => rowptr.push(nnz),
        }
        let m = Csr::from_raw_unchecked(nr, nc, rowptr, colind, vals);
        let diags = m.validate();
        prop_assert!(
            diags.iter().any(|d| d.is_error()),
            "corruption {} escaped the sanitizer: {:?}", which, diags
        );
    }
}
