//! The structural statistics that explain Table 1 (`stats::analyze`)
//! predict what each format actually stores. The paper argues that no
//! single format suits every matrix because these quantities differ;
//! here each one is held to the storage it is meant to describe, over
//! the Table 1 suite and a rectangular random matrix.

use bernoulli_formats::gen::{random_sparse, table1_suite, Scale};
use bernoulli_formats::stats::analyze;
use bernoulli_formats::{Cccs, DiagonalMatrix, FormatKind, InodeMatrix, Itpack, JDiag, SparseMatrix, Triplets};

fn matrices() -> Vec<(String, Triplets)> {
    let mut out: Vec<(String, Triplets)> =
        table1_suite(Scale::Small).into_iter().map(|m| (m.name.to_string(), m.triplets)).collect();
    out.push(("random 40x25".to_string(), random_sparse(40, 25, 120, 3)));
    out
}

fn row_lengths(t: &Triplets) -> Vec<usize> {
    let mut lens = vec![0; t.nrows()];
    for &(r, _, _) in t.canonicalize().entries() {
        lens[r] += 1;
    }
    lens
}

#[test]
fn itpack_pads_every_row_to_the_longest() {
    for (name, t) in matrices() {
        let s = analyze(&t);
        let m = Itpack::from_triplets(&t);
        assert_eq!(m.width(), s.max_row_len, "{name}");
        assert_eq!(m.stored_len(), s.nrows * s.max_row_len, "{name}");
        let waste = 1.0 - m.nnz() as f64 / m.stored_len().max(1) as f64;
        assert!((waste - s.itpack_waste()).abs() < 1e-12, "{name}: {waste} vs {}", s.itpack_waste());
        for (r, len) in row_lengths(&t).into_iter().enumerate() {
            assert_eq!(m.row_len(r), len, "{name}: row {r}");
        }
    }
}

#[test]
fn jdiag_has_one_jagged_diagonal_per_slot_of_the_longest_row() {
    for (name, t) in matrices() {
        let s = analyze(&t);
        let m = JDiag::from_triplets(&t);
        assert_eq!(m.num_jdiags(), s.max_row_len, "{name}");
        let lens = row_lengths(&t);
        for d in 0..m.num_jdiags() {
            // Jagged diagonal d holds slot d of every row that long.
            assert_eq!(m.jdiag_len(d), lens.iter().filter(|&&l| l > d).count(), "{name}: jdiag {d}");
        }
        assert_eq!((0..m.num_jdiags()).map(|d| m.jdiag_len(d)).sum::<usize>(), s.nnz, "{name}");
    }
}

#[test]
fn the_diagonal_format_stores_one_skyline_run_per_occupied_offset() {
    for (name, t) in matrices() {
        let s = analyze(&t);
        let m = DiagonalMatrix::from_triplets(&t);
        assert_eq!(m.nnz(), s.nnz, "{name}");
        assert_eq!(m.num_diagonals(), s.num_diagonals, "{name}");
        let max_offset = m.diagonals().iter().map(|d| d.offset.unsigned_abs()).max().unwrap_or(0);
        assert_eq!(max_offset, s.bandwidth, "{name}");
        assert!(m.diagonals().windows(2).all(|w| w[0].offset < w[1].offset), "{name}: offsets unsorted");
        // Each run spans its first to its last stored row, no more.
        let mut span = std::collections::BTreeMap::<isize, (usize, usize)>::new();
        for &(r, c, _) in t.canonicalize().entries() {
            let e = span.entry(c as isize - r as isize).or_insert((r, r));
            *e = (e.0.min(r), e.1.max(r));
        }
        for d in m.diagonals() {
            let (first, last) = span[&d.offset];
            assert_eq!((d.first_row, d.vals.len()), (first, last - first + 1), "{name}: offset {}", d.offset);
        }
        assert_eq!(m.stored_len(), span.values().map(|(f, l)| l - f + 1).sum::<usize>(), "{name}");
    }
}

#[test]
fn inode_groups_are_the_maximal_runs_the_statistics_count() {
    for (name, t) in matrices() {
        let s = analyze(&t);
        let m = InodeMatrix::from_triplets(&t);
        assert_eq!(m.num_inodes(), s.inode_groups, "{name}");
        assert_eq!(m.avg_inode_rows(), s.avg_inode_rows(), "{name}");
        assert_eq!(m.nnz(), s.nnz, "{name}");
    }
}

#[test]
fn compressed_column_storage_keeps_only_occupied_columns() {
    for (name, t) in matrices() {
        let mut occupied = vec![false; t.ncols()];
        for &(_, c, _) in t.entries() {
            occupied[c] = true;
        }
        let m = Cccs::from_triplets(&t);
        assert_eq!(m.stored_cols(), occupied.iter().filter(|&&o| o).count(), "{name}");
        assert!(m.colind().windows(2).all(|w| w[0] < w[1]), "{name}: COLIND not strictly ascending");
        assert_eq!(m.colp().len(), m.stored_cols() + 1, "{name}");
    }
}

#[test]
fn crs_ccs_conversions_are_exact_both_ways() {
    for (name, t) in matrices() {
        let [csr, ccs] = [FormatKind::Csr, FormatKind::Ccs].map(|k| SparseMatrix::from_triplets(k, &t));
        assert_eq!(SparseMatrix::from_triplets(FormatKind::Ccs, &csr.to_triplets()), ccs, "{name}: CRS → CCS");
        assert_eq!(SparseMatrix::from_triplets(FormatKind::Csr, &ccs.to_triplets()), csr, "{name}: CCS → CRS");
    }
}
