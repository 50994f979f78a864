//! The [`SparseMatrix`] sum type: every storage format behind one
//! value, with uniform construction, conversion and access-method
//! delegation. This is what user-facing APIs (the compiler driver, the
//! benchmark harness) traffic in.
//!
//! The variant list is written **once**, in the `formats!` table at
//! the bottom of this preamble: adding a format to the enum is one row
//! there (plus the format's own `MatrixAccess`/`Validate` impls and its
//! one [`kernels::SpmvBody`] ranged body).

use crate::exec::ExecCtx;
use crate::kernels;
use crate::par_kernels;
use crate::{Ccs, Cccs, Coo, Csr, DenseMatrix, DiagonalMatrix, InodeMatrix, Itpack, JDiag, Triplets};
use bernoulli_analysis::validate::Validate;
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, OuterCursor, OuterIter,
};
use bernoulli_relational::semiring::{F64Plus, Semiring};

/// Expands one `Variant(Storage) => "paper name", "slug";` row per
/// format into [`FormatKind`], [`SparseMatrix`], their per-variant
/// methods and the crate-internal `dispatch!` (the leading `$` is the
/// usual trick for emitting a nested `macro_rules!`).
macro_rules! formats {
    ($d:tt $( $variant:ident($storage:ty) => $paper:literal, $slug:literal; )+) => {
        /// The storage formats of the paper's Table 1 (plus dense).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum FormatKind {
            $( $variant, )+
        }

        impl FormatKind {
            /// Every supported format, in Table 1 column order (with the
            /// two extra column-compressed formats and dense appended).
            pub const ALL: [FormatKind; [$( $slug ),+].len()] = [$( FormatKind::$variant ),+];

            /// The paper's name for the format (Table 1 headers).
            pub fn paper_name(&self) -> &'static str {
                match self {
                    $( FormatKind::$variant => $paper, )+
                }
            }

            /// Telemetry name component of the format's kernels
            /// (`spmv_<slug>`, `par_spmv_<slug>`, …).
            pub fn slug(&self) -> &'static str {
                match self {
                    $( FormatKind::$variant => $slug, )+
                }
            }
        }

        /// A sparse matrix in any supported storage format.
        #[derive(Clone, Debug, PartialEq)]
        pub enum SparseMatrix {
            $( $variant($storage), )+
        }

        /// `dispatch!(self, m => expr)`: evaluate `expr` with `m` bound
        /// to the concrete storage, whatever the variant.
        macro_rules! dispatch {
            ($d this:expr, $d m:ident => $d e:expr) => {
                match $d this {
                    $( SparseMatrix::$variant($d m) => $d e, )+
                }
            };
        }

        impl SparseMatrix {
            /// Materialise triplets into the requested format.
            pub fn from_triplets(kind: FormatKind, t: &Triplets) -> SparseMatrix {
                match kind {
                    $( FormatKind::$variant => SparseMatrix::$variant(<$storage>::from_triplets(t)), )+
                }
            }

            pub fn kind(&self) -> FormatKind {
                match self {
                    $( SparseMatrix::$variant(_) => FormatKind::$variant, )+
                }
            }
        }
    };
}

formats! { $
    Diagonal(DiagonalMatrix) => "Diagonal", "diag";
    Coordinate(Coo) => "Coordinate", "coo";
    Csr(Csr) => "CRS", "csr";
    Itpack(Itpack) => "ITPACK", "itpack";
    JDiag(JDiag) => "JDiag", "jdiag";
    Inode(InodeMatrix) => "BS95", "inode"; // i-node storage is the BlockSolve building block
    Ccs(Ccs) => "CCS", "ccs";
    Cccs(Cccs) => "CCCS", "cccs";
    Dense(DenseMatrix) => "Dense", "dense";
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

impl SparseMatrix {
    pub fn nrows(&self) -> usize {
        self.meta().nrows
    }

    pub fn ncols(&self) -> usize {
        self.meta().ncols
    }

    pub fn nnz(&self) -> usize {
        self.meta().nnz
    }

    /// Back to assembly form (exact for every format).
    pub fn to_triplets(&self) -> Triplets {
        dispatch!(self, m => m.to_triplets())
    }

    /// Hand-written SpMV (`y ⊕= A·x`) over an arbitrary semiring on the
    /// tier `exec` selects — the one dispatch every SpMV on a
    /// [`SparseMatrix`] goes through. `None`, one worker, or less work
    /// (stored entries; a dense matrix stores them all) than `exec`'s
    /// threshold runs the format's ranged body serially ([`kernels::spmv_in`]);
    /// otherwise the same body runs under its family's parallel driver
    /// ([`par_kernels::par_spmv_in`] — see that module for the
    /// family-by-family determinism contract; in particular the scatter
    /// family CCS/CCCS/COO silently stays serial for a semiring whose ⊕
    /// is not associative-commutative).
    pub fn spmv_acc_on<S: Semiring>(&self, x: &[f64], y: &mut [f64], exec: Option<&ExecCtx>) {
        match exec.filter(|e| e.should_parallelize(self.nnz())) {
            Some(exec) => dispatch!(self, m => par_kernels::par_spmv_in::<S, _>(m, x, y, exec)),
            None => dispatch!(self, m => kernels::spmv_in::<S, _>(m, x, y)),
        }
    }

    /// Serial SpMV (`y += A·x`) on the classical f64 algebra.
    pub fn spmv_acc(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_acc_on::<F64Plus>(x, y, None)
    }
}

impl Validate for SparseMatrix {
    fn validate(&self) -> Vec<Diagnostic> {
        dispatch!(self, m => m.validate())
    }
}

impl MatrixAccess for SparseMatrix {
    fn meta(&self) -> MatMeta {
        dispatch!(self, m => m.meta())
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        dispatch!(self, m => m.enum_outer())
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        dispatch!(self, m => m.search_outer(index))
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        dispatch!(self, m => m.enum_inner(outer))
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        dispatch!(self, m => m.search_inner(outer, index))
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        dispatch!(self, m => m.enum_flat())
    }

    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        dispatch!(self, m => m.search_pair(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Triplets {
        Triplets::from_entries(
            4,
            4,
            &[(0, 0, 2.0), (0, 3, 1.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0), (3, 3, 6.0)],
        )
    }

    #[test]
    fn every_format_roundtrips() {
        let t = sample().canonicalize();
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.to_triplets().canonicalize(), t, "format {kind}");
        }
    }

    #[test]
    fn every_format_same_spmv() {
        let t = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut want = vec![0.0; 4];
        t.matvec_acc(&x, &mut want);
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            let mut y = vec![0.0; 4];
            m.spmv_acc(&x, &mut y);
            assert_eq!(y, want, "format {kind}");
        }
    }

    #[test]
    fn convert_between_formats() {
        let t = sample();
        let csr = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let jd = SparseMatrix::from_triplets(FormatKind::JDiag, &csr.to_triplets());
        assert_eq!(jd.kind(), FormatKind::JDiag);
        assert_eq!(jd.nnz(), csr.nnz());
        assert_eq!(jd.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn access_delegation() {
        let m = SparseMatrix::from_triplets(FormatKind::Csr, &sample());
        assert_eq!(m.search_pair(2, 2), Some(5.0));
        assert_eq!(m.enum_flat().count(), 6);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
    }

    #[test]
    fn paper_names() {
        assert_eq!(FormatKind::Inode.paper_name(), "BS95");
        assert_eq!(format!("{}", FormatKind::Csr), "CRS");
    }
}

#[cfg(test)]
mod conformance {
    use super::*;

    /// Every format in the enum passes the sanitizer (raw structural
    /// invariants plus the access-method contract) on structurally
    /// varied inputs.
    #[test]
    fn all_formats_validate_clean() {
        let inputs = [
            crate::gen::grid2d_5pt(5, 4),
            crate::gen::fem_grid_2d(3, 3, 3),
            crate::gen::random_sparse(9, 13, 40, 77),
            Triplets::new(4, 4), // empty
            Triplets::from_entries(1, 1, &[(0, 0, 1.0)]),
        ];
        for (k, t) in inputs.iter().enumerate() {
            for kind in FormatKind::ALL {
                let m = SparseMatrix::from_triplets(kind, t);
                m.validate_ok()
                    .unwrap_or_else(|e| panic!("input {k}, format {kind}: {e}"));
            }
        }
    }

    /// The standalone sparse vector (outside the enum) validates too.
    #[test]
    fn standalone_formats_validate_clean() {
        crate::SparseVec::from_pairs(9, &[(1, 2.0), (4, -1.0), (7, 3.5)])
            .validate_ok()
            .unwrap();
    }
}
