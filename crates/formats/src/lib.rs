//! # bernoulli-formats
//!
//! Sparse matrix storage formats for the Bernoulli reproduction —
//! every format evaluated in Table 1 of *"Compiling Parallel Code for
//! Sparse Matrix Applications"* (SC'97), each described to the compiler
//! through the access-method traits of [`bernoulli_relational`]:
//!
//! | Format | Module | Paper reference |
//! |---|---|---|
//! | Dense (row-major) | [`dense`] | baseline |
//! | Coordinate | [`coo`] | Appendix A |
//! | Compressed Row Storage (CRS) | [`csr`] | Appendix A |
//! | Compressed Column Storage (CCS) | [`ccs`] | §1, Fig. 1(b) |
//! | Compressed Compressed Column Storage (CCCS) | [`cccs`] | §1, Fig. 1(c) |
//! | Sparse Diagonal | [`diag`] | Appendix A (skyline re-oriented along diagonals) |
//! | ITPACK/ELLPACK | [`itpack`] | Appendix A |
//! | Jagged Diagonal | [`jdiag`] | Appendix A (row permutation, §2.2) |
//! | I-node (identical nodes) | [`inode`] | §1, Fig. 2(c) (BlockSolve) |
//!
//! Additional substrates:
//!
//! * [`triplet`] — the assembly builder every format constructs from;
//! * [`matrix`] — the `SparseMatrix` enum
//!   unifying all formats behind one type;
//! * [`kernels`] — hand-written SpMV/SpMM/sweep bodies, one per format
//!   (the "hand-written library code" baselines of the paper's
//!   experiments), and [`par_kernels`] — the three drivers that run the
//!   same bodies in parallel;
//! * [`io`] — Matrix Market exchange-format reader/writer;
//! * [`gen`] — synthetic matrix generators (grid stencils with degrees
//!   of freedom, power networks, banded and circuit-like matrices) used
//!   as structural twins of the paper's test matrices;
//! * [`stats`] — structural statistics used to pick formats and to
//!   document the generated workloads.

// The certified fast tier is the crate's one sanctioned unsafe surface:
// its blocks carry a `Validate`-certificate safety argument (DESIGN.md
// §12). Anywhere else `unsafe` is a compile error.
#![deny(unsafe_code)]

pub mod ccs;
pub mod cccs;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod exec;
#[allow(unsafe_code)]
pub mod fast;
pub mod gen;
pub mod inode;
pub mod io;
pub mod itpack;
pub mod jdiag;
pub mod kernels;
pub mod matrix;
pub mod par_kernels;
pub mod diag;
pub mod sparsevec;
pub mod stats;
pub mod triplet;

pub use bernoulli_analysis::validate::Validate;
pub use ccs::Ccs;
pub use cccs::Cccs;
pub use coo::Coo;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use diag::DiagonalMatrix;
pub use exec::ExecCtx;
pub use inode::InodeMatrix;
pub use itpack::Itpack;
pub use jdiag::JDiag;
pub use matrix::{FormatKind, SparseMatrix};
pub use sparsevec::SparseVec;
pub use triplet::Triplets;
