//! Modified Sparse Row (MSR) storage (Saad's SPARSKIT / the Aztec
//! library's native format).
//!
//! Iterative solvers touch the diagonal on every preconditioned step;
//! MSR pulls it out of the row streams into a dense prefix so the
//! Jacobi/ILU diagonals need no search. Classically one combined array
//! holds values (`val[0..n]` = diagonal, `val[n+1..]` = off-diagonals)
//! and one holds pointers + column indices; we keep the same
//! content-split with separate, type-safe arrays.
//!
//! Relational view: row-major; the inner enumeration splices the
//! diagonal entry into its sorted position among the off-diagonals, so
//! the relation is indistinguishable from CSR's — only the physical
//! layout (and the O(1) diagonal access) differs.

use crate::kernels::{self, Family, SpmvBody};
use crate::triplet::Triplets;
use bernoulli_analysis::validate::{
    check_access_contract, check_bounds, check_ptr, check_sorted_strict, meta_mismatch, Validate,
};
use bernoulli_analysis::Diagnostic;
use bernoulli_relational::access::{
    FlatIter, InnerIter, MatMeta, MatrixAccess, Orientation, OuterCursor, OuterIter,
};
use bernoulli_relational::props::LevelProps;
use bernoulli_relational::semiring::{F64Plus, Semiring};

/// MSR sparse matrix: dense diagonal + CSR-style off-diagonals.
#[derive(Clone, Debug, PartialEq)]
pub struct Msr {
    nrows: usize,
    ncols: usize,
    /// The diagonal, dense (zeros where absent / rectangular overflow).
    diag: Vec<f64>,
    /// Off-diagonal row pointers.
    rowptr: Vec<usize>,
    /// Off-diagonal column indices, sorted within rows.
    colind: Vec<usize>,
    vals: Vec<f64>,
    /// Stored nonzeros (diagonal zeros excluded).
    nnz: usize,
}

impl Msr {
    pub fn from_triplets(t: &Triplets) -> Self {
        let c = t.canonicalize();
        let nrows = t.nrows();
        let ndiag = nrows.min(t.ncols());
        let mut diag = vec![0.0; ndiag];
        let mut rowptr = vec![0usize; nrows + 1];
        for &(r, cc, _) in c.entries() {
            if r == cc && r < ndiag {
                continue;
            }
            rowptr[r + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colind = vec![0usize; rowptr[nrows]];
        let mut vals = vec![0.0; rowptr[nrows]];
        let mut next = rowptr.clone();
        let mut nnz = 0usize;
        for &(r, cc, v) in c.entries() {
            nnz += 1;
            if r == cc && r < ndiag {
                diag[r] = v;
            } else {
                let at = next[r];
                next[r] += 1;
                colind[at] = cc;
                vals[at] = v;
            }
        }
        Msr { nrows, ncols: t.ncols(), diag, rowptr, colind, vals, nnz }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz);
        for (i, &d) in self.diag.iter().enumerate() {
            if d != 0.0 {
                t.push(i, i, d);
            }
        }
        for r in 0..self.nrows {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                t.push(r, self.colind[k], self.vals[k]);
            }
        }
        t
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// O(1) diagonal access — the format's raison d'être.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// `y += A·x` on the classical f64 algebra (the serial tier of the
    /// [`SpmvBody`] below).
    pub fn spmv_acc(&self, x: &[f64], y: &mut [f64]) {
        kernels::spmv_in::<F64Plus, Msr>(self, x, y)
    }

    fn offdiag_row(&self, r: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.rowptr[r], self.rowptr[r + 1]);
        (&self.colind[s..e], &self.vals[s..e])
    }
}

/// MSR: the diagonal as a dense stride-1 pass over the row range, then
/// the off-diagonal row dot products — per element, diagonal first.
impl SpmvBody for Msr {
    const FAMILY: Family = Family::Rows;

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let (dlo, dhi) = (lo.min(self.diag.len()), hi.min(self.diag.len()));
        for ((yv, &d), &xv) in y.iter_mut().zip(&self.diag[dlo..dhi]).zip(&x[dlo..dhi]) {
            *yv = S::plus(*yv, S::times(S::from_f64(d), xv));
        }
        let rowptr = &self.rowptr[lo..=hi];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = S::zero();
            for k in rowptr[r]..rowptr[r + 1] {
                acc = S::plus(acc, S::times(S::from_f64(self.vals[k]), x[self.colind[k]]));
            }
            *yr = S::plus(*yr, acc);
        }
    }
}

impl MatrixAccess for Msr {
    fn meta(&self) -> MatMeta {
        MatMeta {
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        }
    }

    fn enum_outer(&self) -> OuterIter<'_> {
        Box::new((0..self.nrows).map(move |r| OuterCursor {
            index: r,
            a: self.rowptr[r],
            b: self.rowptr[r + 1],
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.nrows).then(|| OuterCursor {
            index,
            a: self.rowptr[index],
            b: self.rowptr[index + 1],
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        let r = outer.index;
        let (cols, vals) = self.offdiag_row(r);
        let d = self.diag.get(r).copied().unwrap_or(0.0);
        if d == 0.0 {
            return InnerIter::Pairs { idx: cols, vals, pos: 0 };
        }
        // Splice the diagonal into sorted position.
        let split = cols.partition_point(|&c| c < r);
        let before = cols[..split].iter().copied().zip(vals[..split].iter().copied());
        let after = cols[split..].iter().copied().zip(vals[split..].iter().copied());
        InnerIter::Boxed(Box::new(before.chain(std::iter::once((r, d))).chain(after)))
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        let r = outer.index;
        if index == r {
            let d = self.diag.get(r).copied().unwrap_or(0.0);
            return (d != 0.0).then_some(d);
        }
        let (cols, vals) = self.offdiag_row(r);
        cols.binary_search(&index).ok().map(|k| vals[k])
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        Box::new((0..self.nrows).flat_map(move |r| {
            let c = OuterCursor { index: r, a: self.rowptr[r], b: self.rowptr[r + 1] };
            self.enum_inner(&c).map(move |(j, v)| (r, j, v))
        }))
    }
}

impl Validate for Msr {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        if self.diag.len() != self.nrows.min(self.ncols) {
            d.push(meta_mismatch(
                "diag",
                format!(
                    "diagonal has {} slots, expected {}",
                    self.diag.len(),
                    self.nrows.min(self.ncols)
                ),
            ));
        }
        d.extend(check_ptr("rowptr", &self.rowptr, self.nrows + 1, self.vals.len()));
        if self.colind.len() != self.vals.len() {
            d.push(meta_mismatch(
                "colind",
                format!("{} column indices but {} values", self.colind.len(), self.vals.len()),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_bounds("colind", &self.colind, self.ncols));
        for r in 0..self.nrows {
            let run = &self.colind[self.rowptr[r]..self.rowptr[r + 1]];
            d.extend(check_sorted_strict("colind", run, &format!("row {r}")));
            if r < self.diag.len() && run.contains(&r) {
                d.push(meta_mismatch(
                    "colind",
                    format!("row {r} stores its diagonal among the off-diagonals"),
                ));
            }
        }
        let true_nnz = self.vals.len() + self.diag.iter().filter(|&&v| v != 0.0).count();
        if self.nnz != true_nnz {
            d.push(meta_mismatch(
                "nnz",
                format!("declared {} but the arrays hold {}", self.nnz, true_nnz),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        check_access_contract(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d_5pt;

    fn sample() -> Triplets {
        Triplets::from_entries(
            3,
            4,
            &[(0, 0, 2.0), (0, 2, 1.0), (1, 0, 3.0), (1, 1, 5.0), (1, 3, 4.0), (2, 1, 6.0)],
        )
    }

    #[test]
    fn diagonal_extracted() {
        let m = Msr::from_triplets(&sample());
        assert_eq!(m.diagonal(), &[2.0, 5.0, 0.0]);
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let m = Msr::from_triplets(&t);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
    }

    #[test]
    fn inner_enumeration_sorted_with_diagonal_spliced() {
        let m = Msr::from_triplets(&sample());
        let c = m.search_outer(1).unwrap();
        let row: Vec<_> = m.enum_inner(&c).collect();
        assert_eq!(row, vec![(0, 3.0), (1, 5.0), (3, 4.0)]);
        // Row with zero diagonal: no phantom tuple.
        let c2 = m.search_outer(2).unwrap();
        assert_eq!(m.enum_inner(&c2).collect::<Vec<_>>(), vec![(1, 6.0)]);
    }

    #[test]
    fn searches() {
        let m = Msr::from_triplets(&sample());
        assert_eq!(m.search_pair(1, 1), Some(5.0));
        assert_eq!(m.search_pair(2, 2), None); // zero diagonal
        assert_eq!(m.search_pair(0, 2), Some(1.0));
        assert_eq!(m.search_pair(0, 3), None);
    }

    #[test]
    fn spmv_matches_reference() {
        let t = grid2d_5pt(6, 5);
        let m = Msr::from_triplets(&t);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut want = vec![0.0; n];
        t.matvec_acc(&x, &mut want);
        let mut y = vec![0.0; n];
        m.spmv_acc(&x, &mut y);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        // And the relational flat view agrees.
        let mut y2 = vec![0.0; n];
        for (i, j, v) in m.enum_flat() {
            y2[i] += v * x[j];
        }
        for (a, b) in y2.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn compiled_engine_accepts_msr() {
        use bernoulli_relational::exec::{execute, Bindings};
        use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
        use bernoulli_relational::planner::{Planner, QueryMeta};
        use bernoulli_relational::query::QueryBuilder;
        use bernoulli_relational::access::VecMeta;
        let t = grid2d_5pt(5, 5);
        let m = Msr::from_triplets(&t);
        let n = t.nrows();
        let q = QueryBuilder::mat_vec_product().build();
        let meta = QueryMeta::new().mat(MAT_A, m.meta()).vec(VEC_X, VecMeta::dense(n));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &m).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan, &q, &mut b).unwrap();
        drop(b);
        let mut want = vec![0.0; n];
        t.matvec_acc(&x, &mut want);
        for (a, bb) in y.iter().zip(&want) {
            assert!((a - bb).abs() < 1e-10);
        }
    }
}
