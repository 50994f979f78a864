//! Block Sparse Row (BSR) storage with fixed `b × b` blocks.
//!
//! The multi-DOF FEM matrices of the paper's Fig. 2 / §4 couple whole
//! `dof × dof` blocks at a time; BSR stores exactly one dense block per
//! point-pair coupling, amortising index storage over `b²` values — the
//! fixed-block-size cousin of the variable i-node format. Like the
//! i-node format, structural zeros inside a stored block are kept (the
//! space/time trade-off every blocked format makes).
//!
//! The relational view is row-major: outer level = rows (dense,
//! O(1) search into the owning block row), inner level = the row's
//! columns gathered from its block row (sorted, O(log) search via the
//! block column index).

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

/// BSR sparse matrix: `nrows × ncols` with `b × b` dense blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr {
    nrows: usize,
    ncols: usize,
    b: usize,
    /// Block-row pointers, length `nrows/b + 1`.
    browptr: Vec<usize>,
    /// Block-column indices per stored block, sorted within block rows.
    bcolind: Vec<usize>,
    /// Block payloads, row-major `b × b` each.
    blocks: Vec<f64>,
    /// Stored nonzero count (zeros inside blocks excluded).
    nnz: usize,
}

impl Bsr {
    /// Build with block size `b`; dimensions must be multiples of `b`.
    pub fn from_triplets(t: &Triplets, b: usize) -> Self {
        assert!(b >= 1);
        assert_eq!(t.nrows() % b, 0, "rows not a multiple of the block size");
        assert_eq!(t.ncols() % b, 0, "cols not a multiple of the block size");
        let c = t.canonicalize();
        let nbrows = t.nrows() / b;
        // Collect the set of blocks per block row.
        let mut rows_blocks: Vec<Vec<usize>> = vec![Vec::new(); nbrows];
        for &(r, cc, _) in c.entries() {
            let (br, bc) = (r / b, cc / b);
            if rows_blocks[br].last() != Some(&bc) && !rows_blocks[br].contains(&bc) {
                rows_blocks[br].push(bc);
            }
        }
        for list in &mut rows_blocks {
            list.sort_unstable();
        }
        let mut browptr = vec![0usize; nbrows + 1];
        for (br, list) in rows_blocks.iter().enumerate() {
            browptr[br + 1] = browptr[br] + list.len();
        }
        let total_blocks = browptr[nbrows];
        let mut bcolind = vec![0usize; total_blocks];
        for (br, list) in rows_blocks.iter().enumerate() {
            bcolind[browptr[br]..browptr[br + 1]].copy_from_slice(list);
        }
        let mut blocks = vec![0.0; total_blocks * b * b];
        let mut nnz = 0usize;
        for &(r, cc, v) in c.entries() {
            let (br, bc) = (r / b, cc / b);
            let blist = &bcolind[browptr[br]..browptr[br + 1]];
            let k = browptr[br] + blist.binary_search(&bc).expect("block exists");
            blocks[k * b * b + (r % b) * b + (cc % b)] = v;
            nnz += 1;
        }
        Bsr { nrows: t.nrows(), ncols: t.ncols(), b, browptr, bcolind, blocks, nnz }
    }

    pub fn to_triplets(&self) -> Triplets {
        let mut t = Triplets::with_capacity(self.nrows, self.ncols, self.nnz);
        for (i, j, v) in self.enum_flat() {
            t.push(i, j, v);
        }
        t
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored true nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    pub fn block_size(&self) -> usize {
        self.b
    }

    pub fn num_blocks(&self) -> usize {
        self.bcolind.len()
    }

    /// Storage footprint in value slots (blocks × b²).
    pub fn stored_len(&self) -> usize {
        self.blocks.len()
    }

    /// `y += A·x` on the classical f64 algebra (the serial tier of the
    /// [`SpmvBody`] below).
    pub fn spmv_acc(&self, x: &[f64], y: &mut [f64]) {
        kernels::spmv_in::<F64Plus, Bsr>(self, x, y)
    }

    /// Block-row range of matrix row `r`.
    fn brange(&self, r: usize) -> (usize, usize) {
        let br = r / self.b;
        (self.browptr[br], self.browptr[br + 1])
    }
}

/// BSR — the hand-written blocked kernel: one small dense `b × b`
/// matvec per stored block. Ranges are whole block rows
/// ([`SpmvBody::unit`] is the block size).
impl SpmvBody for Bsr {
    const FAMILY: Family = Family::Rows;

    fn unit(&self) -> usize {
        self.b
    }

    #[inline]
    fn acc<S: Semiring>(&self, lo: usize, hi: usize, x: &[S::Elem], y: &mut [S::Elem]) {
        let b = self.b;
        for (br, yrow) in (lo / b..hi / b).zip(y.chunks_mut(b)) {
            for k in self.browptr[br]..self.browptr[br + 1] {
                let bc = self.bcolind[k];
                let xs = &x[bc * b..(bc + 1) * b];
                let blk = &self.blocks[k * b * b..(k + 1) * b * b];
                for (r, yv) in yrow.iter_mut().enumerate() {
                    let mut acc = S::zero();
                    for (cidx, &xv) in xs.iter().enumerate() {
                        acc = S::plus(acc, S::times(S::from_f64(blk[r * b + cidx]), xv));
                    }
                    *yv = S::plus(*yv, acc);
                }
            }
        }
    }
}

impl MatrixAccess for Bsr {
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
        Box::new((0..self.nrows).map(move |r| {
            let (s, e) = self.brange(r);
            OuterCursor { index: r, a: s, b: e }
        }))
    }

    fn search_outer(&self, index: usize) -> Option<OuterCursor> {
        (index < self.nrows).then(|| {
            let (s, e) = self.brange(index);
            OuterCursor { index, a: s, b: e }
        })
    }

    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
        let b = self.b;
        let r_in_b = outer.index % b;
        let range = outer.a..outer.b;
        InnerIter::Boxed(Box::new(range.flat_map(move |k| {
            let bc = self.bcolind[k];
            let row = &self.blocks[k * b * b + r_in_b * b..k * b * b + (r_in_b + 1) * b];
            row.iter()
                .enumerate()
                .filter_map(move |(c, &v)| (v != 0.0).then_some((bc * b + c, v)))
        })))
    }

    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
        let b = self.b;
        let bc = index / b;
        let blist = &self.bcolind[outer.a..outer.b];
        let k = outer.a + blist.binary_search(&bc).ok()?;
        let v = self.blocks[k * b * b + (outer.index % b) * b + (index % b)];
        (v != 0.0).then_some(v)
    }

    fn enum_flat(&self) -> FlatIter<'_> {
        let b = self.b;
        Box::new((0..self.nrows).flat_map(move |r| {
            let (s, e) = self.brange(r);
            (s..e).flat_map(move |k| {
                let bc = self.bcolind[k];
                let row = &self.blocks[k * b * b + (r % b) * b..k * b * b + (r % b + 1) * b];
                row.iter()
                    .enumerate()
                    .filter_map(move |(c, &v)| (v != 0.0).then_some((r, bc * b + c, v)))
            })
        }))
    }
}

impl Validate for Bsr {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        if self.b == 0 {
            d.push(meta_mismatch("b", "block size is 0"));
            return d;
        }
        if !self.nrows.is_multiple_of(self.b) || !self.ncols.is_multiple_of(self.b) {
            d.push(meta_mismatch(
                "b",
                format!("{}x{} not a multiple of the block size {}", self.nrows, self.ncols, self.b),
            ));
            return d;
        }
        d.extend(check_ptr("browptr", &self.browptr, self.nrows / self.b + 1, self.bcolind.len()));
        if self.blocks.len() != self.bcolind.len() * self.b * self.b {
            d.push(meta_mismatch(
                "blocks",
                format!(
                    "{} value slots for {} blocks of {}x{}",
                    self.blocks.len(),
                    self.bcolind.len(),
                    self.b,
                    self.b
                ),
            ));
        }
        if !d.is_empty() {
            return d;
        }
        d.extend(check_bounds("bcolind", &self.bcolind, self.ncols / self.b));
        for br in 0..self.nrows / self.b {
            d.extend(check_sorted_strict(
                "bcolind",
                &self.bcolind[self.browptr[br]..self.browptr[br + 1]],
                &format!("block row {br}"),
            ));
        }
        let true_nnz = self.blocks.iter().filter(|&&v| v != 0.0).count();
        if self.nnz != true_nnz {
            d.push(meta_mismatch(
                "nnz",
                format!("declared {} but the blocks hold {} nonzeros", self.nnz, true_nnz),
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
    use crate::gen::fem_grid_2d;

    fn sample() -> Triplets {
        // 2 block rows × 2 block cols of 2×2; blocks (0,0), (0,1), (1,1).
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 1.0),
                (1, 1, 2.0),
                (0, 3, 3.0), // block (0,1), partially filled
                (2, 2, 4.0),
                (3, 3, 5.0),
                (3, 2, 6.0),
            ],
        )
    }

    #[test]
    fn block_structure() {
        let m = Bsr::from_triplets(&sample(), 2);
        assert_eq!(m.block_size(), 2);
        assert_eq!(m.num_blocks(), 3);
        assert_eq!(m.stored_len(), 12); // 3 blocks × 4 slots
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let m = Bsr::from_triplets(&t, 2);
        assert_eq!(m.to_triplets().canonicalize(), t.canonicalize());
        // Block size 1 degenerates to plain CSR semantics.
        let m1 = Bsr::from_triplets(&t, 1);
        assert_eq!(m1.to_triplets().canonicalize(), t.canonicalize());
        assert_eq!(m1.stored_len(), m1.nnz());
    }

    #[test]
    fn spmv_matches_reference() {
        let t = fem_grid_2d(4, 3, 3); // 3-DOF blocks
        let m = Bsr::from_triplets(&t, 3);
        let n = t.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut want = vec![0.0; n];
        t.matvec_acc(&x, &mut want);
        let mut y = vec![0.0; n];
        m.spmv_acc(&x, &mut y);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        // FEM blocks are full: no wasted slots.
        assert_eq!(m.stored_len(), m.nnz());
    }

    #[test]
    fn access_methods_consistent() {
        let m = Bsr::from_triplets(&sample(), 2);
        let mut hier = Vec::new();
        for c in m.enum_outer() {
            for (j, v) in m.enum_inner(&c) {
                hier.push((c.index, j, v));
            }
        }
        assert_eq!(hier, m.enum_flat().collect::<Vec<_>>());
        assert_eq!(m.search_pair(0, 3), Some(3.0));
        assert_eq!(m.search_pair(0, 2), None); // structural zero in block
        assert_eq!(m.search_pair(3, 2), Some(6.0));
        assert_eq!(m.search_pair(2, 0), None); // absent block
    }

    #[test]
    fn compiled_engine_runs_on_bsr_via_access_methods() {
        // BSR isn't in the SparseMatrix enum; the relational engine
        // consumes it directly through MatrixAccess — extensibility.
        use bernoulli_relational::exec::{execute, Bindings};
        use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
        use bernoulli_relational::planner::{Planner, QueryMeta};
        use bernoulli_relational::query::QueryBuilder;
        use bernoulli_relational::access::VecMeta;
        let t = fem_grid_2d(3, 3, 2);
        let m = Bsr::from_triplets(&t, 2);
        let n = t.nrows();
        let q = QueryBuilder::mat_vec_product().build();
        let meta = QueryMeta::new()
            .mat(MAT_A, m.meta())
            .vec(VEC_X, VecMeta::dense(n));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();
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

    #[test]
    #[should_panic]
    fn dimensions_must_divide() {
        Bsr::from_triplets(&Triplets::new(5, 4), 2);
    }
}
