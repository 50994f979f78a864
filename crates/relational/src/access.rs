//! Access-method traits: how storage formats describe themselves.
//!
//! Per the paper (§2.1), a sparse format is presented to the compiler as
//! a *hierarchy* of index levels, e.g. CCS is `J ≻ (I, V)`: enumerate
//! column indices at the outer level, and for a fixed column enumerate
//! `⟨row, value⟩` pairs at the inner level. Each level carries
//! [`LevelProps`] describing its enumerate/search methods; the planner
//! consults only those.
//!
//! Formats whose natural traversal does not follow the `i ≻ j` or
//! `j ≻ i` hierarchy (coordinate, diagonal, jagged-diagonal storage)
//! expose [`Orientation::Flat`]: an efficient whole-relation enumeration
//! of `⟨i, j, value⟩` tuples. Hierarchical formats also provide flat
//! enumeration (derived from the hierarchy) so every format supports the
//! common denominator.

use crate::props::LevelProps;

/// The index hierarchy a matrix format exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// `I ≻ (J, V)`: rows at the outer level (CRS, ITPACK, row i-nodes).
    RowMajor,
    /// `J ≻ (I, V)`: columns at the outer level (CCS, CCCS, column i-nodes).
    ColMajor,
    /// No usable two-level hierarchy over `(i, j)`; only flat
    /// enumeration of `⟨i, j, v⟩` tuples (COO, Diagonal, JDiag).
    Flat,
}

/// Planner-visible metadata for a matrix relation `A(i, j, a)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatMeta {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    pub orientation: Orientation,
    /// Properties of the outer level (meaningless for `Flat`).
    pub outer: LevelProps,
    /// Properties of the inner level (meaningless for `Flat`).
    pub inner: LevelProps,
    /// Properties of the flat `⟨i, j, v⟩` enumeration.
    pub flat: LevelProps,
    /// Cost of a random `search_pair(i, j)` probe relative to one
    /// flat-enumeration step; `None` if `search_pair` is a linear scan.
    pub pair_search_cheap: bool,
}

impl MatMeta {
    /// Average number of stored entries per outer index.
    pub fn avg_inner_len(&self) -> f64 {
        let outer_extent = match self.orientation {
            Orientation::RowMajor => self.nrows,
            Orientation::ColMajor => self.ncols,
            Orientation::Flat => return self.nnz as f64,
        };
        if outer_extent == 0 {
            0.0
        } else {
            self.nnz as f64 / outer_extent as f64
        }
    }

    /// Number of distinct outer indices the outer enumeration yields.
    /// Compressed-compressed formats (CCCS) enumerate only nonempty
    /// outer indices; plain CCS/CRS enumerate all of them.
    pub fn outer_extent(&self) -> usize {
        match self.orientation {
            Orientation::RowMajor => self.nrows,
            Orientation::ColMajor => self.ncols,
            Orientation::Flat => self.nnz,
        }
    }
}

/// Planner-visible metadata for a vector relation `X(i, x)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VecMeta {
    pub len: usize,
    pub nnz: usize,
    pub props: LevelProps,
}

impl VecMeta {
    /// Metadata of a dense vector of length `len`.
    pub fn dense(len: usize) -> Self {
        VecMeta { len, nnz: len, props: LevelProps::dense() }
    }

    /// Metadata of a sorted sparse vector.
    pub fn sparse_sorted(len: usize, nnz: usize) -> Self {
        VecMeta { len, nnz, props: LevelProps::sparse_sorted() }
    }
}

/// A position at the outer level of a hierarchical format, identifying
/// one outer index together with format-private bounds for its inner
/// level. Fields `a`/`b` are interpreted by the owning format (e.g. for
/// CRS they are the `[start, end)` range into `VALS`/`COLIND`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OuterCursor {
    /// The outer index value, in *global* index space.
    pub index: usize,
    pub a: usize,
    pub b: usize,
}

/// Iterator over the outer level of a hierarchical format.
pub type OuterIter<'a> = Box<dyn Iterator<Item = OuterCursor> + 'a>;

/// Iterator over `⟨index, value⟩` pairs at the inner level of a matrix
/// or over a vector. A concrete enum rather than a boxed trait object so
/// the common slice-backed cases iterate without virtual dispatch.
pub enum InnerIter<'a> {
    /// Parallel index/value slices (CRS/CCS rows, sparse vectors).
    Pairs { idx: &'a [usize], vals: &'a [f64], pos: usize },
    /// Strided parallel slices: element `k` is
    /// `(idx[k*idx_stride], vals[k*val_stride])` (ITPACK/ELLPACK stored
    /// column-major: both strides are the row count; an i-node row: its
    /// group's column list, values interleaved by the group height).
    /// `count` entries are real.
    Strided {
        idx: &'a [usize],
        idx_stride: usize,
        vals: &'a [f64],
        val_stride: usize,
        count: usize,
        pos: usize,
    },
    /// A dense contiguous run: index `lo + k` has value `vals[k]`.
    DenseRange { lo: usize, vals: &'a [f64], pos: usize },
    /// Nothing.
    Empty,
    /// Escape hatch for exotic layouts.
    Boxed(Box<dyn Iterator<Item = (usize, f64)> + 'a>),
}

impl<'a> Iterator for InnerIter<'a> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            InnerIter::Pairs { idx, vals, pos } => {
                if *pos < idx.len() {
                    let p = *pos;
                    *pos += 1;
                    Some((idx[p], vals[p]))
                } else {
                    None
                }
            }
            InnerIter::Strided { idx, idx_stride, vals, val_stride, count, pos } => {
                if *pos < *count {
                    let k = *pos;
                    *pos += 1;
                    Some((idx[k * *idx_stride], vals[k * *val_stride]))
                } else {
                    None
                }
            }
            InnerIter::DenseRange { lo, vals, pos } => {
                if *pos < vals.len() {
                    let p = *pos;
                    *pos += 1;
                    Some((*lo + p, vals[p]))
                } else {
                    None
                }
            }
            InnerIter::Empty => None,
            InnerIter::Boxed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            InnerIter::Pairs { idx, pos, .. } => {
                let n = idx.len().saturating_sub(*pos);
                (n, Some(n))
            }
            InnerIter::Strided { count, pos, .. } => {
                let n = count.saturating_sub(*pos);
                (n, Some(n))
            }
            InnerIter::DenseRange { vals, pos, .. } => {
                let n = vals.len().saturating_sub(*pos);
                (n, Some(n))
            }
            InnerIter::Empty => (0, Some(0)),
            InnerIter::Boxed(it) => it.size_hint(),
        }
    }
}

/// Iterator over the flat `⟨i, j, value⟩` view of a matrix relation.
pub type FlatIter<'a> = Box<dyn Iterator<Item = (usize, usize, f64)> + 'a>;

/// Access methods of a matrix relation `A(i, j, a)`.
///
/// Implementations must be internally consistent: the hierarchical view
/// (when [`MatMeta::orientation`] is not `Flat`) and the flat view must
/// present exactly the same set of tuples, with indices in *global*
/// space (i.e. any internal permutation already undone — see
/// [`crate::permutation`] for exposing permutations to the planner
/// instead).
pub trait MatrixAccess {
    /// Planner metadata. Must be constant for the lifetime of the value.
    fn meta(&self) -> MatMeta;

    /// Enumerate the outer level. Panics or returns an empty iterator if
    /// the orientation is `Flat` (callers consult `meta()` first; the
    /// plan executor never calls this for flat-oriented relations).
    fn enum_outer(&self) -> OuterIter<'_>;

    /// Locate an outer index, if the outer level supports search.
    fn search_outer(&self, index: usize) -> Option<OuterCursor>;

    /// Enumerate the inner level below an outer cursor.
    fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_>;

    /// Search the inner level below an outer cursor.
    fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64>;

    /// Enumerate every stored `⟨i, j, v⟩` tuple.
    fn enum_flat(&self) -> FlatIter<'_>;

    /// Random probe for a single element; `None` when `(i, j)` is not
    /// stored. Default derives it from the hierarchy when present.
    fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
        match self.meta().orientation {
            Orientation::RowMajor => {
                let c = self.search_outer(i)?;
                self.search_inner(&c, j)
            }
            Orientation::ColMajor => {
                let c = self.search_outer(j)?;
                self.search_inner(&c, i)
            }
            Orientation::Flat => self
                .enum_flat()
                .find(|&(fi, fj, _)| fi == i && fj == j)
                .map(|(_, _, v)| v),
        }
    }
}

/// Access methods of a vector relation `X(i, x)`.
pub trait VectorAccess {
    fn meta(&self) -> VecMeta;
    /// Enumerate stored `⟨index, value⟩` pairs.
    fn enumerate(&self) -> InnerIter<'_>;
    /// Random probe; `None` when the index is not stored.
    fn search(&self, index: usize) -> Option<f64>;
}

impl VectorAccess for [f64] {
    fn meta(&self) -> VecMeta {
        VecMeta::dense(self.len())
    }

    fn enumerate(&self) -> InnerIter<'_> {
        InnerIter::DenseRange { lo: 0, vals: self, pos: 0 }
    }

    #[inline]
    fn search(&self, index: usize) -> Option<f64> {
        self.get(index).copied()
    }
}

impl VectorAccess for &[f64] {
    fn meta(&self) -> VecMeta {
        (**self).meta()
    }

    fn enumerate(&self) -> InnerIter<'_> {
        (**self).enumerate()
    }

    fn search(&self, index: usize) -> Option<f64> {
        (**self).search(index)
    }
}

impl VectorAccess for Vec<f64> {
    fn meta(&self) -> VecMeta {
        self.as_slice().meta()
    }

    fn enumerate(&self) -> InnerIter<'_> {
        self.as_slice().enumerate()
    }

    fn search(&self, index: usize) -> Option<f64> {
        self.as_slice().search(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_vector_access() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(v.meta().len, 3);
        assert_eq!(v.meta().nnz, 3);
        assert!(v.meta().props.is_dense());
        let pairs: Vec<_> = v.enumerate().collect();
        assert_eq!(pairs, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(v.search(1), Some(2.0));
        assert_eq!(v.search(3), None);
    }

    #[test]
    fn inner_iter_pairs() {
        let idx = [1usize, 4, 7];
        let vals = [0.5, 0.25, 0.125];
        let it = InnerIter::Pairs { idx: &idx, vals: &vals, pos: 0 };
        assert_eq!(it.size_hint(), (3, Some(3)));
        let got: Vec<_> = it.collect();
        assert_eq!(got, vec![(1, 0.5), (4, 0.25), (7, 0.125)]);
    }

    #[test]
    fn inner_iter_strided_skips_padding() {
        // Column-major ITPACK layout: 2 rows, width 3, row 0 has 2 real
        // entries, row 1 has 3.
        // storage position of (row r, slot k) = k*2 + r
        let idx = [0usize, 1, 2, 3, 0, 5];
        let vals = [1.0, 2.0, 3.0, 4.0, 0.0, 6.0];
        let strided = |r: usize, count| InnerIter::Strided {
            idx: &idx[r..],
            idx_stride: 2,
            vals: &vals[r..],
            val_stride: 2,
            count,
            pos: 0,
        };
        let row0 = strided(0, 2);
        assert_eq!(row0.collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
        let row1 = strided(1, 3);
        assert_eq!(row1.collect::<Vec<_>>(), vec![(1, 2.0), (3, 4.0), (5, 6.0)]);
    }

    #[test]
    fn inner_iter_dense_range() {
        let vals = [9.0, 8.0];
        let it = InnerIter::DenseRange { lo: 5, vals: &vals, pos: 0 };
        assert_eq!(it.collect::<Vec<_>>(), vec![(5, 9.0), (6, 8.0)]);
    }

    #[test]
    fn inner_iter_empty_and_boxed() {
        assert_eq!(InnerIter::Empty.count(), 0);
        let it = InnerIter::Boxed(Box::new([(3usize, 1.5)].into_iter()));
        assert_eq!(it.collect::<Vec<_>>(), vec![(3, 1.5)]);
    }

    #[test]
    fn matmeta_avg_inner_len() {
        let m = MatMeta {
            nrows: 4,
            ncols: 8,
            nnz: 12,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        };
        assert!((m.avg_inner_len() - 3.0).abs() < 1e-12);
        assert_eq!(m.outer_extent(), 4);
        let mut mc = m;
        mc.orientation = Orientation::ColMajor;
        assert!((mc.avg_inner_len() - 1.5).abs() < 1e-12);
        assert_eq!(mc.outer_extent(), 8);
    }
}
