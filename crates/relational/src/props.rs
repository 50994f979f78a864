//! Declared properties of access-method levels.
//!
//! Following the paper (§2.1), each level of a format's index hierarchy
//! is described to the compiler by the *properties* of its enumerate and
//! search methods — the planner makes every decision from these alone,
//! never from the concrete data layout. This is what lets new formats be
//! added without changing the compilation strategy.

use std::fmt;

/// Cost class of the `search(index)` operation at one hierarchy level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SearchCost {
    /// O(1): direct indexing (dense storage, offset arrays).
    Constant,
    /// O(log nnz): binary search over a sorted index array.
    Logarithmic,
    /// O(nnz): linear scan (unsorted index array).
    Linear,
    /// Search is not supported at this level (enumeration only).
    Unsupported,
}

impl SearchCost {
    /// Abstract per-probe cost used by the planner's cost model.
    /// `n` is the expected number of candidates at this level.
    pub fn probe_cost(self, n: f64) -> f64 {
        match self {
            SearchCost::Constant => 1.0,
            SearchCost::Logarithmic => (n.max(2.0)).log2(),
            SearchCost::Linear => n.max(1.0) / 2.0,
            SearchCost::Unsupported => f64::INFINITY,
        }
    }

    /// Whether search is available at all.
    pub fn supported(self) -> bool {
        self != SearchCost::Unsupported
    }
}

/// Whether enumeration at a level yields indices in ascending order.
///
/// Sorted enumeration on both sides of a join enables a merge-join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sortedness {
    /// Indices come out strictly ascending.
    SortedAscending,
    /// No ordering guarantee.
    Unsorted,
}

impl Sortedness {
    pub fn is_sorted(self) -> bool {
        matches!(self, Sortedness::SortedAscending)
    }
}

/// Density of a level: does it materialise every index in `0..extent`,
/// or only the nonzero ones?
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Density {
    /// Every index in the range is present (dense arrays; `NZ` is
    /// identically true, per the paper's treatment of the dense `Y`).
    Dense,
    /// Only nonzero indices are present.
    Sparse,
}

/// The full property record for one level of an index hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelProps {
    pub sortedness: Sortedness,
    pub search: SearchCost,
    pub density: Density,
    /// Whether an index can appear more than once at this level
    /// (true for e.g. the unsorted flat COO outer level).
    pub duplicates: bool,
}

impl LevelProps {
    /// Properties of a dense, directly indexable level (a dense vector,
    /// the row dimension of a dense matrix, an offset-array level).
    pub const fn dense() -> Self {
        LevelProps {
            sortedness: Sortedness::SortedAscending,
            search: SearchCost::Constant,
            density: Density::Dense,
            duplicates: false,
        }
    }

    /// Properties of a sorted sparse level with binary search
    /// (CSR column indices within a row, sorted sparse vectors).
    pub const fn sparse_sorted() -> Self {
        LevelProps {
            sortedness: Sortedness::SortedAscending,
            search: SearchCost::Logarithmic,
            density: Density::Sparse,
            duplicates: false,
        }
    }

    /// Properties of an unsorted sparse level (coordinate storage).
    pub const fn sparse_unsorted() -> Self {
        LevelProps {
            sortedness: Sortedness::Unsorted,
            search: SearchCost::Linear,
            density: Density::Sparse,
            duplicates: false,
        }
    }

    /// Properties of a level that can only be enumerated, never searched.
    pub const fn enumerate_only() -> Self {
        LevelProps {
            sortedness: Sortedness::Unsorted,
            search: SearchCost::Unsupported,
            density: Density::Sparse,
            duplicates: true,
        }
    }

    pub fn with_search(mut self, search: SearchCost) -> Self {
        self.search = search;
        self
    }

    pub fn is_dense(&self) -> bool {
        self.density == Density::Dense
    }
}

impl fmt::Display for LevelProps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{:?}/{}",
            if self.sortedness.is_sorted() { "sorted" } else { "unsorted" },
            self.search,
            if self.is_dense() { "dense" } else { "sparse" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_costs_ordered() {
        let n = 1024.0;
        let c = SearchCost::Constant.probe_cost(n);
        let l = SearchCost::Logarithmic.probe_cost(n);
        let s = SearchCost::Linear.probe_cost(n);
        assert!(c < l && l < s);
        assert!(SearchCost::Unsupported.probe_cost(n).is_infinite());
    }

    #[test]
    fn probe_cost_small_n_well_defined() {
        // log2 of anything below 2 must not go negative or NaN.
        assert!(SearchCost::Logarithmic.probe_cost(0.0) >= 1.0);
        assert!(SearchCost::Linear.probe_cost(0.0) >= 0.0);
    }

    #[test]
    fn canned_props() {
        assert!(LevelProps::dense().is_dense());
        assert!(LevelProps::dense().sortedness.is_sorted());
        assert_eq!(LevelProps::sparse_sorted().search, SearchCost::Logarithmic);
        assert!(!LevelProps::sparse_unsorted().sortedness.is_sorted());
        assert!(!LevelProps::enumerate_only().search.supported());
    }

    #[test]
    fn with_search_sets_the_search_cost() {
        let p = LevelProps { sortedness: Sortedness::SortedAscending, ..LevelProps::sparse_unsorted() }
            .with_search(SearchCost::Logarithmic);
        assert_eq!(p, LevelProps::sparse_sorted());
    }

    #[test]
    fn display_is_compact() {
        let s = format!("{}", LevelProps::sparse_sorted());
        assert!(s.contains("sorted"));
        assert!(s.contains("sparse"));
    }
}
