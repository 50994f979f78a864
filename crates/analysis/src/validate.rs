//! Format-invariant sanitization.
//!
//! Storage formats are trusted blindly by their kernels: a non-monotone
//! row pointer, an out-of-bounds column index or a duplicate entry is
//! silently accepted and produces a wrong SpMV. The [`Validate`] trait
//! (implemented by every format in `bernoulli-formats`) checks the raw
//! structural invariants first — so corrupt data cannot panic the
//! checker — and only then exercises the access-method contract via
//! [`check_access_contract`], which subsumes the old
//! `relational::access_check::check_matrix_access`.
//!
//! The helpers here are the shared vocabulary of those impls: each
//! returns at most a handful of [`Diagnostic`]s and never panics on
//! arbitrary input.

use crate::diag::{self, codes, Diagnostic, Span};
use bernoulli_relational::access::{MatMeta, MatrixAccess, Orientation};
use bernoulli_relational::permutation::Permutation;
use std::collections::BinaryHeap;

/// Self-check of a storage object's structural invariants.
///
/// Implementations must check *raw* invariants (pointer monotonicity,
/// index bounds, sortedness, duplicate-freedom, metadata consistency)
/// before touching any derived view, and should finish with
/// [`check_access_contract`] only when the raw checks pass.
pub trait Validate {
    /// All findings; empty means the object is well-formed.
    fn validate(&self) -> Vec<Diagnostic>;

    /// [`Validate::validate`] rendered as a `Result` (errors joined
    /// into one message; warnings ignored).
    fn validate_ok(&self) -> Result<(), String> {
        diag::into_result(&self.validate())
    }
}

/// Check a compressed pointer array: expected length, zero start,
/// monotone non-decreasing, expected end (`BA21`).
pub fn check_ptr(
    name: &'static str,
    ptr: &[usize],
    expected_len: usize,
    expected_end: usize,
) -> Vec<Diagnostic> {
    let at = |k| Span::Component { name, at: Some(k) };
    if ptr.len() != expected_len {
        return vec![Diagnostic::error(
            codes::FMT_BAD_PTR,
            Span::Component { name, at: None },
            format!("length {} but expected {expected_len}", ptr.len()),
        )];
    }
    if let Some(&first) = ptr.first() {
        if first != 0 {
            return vec![Diagnostic::error(codes::FMT_BAD_PTR, at(0), format!("starts at {first}, not 0"))];
        }
    }
    for (k, w) in ptr.windows(2).enumerate() {
        if w[1] < w[0] {
            return vec![Diagnostic::error(
                codes::FMT_BAD_PTR,
                at(k + 1),
                format!("decreases from {} to {}", w[0], w[1]),
            )];
        }
    }
    if let Some(&last) = ptr.last() {
        if last != expected_end {
            return vec![Diagnostic::error(
                codes::FMT_BAD_PTR,
                at(ptr.len() - 1),
                format!("ends at {last} but the data has {expected_end} slots"),
            )];
        }
    }
    Vec::new()
}

/// Check every stored index is `< bound` (`BA22`; first offender only).
pub fn check_bounds(name: &'static str, idx: &[usize], bound: usize) -> Vec<Diagnostic> {
    bounds_from(name, idx, bound, 0)
}

/// [`check_bounds`] over `idx`, which starts at offset `base` of `name`.
fn bounds_from(name: &'static str, idx: &[usize], bound: usize, base: usize) -> Vec<Diagnostic> {
    for (k, &i) in idx.iter().enumerate() {
        if i >= bound {
            return vec![Diagnostic::error(
                codes::FMT_INDEX_OOB,
                Span::Component { name, at: Some(base + k) },
                format!("index {i} out of bounds (< {bound})"),
            )];
        }
    }
    Vec::new()
}

/// The index runs of a compressed level, `idx[ptr[r]..ptr[r + 1]]`:
/// [`check_bounds`] over `idx`, then [`check_sorted_strict`] over each
/// run, named `"{run} {r}"`, with their findings in that order. One
/// pass over `idx`: a strictly ascending run is in bounds when its last
/// index is, and only a run that is not is checked element by element.
/// `ptr` must have passed [`check_ptr`] against `idx.len()`.
pub fn check_compressed(name: &'static str, ptr: &[usize], idx: &[usize], bound: usize, run: &str) -> Vec<Diagnostic> {
    let (mut bounds, mut order) = (Vec::new(), Vec::new());
    for (r, w) in ptr.windows(2).enumerate() {
        let ids = &idx[w[0]..w[1]];
        if ids.windows(2).all(|p| p[0] < p[1]) && ids.last().is_none_or(|&l| l < bound) {
            continue;
        }
        if bounds.is_empty() {
            bounds = bounds_from(name, ids, bound, w[0]);
        }
        order.extend(check_sorted_strict(name, ids, format_args!("{run} {r}")));
    }
    bounds.extend(order);
    bounds
}

/// Check one run of indices is strictly ascending: descent is `BA23`
/// (unsorted), equality is `BA24` (duplicate). First offender only.
/// `ctx` names the run in a finding and is formatted only for one, so
/// a per-row label can be `format_args!("row {r}")` at no cost to a
/// clean pass.
pub fn check_sorted_strict(name: &'static str, run: &[usize], ctx: impl std::fmt::Display) -> Vec<Diagnostic> {
    for (k, w) in run.windows(2).enumerate() {
        if w[1] == w[0] {
            return vec![Diagnostic::error(
                codes::FMT_DUPLICATE,
                Span::Component { name, at: Some(k + 1) },
                format!("duplicate index {} in {ctx}", w[0]),
            )];
        }
        if w[1] < w[0] {
            return vec![Diagnostic::error(
                codes::FMT_UNSORTED,
                Span::Component { name, at: Some(k + 1) },
                format!("{} after {} in {ctx}", w[1], w[0]),
            )];
        }
    }
    Vec::new()
}

/// Report a metadata/data disagreement (`BA25`).
pub fn meta_mismatch(name: &'static str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error(codes::FMT_META_MISMATCH, Span::Component { name, at: None }, message)
}

/// Check a permutation is a bijection on `0..expected_len` with a
/// consistent inverse (`BA26`).
pub fn check_permutation(
    name: &'static str,
    p: &Permutation,
    expected_len: usize,
) -> Vec<Diagnostic> {
    let whole = Span::Component { name, at: None };
    if p.len() != expected_len {
        return vec![Diagnostic::error(
            codes::FMT_BAD_PERM,
            whole,
            format!("length {} but expected {expected_len}", p.len()),
        )];
    }
    let fwd = p.as_forward();
    let bwd = p.as_backward();
    if bwd.len() != fwd.len() {
        return vec![Diagnostic::error(
            codes::FMT_BAD_PERM,
            whole,
            format!("forward has {} entries but inverse has {}", fwd.len(), bwd.len()),
        )];
    }
    let n = fwd.len();
    for (k, &img) in fwd.iter().enumerate() {
        if img >= n {
            return vec![Diagnostic::error(
                codes::FMT_BAD_PERM,
                Span::Component { name, at: Some(k) },
                format!("maps {k} to {img}, outside 0..{n}"),
            )];
        }
        if bwd[img] != k {
            return vec![Diagnostic::error(
                codes::FMT_BAD_PERM,
                Span::Component { name, at: Some(k) },
                format!("not a bijection: {k}→{img} but inverse maps {img}→{}", bwd[img]),
            )];
        }
    }
    Vec::new()
}

/// `search_pair` must return the stored value of this many tuples: the
/// least by `(row, col)` under a hierarchy, the first enumerated in a
/// flat view.
const PAIR_PROBES: usize = 200;
/// Definite misses are probed in the leading `CORNER × CORNER` block.
const CORNER: usize = 20;
/// How many definite misses are probed.
const MISS_PROBES: usize = 20;

/// Verify a [`MatrixAccess`] implementation honours its declared
/// contract. Subsumes the old `relational::access_check`:
///
/// 1. `meta().nnz` equals the flat tuple count (`BA25`);
/// 2. every flat tuple is inside `nrows × ncols` (`BA22`);
/// 3. the tuple set is duplicate-free (`BA24`);
/// 4. enumeration respects the declared sortedness (`BA23`);
/// 5. the hierarchical view (if any) agrees with the flat view, and
///    `search_inner`/`search_pair` agree with enumeration (`BA27`).
///
/// Findings keep that precedence, first offender only.
///
/// Linear and copy-free for views that keep their order, with one flat
/// enumeration: each flat tuple is counted, bounds-checked, kept as a
/// pair probe if it is among the least, marked in the leading block's
/// occupancy, and checked to ascend strictly in the hierarchy's key
/// (row-major for a flat view), which makes the view duplicate-free.
/// Under a hierarchy whose levels both declare sorted, that enumeration
/// runs in lockstep with the hierarchy walk, which compares the two
/// views tuple by tuple; a walk fault waits until the flat view has
/// been drained, so the flat findings still come first. Otherwise the
/// flat view is enumerated on its own. Only a flat view out of order
/// is collected again and sorted, and only unsorted levels or views
/// that disagree are compared sorted by `(row, col)`, which is where
/// every view diagnostic comes from.
///
/// Call only after raw structural checks pass — enumerating a corrupt
/// format may panic.
pub fn check_access_contract(m: &dyn MatrixAccess) -> Vec<Diagnostic> {
    let meta = m.meta();
    let error = |code, name, message| vec![Diagnostic::error(code, Span::Component { name, at: None }, message)];
    let hierarchical = meta.orientation != Orientation::Flat;
    let key = |i, j| if meta.orientation == Orientation::ColMajor { (j, i) } else { (i, j) };

    let (mut count, mut outside, mut last, mut ascending) = (0, None, None, true);
    // Max-heap of the pair probes, ranked in the order they are taken.
    let mut probes = BinaryHeap::with_capacity(PAIR_PROBES + 1);
    let mut corner = [[false; CORNER]; CORNER];
    let mut see = |(i, j, v): (usize, usize, f64)| {
        if outside.is_none() && (i >= meta.nrows || j >= meta.ncols) {
            outside = Some((i, j));
        }
        ascending &= last.is_none_or(|l| l < key(i, j));
        last = Some(key(i, j));
        if i < CORNER && j < CORNER {
            corner[i][j] = true;
        }
        let probe = (if hierarchical { (i, j) } else { (count, 0) }, (i, j), v.to_bits());
        if probes.len() < PAIR_PROBES {
            probes.push(probe);
        } else if probes.peek().is_some_and(|top| probe < *top) {
            *probes.peek_mut().expect("full") = probe;
        }
        count += 1;
    };
    // The lockstep walk's verdict: whether the views agree, or its fault.
    let mut walked = None;
    if hierarchical && meta.outer.sortedness.is_sorted() && meta.inner.sortedness.is_sorted() {
        let (mut flat, mut same) = (m.enum_flat(), true);
        let bits = |(i, j, v): (usize, usize, f64)| (i, j, v.to_bits());
        let walk = walk_hierarchy(m, &meta, |h| {
            let f = flat.next();
            if let Some(f) = f {
                see(f);
            }
            same &= f.map(bits) == Some(bits(h));
        });
        for f in flat {
            see(f);
            same = false;
        }
        walked = Some(walk.map(|()| same));
    } else {
        m.enum_flat().for_each(see);
    }
    if count != meta.nnz {
        return error(
            codes::FMT_META_MISMATCH,
            "meta.nnz",
            format!("meta.nnz = {} but the flat view has {count} tuples", meta.nnz),
        );
    }
    if let Some((i, j)) = outside {
        return error(
            codes::FMT_INDEX_OOB,
            "flat",
            format!("flat tuple ({i},{j}) outside {}x{}", meta.nrows, meta.ncols),
        );
    }
    let mut sorted = None;
    if !ascending {
        let flat = sorted_by_row(m.enum_flat().collect());
        if let Some(w) = flat.windows(2).find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1)) {
            return error(codes::FMT_DUPLICATE, "flat", format!("duplicate tuple at ({}, {})", w[0].0, w[0].1));
        }
        sorted = Some(flat);
    }

    if hierarchical {
        // Views that disagree, or whose levels are not both sorted,
        // compare sorted.
        let same = match walked {
            Some(Err(d)) => return vec![d],
            Some(Ok(same)) => same,
            None => false,
        };
        if !same {
            let mut hier = Vec::new();
            if let Err(d) = walk_hierarchy(m, &meta, |h| hier.push(h)) {
                return vec![d];
            }
            let flat = sorted.unwrap_or_else(|| sorted_by_row(m.enum_flat().collect()));
            if let Some(d) = compare_views(sorted_by_row(hier), &flat) {
                return vec![d];
            }
        }
    }

    // Pair probes agree with the tuple set.
    for (_, (i, j), bits) in probes.into_sorted_vec() {
        match m.search_pair(i, j) {
            Some(got) if got.to_bits() == bits => {}
            other => {
                let v = f64::from_bits(bits);
                let message = format!("search_pair({i},{j}) = {other:?}, expected {v}");
                return error(codes::FMT_CONTRACT, "search_pair", message);
            }
        }
    }
    // A handful of definite misses.
    let absent = corner.iter().enumerate().take(meta.nrows).flat_map(|(i, row)| {
        row.iter().enumerate().take(meta.ncols).filter(|&(_, &stored)| !stored).map(move |(j, _)| (i, j))
    });
    for (i, j) in absent.take(MISS_PROBES) {
        if let Some(v) = m.search_pair(i, j) {
            return error(
                codes::FMT_CONTRACT,
                "search_pair",
                format!("search_pair({i},{j}) = Some({v}) for an absent tuple"),
            );
        }
    }
    Vec::new()
}

/// Tuples sorted by `(row, col)`, stably.
fn sorted_by_row(mut tuples: Vec<(usize, usize, f64)>) -> Vec<(usize, usize, f64)> {
    tuples.sort_by_key(|t| (t.0, t.1));
    tuples
}

/// Walk the hierarchy, checking declared sortedness (`BA23`) and that
/// `search_inner` finds each enumerated entry (`BA27`), and hand each
/// tuple to `visit`.
fn walk_hierarchy(
    m: &dyn MatrixAccess,
    meta: &MatMeta,
    mut visit: impl FnMut((usize, usize, f64)),
) -> Result<(), Diagnostic> {
    let span = |name| Span::Component { name, at: None };
    let mut last_outer: Option<usize> = None;
    for cursor in m.enum_outer() {
        if meta.outer.sortedness.is_sorted() {
            if let Some(lo) = last_outer {
                if cursor.index <= lo {
                    return Err(Diagnostic::error(
                        codes::FMT_UNSORTED,
                        span("outer"),
                        format!("outer enumeration not ascending: {} after {lo}", cursor.index),
                    ));
                }
            }
        }
        last_outer = Some(cursor.index);
        let mut last_inner: Option<usize> = None;
        for (inner, v) in m.enum_inner(&cursor) {
            if meta.inner.sortedness.is_sorted() {
                if let Some(li) = last_inner {
                    if inner <= li {
                        return Err(Diagnostic::error(
                            codes::FMT_UNSORTED,
                            span("inner"),
                            format!(
                                "inner enumeration of outer {} not ascending: {inner} after {li}",
                                cursor.index
                            ),
                        ));
                    }
                }
            }
            last_inner = Some(inner);
            let (i, j) = match meta.orientation {
                Orientation::RowMajor => (cursor.index, inner),
                Orientation::ColMajor => (inner, cursor.index),
                Orientation::Flat => unreachable!(),
            };
            visit((i, j, v));
            // Inner search must find this entry. Values compare by
            // bit pattern: the contract is that both views expose
            // the *same stored value*, and `==` would spuriously
            // reject any matrix holding a NaN payload.
            if meta.inner.search.supported() {
                match m.search_inner(&cursor, inner) {
                    Some(got) if got.to_bits() == v.to_bits() => {}
                    other => {
                        return Err(Diagnostic::error(
                            codes::FMT_CONTRACT,
                            span("search_inner"),
                            format!(
                                "search_inner({}, {inner}) = {other:?}, enumeration says {v}",
                                cursor.index
                            ),
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// The two views, each sorted by `(row, col)`, compared position by
/// position: a count mismatch first, then the first disagreement.
fn compare_views(hier: Vec<(usize, usize, f64)>, flat: &[(usize, usize, f64)]) -> Option<Diagnostic> {
    let span = Span::Component { name: "views", at: None };
    if hier.len() != flat.len() {
        return Some(Diagnostic::error(
            codes::FMT_CONTRACT,
            span,
            format!("hierarchical view has {} tuples, flat view {}", hier.len(), flat.len()),
        ));
    }
    let key = |t: &(usize, usize, f64)| (t.0, t.1);
    let (h, f) = hier.iter().zip(flat).find(|(h, f)| key(h) != key(f) || h.2.to_bits() != f.2.to_bits())?;
    Some(Diagnostic::error(
        codes::FMT_CONTRACT,
        span,
        format!("views disagree: hierarchical {h:?} vs flat {f:?}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_relational::access::{FlatIter, InnerIter, OuterCursor, OuterIter};
    use bernoulli_relational::props::LevelProps;
    use bernoulli_relational::testmat::DokMatrix;

    /// The contract check as it ran before it streamed: collect the
    /// flat view, sort a copy for duplicates, collect and sort the
    /// hierarchy, hash every tuple for the miss probes. Every finding
    /// of [`check_access_contract`] is held to this one's code and
    /// message.
    fn oracle(m: &dyn MatrixAccess) -> Vec<Diagnostic> {
        let meta = m.meta();
        let span = |name| Span::Component { name, at: None };
        let mut flat: Vec<(usize, usize, f64)> = m.enum_flat().collect();
        if flat.len() != meta.nnz {
            return vec![Diagnostic::error(
                codes::FMT_META_MISMATCH,
                span("meta.nnz"),
                format!("meta.nnz = {} but the flat view has {} tuples", meta.nnz, flat.len()),
            )];
        }
        for &(i, j, _) in &flat {
            if i >= meta.nrows || j >= meta.ncols {
                return vec![Diagnostic::error(
                    codes::FMT_INDEX_OOB,
                    span("flat"),
                    format!("flat tuple ({i},{j}) outside {}x{}", meta.nrows, meta.ncols),
                )];
            }
        }
        {
            let mut sorted = flat.clone();
            sorted.sort_by_key(|t| (t.0, t.1));
            for w in sorted.windows(2) {
                if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                    return vec![Diagnostic::error(
                        codes::FMT_DUPLICATE,
                        span("flat"),
                        format!("duplicate tuple at ({}, {})", w[0].0, w[0].1),
                    )];
                }
            }
        }

        // Hierarchical view, when present.
        if meta.orientation != Orientation::Flat {
            let mut hier: Vec<(usize, usize, f64)> = Vec::new();
            let mut last_outer: Option<usize> = None;
            for cursor in m.enum_outer() {
                if meta.outer.sortedness.is_sorted() {
                    if let Some(lo) = last_outer {
                        if cursor.index <= lo {
                            return vec![Diagnostic::error(
                                codes::FMT_UNSORTED,
                                span("outer"),
                                format!("outer enumeration not ascending: {} after {lo}", cursor.index),
                            )];
                        }
                    }
                }
                last_outer = Some(cursor.index);
                let mut last_inner: Option<usize> = None;
                for (inner, v) in m.enum_inner(&cursor) {
                    if meta.inner.sortedness.is_sorted() {
                        if let Some(li) = last_inner {
                            if inner <= li {
                                return vec![Diagnostic::error(
                                    codes::FMT_UNSORTED,
                                    span("inner"),
                                    format!(
                                        "inner enumeration of outer {} not ascending: {inner} after {li}",
                                        cursor.index
                                    ),
                                )];
                            }
                        }
                    }
                    last_inner = Some(inner);
                    let (i, j) = match meta.orientation {
                        Orientation::RowMajor => (cursor.index, inner),
                        Orientation::ColMajor => (inner, cursor.index),
                        Orientation::Flat => unreachable!(),
                    };
                    hier.push((i, j, v));
                    // Inner search must find this entry. Values compare by
                    // bit pattern: the contract is that both views expose
                    // the *same stored value*, and `==` would spuriously
                    // reject any matrix holding a NaN payload.
                    if meta.inner.search.supported() {
                        match m.search_inner(&cursor, inner) {
                            Some(got) if got.to_bits() == v.to_bits() => {}
                            other => {
                                return vec![Diagnostic::error(
                                    codes::FMT_CONTRACT,
                                    span("search_inner"),
                                    format!(
                                        "search_inner({}, {inner}) = {other:?}, enumeration says {v}",
                                        cursor.index
                                    ),
                                )]
                            }
                        }
                    }
                }
            }
            let key = |t: &(usize, usize, f64)| (t.0, t.1);
            let mut a = hier.clone();
            a.sort_by_key(key);
            flat.sort_by_key(key);
            if a.len() != flat.len() {
                return vec![Diagnostic::error(
                    codes::FMT_CONTRACT,
                    span("views"),
                    format!("hierarchical view has {} tuples, flat view {}", a.len(), flat.len()),
                )];
            }
            for (h, f) in a.iter().zip(&flat) {
                if key(h) != key(f) || h.2.to_bits() != f.2.to_bits() {
                    return vec![Diagnostic::error(
                        codes::FMT_CONTRACT,
                        span("views"),
                        format!("views disagree: hierarchical {h:?} vs flat {f:?}"),
                    )];
                }
            }
        }

        // Pair probes agree with the tuple set.
        for &(i, j, v) in flat.iter().take(200) {
            match m.search_pair(i, j) {
                Some(got) if got.to_bits() == v.to_bits() => {}
                other => {
                    return vec![Diagnostic::error(
                        codes::FMT_CONTRACT,
                        span("search_pair"),
                        format!("search_pair({i},{j}) = {other:?}, expected {v}"),
                    )]
                }
            }
        }
        // A handful of definite misses.
        let present: std::collections::HashSet<(usize, usize)> =
            flat.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut misses = 0;
        for i in 0..meta.nrows.min(20) {
            for j in 0..meta.ncols.min(20) {
                if !present.contains(&(i, j)) {
                    if let Some(v) = m.search_pair(i, j) {
                        return vec![Diagnostic::error(
                            codes::FMT_CONTRACT,
                            span("search_pair"),
                            format!("search_pair({i},{j}) = Some({v}) for an absent tuple"),
                        )];
                    }
                    misses += 1;
                    if misses >= 20 {
                        return Vec::new();
                    }
                }
            }
        }
        Vec::new()
    }

    /// Views spelled out one by one, so each can lie on its own: the
    /// hierarchy as `(outer index, its inner entries)`, the flat
    /// stream, and a pair probe that may claim one absent tuple.
    struct Views {
        meta: MatMeta,
        hier: Vec<(usize, Vec<(usize, f64)>)>,
        flat: Vec<(usize, usize, f64)>,
        phantom: Option<(usize, usize, f64)>,
    }

    impl Views {
        /// Honest views of distinct `entries` under `orientation`, each
        /// level sorted; a flat view streams row-major.
        fn honest(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)], orientation: Orientation) -> Views {
            let key = |&(i, j, _): &(usize, usize, f64)| if orientation == Orientation::ColMajor { (j, i) } else { (i, j) };
            let mut flat = entries.to_vec();
            flat.sort_by_key(key);
            let mut hier: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
            if orientation != Orientation::Flat {
                for t in &flat {
                    let (outer, inner) = key(t);
                    match hier.last_mut() {
                        Some((o, list)) if *o == outer => list.push((inner, t.2)),
                        _ => hier.push((outer, vec![(inner, t.2)])),
                    }
                }
            }
            let level = if orientation == Orientation::Flat { LevelProps::enumerate_only() } else { LevelProps::sparse_sorted() };
            let meta = MatMeta {
                nrows,
                ncols,
                nnz: flat.len(),
                orientation,
                outer: level,
                inner: level,
                flat: LevelProps::sparse_unsorted(),
                pair_search_cheap: true,
            };
            Views { meta, hier, flat, phantom: None }
        }

        /// The flat view lies; `meta.nnz` follows it.
        fn with_flat(mut self, edit: impl FnOnce(&mut Vec<(usize, usize, f64)>)) -> Views {
            edit(&mut self.flat);
            self.meta.nnz = self.flat.len();
            self
        }
    }

    impl MatrixAccess for Views {
        fn meta(&self) -> MatMeta {
            self.meta
        }
        fn enum_outer(&self) -> OuterIter<'_> {
            Box::new(self.hier.iter().enumerate().map(|(k, &(index, _))| OuterCursor { index, a: k, b: k + 1 }))
        }
        fn search_outer(&self, index: usize) -> Option<OuterCursor> {
            let k = self.hier.iter().position(|&(o, _)| o == index)?;
            Some(OuterCursor { index, a: k, b: k + 1 })
        }
        fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
            InnerIter::Boxed(Box::new(self.hier[outer.a].1.iter().copied()))
        }
        fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
            self.hier[outer.a].1.iter().find(|&&(i, _)| i == index).map(|&(_, v)| v)
        }
        fn enum_flat(&self) -> FlatIter<'_> {
            Box::new(self.flat.iter().copied())
        }
        fn search_pair(&self, i: usize, j: usize) -> Option<f64> {
            match (self.phantom, self.meta.orientation) {
                (Some((pi, pj, v)), _) if (pi, pj) == (i, j) => Some(v),
                (_, Orientation::Flat) => self.flat.iter().find(|t| (t.0, t.1) == (i, j)).map(|t| t.2),
                (_, Orientation::RowMajor) => self.search_inner(&self.search_outer(i)?, j),
                (_, Orientation::ColMajor) => self.search_inner(&self.search_outer(j)?, i),
            }
        }
    }

    const ORIENTATIONS: [Orientation; 3] = [Orientation::RowMajor, Orientation::ColMajor, Orientation::Flat];

    /// The streaming check and the oracle give the same findings, and a
    /// mutant gives at least one.
    fn same_as_oracle(v: &Views, lying: bool) -> Vec<Diagnostic> {
        let (got, want) = (check_access_contract(v), oracle(v));
        assert_eq!(got, want, "{:?}", v.meta.orientation);
        assert_eq!(got.is_empty(), !lying, "{got:?}");
        got
    }

    fn sample(orientation: Orientation) -> Views {
        let e = [(0, 1, 1.0), (0, 3, 2.0), (1, 0, 3.0), (1, 2, f64::NAN), (3, 1, 5.0), (3, 3, 6.0)];
        Views::honest(4, 5, &e, orientation)
    }

    #[test]
    fn honest_views_pass_as_they_did() {
        for o in ORIENTATIONS {
            same_as_oracle(&sample(o), false);
        }
    }

    #[test]
    fn views_one_value_bit_apart_are_caught() {
        for o in ORIENTATIONS.into_iter().filter(|&o| o != Orientation::Flat) {
            let m = sample(o).with_flat(|f| {
                let k = f.iter().position(|t| t.2.is_nan()).unwrap();
                f[k].2 = f64::from_bits(f[k].2.to_bits() ^ 1);
            });
            let d = same_as_oracle(&m, true);
            assert_eq!(d[0].code, codes::FMT_CONTRACT);
            assert!(d[0].message.contains("views disagree"), "{}", d[0].message);
        }
    }

    #[test]
    fn views_one_index_apart_are_caught() {
        for o in ORIENTATIONS.into_iter().filter(|&o| o != Orientation::Flat) {
            let m = sample(o).with_flat(|f| {
                let k = f.iter().position(|t| (t.0, t.1) == (3, 3)).unwrap();
                f[k].1 = 4;
            });
            assert!(same_as_oracle(&m, true)[0].message.contains("views disagree"));
        }
    }

    #[test]
    fn one_extra_tuple_on_either_side_is_caught() {
        for o in ORIENTATIONS.into_iter().filter(|&o| o != Orientation::Flat) {
            let d = same_as_oracle(&sample(o).with_flat(|f| f.push((3, 4, 7.0))), true);
            assert!(d[0].message.contains("hierarchical view has 6 tuples, flat view 7"), "{}", d[0].message);
            let d = same_as_oracle(
                &sample(o).with_flat(|f| {
                    f.remove(2);
                }),
                true,
            );
            assert!(d[0].message.contains("hierarchical view has 6 tuples, flat view 5"), "{}", d[0].message);
        }
    }

    #[test]
    fn several_disagreements_report_the_first_by_row() {
        // Column-major lockstep meets (1,0) before (0,1); the report is
        // the first by `(row, col)`, as it always was.
        let m = sample(Orientation::ColMajor).with_flat(|f| {
            for t in f.iter_mut().filter(|t| t.0 < 2) {
                t.2 += 0.5;
            }
        });
        let d = same_as_oracle(&m, true);
        assert!(d[0].message.contains("hierarchical (0, 1, 1.0)"), "{}", d[0].message);
    }

    #[test]
    fn an_unsorted_flat_view_with_a_duplicate_takes_the_fallback() {
        for o in ORIENTATIONS {
            let m = sample(o).with_flat(|f| {
                f.reverse();
                f.push(f[2]);
            });
            let d = same_as_oracle(&m, true);
            assert_eq!(d[0].code, codes::FMT_DUPLICATE, "{d:?}");
            // Unsorted but duplicate-free: the views still compare.
            same_as_oracle(&sample(o).with_flat(|f| f.reverse()), false);
        }
    }

    #[test]
    fn a_count_mismatch_outranks_a_walk_fault_met_first() {
        for o in ORIENTATIONS.into_iter().filter(|&o| o != Orientation::Flat) {
            let mut m = sample(o);
            let k = m.hier.iter().position(|(_, list)| list.len() > 1).unwrap();
            m.hier[k].1.reverse();
            let d = same_as_oracle(&m, true);
            assert_eq!(d[0].code, codes::FMT_UNSORTED, "{d:?}");
            // The walk stops at its fault; the count still covers the
            // whole flat view.
            m.meta.nnz += 1;
            let d = same_as_oracle(&m, true);
            assert_eq!(d[0].code, codes::FMT_META_MISMATCH, "{d:?}");
            assert!(d[0].message.contains("meta.nnz = 7 but the flat view has 6 tuples"), "{}", d[0].message);
        }
    }

    #[test]
    fn a_phantom_in_the_corner_is_caught() {
        for o in ORIENTATIONS {
            let mut m = sample(o);
            m.phantom = Some((2, 2, 1.0));
            let d = same_as_oracle(&m, true);
            assert!(d[0].message.contains("search_pair(2,2) = Some(1) for an absent tuple"), "{}", d[0].message);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(1024))]
        /// Random views under every orientation, honest or with one lie
        /// of every kind the check looks for, give the oracle's findings.
        #[test]
        fn streaming_check_matches_the_oracle(
            nrows in 0usize..25,
            ncols in 0usize..25,
            picks in proptest::collection::vec((0usize..25, 0usize..25, 0usize..4), 0..250),
            orientation in 0usize..3,
            lie in 0usize..12,
            at in 0usize..1000,
        ) {
            let values = [1.0, -2.5, f64::NAN, -0.0];
            let mut entries: Vec<(usize, usize, f64)> = picks
                .into_iter()
                .filter(|&(i, j, _)| i < nrows && j < ncols)
                .map(|(i, j, v)| (i, j, values[v]))
                .collect();
            entries.sort_by_key(|t| (t.0, t.1));
            entries.dedup_by_key(|t| (t.0, t.1));
            let mut m = Views::honest(nrows, ncols, &entries, ORIENTATIONS[orientation]);
            let (n, outers) = (m.flat.len(), m.hier.len());
            match lie {
                1 if n > 0 => m.flat[at % n].2 = f64::from_bits(m.flat[at % n].2.to_bits() ^ 1),
                2 if n > 0 => m.flat[at % n].1 = (m.flat[at % n].1 + 1) % ncols,
                3 => m.flat.insert(at % (n + 1), (at % nrows.max(1), at % ncols.max(1), 9.0)),
                4 if n > 0 => drop(m.flat.remove(at % n)),
                5 if n > 0 => m.flat.rotate_left(at % n),
                6 if n > 1 => m.flat[at % n] = m.flat[(at + 1) % n],
                7 => m.phantom = Some((at % 20, at / 20 % 20, 4.0)),
                8 => m.flat.push((nrows + at % 2, at % 3, 1.0)),
                9 if outers > 0 => m.hier[at % outers].1.reverse(),
                10 if outers > 0 => {
                    m.hier[at % outers].1.remove(0);
                }
                _ => {}
            }
            m.meta.nnz = m.flat.len() + usize::from(lie == 11);
            proptest::prop_assert_eq!(check_access_contract(&m), oracle(&m));
        }
    }

    #[test]
    fn helper_checks_accept_well_formed_data() {
        assert!(check_ptr("p", &[0, 2, 2, 5], 4, 5).is_empty());
        assert!(check_bounds("idx", &[0, 4, 2], 5).is_empty());
        assert!(check_sorted_strict("idx", &[1, 3, 9], "row 0").is_empty());
        let p = Permutation::from_forward(vec![2, 0, 1]).unwrap();
        assert!(check_permutation("perm", &p, 3).is_empty());
    }

    #[test]
    fn ba21_ptr_violations() {
        assert_eq!(check_ptr("p", &[0, 2], 3, 2)[0].code, codes::FMT_BAD_PTR); // wrong length
        assert_eq!(check_ptr("p", &[1, 2, 3], 3, 3)[0].code, codes::FMT_BAD_PTR); // bad start
        assert_eq!(check_ptr("p", &[0, 3, 2], 3, 2)[0].code, codes::FMT_BAD_PTR); // decrease
        assert_eq!(check_ptr("p", &[0, 1, 2], 3, 9)[0].code, codes::FMT_BAD_PTR); // bad end
    }

    #[test]
    fn ba22_ba23_ba24_element_violations() {
        assert_eq!(check_bounds("i", &[0, 7], 5)[0].code, codes::FMT_INDEX_OOB);
        assert_eq!(check_sorted_strict("i", &[3, 1], "r")[0].code, codes::FMT_UNSORTED);
        assert_eq!(check_sorted_strict("i", &[3, 3], "r")[0].code, codes::FMT_DUPLICATE);
    }

    #[test]
    fn ba26_corrupt_permutation() {
        // Two sources map to the same image: not a bijection.
        let p = Permutation::from_raw_parts(vec![0, 0, 2], vec![0, 1, 2]);
        let d = check_permutation("perm", &p, 3);
        assert_eq!(d[0].code, codes::FMT_BAD_PERM);
        // Out-of-range image.
        let p = Permutation::from_raw_parts(vec![0, 9, 2], vec![0, 1, 2]);
        assert_eq!(check_permutation("perm", &p, 3)[0].code, codes::FMT_BAD_PERM);
        // Wrong length.
        let p = Permutation::identity(4);
        assert_eq!(check_permutation("perm", &p, 3)[0].code, codes::FMT_BAD_PERM);
    }

    #[test]
    fn contract_accepts_conforming_matrix() {
        let m = DokMatrix::from_triplets(
            5,
            6,
            &[(0, 1, 1.0), (0, 4, 2.0), (2, 0, 3.0), (4, 5, 4.0), (4, 0, 5.0)],
        );
        assert!(check_access_contract(&m).is_empty());
    }

    /// A deliberately broken format: claims sorted inner enumeration
    /// but yields descending columns.
    struct LyingFormat {
        inner: DokMatrix,
    }

    impl MatrixAccess for LyingFormat {
        fn meta(&self) -> MatMeta {
            self.inner.meta()
        }
        fn enum_outer(&self) -> OuterIter<'_> {
            self.inner.enum_outer()
        }
        fn search_outer(&self, index: usize) -> Option<OuterCursor> {
            self.inner.search_outer(index)
        }
        fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
            let mut v: Vec<(usize, f64)> = self.inner.enum_inner(outer).collect();
            v.reverse(); // violates the declared sortedness
            InnerIter::Boxed(Box::new(v.into_iter()))
        }
        fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
            self.inner.search_inner(outer, index)
        }
        fn enum_flat(&self) -> FlatIter<'_> {
            self.inner.enum_flat()
        }
    }

    #[test]
    fn ba23_lying_sortedness_detected() {
        let m = LyingFormat {
            inner: DokMatrix::from_triplets(2, 4, &[(0, 1, 1.0), (0, 3, 2.0), (1, 0, 3.0)]),
        };
        let d = check_access_contract(&m);
        assert_eq!(d[0].code, codes::FMT_UNSORTED, "{d:?}");
        assert!(d[0].message.contains("not ascending"), "{}", d[0].message);
    }

    /// A format whose nnz lies.
    struct WrongNnz {
        inner: DokMatrix,
    }

    impl MatrixAccess for WrongNnz {
        fn meta(&self) -> MatMeta {
            MatMeta { nnz: self.inner.nnz() + 1, ..self.inner.meta() }
        }
        fn enum_outer(&self) -> OuterIter<'_> {
            self.inner.enum_outer()
        }
        fn search_outer(&self, index: usize) -> Option<OuterCursor> {
            self.inner.search_outer(index)
        }
        fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
            self.inner.enum_inner(outer)
        }
        fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
            self.inner.search_inner(outer, index)
        }
        fn enum_flat(&self) -> FlatIter<'_> {
            self.inner.enum_flat()
        }
    }

    #[test]
    fn ba25_wrong_nnz_detected() {
        let m = WrongNnz { inner: DokMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]) };
        let d = check_access_contract(&m);
        assert_eq!(d[0].code, codes::FMT_META_MISMATCH, "{d:?}");
        assert!(d[0].message.contains("meta.nnz"), "{}", d[0].message);
    }

    /// Every view honest except `search_pair`, which denies a stored
    /// entry — the cross-view disagreement case of `BA27`.
    struct LyingSearchPair {
        inner: DokMatrix,
    }

    impl MatrixAccess for LyingSearchPair {
        fn meta(&self) -> MatMeta {
            self.inner.meta()
        }
        fn enum_outer(&self) -> OuterIter<'_> {
            self.inner.enum_outer()
        }
        fn search_outer(&self, index: usize) -> Option<OuterCursor> {
            self.inner.search_outer(index)
        }
        fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
            self.inner.enum_inner(outer)
        }
        fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
            self.inner.search_inner(outer, index)
        }
        fn enum_flat(&self) -> FlatIter<'_> {
            self.inner.enum_flat()
        }
        fn search_pair(&self, _i: usize, _j: usize) -> Option<f64> {
            None
        }
    }

    #[test]
    fn ba27_view_disagreement_detected() {
        let m = LyingSearchPair { inner: DokMatrix::from_triplets(2, 2, &[(0, 1, 5.0)]) };
        let d = check_access_contract(&m);
        assert_eq!(d[0].code, codes::FMT_CONTRACT, "{d:?}");
        assert!(d[0].message.contains("search_pair"), "{}", d[0].message);
        // The honest inner matrix is the clean counterpart.
        assert!(check_access_contract(&m.inner).is_empty());
    }
}
