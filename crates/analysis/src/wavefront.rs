//! DO-ACROSS wavefront dependence analysis for sweeps.
//!
//! The [`race`](crate::race) pass certifies DO-ANY nests — iterations
//! that may run in any order. Triangular solve and Gauss-Seidel are the
//! canonical nests it must *refuse* (`BA01`/`BA02`: the written vector
//! is also read across iterations). This pass recovers their
//! parallelism anyway, per operand: a sweep's loop-carried dependence
//! relation ([`Relation`]) is read straight off the sparsity structure,
//! it is a DAG whenever the structure admits the sweep at all, and rows
//! at equal longest-path depth (a *level*) are mutually independent — so
//! levels execute as parallel waves while the level sequence preserves
//! every dependence. Classic DO-ACROSS level scheduling, derived from
//! the actual operand at plan time as in SpComp-style per-structure
//! compilation.
//!
//! [`certify_wavefront`] is the one entry point. It computes a
//! [`LevelSchedule`] (or takes a cached one), checks it once with the
//! independent verifier, and issues an unforgeable [`WavefrontCert`] —
//! the DO-ACROSS analogue of the race checker's certificates — that
//! names the relation it proves and binds the operand (by the one
//! [`OperandBinding`], like the fast-tier certificates) and the exact
//! schedule (the four-lane [`index_digest`] fold over its contents).
//! Kernels re-check [`WavefrontCert::covers`] at entry and fall back to
//! serial on any mismatch. [`analyze_wavefront`] is the solve relation's
//! cold analysis as a report, [`verify_level_schedule`] its bare
//! verifier.
//!
//! The verifier re-checks a schedule against the dependences in the
//! spirit of `plan_verify.rs`: it recomputes nothing, so a bug in the
//! level computation — or a forged cached schedule — cannot license a
//! racy wave. Its codes are the `BA4x` family: `BA41` non-triangular
//! (cyclic) structure, `BA42` non-topological level assignment, `BA43`
//! missing/duplicate/out-of-range row, `BA44` same-level dependence
//! overlap.

use crate::binding::{index_digest, OperandBinding};
use crate::diag::{codes, Diagnostic, Span};

/// Which half of the matrix a sweep traverses — and therefore which
/// stored entries are loop-carried dependences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangle {
    /// Forward sweep over a lower-triangular pattern: row `i` depends
    /// on row `j` for every stored `A[i][j]` with `j < i`.
    Lower,
    /// Backward sweep over an upper-triangular pattern: row `i` depends
    /// on row `j` for every stored `A[i][j]` with `j > i`.
    Upper,
}

impl Triangle {
    fn name(self) -> &'static str {
        match self {
            Triangle::Lower => "lower",
            Triangle::Upper => "upper",
        }
    }
}

/// The loop-carried dependence relation a schedule is proved against.
/// A certificate names its relation, so one op's proof never licenses
/// another op's sweep over the same arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Substitution with a triangular factor: row `i` reads `x[j]` for
    /// every stored `T[i][j]` on the triangle's side of the diagonal,
    /// so row `j` comes first. Levels are listed in solve order.
    Solve(Triangle),
    /// A Gauss-Seidel sweep over a square operand, in either direction.
    /// Row `i` reads `x[j]` for every stored `A[i][j]` — the new value
    /// of a row swept before it, the old value of one swept after — so
    /// every stored off-diagonal orders its two rows: the relation is
    /// `struct(A) ∪ struct(Aᵀ)`, read off `A`'s own arrays with no
    /// symmetrized copy. Levels are listed in forward (ascending) order.
    /// The relation is symmetric, so the backward sweep's DAG is the
    /// forward one with every edge reversed, and the same schedule
    /// walked last level first is a valid backward schedule: one
    /// schedule serves both sweeps.
    GaussSeidel,
}

/// Rows grouped by longest-path depth in the dependence DAG.
///
/// `rows` lists every row exactly once in level-major order;
/// `level_ptr[l]..level_ptr[l + 1]` delimits level `l`. Rows within a
/// level are mutually independent (no stored entry connects them), so
/// a kernel may compute them concurrently; levels execute in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSchedule {
    nrows: usize,
    rows: Vec<usize>,
    level_ptr: Vec<usize>,
}

impl LevelSchedule {
    /// Number of rows the schedule covers.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of levels (parallel waves).
    pub fn num_levels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// The rows of level `l`.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// All rows in level-major execution order.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Level boundaries into [`Self::rows`].
    pub fn level_ptr(&self) -> &[usize] {
        &self.level_ptr
    }

    /// Widest level (rows per wave at the parallel peak).
    pub fn max_level_width(&self) -> usize {
        (0..self.num_levels()).map(|l| self.level(l).len()).max().unwrap_or(0)
    }

    /// Mean rows per level — the average parallelism a level-scheduled
    /// execution can exploit (1.0 means the schedule is a serial chain).
    pub fn mean_level_width(&self) -> f64 {
        if self.num_levels() == 0 {
            0.0
        } else {
            self.nrows as f64 / self.num_levels() as f64
        }
    }

    /// Build a schedule from raw parts **without** any checking — what a
    /// plan cache rebuilds from disk, and what the corrupt-schedule
    /// corpus crafts. Nothing trusts it: only [`certify_wavefront`]
    /// issues a certificate, and only after the verifier accepts the
    /// schedule against the operand.
    pub fn from_raw_unchecked(nrows: usize, rows: Vec<usize>, level_ptr: Vec<usize>) -> LevelSchedule {
        LevelSchedule { nrows, rows, level_ptr }
    }
}

/// Content hash of a schedule: [`index_digest`]'s four-lane fold over
/// its order, its level boundaries and its rows.
fn schedule_hash(s: &LevelSchedule) -> u64 {
    index_digest(&[&[s.nrows], &s.level_ptr, &s.rows])
}

/// Proof that a schedule admits DO-ACROSS level-parallel execution of
/// one [`Relation`] over one operand. Only [`certify_wavefront`]
/// constructs one (private fields); it binds the relation, the operand
/// ([`OperandBinding`]) and the exact schedule (by content hash), and
/// [`WavefrontCert::covers`] re-checks all three at kernel entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WavefrontCert {
    relation: Relation,
    operand: OperandBinding,
    schedule_hash: u64,
    levels: usize,
    max_width: usize,
}

impl WavefrontCert {
    /// Does this certificate license running `sched` as a `relation`
    /// sweep over the operand `op`? True only for the operand certified,
    /// the relation proved and the schedule verified.
    pub fn covers(&self, op: &OperandBinding, relation: Relation, sched: &LevelSchedule) -> bool {
        self.binds(op) && self.relation == relation && self.schedule_hash == schedule_hash(sched)
    }

    /// Is `op` the operand this certificate was issued for? The O(1)
    /// part of [`covers`](Self::covers).
    pub fn binds(&self, op: &OperandBinding) -> bool {
        self.operand == *op
    }

    /// Number of levels in the certified schedule.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Widest certified level.
    pub fn max_level_width(&self) -> usize {
        self.max_width
    }

    /// Mean rows per certified level.
    pub fn mean_level_width(&self) -> f64 {
        if self.levels == 0 {
            0.0
        } else {
            self.operand.nrows() as f64 / self.levels as f64
        }
    }
}

/// The pass's verdict: a schedule + certificate when the operand's
/// dependence relation is a DAG, plus any findings.
#[derive(Clone, Debug)]
pub struct WavefrontReport {
    /// The level schedule, present iff certification succeeded.
    pub schedule: Option<LevelSchedule>,
    /// The certificate licensing `schedule` on the analyzed pattern.
    pub certificate: Option<WavefrontCert>,
    pub diagnostics: Vec<Diagnostic>,
}

impl WavefrontReport {
    /// May a level-parallel kernel run this operand?
    pub fn is_parallel_safe(&self) -> bool {
        self.certificate.is_some()
    }
}

/// Where a pass reports its checks. Each pass below is written once,
/// generic over its sink, and first runs over [`Failed`], which only
/// notes that a check failed, so a passing run builds no diagnostic.
/// Only a failed pass runs again, over a `Vec<Diagnostic>`, to collect
/// its findings in order (`diagnosed!`).
trait Sink {
    /// Note the check `ok`, `diag` describing its failure; returns `ok`.
    fn check(&mut self, ok: bool, diag: impl FnOnce() -> Diagnostic) -> bool;
}

/// The first run's sink: did any check fail?
struct Failed(bool);

impl Sink for Failed {
    #[inline(always)]
    fn check(&mut self, ok: bool, _: impl FnOnce() -> Diagnostic) -> bool {
        self.0 |= !ok;
        ok
    }
}

impl Sink for Vec<Diagnostic> {
    fn check(&mut self, ok: bool, diag: impl FnOnce() -> Diagnostic) -> bool {
        if !ok {
            self.push(diag());
        }
        ok
    }
}

/// `$pass(args.., sink)` over a [`Failed`] sink and, only when a check
/// failed, once more over a `Vec<Diagnostic>`: `Ok` of the first run's
/// result, or `Err` of the second run's findings.
macro_rules! diagnosed {
    ($pass:expr, $($arg:expr),*) => {{
        let mut failed = Failed(false);
        let out = $pass($($arg,)* &mut failed);
        if failed.0 {
            let mut diags = Vec::new();
            $pass($($arg,)* &mut diags);
            Err(diags)
        } else {
            Ok(out)
        }
    }};
}

/// A [`Relation`] fixed at compile time. The level pass and the
/// verifier are each written once, generic over it, so each runs as one
/// loop per relation, decided once per call.
trait Fixed {
    const RELATION: Relation;
}

struct LowerSolve;
struct UpperSolve;
struct GaussSeidelSweep;

impl Fixed for LowerSolve {
    const RELATION: Relation = Relation::Solve(Triangle::Lower);
}
impl Fixed for UpperSolve {
    const RELATION: Relation = Relation::Solve(Triangle::Upper);
}
impl Fixed for GaussSeidelSweep {
    const RELATION: Relation = Relation::GaussSeidel;
}

/// The dependences a stored entry `(i, j)` of row `i` carries. Each
/// test folds to a comparison when the relation is a constant.
impl Relation {
    /// Rows are visited in dependence order: descending for an upper
    /// solve, ascending otherwise.
    #[inline(always)]
    fn descending(self) -> bool {
        matches!(self, Relation::Solve(Triangle::Upper))
    }

    /// The entry makes row `j` come before row `i`.
    #[inline(always)]
    fn before(self, i: usize, j: usize) -> bool {
        if self.descending() {
            j > i
        } else {
            j < i
        }
    }

    /// The entry makes row `i` come before row `j`: Gauss-Seidel's upper
    /// entries, which the later row cannot see from its own.
    #[inline(always)]
    fn after(self, i: usize, j: usize) -> bool {
        matches!(self, Relation::GaussSeidel) && j > i
    }

    /// The entry lies on the wrong side of a solve's triangle, so the
    /// relation is cyclic.
    #[inline(always)]
    fn wrong_side(self, i: usize, j: usize) -> bool {
        j != i && !self.before(i, j) && !self.after(i, j)
    }
}

/// Basic CSR-pattern shape checks shared by the analyzer and the
/// verifier, reusing the sanitizer's `BA21`/`BA22` codes: a malformed
/// pattern is a format defect, not a scheduling defect.
fn shape(nrows: usize, rowptr: &[usize], colind: &[usize], sink: &mut impl Sink) {
    let ptr = |at| Span::Component { name: "rowptr", at };
    if !sink.check(rowptr.len() == nrows + 1, || {
        let msg = format!("rowptr has length {} for {nrows} rows (want {})", rowptr.len(), nrows + 1);
        Diagnostic::error(codes::FMT_BAD_PTR, ptr(None), msg)
    }) {
        return;
    }
    sink.check(rowptr[0] == 0, || {
        Diagnostic::error(codes::FMT_BAD_PTR, ptr(Some(0)), format!("rowptr starts at {} (want 0)", rowptr[0]))
    });
    for k in 1..rowptr.len() {
        if !sink.check(rowptr[k] >= rowptr[k - 1], || {
            let msg = format!("rowptr decreases at {k}: {} -> {}", rowptr[k - 1], rowptr[k]);
            Diagnostic::error(codes::FMT_BAD_PTR, ptr(Some(k)), msg)
        }) {
            return;
        }
    }
    if !sink.check(rowptr[nrows] == colind.len(), || {
        let msg = format!("rowptr ends at {} but colind has {} entries", rowptr[nrows], colind.len());
        Diagnostic::error(codes::FMT_BAD_PTR, ptr(Some(nrows)), msg)
    }) {
        return;
    }
    for (k, &j) in colind.iter().enumerate() {
        sink.check(j < nrows, || {
            Diagnostic::error(
                codes::FMT_INDEX_OOB,
                Span::Component { name: "colind", at: Some(k) },
                format!("column index {j} out of bounds for {nrows} rows"),
            )
        });
    }
}

fn wrong_side_diag(relation: Relation, i: usize, j: usize, k: usize) -> Diagnostic {
    let triangle = if relation.descending() { Triangle::Upper } else { Triangle::Lower };
    Diagnostic::error(
        codes::WAVE_NOT_TRIANGULAR,
        Span::Component { name: "colind", at: Some(k) },
        format!(
            "row {i} stores an entry at column {j}: matrix is not {} triangular, so the \
             dependence relation of the sweep is cyclic and no wavefront order exists",
            triangle.name()
        ),
    )
}

/// Longest-path level sets of `W`'s relation over a well-shaped
/// pattern. Rows are visited in dependence order. `depth[i]` is row
/// `i`'s level + 1 once it is visited. Before, it is 0, or under
/// Gauss-Seidel the greatest depth of the visited rows whose own
/// entries make them precede `i` (pushed, since `i` cannot see those
/// entries from its own row). A row's depth is one past the greatest of
/// that and of the depths of the rows its own entries make it follow,
/// already final as they were visited earlier. A wrong-side entry is
/// `BA41`.
fn levels<W: Fixed>(nrows: usize, rowptr: &[usize], colind: &[usize], sink: &mut impl Sink) -> LevelSchedule {
    let relation = W::RELATION;
    let mut depth = vec![0usize; nrows];
    let mut num_levels = 0;
    for step in 0..nrows {
        let i = if relation.descending() { nrows - 1 - step } else { step };
        let (s, e) = (rowptr[i], rowptr[i + 1]);
        let mut d = depth[i];
        for (k, &j) in colind[s..e].iter().enumerate() {
            sink.check(!relation.wrong_side(i, j), || wrong_side_diag(relation, i, j, s + k));
            // An unvisited row reads 0, except a Gauss-Seidel row's
            // pushed floor, which only that row's own visit may read.
            d = d.max(if relation.after(i, j) { 0 } else { depth[j] });
        }
        d += 1;
        depth[i] = d;
        num_levels = num_levels.max(d);
        if matches!(relation, Relation::GaussSeidel) {
            for &j in &colind[s..e] {
                let pushed = depth[j];
                depth[j] = if relation.after(i, j) { pushed.max(d) } else { pushed };
            }
        }
    }

    // Bucket rows level-major (stable: ascending row order within each
    // level, so the parallel kernels' write-back order is deterministic).
    let mut level_ptr = vec![0usize; num_levels + 1];
    for &d in &depth {
        level_ptr[d] += 1;
    }
    for l in 0..num_levels {
        level_ptr[l + 1] += level_ptr[l];
    }
    let mut next = level_ptr.clone();
    let mut rows = vec![0usize; nrows];
    for (i, &d) in depth.iter().enumerate() {
        rows[next[d - 1]] = i;
        next[d - 1] += 1;
    }
    LevelSchedule { nrows, rows, level_ptr }
}

/// The one DO-ACROSS certifier: the schedule — `cached` (say, rebuilt
/// from a plan cache with [`LevelSchedule::from_raw_unchecked`]) or the
/// longest-path levels of `relation` — checked once by the independent
/// verifier, and a [`WavefrontCert`] binding the relation, the square
/// operand — its index arrays and `digest`, their [`index_digest`] (the
/// operand's memoised `index_digest()`) — and that schedule. A cached
/// schedule skips the level computation, never the verification, so a
/// stale or forged one can never arm a parallel sweep. A malformed
/// pattern, a cyclic relation or a rejected schedule returns the
/// diagnostics instead.
pub fn certify_wavefront(
    nrows: usize,
    rowptr: &[usize],
    colind: &[usize],
    digest: u64,
    relation: Relation,
    cached: Option<LevelSchedule>,
) -> Result<(LevelSchedule, WavefrontCert), Vec<Diagnostic>> {
    match relation {
        Relation::Solve(Triangle::Lower) => certify::<LowerSolve>(nrows, rowptr, colind, digest, cached),
        Relation::Solve(Triangle::Upper) => certify::<UpperSolve>(nrows, rowptr, colind, digest, cached),
        Relation::GaussSeidel => certify::<GaussSeidelSweep>(nrows, rowptr, colind, digest, cached),
    }
}

fn certify<W: Fixed>(
    nrows: usize,
    rowptr: &[usize],
    colind: &[usize],
    digest: u64,
    cached: Option<LevelSchedule>,
) -> Result<(LevelSchedule, WavefrontCert), Vec<Diagnostic>> {
    diagnosed!(shape, nrows, rowptr, colind)?;
    let sched = match cached {
        Some(sched) => sched,
        None => diagnosed!(levels::<W>, nrows, rowptr, colind)?,
    };
    // Defense in depth: a computed schedule passes the same independent
    // check as a cached one before it is certified.
    diagnosed!(verify::<W>, nrows, rowptr, colind, &sched)?;
    let cert = WavefrontCert {
        relation: W::RELATION,
        operand: OperandBinding::new(nrows, nrows, [rowptr, colind], digest),
        schedule_hash: schedule_hash(&sched),
        levels: sched.num_levels(),
        max_width: sched.max_level_width(),
    };
    Ok((sched, cert))
}

/// The cold analysis of a triangular solve, as a report:
/// [`certify_wavefront`] for [`Relation::Solve`] with no cached
/// schedule, digesting the arrays itself. Takes the raw CSR index
/// structure rather than a format type so the pass stays below
/// `bernoulli-formats` in the crate DAG; callers pass `csr.rowptr()` /
/// `csr.colind()` (values are irrelevant — only the pattern carries
/// dependences; an explicitly stored zero is treated as a dependence,
/// which is conservative and always safe).
pub fn analyze_wavefront(
    nrows: usize,
    rowptr: &[usize],
    colind: &[usize],
    triangle: Triangle,
) -> WavefrontReport {
    let digest = index_digest(&[rowptr, colind]);
    match certify_wavefront(nrows, rowptr, colind, digest, Relation::Solve(triangle), None) {
        Ok((sched, cert)) => WavefrontReport {
            schedule: Some(sched),
            certificate: Some(cert),
            diagnostics: Vec::new(),
        },
        Err(diagnostics) => WavefrontReport { schedule: None, certificate: None, diagnostics },
    }
}

/// Independently re-check a level schedule against a triangular solve's
/// dependence relation — the `plan_verify` analogue for wavefront
/// schedules. It recomputes nothing, it only checks the claimed
/// schedule, so it and the level computation cross-validate.
///
/// Emits:
/// * `BA21`/`BA22` — malformed pattern (shared with the sanitizer);
/// * `BA41` — stored entry on the wrong side of the diagonal (the
///   dependence relation is cyclic; no schedule can be valid);
/// * `BA42` — a row is scheduled at or before a level that must
///   precede it (dependence points to a *later* level);
/// * `BA43` — schedule fails to list every row exactly once, lists an
///   out-of-range row, or has malformed level boundaries;
/// * `BA44` — two rows in the *same* level are connected by a
///   dependence, so the wave would race on the written vector.
pub fn verify_level_schedule(
    nrows: usize,
    rowptr: &[usize],
    colind: &[usize],
    triangle: Triangle,
    sched: &LevelSchedule,
) -> Vec<Diagnostic> {
    let verdict = diagnosed!(shape, nrows, rowptr, colind).and_then(|()| match triangle {
        Triangle::Lower => diagnosed!(verify::<LowerSolve>, nrows, rowptr, colind, sched),
        Triangle::Upper => diagnosed!(verify::<UpperSolve>, nrows, rowptr, colind, sched),
    });
    verdict.err().unwrap_or_default()
}

/// The verifier proper, over a well-shaped pattern and `W`'s relation.
fn verify<W: Fixed>(nrows: usize, rowptr: &[usize], colind: &[usize], sched: &LevelSchedule, sink: &mut impl Sink) {
    let relation = W::RELATION;
    let coverage = |span, msg: String| Diagnostic::error(codes::WAVE_BAD_COVERAGE, span, msg);
    let rows_at = |at| Span::Component { name: "rows", at };
    // Schedule structure: level_ptr must delimit rows, rows must be a
    // permutation of 0..nrows.
    if !sink.check(sched.nrows == nrows, || {
        coverage(Span::Whole, format!("schedule covers {} rows but operand has {nrows}", sched.nrows))
    }) {
        return;
    }
    let lp = &sched.level_ptr;
    let monotone =
        lp.first() == Some(&0) && lp.last() == Some(&sched.rows.len()) && lp.windows(2).all(|w| w[0] <= w[1]);
    if !sink.check(monotone, || {
        let msg = "level boundaries are not a monotone cover of the scheduled rows".to_string();
        coverage(Span::Component { name: "level_ptr", at: None }, msg)
    }) {
        return;
    }
    if !sink.check(sched.rows.len() == nrows, || {
        coverage(rows_at(None), format!("schedule lists {} rows but operand has {nrows}", sched.rows.len()))
    }) {
        return;
    }
    // Level of each row; doubles as the duplicate detector. `nrows`
    // distinct rows below `nrows` are all of them, so none is missing.
    let mut level_of = vec![usize::MAX; nrows];
    for l in 0..sched.num_levels() {
        for &i in sched.level(l) {
            let listed = sink.check(i < nrows, || {
                coverage(rows_at(Some(i)), format!("scheduled row {i} out of bounds for {nrows} rows"))
            }) && sink.check(level_of[i] == usize::MAX, || {
                coverage(rows_at(Some(i)), format!("row {i} scheduled more than once"))
            });
            if !listed {
                return;
            }
            level_of[i] = l;
        }
    }

    // Every dependence must point to a strictly earlier level.
    for (i, (w, &li)) in rowptr.windows(2).zip(&level_of).enumerate() {
        let s = w[0];
        for (k, &j) in colind[s..w[1]].iter().enumerate() {
            let lj = level_of[j];
            sink.check(!relation.wrong_side(i, j), || wrong_side_diag(relation, i, j, s + k));
            // The entry's dependence: row `dep` must run at a level
            // before row `row`'s.
            let (dep, row, at_dep, at_row) = if relation.after(i, j) { (i, j, li, lj) } else { (j, i, lj, li) };
            let carried = relation.before(i, j) || relation.after(i, j);
            sink.check(!carried || at_dep < at_row, || {
                if at_dep == at_row {
                    Diagnostic::error(
                        codes::WAVE_LEVEL_OVERLAP,
                        rows_at(Some(row)),
                        format!(
                            "rows {row} and {dep} share level {at_row} but row {row} depends on \
                             row {dep}: the wave would read {dep}'s write mid-flight"
                        ),
                    )
                } else {
                    Diagnostic::error(
                        codes::WAVE_NON_TOPOLOGICAL,
                        rows_at(Some(row)),
                        format!(
                            "row {row} (level {at_row}) depends on row {dep} scheduled later \
                             (level {at_dep}): the schedule is not a topological order"
                        ),
                    )
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower-triangular chain: row i depends on row i-1.
    fn chain(n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut rowptr = vec![0];
        let mut colind = Vec::new();
        for i in 0..n {
            if i > 0 {
                colind.push(i - 1);
            }
            colind.push(i);
            rowptr.push(colind.len());
        }
        (rowptr, colind)
    }

    /// Block-diagonal-ish pattern: rows only depend on the diagonal —
    /// everything lands in level 0.
    fn diagonal(n: usize) -> (Vec<usize>, Vec<usize>) {
        let rowptr = (0..=n).collect();
        let colind = (0..n).collect();
        (rowptr, colind)
    }

    const LOWER: Relation = Relation::Solve(Triangle::Lower);

    /// [`certify_wavefront`] with the pattern's own digest.
    fn certify(
        n: usize,
        rp: &[usize],
        ci: &[usize],
        relation: Relation,
        cached: Option<LevelSchedule>,
    ) -> Result<(LevelSchedule, WavefrontCert), Vec<Diagnostic>> {
        certify_wavefront(n, rp, ci, index_digest(&[rp, ci]), relation, cached)
    }

    /// The binding a CSR operand over these arrays presents.
    fn op(n: usize, rp: &[usize], ci: &[usize]) -> OperandBinding {
        OperandBinding::new(n, n, [rp, ci], index_digest(&[rp, ci]))
    }

    #[test]
    fn chain_is_serial_and_certified() {
        let (rp, ci) = chain(6);
        let rep = analyze_wavefront(6, &rp, &ci, Triangle::Lower);
        assert!(rep.is_parallel_safe());
        let s = rep.schedule.unwrap();
        assert_eq!(s.num_levels(), 6);
        assert_eq!(s.max_level_width(), 1);
        assert!((s.mean_level_width() - 1.0).abs() < 1e-15);
        for l in 0..6 {
            assert_eq!(s.level(l), &[l]);
        }
    }

    #[test]
    fn diagonal_is_one_wide_level() {
        let (rp, ci) = diagonal(5);
        let rep = analyze_wavefront(5, &rp, &ci, Triangle::Lower);
        let s = rep.schedule.unwrap();
        assert_eq!(s.num_levels(), 1);
        assert_eq!(s.level(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.max_level_width(), 5);
    }

    #[test]
    fn upper_chain_levels_run_backward() {
        // Upper chain: row i depends on i+1.
        let n = 4;
        let mut rowptr = vec![0];
        let mut colind = Vec::new();
        for i in 0..n {
            colind.push(i);
            if i + 1 < n {
                colind.push(i + 1);
            }
            rowptr.push(colind.len());
        }
        let rep = analyze_wavefront(n, &rowptr, &colind, Triangle::Upper);
        let s = rep.schedule.unwrap();
        assert_eq!(s.num_levels(), n);
        assert_eq!(s.level(0), &[n - 1]);
        assert_eq!(s.level(n - 1), &[0]);
    }

    #[test]
    fn non_triangular_is_refused_with_ba41() {
        // Entry (0, 2) is above the diagonal of a claimed-lower matrix.
        let rowptr = vec![0, 2, 3, 4];
        let colind = vec![0, 2, 1, 2];
        let rep = analyze_wavefront(3, &rowptr, &colind, Triangle::Lower);
        assert!(!rep.is_parallel_safe());
        assert!(rep.schedule.is_none());
        assert!(rep.diagnostics.iter().any(|d| d.code == codes::WAVE_NOT_TRIANGULAR));
    }

    #[test]
    fn malformed_pattern_reuses_sanitizer_codes() {
        let rep = analyze_wavefront(3, &[0, 1], &[0], Triangle::Lower);
        assert!(rep.diagnostics.iter().any(|d| d.code == codes::FMT_BAD_PTR));
        let rep = analyze_wavefront(2, &[0, 1, 2], &[0, 7], Triangle::Lower);
        assert!(rep.diagnostics.iter().any(|d| d.code == codes::FMT_INDEX_OOB));
        // The Gauss-Seidel relation is shape-checked before it is read.
        let gs = certify(2, &[0, 1, 2], &[0, 7], Relation::GaussSeidel, None);
        assert!(gs.unwrap_err().iter().any(|d| d.code == codes::FMT_INDEX_OOB));
    }

    #[test]
    fn verifier_accepts_computed_schedule() {
        let (rp, ci) = chain(8);
        let rep = analyze_wavefront(8, &rp, &ci, Triangle::Lower);
        let s = rep.schedule.unwrap();
        assert!(verify_level_schedule(8, &rp, &ci, Triangle::Lower, &s).is_empty());
    }

    #[test]
    fn verifier_rejects_non_topological_swap() {
        let (rp, ci) = chain(3);
        // Rows 0 and 2 swapped: row 1 now depends on a later level.
        let s = LevelSchedule::from_raw_unchecked(3, vec![2, 1, 0], vec![0, 1, 2, 3]);
        let diags = verify_level_schedule(3, &rp, &ci, Triangle::Lower, &s);
        assert!(diags.iter().any(|d| d.code == codes::WAVE_NON_TOPOLOGICAL), "{diags:?}");
    }

    #[test]
    fn verifier_rejects_same_level_dependence() {
        let (rp, ci) = chain(3);
        // Rows 1 and 2 merged into one wave, but 2 depends on 1.
        let s = LevelSchedule::from_raw_unchecked(3, vec![0, 1, 2], vec![0, 1, 3]);
        let diags = verify_level_schedule(3, &rp, &ci, Triangle::Lower, &s);
        assert!(diags.iter().any(|d| d.code == codes::WAVE_LEVEL_OVERLAP), "{diags:?}");
    }

    #[test]
    fn verifier_rejects_bad_coverage() {
        let (rp, ci) = chain(3);
        for (rows, lp) in [
            (vec![0, 1], vec![0, 1, 2]),          // dropped row
            (vec![0, 1, 1], vec![0, 1, 2, 3]),    // duplicate row
            (vec![0, 1, 9], vec![0, 1, 2, 3]),    // out-of-range row
            (vec![0, 1, 2], vec![0, 2, 1, 3]),    // non-monotone level_ptr
        ] {
            let s = LevelSchedule::from_raw_unchecked(3, rows, lp);
            let diags = verify_level_schedule(3, &rp, &ci, Triangle::Lower, &s);
            assert!(diags.iter().any(|d| d.code == codes::WAVE_BAD_COVERAGE), "{diags:?}");
        }
    }

    #[test]
    fn certificate_is_bound_to_pattern_relation_and_schedule() {
        let (rp, ci) = chain(4);
        let rep = analyze_wavefront(4, &rp, &ci, Triangle::Lower);
        let (s, c) = (rep.schedule.unwrap(), rep.certificate.unwrap());
        assert!(c.covers(&op(4, &rp, &ci), LOWER, &s));
        // Different slices (same contents) are refused — identity, not value.
        let rp2 = rp.clone();
        assert!(!c.covers(&op(4, &rp2, &ci), LOWER, &s));
        // A tampered schedule is refused by the content hash.
        let mut rows = s.rows().to_vec();
        rows.swap(0, 3);
        let forged = LevelSchedule::from_raw_unchecked(4, rows, s.level_ptr().to_vec());
        assert!(!c.covers(&op(4, &rp, &ci), LOWER, &forged));
        // Another relation over the same arrays is refused: a solve's
        // proof never licenses a Gauss-Seidel sweep, nor the reverse.
        assert!(!c.covers(&op(4, &rp, &ci), Relation::Solve(Triangle::Upper), &s));
        assert!(!c.covers(&op(4, &rp, &ci), Relation::GaussSeidel, &s));
        let (gs, gc) = certify(4, &rp, &ci, Relation::GaussSeidel, None).unwrap();
        assert_eq!(gs, s, "a lower chain orders its rows the same way under both relations");
        assert!(gc.covers(&op(4, &rp, &ci), Relation::GaussSeidel, &s) && !gc.covers(&op(4, &rp, &ci), LOWER, &s));
        // Another pattern in the certified buffers is refused by the digest.
        let mut ci = ci;
        ci[1] = 1;
        assert!(!c.covers(&op(4, &rp, &ci), LOWER, &s));
    }

    #[test]
    fn one_row_or_one_level_boundary_hashes_apart() {
        // `covers` re-hashes the schedule on every parallel sweep entry,
        // so the hash alone must tell apart schedules that differ in one
        // row or in one level boundary.
        let s = LevelSchedule::from_raw_unchecked(6, vec![0, 2, 1, 4, 3, 5], vec![0, 2, 4, 5, 6]);
        let h = schedule_hash(&s);
        for rows in [vec![2, 0, 1, 4, 3, 5], vec![0, 2, 1, 4, 3, 6], vec![0, 2, 1, 4, 5, 3]] {
            assert_ne!(h, schedule_hash(&LevelSchedule::from_raw_unchecked(6, rows, s.level_ptr().to_vec())));
        }
        for lp in [vec![0, 1, 4, 5, 6], vec![0, 2, 3, 5, 6], vec![0, 2, 4, 6, 6], vec![0, 2, 4, 5, 6, 6]] {
            assert_ne!(h, schedule_hash(&LevelSchedule::from_raw_unchecked(6, s.rows().to_vec(), lp)));
        }
        assert_ne!(h, schedule_hash(&LevelSchedule::from_raw_unchecked(7, s.rows().to_vec(), s.level_ptr().to_vec())));
        assert_eq!(h, schedule_hash(&s.clone()));
    }

    #[test]
    fn cached_schedules_are_verified_never_trusted() {
        let (rp, ci) = chain(5);
        let rep = analyze_wavefront(5, &rp, &ci, Triangle::Lower);
        let s = rep.schedule.unwrap();
        // A cache round-trip rebuilds the schedule from raw parts; the
        // re-issued certificate must cover operand + schedule exactly
        // like a freshly analyzed one.
        let rebuilt =
            LevelSchedule::from_raw_unchecked(s.nrows(), s.rows().to_vec(), s.level_ptr().to_vec());
        let (replayed, cert) = certify(5, &rp, &ci, LOWER, Some(rebuilt)).unwrap();
        assert_eq!(replayed, s);
        assert!(cert.covers(&op(5, &rp, &ci), LOWER, &s));
        // A stale/corrupt cached schedule is refused with diagnostics,
        // never certified.
        let mut rows = s.rows().to_vec();
        rows.swap(0, 4);
        let forged = LevelSchedule::from_raw_unchecked(5, rows, s.level_ptr().to_vec());
        let diags = certify(5, &rp, &ci, LOWER, Some(forged)).unwrap_err();
        assert!(diags.iter().any(|d| d.code == codes::WAVE_NON_TOPOLOGICAL), "{diags:?}");
        // Schedule for the wrong triangle direction is refused too.
        let upper = Relation::Solve(Triangle::Upper);
        assert!(certify(5, &rp, &ci, upper, Some(s)).is_err());
    }

    #[test]
    fn gauss_seidel_orders_both_hazard_directions() {
        // A = [[d, x, 0], [0, d, 0], [0, y, d]] — entry (0,1) is an
        // anti-dependence for the forward sweep, (2,1) a flow dep: one
        // row per level, where the lower triangle alone allows two.
        let rowptr = vec![0, 2, 3, 5];
        let colind = vec![0, 1, 1, 1, 2];
        let (s, _) = certify(3, &rowptr, &colind, Relation::GaussSeidel, None).unwrap();
        assert_eq!((s.rows(), s.level_ptr()), (&[0, 1, 2][..], &[0, 1, 2, 3][..]));
        // Merging rows 0 and 1 ignores the anti-dependence: BA44.
        let merged = LevelSchedule::from_raw_unchecked(3, vec![0, 1, 2], vec![0, 2, 3]);
        let diags = certify(3, &rowptr, &colind, Relation::GaussSeidel, Some(merged)).unwrap_err();
        assert!(diags.iter().any(|d| d.code == codes::WAVE_LEVEL_OVERLAP), "{diags:?}");
    }

    /// The strictly-lower pattern of `struct(A) ∪ struct(Aᵀ)`, built the
    /// obvious way: a second, independent derivation of the relation.
    fn symmetrized_lower(n: usize, rowptr: &[usize], colind: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut rows = vec![std::collections::BTreeSet::new(); n];
        for i in 0..n {
            for &j in &colind[rowptr[i]..rowptr[i + 1]] {
                if i != j {
                    rows[i.max(j)].insert(i.min(j));
                }
            }
        }
        let mut out = (vec![0], Vec::new());
        for r in rows {
            out.1.extend(r);
            out.0.push(out.1.len());
        }
        out
    }

    #[test]
    fn gauss_seidel_levels_equal_those_of_the_symmetrized_lower_pattern() {
        // Read off A's own arrays, the relation schedules exactly as the
        // lower solve of the symmetrized pattern does, on unsymmetric
        // random patterns with rows in arbitrary order.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for n in [1, 2, 7, 40, 90] {
            let (mut rowptr, mut colind) = (vec![0], Vec::new());
            for i in 0..n {
                for _ in 0..next(5) {
                    colind.push(next(n));
                }
                colind.push(i);
                rowptr.push(colind.len());
            }
            let (gs, cert) = certify(n, &rowptr, &colind, Relation::GaussSeidel, None).unwrap();
            let (sp, si) = symmetrized_lower(n, &rowptr, &colind);
            let solve = analyze_wavefront(n, &sp, &si, Triangle::Lower).schedule.unwrap();
            assert_eq!(gs, solve, "n = {n}");
            assert_eq!((cert.levels(), cert.max_level_width()), (solve.num_levels(), solve.max_level_width()));
        }
    }

    #[test]
    fn empty_matrix_certifies_trivially() {
        let rep = analyze_wavefront(0, &[0], &[], Triangle::Lower);
        assert!(rep.is_parallel_safe());
        let s = rep.schedule.unwrap();
        assert_eq!(s.num_levels(), 0);
        assert_eq!(s.mean_level_width(), 0.0);
    }
}
