//! The op-generic compilation core: one pipeline, five facades.
//!
//! Every engine in this crate — DO-ANY ([`crate::engines`]) and
//! DO-ACROSS ([`crate::trisolve`]) alike — used to hand-roll the same
//! gate chain: work threshold → worker pool → race/wavefront
//! certificate → independent verifier → downgrade. This module owns
//! that chain once. An [`OpSpec`] names the operation, [`Operands`]
//! carries the matrices, and [`compile`] runs the full chain to a
//! [`CompiledOp`] — the one compiled artifact all five public engine
//! types wrap. The warm path is the same call: pass the [`OpHints`] a
//! structure cache stored (decisions, never proofs) and [`compile`]
//! replays them through the identical soundness gates, keyed upstream
//! by `(StructureKey, OpKind)`.
//!
//! Adding an op is one [`OpSpec`] (and [`OpKind`]) variant, one
//! `DoAny` row in [`compile`] and one arm in [`CompiledOp::run`].
//!
//! Three invariants the unification preserves, checked by the golden
//! suites:
//!
//! * **Bitwise facades.** Each facade compiles to exactly the strategy,
//!   tier and kernel dispatch its pre-refactor engine chose, so results
//!   are bit-identical on every tier.
//! * **Verification is never cached.** A replayed fast-tier certificate
//!   transfers only when `covers()` re-accepts the operand; a replayed
//!   level schedule is re-certified by the independent BA4x verifier
//!   before the parallel tier arms. A stale or forged hint can mis-tier
//!   an operand; it can never mis-compute.
//! * **One downgrade vocabulary.** Every reason a parallel-eligible op
//!   fell back to serial is a [`Reason`] variant — a closed set the
//!   compiler checks — recorded through the one private
//!   `record_decision` emitter; `scripts/ci.sh` confines the gate-chain
//!   logic to this file.

use crate::ast::{programs, LoopNest};
use crate::compile::{CompiledKernel, Compiler};
use bernoulli_analysis::wavefront::{certify_wavefront, LevelSchedule, Relation, Triangle, WavefrontCert};
use bernoulli_formats::kernels::{SplitStep, SweepSplit};
use bernoulli_formats::par_kernels::Wave;
use bernoulli_formats::{
    fast, kernels, par_kernels, Csr, DenseMatrix, ExecCtx, SparseMatrix, Validate,
};
use bernoulli_obs::events::{KernelCounters, StrategyEvent};
use bernoulli_relational::access::{MatMeta, MatrixAccess, VecMeta};
use bernoulli_relational::error::{RelError, RelResult};
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, MAT_B, MAT_C, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_relational::semiring::{AlgebraProps, F64Plus, Semiring};

/// Minimum mean rows per level for the wavefront parallel tier: below
/// this a schedule is mostly serial chain (the worst case is one row
/// per level) and per-wave fork/join overhead cannot be amortized — the
/// pipeline downgrades with reason [`Reason::LevelsTooNarrow`].
pub const MIN_MEAN_LEVEL_WIDTH: f64 = 2.0;

/// The one downgrade-reason vocabulary, shared by every op kind: why a
/// parallel-eligible op fell back to serial. The obs `strategies`
/// stream and the profile JSON record [`Reason::as_str`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// No downgrade: the chosen strategy is the one the gates granted.
    None,
    /// The size gate passed but the effective pool is one worker —
    /// fork/join would be pure overhead.
    SingleWorkerPool,
    /// The DO-ANY race checker refused the nest (BA01/BA02/BA06).
    RacyNest,
    /// The wavefront pass found no usable triangular structure.
    NotTriangular,
    /// The independent BA4x verifier refused the (possibly cached)
    /// level schedule.
    ScheduleRejected,
    /// The schedule verified but its mean level width is below
    /// [`MIN_MEAN_LEVEL_WIDTH`].
    LevelsTooNarrow,
}

impl Reason {
    /// The reason's name as it appears in telemetry
    /// ([`StrategyEvent::downgrade`]; `""` = no downgrade).
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::None => "",
            Reason::SingleWorkerPool => "single_worker_pool",
            Reason::RacyNest => "racy_nest",
            Reason::NotTriangular => "not_triangular",
            Reason::ScheduleRejected => "schedule_rejected",
            Reason::LevelsTooNarrow => "levels_too_narrow",
        }
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a compiled op will execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The plan matched the format's natural traversal: dispatch to the
    /// monomorphised kernel (the "generated code" path).
    Specialized,
    /// The plan matched the natural traversal *and* the operand is
    /// large enough to clear the [`ExecCtx`] work threshold:
    /// dispatch to the shared-memory parallel kernel of
    /// [`bernoulli_formats::par_kernels`]. Below the threshold an
    /// engine compiles to [`Strategy::Specialized`] with the identical
    /// plan, so small operands keep byte-identical serial behaviour.
    Parallel,
    /// General plan interpretation.
    Interpreted,
}

impl Strategy {
    /// The strategy's name as it appears in telemetry
    /// ([`StrategyEvent::strategy`], validated by the report schema).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Specialized => "Specialized",
            Strategy::Parallel => "Parallel",
            Strategy::Interpreted => "Interpreted",
        }
    }
}

/// Which triangular system an SpTRSV op solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TriangularOp {
    /// `L·x = b`, forward substitution (gather). Level-parallelizable.
    Lower { unit_diag: bool },
    /// `U·x = b`, backward substitution (gather). Level-parallelizable.
    Upper { unit_diag: bool },
}

impl TriangularOp {
    fn triangle(self) -> Triangle {
        match self {
            TriangularOp::Lower { .. } => Triangle::Lower,
            TriangularOp::Upper { .. } => Triangle::Upper,
        }
    }

    fn unit_diag(self) -> bool {
        match self {
            TriangularOp::Lower { unit_diag } | TriangularOp::Upper { unit_diag } => unit_diag,
        }
    }

    fn kernel_name(self, parallel: bool) -> &'static str {
        match (self, parallel) {
            (TriangularOp::Lower { .. }, false) => "sptrsv_csr_lower",
            (TriangularOp::Lower { .. }, true) => "par_sptrsv_csr_lower",
            (TriangularOp::Upper { .. }, false) => "sptrsv_csr_upper",
            (TriangularOp::Upper { .. }, true) => "par_sptrsv_csr_upper",
        }
    }
}

/// The operation *kind* — what a structure-keyed plan cache keys its
/// hint tables by (`(StructureKey, OpKind)`), with the scalar algebra
/// folded in so per-algebra race verdicts never cross streams. Unlike
/// [`OpSpec`] it drops instance parameters that do not affect cached
/// decisions (the multivector width `k`, a solve's `unit_diag`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `y += A·x` under the classical algebra.
    Spmv,
    /// `Y += A·X` against a skinny dense multivector.
    SpmvMulti,
    /// `y = y ⊕ (A ⊗ x)` under the named semiring.
    SemiringSpmv(&'static str),
    /// Forward substitution against a lower-triangular CSR factor.
    SptrsvLower,
    /// Backward substitution against an upper-triangular CSR factor.
    SptrsvUpper,
    /// Symmetric Gauss-Seidel sweeps over a square CSR matrix.
    Symgs,
}

impl OpKind {
    /// The op name as recorded in the obs `strategies` stream. The
    /// semiring variant shares the classical op's name (the event's
    /// `algebra` field carries the distinction), matching the
    /// pre-unification engines.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Spmv | OpKind::SemiringSpmv(_) => "spmv",
            OpKind::SpmvMulti => "spmv_multi",
            OpKind::SptrsvLower | OpKind::SptrsvUpper => "sptrsv",
            OpKind::Symgs => "symgs",
        }
    }

    /// Whether this kind's parallel tier is licensed by wavefront level
    /// schedules (the DO-ACROSS ops) rather than the DO-ANY race check.
    pub fn is_wavefront(self) -> bool {
        matches!(self, OpKind::SptrsvLower | OpKind::SptrsvUpper | OpKind::Symgs)
    }

    /// The scalar algebra this kind computes under.
    pub fn algebra(self) -> &'static str {
        match self {
            OpKind::SemiringSpmv(a) => a,
            _ => "f64_plus",
        }
    }

    /// Stable persistence tag for cache files: unambiguous, versioned
    /// with the plan-cache schema. Round-trips through
    /// [`OpKind::from_tag`].
    pub fn tag(self) -> String {
        match self {
            OpKind::Spmv => "spmv".to_string(),
            OpKind::SpmvMulti => "spmv_multi".to_string(),
            OpKind::SemiringSpmv(a) => format!("spmv.{a}"),
            OpKind::SptrsvLower => "sptrsv.lower".to_string(),
            OpKind::SptrsvUpper => "sptrsv.upper".to_string(),
            OpKind::Symgs => "symgs".to_string(),
        }
    }

    /// Parse a persistence tag back to the kind. Unknown tags (a
    /// future algebra, a newer schema's op) return `None` so a loader
    /// can drop the entry instead of failing the whole file.
    pub fn from_tag(tag: &str) -> Option<OpKind> {
        match tag {
            "spmv" => Some(OpKind::Spmv),
            "spmv_multi" => Some(OpKind::SpmvMulti),
            "sptrsv.lower" => Some(OpKind::SptrsvLower),
            "sptrsv.upper" => Some(OpKind::SptrsvUpper),
            "symgs" => Some(OpKind::Symgs),
            other => other.strip_prefix("spmv.").and_then(intern_algebra).map(OpKind::SemiringSpmv),
        }
    }
}

/// Map an algebra name to its `'static` interned form — the inverse of
/// `S::NAME` for every semiring the workspace ships.
fn intern_algebra(name: &str) -> Option<&'static str> {
    ["f64_plus", "min_plus", "first_nonzero"]
        .into_iter()
        .find(|&k| k == name)
}

/// A full operation description: the kind plus its instance parameters.
/// [`compile`] pairs this with [`Operands`]; the `Dispatcher` in
/// `bernoulli-tune` keys submitted requests by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpSpec {
    /// `y += A·x`.
    Spmv,
    /// `Y += A·X`, `X: ncols×k` row-major.
    SpmvMulti { k: usize },
    /// `y = y ⊕ (A ⊗ x)` under the named semiring (must match the
    /// `S` type parameter of [`compile`]).
    SemiringSpmv { algebra: &'static str },
    /// Triangular solve.
    Sptrsv { op: TriangularOp },
    /// Symmetric Gauss-Seidel sweeps.
    Symgs,
}

impl OpSpec {
    /// The cache-key kind this spec belongs to.
    pub fn kind(self) -> OpKind {
        match self {
            OpSpec::Spmv => OpKind::Spmv,
            OpSpec::SpmvMulti { .. } => OpKind::SpmvMulti,
            OpSpec::SemiringSpmv { algebra } => OpKind::SemiringSpmv(algebra),
            OpSpec::Sptrsv { op } => match op {
                TriangularOp::Lower { .. } => OpKind::SptrsvLower,
                TriangularOp::Upper { .. } => OpKind::SptrsvUpper,
            },
            OpSpec::Symgs => OpKind::Symgs,
        }
    }
}

/// The operand bundle an [`OpSpec`] compiles against. Borrowed: the
/// pipeline never copies a matrix.
#[derive(Clone, Copy)]
pub enum Operands<'a> {
    /// One general-format matrix (SpMV family).
    Mat(&'a SparseMatrix),
    /// One square CSR matrix (SpTRSV / SymGS).
    Tri(&'a Csr),
}

impl Operands<'_> {
    fn shape_name(&self) -> &'static str {
        match self {
            Operands::Mat(_) => "Mat",
            Operands::Tri(_) => "Tri",
        }
    }
}

/// The one gate-chain outcome, replacing the old per-family
/// `Decision`/`WaveDecision` pair — everything [`StrategyEvent`]
/// telemetry reports, for both DO-ANY and wavefront ops.
#[derive(Clone, Copy, Debug)]
pub struct GateDecision {
    pub strategy: Strategy,
    /// Whether the DO-ANY race checker ran at all (only once
    /// specialisation and the size gate both pass).
    pub race_checked: bool,
    /// The DO-ANY verdict. Always `false` for wavefront ops: their
    /// parallel tier is licensed by the wavefront certificate, not by
    /// DO-ANY safety.
    pub race_safe: bool,
    /// Why a parallel-eligible plan fell back to serial
    /// ([`Reason::None`] = it didn't).
    pub downgrade: Reason,
    /// Level statistics from the wavefront certificate; zero for
    /// DO-ANY ops, which have no level schedule.
    pub levels: u64,
    pub max_level_width: u64,
    pub mean_level_width: f64,
}

impl GateDecision {
    fn new(strategy: Strategy, race_checked: bool, race_safe: bool) -> GateDecision {
        GateDecision {
            strategy,
            race_checked,
            race_safe,
            downgrade: Reason::None,
            levels: 0,
            max_level_width: 0,
            mean_level_width: 0.0,
        }
    }

    fn serial(race_checked: bool, downgrade: Reason) -> GateDecision {
        GateDecision {
            downgrade,
            ..GateDecision::new(Strategy::Specialized, race_checked, false)
        }
    }

    /// The decision a hint replay records: the cached strategy, no
    /// race-gate re-run, no downgrade.
    fn replayed(strategy: Strategy) -> GateDecision {
        GateDecision::new(strategy, false, false)
    }
}

/// The O(1) gates every parallel verdict passes first — work threshold
/// → worker pool. `Some` is the serial verdict that ends the chain. A
/// plan that clears the size gate *wants* to go parallel, but a pool
/// that can only run one worker at a time (requested threads clamped to
/// the hardware parallelism, unless oversubscription is explicitly
/// allowed) would pay pure fork/join overhead for it.
fn pool_gates(work: usize, ctx: &ExecCtx) -> Option<GateDecision> {
    if !ctx.should_parallelize(work) {
        return Some(GateDecision::serial(false, Reason::None));
    }
    if ctx.effective_workers() <= 1 {
        return Some(GateDecision::serial(false, Reason::SingleWorkerPool));
    }
    None
}

/// The DO-ANY gate chain under an explicit scalar algebra:
/// specialisability → work threshold → worker pool → race certificate
/// (`check_do_any_in`, so a reduction nest over a non-associative-
/// commutative ⊕ (BA06) is provably downgraded to the serial tier
/// instead of run concurrently).
pub fn do_any_decision(
    nest: &LoopNest,
    specializable: bool,
    work: usize,
    exec: &ExecCtx,
    algebra: &AlgebraProps,
) -> GateDecision {
    if !specializable {
        return GateDecision::new(Strategy::Interpreted, false, false);
    }
    if let Some(serial) = pool_gates(work, exec) {
        return serial;
    }
    let safe = bernoulli_analysis::race::check_do_any_in(nest, algebra).is_parallel_safe();
    GateDecision {
        strategy: if safe { Strategy::Parallel } else { Strategy::Specialized },
        downgrade: if safe { Reason::None } else { Reason::RacyNest },
        ..GateDecision::new(Strategy::Specialized, true, safe)
    }
}

/// The wavefront gate chain: size threshold → worker pool → DO-ANY
/// race checker (always refuses a sweep nest — recorded, not trusted)
/// → level schedule of `relation`, verified once by the independent
/// BA4x verifier → width heuristic, into one [`WavePlan`] over `a`'s
/// own arrays. A `cached` schedule (a structure-cache
/// replay) skips the level computation — never the verification, so a
/// stale or forged cache entry downgrades to serial
/// ([`Reason::ScheduleRejected`]) instead of racing.
fn wave_decision(
    a: &Csr,
    relation: Relation,
    ctx: &ExecCtx,
    cached: Option<&LevelSchedule>,
) -> (GateDecision, Option<Box<WavePlan>>) {
    if let Some(serial) = pool_gates(a.nnz(), ctx) {
        return (serial, None);
    }
    // Consult the DO-ANY checker exactly like the dense engines do.
    // It refuses the sweep nest (BA01/BA02) — that refusal is the
    // *reason the wavefront path exists*, so instead of stopping at
    // `racy_nest` we fall through to the dependence analysis, and the
    // recorded event shows `race_checked: true, race_safe: false`
    // alongside the wavefront verdict.
    debug_assert!(!bernoulli_analysis::check_do_any(&programs::sptrsv()).is_parallel_safe());
    let refused = if cached.is_some() { Reason::ScheduleRejected } else { Reason::NotTriangular };
    let Ok((schedule, cert)) =
        certify_wavefront(a.nrows(), a.rowptr(), a.colind(), a.index_digest(), relation, cached.cloned())
    else {
        return (GateDecision::serial(true, refused), None);
    };
    // Wide enough per wave to pay for dispatch, or serial with the
    // level statistics still on record.
    let wide = cert.mean_level_width() >= MIN_MEAN_LEVEL_WIDTH;
    let decision = GateDecision {
        strategy: if wide { Strategy::Parallel } else { Strategy::Specialized },
        race_checked: true,
        race_safe: false,
        downgrade: if wide { Reason::None } else { Reason::LevelsTooNarrow },
        levels: cert.levels() as u64,
        max_level_width: cert.max_level_width() as u64,
        mean_level_width: cert.mean_level_width(),
    };
    (decision, wide.then(|| Box::new(WavePlan { schedule, cert })))
}

/// The one obs `strategies` record emitter: every op kind's
/// compile-time decision flows through here (and bumps the compile
/// counter). Free on a disabled handle; allocation-free always — every
/// string field is `&'static`.
fn record_decision(
    ctx: &ExecCtx,
    kind: OpKind,
    d: &GateDecision,
    specializable: bool,
    work: usize,
    tier: &'static str,
) {
    let obs = ctx.obs();
    obs.counter("engine.compile", 1);
    obs.strategy(|| StrategyEvent {
        op: kind.name(),
        strategy: d.strategy.name(),
        algebra: kind.algebra(),
        specializable,
        work: work as u64,
        threshold: ctx.par_threshold_nnz() as u64,
        threads: ctx.threads_hint() as u64,
        race_checked: d.race_checked,
        race_safe: d.race_safe,
        tier,
        downgrade: d.downgrade.as_str(),
        levels: d.levels,
        max_level_width: d.max_level_width,
        mean_level_width: d.mean_level_width,
    });
}

/// The SpMV counter model: every stored nonzero is one multiply-add;
/// bytes = values + index structure read once (8-byte words each) plus
/// `x` read and `y` read+written once.
pub(crate) fn spmv_counters(m: &MatMeta) -> KernelCounters {
    let nnz = m.nnz as u64;
    KernelCounters {
        nnz,
        flops: 2 * nnz,
        bytes: 8 * (2 * nnz + m.ncols as u64 + 2 * m.nrows as u64),
        algebra: "f64_plus",
    }
}

/// The multivector (sparse × skinny dense) counter model: each stored
/// nonzero does `k` multiply-adds against a dense row.
pub(crate) fn spmv_multi_counters(m: &MatMeta, k: usize) -> KernelCounters {
    let nnz = m.nnz as u64;
    let k = k.max(1) as u64;
    KernelCounters {
        nnz,
        flops: 2 * nnz * k,
        bytes: 8 * (2 * nnz + m.ncols as u64 * k + 2 * m.nrows as u64 * k),
        algebra: "f64_plus",
    }
}

/// Triangular-solve counter model: one multiply-subtract per stored
/// off-diagonal plus one reciprocal multiply per row; values + indices
/// read once, `b` read and `x` written once.
fn sptrsv_counters(a: &Csr) -> KernelCounters {
    let nnz = a.nnz() as u64;
    let n = a.nrows() as u64;
    KernelCounters { nnz, flops: 2 * nnz + n, bytes: 8 * (2 * nnz + 2 * n), algebra: "f64_plus" }
}

/// Checked-mode operand gate: when [`ExecCtx::checked`] is set, run
/// the format-invariant sanitizer over the operand and refuse to
/// compile against a corrupt matrix ([`RelError::Validation`]).
fn check_operand(name: &str, m: &impl Validate, ctx: &ExecCtx) -> RelResult<()> {
    if ctx.is_checked() {
        m.validate_ok()
            .map_err(|e| RelError::Validation(format!("operand {name}: {e}")))?;
    }
    Ok(())
}

fn check_square(a: &Csr, what: &str) -> RelResult<()> {
    if a.nrows() != a.ncols() {
        return Err(RelError::Validation(format!(
            "{what} needs a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    Ok(())
}

/// A non-unit solve reads each row's diagonal where sorted triangular
/// CSR stores it; an operand that does not is refused here, once, from
/// the operand's diagonal index — the row body does not look again.
fn check_diag(a: &Csr, op: TriangularOp) -> RelResult<()> {
    let tri = op.triangle();
    if op.unit_diag() || a.stores_diag(tri) {
        return Ok(());
    }
    let (name, at) = (op.kernel_name(false), if tri == Triangle::Lower { "last" } else { "first" });
    Err(RelError::Validation(format!("{name}: a non-unit solve needs every row's diagonal stored {at}")))
}

const FLAT_SPMV_SHAPE: &str = "(i,j):flat(A)[X?]";
const MULTI_SHAPE: &str = "i:outer(A)>j:inner(A)[B?]>k:inner(B)";

/// The matvec plan shapes that dispatch to a format's hand kernel: its
/// natural hierarchical traversal and the flat enumeration both compute
/// exactly what the kernel computes (A enumerated once, X directly
/// indexed).
fn spmv_hand_shapes(a: &MatMeta) -> &'static [&'static str] {
    use bernoulli_relational::access::Orientation::*;
    match a.orientation {
        RowMajor => &["i:outer(A)>j:inner(A)[X?]", FLAT_SPMV_SHAPE],
        ColMajor => &["j:outer(A)[X?]>i:inner(A)", FLAT_SPMV_SHAPE],
        Flat => &[FLAT_SPMV_SHAPE],
    }
}

/// Algebra-qualified kernel telemetry name: the classical algebra keeps
/// the historical bare names (`spmv_csr`), every other algebra gets its
/// own stream (`spmv_csr.min_plus`) so one name never mixes algebras.
fn algebra_kernel_name(base: &str, algebra: &'static str) -> String {
    if algebra == "f64_plus" {
        base.to_string()
    } else {
        format!("{base}.{algebra}")
    }
}

/// The planning verdicts a structure-keyed plan cache stores per
/// `(StructureKey, OpKind)` and feeds back through [`compile`].
/// Everything here is a cached *decision* — strategy tier, plan shape,
/// fast-tier eligibility, level schedule — never a proof: the hinted
/// path skips the planner search, the race-gate re-derivation and the
/// wavefront schedule *construction*, but checked-mode validation
/// still runs, the fast tier is armed only by a certificate that
/// covers the operand actually handed in, and a replayed schedule must
/// pass the independent BA4x verifier before the parallel tier arms.
#[derive(Clone, Debug)]
pub struct OpHints {
    /// The strategy the cold compile chose for this structure.
    pub strategy: Strategy,
    /// Plan-shape signature ([`CompiledKernel::shape`]) of the cold
    /// plan (empty for the wavefront ops, which never run the planner).
    pub plan_shape: String,
    /// Whether the cold compile certified the fast microkernel tier.
    pub fast_eligible: bool,
    /// In-memory tier only: the certificate from a previous compile of
    /// the *same* matrix instance. Never persisted to disk (it
    /// fingerprints heap addresses); reused only when
    /// [`fast::MatrixCert::covers`] accepts the operand, re-derived
    /// otherwise.
    pub fast_cert: Option<fast::MatrixCert>,
    /// The cached level schedule of a wavefront op (SpTRSV's solve,
    /// SymGS's one schedule for both sweeps); `None` for the DO-ANY
    /// ops and for structures whose cold compile never armed the
    /// wavefront tier. The wavefront ops read nothing else: their
    /// strategy is decided fresh by the certify gate on every replay.
    pub schedule: Option<LevelSchedule>,
}

/// Where a compiled op's plan came from: the planner (cold), a
/// structure cache replay (warm), or nowhere — the wavefront ops plan
/// against the operand's sparsity structure, not a relational query.
enum PlanSource {
    Compiled(CompiledKernel),
    Hinted { shape: String },
    None,
}

impl PlanSource {
    fn shape(&self) -> String {
        match self {
            PlanSource::Compiled(k) => k.shape(),
            PlanSource::Hinted { shape } => shape.clone(),
            PlanSource::None => String::new(),
        }
    }
}

/// One armed DO-ACROSS plan, SpTRSV's and SymGS's alike: the level
/// schedule and the certificate proving it for the op's relation over
/// the operand it binds. Nothing else is kept: the Gauss-Seidel
/// relation is read off the operand, so there is no dependence pattern
/// to hold.
struct WavePlan {
    schedule: LevelSchedule,
    cert: WavefrontCert,
}

/// Per-kind run state (the kinds not listed carry none).
enum Payload {
    None,
    SpmvMulti { k: usize },
    Sptrsv { op: TriangularOp },
}

/// The one compiled artifact every engine facade wraps: the strategy
/// the gate chain granted, the plan (or its cached shape), the
/// certificates that license the fast/parallel tiers, and typed run
/// entry points that dispatch exactly as the pre-refactor engines did.
pub struct CompiledOp {
    kind: OpKind,
    strategy: Strategy,
    ctx: ExecCtx,
    plan: PlanSource,
    downgrade: Reason,
    /// Validation certificate for the fast microkernel tier, computed
    /// once at compile time when [`ExecCtx::fast_kernels`] armed it and
    /// the operand passed the full sanitizer. `None` = reference tier.
    fast_cert: Option<fast::MatrixCert>,
    /// Expected `(input, output)` slice lengths of the run calls.
    io_lens: (usize, usize),
    payload: Payload,
    /// The wavefront ops' plan, when the parallel tier is armed. Boxed:
    /// most ops never carry one.
    wave: Option<Box<WavePlan>>,
}

// ---------------------------------------------------------------------
// Compilation: one entry point, cold or warm, dispatching on spec.
// ---------------------------------------------------------------------

/// One row of the DO-ANY op table: every per-op fact
/// `compile_do_any` lowers from. Nothing here is computed from the
/// planner — building a row is O(1), so the warm path pays for no
/// more than it replays.
struct DoAny<'a> {
    kind: OpKind,
    payload: Payload,
    /// The canned dense loop nest the op lowers from. A function, not
    /// a value: only the cold path builds it.
    nest: fn() -> LoopNest,
    /// Relation metadata for the planner: `A`, then the dense `X` as
    /// `B` for the multivector op (the vector ops bind dense `X`/`Y` of
    /// `A`'s dimensions instead).
    a: MatMeta,
    b: Option<MatMeta>,
    /// Plan shapes that dispatch to a hand kernel on these operands
    /// (empty: no shape does, the op always interprets).
    hand_shapes: &'static [&'static str],
    /// Whether the op has an interpreter tier at all. Off the f64
    /// algebra it does not: every plan runs the format's generic
    /// kernel.
    interpretable: bool,
    /// Work estimate for the size gate.
    work: usize,
    algebra: AlgebraProps,
    /// The operand the fast microkernel tier certifies, for the one op
    /// that has such a tier.
    fast: Option<&'a SparseMatrix>,
    /// Expected `(input, output)` slice lengths of the run call.
    io_lens: (usize, usize),
}

impl DoAny<'_> {
    /// A classical-algebra vector-op row over `a` with no hand kernel
    /// and no fast tier; each arm of [`compile`] overrides what
    /// differs.
    fn new(kind: OpKind, nest: fn() -> LoopNest, a: MatMeta) -> Self {
        DoAny {
            kind,
            payload: Payload::None,
            nest,
            a,
            b: None,
            hand_shapes: &[],
            interpretable: true,
            work: a.nnz,
            algebra: AlgebraProps::f64_plus(),
            fast: None,
            io_lens: (a.ncols, a.nrows),
        }
    }
}

/// Compile an operation: run the planner (where the op has one) and
/// the full gate chain, and record the decision through the one obs
/// emitter. `S` names the scalar algebra for the semiring specs and is
/// ignored (pass `F64Plus`) for the classical ones; a semiring spec
/// whose `algebra` disagrees with `S::NAME` is refused.
///
/// With `hints` — what a structure cache stored from an earlier
/// compile of the same `(structure, kind)` — the compile is warm:
/// decisions replay, proofs never do (see [`OpHints`]). Hints that
/// cannot replay soundly (an `Interpreted` verdict, a specialised one
/// onto another operand family, a wavefront op without its schedules)
/// degenerate to the cold path: foreign or stale hints can mis-tier an
/// op, never mis-compute it.
pub fn compile<S: Semiring>(
    spec: OpSpec,
    operands: Operands<'_>,
    ctx: &ExecCtx,
    hints: Option<&OpHints>,
) -> RelResult<CompiledOp> {
    let kind = spec.kind();
    let row = match (spec, operands) {
        (OpSpec::Spmv, Operands::Mat(a)) => {
            check_operand("A", a, ctx)?;
            let m = a.meta();
            DoAny {
                hand_shapes: spmv_hand_shapes(&m),
                fast: Some(a),
                ..DoAny::new(kind, programs::matvec, m)
            }
        }
        (OpSpec::SpmvMulti { k }, Operands::Mat(a)) => {
            check_operand("A", a, ctx)?;
            let m = a.meta();
            let io_lens = multi_lens(m.ncols, m.nrows, k)?;
            // The natural shape: rows of A, then A's entries, then the
            // dense ncols × k multivector row — CSR dispatches to the
            // blocked kernel. Work estimate: nnz·k multiply-adds.
            DoAny {
                payload: Payload::SpmvMulti { k },
                b: Some(DenseMatrix::meta_of(m.ncols, k)),
                hand_shapes: if matches!(a, SparseMatrix::Csr(_)) { &[MULTI_SHAPE] } else { &[] },
                work: m.nnz.saturating_mul(k.max(1)),
                io_lens,
                ..DoAny::new(kind, programs::matvec_multi, m)
            }
        }
        (OpSpec::SemiringSpmv { algebra }, Operands::Mat(a)) => {
            check_algebra::<S>(algebra)?;
            check_operand("A", a, ctx)?;
            DoAny {
                interpretable: false,
                algebra: S::props(),
                ..DoAny::new(kind, programs::matvec, a.meta())
            }
        }
        (OpSpec::Sptrsv { .. } | OpSpec::Symgs, Operands::Tri(a)) => {
            return compile_wave(spec, a, ctx, hints.and_then(|h| h.schedule.as_ref()));
        }
        (spec, operands) => {
            return Err(RelError::Validation(format!(
                "op {spec:?} cannot compile against {} operands",
                operands.shape_name()
            )))
        }
    };
    compile_do_any(row, ctx, hints)
}

/// A multivector op's `(X, Y)` lengths, refused when `k` overflows them
/// (the run call could never be handed slices that long).
fn multi_lens(ncols: usize, nrows: usize, k: usize) -> RelResult<(usize, usize)> {
    match (ncols.checked_mul(k), nrows.checked_mul(k)) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(RelError::Validation(format!("multivector width {k} overflows a {nrows}x{ncols} operand"))),
    }
}

fn check_algebra<S: Semiring>(algebra: &'static str) -> RelResult<()> {
    if algebra != S::NAME {
        return Err(RelError::Validation(format!(
            "op algebra {:?} does not match the compiled semiring {:?}",
            algebra,
            S::NAME
        )));
    }
    Ok(())
}

/// The DO-ANY half of [`compile`], driven entirely by the op's table
/// row. Cold: plan the nest, decide specialisability from the plan
/// shape, run the gate chain. Warm (replayable hints): skip the nest,
/// the `QueryMeta`, the planner and the race gate; only the O(1) gates
/// re-run against *this* context and operand.
fn compile_do_any(d: DoAny<'_>, ctx: &ExecCtx, hints: Option<&OpHints>) -> RelResult<CompiledOp> {
    // Whether *any* plan can reach a hand kernel on these operands.
    // An `Interpreted` hint needs a real plan to interpret, and a
    // specialised verdict only replays onto the operand family it was
    // derived for (the structure key upstream pins the format tag; the
    // O(1) re-check keeps the seam sound against a confused caller).
    let specializes = |shape_ok: bool| !d.interpretable || shape_ok;
    let hand_kernel = specializes(!d.hand_shapes.is_empty());
    let replay = hints.filter(|h| h.strategy != Strategy::Interpreted && hand_kernel);
    let (decision, specializable, plan) = match replay {
        Some(h) => {
            ctx.obs().counter("engine.compile_warm", 1);
            let plan = PlanSource::Hinted { shape: h.plan_shape.clone() };
            (GateDecision::replayed(regate(h.strategy, d.work, ctx)), true, plan)
        }
        None => {
            let nest = (d.nest)();
            let meta = QueryMeta::new().mat(MAT_A, d.a);
            let meta = match d.b {
                Some(b) => meta.mat(MAT_B, b),
                None => meta
                    .vec(VEC_X, VecMeta::dense(d.a.ncols))
                    .vec(VEC_Y, VecMeta::dense(d.a.nrows)),
            };
            let kernel = Compiler::in_ctx(ctx).compile(&nest, &meta)?;
            let specializable = specializes(d.hand_shapes.contains(&kernel.shape().as_str()));
            let decision = do_any_decision(&nest, specializable, d.work, ctx, &d.algebra);
            (decision, specializable, PlanSource::Compiled(kernel))
        }
    };
    // The fast tier is armed only by explicit opt-in, only for the
    // serial specialized strategy, and only by a certificate that
    // covers the operand *now*: a replayed one when `covers()`
    // re-checks dimensions, addresses and the operand's memoised index
    // digest (O(1) on an instance already hashed), else a fresh run of
    // the full Validate sanitizer — a rejected certificate silently
    // keeps the reference tier (observable via `tier`).
    let fast_ok = ctx.fast()
        && decision.strategy == Strategy::Specialized
        && replay.is_none_or(|h| h.fast_eligible);
    let fast_cert = d.fast.filter(|_| fast_ok).and_then(|a| {
        let cached = replay.and_then(|h| h.fast_cert).filter(|c| c.covers(a));
        cached.or_else(|| fast::MatrixCert::certify(a).ok())
    });
    let tier = if fast_cert.is_some() { "fast" } else { "reference" };
    record_decision(ctx, d.kind, &decision, specializable, d.work, tier);
    Ok(CompiledOp {
        kind: d.kind,
        strategy: decision.strategy,
        ctx: ctx.clone(),
        plan,
        downgrade: decision.downgrade,
        fast_cert,
        io_lens: d.io_lens,
        payload: d.payload,
        wave: None,
    })
}

/// Re-apply the O(1) gates on a replayed verdict: a cached Parallel
/// verdict still needs *this* context's pool and *this* operand's size
/// to pay for fork/join. The expensive race-check verdict is what the
/// cache carries (it depends only on the canonical nest and the
/// algebra, both part of the cache key). Downgrade-only: a replay
/// never upgrades a cached serial verdict.
fn regate(cached: Strategy, work: usize, ctx: &ExecCtx) -> Strategy {
    if cached == Strategy::Parallel && pool_gates(work, ctx).is_some() {
        Strategy::Specialized
    } else {
        cached
    }
}

/// The DO-ACROSS half of [`compile`], one function for both ops: the
/// operand checks, then the wavefront gate chain over the op's relation
/// — SpTRSV's solve, SymGS's Gauss-Seidel sweep — into one [`WavePlan`].
fn compile_wave(spec: OpSpec, a: &Csr, ctx: &ExecCtx, cached: Option<&LevelSchedule>) -> RelResult<CompiledOp> {
    check_operand("A", a, ctx)?;
    let (relation, payload) = match spec {
        OpSpec::Sptrsv { op } => {
            check_square(a, "triangular solve")?;
            check_diag(a, op)?;
            (Relation::Solve(op.triangle()), Payload::Sptrsv { op })
        }
        _ => {
            check_square(a, "Gauss-Seidel")?;
            (Relation::GaussSeidel, Payload::None)
        }
    };
    let (d, wave) = wave_decision(a, relation, ctx, cached);
    record_decision(ctx, spec.kind(), &d, true, a.nnz(), "reference");
    Ok(CompiledOp {
        kind: spec.kind(),
        strategy: d.strategy,
        ctx: ctx.clone(),
        plan: PlanSource::None,
        downgrade: d.downgrade,
        fast_cert: None,
        io_lens: (a.nrows(), a.nrows()),
        payload,
        wave,
    })
}

// ---------------------------------------------------------------------
// The compiled artifact: accessors + typed run entry points.
// ---------------------------------------------------------------------

impl CompiledOp {
    /// The cache-key kind this op compiled as.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Why the parallel tier was not granted ([`Reason::None`] = it
    /// was, or the size gate never asked).
    pub fn downgrade(&self) -> Reason {
        self.downgrade
    }

    pub fn plan_shape(&self) -> String {
        self.plan.shape()
    }

    /// Which kernel tier the run entry points dispatch to: `"fast"`
    /// (certified bounds-check-free microkernels) or `"reference"`
    /// (the safe-indexed library kernels).
    pub fn tier(&self) -> &'static str {
        if self.fast_cert.is_some() {
            "fast"
        } else {
            "reference"
        }
    }

    /// Expected `(input, output)` slice lengths of this op's run call,
    /// derived from the operand at compile time.
    pub fn io_lens(&self) -> (usize, usize) {
        self.io_lens
    }

    /// The in-memory fast-tier certificate, when armed (what a plan
    /// cache refreshes after a warm compile re-bound it to a new
    /// operand instance).
    pub fn fast_cert(&self) -> Option<fast::MatrixCert> {
        self.fast_cert
    }

    /// Export this op's decisions for a structure-keyed plan cache
    /// (what [`compile`] replays when handed back as `hints`).
    pub fn hints(&self) -> OpHints {
        OpHints {
            strategy: self.strategy,
            plan_shape: self.plan.shape(),
            fast_eligible: self.fast_cert.is_some(),
            fast_cert: self.fast_cert,
            schedule: self.schedule().cloned(),
        }
    }

    /// The certified level schedule of a wavefront op — SpTRSV's solve
    /// order, SymGS's forward order (its backward sweep walks it in
    /// reverse) — when the parallel tier is armed.
    pub fn schedule(&self) -> Option<&LevelSchedule> {
        self.wave.as_deref().map(|w| &w.schedule)
    }

    /// Refuse a typed run call on an op of another kind.
    fn check_kind(&self, ok: bool, call: &str) -> RelResult<()> {
        if ok {
            return Ok(());
        }
        Err(RelError::Validation(format!("{call} called on a compiled {} op", self.kind.tag())))
    }

    /// The multivector hand kernels exist for CSR only; the op
    /// specialised because its compile-time operand was CSR.
    fn not_csr(&self) -> RelError {
        RelError::Validation(format!(
            "{} op was specialised for CSR operands, run against another format",
            self.kind.tag()
        ))
    }

    /// Refuse slices whose lengths are not what the compile derived
    /// from the operand — the kernels would `assert!` on them.
    fn check_lens(&self, input: usize, output: usize) -> RelResult<()> {
        if (input, output) == self.io_lens {
            return Ok(());
        }
        Err(RelError::Validation(format!(
            "{} op expects input/output lengths {:?}, got {:?}",
            self.kind.tag(),
            self.io_lens,
            (input, output)
        )))
    }

    /// Run any compiled op through one untyped front door — what a
    /// dispatcher over heterogeneous requests calls. `operands` must be
    /// the bundle the op was compiled against; `rhs` is the input
    /// vector; `out` follows the op's own convention: the multiply
    /// family accumulates into it, the solves overwrite it, SymGS
    /// applies one `ω = 1` SSOR step.
    pub fn run<S: Semiring>(
        &self,
        operands: Operands<'_>,
        rhs: &[f64],
        out: &mut [f64],
    ) -> RelResult<()> {
        match (self.kind, operands) {
            (OpKind::Spmv, Operands::Mat(a)) => self.run_spmv(a, rhs, out),
            (OpKind::SpmvMulti, Operands::Mat(a)) => self.run_spmv_multi(a, rhs, out),
            (OpKind::SemiringSpmv(_), Operands::Mat(a)) => {
                self.run_semiring_spmv::<S>(a, rhs, out)
            }
            (OpKind::Symgs, Operands::Tri(a)) => self.apply_ssor(a, 1.0, rhs, out),
            (kind, Operands::Tri(a)) if kind.is_wavefront() => self.run_sptrsv(a, rhs, out),
            (_, operands) => Err(RelError::Validation(format!(
                "compiled {} op cannot run against {} operands",
                self.kind.tag(),
                operands.shape_name()
            ))),
        }
    }

    /// The context the hand-written kernels pick their tier from:
    /// `Some` arms the parallel drivers, `None` is the serial tier.
    fn par_ctx(&self) -> Option<&ExecCtx> {
        (self.strategy == Strategy::Parallel).then_some(&self.ctx)
    }

    /// The planned kernel behind [`Strategy::Interpreted`].
    fn interpreter(&self) -> &CompiledKernel {
        match &self.plan {
            PlanSource::Compiled(kernel) => kernel,
            _ => unreachable!("only a cold compile grants the interpreter tier"),
        }
    }

    /// `y += A·x`. The matrix must be the one the op was compiled for
    /// (same format and shape; enforced by the shape checks in the
    /// underlying paths).
    pub fn run_spmv(&self, a: &SparseMatrix, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        self.check_kind(self.kind == OpKind::Spmv, "run_spmv")?;
        self.check_lens(x.len(), y.len())?;
        // The cached certificate only covers the exact arrays it was
        // computed over: on a different matrix (or a clone — the arrays
        // moved) the fast kernel's own `covers()`, the one per-run
        // check — O(1), the operand memoises its index digest — leaves
        // `y` untouched for the reference kernel below.
        let ran_fast = self.strategy == Strategy::Specialized
            && self.fast_cert.as_ref().is_some_and(|c| fast::spmv_acc_fast(a, x, y, c));
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let name = match self.strategy {
                Strategy::Specialized if ran_fast => {
                    format!("fast_spmv_{}", a.kind().slug())
                }
                Strategy::Specialized => format!("spmv_{}", a.kind().slug()),
                Strategy::Parallel => format!("par_spmv_{}", a.kind().slug()),
                Strategy::Interpreted => "interp_spmv".to_string(),
            };
            obs.kernel(&name, spmv_counters(&a.meta()));
        }
        match self.strategy {
            Strategy::Interpreted => {
                let mut b = Bindings::new();
                b.bind_mat(MAT_A, a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, y);
                return self.interpreter().run(&mut b);
            }
            Strategy::Specialized if ran_fast => {}
            _ => a.spmv_acc_on::<F64Plus>(x, y, self.par_ctx()),
        }
        Ok(())
    }

    /// `Y += A·X` with `X: ncols×k` and `Y: nrows×k`, both row-major.
    pub fn run_spmv_multi(&self, a: &SparseMatrix, x: &[f64], y: &mut [f64]) -> RelResult<()> {
        let Payload::SpmvMulti { k } = self.payload else {
            return self.check_kind(false, "run_spmv_multi");
        };
        self.check_lens(x.len(), y.len())?;
        let m = a.meta();
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let name = match self.strategy {
                Strategy::Specialized => "spmm_csr_dense",
                Strategy::Parallel => "par_spmm_csr_dense",
                Strategy::Interpreted => "interp_spmv_multi",
            };
            obs.kernel(name, spmv_multi_counters(&m, k));
        }
        match (self.strategy, a) {
            (Strategy::Interpreted, _) => {
                let xm = DenseMatrix::from_row_major(m.ncols, k, x.to_vec());
                let mut binds = Bindings::new();
                binds
                    .bind_mat(MAT_A, a)
                    .bind_mat(MAT_B, &xm)
                    .bind_mat_mut(MAT_C, y, m.nrows, k);
                return self.interpreter().run(&mut binds);
            }
            (Strategy::Specialized, SparseMatrix::Csr(ca)) => kernels::spmm_csr_dense(ca, x, k, y),
            (Strategy::Parallel, SparseMatrix::Csr(ca)) => {
                par_kernels::par_spmm_csr_dense(ca, x, k, y, &self.ctx)
            }
            _ => return Err(self.not_csr()),
        }
        Ok(())
    }

    /// `y = y ⊕ (A ⊗ x)` under `S` (accumulating, like
    /// [`CompiledOp::run_spmv`]).
    pub fn run_semiring_spmv<S: Semiring>(
        &self,
        a: &SparseMatrix,
        x: &[f64],
        y: &mut [f64],
    ) -> RelResult<()> {
        self.check_kind(self.kind == OpKind::SemiringSpmv(S::NAME), "run_semiring_spmv")?;
        self.check_lens(x.len(), y.len())?;
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let base = match self.strategy {
                Strategy::Specialized => format!("spmv_{}", a.kind().slug()),
                Strategy::Parallel => format!("par_spmv_{}", a.kind().slug()),
                Strategy::Interpreted => unreachable!("no interpreter tier off the f64 algebra"),
            };
            let name = algebra_kernel_name(&base, S::NAME);
            obs.kernel(&name, KernelCounters { algebra: S::NAME, ..spmv_counters(&a.meta()) });
        }
        a.spmv_acc_on::<S>(x, y, self.par_ctx());
        Ok(())
    }

    /// Solve the triangular system for `b` into `x`. Bitwise-identical
    /// results on every tier.
    pub fn run_sptrsv(&self, a: &Csr, b: &[f64], x: &mut [f64]) -> RelResult<()> {
        let Payload::Sptrsv { op } = self.payload else {
            return self.check_kind(false, "run_sptrsv");
        };
        self.check_lens(b.len(), x.len())?;
        check_diag(a, op)?;
        let armed = self.armed(a);
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            obs.kernel(op.kernel_name(armed.is_some()), sptrsv_counters(a));
        }
        let (tri, ud) = (op.triangle(), op.unit_diag());
        match armed {
            Some(wave) => par_kernels::par_sptrsv_csr(a, tri, ud, b, x, wave, &self.ctx),
            None => kernels::sptrsv_csr(a, tri, ud, b, x),
        }
        Ok(())
    }

    /// The wave plan, when the parallel tier is armed *for this
    /// operand*: the certificate's binding check, the one the parallel
    /// driver repeats, so neither a clone nor another pattern at
    /// recycled addresses inherits it.
    fn armed(&self, a: &Csr) -> Option<Wave<'_>> {
        let w = self.wave.as_deref()?;
        w.cert.binds(&a.binding()).then_some((&w.schedule, &w.cert))
    }

    /// One weighted Gauss-Seidel sweep, forward for [`Triangle::Lower`]
    /// and backward for [`Triangle::Upper`], on the parallel tier when
    /// [armed](Self::armed) for `a`.
    fn sweep(&self, tri: Triangle, a: &Csr, omega: f64, b: &[f64], x: &mut [f64]) -> RelResult<()> {
        self.check_kind(self.kind == OpKind::Symgs, "a Gauss-Seidel sweep")?;
        self.check_lens(b.len(), x.len())?;
        let armed = self.armed(a);
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let name = match (armed.is_some(), tri) {
                (true, Triangle::Lower) => "par_symgs_forward_csr",
                (true, Triangle::Upper) => "par_symgs_backward_csr",
                (false, Triangle::Lower) => "symgs_forward_csr",
                (false, Triangle::Upper) => "symgs_backward_csr",
            };
            obs.kernel(name, sptrsv_counters(a));
        }
        match armed {
            Some(wave) => par_kernels::par_symgs_csr(a, tri, omega, b, x, wave, &self.ctx),
            None => kernels::symgs_sweep_csr(a, tri, omega, b, x),
        }
        Ok(())
    }

    /// One forward (ascending-row) weighted Gauss-Seidel sweep on `x`
    /// in place. Bitwise-identical on every tier.
    pub fn sweep_forward(&self, a: &Csr, omega: f64, b: &[f64], x: &mut [f64]) -> RelResult<()> {
        self.sweep(Triangle::Lower, a, omega, b, x)
    }

    /// One backward (descending-row) weighted Gauss-Seidel sweep on
    /// `x` in place, along the forward schedule walked in reverse.
    /// Bitwise-identical on every tier.
    pub fn sweep_backward(&self, a: &Csr, omega: f64, b: &[f64], x: &mut [f64]) -> RelResult<()> {
        self.sweep(Triangle::Upper, a, omega, b, x)
    }

    /// Apply the symmetric Gauss-Seidel / SSOR preconditioner:
    /// `z ← M⁻¹·r` with `M ∝ (D + ωL)·D⁻¹·(D + ωU)`, computed as a
    /// forward sweep from `z = 0` followed by a backward sweep (the
    /// constant SSOR scaling `1/(ω(2−ω))` is dropped — preconditioned
    /// CG is invariant under positive scaling of `M`). `ω = 1` is
    /// symmetric Gauss-Seidel. This is the general two-sweep form, over
    /// the rows as the caller stores them and for any ω per call: the
    /// engine holds structure only, so it can serve every matrix of
    /// this pattern. The owner of one matrix does half the work through
    /// [`apply_split`](Self::apply_split).
    pub fn apply_ssor(&self, a: &Csr, omega: f64, r: &[f64], z: &mut [f64]) -> RelResult<()> {
        z.fill(0.0);
        self.sweep_forward(a, omega, r, z)?;
        self.sweep_backward(a, omega, r, z)
    }

    /// [`apply_ssor`](Self::apply_ssor) for a caller that *owns* `a`
    /// and inspected it once into `split` ([`SweepSplit::of`], which
    /// fixes ω): one pass over each strict triangle, serially or — when
    /// armed for `a` — along the same one schedule, which covers a sweep
    /// that reads a subset of the relation it was proved for.
    /// Bitwise-identical on every tier; within rounding of `apply_ssor`,
    /// not equal to it (the split pre-scales by `ω/diag`).
    pub fn apply_split(&self, a: &Csr, split: &SweepSplit, r: &[f64], z: &mut [f64]) -> RelResult<()> {
        let armed = self.split_armed(a, split, &[r.len(), z.len()], "a split SSOR application")?;
        self.split_event("symgs_split", armed.is_some(), split.nnz(), split.nnz(), 48);
        par_kernels::split_ssor(a, split, r, z, armed, &self.ctx);
        Ok(())
    }

    /// `r̂ ← M₁⁻¹·r`, the forward half of
    /// [`apply_split`](Self::apply_split): how Eisenstat's form
    /// ([`SplitStep`]) opens from a residual. Same checks and tiers.
    pub fn apply_split_forward(&self, a: &Csr, split: &SweepSplit, r: &[f64], rhat: &mut [f64]) -> RelResult<()> {
        let armed = self.split_armed(a, split, &[r.len(), rhat.len()], "a split forward sweep")?;
        let lower = split.triangle_nnz(Triangle::Lower);
        self.split_event("symgs_split_forward", armed.is_some(), lower, lower, 24);
        par_kernels::split_forward(a, split, r, rhat, armed, &self.ctx);
        Ok(())
    }

    /// One step of Eisenstat's form of SSOR-preconditioned CG over
    /// `split` ([`SplitStep`]): the direction head, `t = M₂⁻¹·p̂`, `u`,
    /// `w = A·t`, and `⟨p̂, t + u⟩` returned — `Â·p̂` with no product by
    /// `A`, one pass over each strict triangle. The caller owns `a`
    /// and proved the split [exact](SweepSplit::is_exact) for it.
    /// Same checks and tiers as [`apply_split`](Self::apply_split),
    /// bitwise-identical on both.
    pub fn apply_split_operator(&self, a: &Csr, split: &SweepSplit, step: SplitStep<'_>) -> RelResult<f64> {
        let lens = [step.r.len(), step.p.len(), step.t.len(), step.u.len(), step.w.len()];
        let armed = self.split_armed(a, split, &lens, "a split operator step")?;
        // Per row: r̂, d/ω, p̃ and t read, p̃ again; p̃, t, u and w written.
        // The entries are visited once each, but `L̃`'s are multiplied
        // twice: by `u` on the chain and by `t` for `w`.
        let products = split.nnz() + split.triangle_nnz(Triangle::Lower);
        self.split_event("symgs_split_op", armed.is_some(), split.nnz(), products, 72);
        Ok(par_kernels::split_operator(a, split, step, armed, &self.ctx))
    }

    /// Record one proof that an operator is the matrix this engine
    /// sweeps, made by comparing `nnz` entries of each against the
    /// other's (`SymGs`'s split-form proof): a `symgs_split_proof`
    /// kernel event, both operands' three arrays read once.
    pub fn note_split_proof(&self, nnz: usize) {
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let (nnz, n) = (nnz as u64, self.io_lens.0 as u64);
            let counters = KernelCounters { nnz, flops: 0, bytes: 2 * (16 * nnz + 8 * (n + 1)), algebra: "f64_plus" };
            obs.kernel("symgs_split_proof", counters);
        }
    }

    /// The split entries' shared gate: a SymGS op, every vector of the
    /// operand's order, a split built from `a`; then the wave plan when
    /// [armed](Self::armed) for `a`.
    fn split_armed(&self, a: &Csr, split: &SweepSplit, lens: &[usize], call: &str) -> RelResult<Option<Wave<'_>>> {
        self.check_kind(self.kind == OpKind::Symgs, call)?;
        self.check_lens(lens[0], lens[1])?;
        if lens.iter().any(|&l| l != split.nrows()) || !split.is_of(a) {
            return Err(RelError::Validation("the sweep split was not built from this operand".into()));
        }
        Ok(self.armed(a))
    }

    /// One kernel event for passes visiting `nnz` split entries (12 B
    /// each) and `row_bytes` of vectors per row, making `products`
    /// multiply-adds over them and one per row, `par_`-prefixed on the
    /// wave.
    fn split_event(&self, name: &str, armed: bool, nnz: usize, products: usize, row_bytes: u64) {
        let obs = self.ctx.obs();
        if obs.is_enabled() {
            let (nnz, products, n) = (nnz as u64, products as u64, self.io_lens.0 as u64);
            let counters = KernelCounters { nnz, flops: 2 * (products + n), bytes: 12 * nnz + row_bytes * n, algebra: "f64_plus" };
            obs.kernel(&if armed { format!("par_{name}") } else { name.to_string() }, counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::FormatKind;

    fn do_any_f64(nest: &LoopNest, specializable: bool, work: usize, exec: &ExecCtx) -> GateDecision {
        do_any_decision(nest, specializable, work, exec, &AlgebraProps::f64_plus())
    }

    #[test]
    fn parallel_refused_for_racy_nest() {
        // A nest the race checker rejects can never compile to
        // Strategy::Parallel, even when the plan is specialisable and
        // the work clears the threshold. `Y(i) = A(i,j)·X(j)` as a
        // scatter *assignment* races on Y(i) across j-iterations (BA01).
        use bernoulli_relational::scalar::UpdateOp;
        let mut racy = programs::matvec();
        racy.op = UpdateOp::Assign;
        let exec = ExecCtx::with_threads(4).threshold(1).oversubscribe(true);
        let d = do_any_f64(&racy, true, 1 << 20, &exec);
        assert_eq!(d.strategy, Strategy::Specialized);
        assert_eq!(d.downgrade, Reason::RacyNest);
        // Same gates, the genuine reduction nest: Parallel granted.
        let d = do_any_f64(&programs::matvec(), true, 1 << 20, &exec);
        assert_eq!(d.strategy, Strategy::Parallel);
        assert_eq!(d.downgrade, Reason::None);
        // All engine nests carry a certificate.
        for nest in [programs::matvec(), programs::matmat(), programs::matvec_multi()] {
            assert!(bernoulli_analysis::race::check_do_any(&nest).is_parallel_safe());
        }
    }

    #[test]
    fn gate_order_is_size_then_pool_then_race() {
        let nest = programs::matvec();
        // Below the threshold the race gate never runs.
        let d = do_any_f64(&nest, true, 4, &ExecCtx::with_threads(4).threshold(1000));
        assert_eq!((d.strategy, d.race_checked), (Strategy::Specialized, false));
        assert_eq!(d.downgrade, Reason::None);
        // A requested-but-unavailable pool downgrades before the race
        // gate, too (threads_hint > 1, so the size gate passes; without
        // oversubscription the effective pool clamps to the hardware).
        let d = do_any_f64(&nest, true, 1 << 20, &ExecCtx::with_threads(4).threshold(1));
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        if hw <= 1 {
            assert_eq!((d.strategy, d.race_checked), (Strategy::Specialized, false));
            assert_eq!(d.downgrade, Reason::SingleWorkerPool);
        } else {
            assert_eq!((d.strategy, d.race_checked), (Strategy::Parallel, true));
        }
        // Non-specialisable plans interpret without consulting any gate.
        let d = do_any_f64(&nest, false, 1 << 20, &ExecCtx::with_threads(4).threshold(1));
        assert_eq!((d.strategy, d.downgrade), (Strategy::Interpreted, Reason::None));
    }

    #[test]
    fn op_kind_tags_round_trip() {
        let kinds = [
            OpKind::Spmv,
            OpKind::SpmvMulti,
            OpKind::SemiringSpmv("min_plus"),
            OpKind::SptrsvLower,
            OpKind::SptrsvUpper,
            OpKind::Symgs,
        ];
        for kind in kinds {
            assert_eq!(OpKind::from_tag(&kind.tag()), Some(kind), "tag {}", kind.tag());
        }
        assert_eq!(OpKind::from_tag("spmv.warp_shuffle"), None);
        assert_eq!(OpKind::from_tag("conv2d"), None);
        for deleted in ["spmm", "spmv.bool_or_and", "spmm.count_u64", "spmv.max_plus", "sptrsv.lower_transposed"] {
            assert_eq!(OpKind::from_tag(deleted), None, "tag {deleted}");
        }
    }

    #[test]
    fn spec_kind_folds_instance_parameters_away() {
        assert_eq!(OpSpec::SpmvMulti { k: 4 }.kind(), OpSpec::SpmvMulti { k: 9 }.kind());
        let lower = OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } };
        let lower_unit = OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: true } };
        assert_eq!(lower.kind(), lower_unit.kind());
        assert_ne!(
            lower.kind(),
            OpSpec::Sptrsv { op: TriangularOp::Upper { unit_diag: false } }.kind()
        );
    }

    #[test]
    fn mismatched_operand_bundle_is_refused() {
        let t = bernoulli_formats::gen::random_sparse(8, 8, 20, 9);
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
        let err = compile::<F64Plus>(OpSpec::Symgs, Operands::Mat(&a), &ExecCtx::default(), None);
        assert!(matches!(err, Err(RelError::Validation(_))));
        let err = compile::<F64Plus>(
            OpSpec::SemiringSpmv { algebra: "min_plus" },
            Operands::Mat(&a),
            &ExecCtx::default(),
            None,
        )
        .err();
        match err {
            Some(RelError::Validation(ref m)) if m.contains("does not match") => {}
            other => panic!("algebra mismatch must be refused: {:?}", other),
        }
    }
}
