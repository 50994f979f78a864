//! Structured event types recorded through an [`crate::Obs`] handle.
//!
//! These are deliberately plain-data (strings and integers, no
//! references into producer crates) so that `bernoulli-obs` sits at the
//! very bottom of the crate graph: the planner, engines, kernels, SPMD
//! machine and solvers all convert into these types at their own
//! boundary.

/// Aggregated wall-clock observations of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub calls: u64,
    pub total_ns: u64,
}

/// Plan provenance: what the planner chose and why (EXPLAIN).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanEvent {
    /// The operation being planned (e.g. `val(Y) += (val(A) * val(X))`).
    pub op: String,
    /// Shape signature of the chosen (cheapest) plan.
    pub shape: String,
    /// The cost model's estimate for the chosen plan.
    pub est_cost: f64,
    /// How many feasible candidate plans were weighed.
    pub candidates: usize,
    /// Runner-up shapes with their estimated costs, cheapest first
    /// (bounded by the producer; the full EXPLAIN lists each join).
    pub runners_up: Vec<(String, f64)>,
    /// The full human-readable EXPLAIN text (golden-pinned).
    pub explain: String,
}

/// An engine's execution-strategy decision with the gates that led
/// to it.
///
/// The classifying fields (`op`, `strategy`, `algebra`, `tier`,
/// `downgrade`) are `&'static str`: every producer draws them from a
/// closed vocabulary of interned names (op tags, `Strategy::name()`,
/// `Semiring::NAME`, `Reason::as_str()` of the compilation pipeline),
/// so recording a decision allocates nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyEvent {
    /// Engine kind (`spmv`, `spmv_multi`, `sptrsv`, `symgs`).
    pub op: &'static str,
    /// The decision: `Specialized`, `Parallel` or `Interpreted`.
    pub strategy: &'static str,
    /// The scalar algebra the engine evaluates under (e.g. `f64_plus`,
    /// `min_plus`) — parallel-tier certification is per-algebra.
    pub algebra: &'static str,
    /// Whether the plan matched a hand-kernel traversal.
    pub specializable: bool,
    /// Work estimate (stored nonzeros or flop-equivalent).
    pub work: u64,
    /// The `ExecCtx` parallel-dispatch threshold in force.
    pub threshold: u64,
    /// Resolved worker count.
    pub threads: u64,
    /// Whether the DO-ANY race checker was consulted at all (it only
    /// runs once the size gate passes).
    pub race_checked: bool,
    /// Its verdict when consulted (`false` = downgraded to serial).
    pub race_safe: bool,
    /// Which kernel tier the strategy resolved to: `reference` (the
    /// safe-indexed library kernels) or `fast` (certified
    /// bounds-check-free microkernels).
    pub tier: &'static str,
    /// Why a `Parallel`-eligible plan was downgraded to serial, if it
    /// was (`""` = no downgrade): `single_worker_pool` (the effective
    /// pool cannot run > 1 worker), `racy_nest` (the DO-ANY race
    /// checker refused), or — for wavefront engines —
    /// `not_triangular` (no `WavefrontCert`: the dependence relation
    /// is cyclic), `schedule_rejected` (the independent BA4x verifier
    /// refused the schedule) or `levels_too_narrow` (a valid schedule
    /// with too little parallelism per wave to pay for dispatch).
    pub downgrade: &'static str,
    /// DO-ACROSS wavefront engines only: number of levels in the
    /// computed schedule (0 = not a wavefront decision).
    pub levels: u64,
    /// Widest level of the schedule (rows per wave at the peak).
    pub max_level_width: u64,
    /// Mean rows per level — average exploitable parallelism (0.0 =
    /// not a wavefront decision; 1.0 = serial chain).
    pub mean_level_width: f64,
}

/// One kernel invocation's counters (merged into [`KernelStat`] by
/// kernel name).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Stored nonzeros touched.
    pub nnz: u64,
    /// Scalar operations under the kernel's algebra (⊗⊕ pairs count
    /// as 2 — classical flops for `f64_plus`).
    pub flops: u64,
    /// Bytes moved through the memory hierarchy under the simple
    /// model: values + index structure read + operand vectors
    /// read/written once each (8-byte words).
    pub bytes: u64,
    /// The algebra the kernel ran under (`""` = unspecified, rendered
    /// as the classical `f64_plus`).
    pub algebra: &'static str,
}

/// Aggregated per-kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStat {
    pub calls: u64,
    pub nnz: u64,
    pub flops: u64,
    pub bytes: u64,
    /// Algebra of the merged invocations (first non-empty wins; kernel
    /// names are algebra-qualified upstream, so one name never mixes
    /// algebras).
    pub algebra: &'static str,
}

/// One simulated processor's communication counters for one phase —
/// the plain-data mirror of `bernoulli_spmd::machine::TrafficStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSample {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub barriers: u64,
    pub allreduces: u64,
    pub alltoalls: u64,
}

impl TrafficSample {
    /// Counter-wise sum across ranks.
    pub fn total(samples: &[TrafficSample]) -> TrafficSample {
        let mut out = TrafficSample::default();
        for s in samples {
            out.msgs_sent += s.msgs_sent;
            out.bytes_sent += s.bytes_sent;
            out.barriers += s.barriers;
            out.allreduces += s.allreduces;
            out.alltoalls += s.alltoalls;
        }
        out
    }
}

/// One SPMD phase: wall time plus per-rank traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Phase label (e.g. `cg.inspector`, `cg.executor`).
    pub phase: String,
    pub nprocs: usize,
    pub elapsed_ns: u64,
    /// Indexed by rank.
    pub per_rank: Vec<TrafficSample>,
}

/// A solver run's convergence trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverTrace {
    /// Solver name (`cg`).
    pub solver: String,
    /// Problem size (vector length).
    pub n: usize,
    pub iters: usize,
    pub converged: bool,
    pub final_residual: f64,
    /// ‖r‖₂ per iteration, index 0 = initial residual.
    pub residuals: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_total_sums_counterwise() {
        let a = TrafficSample { msgs_sent: 1, bytes_sent: 8, barriers: 2, allreduces: 3, alltoalls: 0 };
        let b = TrafficSample { msgs_sent: 4, bytes_sent: 16, barriers: 0, allreduces: 1, alltoalls: 5 };
        let t = TrafficSample::total(&[a, b]);
        assert_eq!(t.msgs_sent, 5);
        assert_eq!(t.bytes_sent, 24);
        assert_eq!(t.barriers, 2);
        assert_eq!(t.allreduces, 4);
        assert_eq!(t.alltoalls, 5);
        assert_eq!(TrafficSample::total(&[]), TrafficSample::default());
    }
}
