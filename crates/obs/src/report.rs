//! The JSON report: one stable schema covering every telemetry stream.
//!
//! A [`Report`] is an [`crate::Obs`] snapshot. Its JSON form is a
//! contract, pinned key by key by the golden test in
//! `tests/observability.rs`, so profiles stay diffable across versions.
//! Bump [`SCHEMA`] whenever a key is renamed, retyped or removed; purely
//! additive keys keep the identifier (consumers ignore what they don't
//! know).
//!
//! Since the semiring generalization, `strategies[*].algebra` and
//! `kernels[*].algebra` record which algebra the decision/kernel ran
//! under (`"f64_plus"` is the classical (+,×) on f64 and the value
//! rendered when a kernel never declared one); non-classical kernels
//! additionally carry the algebra in the kernel name itself
//! (`"spmv_csr.min_plus"`).

use crate::events::{
    KernelStat, PlanEvent, SolverTrace, SpanStat, StrategyEvent, TrafficEvent, TrafficSample,
};
use crate::json::{array, Obj};
use std::collections::BTreeMap;

/// The schema identifier embedded in every report.
pub const SCHEMA: &str = "bernoulli.profile/v2";

/// Snapshot of everything an [`crate::Obs`] handle recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub counters: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, SpanStat>,
    pub plans: Vec<PlanEvent>,
    pub strategies: Vec<StrategyEvent>,
    pub kernels: BTreeMap<String, KernelStat>,
    pub traffic: Vec<TrafficEvent>,
    pub solvers: Vec<SolverTrace>,
}

fn traffic_sample_json(s: &TrafficSample) -> String {
    Obj::new()
        .u64("msgs_sent", s.msgs_sent)
        .u64("bytes_sent", s.bytes_sent)
        .u64("barriers", s.barriers)
        .u64("allreduces", s.allreduces)
        .u64("alltoalls", s.alltoalls)
        .finish()
}

impl Report {
    /// The empty (but schema-valid) report.
    pub fn empty() -> Report {
        Report::default()
    }

    /// Serialise to the stable JSON schema. Key order is deterministic:
    /// maps are sorted by name, event lists keep recording order.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.u64(k, *v))
            .finish();
        let spans = array(self.spans.iter().map(|(name, s)| {
            Obj::new()
                .str("name", name)
                .u64("calls", s.calls)
                .u64("total_ns", s.total_ns)
                .finish()
        }));
        let plans = array(self.plans.iter().map(|p| {
            Obj::new()
                .str("op", &p.op)
                .str("shape", &p.shape)
                .f64("est_cost", p.est_cost)
                .usize("candidates", p.candidates)
                .raw(
                    "runners_up",
                    array(p.runners_up.iter().map(|(shape, cost)| {
                        Obj::new().str("shape", shape).f64("est_cost", *cost).finish()
                    })),
                )
                .str("explain", &p.explain)
                .finish()
        }));
        let strategies = array(self.strategies.iter().map(|s| {
            Obj::new()
                .str("op", s.op)
                .str("strategy", s.strategy)
                .str("algebra", s.algebra)
                .bool("specializable", s.specializable)
                .u64("work", s.work)
                .u64("threshold", s.threshold)
                .u64("threads", s.threads)
                .bool("race_checked", s.race_checked)
                .bool("race_safe", s.race_safe)
                .str("tier", s.tier)
                .str("downgrade", s.downgrade)
                .u64("levels", s.levels)
                .u64("max_level_width", s.max_level_width)
                .f64("mean_level_width", s.mean_level_width)
                .finish()
        }));
        let kernels = array(self.kernels.iter().map(|(name, k)| {
            Obj::new()
                .str("kernel", name)
                .str("algebra", if k.algebra.is_empty() { "f64_plus" } else { k.algebra })
                .u64("calls", k.calls)
                .u64("nnz", k.nnz)
                .u64("flops", k.flops)
                .u64("bytes", k.bytes)
                .finish()
        }));
        let traffic = array(self.traffic.iter().map(|t| {
            Obj::new()
                .str("phase", &t.phase)
                .usize("nprocs", t.nprocs)
                .u64("elapsed_ns", t.elapsed_ns)
                .raw("per_rank", array(t.per_rank.iter().map(traffic_sample_json)))
                .raw("total", traffic_sample_json(&TrafficSample::total(&t.per_rank)))
                .finish()
        }));
        let solvers = array(self.solvers.iter().map(|s| {
            Obj::new()
                .str("solver", &s.solver)
                .usize("n", s.n)
                .usize("iters", s.iters)
                .bool("converged", s.converged)
                .f64("final_residual", s.final_residual)
                .raw("residuals", array(s.residuals.iter().map(|r| crate::json::number(*r))))
                .finish()
        }));
        Obj::new()
            .str("schema", SCHEMA)
            .raw("counters", counters)
            .raw("spans", spans)
            .raw("plans", plans)
            .raw("strategies", strategies)
            .raw("kernels", kernels)
            .raw("traffic", traffic)
            .raw("solvers", solvers)
            .finish()
    }

    /// Structural validation: the internal-consistency rules every
    /// report must satisfy regardless of what was recorded.
    pub fn validate(&self) -> Result<(), String> {
        for p in &self.plans {
            if !p.est_cost.is_finite() {
                return Err(format!("plan {}: non-finite cost", p.shape));
            }
            if p.candidates == 0 {
                return Err(format!("plan {}: zero candidates", p.shape));
            }
            if p.explain.is_empty() {
                return Err(format!("plan {}: empty EXPLAIN", p.shape));
            }
        }
        for s in &self.strategies {
            if !["Specialized", "Parallel", "Interpreted"].contains(&s.strategy) {
                return Err(format!("strategy {}: unknown strategy {}", s.op, s.strategy));
            }
            if !["reference", "fast"].contains(&s.tier) {
                return Err(format!("strategy {}: unknown tier {}", s.op, s.tier));
            }
            if !s.mean_level_width.is_finite() || s.mean_level_width < 0.0 {
                return Err(format!(
                    "strategy {}: bad mean_level_width {}",
                    s.op, s.mean_level_width
                ));
            }
        }
        for t in &self.traffic {
            if t.per_rank.len() != t.nprocs {
                return Err(format!(
                    "traffic {}: {} rank samples for nprocs {}",
                    t.phase,
                    t.per_rank.len(),
                    t.nprocs
                ));
            }
        }
        for s in &self.solvers {
            if s.residuals.len() != s.iters + 1 {
                return Err(format!(
                    "solver {}: {} residuals for {} iterations (want iters+1)",
                    s.solver,
                    s.residuals.len(),
                    s.iters
                ));
            }
            if s.residuals.iter().any(|r| !r.is_finite()) {
                return Err(format!("solver {}: non-finite residual", s.solver));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::KernelCounters;
    use crate::Obs;

    fn sample_report() -> Report {
        let obs = Obs::enabled();
        obs.counter("engine.compile", 1);
        obs.span_ns("solver.cg", 1000);
        obs.plan(|| PlanEvent {
            op: "val(Y) += (val(A) * val(X))".into(),
            shape: "i:outer(A)>j:inner(A)[X?]".into(),
            est_cost: 42.5,
            candidates: 7,
            runners_up: vec![("(i,j):flat(A)[X?]".into(), 99.0)],
            explain: "plan ...".into(),
        });
        obs.strategy(|| StrategyEvent {
            op: "spmv",
            strategy: "Parallel",
            algebra: "f64_plus",
            specializable: true,
            work: 100_000,
            threshold: 32_768,
            threads: 4,
            race_checked: true,
            race_safe: true,
            tier: "reference",
            downgrade: "",
            levels: 0,
            max_level_width: 0,
            mean_level_width: 0.0,
        });
        obs.kernel("spmv_csr", KernelCounters { nnz: 10, flops: 20, bytes: 300, algebra: "f64_plus" });
        obs.traffic(|| TrafficEvent {
            phase: "cg".into(),
            nprocs: 2,
            elapsed_ns: 5_000,
            per_rank: vec![
                TrafficSample { msgs_sent: 1, bytes_sent: 8, ..Default::default() },
                TrafficSample { msgs_sent: 2, bytes_sent: 16, ..Default::default() },
            ],
        });
        obs.solver(|| SolverTrace {
            solver: "cg".into(),
            n: 64,
            iters: 2,
            converged: true,
            final_residual: 1e-12,
            residuals: vec![1.0, 0.1, 1e-12],
        });
        obs.report()
    }

    #[test]
    fn json_is_deterministic_and_carries_all_sections() {
        let r = sample_report();
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        for key in
            ["\"schema\"", "\"counters\"", "\"spans\"", "\"plans\"", "\"strategies\"",
             "\"kernels\"", "\"traffic\"", "\"solvers\"", "\"per_rank\"",
             "\"total\""]
        {
            assert!(j1.contains(key), "missing {key} in {j1}");
        }
        assert!(j1.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
    }

    #[test]
    fn sample_and_empty_reports_validate() {
        sample_report().validate().unwrap();
        Report::empty().validate().unwrap();
    }

    #[test]
    fn validation_catches_malformed_events() {
        let mut r = Report::empty();
        r.solvers.push(SolverTrace {
            solver: "cg".into(),
            n: 4,
            iters: 3,
            converged: false,
            final_residual: 0.5,
            residuals: vec![1.0, 0.5], // wrong length
        });
        assert!(r.validate().is_err());

        let mut r = Report::empty();
        r.traffic.push(TrafficEvent {
            phase: "x".into(),
            nprocs: 3,
            elapsed_ns: 0,
            per_rank: vec![TrafficSample::default()], // wrong rank count
        });
        assert!(r.validate().is_err());

        let mut r = Report::empty();
        r.strategies.push(StrategyEvent {
            op: "spmv",
            strategy: "Turbo", // unknown
            algebra: "f64_plus",
            specializable: true,
            work: 0,
            threshold: 0,
            threads: 1,
            race_checked: false,
            race_safe: false,
            tier: "reference",
            downgrade: "",
            levels: 0,
            max_level_width: 0,
            mean_level_width: 0.0,
        });
        assert!(r.validate().is_err());

        let mut r = Report::empty();
        r.strategies.push(StrategyEvent {
            op: "spmv",
            strategy: "Specialized",
            algebra: "f64_plus",
            specializable: true,
            work: 0,
            threshold: 0,
            threads: 1,
            race_checked: false,
            race_safe: false,
            tier: "warp", // unknown tier
            downgrade: "",
            levels: 0,
            max_level_width: 0,
            mean_level_width: 0.0,
        });
        assert!(r.validate().is_err());

        let mut r = Report::empty();
        r.strategies.push(StrategyEvent {
            op: "sptrsv",
            strategy: "Parallel",
            algebra: "f64_plus",
            specializable: true,
            work: 0,
            threshold: 0,
            threads: 2,
            race_checked: true,
            race_safe: false,
            tier: "reference",
            downgrade: "",
            levels: 3,
            max_level_width: 2,
            mean_level_width: f64::NAN, // non-finite width statistic
        });
        assert!(r.validate().is_err());
    }
}
