//! # bernoulli-obs
//!
//! The observability layer: a **zero-cost-when-disabled event sink**
//! that every layer of the stack reports into — plan provenance from
//! the planner (EXPLAIN), strategy decisions from the engines,
//! per-kernel counters from `formats::kernels`/`par_kernels`, per-rank
//! [`TrafficSample`](events::TrafficSample)s and phase timings from the SPMD machine, and
//! residual-history convergence traces from the solvers. The motivation
//! is the paper's own method: its entire argument rests on *measured*
//! cost (Table 1/2 format comparisons, Table 3 inspector communication
//! volume, Fig. 4 per-iteration CG timing), and you cannot shard, cache
//! or tune what you cannot see.
//!
//! Design rules:
//!
//! * **No global state.** An [`Obs`] is an explicit, cheaply cloneable
//!   handle ([`Arc`] inside). Two handles cloned from the same root
//!   share one sink; independent [`Obs::enabled`] calls are fully
//!   isolated. Nothing is process-wide.
//! * **Zero cost when disabled.** [`Obs::disabled`] (the [`Default`])
//!   carries `None` — every recording method is an inlined
//!   early-return, and instrumented code paths never read or alter
//!   numerics, so results are byte-identical with observability on or
//!   off (pinned by `tests/observability.rs`).
//! * **Events aggregate, never stream.** Counters and kernel stats
//!   merge by name; provenance/trace events append in order. A
//!   [`report::Report`] snapshot serialises to the one stable JSON
//!   schema ([`report::SCHEMA`]), pinned by `tests/observability.rs`.

pub mod events;
pub mod json;
pub mod report;

use events::{
    KernelCounters, KernelStat, PlanEvent, SolverTrace, SpanStat, StrategyEvent, TrafficEvent,
};
use report::Report;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The aggregation sink behind an enabled handle.
#[derive(Debug, Default)]
struct Sink {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
    plans: Vec<PlanEvent>,
    strategies: Vec<StrategyEvent>,
    kernels: BTreeMap<String, KernelStat>,
    traffic: Vec<TrafficEvent>,
    solvers: Vec<SolverTrace>,
}

/// The observability handle. Clone freely; clones share the sink.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Sink>>>,
}

impl Obs {
    /// The no-op handle: every recording call returns immediately.
    #[inline]
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// A fresh, isolated, recording handle.
    pub fn enabled() -> Obs {
        Obs { inner: Some(Arc::new(Mutex::new(Sink::default()))) }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_sink(&self, f: impl FnOnce(&mut Sink)) {
        if let Some(sink) = &self.inner {
            // A poisoned sink only loses telemetry, never numerics.
            f(&mut sink.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }

    /// Add `delta` to the named monotonic counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if self.inner.is_none() {
            return;
        }
        self.with_sink(|s| *s.counters.entry(name.to_string()).or_insert(0) += delta);
    }

    /// Start a wall-clock span; elapsed time is recorded when the
    /// returned guard drops. On a disabled handle the guard is inert.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { rec: None },
            Some(sink) => Span {
                rec: Some((sink.clone(), name.to_string(), Instant::now())),
            },
        }
    }

    /// Record one completed span observation directly (used by the
    /// guard, and by tests that need deterministic durations).
    #[inline]
    pub fn span_ns(&self, name: &str, elapsed_ns: u64) {
        if self.inner.is_none() {
            return;
        }
        self.with_sink(|s| {
            let st = s.spans.entry(name.to_string()).or_default();
            st.calls += 1;
            st.total_ns += elapsed_ns;
        });
    }

    /// Record plan provenance (the planner's EXPLAIN output).
    #[inline]
    pub fn plan(&self, ev: impl FnOnce() -> PlanEvent) {
        if self.inner.is_none() {
            return;
        }
        let ev = ev();
        self.with_sink(|s| s.plans.push(ev));
    }

    /// Record an engine strategy decision.
    #[inline]
    pub fn strategy(&self, ev: impl FnOnce() -> StrategyEvent) {
        if self.inner.is_none() {
            return;
        }
        let ev = ev();
        self.with_sink(|s| s.strategies.push(ev));
    }

    /// Merge one kernel invocation's counters under `kernel`'s name.
    #[inline]
    pub fn kernel(&self, kernel: &str, c: KernelCounters) {
        if self.inner.is_none() {
            return;
        }
        self.with_sink(|s| {
            let st = s.kernels.entry(kernel.to_string()).or_default();
            st.calls += 1;
            st.nnz += c.nnz;
            st.flops += c.flops;
            st.bytes += c.bytes;
            if st.algebra.is_empty() {
                st.algebra = c.algebra;
            }
        });
    }

    /// Record one SPMD phase's per-rank communication counters.
    #[inline]
    pub fn traffic(&self, ev: impl FnOnce() -> TrafficEvent) {
        if self.inner.is_none() {
            return;
        }
        let ev = ev();
        self.with_sink(|s| s.traffic.push(ev));
    }

    /// Record a solver convergence trace.
    #[inline]
    pub fn solver(&self, ev: impl FnOnce() -> SolverTrace) {
        if self.inner.is_none() {
            return;
        }
        let ev = ev();
        self.with_sink(|s| s.solvers.push(ev));
    }

    /// Snapshot everything recorded so far into a [`Report`].
    /// Returns the empty (but schema-valid) report on a disabled handle.
    pub fn report(&self) -> Report {
        let mut r = Report::empty();
        self.with_sink(|s| {
            r.counters = s.counters.clone();
            r.spans = s.spans.clone();
            r.plans = s.plans.clone();
            r.strategies = s.strategies.clone();
            r.kernels = s.kernels.clone();
            r.traffic = s.traffic.clone();
            r.solvers = s.solvers.clone();
        });
        r
    }
}

/// RAII span guard from [`Obs::span`].
pub struct Span {
    rec: Option<(Arc<Mutex<Sink>>, String, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, name, start)) = self.rec.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut s = sink.lock().unwrap_or_else(|e| e.into_inner());
            let st = s.spans.entry(name).or_default();
            st.calls += 1;
            st.total_ns += ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("x", 3);
        obs.span_ns("s", 10);
        obs.kernel("k", KernelCounters { nnz: 1, flops: 2, bytes: 3, algebra: "" });
        let r = obs.report();
        assert!(r.counters.is_empty());
        assert!(r.spans.is_empty());
        assert!(r.kernels.is_empty());
    }

    #[test]
    fn disabled_event_closures_never_run() {
        // The whole point of the closure-taking API: event construction
        // (formatting EXPLAIN text, cloning residual vectors) costs
        // nothing when observability is off.
        let obs = Obs::disabled();
        obs.plan(|| panic!("plan closure evaluated on a disabled handle"));
        obs.solver(|| panic!("solver closure evaluated on a disabled handle"));
        obs.strategy(|| panic!("strategy closure evaluated on a disabled handle"));
        obs.traffic(|| panic!("traffic closure evaluated on a disabled handle"));
    }

    #[test]
    fn counters_aggregate_by_name() {
        let obs = Obs::enabled();
        obs.counter("a", 1);
        obs.counter("b", 10);
        obs.counter("a", 2);
        let r = obs.report();
        assert_eq!(r.counters["a"], 3);
        assert_eq!(r.counters["b"], 10);
    }

    #[test]
    fn clones_share_one_sink() {
        let obs = Obs::enabled();
        let obs2 = obs.clone();
        obs.counter("shared", 1);
        obs2.counter("shared", 1);
        assert_eq!(obs.report().counters["shared"], 2);
        // Independent handles are isolated.
        let other = Obs::enabled();
        assert!(other.report().counters.is_empty());
    }

    #[test]
    fn spans_aggregate_calls_and_time() {
        let obs = Obs::enabled();
        obs.span_ns("phase", 100);
        obs.span_ns("phase", 50);
        {
            let _g = obs.span("live");
        }
        let r = obs.report();
        assert_eq!(r.spans["phase"].calls, 2);
        assert_eq!(r.spans["phase"].total_ns, 150);
        assert_eq!(r.spans["live"].calls, 1);
    }

    #[test]
    fn kernel_stats_merge() {
        let obs = Obs::enabled();
        obs.kernel("spmv_csr", KernelCounters { nnz: 10, flops: 20, bytes: 160, algebra: "f64_plus" });
        obs.kernel("spmv_csr", KernelCounters { nnz: 10, flops: 20, bytes: 160, algebra: "f64_plus" });
        let r = obs.report();
        let k = &r.kernels["spmv_csr"];
        assert_eq!((k.calls, k.nnz, k.flops, k.bytes), (2, 20, 40, 320));
        assert_eq!(k.algebra, "f64_plus");
    }

    #[test]
    fn kernel_algebra_first_nonempty_wins() {
        let obs = Obs::enabled();
        obs.kernel("spmv_csr", KernelCounters { nnz: 1, flops: 2, bytes: 3, algebra: "" });
        obs.kernel("spmv_csr", KernelCounters { nnz: 1, flops: 2, bytes: 3, algebra: "min_plus" });
        assert_eq!(obs.report().kernels["spmv_csr"].algebra, "min_plus");
    }

    #[test]
    fn only_an_enabled_handle_records() {
        assert!(Obs::enabled().is_enabled());
        assert!(!Obs::disabled().is_enabled());
        assert!(!Obs::default().is_enabled());
    }
}
