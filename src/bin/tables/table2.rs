//! Tables 2 and 3: parallel CG timing and inspector overhead.
//!
//! Table 2 — "Numerical computation times (10 iterations)": executor
//! seconds for BlockSolve, Bernoulli-Mixed (with % difference to
//! BlockSolve) and Bernoulli (naive), per processor count.
//!
//! Table 3 — "Inspector overhead": inspector time divided by the time
//! of a single executor iteration, adding the Chaos-based
//! `Indirect-Mixed` / `Indirect` implementations.
//!
//! One sweep produces both tables (same solvers, both phases timed).
//! Wall-clock at large `P` reflects thread oversubscription, so what
//! reproduces is the comparison at fixed `P`; the traffic counters give
//! the machine-independent part of the story (EXPERIMENTS.md).

use crate::workload::{build_workload, run_solver, Impl, RunTimes, DOF, POINTS_PER_PROC};
use crate::Claim;
use std::collections::HashMap;

/// The measured results for one processor count.
pub struct ProcRow {
    pub nprocs: usize,
    pub times: HashMap<Impl, RunTimes>,
}

/// Both tables' data.
pub struct Table23 {
    pub rows: Vec<ProcRow>,
}

/// Run the experiment for the given processor counts (the paper used
/// 2, 4, 8, 16, 32, 64).
pub fn run_table2_3(proc_counts: &[usize]) -> Table23 {
    let row = |&nprocs: &usize| {
        let w = build_workload(nprocs);
        ProcRow { nprocs, times: Impl::TABLE3.iter().map(|&i| (i, run_solver(&w, i))).collect() }
    };
    Table23 { rows: proc_counts.iter().map(row).collect() }
}

impl Table23 {
    /// Render the Table 2 block (executor times, 10 iterations).
    pub fn table2(&self) -> String {
        let mut s = format!(
            "{:>4} {:>12} {:>16} {:>7} {:>12} {:>7}\n",
            "P", "BlockSolve", "Bernoulli-Mixed", "diff", "Bernoulli", "diff"
        );
        for r in &self.rows {
            let [bs, bm, bn] = Impl::TABLE2.map(|imp| r.times[&imp].executor_s);
            let diff = |t: f64| 100.0 * (t - bs) / bs;
            s.push_str(&format!(
                "{:>4} {bs:>11.4}s {bm:>15.4}s {:>6.1}% {bn:>11.4}s {:>6.1}%\n",
                r.nprocs,
                diff(bm),
                diff(bn),
            ));
        }
        s
    }

    /// One row per processor count, one `cell` per implementation.
    fn grid(&self, cell: impl Fn(&RunTimes) -> String) -> String {
        let line = |cells: [String; 5]| cells.map(|c| format!("{c:>17}")).concat();
        let mut s = format!("{:>4}{}\n", "P", line(Impl::TABLE3.map(|i| i.paper_name().into())));
        for r in &self.rows {
            s.push_str(&format!(
                "{:>4}{}\n",
                r.nprocs,
                line(Impl::TABLE3.map(|i| cell(&r.times[&i])))
            ));
        }
        s
    }

    /// Render the Table 3 block (inspector overhead ratios).
    pub fn table3(&self) -> String {
        self.grid(|rt| format!("{:.2}", rt.inspector_overhead()))
    }

    /// Render the machine-independent traffic companion: inspector
    /// bytes over all processors, the quantity behind Table 3's shape.
    pub fn traffic(&self) -> String {
        self.grid(|rt| rt.inspector_bytes.to_string())
    }

    /// One implementation's value of `f` at each processor count.
    fn col<T>(&self, imp: Impl, f: impl Fn(&RunTimes) -> T) -> Vec<T> {
        self.rows.iter().map(|r| f(&r.times[&imp])).collect()
    }

    /// Matrix rows at each processor count.
    fn problem_rows(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.nprocs * POINTS_PER_PROC * DOF).collect()
    }

    /// Table 2's claims. Residuals, bytes and copies are exact. The one
    /// clock reading is weak scaling, with a wide margin: the problem
    /// doubles from P = 2 to P = 4, so on any host P = 2 costs at most
    /// what P = 4 does — a P = 2 cell above 1.5× it is ranks waiting on
    /// each other, not work. The third column's gap is printed, not
    /// asserted: what the naive spec costs, on any machine, is a copy of
    /// every local `x` value into its buffer every iteration.
    pub fn claims_t2(&self) -> Vec<Claim> {
        let residual = |imp| self.col(imp, |rt| rt.final_residual);
        let base = residual(Impl::BlockSolve);
        let close = |(r, b): (&f64, &f64)| (r - b).abs() <= 1e-6 * b.abs().max(1.0);
        let agree = Impl::TABLE3.iter().all(|&imp| residual(imp).iter().zip(&base).all(close));
        let bytes = |imp| self.col(imp, |rt| rt.executor_bytes);
        let same_bytes = Impl::TABLE2.iter().all(|&imp| bytes(imp) == bytes(Impl::BlockSolve));
        let copies = |imp| self.col(imp, |rt| rt.local_x_copies);
        let (naive, none) = (copies(Impl::Bernoulli), vec![0; self.rows.len()]);
        let only_naive = copies(Impl::BernoulliMixed) == none && copies(Impl::BlockSolve) == none;
        let seen =
            format!("naive copies {naive:?} local x per iteration (= rows); Mixed, BlockSolve 0");
        let mut claims = vec![
            Claim::new(
                "T2.residuals-agree",
                agree,
                format!("all five implementations: {base:.4?}"),
            ),
            Claim::new(
                "T2.executor-bytes-equal",
                same_bytes,
                format!("{:?} B", bytes(Impl::Bernoulli)),
            ),
            Claim::new("T2.naive-copies", naive == self.problem_rows() && only_naive, seen),
        ];
        let at = |p| self.rows.iter().position(|r| r.nprocs == p);
        if let (Some(p2), Some(p4)) = (at(2), at(4)) {
            let t = Impl::TABLE2.map(|imp| self.col(imp, |rt| rt.executor_s));
            let worst = t.iter().map(|t| t[p2] / t[p4]).fold(0.0, f64::max);
            let what = "worst t(P=2) / t(P=4) of the three executors";
            claims.push(Claim::at_most("T2.weak-scaling", worst, 1.5, what));
        }
        claims
    }

    /// Table 3's claims, all from exact counters. The naive inspector's
    /// penalty is *work*, not communication: it translates every column
    /// its rows reference — each local row's own, plus the boundary —
    /// where the mixed one translates the boundary alone.
    pub fn claims_t3(&self) -> Vec<Claim> {
        let bytes = |imp| self.col(imp, |rt| rt.inspector_bytes);
        let base = bytes(Impl::BernoulliMixed);
        let same_bytes = Impl::TABLE2.iter().all(|&imp| bytes(imp) == base);
        let least = |imp| {
            let ratios = bytes(imp).into_iter().zip(&base).map(|(b, &m)| b as f64 / m as f64);
            ratios.fold(f64::INFINITY, f64::min)
        };
        let used = |imp| self.col(imp, |rt| rt.used_translated);
        let (naive, mixed) = (used(Impl::Bernoulli), used(Impl::BernoulliMixed));
        let every_column: Vec<usize> =
            self.problem_rows().iter().zip(&mixed).map(|(r, b)| r + b).collect();
        let seen =
            format!("|Used| translated: naive {naive:?} (= rows + boundary), Mixed {mixed:?}");
        let what = "least inspector bytes over Mixed's at any P:";
        vec![
            Claim::new("T3.inspector-bytes-equal", same_bytes, format!("{base:?} B")),
            Claim::at_least("T3.indirect-mixed-volume", least(Impl::IndirectMixed), 7.0, what),
            Claim::at_least("T3.indirect-volume", least(Impl::Indirect), 15.0, what),
            Claim::new("T3.naive-work", naive == every_column, seen),
        ]
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One P = 2, 4 sweep shared by this module's tests and Figure 4's.
    pub fn small_run() -> &'static Table23 {
        static RUN: OnceLock<Table23> = OnceLock::new();
        RUN.get_or_init(|| run_table2_3(&[2, 4]))
    }

    #[test]
    fn small_run_renders_every_block() {
        let t = small_run();
        assert_eq!(t.rows.len(), 2);
        assert!(t.table2().contains("BlockSolve"));
        assert!(t.table3().contains("Indirect-Mixed"));
        // Exact counters: every inspector's bytes, as printed.
        let traffic = t.traffic();
        let rows: Vec<Vec<&str>> = traffic.lines().skip(1).map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(
            rows,
            [
                ["2", "2896", "2896", "2896", "21616", "47536"],
                ["4", "8688", "8688", "8688", "69168", "151248"],
            ]
        );
    }

    #[test]
    fn counter_claims_hold_at_small_scale() {
        let t = small_run();
        let claims: Vec<Claim> = t.claims_t2().into_iter().chain(t.claims_t3()).collect();
        assert_eq!(claims.len(), 8);
        // Weak scaling is the one clock among them, and a debug build
        // under a parallel test runner is no place to read a clock:
        // `tests/tables.rs` holds the release binary to it.
        for c in claims.iter().filter(|c| c.id != "T2.weak-scaling") {
            assert!(c.holds, "{}: {}", c.id, c.seen);
        }
    }
}
