//! Figure 4: "Effect of problem conditioning on the relative
//! performance" — the ratio `(k + r_I) / (k + r_B)` of total
//! Indirect-Mixed to Bernoulli-Mixed solve time as a function of the
//! iteration count `k ∈ [5, 100]`, where `r_I` and `r_B` are the two
//! implementations' inspector overheads in units of one executor
//! iteration. The paper plots `P = 8` and `P = 64` and reads off how
//! many iterations it takes the indirect version to come within
//! 10% / 20% of the structured one.

use crate::table2::{ProcRow, Table23};
use crate::workload::{Impl, CG_ITERS};
use crate::Claim;

/// One curve of Figure 4.
pub struct Fig4Curve {
    pub nprocs: usize,
    /// Inspector overhead of Indirect-Mixed (`r_I`).
    pub r_indirect: f64,
    /// Inspector overhead of Bernoulli-Mixed (`r_B`).
    pub r_bernoulli: f64,
    /// `(k, ratio)` samples for `k ∈ [5, 100]`.
    pub points: Vec<(usize, f64)>,
}

impl Fig4Curve {
    pub fn from_overheads(nprocs: usize, r_indirect: f64, r_bernoulli: f64) -> Fig4Curve {
        let points =
            (5..=100).map(|k| (k, (k as f64 + r_indirect) / (k as f64 + r_bernoulli))).collect();
        Fig4Curve { nprocs, r_indirect, r_bernoulli, points }
    }

    /// Smallest iteration count at which the ratio drops within
    /// `margin` of 1 (e.g. `0.10` → within 10%); `None` if never in
    /// the plotted range.
    pub fn iterations_to_within(&self, margin: f64) -> Option<usize> {
        self.points.iter().find(|&&(_, r)| r <= 1.0 + margin).map(|&(k, _)| k)
    }

    /// Closed-form version of [`Fig4Curve::iterations_to_within`]:
    /// solving `(k + r_I)/(k + r_B) = 1 + m` for `k`.
    pub fn analytic_iterations_to_within(&self, margin: f64) -> f64 {
        (self.r_indirect - (1.0 + margin) * self.r_bernoulli) / margin
    }

    /// Render as a gnuplot-able two-column series.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# P={} r_I={:.2} r_B={:.2}\n# k  (k+r_I)/(k+r_B)\n",
            self.nprocs, self.r_indirect, self.r_bernoulli
        );
        for &(k, r) in &self.points {
            s.push_str(&format!("{k:>4} {r:.4}\n"));
        }
        s
    }
}

/// Derive the Figure 4 curves from a Table 2/3 run, with inspector
/// overheads measured by `overhead` (as timed, or as [`traffic`]).
pub fn series(t: &Table23, overhead: impl Fn(&ProcRow, Impl) -> f64) -> Vec<Fig4Curve> {
    let curve = |r| {
        let (r_i, r_b) = (overhead(r, Impl::IndirectMixed), overhead(r, Impl::BernoulliMixed));
        Fig4Curve::from_overheads(r.nprocs, r_i, r_b)
    };
    t.rows.iter().map(curve).collect()
}

/// The overhead as communication volume: inspector bytes per
/// executor-iteration byte. Machine-independent: the single-host
/// simulator's wall-clock compresses communication-bound phases (all
/// processors' compute serialises onto two cores, inflating the executor
/// denominator); bytes are what the paper's Table 3 argument rests on.
pub fn traffic(r: &ProcRow, imp: Impl) -> f64 {
    let per_iteration = r.times[&Impl::BernoulliMixed].executor_bytes as f64 / CG_ITERS as f64;
    r.times[&imp].inspector_bytes as f64 / per_iteration
}

/// Print the curves the paper plots (P = 8 and 64; all of a short
/// sweep) with their 10 % / 20 % crossovers.
pub fn print(curves: &[Fig4Curve]) {
    for c in curves.iter().filter(|c| c.nprocs == 8 || c.nprocs == 64 || curves.len() <= 3) {
        println!("{}", c.render());
        for (margin, gap) in [(0.10, ""), (0.20, "\n")] {
            if let Some(k) = c.iterations_to_within(margin) {
                let pct = 100.0 * margin;
                println!("# within {pct:.0}% of Bernoulli-Mixed after {k} iterations{gap}");
            }
        }
    }
}

/// Figure 4's claims, over the traffic-derived curves: exact byte
/// counts, so the only margin is the paper-vs-twin one at P = 64.
pub fn claims(curves: &[Fig4Curve]) -> Vec<Claim> {
    let crossovers = |m: f64| -> Vec<f64> {
        curves.iter().map(|c| c.iterations_to_within(m).map_or(f64::NAN, |k| k as f64)).collect()
    };
    let (k10, k20) = (crossovers(0.10), crossovers(0.20));
    let closed_form = |(m, ks): (f64, &Vec<f64>)| {
        curves.iter().zip(ks).all(|(c, k)| (k - c.analytic_iterations_to_within(m)).abs() <= 1.0)
    };
    let rising = |ks: &[f64]| ks.windows(2).all(|w| w[0] <= w[1]) && ks.first() < ks.last();
    let ps: Vec<usize> = curves.iter().map(|c| c.nprocs).collect();
    let mut claims = vec![
        Claim::new(
            "F4.closed-form",
            [(0.10, &k10), (0.20, &k20)].into_iter().all(closed_form),
            "scanned crossovers within 1 of (r_I - (1+m) r_B) / m".to_string(),
        ),
        Claim::new(
            "F4.rising-with-p",
            rising(&k10) && rising(&k20),
            format!("within 10% after {k10:?}, within 20% after {k20:?} iterations at P = {ps:?}"),
        ),
    ];
    if let Some(p64) = ps.iter().position(|&p| p == 64) {
        // The paper: within 10 % after 77 iterations, within 20 % after 39.
        let off = f64::max((k10[p64] - 77.0).abs() / 77.0, (k20[p64] - 39.0).abs() / 39.0);
        let what =
            format!("{} / {} against the paper's 77 / 39: worst relative gap", k10[p64], k20[p64]);
        claims.push(Claim::at_most("F4.crossover-p64", off, 0.15, &what));
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_decreases_toward_one() {
        let c = Fig4Curve::from_overheads(8, 20.0, 0.5);
        assert_eq!(c.points.len(), 96);
        assert!(c.points[0].1 > c.points[95].1);
        assert!(c.points[95].1 > 1.0);
        // Monotone decreasing.
        assert!(c.points.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn traffic_claims_hold_at_small_scale() {
        let claims = claims(&series(crate::table2::tests::small_run(), traffic));
        let ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
        assert_eq!(ids, ["F4.closed-form", "F4.rising-with-p"]);
        for c in &claims {
            assert!(c.holds, "{}: {}", c.id, c.seen);
        }
    }

    #[test]
    fn render_emits_series() {
        let c = Fig4Curve::from_overheads(8, 5.0, 1.0);
        let s = c.render();
        assert!(s.contains("P=8"));
        assert!(s.lines().count() > 90);
    }
}
