//! Table 1: SpMV MFlops per storage format per matrix.
//!
//! "Performance (in Mflops) of sparse matrix-vector product … for a
//! variety of matrices and storage formats. Boxed numbers indicate the
//! highest performance for a given matrix. It is clear … that there is
//! no single format that is appropriate for all kinds of problems."
//!
//! Kernels are the compiler-generated engines (plan-shape specialised),
//! matching the paper's use of generated code.

use crate::workload::median_times;
use crate::Claim;
use bernoulli::engines::SpmvEngine;
use bernoulli_formats::gen::{table1_suite, Scale};
use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
use std::fmt;

/// The Table 1 format columns, in the paper's order (BS95 is the i-node
/// storage).
pub const TABLE1_FORMATS: [FormatKind; 6] = [
    FormatKind::Diagonal,
    FormatKind::Coordinate,
    FormatKind::Csr,
    FormatKind::Itpack,
    FormatKind::JDiag,
    FormatKind::Inode,
];

/// The full table: per matrix, MFlops per format column.
pub struct Table1 {
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Measure one row: MFlops of `y += A·x` through each format's
/// compiled engine, `reps` products per sample, median of 5 samples
/// interleaved across the formats.
pub fn measure_row(t: &Triplets, reps: usize) -> Vec<f64> {
    let n = t.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    let mats = TABLE1_FORMATS.map(|kind| SparseMatrix::from_triplets(kind, t));
    let engines =
        mats.each_ref().map(|a| SpmvEngine::compile(a).expect("spmv compiles for every format"));
    let secs: [f64; TABLE1_FORMATS.len()] = median_times(5, |k| {
        for _ in 0..reps {
            engines[k].run(&mats[k], &x, &mut y).expect("spmv runs");
        }
    });
    let mflop = 2.0 * t.canonicalize().len() as f64 * reps as f64 / 1e6;
    secs.iter().map(|s| mflop / s).collect()
}

/// Run the whole table at a given scale.
pub fn run_table1(scale: Scale) -> Table1 {
    let reps = if scale == Scale::Small { 3 } else { 10 };
    let suite = table1_suite(scale);
    Table1 { rows: suite.iter().map(|m| (m.name.into(), measure_row(&m.triplets, reps))).collect() }
}

fn best(row: &[f64]) -> f64 {
    row.iter().copied().fold(0.0, f64::max)
}

impl Table1 {
    /// `kind`'s share of the row's best on each of the named matrices.
    fn shares(&self, kind: FormatKind, matrices: &[&str]) -> Vec<f64> {
        let col = TABLE1_FORMATS.iter().position(|&k| k == kind).expect("a Table 1 column");
        let named = self.rows.iter().filter(|(name, _)| matrices.contains(&name.as_str()));
        named.map(|(_, row)| row[col] / best(row)).collect()
    }

    /// The paper's Table-1 claims. All but the shape read clocks, so
    /// each carries a wide margin — a clock cannot rank two formats a
    /// few percent apart, so a format "wins" a row within 15 % of its
    /// best. The two claims that depend on the full-scale matrices
    /// (`memplus`'s row-length skew, enough structure for the formats to
    /// separate) are only made at [`Scale::Full`].
    pub fn claims(&self, scale: Scale) -> Vec<Claim> {
        let all = self.rows.iter().flat_map(|(_, row)| row);
        let measured = all.filter(|mf| mf.is_finite() && **mf > 0.0).count();
        let cells = 8 * TABLE1_FORMATS.len();
        let shape = format!("{measured} of {cells} cells (8 matrices x 6 formats) measured");
        let fem = self.shares(FormatKind::Inode, &["medium", "cfd.1.10"]);
        let mut claims = vec![
            Claim::new("T1.shape", measured == cells, shape),
            Claim::new(
                "T1.bs95-wins-fem",
                fem == [1.0, 1.0],
                format!("BS95 share of row best on medium, cfd.1.10: {fem:.2?}"),
            ),
        ];
        if scale == Scale::Full {
            let wins = |col: &usize| self.rows.iter().any(|(_, row)| row[*col] >= 0.85 * best(row));
            let winners: Vec<&str> = (0..TABLE1_FORMATS.len())
                .filter(wins)
                .map(|col| TABLE1_FORMATS[col].paper_name())
                .collect();
            let what = format!("{winners:?} within 15% of best on some matrix:");
            claims.push(Claim::at_least("T1.no-single-format", winners.len() as f64, 4.0, &what));
            let mut collapse = self.shares(FormatKind::Diagonal, &["memplus"]);
            collapse.extend(self.shares(FormatKind::Itpack, &["memplus"]));
            let what = format!("Diagonal, ITPACK share of memplus best {collapse:.3?}, larger");
            claims.push(Claim::at_most("T1.memplus-collapse", best(&collapse), 0.05, &what));
        }
        claims
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: String =
            TABLE1_FORMATS.iter().map(|k| format!("{:>12}", k.paper_name())).collect();
        writeln!(f, "{:<12}{names}", "Name")?;
        for (name, row) in &self.rows {
            let boxed =
                |mf: f64| if mf == best(row) { format!("[{mf:.1}]") } else { format!("{mf:.1}") };
            let cells: String = row.iter().map(|&mf| format!("{:>12}", boxed(mf))).collect();
            writeln!(f, "{name:<12}{cells}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_measures_positive_mflops() {
        let row = measure_row(&bernoulli_formats::gen::grid2d_5pt(8, 8), 2);
        assert_eq!(row.len(), TABLE1_FORMATS.len());
        assert!(row.iter().all(|mf| *mf > 0.0 && mf.is_finite()));
    }

    #[test]
    fn small_scale_claims_are_evaluated() {
        let t1 = run_table1(Scale::Small);
        let claims = t1.claims(Scale::Small);
        let ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
        assert_eq!(ids, ["T1.shape", "T1.bs95-wins-fem"]);
        // The shape is exact; who wins is a clock reading and a debug
        // build under a parallel test runner is no place to assert it.
        assert!(claims[0].holds, "{}", claims[0].seen);
        assert_eq!(t1.claims(Scale::Full).len(), 4);
    }

    #[test]
    fn display_boxes_best() {
        let t1 = Table1 { rows: vec![("demo".into(), vec![1.0, 2.0])] };
        let s = format!("{t1}");
        assert!(s.contains("[2.0]"));
        assert!(s.contains("demo"));
    }
}
