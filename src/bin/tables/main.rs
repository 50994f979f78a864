//! The reproduction harness: prints every table and figure series of
//! the SC'97 evaluation (Tables 1–3, Figure 4) and the design-choice
//! ablations, then one `PASS`/`FAIL` line per shape claim the paper
//! makes about them — EXPERIMENTS.md cites the ids — and exits non-zero
//! if any failed.
//!
//! ```text
//! cargo run --release --bin tables                        # everything
//! cargo run --release --bin tables table2 table3 fig4 ablations
//! cargo run --release --bin tables -- --small             # quick pass
//! ```

mod ablations;
mod fig4;
mod table1;
mod table2;
mod workload;

use bernoulli_formats::gen::Scale;
use std::process::ExitCode;

/// One shape claim of the paper, evaluated on the numbers this run
/// printed. Counts are held exactly; clocks to wide margins.
pub struct Claim {
    pub id: &'static str,
    pub holds: bool,
    /// The measured values the verdict rests on.
    pub seen: String,
}

impl Claim {
    pub fn new(id: &'static str, holds: bool, seen: String) -> Claim {
        Claim { id, holds, seen }
    }

    /// `value`, which is `what`, is at most `bound`.
    pub fn at_most(id: &'static str, value: f64, bound: f64, what: &str) -> Claim {
        Claim::new(id, value <= bound, format!("{what} {value:.2} (<= {bound})"))
    }

    /// `value`, which is `what`, is at least `bound`.
    pub fn at_least(id: &'static str, value: f64, bound: f64, what: &str) -> Claim {
        Claim::new(id, value >= bound, format!("{what} {value:.2} (>= {bound})"))
    }
}

/// Print one line per claim; the run fails if any claim does.
fn report(claims: &[Claim]) -> ExitCode {
    println!("=== Claims ===\n");
    for c in claims {
        println!("{} {:<28} {}", if c.holds { "PASS" } else { "FAIL" }, c.id, c.seen);
    }
    if claims.iter().all(|c| c.holds) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = ["--small", "table1", "table2", "table3", "fig4", "ablations"];
    if let Some(bad) = args.iter().find(|a| !known.contains(&a.as_str())) {
        eprintln!("tables: unknown argument `{bad}` (known: {known:?})");
        return ExitCode::FAILURE;
    }
    let (flags, selected): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    let want = |name: &str| selected.is_empty() || selected.contains(&name);
    let small = flags.contains(&"--small");
    let scale = if small { Scale::Small } else { Scale::Full };
    let proc_counts: &[usize] = if small { &[2, 4, 8] } else { &[2, 4, 8, 16, 32, 64] };
    let mut claims = Vec::new();

    if want("table1") {
        println!("=== Table 1: SpMV MFlops per format per matrix ===");
        println!("(compiler-generated kernels; boxed = best in row)\n");
        let t1 = table1::run_table1(scale);
        println!("{t1}");
        claims.extend(t1.claims(scale));
    }

    if want("table2") || want("table3") || want("fig4") {
        eprintln!("running parallel CG sweep over P = {proc_counts:?} ...");
        let t23 = table2::run_table2_3(proc_counts);
        if want("table2") {
            println!("=== Table 2: CG executor time, 10 iterations ===\n");
            println!("{}", t23.table2());
            claims.extend(t23.claims_t2());
        }
        if want("table3") {
            println!("=== Table 3: inspector overhead (inspector / executor iteration) ===\n");
            println!("{}", t23.table3());
            println!("--- machine-independent companion: inspector bytes, all processors ---\n");
            println!("{}", t23.traffic());
            claims.extend(t23.claims_t3());
        }
        if want("fig4") {
            println!("=== Figure 4: (k + r_I)/(k + r_B) vs iteration count ===\n");
            println!(
                "--- from wall-clock overheads (simulator-compressed; see EXPERIMENTS.md) ---"
            );
            fig4::print(&fig4::series(&t23, |r, imp| r.times[&imp].inspector_overhead()));
            println!("--- from traffic counters (machine-independent) ---");
            let traffic = fig4::series(&t23, fig4::traffic);
            fig4::print(&traffic);
            claims.extend(fig4::claims(&traffic));
        }
    }

    if want("ablations") {
        println!("=== Ablations: one design decision each ===\n");
        claims.extend(ablations::run());
    }

    report(&claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failing_claim_fails_the_run() {
        let claim = |holds| Claim::new("T0.demo", holds, "seen".to_string());
        assert_eq!(report(&[claim(true), claim(true)]), ExitCode::SUCCESS);
        assert_eq!(report(&[claim(true), claim(false)]), ExitCode::FAILURE);
        assert_eq!(report(&[]), ExitCode::SUCCESS);
        assert!(!Claim::at_most("T0.demo", 1.6, 1.5, "ratio").holds);
        assert!(Claim::at_least("T0.demo", 1.6, 1.5, "ratio").holds);
    }
}
