//! The reproduction harness (`src/bin/tables`) as a child process: its
//! exit status is the verdict on the paper's claims, so these tests
//! read nothing else but the one cell they bound.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Held by each test that reads clocks: `cargo test` runs a binary's
/// tests on parallel threads, and two timed runs on a 2-vCPU host would
/// each measure the other.
fn clocks() -> MutexGuard<'static, ()> {
    static CLOCKS: Mutex<()> = Mutex::new(());
    CLOCKS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether the run passed, and its standard output — followed, when it
/// failed, by its exit status and standard error.
fn tables(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("tables runs");
    let mut text = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    if !out.status.success() {
        text += &format!("{}\n{}", out.status, String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), text)
}

/// Seconds in the P = 2 BlockSolve cell of a printed Table 2.
fn p2_blocksolve_cell(stdout: &str) -> f64 {
    stdout
        .lines()
        .skip_while(|line| !line.starts_with("=== Table 2"))
        .find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some("2")).then(|| cols.next())?
        })
        .and_then(|cell| cell.trim_end_matches('s').parse().ok())
        .expect("Table 2 has a P = 2 row")
}

/// With both ranks of a P = 2 pool on one core, a receiver that polled
/// without yielding burned its whole budget on every wait and the cell
/// read 9 ms instead of 1.1 ms in about a quarter of all invocations.
/// Twenty invocations: each must pass its own claims (`T2.weak-scaling`
/// among them) and the cell must be one mode.
#[test]
#[cfg_attr(debug_assertions, ignore = "reads clocks: cargo test --release --test tables")]
fn p2_cell_is_unimodal_over_twenty_invocations() {
    let _clocks = clocks();
    let cells: Vec<f64> = (0..20)
        .map(|_| {
            let (ok, stdout) = tables(&["--small", "table2"]);
            assert!(ok, "a Table 2 claim failed:\n{stdout}");
            p2_blocksolve_cell(&stdout)
        })
        .collect();
    let min = cells.iter().copied().fold(f64::INFINITY, f64::min);
    let max = cells.iter().copied().fold(0.0, f64::max);
    assert!(max <= 3.0 * min, "P = 2 BlockSolve cell over 20 invocations: {cells:?}");
}

/// Every timed ablation claim — `A.sweep-recurrence`, `A.cert-bind`,
/// `A.symgs-zero-guess`, `A.cccs-cost`, and the dispatch and join clocks
/// beside them — over twenty invocations, so that a bar inside this
/// host's spread fails here rather than in one CI run out of four.
#[test]
#[cfg_attr(debug_assertions, ignore = "reads clocks: cargo test --release --test tables")]
fn timed_ablation_claims_hold_over_twenty_invocations() {
    let _clocks = clocks();
    let failed: Vec<String> = (0..20)
        .filter_map(|_| {
            let (ok, stdout) = tables(&["ablations"]);
            (!ok).then_some(stdout)
        })
        .collect();
    // Name each failing claim with its count over the twenty; a run that
    // failed without a `FAIL` line (a crash) is shown whole.
    let mut counts = BTreeMap::<&str, usize>::new();
    let mut crashes = String::new();
    for stdout in &failed {
        let ids: Vec<&str> =
            stdout.lines().filter_map(|l| l.strip_prefix("FAIL ")?.split_whitespace().next()).collect();
        if ids.is_empty() {
            crashes += stdout;
        }
        ids.into_iter().for_each(|id| *counts.entry(id).or_default() += 1);
    }
    let claims: Vec<String> = counts.iter().map(|(id, n)| format!("{id} {n}/20")).collect();
    assert!(failed.is_empty(), "{} of 20 invocations failed: {}\n{crashes}", failed.len(), claims.join(", "));
}

#[test]
fn unknown_selection_fails_instead_of_passing_vacuously() {
    let (ok, stdout) = tables(&["tabel2"]);
    assert!(!ok && !stdout.contains("PASS"), "{stdout}");
}
