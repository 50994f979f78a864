//! The reproduction harness (`src/bin/tables`) as a child process: its
//! exit status is the verdict on the paper's claims, so these tests
//! read nothing else but the one cell they bound.

use std::process::Command;

fn tables(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("tables runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("tables prints UTF-8"))
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

#[test]
fn unknown_selection_fails_instead_of_passing_vacuously() {
    let (ok, stdout) = tables(&["tabel2"]);
    assert!(!ok && !stdout.contains("PASS"), "{stdout}");
}
