//! The contract of the offline `proptest!` shim every property test in
//! this workspace runs on: a declared property is a plain fn that the
//! caller registers with its own `#[test]` (the macro registers
//! nothing), it runs exactly the configured number of cases on a
//! stream seeded by its name, and a failing case panics with the
//! property's name and case number.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::atomic::{AtomicU32, Ordering};

static RUNS: AtomicU32 = AtomicU32::new(0);
static SEEN: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(7))]

    // No `#[test]`: the macro must not register these itself, so the
    // tests below can call them directly.
    fn counts_its_cases(_n in 0usize..10) {
        RUNS.fetch_add(1, Ordering::SeqCst);
    }

    fn records_its_draws(n in 0usize..1000) {
        SEEN.lock().unwrap().push(n);
    }

    fn fails_on_its_third_case(_n in 0usize..10) {
        let case = RUNS.fetch_add(1, Ordering::SeqCst);
        prop_assert!(case < 2, "case index {}", case);
    }

    fn fails_on_an_unequal_pair(a in Just(3usize), b in Just(4usize)) {
        prop_assert_eq!(a, b);
    }

    fn skips_every_case(n in 0usize..10) {
        prop_assume!(n > 100);
        prop_assert!(false, "an assumed-away case ran its body");
    }
}

static RUNS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn panic_message(f: fn()) -> String {
    let err = std::panic::catch_unwind(f).expect_err("the property should fail");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn a_property_without_test_is_a_plain_fn_running_its_configured_cases() {
    let _guard = RUNS_LOCK.lock().unwrap();
    RUNS.store(0, Ordering::SeqCst);
    counts_its_cases();
    assert_eq!(RUNS.load(Ordering::SeqCst), 7);
    counts_its_cases();
    assert_eq!(RUNS.load(Ordering::SeqCst), 14);
}

#[test]
fn a_property_draws_the_same_inputs_on_every_run() {
    records_its_draws();
    let first: Vec<usize> = std::mem::take(&mut *SEEN.lock().unwrap());
    records_its_draws();
    let second: Vec<usize> = std::mem::take(&mut *SEEN.lock().unwrap());
    assert_eq!(first.len(), 7);
    assert_eq!(first, second);
    assert!(first.iter().any(|&n| n != first[0]), "seven draws from 0..1000 all equal: {first:?}");
}

#[test]
fn a_failing_case_panics_with_the_property_name_and_case_number() {
    let _guard = RUNS_LOCK.lock().unwrap();
    RUNS.store(0, Ordering::SeqCst);
    let msg = panic_message(fails_on_its_third_case);
    assert!(msg.contains("property fails_on_its_third_case failed at case 3/7"), "{msg}");
    assert!(msg.contains("case index 2"), "{msg}");
    // The run stops at the first failing case.
    assert_eq!(RUNS.load(Ordering::SeqCst), 3);
}

#[test]
fn prop_assert_eq_reports_both_sides() {
    let msg = panic_message(fails_on_an_unequal_pair);
    assert!(msg.contains("case 1/7") && msg.contains("3 != 4"), "{msg}");
}

#[test]
fn an_assumed_away_case_passes_without_running_its_body() {
    skips_every_case();
}

#[test]
fn streams_are_seeded_by_name() {
    let draw = |name: &str| {
        let mut rng = TestRng::deterministic(name);
        (0..16).map(|_| (0u64..u64::MAX).generate(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw("a::b"), draw("a::b"));
    assert_ne!(draw("a::b"), draw("a::c"));
}

#[test]
fn range_and_collection_strategies_cover_their_bounds_and_no_more() {
    let mut rng = TestRng::deterministic("bounds");
    let inclusive = -2i32..=2;
    let drawn: std::collections::BTreeSet<i32> = (0..400).map(|_| inclusive.generate(&mut rng)).collect();
    assert_eq!(drawn.into_iter().collect::<Vec<_>>(), vec![-2, -1, 0, 1, 2]);
    let lengths = proptest::collection::vec(Just(0u8), 2..5);
    let drawn: std::collections::BTreeSet<usize> = (0..400).map(|_| lengths.generate(&mut rng).len()).collect();
    assert_eq!(drawn.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
    let unit = 0.5f64..0.75;
    assert!((0..400).map(|_| unit.generate(&mut rng)).all(|v| (0.5..0.75).contains(&v)));
}
