//! The corrupt-schedule corpus: hand-broken level schedules for each
//! invariant the wavefront verifier (`bernoulli-analysis`, `BA4x`)
//! guards, mirroring `corrupt_corpus.rs` for the format sanitizer.
//! Every mutant must be rejected by the *independent* verifier — the
//! parallel SpTRSV/SymGS tier only runs schedules that survive it —
//! and the pristine schedule must pass. A golden pins every finding
//! (code, span, message, order) of the two entry points, and a property
//! pins the level pass to a textbook longest path under all three
//! relations.

use bernoulli_analysis::binding::index_digest;
use bernoulli_analysis::wavefront::{
    analyze_wavefront, certify_wavefront, verify_level_schedule, LevelSchedule, Relation, Triangle,
};
use proptest::prelude::*;

/// First error code a schedule is rejected with (panics when clean).
fn first_code(
    nrows: usize,
    rowptr: &[usize],
    colind: &[usize],
    sched: &LevelSchedule,
) -> &'static str {
    let diags = verify_level_schedule(nrows, rowptr, colind, Triangle::Lower, sched);
    diags
        .iter()
        .find(|d| d.is_error())
        .unwrap_or_else(|| panic!("expected an error, got {diags:?}"))
        .code
}

/// A well-formed 6-row strictly-chained lower pattern to corrupt:
/// rows {0: [0], 1: [0,1], 2: [2], 3: [1,3], 4: [2,4], 5: [3,4,5]}.
/// Longest-path levels: {0,2} · {1,4} · {3} · {5}.
fn good_pattern() -> (Vec<usize>, Vec<usize>) {
    (vec![0, 1, 3, 4, 6, 8, 11], vec![0, 0, 1, 2, 1, 3, 2, 4, 3, 4, 5])
}

/// The pristine schedule for [`good_pattern`], as the analysis emits it.
fn good_schedule() -> LevelSchedule {
    LevelSchedule::from_raw_unchecked(6, vec![0, 2, 1, 4, 3, 5], vec![0, 2, 4, 5, 6])
}

#[test]
fn pristine_schedule_passes_and_matches_analysis() {
    let (rowptr, colind) = good_pattern();
    let sched = good_schedule();
    let diags = verify_level_schedule(6, &rowptr, &colind, Triangle::Lower, &sched);
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    // And the analysis itself reproduces it with a certificate.
    let report = analyze_wavefront(6, &rowptr, &colind, Triangle::Lower);
    assert!(report.is_parallel_safe());
    let s = report.schedule.expect("certified pattern has a schedule");
    assert_eq!(s.rows(), sched.rows());
    assert_eq!(s.level_ptr(), sched.level_ptr());
}

#[test]
fn ba42_swapped_dependent_rows_across_levels() {
    // Rows 1 and 3 trade places: row 3 now runs in the wave *before*
    // the row 1 it depends on — a non-topological order.
    let (rowptr, colind) = good_pattern();
    let sched = LevelSchedule::from_raw_unchecked(6, vec![0, 2, 3, 4, 1, 5], vec![0, 2, 4, 5, 6]);
    assert_eq!(first_code(6, &rowptr, &colind, &sched), "BA42");
}

#[test]
fn ba43_duplicated_row() {
    // Row 0 scheduled twice, row 5 never: coverage is broken.
    let (rowptr, colind) = good_pattern();
    let sched = LevelSchedule::from_raw_unchecked(6, vec![0, 2, 1, 4, 3, 0], vec![0, 2, 4, 5, 6]);
    assert_eq!(first_code(6, &rowptr, &colind, &sched), "BA43");
}

#[test]
fn ba43_dropped_row() {
    // Row 5 silently dropped from the last wave.
    let (rowptr, colind) = good_pattern();
    let sched = LevelSchedule::from_raw_unchecked(6, vec![0, 2, 1, 4, 3], vec![0, 2, 4, 5, 5]);
    assert_eq!(first_code(6, &rowptr, &colind, &sched), "BA43");
}

#[test]
fn ba44_level_off_by_one() {
    // Row 1 merged into its predecessor's wave: rows 0 and 1 share a
    // level but 1 reads x[0] — an intra-wave dependence (race).
    let (rowptr, colind) = good_pattern();
    let sched = LevelSchedule::from_raw_unchecked(6, vec![0, 2, 1, 4, 3, 5], vec![0, 3, 4, 5, 6]);
    assert_eq!(first_code(6, &rowptr, &colind, &sched), "BA44");
}

#[test]
fn ba41_non_triangular_input_refused_at_analysis() {
    // An above-diagonal entry under the Lower orientation makes the
    // dependence relation cyclic under forward substitution: no
    // schedule, no certificate, BA41.
    let (rowptr, mut colind) = good_pattern();
    colind[1] = 3; // row 1 now reads column 3 > 1
    let report = analyze_wavefront(6, &rowptr, &colind, Triangle::Lower);
    assert!(!report.is_parallel_safe());
    assert!(report.schedule.is_none());
    let code =
        report.diagnostics.iter().find(|d| d.is_error()).expect("must be diagnosed").code;
    assert_eq!(code, "BA41");
    // The verifier agrees when handed the pristine schedule anyway.
    assert_eq!(first_code(6, &rowptr, &colind, &good_schedule()), "BA41");
}

/// Random strictly-lower patterns (diagonal implied): each row reads a
/// random subset of earlier rows.
fn arb_lower_pattern() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec(0u32..0x0100_0000, n..=n).prop_map(
            move |masks| {
                let mut rowptr = vec![0usize];
                let mut colind = Vec::new();
                for (i, m) in masks.iter().enumerate() {
                    for j in 0..i {
                        if m & (1 << (j % 24)) != 0 {
                            colind.push(j);
                        }
                    }
                    colind.push(i); // diagonal last
                    rowptr.push(colind.len());
                }
                (rowptr, colind)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero false positives: every analysis-built schedule passes the
    /// independent verifier and earns a certificate.
    #[test]
    fn analysis_schedules_always_verify((rowptr, colind) in arb_lower_pattern()) {
        let n = rowptr.len() - 1;
        let report = analyze_wavefront(n, &rowptr, &colind, Triangle::Lower);
        prop_assert!(report.is_parallel_safe(), "{:?}", report.diagnostics);
        let sched = report.schedule.unwrap();
        let diags = verify_level_schedule(n, &rowptr, &colind, Triangle::Lower, &sched);
        prop_assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }

    /// Zero false negatives on coverage damage: overwrite one schedule
    /// slot with another row and the verifier must reject (the victim
    /// row disappears, the copied row appears twice).
    #[test]
    fn clobbered_slot_is_always_rejected(
        ((rowptr, colind), i, j) in arb_lower_pattern().prop_flat_map(|(rp, ci)| {
            let n = rp.len() - 1;
            (Just((rp, ci)), 0..n, 0..n)
        })
    ) {
        prop_assume!(i != j);
        let n = rowptr.len() - 1;
        let good = analyze_wavefront(n, &rowptr, &colind, Triangle::Lower)
            .schedule
            .unwrap();
        let mut rows = good.rows().to_vec();
        rows[i] = rows[j];
        let bad = LevelSchedule::from_raw_unchecked(n, rows, good.level_ptr().to_vec());
        prop_assert_eq!(first_code(n, &rowptr, &colind, &bad), "BA43");
    }
}

/// Every diagnostic the two public entry points return, pinned: for
/// each case below, [`GOLDEN`] records what `certify_wavefront` (under
/// each relation, computing or replaying a schedule) and
/// `verify_level_schedule` return — each finding's code, span and
/// message in order, or the certified schedule. One `== case / entry`
/// header per call, then one rendered line per finding.
const GOLDEN: &str = include_str!("corrupt_schedule_golden.txt");

const RELATIONS: [(&str, Relation); 3] = [
    ("lower", Relation::Solve(Triangle::Lower)),
    ("upper", Relation::Solve(Triangle::Upper)),
    ("gauss-seidel", Relation::GaussSeidel),
];

/// A seeded xorshift draw in `0..m`.
fn draw(state: &mut u64, m: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % m as u64) as usize
}

/// The side of the diagonal a pattern's entries must keep to for
/// `relation` to admit it (`None`: any).
fn side(relation: Relation) -> Option<Triangle> {
    match relation {
        Relation::Solve(triangle) => Some(triangle),
        Relation::GaussSeidel => None,
    }
}

/// A seeded `n`-row pattern whose off-diagonal entries all lie on one
/// side (`Some(Lower)`: columns below the row; `Some(Upper)`: above) or
/// anywhere (`None`), with the diagonal stored and every row's entries
/// in shuffled order.
fn seeded_pattern(n: usize, side: Option<Triangle>, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut state = seed | 1;
    let (mut rowptr, mut colind) = (vec![0], Vec::new());
    for i in 0..n {
        let start = colind.len();
        colind.push(i);
        for _ in 0..draw(&mut state, 4) {
            let j = match side {
                Some(Triangle::Lower) if i > 0 => draw(&mut state, i),
                Some(Triangle::Upper) if i + 1 < n => i + 1 + draw(&mut state, n - i - 1),
                Some(_) => continue,
                None => draw(&mut state, n),
            };
            if !colind[start..].contains(&j) {
                colind.push(j);
            }
        }
        for k in (start + 1..colind.len()).rev() {
            colind.swap(k, start + draw(&mut state, k - start + 1));
        }
        rowptr.push(colind.len());
    }
    (rowptr, colind)
}

/// The pattern's rows read transposed: an upper pattern from a lower one.
fn transpose(n: usize, rowptr: &[usize], colind: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut rows = vec![Vec::new(); n];
    for i in 0..n {
        for &j in &colind[rowptr[i]..rowptr[i + 1]] {
            rows[j].push(i);
        }
    }
    let mut out = (vec![0], Vec::new());
    for r in rows {
        out.1.extend(r);
        out.0.push(out.1.len());
    }
    out
}

fn render_diags(text: &mut String, diags: &[bernoulli_analysis::Diagnostic]) {
    if diags.is_empty() {
        *text += "clean\n";
    }
    for d in diags {
        *text += &format!("{d}\n");
    }
}

/// `certify_wavefront` and (for the solve relations) `verify_level_schedule`
/// of one pattern and optional schedule under `relations`, rendered.
fn record(
    text: &mut String,
    case: &str,
    relations: &[(&str, Relation)],
    (n, rowptr, colind): (usize, &[usize], &[usize]),
    sched: Option<&LevelSchedule>,
) {
    let digest = index_digest(&[rowptr, colind]);
    for &(name, relation) in relations {
        let entry = if sched.is_some() { "replay" } else { "certify" };
        *text += &format!("== {case} / {entry} {name}\n");
        match certify_wavefront(n, rowptr, colind, digest, relation, sched.cloned()) {
            Ok((s, cert)) => {
                *text += &format!("certified rows {:?} level_ptr {:?} levels {}\n", s.rows(), s.level_ptr(), cert.levels())
            }
            Err(diags) => render_diags(text, &diags),
        }
        if let (Some(sched), Relation::Solve(triangle)) = (sched, relation) {
            *text += &format!("== {case} / verify {name}\n");
            render_diags(text, &verify_level_schedule(n, rowptr, colind, triangle, sched));
        }
    }
}

/// The schedule `relation` computes for a pattern it admits.
fn computed(n: usize, rowptr: &[usize], colind: &[usize], relation: Relation) -> LevelSchedule {
    certify_wavefront(n, rowptr, colind, index_digest(&[rowptr, colind]), relation, None)
        .unwrap_or_else(|d| panic!("{d:?}"))
        .0
}

/// Seeded damage to a valid schedule, one mutant per kind.
fn mutants(s: &LevelSchedule, seed: u64) -> Vec<(&'static str, LevelSchedule)> {
    let mut state = seed | 1;
    let n = s.nrows();
    let (rows, lp) = (s.rows().to_vec(), s.level_ptr().to_vec());
    let levels = s.num_levels();
    let raw = |rows: Vec<usize>, lp: Vec<usize>| LevelSchedule::from_raw_unchecked(n, rows, lp);
    let mut out = Vec::new();
    // Swapped rows: the first row of a random early level trades places
    // with a random row of the last level.
    let a = lp[draw(&mut state, levels.div_ceil(2))];
    let b = lp[levels - 1] + draw(&mut state, lp[levels] - lp[levels - 1]);
    let mut swapped = rows.clone();
    swapped.swap(a, b);
    out.push(("swapped rows", raw(swapped, lp.clone())));
    // A dropped row: every boundary after it moves down by one.
    let p = draw(&mut state, n);
    let mut dropped = rows.clone();
    dropped.remove(p);
    let dropped_lp = lp.iter().map(|&q| if q > p { q - 1 } else { q }).collect();
    out.push(("dropped row", raw(dropped, dropped_lp)));
    let mut duplicated = rows.clone();
    let (p, q) = (draw(&mut state, n), draw(&mut state, n));
    duplicated[p] = rows[if p == q { (q + 1) % n } else { q }];
    out.push(("duplicated row", raw(duplicated, lp.clone())));
    let mut out_of_range = rows.clone();
    out_of_range[draw(&mut state, n)] = n + 3;
    out.push(("out-of-range row", raw(out_of_range, lp.clone())));
    let mut non_monotone = lp.clone();
    non_monotone.swap(1, 2);
    out.push(("non-monotone level_ptr", raw(rows.clone(), non_monotone)));
    // A level off by one, both ways: a boundary moved up pulls a row
    // into the level before it; moved down, pushes one into the next.
    let l = 1 + draw(&mut state, levels - 1);
    let mut up = lp.clone();
    up[l] += 1;
    out.push(("level boundary up by one", raw(rows.clone(), up)));
    let mut down = lp.clone();
    down[l] -= 1;
    out.push(("level boundary down by one", raw(rows.clone(), down)));
    out.push(("wrong nrows", LevelSchedule::from_raw_unchecked(n + 1, rows.clone(), lp.clone())));
    let mut short = lp.clone();
    *short.last_mut().unwrap() -= 1;
    out.push(("level_ptr ends short", raw(rows.clone(), short)));
    let mut cut = lp.clone();
    *cut.last_mut().unwrap() = n - 1;
    out.push(("rows short of level_ptr", raw(rows[..n - 1].to_vec(), cut)));
    out
}

fn golden_cases() -> String {
    let mut text = String::new();
    let t = &mut text;
    // The corpus above.
    let all = &RELATIONS[..];
    let (rowptr, colind) = good_pattern();
    record(t, "corpus pristine", all, (6, &rowptr, &colind), None);
    record(t, "corpus pristine", all, (6, &rowptr, &colind), Some(&good_schedule()));
    for (case, rows, lp) in [
        ("corpus swapped", vec![0, 2, 3, 4, 1, 5], vec![0, 2, 4, 5, 6]),
        ("corpus duplicated", vec![0, 2, 1, 4, 3, 0], vec![0, 2, 4, 5, 6]),
        ("corpus dropped", vec![0, 2, 1, 4, 3], vec![0, 2, 4, 5, 5]),
        ("corpus off by one", vec![0, 2, 1, 4, 3, 5], vec![0, 3, 4, 5, 6]),
    ] {
        record(t, case, all, (6, &rowptr, &colind), Some(&LevelSchedule::from_raw_unchecked(6, rows, lp)));
    }
    // A wrong-side entry under each relation: a lower pattern with one
    // upper entry, and an upper pattern with one lower entry.
    let mut wrong = colind.clone();
    wrong[1] = 3;
    record(t, "lower with an upper entry", all, (6, &rowptr, &wrong), None);
    record(t, "lower with an upper entry", all, (6, &rowptr, &wrong), Some(&good_schedule()));
    let (up_ptr, mut up_ind) = transpose(6, &rowptr, &colind);
    let upper_sched = computed(6, &up_ptr, &up_ind, Relation::Solve(Triangle::Upper));
    up_ind[up_ptr[4]] = 1;
    record(t, "upper with a lower entry", all, (6, &up_ptr, &up_ind), None);
    record(t, "upper with a lower entry", all, (6, &up_ptr, &up_ind), Some(&upper_sched));
    // Malformed patterns (BA21/BA22).
    for (case, n, rp, ci) in [
        ("rowptr too short", 3, vec![0, 1], vec![0]),
        ("rowptr starts at 1", 2, vec![1, 1, 2], vec![0, 1]),
        ("rowptr decreases", 3, vec![1, 2, 1, 3], vec![0, 1, 2]),
        ("rowptr ends short of colind", 2, vec![0, 1, 2], vec![0, 1, 1]),
        ("column out of bounds", 3, vec![0, 1, 3, 4], vec![0, 7, 1, 3]),
    ] {
        record(t, case, all, (n, &rp, &ci), None);
        let sched = LevelSchedule::from_raw_unchecked(n, (0..n).collect(), vec![0, n]);
        record(t, case, all, (n, &rp, &ci), Some(&sched));
    }
    // Seeded schedule mutants on a pattern each relation admits, under
    // that relation.
    for (k, (name, relation)) in RELATIONS.into_iter().enumerate() {
        let n = 40;
        let (rp, ci) = seeded_pattern(n, side(relation), 0x5eed + k as u64);
        let good = computed(n, &rp, &ci, relation);
        let own = &RELATIONS[k..=k];
        record(t, &format!("seeded {name}"), own, (n, &rp, &ci), None);
        for (mutant, sched) in mutants(&good, 0xbad + k as u64) {
            record(t, &format!("seeded {name}, {mutant}"), own, (n, &rp, &ci), Some(&sched));
        }
    }
    text
}

#[test]
fn every_diagnostic_matches_the_recorded_golden() {
    let text = golden_cases();
    let diff = text.lines().zip(GOLDEN.lines()).enumerate().find(|(_, (got, want))| got != want);
    if let Some((k, (got, want))) = diff {
        panic!("line {}: got `{got}`, recorded `{want}`", k + 1);
    }
    assert_eq!(text.lines().count(), GOLDEN.lines().count(), "finding count differs from the record");
}

/// The textbook longest-path levels of `relation` over a pattern it
/// admits: the dependence edges listed from the relation's definition,
/// then Kahn's topological order, each row one level past its deepest
/// predecessor; rows bucketed by level, ascending within a level.
fn oracle_schedule(n: usize, rowptr: &[usize], colind: &[usize], relation: Relation) -> LevelSchedule {
    let mut succ = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for i in 0..n {
        for &j in &colind[rowptr[i]..rowptr[i + 1]] {
            let edge = match relation {
                _ if i == j => None,
                Relation::Solve(Triangle::Lower) => (j < i).then_some((j, i)),
                Relation::Solve(Triangle::Upper) => (j > i).then_some((j, i)),
                Relation::GaussSeidel => Some((i.min(j), i.max(j))),
            };
            if let Some((from, to)) = edge {
                succ[from].push(to);
                indegree[to] += 1;
            }
        }
    }
    let mut level = vec![0usize; n];
    let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut seen = 0;
    while let Some(v) = ready.pop() {
        seen += 1;
        for &w in &succ[v] {
            level[w] = level[w].max(level[v] + 1);
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.push(w);
            }
        }
    }
    assert_eq!(seen, n, "the oracle's relation has a cycle");
    let levels = level.iter().map(|&l| l + 1).max().unwrap_or(0);
    let (mut rows, mut level_ptr) = (Vec::new(), vec![0]);
    for l in 0..levels {
        rows.extend((0..n).filter(|&i| level[i] == l));
        level_ptr.push(rows.len());
    }
    LevelSchedule::from_raw_unchecked(n, rows, level_ptr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The level pass is the textbook longest path under every
    /// relation, on seeded patterns with shuffled rows, and every
    /// schedule it computes passes the verifier.
    #[test]
    fn level_pass_equals_the_textbook_longest_path((n, seed) in (1usize..60, 0u64..1 << 40)) {
        for (name, relation) in RELATIONS {
            let (rowptr, colind) = seeded_pattern(n, side(relation), seed);
            let digest = index_digest(&[&rowptr, &colind]);
            let certified = certify_wavefront(n, &rowptr, &colind, digest, relation, None);
            prop_assert!(certified.is_ok(), "{name}: {certified:?}");
            let (sched, cert) = certified.unwrap();
            prop_assert_eq!(&sched, &oracle_schedule(n, &rowptr, &colind, relation), "{}", name);
            prop_assert_eq!(cert.levels(), sched.num_levels());
            let replayed = certify_wavefront(n, &rowptr, &colind, digest, relation, Some(sched.clone()));
            prop_assert!(replayed.is_ok(), "{name}: {replayed:?}");
            if let Relation::Solve(triangle) = relation {
                let diags = verify_level_schedule(n, &rowptr, &colind, triangle, &sched);
                prop_assert!(diags.is_empty(), "{name}: {diags:?}");
            }
        }
    }
}
