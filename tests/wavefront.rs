//! Wavefront (DO-ACROSS) integration: the dependence analysis licenses
//! the level-parallel SpTRSV/SymGS tier, the obs stream shows both the
//! grant and every refusal, and — the acceptance bar — the parallel
//! tier is *bitwise* identical to the serial sweeps over adversarial
//! inputs (empty rows, dense columns, NaN/Inf values), because a
//! level schedule permutes waves, never the operations within a row.

use bernoulli::pipeline::OpSpec;
use bernoulli::{ExecCtx, Reason, RelError, SptrsvEngine, Strategy as Tier, SymGsEngine, TriangularOp, MIN_MEAN_LEVEL_WIDTH};
use bernoulli_analysis::wavefront::{analyze_wavefront, certify_wavefront, Relation, Triangle};
use bernoulli_formats::kernels::{SplitStep, SweepSplit};
use bernoulli_formats::{gen, kernels, par_kernels, Csr, Triplets};
use bernoulli_tune::Dispatcher;
use bernoulli_obs::Obs;
use bernoulli_solvers::cg::{cg, CgOptions};
use bernoulli_solvers::precond::{IdentityPreconditioner, Preconditioner};
use bernoulli_solvers::symgs::SymGs;
use proptest::prelude::*;

/// The host may have a single core: force a real pool and a zero size
/// gate so the wavefront pass — not the environment — decides.
fn par_ctx() -> ExecCtx {
    ExecCtx::with_threads(2).oversubscribe(true).threshold(1)
}

/// Lower triangle of a stencil matrix, off-diagonals scaled to keep
/// the solve well-conditioned.
fn lower_of(t: &Triplets, scale: f64) -> Csr {
    let lower: Vec<(usize, usize, f64)> = t
        .entries()
        .iter()
        .filter(|&&(i, j, _)| j <= i)
        .map(|&(i, j, v)| (i, j, if i == j { v } else { scale * v }))
        .collect();
    Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &lower))
}

/// Bidiagonal chain: every row depends on its predecessor, so the
/// dependence graph is a single path — one row per level.
fn chain(n: usize) -> Csr {
    let mut e = Vec::new();
    for i in 0..n {
        e.push((i, i, 2.0));
        if i > 0 {
            e.push((i, i - 1, -1.0));
        }
    }
    Csr::from_triplets(&Triplets::from_entries(n, n, &e))
}

#[test]
fn grid_certified_and_chain_refused_both_visible_in_obs() {
    // The ISSUE's acceptance pair: a grid-like operand is certified
    // parallel, a chain-structured one refused, and both decisions are
    // observable as strategy events with level statistics.
    let obs = Obs::enabled();
    let ctx = par_ctx().instrument(obs.clone());

    let grid = lower_of(&gen::grid2d_5pt(16, 16), 0.25);
    let eng =
        SptrsvEngine::compile_in(&grid, TriangularOp::Lower { unit_diag: false }, &ctx).unwrap();
    assert_eq!(eng.strategy(), Tier::Parallel, "downgrade: {}", eng.downgrade());

    let ch = chain(64);
    let ceng =
        SptrsvEngine::compile_in(&ch, TriangularOp::Lower { unit_diag: false }, &ctx).unwrap();
    assert_eq!(ceng.strategy(), Tier::Specialized);
    assert_eq!(ceng.downgrade(), Reason::LevelsTooNarrow);

    let report = obs.report();
    report.validate().unwrap();
    assert_eq!(report.strategies.len(), 2);

    let g = &report.strategies[0];
    assert_eq!((g.op, g.strategy), ("sptrsv", "Parallel"));
    assert_eq!(g.downgrade, "");
    // 16×16 5-point grid, lower triangle: anti-diagonal wavefronts.
    assert_eq!((g.levels, g.max_level_width), (31, 16));
    assert!(g.mean_level_width >= MIN_MEAN_LEVEL_WIDTH, "{}", g.mean_level_width);
    // DO-ANY was consulted and refused — the wavefront certificate,
    // not race-freedom, licensed the parallel tier.
    assert!(g.race_checked && !g.race_safe);

    let c = &report.strategies[1];
    assert_eq!((c.op, c.strategy), ("sptrsv", "Specialized"));
    assert_eq!(c.downgrade, Reason::LevelsTooNarrow.as_str());
    assert_eq!((c.levels, c.max_level_width), (64, 1));
    assert!((c.mean_level_width - 1.0).abs() < 1e-12);

    // Running the granted engine hits the level-parallel kernel, and
    // the result matches the serial tier bitwise.
    let n = grid.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
    let mut xp = vec![0.0; n];
    eng.run(&grid, &b, &mut xp).unwrap();
    assert!(report_has_kernel(&obs, "par_sptrsv_csr_lower"));
    let serial =
        SptrsvEngine::compile_in(&grid, TriangularOp::Lower { unit_diag: false }, &ExecCtx::default())
            .unwrap();
    let mut xs = vec![0.0; n];
    serial.run(&grid, &b, &mut xs).unwrap();
    for (a, b) in xs.iter().zip(&xp) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

fn report_has_kernel(obs: &Obs, name: &str) -> bool {
    obs.report().kernels.contains_key(name)
}

#[test]
fn non_triangular_operand_is_refused_a_certificate() {
    // Adversarial: one above-diagonal entry makes forward substitution
    // cyclic; the analysis must refuse and the engine must downgrade.
    let t = gen::grid2d_5pt(8, 8);
    let full = Csr::from_triplets(&t); // symmetric stencil: both triangles
    let report =
        analyze_wavefront(full.nrows(), full.rowptr(), full.colind(), Triangle::Lower);
    assert!(!report.is_parallel_safe());

    // (Unit solve: a non-unit one is refused outright, the diagonal of
    // a full row is not stored last.)
    let eng =
        SptrsvEngine::compile_in(&full, TriangularOp::Lower { unit_diag: true }, &par_ctx())
            .unwrap();
    assert_eq!(eng.strategy(), Tier::Specialized);
    assert_eq!(eng.downgrade(), Reason::NotTriangular);
    let refused = SptrsvEngine::compile_in(&full, TriangularOp::Lower { unit_diag: false }, &par_ctx());
    assert!(matches!(refused, Err(RelError::Validation(_))));
}

#[test]
fn ssor_pcg_beats_plain_cg_on_grid3d_with_residual_history() {
    // Acceptance: CG + SymGS/SSOR on a 3-D stencil converges in fewer
    // iterations than unpreconditioned CG, with both residual
    // histories flowing through the obs solver stream.
    let obs = Obs::enabled();
    let ctx = ExecCtx::default().instrument(obs.clone());
    let t = gen::grid3d_7pt(6, 6, 6);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
    let opts = CgOptions { max_iters: 400, rel_tol: 1e-9 };

    let mut x1 = vec![0.0; n];
    let plain = cg(&a, &IdentityPreconditioner { n }, &b, &mut x1, opts, &ctx).unwrap();
    let ssor = SymGs::new(Csr::from_triplets(&t), &ctx).unwrap();
    let mut x2 = vec![0.0; n];
    let pre = cg(&a, &ssor, &b, &mut x2, opts, &ctx).unwrap();

    assert!(plain.converged && pre.converged);
    assert!(
        pre.iters < plain.iters,
        "SSOR PCG took {} iters vs plain CG's {}",
        pre.iters,
        plain.iters
    );

    let report = obs.report();
    report.validate().unwrap();
    let traces: Vec<_> = report.solvers.iter().filter(|s| s.solver == "cg").collect();
    assert_eq!(traces.len(), 2);
    for (trace, run) in traces.iter().zip([&plain, &pre]) {
        assert_eq!(trace.iters, run.iters);
        assert_eq!(trace.residuals, run.residual_history);
        assert!(trace.residuals.first().copied().unwrap_or(0.0) > *trace.residuals.last().unwrap());
    }
}

// --- the row bodies' term order against a textbook sweep ----------------

/// The textbook Gauss-Seidel sweep the row body is measured against:
/// storage order, diagonal found on the way, one divide per row. Returns
/// each entry's magnitude `(|b| + Σ|a||x|)/|d| + |x|`, the unit its
/// rounding is counted in.
fn textbook_sweep(a: &Csr, tri: Triangle, omega: f64, b: &[f64], x: &mut [f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut mag = vec![0.0; n];
    for k in 0..n {
        let i = if tri == Triangle::Lower { k } else { n - 1 - k };
        let (mut acc, mut diag, mut m) = (b[i], 1.0, b[i].abs());
        for (&j, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            if j == i {
                diag = v;
            } else {
                acc -= v * x[j];
                m += (v * x[j]).abs();
            }
        }
        mag[i] = m / f64::abs(diag) + x[i].abs();
        let gs = acc / diag;
        x[i] = if omega == 1.0 { gs } else { (1.0 - omega) * x[i] + omega * gs };
    }
    mag
}

fn assert_within(got: &[f64], want: &[f64], mag: &[f64], case: &str) {
    for (i, ((g, w), m)) in got.iter().zip(want).zip(mag).enumerate() {
        assert!((g - w).abs() <= 1e-12 * m, "{case}: entry {i} reads {g}, textbook {w} (unit {m})");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Rows 3k are empty, rows 3k+1 store only their diagonal, rows 3k+2
/// store neighbours on both sides and *no* diagonal (read as 1).
fn ragged(n: usize) -> Triplets {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        match i % 3 {
            0 => {}
            1 => t.push(i, i, 4.0 + (i % 5) as f64),
            _ => {
                for j in [i - 2, i - 1, (i + 1) % n, (i + 5) % n] {
                    t.push(i, j, 0.2 - 0.05 * (j % 3) as f64);
                }
            }
        }
    }
    t
}

fn sweep_operands() -> Vec<(&'static str, Triplets)> {
    vec![
        ("grid3d_7pt", gen::grid3d_7pt(6, 5, 4)),
        ("random symmetric", gen::power_network(90, 7)),
        ("ragged", ragged(60)),
    ]
}

/// The tentpole's contract: one row body, so the bare kernel, the
/// serial engine, the level-parallel engine and the dispatcher agree
/// bitwise; and the far-to-near order with a reciprocal close moves a
/// textbook sweep by rounding only.
#[test]
fn symgs_tiers_agree_bitwise_and_match_the_textbook_sweep() {
    for (name, t) in sweep_operands() {
        let a = Csr::from_triplets(&t);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
        let serial = SymGsEngine::compile_in(&a, &ExecCtx::default()).unwrap();
        let par = SymGsEngine::compile_in(&a, &par_ctx()).unwrap();
        if name == "grid3d_7pt" {
            assert_eq!(par.strategy(), Tier::Parallel, "{}", par.downgrade());
        }
        for omega in [1.0, 1.3] {
            for tri in [Triangle::Lower, Triangle::Upper] {
                let case = format!("{name}, ω={omega}, {tri:?}");
                let mut want = x0.clone();
                let mag = textbook_sweep(&a, tri, omega, &b, &mut want);
                let mut bare = x0.clone();
                kernels::symgs_sweep_csr(&a, tri, omega, &b, &mut bare);
                assert_within(&bare, &want, &mag, &case);
                for (tier, eng) in [("serial", &serial), ("level-parallel", &par)] {
                    let mut got = x0.clone();
                    match tri {
                        Triangle::Lower => eng.sweep_forward(&a, omega, &b, &mut got).unwrap(),
                        Triangle::Upper => eng.sweep_backward(&a, omega, &b, &mut got).unwrap(),
                    }
                    assert_eq!(bits(&got), bits(&bare), "{case}, {tier} engine");
                }
            }
        }
        // The dispatcher's SymGS request is one ω = 1 apply from zero.
        let mut bare = vec![0.0; n];
        kernels::symgs_forward_csr(&a, 1.0, &b, &mut bare);
        kernels::symgs_backward_csr(&a, 1.0, &b, &mut bare);
        for ctx in [ExecCtx::default(), par_ctx()] {
            let mut d = Dispatcher::new(ctx);
            let id = d.register(&t);
            for pass in ["cold", "warm"] {
                let got = d.submit(id, OpSpec::Symgs, &b).unwrap();
                assert_eq!(bits(&got), bits(&bare), "{name}, dispatched, {pass}");
            }
        }
    }
}

/// Same contract for the substitution body, both triangles: the upper
/// solve now walks its row descending, both close with a reciprocal.
#[test]
fn sptrsv_tiers_agree_bitwise_and_match_the_textbook_solve() {
    for (name, t) in sweep_operands().into_iter().take(2) {
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 3.0 - 2.0).collect();
        for (tri, op) in [
            (Triangle::Lower, TriangularOp::Lower { unit_diag: false }),
            (Triangle::Upper, TriangularOp::Upper { unit_diag: false }),
        ] {
            let half: Vec<_> = (t.canonicalize().entries().iter().copied())
                .filter(|&(i, j, _)| if tri == Triangle::Lower { j <= i } else { j >= i })
                .collect();
            let half = Triplets::from_entries(n, n, &half);
            let a = Csr::from_triplets(&half);
            let case = format!("{name}, {tri:?}");
            // A triangular solve is a Gauss-Seidel sweep from zero.
            let mut want = vec![0.0; n];
            let mag = textbook_sweep(&a, tri, 1.0, &b, &mut want);
            let mut bare = vec![0.0; n];
            kernels::sptrsv_csr(&a, tri, false, &b, &mut bare);
            assert_within(&bare, &want, &mag, &case);
            for ctx in [ExecCtx::default(), par_ctx()] {
                let mut got = vec![0.0; n];
                SptrsvEngine::compile_in(&a, op, &ctx).unwrap().run(&a, &b, &mut got).unwrap();
                assert_eq!(bits(&got), bits(&bare), "{case}, engine");
                let mut d = Dispatcher::new(ctx);
                let id = d.register(&half);
                let got = d.submit(id, OpSpec::Sptrsv { op }, &b).unwrap();
                assert_eq!(bits(&got), bits(&bare), "{case}, dispatched");
            }
        }
    }
}

/// A non-unit solve on an operand whose rows do not store their
/// diagonal last / first used to panic inside the row closure; it is a
/// `Validation` error from compile, run and submit, for every variant.
#[test]
fn non_unit_solve_without_a_stored_diagonal_is_a_validation_error() {
    let strict = Triplets::from_entries(3, 3, &[(1, 0, 1.0), (2, 0, 0.5), (2, 1, 0.25)]);
    let full = Triplets::from_entries(3, 3, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0), (2, 1, 0.25), (2, 2, 2.0)]);
    let (bad, good) = (Csr::from_triplets(&strict), Csr::from_triplets(&full));
    let b = [1.0, 2.0, 3.0];
    for op in [TriangularOp::Lower { unit_diag: false }, TriangularOp::Upper { unit_diag: false }] {
        for ctx in [ExecCtx::default(), par_ctx()] {
            let refused = SptrsvEngine::compile_in(&bad, op, &ctx);
            assert!(matches!(refused, Err(RelError::Validation(_))), "{op:?}: compile");
            let mut d = Dispatcher::new(ctx);
            let id = d.register(&strict);
            let refused = d.submit(id, OpSpec::Sptrsv { op }, &b);
            assert!(matches!(refused, Err(RelError::Validation(_))), "{op:?}: submit");
        }
    }
    // An engine compiled for a sound operand, run against the bad one.
    let lower = TriangularOp::Lower { unit_diag: false };
    let eng = SptrsvEngine::compile_in(&good, lower, &ExecCtx::default()).unwrap();
    let mut x = [0.0; 3];
    assert!(matches!(eng.run(&bad, &b, &mut x), Err(RelError::Validation(_))));
    eng.run(&good, &b, &mut x).unwrap();
    assert_eq!(x, [0.5, 0.75, 1.40625]);
    // The unit-diagonal solve of the same strictly-lower operand is fine.
    let unit = TriangularOp::Lower { unit_diag: true };
    SptrsvEngine::compile_in(&bad, unit, &ExecCtx::default()).unwrap().run(&bad, &b, &mut x).unwrap();
    assert_eq!(x, [1.0, 1.0, 2.25]);
}

/// Symmetric Gauss-Seidel by the textbook sweep, as a preconditioner.
struct TextbookSgs(Csr);

impl Preconditioner for TextbookSgs {
    fn dim(&self) -> usize {
        self.0.nrows()
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        textbook_sweep(&self.0, Triangle::Lower, 1.0, r, z);
        textbook_sweep(&self.0, Triangle::Upper, 1.0, r, z);
    }
}

#[test]
fn sgs_pcg_takes_the_textbook_iteration_count() {
    let t = gen::grid3d_7pt(16, 16, 16);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
    let opts = CgOptions { max_iters: 200, rel_tol: 1e-8 };
    let ctx = ExecCtx::default();
    let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
    let ours = cg(&a, &SymGs::new(a.clone(), &ctx).unwrap(), &b, &mut x1, opts, &ctx).unwrap();
    let textbook = cg(&a, &TextbookSgs(a.clone()), &b, &mut x2, opts, &ctx).unwrap();
    assert!(ours.converged && textbook.converged);
    assert_eq!(ours.iters, textbook.iters);
}

/// Random strictly-lower pattern with values drawn from a pool that
/// includes NaN and ±Inf; `dense_col` forces column 0 dense (a fat
/// fan-out that still levels as mostly-parallel), `empty_rows` knocks
/// whole rows out (unit-diagonal case only).
#[allow(clippy::too_many_arguments)]
fn build_lower(
    n: usize,
    masks: &[u32],
    vals_pick: &[u8],
    unit_diag: bool,
    dense_col: bool,
    empty_rows: bool,
) -> Csr {
    const POOL: [f64; 8] =
        [1.0, -2.5, 0.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.5, -0.125];
    let mut rowptr = vec![0usize];
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    let mut pick = vals_pick.iter().cycle();
    for (i, &mask) in masks.iter().enumerate().take(n) {
        let empty = empty_rows && unit_diag && mask & (1 << 30) != 0;
        if !empty {
            for j in 0..i {
                if (dense_col && j == 0) || mask & (1 << (j % 24)) != 0 {
                    colind.push(j);
                    vals.push(POOL[(*pick.next().unwrap() % 8) as usize]);
                }
            }
            if !unit_diag {
                colind.push(i);
                // The divisor: keep it finite and nonzero so the NaN/Inf
                // chaos stays in the numerators.
                vals.push(2.0 + (i % 3) as f64);
            }
        }
        rowptr.push(colind.len());
    }
    let nnz = colind.len();
    Csr::from_raw(n, n, rowptr, colind, vals[..nnz].to_vec()).unwrap()
}

fn arb_lower_case() -> impl Strategy<Value = (Csr, bool)> {
    (2usize..28, 0usize..8).prop_flat_map(|(n, flags)| {
        (
            proptest::collection::vec(0u32..u32::MAX, n..=n),
            proptest::collection::vec(0u8..=255, 3 * n..=3 * n),
        )
            .prop_map(move |(masks, picks)| {
                let unit = flags & 1 != 0;
                (
                    build_lower(n, &masks, &picks, unit, flags & 2 != 0, flags & 4 != 0),
                    unit,
                )
            })
    })
}

/// A square operand for the zero-guess application, diagonally
/// dominant so the comparison with the textbook form is well
/// conditioned. `flags`: 1 = symmetric pattern, 2 = every row couples
/// to `i∓1` (the sweep's nearest dependency is the row just produced),
/// 4 = no row does (the nearest entry is loaded), 8 = some rows store
/// no diagonal and some nothing at all.
fn build_square(n: usize, masks: &[u32], flags: usize) -> Csr {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        if flags & 8 != 0 && masks[i] & (1 << 30) != 0 {
            continue;
        }
        let stored = |j: usize| match i.abs_diff(j) {
            1 if flags & 2 != 0 => true,
            1 if flags & 4 != 0 => false,
            _ if flags & 1 != 0 => masks[i.min(j)] & (1 << (i.max(j) % 24)) != 0,
            _ => masks[i] & (1 << (j % 24)) != 0,
        };
        let off: Vec<usize> = (0..n).filter(|&j| j != i && stored(j)).collect();
        for &j in &off {
            t.push(i, j, 1.0 - 0.25 * ((3 * i + j) % 7) as f64);
        }
        if flags & 8 == 0 || masks[i] & (1 << 29) == 0 {
            t.push(i, i, off.len() as f64 + 2.0 + 0.5 * (i % 3) as f64);
        }
    }
    Csr::from_triplets(&t)
}

fn arb_square() -> impl Strategy<Value = Csr> {
    (1usize..28, 0usize..16).prop_flat_map(|(n, flags)| {
        proptest::collection::vec(0u32..u32::MAX, n..=n).prop_map(move |masks| build_square(n, &masks, flags))
    })
}

/// `M⁻¹·r` the textbook way: zero guess, one general forward sweep, one
/// general backward sweep.
fn textbook_ssor(a: &Csr, omega: f64, r: &[f64]) -> Vec<f64> {
    let mut z = vec![0.0; r.len()];
    kernels::symgs_forward_csr(a, omega, r, &mut z);
    kernels::symgs_backward_csr(a, omega, r, &mut z);
    z
}

/// One case of `split_operator_is_eisenstats_form_on_both_tiers`:
/// `a` split for weight `omega`, when that split is exact.
fn split_operator_case(a: &Csr, omega: f64) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = a.nrows();
    let split = SweepSplit::of(a, omega).unwrap();
    prop_assume!(split.is_exact());
    let rhat: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) / 4.0 - 2.0).collect();
    let p0: Vec<f64> = (0..n).map(|i| ((i * 5 % 7) as f64) / 3.0 - 1.0).collect();
    let beta = 0.375;
    let mut runs = Vec::new();
    for ctx in [ExecCtx::default(), par_ctx()] {
        let eng = SymGsEngine::compile_in(a, &ctx).unwrap();
        let (mut p, mut t, mut u, mut w) = (p0.clone(), vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]);
        let step = SplitStep { r: &rhat, beta, p: &mut p, t: &mut t, u: &mut u, w: &mut w };
        let pq = eng.apply_split_operator(a, &split, step).unwrap();
        runs.push([p, t, u, w, vec![pq]].map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()));
    }
    prop_assert_eq!(&runs[0], &runs[1]);
    let [p, t, u, w, pq] = runs.swap_remove(0).map(|v| v.into_iter().map(f64::from_bits).collect::<Vec<_>>());
    let d: Vec<f64> = (0..n).map(|i| a.row_vals(i)[a.row_cols(i).iter().position(|&j| j == i).unwrap()]).collect();
    let want_p: Vec<f64> = (0..n).map(|i| (2.0 - omega) * rhat[i] + beta * p0[i]).collect();
    let phat: Vec<f64> = (0..n).map(|i| d[i] / omega * p[i]).collect();
    let mul = |v: &[f64]| {
        let mut y = vec![0.0; n];
        kernels::spmv_csr(a, v, &mut y);
        y
    };
    let sweep = |forward: bool, v: &[f64]| {
        let mut z = vec![0.0; n];
        if forward { kernels::symgs_forward_csr(a, omega, v, &mut z) } else { kernels::symgs_backward_csr(a, omega, v, &mut z) }
        z
    };
    let want_t = sweep(false, &phat);
    let want_q = sweep(true, &mul(&want_t));
    let q: Vec<f64> = t.iter().zip(&u).map(|(t, u)| t + u).collect();
    let close = |got: &[f64], want: &[f64]| {
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
        norm(&mut got.iter().zip(want).map(|(g, w)| g - w)) <= 1e-12 * norm(&mut want.iter().copied()).max(1.0)
    };
    prop_assert!(close(&p, &want_p));
    prop_assert!(close(&t, &want_t));
    prop_assert!(close(&q, &want_q));
    prop_assert!(close(&w, &mul(&t)));
    let want_pq: f64 = phat.iter().zip(&want_q).map(|(p, q)| p * q).sum();
    prop_assert!((pq[0] - want_pq).abs() <= 1e-12 * phat.iter().zip(&want_q).map(|(p, q)| (p * q).abs()).sum::<f64>().max(1.0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Level-parallel SpTRSV is bitwise-identical to the serial sweep,
    /// NaN payloads and infinities included, on whatever tier the gate
    /// chain grants.
    #[test]
    fn par_sptrsv_bitwise_equals_serial((a, unit) in arb_lower_case()) {
        let n = a.nrows();
        let op = TriangularOp::Lower { unit_diag: unit };
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 3.0 - 2.0).collect();
        let se = SptrsvEngine::compile_in(&a, op, &ExecCtx::default()).unwrap();
        let pe = SptrsvEngine::compile_in(&a, op, &par_ctx()).unwrap();
        let (mut xs, mut xp) = (vec![0.0; n], vec![0.0; n]);
        se.run(&a, &b, &mut xs).unwrap();
        pe.run(&a, &b, &mut xp).unwrap();
        for (p, q) in xs.iter().zip(&xp) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// Same for the symmetric Gauss-Seidel sweeps (symmetrized-pattern
    /// schedule): forward + backward, weighted and unweighted.
    #[test]
    fn par_symgs_bitwise_equals_serial(((a, _), omega) in (arb_lower_case(), 0usize..2)) {
        let n = a.nrows();
        let omega = [1.0, 1.4][omega];
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let se = SymGsEngine::compile_in(&a, &ExecCtx::default()).unwrap();
        let pe = SymGsEngine::compile_in(&a, &par_ctx()).unwrap();
        let (mut xs, mut xp) = (vec![1.0; n], vec![1.0; n]);
        se.sweep_forward(&a, omega, &b, &mut xs).unwrap();
        se.sweep_backward(&a, omega, &b, &mut xs).unwrap();
        pe.sweep_forward(&a, omega, &b, &mut xp).unwrap();
        pe.sweep_backward(&a, omega, &b, &mut xp).unwrap();
        for (p, q) in xs.iter().zip(&xp) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// SSOR preconditioning is tier-independent end to end: the
    /// wrapped engine applies `M⁻¹` bitwise-identically under a real
    /// thread pool.
    #[test]
    fn ssor_precondition_bitwise_tier_independent((a, _) in arb_lower_case()) {
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) / 4.0 - 2.0).collect();
        let serial = SymGs::new(a.clone(), &ExecCtx::default()).unwrap();
        let par = SymGs::new(a, &par_ctx()).unwrap();
        let (mut zs, mut zp) = (vec![0.0; n], vec![0.0; n]);
        serial.precondition(&r, &mut zs);
        par.precondition(&r, &mut zp);
        for (p, q) in zs.iter().zip(&zp) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// `SymGs::precondition` — one pass over each pre-scaled strict
    /// triangle — is the textbook zero-guess application to 8 ulp
    /// normwise, on both tiers, whatever the previous contents of `z`.
    #[test]
    fn split_ssor_matches_the_textbook_application((a, omega) in (arb_square(), 0usize..2)) {
        let (n, omega) = (a.nrows(), [1.0, 1.3][omega]);
        let r: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) / 4.0 - 2.0).collect();
        let want = textbook_ssor(&a, omega, &r);
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for ctx in [ExecCtx::default(), par_ctx()] {
            let pre = SymGs::with_omega(a.clone(), omega, &ctx).unwrap();
            let mut z = vec![f64::NAN; n];
            pre.precondition(&r, &mut z);
            let diff: Vec<f64> = z.iter().zip(&want).map(|(p, q)| p - q).collect();
            prop_assert!(norm(&diff) <= 8.0 * f64::EPSILON * norm(&want), "{} of {}", norm(&diff), norm(&want));
        }
    }

    /// One step of Eisenstat's form (`SymGsEngine::apply_split_operator`)
    /// is bitwise the same on both tiers, and is the textbook operator:
    /// `t = M₂⁻¹·p̂`, `t + u = M₁⁻¹·A·M₂⁻¹·p̂` and `w = A·t` through the
    /// general sweeps and SpMV, and `⟨p̂, t + u⟩`, where `p̂ = (D/ω)·p̃`
    /// after the head `p̃ ← (2−ω)·r̂ + β·p̃`. Besides a random square,
    /// most cases first run a grid (5-point 2-D, 7-point 3-D, 9-point
    /// 2-D, or 3-D with 2 unknowns a point), whose split is always exact,
    /// so a random square rejected as inexact never skips the grid.
    #[test]
    fn split_operator_is_eisenstats_form_on_both_tiers((a, omega, grid) in (arb_square(), 0usize..2, 0usize..5)) {
        let grid = [None, Some(gen::grid2d_5pt(6, 5)), Some(gen::grid3d_7pt(4, 4, 3)), Some(gen::grid2d_9pt(6, 5)), Some(gen::fem_grid_3d(3, 3, 2, 2))][grid].take();
        for a in grid.map(|t| Csr::from_triplets(&t)).into_iter().chain(std::iter::once(a)) {
            split_operator_case(&a, [1.0, 1.3][omega])?;
        }
    }

    /// A NaN or an infinity stored anywhere in the operand is never
    /// scaled or skipped away: it reaches `z` whenever it reaches the
    /// textbook application's result.
    #[test]
    fn split_ssor_propagates_non_finite_values((a, at, poison) in (arb_square(), 0usize..1000, 0usize..3)) {
        prop_assume!(a.nnz() > 0);
        let (n, at, mut a) = (a.nrows(), at % a.nnz(), a);
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison];
        a.vals_mut()[at] = poison;
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let reached = |z: &[f64]| z.iter().any(|v| !v.is_finite());
        let mut z = vec![0.0; n];
        SymGs::new(a.clone(), &ExecCtx::default()).unwrap().precondition(&r, &mut z);
        prop_assert_eq!(reached(&z), reached(&textbook_ssor(&a, 1.0, &r)));
        prop_assert!(reached(&z) || !poison.is_nan());
    }
}

/// `second` rebuilt in `first`'s buffers: the same addresses and
/// lengths, another pattern — what an allocator may hand out once
/// `first` is dropped, made deterministic.
fn in_buffers_of(first: Csr, second: &Csr) -> Csr {
    let old = (first.rowptr().as_ptr(), first.colind().as_ptr());
    let (mut rowptr, mut colind, mut vals) = first.into_raw();
    rowptr.clear();
    rowptr.extend_from_slice(second.rowptr());
    colind.clear();
    colind.extend_from_slice(second.colind());
    vals.clear();
    vals.extend_from_slice(second.vals());
    let rebuilt = Csr::from_raw_unchecked(second.nrows(), second.ncols(), rowptr, colind, vals);
    assert_eq!((rebuilt.rowptr().as_ptr(), rebuilt.colind().as_ptr()), old);
    rebuilt
}

/// Regression at the public kernel API: a wave certified for one
/// pattern, handed to the parallel kernels with another pattern rebuilt
/// in the same buffers, must fall back to the serial sweep — the
/// certificate's own binding refuses the recycled address.
#[test]
fn stale_wave_never_survives_reallocation_at_the_kernel_api() {
    let exec = par_ctx();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let wave_of = |a: &Csr, relation| {
        certify_wavefront(a.nrows(), a.rowptr(), a.colind(), a.index_digest(), relation, None).unwrap()
    };

    // The solve: same order and nnz, another dependence pattern.
    let (g, h) = (lower_of(&gen::grid2d_5pt(6, 5), 0.25), lower_of(&gen::grid2d_5pt(5, 6), 0.25));
    assert_eq!((g.nrows(), g.nnz()), (h.nrows(), h.nnz()));
    let n = g.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
    let lower = Relation::Solve(Triangle::Lower);
    let (sched, cert) = wave_of(&g, lower);
    let other = in_buffers_of(g, &h);
    let (mut x, mut want) = (vec![0.0; n], vec![0.0; n]);
    par_kernels::par_sptrsv_csr(&other, Triangle::Lower, false, &b, &mut x, (&sched, &cert), &exec);
    kernels::sptrsv_csr(&other, Triangle::Lower, false, &b, &mut want);
    assert_eq!(bits(&x), bits(&want), "solve");

    // The split SSOR application, along a stale Gauss-Seidel wave.
    let (g, h) = (Csr::from_triplets(&gen::grid2d_5pt(5, 4)), Csr::from_triplets(&gen::grid2d_5pt(4, 5)));
    assert_eq!((g.nrows(), g.nnz()), (h.nrows(), h.nnz()));
    let n = g.nrows();
    let (sched, cert) = wave_of(&g, Relation::GaussSeidel);
    let other = in_buffers_of(g, &h);
    let split = SweepSplit::of(&other, 1.0).unwrap();
    let r: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
    let (mut z, mut want) = (vec![0.0; n], vec![0.0; n]);
    par_kernels::split_ssor(&other, &split, &r, &mut z, Some((&sched, &cert)), &exec);
    par_kernels::split_ssor(&other, &split, &r, &mut want, None, &exec);
    assert_eq!(bits(&z), bits(&want), "split SSOR");

    // And one step of Eisenstat's form over the same split.
    let step = |wave| {
        let mut v = [r.clone(), vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let [p, t, u, w] = &mut v;
        let pq = par_kernels::split_operator(&other, &split, SplitStep { r: &r, beta: 0.5, p, t, u, w }, wave, &exec);
        (v.map(|v| bits(&v)), pq.to_bits())
    };
    assert_eq!(step(Some((&sched, &cert))), step(None), "split operator");
}
