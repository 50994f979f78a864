//! Wavefront (DO-ACROSS) integration: the dependence analysis licenses
//! the level-parallel SpTRSV/SymGS tier, the obs stream shows both the
//! grant and every refusal, and — the acceptance bar — the parallel
//! tier is *bitwise* identical to the serial sweeps over adversarial
//! inputs (empty rows, dense columns, NaN/Inf values), because a
//! level schedule permutes waves, never the operations within a row.

use bernoulli::{ExecCtx, Reason, SptrsvEngine, Strategy as Tier, SymGsEngine, TriangularOp, MIN_MEAN_LEVEL_WIDTH};
use bernoulli_analysis::wavefront::{analyze_wavefront, Triangle};
use bernoulli_formats::{gen, Csr, Triplets};
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

    let eng =
        SptrsvEngine::compile_in(&full, TriangularOp::Lower { unit_diag: false }, &par_ctx())
            .unwrap();
    assert_eq!(eng.strategy(), Tier::Specialized);
    assert_eq!(eng.downgrade(), Reason::NotTriangular);
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
    Csr::from_raw(n, n, rowptr, colind, vals[..nnz].to_vec())
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
}
