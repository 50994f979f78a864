//! DO-ACROSS engine facades: certified level-scheduled triangular
//! solve and symmetric Gauss-Seidel sweeps.
//!
//! The DO-ANY engines in [`crate::engines`] gate `Strategy::Parallel`
//! on the race checker; the sweep nests here are *provably refused* by
//! that checker (BA01/BA02 — the solution vector is assigned per row
//! and read across rows), and rightly so under any-order execution.
//! These engines route through the `bernoulli-analysis` **wavefront
//! pass** instead: at compile time the loop-carried dependence DAG is
//! read off the operand's sparsity structure, its level sets are
//! computed, and the parallel tier is granted only when
//!
//! 1. the **independent** BA4x schedule verifier accepts the schedule
//!    (the `plan_verify` pattern: never trust the producer) and the
//!    pass issues an unforgeable `WavefrontCert` for the op's relation
//!    over the operand's own index arrays, and
//! 2. the schedule has enough parallelism per wave to pay for
//!    dispatch ([`MIN_MEAN_LEVEL_WIDTH`]).
//!
//! That whole gate chain lives in [`crate::pipeline`]
//! (`wave_decision`), shared with the DO-ANY ops; the two types here
//! are [`Engine`] facades exactly like the DO-ANY ones — an `OpSpec`
//! and typed run calls over a [`crate::pipeline::CompiledOp`], whose
//! `strategy`, `downgrade`, `schedule` and `hints` are reached through
//! `Deref`. A level schedule replayed from a structure cache goes in
//! through [`crate::pipeline::compile`]'s `hints`: it skips the level
//! computation but none of the gates — the BA4x verifier re-certifies
//! it against this operand before the parallel tier arms, else
//! [`Reason::ScheduleRejected`](crate::pipeline::Reason::ScheduleRejected).
//! Every downgrade records its reason from the unified
//! [`crate::pipeline::Reason`] vocabulary in the obs `strategies`
//! stream, together with the level count and max/mean level width, so
//! the decision is auditable. The serial tier is always available and
//! bit-identical to the parallel one (the level-parallel kernels
//! preserve each row's exact operation order), so a downgrade never
//! changes results.

use crate::engines::{Engine, OpFamily};
use crate::pipeline::{self, OpKind, OpSpec, Operands};
use bernoulli_formats::{Csr, ExecCtx};
use bernoulli_relational::error::RelResult;
use bernoulli_relational::semiring::F64Plus;

pub use crate::pipeline::{TriangularOp, MIN_MEAN_LEVEL_WIDTH};

/// Family markers of the two DO-ACROSS facades.
pub struct SptrsvOp;
pub struct SymGsOp;

impl OpFamily for SptrsvOp {
    fn admits(kind: OpKind) -> bool {
        matches!(kind, OpKind::SptrsvLower | OpKind::SptrsvUpper)
    }
}

impl OpFamily for SymGsOp {
    fn admits(kind: OpKind) -> bool {
        kind == OpKind::Symgs
    }
}

/// A compiled triangular-solve engine for one CSR factor.
///
/// Compile once per factor (the dependence analysis is O(nnz), like an
/// inspector), run many times. `run` re-checks the certificate against
/// the operand it is handed — a different matrix, or a tampered
/// schedule, silently falls back to the bit-identical serial kernel.
pub type SptrsvEngine = Engine<SptrsvOp>;

impl SptrsvEngine {
    /// Compile with the default (serial, unchecked) context.
    pub fn compile(a: &Csr, op: TriangularOp) -> RelResult<SptrsvEngine> {
        Self::compile_in(a, op, &ExecCtx::default())
    }

    /// Compile under an execution context: runs the wavefront
    /// dependence pass over `a`'s structure and decides the strategy
    /// through the full gate chain, recording the decision (with level
    /// statistics and any downgrade reason) in the obs `strategies`
    /// stream.
    pub fn compile_in(a: &Csr, op: TriangularOp, ctx: &ExecCtx) -> RelResult<SptrsvEngine> {
        pipeline::compile::<F64Plus>(OpSpec::Sptrsv { op }, Operands::Tri(a), ctx, None)?.try_into()
    }

    /// Solve the triangular system for `b` into `x`. Bitwise-identical
    /// results on every tier.
    pub fn run(&self, a: &Csr, b: &[f64], x: &mut [f64]) -> RelResult<()> {
        self.run_sptrsv(a, b, x)
    }
}

/// A compiled symmetric Gauss-Seidel sweep engine for one square CSR
/// matrix: [`sweep_forward`](pipeline::CompiledOp::sweep_forward),
/// [`sweep_backward`](pipeline::CompiledOp::sweep_backward) and
/// [`apply_ssor`](pipeline::CompiledOp::apply_ssor).
///
/// Gauss-Seidel rows carry dependences in *both* directions: row `i`
/// reads `x[j]` for every stored `A[i][j]` (flow, `j` earlier in sweep
/// order) and is read by row `j` for every stored `A[j][i]` (anti,
/// `j` later). The engine therefore schedules the relation
/// `struct(A) ∪ struct(Aᵀ)` — sound for any square `A`, read off `A`'s
/// own arrays — and, the relation being symmetric, one schedule serves
/// both sweeps: the backward one walks it last level first.
pub type SymGsEngine = Engine<SymGsOp>;

impl SymGsEngine {
    /// Compile with the default (serial, unchecked) context.
    pub fn compile(a: &Csr) -> RelResult<SymGsEngine> {
        Self::compile_in(a, &ExecCtx::default())
    }

    /// Compile under an execution context: certifies one Gauss-Seidel
    /// schedule for `a` and gates the parallel tier exactly like
    /// [`SptrsvEngine::compile_in`], recording one obs `strategies`
    /// event (op `symgs`) with its level statistics.
    pub fn compile_in(a: &Csr, ctx: &ExecCtx) -> RelResult<SymGsEngine> {
        pipeline::compile::<F64Plus>(OpSpec::Symgs, Operands::Tri(a), ctx, None)?.try_into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompiledOp, OpHints, Reason, Strategy};
    use bernoulli_analysis::wavefront::LevelSchedule;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_relational::error::RelError;
    use bernoulli_formats::kernels as ker;
    use bernoulli_formats::Triplets;

    fn lower_of_grid() -> Csr {
        let t = grid2d_5pt(12, 12);
        let lower: Vec<(usize, usize, f64)> = t
            .entries()
            .iter()
            .filter(|&&(i, j, _)| j <= i)
            .map(|&(i, j, v)| (i, j, if i == j { v } else { 0.25 * v }))
            .collect();
        Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &lower))
    }

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

    fn par_ctx() -> ExecCtx {
        ExecCtx::with_threads(2).oversubscribe(true).threshold(1)
    }

    /// Warm compile through the one entry point, replaying `schedule`
    /// the way a structure cache would hand it back.
    fn compile_warm<E: TryFrom<CompiledOp, Error = RelError>>(spec: OpSpec, a: &Csr, schedule: LevelSchedule) -> E {
        let hints = OpHints {
            strategy: Strategy::Specialized,
            plan_shape: "".into(),
            fast_eligible: false,
            fast_cert: None,
            schedule: Some(schedule),
        };
        pipeline::compile::<F64Plus>(spec, Operands::Tri(a), &par_ctx(), Some(&hints))
            .unwrap()
            .try_into()
            .unwrap()
    }

    fn raw_copy(s: &LevelSchedule) -> LevelSchedule {
        LevelSchedule::from_raw_unchecked(s.nrows(), s.rows().to_vec(), s.level_ptr().to_vec())
    }

    /// `second` rebuilt in `first`'s buffers: the same addresses and
    /// lengths, another pattern — the collision an allocator may hand
    /// out once `first` is dropped, made deterministic.
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

    #[test]
    fn grid_lower_goes_parallel_and_matches_serial_bitwise() {
        let l = lower_of_grid();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
        let eng =
            SptrsvEngine::compile_in(&l, TriangularOp::Lower { unit_diag: false }, &par_ctx())
                .unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel, "downgrade: {}", eng.downgrade());
        let mut x_par = vec![0.0; n];
        eng.run(&l, &b, &mut x_par).unwrap();
        let mut x_ser = vec![0.0; n];
        ker::sptrsv_csr_lower(&l, false, &b, &mut x_ser);
        assert_eq!(
            x_par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_ser.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chain_is_downgraded_as_too_narrow() {
        let l = chain(64);
        let eng =
            SptrsvEngine::compile_in(&l, TriangularOp::Lower { unit_diag: false }, &par_ctx())
                .unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
        assert_eq!(eng.downgrade(), Reason::LevelsTooNarrow);
    }

    #[test]
    fn symgs_parallel_sweeps_match_serial_bitwise() {
        let t = grid2d_5pt(11, 9);
        let a = Csr::from_triplets(&t);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
        let eng = SymGsEngine::compile_in(&a, &par_ctx()).unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel, "downgrade: {}", eng.downgrade());
        for omega in [1.0, 1.4] {
            let mut x_par = vec![0.0; n];
            eng.apply_ssor(&a, omega, &b, &mut x_par).unwrap();
            let mut x_ser = vec![0.0; n];
            ker::symgs_forward_csr(&a, omega, &b, &mut x_ser);
            ker::symgs_backward_csr(&a, omega, &b, &mut x_ser);
            assert_eq!(
                x_par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                x_ser.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "ω={omega}"
            );
        }
    }

    #[test]
    fn symgs_refuses_parallel_for_a_different_matrix() {
        let a = Csr::from_triplets(&grid2d_5pt(11, 9));
        let a2 = a.clone();
        let obs = bernoulli_obs::Obs::enabled();
        let eng = SymGsEngine::compile_in(&a, &par_ctx().instrument(obs.clone())).unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel);
        // A clone has different heap buffers: the operand fingerprint
        // rejects it and the sweep silently runs serial — results are
        // bitwise identical either way, only the tier changes.
        let n = a.nrows();
        let b = vec![1.0; n];
        let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
        eng.sweep_forward(&a, 1.0, &b, &mut x1).unwrap();
        eng.sweep_forward(&a2, 1.0, &b, &mut x2).unwrap();
        assert_eq!(x1, x2);
        // One sweep landed on each tier's kernel stream.
        let kernels = obs.report().kernels;
        assert_eq!(kernels.len(), 2, "{:?}", kernels.keys());
        assert_eq!(kernels["symgs_forward_csr"].calls, 1);
    }

    /// Regression: an armed plan must never transfer to a same-shape,
    /// different-pattern operand placed at the addresses of the one it
    /// was certified for — address + length alone accepted it and ran
    /// the wrong level schedule.
    #[test]
    fn armed_sweeps_never_survive_reallocation() {
        // Same order, same nnz, different dependence pattern.
        let (g, h) = (Csr::from_triplets(&grid2d_5pt(5, 4)), Csr::from_triplets(&grid2d_5pt(4, 5)));
        assert_eq!((g.nrows(), g.nnz()), (h.nrows(), h.nnz()));
        let n = g.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
        let obs = bernoulli_obs::Obs::enabled();
        let first = g.clone();
        let eng = SymGsEngine::compile_in(&first, &par_ctx().instrument(obs.clone())).unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel, "downgrade: {}", eng.downgrade());
        let other = in_buffers_of(first, &h);
        let (mut x, mut want) = (vec![0.0; n], vec![0.0; n]);
        eng.apply_ssor(&other, 1.0, &b, &mut x).unwrap();
        ker::symgs_forward_csr(&other, 1.0, &b, &mut want);
        ker::symgs_backward_csr(&other, 1.0, &b, &mut want);
        assert_eq!(x, want);
        let kernels = obs.report().kernels;
        assert_eq!(kernels.keys().collect::<Vec<_>>(), ["symgs_backward_csr", "symgs_forward_csr"]);
    }

    /// The same hole in the triangular solve, closed by the same plan.
    #[test]
    fn armed_solve_never_survives_reallocation() {
        let lower = |t: Triplets| {
            let e: Vec<_> = t.entries().iter().copied().filter(|&(i, j, _)| j <= i).collect();
            Csr::from_triplets(&Triplets::from_entries(t.nrows(), t.ncols(), &e))
        };
        let (g, h) = (lower(grid2d_5pt(6, 5)), lower(grid2d_5pt(5, 6)));
        assert_eq!((g.nrows(), g.nnz()), (h.nrows(), h.nnz()));
        let n = g.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
        let op = TriangularOp::Lower { unit_diag: false };
        let obs = bernoulli_obs::Obs::enabled();
        let first = g.clone();
        let eng = SptrsvEngine::compile_in(&first, op, &par_ctx().instrument(obs.clone())).unwrap();
        assert_eq!(eng.strategy(), Strategy::Parallel, "downgrade: {}", eng.downgrade());
        let other = in_buffers_of(first, &h);
        let (mut x, mut want) = (vec![0.0; n], vec![0.0; n]);
        eng.run(&other, &b, &mut x).unwrap();
        ker::sptrsv_csr_lower(&other, false, &b, &mut want);
        assert_eq!(x, want);
        assert_eq!(obs.report().kernels.keys().collect::<Vec<_>>(), ["sptrsv_csr_lower"]);
    }

    #[test]
    fn cached_schedule_replay_matches_cold_engine_bitwise() {
        let l = lower_of_grid();
        let n = l.nrows();
        let op = TriangularOp::Lower { unit_diag: false };
        let cold = SptrsvEngine::compile_in(&l, op, &par_ctx()).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        let s = cold.schedule().unwrap();
        // A cache replay rebuilds the schedule from raw parts; the
        // verifier re-checks it and arms parallel.
        let warm: SptrsvEngine = compile_warm(OpSpec::Sptrsv { op }, &l, raw_copy(s));
        assert_eq!(warm.strategy(), Strategy::Parallel, "downgrade: {}", warm.downgrade());
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
        let (mut x_cold, mut x_warm) = (vec![0.0; n], vec![0.0; n]);
        cold.run(&l, &b, &mut x_cold).unwrap();
        warm.run(&l, &b, &mut x_warm).unwrap();
        assert_eq!(
            x_cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // A forged cache entry is refused by the verifier and
        // downgraded — never raced.
        let mut rows = s.rows().to_vec();
        rows.swap(0, n - 1);
        let forged = LevelSchedule::from_raw_unchecked(n, rows, s.level_ptr().to_vec());
        let bad: SptrsvEngine = compile_warm(OpSpec::Sptrsv { op }, &l, forged);
        assert_eq!(bad.strategy(), Strategy::Specialized);
        assert_eq!(bad.downgrade(), Reason::ScheduleRejected);
        let mut x_bad = vec![0.0; n];
        bad.run(&l, &b, &mut x_bad).unwrap();
        assert_eq!(x_bad, x_cold, "serial fallback stays bit-identical");
    }

    #[test]
    fn symgs_cached_schedule_replays_bitwise() {
        let a = Csr::from_triplets(&grid2d_5pt(11, 9));
        let n = a.nrows();
        let cold = SymGsEngine::compile_in(&a, &par_ctx()).unwrap();
        assert_eq!(cold.strategy(), Strategy::Parallel);
        let s = cold.schedule().unwrap();
        let warm: SymGsEngine = compile_warm(OpSpec::Symgs, &a, raw_copy(s));
        assert_eq!(warm.strategy(), Strategy::Parallel, "downgrade: {}", warm.downgrade());
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 4.5).collect();
        let (mut x_cold, mut x_warm) = (vec![0.0; n], vec![0.0; n]);
        cold.apply_ssor(&a, 1.2, &b, &mut x_cold).unwrap();
        warm.apply_ssor(&a, 1.2, &b, &mut x_warm).unwrap();
        assert_eq!(
            x_cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The backward sweep's walk order handed in as the schedule
        // itself runs every dependence the wrong way — refused,
        // downgraded, still bit-identical.
        let levels: Vec<&[usize]> = (0..s.num_levels()).rev().map(|l| s.level(l)).collect();
        let level_ptr = std::iter::once(0).chain(levels.iter().scan(0, |end, l| {
            *end += l.len();
            Some(*end)
        }));
        let reversed = LevelSchedule::from_raw_unchecked(n, levels.concat(), level_ptr.collect());
        let swapped: SymGsEngine = compile_warm(OpSpec::Symgs, &a, reversed);
        assert_eq!(swapped.strategy(), Strategy::Specialized);
        assert_eq!(swapped.downgrade(), Reason::ScheduleRejected);
        let mut x_swapped = vec![0.0; n];
        swapped.apply_ssor(&a, 1.2, &b, &mut x_swapped).unwrap();
        assert_eq!(x_swapped, x_cold);
    }

    #[test]
    fn below_threshold_is_serial_with_no_downgrade_reason() {
        let l = chain(8);
        let eng = SptrsvEngine::compile_in(
            &l,
            TriangularOp::Lower { unit_diag: false },
            &ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(eng.strategy(), Strategy::Specialized);
        assert_eq!(eng.downgrade(), Reason::None);
    }

    #[test]
    fn non_square_is_refused() {
        let t = Triplets::from_entries(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let a = Csr::from_triplets(&t);
        assert!(SptrsvEngine::compile(&a, TriangularOp::Lower { unit_diag: false }).is_err());
        assert!(SymGsEngine::compile(&a).is_err());
    }
}
