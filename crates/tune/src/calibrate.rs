//! Measured calibration: stop trusting the static cost model, time the
//! candidates on the operand that will actually be solved.
//!
//! kease's `kernel_tuner` benchmarks kernel variants on the real
//! operand instead of ranking them by a model; SpComp compiles per
//! sparsity structure. This module is the runtime analogue: compile
//! each candidate execution tier for the operand, run it a few times,
//! and record the static estimate *next to* the measurement through
//! the obs `calibrations` stream — so the cost model is auditable
//! per structure, and the [`PlanCache`](crate::cache::PlanCache) can
//! replay the *measured* winner instead of the model's guess.
//!
//! Candidates for SpMV:
//!
//! * `interpreted` — the general plan interpreter (specialization off);
//! * `reference` — the safe specialized kernel (fast tier off);
//! * `fast` — the certified bounds-check-free microkernel tier,
//!   included only when the sanitizer actually certifies the operand.
//!
//! Every candidate is deterministic and numerically equivalent: the
//! tiers agree to rounding (the fast tier's lane-split accumulation
//! reassociates row sums, so it is not *bitwise* equal to the scalar
//! tiers), and replaying the chosen tier is bitwise reproducible run
//! to run. Calibration chooses among *speeds*, never among *answers* —
//! which is what makes measuring on the live operand safe to do in
//! production.

use std::time::Instant;

use bernoulli::engines::SpmvEngine;
use bernoulli::pipeline::OpHints;
use bernoulli_formats::{ExecCtx, SparseMatrix};
use bernoulli_obs::events::CalibrationEvent;
use bernoulli_obs::Obs;
use bernoulli_relational::error::RelResult;

use crate::key::{structure_key, StructureKey};

/// One candidate's estimate-vs-measurement pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Candidate name (`interpreted`, `reference`, `fast`).
    pub candidate: String,
    /// The planner's cost-model estimate for the candidate's plan.
    /// Identical across tiers of the same plan — exactly the blind
    /// spot the measurement column exposes.
    pub est_cost: f64,
    /// Minimum wall time of one `y += A·x` over the timed repetitions,
    /// in nanoseconds.
    pub measured_ns: u64,
    /// Timed repetitions aggregated into the minimum.
    pub reps: u64,
}

/// The result of calibrating one operation on one operand.
#[derive(Clone, Debug)]
pub struct CalibrationOutcome {
    /// The operand's structure key (what the verdict is filed under).
    pub structure: StructureKey,
    /// The winning candidate (lowest measured time).
    pub chosen: String,
    /// All candidates, in measurement order.
    pub measurements: Vec<Measurement>,
    /// The winning engine's replayable verdict — what a plan cache
    /// stores so warm compiles reproduce the measured-best tier.
    pub hints: OpHints,
}

/// Micro-benchmark the SpMV candidates on `a` and record every
/// estimate/measurement pair through `ctx`'s obs `calibrations`
/// stream. `reps` timed repetitions per candidate (clamped to ≥ 1),
/// preceded by one untimed warm-up run; the minimum is recorded to
/// suppress scheduling noise. Candidate compiles run against a
/// detached obs handle so only the calibration records — not three
/// spurious plan events — land in the caller's report.
pub fn calibrate_spmv(
    a: &SparseMatrix,
    ctx: &ExecCtx,
    reps: u64,
) -> RelResult<CalibrationOutcome> {
    let reps = reps.max(1);
    let key = structure_key(a);
    let n = a.nrows();
    let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 11) as f64 * 0.125).collect();
    let mut y = vec![0.0; n];

    let candidates: [(&str, ExecCtx); 3] = [
        ("interpreted", ctx.clone().specialization(false)),
        ("reference", ctx.clone().specialization(true).fast_kernels(false)),
        ("fast", ctx.clone().specialization(true).fast_kernels(true)),
    ];

    let mut results: Vec<(Measurement, SpmvEngine)> = Vec::new();
    for (name, cctx) in candidates {
        // Detached handle: harvest the plan's est_cost without
        // polluting the caller's plans stream.
        let scratch = Obs::enabled();
        let engine = SpmvEngine::compile_in(a, &cctx.instrument(scratch.clone()))?;
        if name == "fast" && engine.tier() != "fast" {
            // The sanitizer refused the fast tier for this operand (or
            // the format has no fast kernel): nothing distinct to time.
            continue;
        }
        let est_cost = scratch.report().plans.first().map_or(0.0, |p| p.est_cost);
        // Untimed warm-up, then min-of-reps.
        y.fill(0.0);
        engine.run(a, &x, &mut y)?;
        let mut best = u64::MAX;
        for _ in 0..reps {
            y.fill(0.0);
            let t0 = Instant::now();
            engine.run(a, &x, &mut y)?;
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        results.push((
            Measurement {
                candidate: name.to_string(),
                est_cost,
                measured_ns: best.max(1),
                reps,
            },
            engine,
        ));
    }

    let winner = results
        .iter()
        .enumerate()
        .min_by_key(|(_, (m, _))| m.measured_ns)
        .map(|(i, _)| i)
        .expect("reference and interpreted candidates always compile");
    let chosen = results[winner].0.candidate.clone();
    let hints = results[winner].1.hints();

    for (m, _) in &results {
        let (m, chosen_flag) = (m.clone(), m.candidate == chosen);
        ctx.obs().calibration(|| CalibrationEvent {
            op: "spmv".to_string(),
            structure: key.hex(),
            candidate: m.candidate.clone(),
            est_cost: m.est_cost,
            measured_ns: m.measured_ns,
            reps: m.reps,
            chosen: chosen_flag,
        });
    }

    Ok(CalibrationOutcome {
        structure: key,
        chosen,
        measurements: results.into_iter().map(|(m, _)| m).collect(),
        hints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_formats::FormatKind;

    #[test]
    fn every_record_carries_estimate_and_measurement() {
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &grid2d_5pt(8, 8));
        let obs = Obs::enabled();
        let ctx = ExecCtx::serial().instrument(obs.clone());
        let out = calibrate_spmv(&a, &ctx, 3).unwrap();
        // CSR certifies, so all three candidates are present.
        let names: Vec<_> = out.measurements.iter().map(|m| m.candidate.as_str()).collect();
        assert_eq!(names, ["interpreted", "reference", "fast"]);
        let r = obs.report();
        assert_eq!(r.calibrations.len(), 3);
        assert_eq!(r.calibrations.iter().filter(|c| c.chosen).count(), 1);
        for c in &r.calibrations {
            assert!(c.est_cost.is_finite() && c.est_cost > 0.0, "{c:?}");
            assert!(c.measured_ns >= 1 && c.reps == 3, "{c:?}");
            assert_eq!(c.structure, out.structure.hex());
        }
        // No plan events leaked from the candidate compiles.
        assert!(r.plans.is_empty(), "{:?}", r.plans);
        r.validate().unwrap();
        // The winner's hints replay its tier.
        assert_eq!(out.hints.fast_eligible, out.chosen == "fast");
    }

    #[test]
    fn fast_candidate_skipped_when_format_has_no_fast_kernel() {
        // JDiag has no fast-tier kernel: only two candidates run.
        let a = SparseMatrix::from_triplets(FormatKind::JDiag, &grid2d_5pt(6, 6));
        let ctx = ExecCtx::serial();
        let out = calibrate_spmv(&a, &ctx, 2).unwrap();
        let names: Vec<_> = out.measurements.iter().map(|m| m.candidate.as_str()).collect();
        assert_eq!(names, ["interpreted", "reference"]);
        assert!(!out.hints.fast_eligible);
    }
}
