//! The op dispatch registry: a matrix population, a shared
//! [`PlanCache`], and one uniform `submit` front door.
//!
//! A [`Dispatcher`] is the runtime face of the unified compilation
//! core: callers [`register`](Dispatcher::register) the matrices they
//! own once, then push a stream of [`OpSpec`] requests against the
//! resulting [`MatrixId`]s. Every submit compiles through the shared
//! plan cache — the first request per `(structure, op)` pays the cold
//! planner/wavefront cost, every repeat replays the cached verdict
//! through the engines' hint seam (bitwise-identical results, all
//! soundness gates re-applied) — then runs and returns the result.
//!
//! Per-op wall time is recorded through the context's obs under
//! `dispatch.<op tag>` spans (`dispatch.spmv`, `dispatch.spmv.min_plus`,
//! `dispatch.sptrsv.lower`, ...), so a `bernoulli.profile/v2` report shows the
//! request mix and latency next to the `strategies` records the
//! compiles themselves emit. Warm-cache effectiveness is the cache's
//! own hit/miss counters, surfaced via [`Dispatcher::stats`].

use std::time::Instant;

use bernoulli::pipeline::{OpSpec, Operands};
use bernoulli_formats::{Csr, ExecCtx, FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::error::{RelError, RelResult};
use bernoulli_relational::semiring::{F64Plus, MinPlus, Semiring};

use crate::cache::{CacheStats, PlanCache};

/// Handle for a registered matrix (index into the dispatcher's
/// population; valid for the dispatcher that issued it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatrixId(usize);

/// Counters for the submit stream (cache counters live in
/// [`CacheStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Requests accepted by [`submit`](Dispatcher::submit).
    pub submitted: u64,
    /// Cache counters at the time of the stats call.
    pub cache: CacheStats,
}

impl DispatchStats {
    /// Fraction of compiles served warm, in `[0, 1]`. Zero when
    /// nothing cacheable has been submitted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }
}

/// A matrix population plus the shared plan cache and execution
/// context they compile under.
pub struct Dispatcher {
    cache: PlanCache,
    ctx: ExecCtx,
    /// Every operand is stored once, as CSR: the multiply family takes
    /// the [`SparseMatrix`], the wavefront ops borrow the [`Csr`]
    /// inside it.
    matrices: Vec<SparseMatrix>,
    submitted: u64,
}

impl Dispatcher {
    /// An empty registry compiling under `ctx` with a cold cache.
    pub fn new(ctx: ExecCtx) -> Dispatcher {
        Dispatcher::with_cache(ctx, PlanCache::new())
    }

    /// Same, but seeded with a pre-warmed (for example, reloaded)
    /// cache.
    pub fn with_cache(ctx: ExecCtx, cache: PlanCache) -> Dispatcher {
        Dispatcher { cache, ctx, matrices: Vec::new(), submitted: 0 }
    }

    /// Add a matrix to the population. Registration canonicalizes the
    /// triplets into CSR once; submits against the id never
    /// re-convert.
    pub fn register(&mut self, t: &Triplets) -> MatrixId {
        let id = MatrixId(self.matrices.len());
        self.matrices.push(SparseMatrix::from_triplets(FormatKind::Csr, t));
        id
    }

    /// The registered operand, or [`RelError::Validation`] for an id
    /// this dispatcher never issued.
    pub fn matrix(&self, id: MatrixId) -> RelResult<&SparseMatrix> {
        self.matrices
            .get(id.0)
            .ok_or_else(|| RelError::Validation(format!("unregistered matrix id {id:?}")))
    }

    /// The shared plan cache (for persistence or direct inspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Submit counters plus the cache's hit/miss state.
    pub fn stats(&self) -> DispatchStats {
        DispatchStats { submitted: self.submitted, cache: self.cache.stats() }
    }

    /// Run one vector op against a registered matrix and return the
    /// fresh result vector. The compile goes through the plan cache;
    /// wall time (compile + run) lands on the `dispatch.<op>` span.
    ///
    /// Result conventions: the multiply family starts from the
    /// algebra's ⊕-identity (so the result is exactly `A·x` /
    /// `A ⊗ x`); the solves start from a zero guess. An `rhs` of the
    /// wrong length for the op is refused ([`RelError::Validation`]).
    pub fn submit(&mut self, id: MatrixId, spec: OpSpec, rhs: &[f64]) -> RelResult<Vec<f64>> {
        let a = self.matrix(id)?;
        let operands = match spec {
            OpSpec::Sptrsv { .. } | OpSpec::Symgs => Operands::Tri(csr_of(a)),
            _ => Operands::Mat(a),
        };
        let out = execute(&self.cache, &self.ctx, spec, operands, rhs)?;
        self.submitted += 1;
        Ok(out)
    }

}

/// The CSR inside a registered operand ([`Dispatcher::register`]
/// builds nothing else).
fn csr_of(m: &SparseMatrix) -> &Csr {
    match m {
        SparseMatrix::Csr(c) => c,
        _ => unreachable!("the dispatcher registers CSR operands only"),
    }
}

/// One request, start to finish: resolve the spec's algebra name to
/// its semiring type — the only per-op knowledge left here — run it,
/// and, when the context's obs is enabled, time it onto the
/// `dispatch.<op>` span (a disabled obs costs no clock read and no
/// allocation).
fn execute(
    cache: &PlanCache,
    ctx: &ExecCtx,
    spec: OpSpec,
    operands: Operands<'_>,
    rhs: &[f64],
) -> RelResult<Vec<f64>> {
    let obs = ctx.obs();
    let t0 = obs.is_enabled().then(Instant::now);
    let kind = spec.kind();
    let run = match kind.algebra() {
        F64Plus::NAME => run_as::<F64Plus>,
        MinPlus::NAME => run_as::<MinPlus>,
        other => {
            return Err(RelError::Validation(format!(
                "dispatcher: serves no semiring named {other:?}"
            )))
        }
    };
    let out = run(cache, ctx, spec, operands, rhs)?;
    if let Some(t0) = t0 {
        obs.span_ns(&format!("dispatch.{}", kind.tag()), t0.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

/// Compile through the cache, then run into a fresh ⊕-identity buffer
/// of the length the compile derived from the operand.
fn run_as<S: Semiring>(
    cache: &PlanCache,
    ctx: &ExecCtx,
    spec: OpSpec,
    operands: Operands<'_>,
    rhs: &[f64],
) -> RelResult<Vec<f64>> {
    let op = cache.compile::<S>(spec, operands, ctx)?;
    let mut out = vec![S::zero(); op.io_lens().1];
    op.run::<S>(operands, rhs, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli::TriangularOp;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_obs::Obs;

    fn lower_of(t: &Triplets, n: usize) -> Triplets {
        let mut lt = Triplets::new(n, n);
        for &(r, c, v) in t.canonicalize().entries() {
            if c <= r {
                lt.push(r, c, if c == r { 4.0 } else { v });
            }
        }
        lt
    }

    #[test]
    fn mixed_stream_hits_warm_after_first_round() {
        let obs = Obs::enabled();
        // Force a real pool and a zero size gate so the wavefront ops
        // arm (and therefore cache) their schedules.
        let ctx = ExecCtx::with_threads(2)
            .oversubscribe(true)
            .threshold(1)
            .instrument(obs.clone())
            .fast_kernels(true);
        let mut d = Dispatcher::new(ctx);
        let t = grid2d_5pt(8, 8);
        let full = d.register(&t);
        let lower = d.register(&lower_of(&t, 64));
        let rhs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).sin()).collect();

        let specs = [
            OpSpec::Spmv,
            OpSpec::SemiringSpmv { algebra: "min_plus" },
            OpSpec::Symgs,
        ];
        let mut first: Vec<Vec<f64>> = Vec::new();
        for round in 0..5 {
            for (i, &s) in specs.iter().enumerate() {
                let y = d.submit(full, s, &rhs).unwrap();
                if round == 0 {
                    first.push(y);
                } else {
                    assert_eq!(
                        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        first[i].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "warm replay must be bitwise identical (spec {i})"
                    );
                }
            }
            let x = d
                .submit(lower, OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } }, &rhs)
                .unwrap();
            let multi = d.submit(full, OpSpec::SpmvMulti { k: 2 }, &[&rhs[..], &rhs[..]].concat()).unwrap();
            if round == 0 {
                first.extend([x, multi]);
            } else {
                assert_eq!((x, multi), (first[3].clone(), first[4].clone()));
            }
        }
        let s = d.stats();
        assert_eq!(s.submitted, 25);
        // 5 cacheable (structure, op) pairs → 5 misses, rest hits.
        // Symgs on this tiny serial ctx may stay serial (no schedules
        // cached) — so just bound the rate from below.
        assert!(s.hit_rate() >= 0.75, "hit rate {} stats {s:?}", s.hit_rate());
        // One latency span per op kind landed in the profile report,
        // beside the compiles' strategy provenance.
        let r = obs.report();
        for op in ["spmv", "spmv.min_plus", "spmv_multi", "sptrsv.lower", "symgs"] {
            assert_eq!(r.spans[&format!("dispatch.{op}")].calls, 5, "dispatch.{op}");
        }
        assert!(!r.strategies.is_empty());
        r.validate().unwrap();
    }

    #[test]
    fn bad_requests_are_refused() {
        let mut d = Dispatcher::new(ExecCtx::serial());
        let t = grid2d_5pt(4, 4);
        let a = d.register(&t);
        let rhs = vec![1.0; 16];

        // An algebra the dispatcher does not serve: refused.
        assert!(d
            .submit(a, OpSpec::SemiringSpmv { algebra: "bool_or_and" }, &rhs)
            .is_err());

        // A foreign id is a Validation error on every entry point.
        let foreign = MatrixId(99);
        let is_validation = |r: RelResult<Vec<f64>>| matches!(r, Err(RelError::Validation(_)));
        assert!(is_validation(d.submit(foreign, OpSpec::Spmv, &rhs)));
        assert!(matches!(d.matrix(foreign), Err(RelError::Validation(_))));
        assert_eq!(d.matrix(a).unwrap().nrows(), 16);

        // A short or long rhs is refused up front for all five vector
        // specs (the kernels would assert), and the right length still
        // goes through afterwards.
        let k = 2;
        let l = d.register(&lower_of(&t, 16));
        let vector_specs = [
            (a, OpSpec::Spmv, 16),
            (a, OpSpec::SpmvMulti { k }, 16 * k),
            (a, OpSpec::SemiringSpmv { algebra: "min_plus" }, 16),
            (l, OpSpec::Sptrsv { op: TriangularOp::Lower { unit_diag: false } }, 16),
            (a, OpSpec::Symgs, 16),
        ];
        for (id, spec, len) in vector_specs {
            for bad in [len - 1, len + 1, 0] {
                let r = d.submit(id, spec, &vec![1.0; bad]);
                assert!(is_validation(r), "{spec:?} accepted an rhs of {bad}, wants {len}");
            }
            assert_eq!(d.submit(id, spec, &vec![1.0; len]).unwrap().len(), len, "{spec:?}");
        }
        assert_eq!(d.stats().submitted, 5, "refused requests are not counted");
    }
}
