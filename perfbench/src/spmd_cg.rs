//! `spmd_cg`: one request is ten CG iterations (the paper's Table-2
//! count) on a 20³ grid with 5 unknowns per point (40k rows, 1.3M
//! nonzeros) over a pooled machine of two ranks, block distribution,
//! the mixed local/global executor (eq. 24), diagonal preconditioner.
//!
//! Why: the paper's headline path. `spmd::{machine, inspector,
//! executor}` and `core::spmd` do the work and no other workload
//! touches them. The network is ideal: the modelled networks sleep and
//! spin, which would measure the scheduler. At the paper's 900 rows
//! per rank a solve is mostly thread wake-ups; at 0.6M nonzeros per
//! rank an iteration is long enough to measure the program.

use crate::host::{self, ProbeTime};
use crate::inputs::{perturb, vector, Rng};
use crate::oracle;
use crate::rounds::{self, Metric, Workload};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use bernoulli::spmd::{fragment_matrix, to_mixed_spec, CompiledMixed, CompiledNaive, GlobalFragment, MixedSpec};
use bernoulli_formats::gen::fem_grid_3d;
use bernoulli_formats::{kernels, Triplets};
use bernoulli_solvers::vecops::{axpy, dot, xpby};
use bernoulli_solvers::{cg_parallel, CgOptions, DiagonalPreconditioner, Preconditioner};
use bernoulli_spmd::dist::{BlockDist, Distribution};
use bernoulli_spmd::machine::{Ctx, PooledMachine, TrafficStats};
use std::sync::Mutex;
use std::time::Instant;

const GRID: usize = 20;
const DOF: usize = 5;
const RANKS: usize = 2;
const ITERS: usize = 10;
/// Right-hand sides the requests draw from.
const RHS_POOL: usize = 4;
/// Accepted distance of a residual history from the sequential
/// reference, relative to the initial residual.
const HISTORY_TOL: f64 = 1e-9;
/// Collective calls timed in one batch of a traced run.
const COLLECTIVE_REPS: usize = 2000;
/// Repetitions of the inspector, naive and one-rank probes.
const PROBE_REPS: usize = 5;

enum Engine {
    Mixed(CompiledMixed),
    Naive(CompiledNaive),
}

impl Engine {
    fn execute(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        match self {
            Engine::Mixed(e) => e.execute(ctx, x, y),
            Engine::Naive(e) => e.execute(ctx, x, y),
        }
    }
}

struct Rank {
    frag: GlobalFragment,
    spec: MixedSpec,
    rhs: Vec<Vec<f64>>,
    pc: DiagonalPreconditioner,
    /// Set by the inspector. Locked by its own rank only.
    engine: Mutex<Option<Engine>>,
}

/// A distributed problem on its own pool of rank threads.
struct Cluster {
    machine: PooledMachine,
    dist: BlockDist,
    ranks: Vec<Rank>,
}

/// What one rank reports for a batch of solves.
struct RankBatch {
    /// Per solve: `(start_ns, end_ns)` against the batch epoch, with
    /// the end agreed by all-reduce-max.
    solves: Vec<(u64, u64)>,
    histories: Vec<Vec<f64>>,
    /// `(start_ns, end_ns, solve index)` of every executor call.
    matvecs: Vec<(u64, u64, usize)>,
    traffic: TrafficStats,
}

impl Cluster {
    fn new(a: &Triplets, rhs: &[Vec<f64>], nprocs: usize) -> Cluster {
        let dist = BlockDist::new(a.nrows(), nprocs);
        let pc = DiagonalPreconditioner::from_matrix(a);
        let ranks = fragment_matrix(a, &dist)
            .into_iter()
            .enumerate()
            .map(|(me, frag)| {
                let owned = dist.owned_globals(me);
                let spec = to_mixed_spec(&frag, |g| {
                    let (p, l) = dist.owner(g);
                    (p == me).then_some(l)
                });
                Rank {
                    frag,
                    spec,
                    rhs: rhs.iter().map(|b| owned.iter().map(|&g| b[g]).collect()).collect(),
                    pc: pc.restrict(&owned),
                    engine: Mutex::new(None),
                }
            })
            .collect();
        Cluster { machine: PooledMachine::new(nprocs), dist, ranks }
    }

    /// Run the inspector on every rank and keep the executors. Returns
    /// the slowest rank's seconds and the bytes all ranks sent.
    fn inspect(&self, naive: bool) -> (f64, u64) {
        let out = self.machine.run(|ctx| {
            let rank = &self.ranks[ctx.rank()];
            ctx.barrier();
            let before = ctx.stats();
            let t0 = Instant::now();
            let engine = if naive {
                Engine::Naive(CompiledNaive::inspect(ctx, &rank.frag, &self.dist))
            } else {
                Engine::Mixed(CompiledMixed::inspect(ctx, &rank.spec, &self.dist))
            };
            let seconds = ctx.all_reduce_max(t0.elapsed().as_secs_f64());
            *rank.engine.lock().expect("engine lock is never held across a panic") = Some(engine);
            (seconds, ctx.stats().since(&before).bytes_sent)
        });
        (out.results[0].0, out.results.iter().map(|r| r.1).sum())
    }

    /// Every rank solves for `rhs[k]`, `k` in `picks`, one after
    /// another from a zero guess, `iters` iterations each.
    fn solve_batch(&self, picks: &[usize], iters: usize, epoch: Instant) -> Vec<RankBatch> {
        let opts = CgOptions { max_iters: iters, rel_tol: 0.0 };
        let out = self.machine.run(|ctx| {
            let rank = &self.ranks[ctx.rank()];
            let mut guard = rank.engine.lock().expect("engine lock is never held across a panic");
            let engine = guard.as_mut().expect("inspected before solving");
            let now = || epoch.elapsed().as_nanos() as u64;
            let mut x = vec![0.0; rank.pc.len()];
            let mut batch =
                RankBatch { solves: Vec::new(), histories: Vec::new(), matvecs: Vec::new(), traffic: ctx.stats() };
            for (i, &k) in picks.iter().enumerate() {
                x.fill(0.0);
                let start = now();
                let res = cg_parallel(
                    ctx,
                    |ctx, p, out| {
                        let t0 = now();
                        engine.execute(ctx, p, out);
                        batch.matvecs.push((t0, now(), i));
                    },
                    &rank.pc,
                    &rank.rhs[k],
                    &mut x,
                    opts,
                );
                let took = ctx.all_reduce_max((now() - start) as f64);
                batch.solves.push((start, start + took as u64));
                batch.histories.push(res.residual_history);
            }
            batch.traffic = ctx.stats().since(&batch.traffic);
            batch
        });
        out.results
    }
}

pub struct SpmdCg {
    cluster: Cluster,
    reference: Triplets,
    rhs: Vec<Vec<f64>>,
    /// Sequential reference residual history per right-hand side.
    histories: Vec<Vec<f64>>,
    rng: Rng,
}

/// Generate the grid, distribute it over two ranks on a new pool, and
/// run the inspector.
pub fn setup(seed: u64) -> SpmdCg {
    let mut rng = Rng::new(seed);
    let reference = perturb(&fem_grid_3d(GRID, GRID, GRID, DOF), seed);
    let rhs: Vec<Vec<f64>> = (0..RHS_POOL).map(|_| vector(&mut rng, reference.nrows())).collect();
    let cluster = Cluster::new(&reference, &rhs, RANKS);
    cluster.inspect(false);
    SpmdCg { cluster, reference, rhs, histories: Vec::new(), rng }
}

impl SpmdCg {
    fn picks(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| (self.rng.next_u64() % RHS_POOL as u64) as usize).collect()
    }

    /// Solve `picks` on both ranks; push latencies, return failures:
    /// a history that differs between ranks or from the reference.
    fn solve_checked(&self, picks: &[usize], lat_us: &mut Vec<f64>) -> u64 {
        let ranks = self.cluster.solve_batch(picks, ITERS, Instant::now());
        lat_us.extend(ranks[0].solves.iter().map(|&(s, e)| (e - s) as f64 / 1e3));
        let mut failed = 0;
        for (i, &k) in picks.iter().enumerate() {
            let ok = ranks.iter().all(|r| oracle::bitwise_eq(&r.histories[i], &ranks[0].histories[i]))
                && oracle::histories_agree(&ranks[0].histories[i], &self.histories[k], HISTORY_TOL);
            failed += u64::from(!ok);
        }
        failed
    }
}

impl Workload for SpmdCg {
    fn busy_threads(&self) -> usize {
        RANKS
    }

    fn memory_share(&self) -> f64 {
        0.6
    }

    /// Both ranks run the probe at once, as they run a solve, and the
    /// slower one counts: a probe on the harness thread alone sees a
    /// different host than two busy vCPUs do.
    fn host_probe(&self) -> ProbeTime {
        let ranks = self.cluster.machine.run(|_| rounds::probe()).results;
        ranks.into_iter().fold((0.0, 0.0), |slow, p| (slow.0.max(p.0), slow.1.max(p.1)))
    }

    fn verify_setup(&mut self, corrupt: bool) -> (u64, u64) {
        self.histories = self.rhs.iter().map(|b| oracle::jacobi_cg_history(&self.reference, b, ITERS)).collect();
        if corrupt {
            self.histories[0][ITERS] *= 1.5;
        }
        let every: Vec<usize> = (0..RHS_POOL).collect();
        (RHS_POOL as u64, self.solve_checked(&every, &mut Vec::new()))
    }

    fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64 {
        let picks = self.picks(n);
        self.solve_checked(&picks, lat_us)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer) -> (Vec<Metric>, f64) {
        // Traced solves, a batch at a time: each rank logs its solves
        // and executor calls against the tracer's epoch.
        let (mut outer_s, mut n) = (0.0, 0u32);
        let host_before = self.host_probe();
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds / 2.0 {
            let picks = self.picks(8);
            let outer = Instant::now();
            let ranks = self.cluster.solve_batch(&picks, ITERS, tracer.epoch());
            outer_s += outer.elapsed().as_secs_f64();
            let ids: Vec<_> = ranks[0]
                .solves
                .iter()
                .enumerate()
                .map(|(i, &(s, e))| tracer.push(ROOT, n + i as u32 + 1, "spmd.solve", s, e))
                .collect();
            for r in &ranks {
                for &(s, e, i) in &r.matvecs {
                    tracer.push(ids[i], n + i as u32 + 1, "spmd.executor.matvec", s, e);
                }
            }
            n += picks.len() as u32;
        }
        let slowdown = host::slowdown(host_before, self.host_probe(), self.memory_share());
        let solve_us = median(&tracer.durations_us("spmd.solve"));
        let iter_us = solve_us / ITERS as f64;

        // Traffic per iteration, exactly: a 20-iteration solve minus a
        // 10-iteration one.
        let traffic = |iters: usize| {
            let ranks = self.cluster.solve_batch(&[0], iters, tracer.epoch());
            TrafficStats::merged(&ranks.iter().map(|r| r.traffic).collect::<Vec<_>>())
        };
        let per_iter = traffic(2 * ITERS).since(&traffic(ITERS));

        // Collectives on their own, and one iteration's local work with
        // no communication: both ranks busy at once, slowest counts.
        let cluster = &self.cluster;
        let probes = cluster.machine.run(|ctx| {
            let rank = &cluster.ranks[ctx.rank()];
            let time = |ctx: &mut Ctx, f: &mut dyn FnMut(&mut Ctx)| {
                ctx.barrier();
                let t0 = Instant::now();
                for _ in 0..COLLECTIVE_REPS {
                    f(ctx);
                }
                t0.elapsed().as_secs_f64() * 1e6 / COLLECTIVE_REPS as f64
            };
            let allreduce_us = time(ctx, &mut |ctx| {
                std::hint::black_box(ctx.all_reduce_sum(1.0));
            });
            let barrier_us = time(ctx, &mut |ctx| ctx.barrier());
            let n = rank.pc.len();
            let (p, mut ap, mut x, mut r, mut z) =
                (rank.rhs[0].clone(), vec![0.0; n], vec![0.0; n], rank.rhs[1].clone(), vec![0.0; n]);
            let mut pv = p.clone();
            ctx.barrier();
            let t0 = Instant::now();
            let mut sink = 0.0;
            for _ in 0..ITERS {
                ap.fill(0.0);
                for part in rank.spec.local_parts.iter() {
                    kernels::spmv_csr(part, &p, &mut ap);
                }
                sink += dot(&p, &ap);
                axpy(1e-3, &p, &mut x);
                axpy(-1e-3, &ap, &mut r);
                rank.pc.precondition(&r, &mut z);
                sink += dot(&r, &z);
                xpby(&z, 0.5, &mut pv);
                sink += dot(&r, &r);
            }
            std::hint::black_box(sink);
            let local_us = ctx.all_reduce_max(t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64);
            (allreduce_us, barrier_us, local_us)
        });
        let (allreduce_us, barrier_us, local_iter_us) = probes.results[0];

        // Inspector: rebuilt from the same specs, slowest rank counts.
        let runs: Vec<(f64, u64)> = (0..PROBE_REPS)
            .map(|_| {
                let start = tracer.now_ns();
                let r = cluster.inspect(false);
                tracer.push(ROOT, n, "spmd.inspector", start, tracer.now_ns());
                r
            })
            .collect();
        let inspector_ms = median(&runs.iter().map(|r| r.0 * 1e3).collect::<Vec<_>>());

        // The naive executor (eq. 23) and a one-rank machine on the
        // same problem, a few solves each.
        let few: Vec<usize> = (0..PROBE_REPS).map(|i| i % RHS_POOL).collect();
        let median_solve_us = |c: &Cluster| {
            let ranks = c.solve_batch(&few, ITERS, tracer.epoch());
            median(&ranks[0].solves.iter().map(|&(s, e)| (e - s) as f64 / 1e3).collect::<Vec<_>>())
        };
        cluster.inspect(true);
        let naive_us = median_solve_us(cluster);
        cluster.inspect(false);
        let single = Cluster::new(&self.reference, &self.rhs, 1);
        single.inspect(false);
        let single_us = median_solve_us(&single);

        let metrics = vec![
            ("spmd.inspector.ms", inspector_ms, "ms"),
            ("spmd.executor.iter_us", iter_us, "us"),
            ("spmd.inspector_over_iter", inspector_ms * 1e3 / iter_us, "ratio"),
            ("spmd.executor.msgs_per_iter", per_iter.msgs_sent as f64 / ITERS as f64, "count"),
            ("spmd.executor.bytes_per_iter", per_iter.bytes_sent as f64 / ITERS as f64, "B"),
            ("spmd.inspector.bytes", runs[0].1 as f64, "B"),
            ("spmd.executor.matvec_us", median(&tracer.durations_us("spmd.executor.matvec")), "us"),
            ("spmd.machine.allreduce_us", allreduce_us, "us"),
            ("spmd.machine.barrier_us", barrier_us, "us"),
            ("spmd.executor.sync_share", 1.0 - local_iter_us / iter_us, "ratio"),
            ("core.spmd.naive_over_mixed", naive_us / solve_us, "ratio"),
            ("spmd.scaling.efficiency_p2", single_us / (RANKS as f64 * solve_us), "ratio"),
        ];
        (metrics, f64::from(n) / outer_s * slowdown)
    }
}
