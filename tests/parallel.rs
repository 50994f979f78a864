//! Parallel integration: SPMD compilation paths against the sequential
//! reference, across distribution relations and processor counts.

use bernoulli::spmd::{fragment_matrix, to_mixed_spec, CompiledMixed, CompiledNaive};
use bernoulli_blocksolve::matvec::BsParallelMatvec;
use bernoulli_blocksolve::reorder::build_layout;
use bernoulli_blocksolve::split::split_matrix;
use bernoulli_formats::gen::{fem_grid_2d, fem_grid_3d};
use bernoulli_formats::Triplets;
use bernoulli::{ExecCtx, FnOperator, Operator};
use bernoulli_solvers::cg::{cg, cg_parallel, CgOptions, CgResult};
use bernoulli_solvers::precond::{DiagonalPreconditioner, Preconditioner};
use bernoulli_solvers::SymGs;
use bernoulli_spmd::chaos::ChaosTable;
use bernoulli_spmd::dist::{
    BlockCyclicDist, BlockDist, ContiguousRunsDist, CyclicDist, Distribution, GeneralizedBlockDist,
    IndexTranslation, IndirectDist,
};
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_spmd::machine::Machine;
use bernoulli_spmd::verify::verify_comm_schedule;

fn sequential_solution(t: &Triplets, b: &[f64], iters: usize) -> Vec<f64> {
    let a = bernoulli_formats::Csr::from_triplets(t);
    let pc = DiagonalPreconditioner::from_matrix(t);
    let mut x = vec![0.0; t.nrows()];
    cg(
        &a,
        &pc,
        b,
        &mut x,
        CgOptions { max_iters: iters, rel_tol: 0.0 },
        &ExecCtx::default(),
    )
    .unwrap();
    x
}

fn parallel_solution(
    t: &Triplets,
    b: &[f64],
    dist: &dyn Distribution,
    iters: usize,
    mixed: bool,
    chaos: bool,
) -> Vec<f64> {
    let n = t.nrows();
    let frags = fragment_matrix(t, dist);
    let pc = DiagonalPreconditioner::from_matrix(t);
    let out = Machine::run(dist.nprocs(), |ctx| {
        let me = ctx.rank();
        let owned = dist.owned_globals(me);
        let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
        let pc_local = pc.restrict(&owned);
        let mut x_local = vec![0.0; owned.len()];
        let table = chaos.then(|| ChaosTable::build(ctx, n, &owned));
        let ind: &dyn IndexTranslation = match &table {
            Some(tab) => tab,
            None => dist,
        };
        enum E {
            M(CompiledMixed),
            N(CompiledNaive),
        }
        let mut eng = if mixed {
            let spec = to_mixed_spec(&frags[me], |g| {
                let (p, l) = dist.owner(g);
                (p == me).then_some(l)
            });
            E::M(CompiledMixed::inspect(ctx, &spec, ind))
        } else {
            E::N(CompiledNaive::inspect(ctx, &frags[me], ind))
        };
        cg_parallel(
            ctx,
            |ctx, p, out| match &mut eng {
                E::M(e) => e.execute(ctx, p, out),
                E::N(e) => e.execute(ctx, p, out),
            },
            &pc_local,
            &b_local,
            &mut x_local,
            CgOptions { max_iters: iters, rel_tol: 0.0 },
        );
        x_local
    });
    let mut x = vec![0.0; n];
    for (p, xl) in out.results.iter().enumerate() {
        for (l, &g) in dist.owned_globals(p).iter().enumerate() {
            x[g] = xl[l];
        }
    }
    x
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < tol * y.abs().max(1.0), "{what}: {x} vs {y}");
    }
}

#[test]
fn parallel_cg_matches_sequential_across_distributions() {
    let t = fem_grid_3d(4, 4, 4, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 6) as f64 * 0.5).collect();
    let want = sequential_solution(&t, &b, 15);
    let p = 4;
    let sizes: Vec<usize> = (0..p).map(|q| n / p + usize::from(q < n % p)).collect();
    let map: Vec<usize> = (0..n).map(|g| (g * 7 + 3) % p).collect();
    let dists: Vec<(&str, Box<dyn Distribution>)> = vec![
        ("block", Box::new(BlockDist::new(n, p))),
        ("cyclic", Box::new(CyclicDist::new(n, p))),
        ("block-cyclic", Box::new(BlockCyclicDist::new(n, p, 8))),
        ("generalized-block", Box::new(GeneralizedBlockDist::new(&sizes))),
        ("indirect", Box::new(IndirectDist::new(p, map))),
    ];
    for (name, dist) in &dists {
        dist.validate().unwrap();
        for mixed in [true, false] {
            let got = parallel_solution(&t, &b, dist.as_ref(), 15, mixed, false);
            assert_close(&got, &want, 1e-8, &format!("{name}/mixed={mixed}"));
        }
    }
}

#[test]
fn chaos_translation_gives_identical_solutions() {
    let t = fem_grid_2d(6, 6, 3);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let want = sequential_solution(&t, &b, 12);
    let dist = BlockDist::new(n, 3);
    for mixed in [true, false] {
        let got = parallel_solution(&t, &b, &dist, 12, mixed, true);
        assert_close(&got, &want, 1e-8, &format!("chaos/mixed={mixed}"));
    }
}

/// A used index the rank owns needs no ghost, whatever the `IND`: a
/// used set with owned indices mixed in builds the very schedule of its
/// nonlocal part alone, and both verify clean (BA31).
#[test]
fn every_ind_skips_owned_indices_in_used() {
    const N: usize = 30;
    const P: usize = 3;
    let block = BlockDist::new(N, P);
    let genblock = GeneralizedBlockDist::new(&[7, 12, 11]);
    let runs = (0..6).map(|k| (5 * k, 5, k % P)).collect();
    let contig = ContiguousRunsDist::new(P, runs);
    let indirect = IndirectDist::new(P, (0..N).map(|g| (g * 7 + 1) % P).collect());
    // A relation, and whether its MAP is held in a Chaos table.
    let inds: [(&str, &dyn Distribution, bool); 5] = [
        ("block", &block, false),
        ("generalized-block", &genblock, false),
        ("contiguous-runs", &contig, false),
        ("indirect-replicated", &indirect, false),
        ("chaos-table", &indirect, true),
    ];
    for (name, dist, distributed) in inds {
        let out = Machine::run(P, |ctx| {
            let me = ctx.rank();
            let table = distributed.then(|| ChaosTable::build(ctx, N, &dist.owned_globals(me)));
            let ind: &dyn IndexTranslation = match &table {
                Some(tab) => tab,
                None => dist,
            };
            let used: Vec<usize> = (0..N).filter(|g| g % 4 != me).collect();
            let nonlocal: Vec<usize> = used.iter().copied().filter(|&g| dist.owner(g).0 != me).collect();
            assert!(nonlocal.len() < used.len(), "{name}: rank {me} uses none of its own");
            (CommSchedule::build(ctx, ind, &used), CommSchedule::build(ctx, ind, &nonlocal))
        });
        for (rank, (with_owned, alone)) in out.results.iter().enumerate() {
            assert_eq!(with_owned, alone, "{name}, rank {rank}");
            assert!(alone.num_ghosts > 0, "{name}, rank {rank}");
            assert!(verify_comm_schedule(with_owned, P).is_empty(), "{name}, rank {rank}");
        }
    }
}

#[test]
fn parallel_cg_matches_across_processor_counts() {
    let t = fem_grid_3d(4, 4, 6, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
    let want = sequential_solution(&t, &b, 20);
    for p in [1, 2, 4, 8] {
        let dist = BlockDist::new(n, p);
        let got = parallel_solution(&t, &b, &dist, 20, true, false);
        assert_close(&got, &want, 1e-8, &format!("P={p}"));
    }
}

#[test]
fn blocksolve_pipeline_cg_matches_sequential() {
    let t = fem_grid_3d(4, 4, 3, 5);
    let n = t.nrows();
    let layout = build_layout(&t, 5, 4, 2);
    let rt = layout.permute_matrix(&t);
    let b_orig: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let b_re = layout.permute_vec(&b_orig);
    let want = sequential_solution(&rt, &b_re, 15);

    let locals = split_matrix(&layout, &rt);
    let pc = DiagonalPreconditioner::from_matrix(&rt);
    let dist = layout.dist.clone();
    let out = Machine::run(4, |ctx| {
        let me = ctx.rank();
        let local = &locals[me];
        let owned = dist.owned_globals(me);
        let b_local: Vec<f64> = owned.iter().map(|&g| b_re[g]).collect();
        let pc_local = pc.restrict(&owned);
        let mut pm = BsParallelMatvec::inspect(ctx, local, &dist);
        let mut x_local = vec![0.0; local.n_local];
        cg_parallel(
            ctx,
            |ctx, p, out| pm.execute(ctx, local, p, out, true),
            &pc_local,
            &b_local,
            &mut x_local,
            CgOptions { max_iters: 15, rel_tol: 0.0 },
        );
        x_local
    });
    let mut got = vec![0.0; n];
    for (p, xl) in out.results.iter().enumerate() {
        for (l, &g) in dist.owned_globals(p).iter().enumerate() {
            got[g] = xl[l];
        }
    }
    assert_close(&got, &want, 1e-8, "blocksolve CG");
}

#[test]
fn executor_traffic_independent_of_spec_but_inspector_is_not() {
    let t = fem_grid_3d(4, 4, 4, 3);
    let n = t.nrows();
    let dist = BlockDist::new(n, 4);
    let frags = fragment_matrix(&t, &dist);
    let measure = |mixed: bool| {
        Machine::run(4, |ctx| {
            let me = ctx.rank();
            let s0 = ctx.stats();
            enum E {
                M(CompiledMixed),
                N(CompiledNaive),
            }
            let mut eng = if mixed {
                let spec = to_mixed_spec(&frags[me], |g| {
                    let (p, l) = dist.owner(g);
                    (p == me).then_some(l)
                });
                E::M(CompiledMixed::inspect(ctx, &spec, &dist))
            } else {
                E::N(CompiledNaive::inspect(ctx, &frags[me], &dist))
            };
            let insp = ctx.stats().since(&s0).bytes_sent;
            let x = vec![1.0; dist.local_len(me)];
            let mut y = vec![0.0; dist.local_len(me)];
            let s1 = ctx.stats();
            match &mut eng {
                E::M(e) => e.execute(ctx, &x, &mut y),
                E::N(e) => e.execute(ctx, &x, &mut y),
            }
            (insp, ctx.stats().since(&s1).bytes_sent)
        })
    };
    let m = measure(true);
    let nv = measure(false);
    let exec_m: u64 = m.results.iter().map(|r| r.1).sum();
    let exec_n: u64 = nv.results.iter().map(|r| r.1).sum();
    assert_eq!(exec_m, exec_n, "executors move the same boundary values");
}

// --- Numbers unchanged -------------------------------------------------

/// FNV-1a-style fold over f64 bit patterns: the golden fingerprint.
fn bit_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf29ce484222325u64, |h, x| (h ^ x.to_bits()).wrapping_mul(0x100000001b3))
}

/// `iters` iterations of diagonally preconditioned CG over the mixed
/// executor on `fem_grid_2d(6, 5, 2)`, block rows over `p` ranks: every
/// rank's residual history, and the traffic of all ranks in the solve.
fn mixed_cg_histories(p: usize, iters: usize) -> (Vec<Vec<f64>>, bernoulli_spmd::machine::TrafficStats) {
    let t = fem_grid_2d(6, 5, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) * 0.25 - 1.0).collect();
    let dist = BlockDist::new(n, p);
    let frags = fragment_matrix(&t, &dist);
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let out = Machine::run(p, |ctx| {
        let me = ctx.rank();
        let owned = dist.owned_globals(me);
        let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
        let spec = to_mixed_spec(&frags[me], |g| {
            let (q, l) = dist.owner(g);
            (q == me).then_some(l)
        });
        let mut eng = CompiledMixed::inspect(ctx, &spec, &dist);
        let mut x_local = vec![0.0; owned.len()];
        let before = ctx.stats();
        let res = cg_parallel(
            ctx,
            |ctx, v, out| eng.execute(ctx, v, out),
            &pc.restrict(&owned),
            &b_local,
            &mut x_local,
            CgOptions { max_iters: iters, rel_tol: 0.0 },
        );
        (res.residual_history, ctx.stats().since(&before))
    });
    let traffic: Vec<_> = out.results.iter().map(|r| r.1).collect();
    (out.results.into_iter().map(|r| r.0).collect(), bernoulli_spmd::machine::TrafficStats::merged(&traffic))
}

/// The executor rewrite (i-node local products, slot replay, compact
/// ghost rows, poll-before-park, the fused ⟨r,z⟩/⟨r,r⟩ reduction)
/// changes no number: residual histories carry the bits captured at the
/// commit before it, on every rank; only the all-reduce count moves.
#[test]
fn cg_parallel_histories_keep_their_bits_and_bytes() {
    // Captured at the parent commit with this same function.
    const HISTORY_GOLD: [u64; 4] = [0x57b6b4a7af6dbfee, 0x5da0a2d9e2fbba9b, 0x4555b4935d625bb1, 0x1c460daa9acc113e];
    // Bytes all ranks send per iteration (gather + all-reduces).
    const BYTES_PER_ITER_GOLD: [u64; 4] = [0, 240, 480, 752];
    for p in 1..=4usize {
        let (histories, short) = mixed_cg_histories(p, 12);
        assert_eq!(histories[0].len(), 13);
        for (rank, h) in histories.iter().enumerate() {
            assert_eq!(bit_hash(h), HISTORY_GOLD[p - 1], "P={p}, rank {rank}");
        }
        let (_, long) = mixed_cg_histories(p, 24);
        let per_iter = long.since(&short);
        assert_eq!(per_iter.bytes_sent, 12 * BYTES_PER_ITER_GOLD[p - 1], "P={p}");
        assert_eq!(per_iter.allreduces, 12 * 2 * p as u64, "P={p}: two all-reduces per iteration (three at the parent)");
        assert_eq!(per_iter.alltoalls + per_iter.barriers, 0);
    }
}

// --- One program, two machines ----------------------------------------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `x` and the result of `cg` under a serial ctx, then of `cg_parallel`
/// on a one-rank machine, both from a guess of `guess` everywhere.
/// `cg` is handed `a` behind a closure: its general form, the one
/// recurrence both entries share (over `a` itself, SymGS would prove
/// the operator its own and take Eisenstat's form).
fn solve_on_both_machines(
    a: &bernoulli_formats::Csr,
    pc: &(impl Preconditioner + Sync),
    b: &[f64],
    guess: f64,
    opts: CgOptions,
) -> [(CgResult, Vec<f64>); 2] {
    let mut x = vec![guess; b.len()];
    let op = bernoulli::FnOperator::new(b.len(), b.len(), |v: &[f64], y: &mut [f64]| a.apply(v, y).unwrap());
    let shared = cg(&op, pc, b, &mut x, opts, &ExecCtx::default()).unwrap();
    let mut out = Machine::run(1, |ctx| {
        let mut x = vec![guess; b.len()];
        let res = cg_parallel(ctx, |_, v, y| a.apply(v, y).unwrap(), pc, b, &mut x, opts);
        (res, x)
    });
    [(shared, x), out.results.remove(0)]
}

/// The two entries run one recurrence: at one rank their solutions and
/// residual histories agree to the bit for zero and nonzero guesses,
/// benchmark mode and a target, and both preconditioners.
#[test]
fn cg_parallel_at_one_rank_is_cg_bit_for_bit() {
    let t = fem_grid_2d(9, 7, 2);
    let n = t.nrows();
    let a = bernoulli_formats::Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) * 0.25 - 1.0).collect();
    let diag = DiagonalPreconditioner::from_matrix(&t);
    let symgs = SymGs::new(a.clone(), &ExecCtx::default()).unwrap();
    for guess in [0.0, 0.25] {
        for (max_iters, rel_tol) in [(25, 0.0), (200, 1e-10)] {
            let opts = CgOptions { max_iters, rel_tol };
            let runs = [
                ("diagonal", solve_on_both_machines(&a, &diag, &b, guess, opts)),
                ("symgs", solve_on_both_machines(&a, &symgs, &b, guess, opts)),
            ];
            for (name, [(shared, x_shared), (spmd, x_spmd)]) in runs {
                let what = format!("{name}, guess {guess}, rel_tol {rel_tol}");
                assert!(shared.converged && shared.iters > 0, "{what}");
                assert_eq!((spmd.iters, spmd.converged), (shared.iters, shared.converged), "{what}");
                assert_eq!(bits(&spmd.residual_history), bits(&shared.residual_history), "{what}");
                assert_eq!(bits(&x_spmd), bits(&x_shared), "{what}");
            }
        }
    }
}

/// From a zero guess the shared-memory entry forms `r = b` with no
/// product; the SPMD entry multiplies on every rank, because its matvec
/// exchanges ghosts and a skip decided on one rank would leave the
/// others' exchange unmatched.
#[test]
fn cg_parallel_multiplies_for_its_opening_residual_on_every_rank() {
    use std::cell::Cell;
    let t = fem_grid_2d(6, 5, 2);
    let n = t.nrows();
    let a = bernoulli_formats::Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
    let pc = DiagonalPreconditioner::from_matrix(&t);
    let opts = CgOptions { max_iters: 9, rel_tol: 0.0 };

    let applied = Cell::new(0);
    let op = FnOperator::new(n, n, |v: &[f64], y: &mut [f64]| {
        applied.set(applied.get() + 1);
        a.apply(v, y).unwrap();
    });
    let mut x = vec![0.0; n];
    let res = cg(&op, &pc, &b, &mut x, opts, &ExecCtx::default()).unwrap();
    assert_eq!((res.iters, applied.get()), (9, 9));

    let p = 3;
    let dist = BlockDist::new(n, p);
    let frags = fragment_matrix(&t, &dist);
    let out = Machine::run(p, |ctx| {
        let me = ctx.rank();
        let owned = dist.owned_globals(me);
        let spec = to_mixed_spec(&frags[me], |g| {
            let (q, l) = dist.owner(g);
            (q == me).then_some(l)
        });
        let mut eng = CompiledMixed::inspect(ctx, &spec, &dist);
        let b_local: Vec<f64> = owned.iter().map(|&g| b[g]).collect();
        let mut x_local = vec![0.0; owned.len()];
        let mut products = 0;
        let res = cg_parallel(
            ctx,
            |ctx, v, y| {
                products += 1;
                eng.execute(ctx, v, y);
            },
            &pc.restrict(&owned),
            &b_local,
            &mut x_local,
            opts,
        );
        (res.iters, products)
    });
    for (rank, &(iters, products)) in out.results.iter().enumerate() {
        assert_eq!((iters, products), (9, 10), "rank {rank}");
    }
}

/// One product on each executor's own unit-test fixture, stitched to
/// global order.
fn executor_outputs() -> Vec<(&'static str, Vec<f64>)> {
    let stitch = |dist: &dyn Distribution, parts: &[Vec<f64>]| {
        let mut out = vec![0.0; dist.len()];
        for (p, part) in parts.iter().enumerate() {
            for (l, &g) in dist.owned_globals(p).iter().enumerate() {
                out[g] = part[l];
            }
        }
        out
    };
    let mut outputs = Vec::new();

    let compiled = |name: &'static str, t: &Triplets, nprocs: usize, x: Vec<f64>| {
        let dist = BlockDist::new(t.nrows(), nprocs);
        let frags = fragment_matrix(t, &dist);
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let x_local: Vec<f64> = dist.owned_globals(me).iter().map(|&g| x[g]).collect();
            let mut y = vec![0.0; dist.local_len(me)];
            match name {
                "naive" => CompiledNaive::inspect(ctx, &frags[me], &dist).execute(ctx, &x_local, &mut y),
                _ => {
                    let spec = to_mixed_spec(&frags[me], |g| {
                        let (p, l) = dist.owner(g);
                        (p == me).then_some(l)
                    });
                    CompiledMixed::inspect(ctx, &spec, &dist).execute(ctx, &x_local, &mut y)
                }
            }
            y
        });
        (name, stitch(&dist, &out.results))
    };
    let t = fem_grid_2d(6, 4, 2);
    let n = t.nrows();
    outputs.push(compiled("naive", &t, 3, (0..n).map(|i| ((i % 9) as f64) - 4.0).collect()));
    let t = fem_grid_2d(5, 5, 2);
    outputs.push(compiled("mixed", &t, 4, (0..t.nrows()).map(|i| (i as f64 * 0.11).sin()).collect()));

    let blocksolve = |name: &'static str, t: &Triplets, dof: usize, nprocs: usize, overlap: bool| {
        let layout = build_layout(t, dof, nprocs, 2);
        let rt = layout.permute_matrix(t);
        let x: Vec<f64> = (0..t.nrows()).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let locals = split_matrix(&layout, &rt);
        let dist = layout.dist.clone();
        let out = Machine::run(nprocs, |ctx| {
            let me = ctx.rank();
            let x_local: Vec<f64> = dist.owned_globals(me).iter().map(|&g| x[g]).collect();
            let mut pm = BsParallelMatvec::inspect(ctx, &locals[me], &dist);
            let mut y_local = vec![0.0; locals[me].n_local];
            pm.execute(ctx, &locals[me], &x_local, &mut y_local, overlap);
            y_local
        });
        (name, stitch(&dist, &out.results))
    };
    let t = fem_grid_2d(5, 4, 3);
    outputs.push(blocksolve("blocksolve 2d P=1", &t, 3, 1, false));
    outputs.push(blocksolve("blocksolve 2d P=2", &t, 3, 2, false));
    outputs.push(blocksolve("blocksolve 2d P=4", &t, 3, 4, false));
    let t = fem_grid_3d(3, 3, 2, 5);
    outputs.push(blocksolve("blocksolve 3d P=4", &t, 5, 4, false));
    outputs.push(blocksolve("blocksolve 3d P=4 overlapped", &t, 5, 4, true));
    outputs
}

#[test]
fn executor_outputs_keep_the_parent_commits_bits() {
    // Captured at the parent commit with `executor_outputs` as it stands.
    const GOLD: [u64; 7] = [
        0xb068704ecac85292,
        0x51a68a8ecea4f7f2,
        0x25ebb3a5c033415b,
        0x0f22fdb95cd86b72,
        0x7f1a9d855cab0399,
        0x6955d8ac739704df,
        0x6955d8ac739704df,
    ];
    let outputs = executor_outputs();
    assert_eq!(outputs.len(), GOLD.len());
    for ((name, y), gold) in outputs.iter().zip(GOLD) {
        assert_eq!(bit_hash(y), gold, "{name} drifted from the parent's bits");
    }
}
