//! The design-choice ablations (DESIGN.md §4): each isolates one
//! decision of the compiler or the runtime, prints what it measured and
//! returns the claim the decision rests on. Clock claims carry wide
//! margins; the distribution ablation's is a byte count.

use crate::table1::TABLE1_FORMATS;
use crate::workload::{build_workload, median, median_times, sample_times};
use crate::Claim;
use bernoulli::engines::SpmvEngine;
use bernoulli::compile::Compiler;
use bernoulli::ExecCtx;
use bernoulli_blocksolve::matvec::BsParallelMatvec;
use bernoulli_formats::fast::{self, CsrCert, ItpackCert};
use bernoulli_formats::gen::{fem_grid_3d, grid2d_9pt, grid3d_7pt};
use bernoulli_formats::{kernels, Csr, FormatKind, Itpack, SparseMatrix, SparseVec, Triplets};
use bernoulli_relational::exec::{execute, Bindings};
use bernoulli_relational::plan::{Driver, JoinMethod, Lookup, LoopNode, Plan, PlanNode, ProbeKind};
use bernoulli_relational::planner::{Planner, QueryMeta};
use bernoulli_relational::prelude::*;
use bernoulli_relational::semiring::F64Plus;
use bernoulli_spmd::chaos::ChaosTable;
use bernoulli_spmd::dist::{
    BlockDist, ContiguousRunsDist, Distribution, GeneralizedBlockDist, IndexTranslation, IndirectDist,
};
use bernoulli_spmd::inspector::CommSchedule;
use bernoulli_obs::Obs;
use bernoulli::{FnOperator, Operator};
use bernoulli_solvers::{cg, CgOptions, Preconditioner, SymGs};
use bernoulli_spmd::machine::{Machine, NetworkModel};
use std::hint::black_box;

/// Samples per timed arm.
const SAMPLES: usize = 15;

pub fn run() -> Vec<Claim> {
    let claims =
        [dispatch(), joins(), empty_cols(), sweep_recurrence(), symgs_zero_guess(), cert_bind(), dist()]
            .into_iter()
            .flatten()
            .collect();
    overlap();
    claims
}

/// Microseconds per call of `N` interleaved arms, one entry per sample.
struct Timed<const N: usize>([Vec<f64>; N]);

/// Time `N` interleaved arms: `f(arm)` is one call, arm `k` makes
/// `reps[k]` of them per sample.
fn timed<const N: usize>(reps: [usize; N], mut f: impl FnMut(usize)) -> Timed<N> {
    let secs = sample_times::<N>(SAMPLES, |arm| (0..reps[arm]).for_each(|_| f(arm)));
    Timed(std::array::from_fn(|arm| secs[arm].iter().map(|s| s / reps[arm] as f64 * 1e6).collect()))
}

impl<const N: usize> Timed<N> {
    /// Median microseconds per call of each arm.
    fn us(&self) -> [f64; N] {
        self.0.clone().map(median)
    }

    /// Median over samples of arm `num`'s time over arm `den`'s in the
    /// same sample. A host phase that lands on both arms of a sample
    /// cancels, where a ratio of medians can take its two medians from
    /// different phases.
    fn ratio(&self, num: usize, den: usize) -> f64 {
        median(self.0[num].iter().zip(&self.0[den]).map(|(n, d)| n / d).collect())
    }
}

/// Dispatch hoisting — "generality does not come at the expense of
/// performance": the hand-written per-format kernel, the compiled
/// engine specialised on plan shape, and the general plan interpreter
/// (the compiler's plan run directly) with dispatch *inside* the loops.
fn dispatch() -> Vec<Claim> {
    let t = fem_grid_3d(6, 6, 4, 3);
    let x: Vec<f64> = (0..t.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut y = vec![0.0; t.nrows()];
    println!("--- dispatch: SpMV tiers, µs per product ---");
    println!("{:<12}{:>10}{:>13}{:>13}", "format", "hand", "specialised", "interpreted");
    // Summed over the formats: a single 3 µs kernel's median still
    // wanders ±20 % between runs on this host; six of them do not.
    let mut total = [0.0; 3];
    for kind in TABLE1_FORMATS {
        let a = SparseMatrix::from_triplets(kind, &t);
        let fast = SpmvEngine::compile(&a).expect("spmv compiles for every format");
        let n = t.nrows();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, VecMeta::dense(n))
            .vec(VEC_Y, VecMeta::dense(n));
        let slow =
            Compiler::new().compile(&programs::matvec(), &meta).expect("the interpreter takes every format");
        let us = timed([400, 400, 2], |arm| match arm {
            0 => a.spmv_acc(black_box(&x), black_box(&mut y)),
            1 => fast.run(&a, black_box(&x), black_box(&mut y)).expect("runs"),
            _ => {
                let mut binds = Bindings::new();
                let (x, y) = (black_box(&x), black_box(&mut y));
                binds.bind_mat(MAT_A, &a).bind_vec(VEC_X, x).bind_vec_mut(VEC_Y, y);
                slow.run(&mut binds).expect("runs")
            }
        })
        .us();
        println!("{:<12}{:>10.2}{:>13.2}{:>13.1}", kind.paper_name(), us[0], us[1], us[2]);
        total = std::array::from_fn(|arm| total[arm] + us[arm]);
    }
    println!();
    let [hand, specialised, interpreted] = total;
    let (fast, slow) =
        ("specialised / hand-written, six-format totals", "interpreted / specialised");
    vec![
        Claim::at_most("A.dispatch-specialised", specialised / hand, 1.3, fast),
        Claim::at_least("A.dispatch-interpreter", interpreted / specialised, 10.0, slow),
    ]
}

/// The CSR matvec plan with the `X` join forced to `method`.
fn forced_plan(method: JoinMethod) -> Plan {
    let lookup = Lookup { rel: VEC_X, kind: ProbeKind::VecAt(VAR_J), method, in_predicate: true };
    let level =
        |var, driver, lookups| PlanNode::Loop(LoopNode { var, driver, derived: vec![], lookups });
    let outer = level(VAR_I, Driver::MatOuter(MAT_A), vec![]);
    Plan { nodes: vec![outer, level(VAR_J, Driver::MatInner(MAT_A), vec![lookup])], est_cost: 0.0 }
}

/// Join-implementation choice: merge-join (co-traversal of the sorted
/// sparse `x`) against search-join (a binary probe per stored entry) in
/// a sparse-`A` × sparse-`x` product across `x` densities, and the plan
/// the planner picks from the declared access properties, which should
/// track the better of the two as the crossover moves.
fn joins() -> Vec<Claim> {
    let am = SparseMatrix::Csr(Csr::from_triplets(&grid2d_9pt(40, 40)));
    let n = am.nrows();
    let mut nest = programs::matvec();
    nest.arrays.iter_mut().find(|a| a.id == VEC_X).expect("X is declared").sparse = true;
    let query = extract_query(&nest).expect("the product lowers");
    println!("--- joins: sparse A × sparse x, µs per product ---");
    println!("{:<10}{:>10}{:>10}{:>10}", "x density", "merge", "search", "planner");
    let mut worst: f64 = 0.0;
    for density_pct in [1usize, 10, 50] {
        let stored: Vec<(usize, f64)> =
            (0..n).step_by(100 / density_pct).map(|i| (i, 1.0 + (i % 3) as f64)).collect();
        let x = SparseVec::from_pairs(n, &stored);
        let mut y = vec![0.0; n];
        let meta = QueryMeta::new().mat(MAT_A, am.meta()).vec(VEC_X, x.meta());
        let planned = Planner::new().plan(&query, &meta).expect("the product plans");
        let plans = [forced_plan(JoinMethod::Merge), forced_plan(JoinMethod::Search), planned];
        let t = timed([3; 3], |arm| {
            let mut binds = Bindings::new();
            binds.bind_mat(MAT_A, &am).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
            execute(black_box(&plans[arm]), &query, &mut binds).expect("executes");
        });
        let [merge, search, planner] = t.us();
        println!("{:<10}{merge:>10.1}{search:>10.1}{planner:>10.1}", format!("{density_pct}%"));
        if density_pct != 10 {
            worst = worst.max(t.ratio(2, usize::from(search < merge)));
        }
    }
    println!();
    let what = "planner / better of merge, search; worse of 1% and 50% density";
    vec![Claim::at_most("A.joins-planner-tracks-best", worst, 1.25, what)]
}

/// The CCCS column-compression level (Fig. 1's motivation): "if a
/// matrix has many zero columns, then the zero columns are not stored"
/// — CCCS adds the COLIND indirection so SpMV touches only the stored
/// columns, while CCS walks every COLP slot. CRS is the row-major
/// control.
fn empty_cols() -> Vec<Claim> {
    let n = 200_000;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let mut y = vec![0.0; n];
    println!("--- empty columns: SpMV, µs per product ---");
    println!("{:<10}{:>10}{:>10}{:>10}", "empty", "CCS", "CCCS", "CRS");
    let mut cccs_over_ccs = Vec::new();
    for (label, stride) in [("0%", 1usize), ("90%", 10), ("99%", 100)] {
        // Every `stride`-th column holds three entries, a banded pattern.
        let mut t = Triplets::new(n, n);
        for c in (0..n).step_by(stride) {
            (0..3).for_each(|dr| t.push((c + dr * 7) % n, c, 1.0 + dr as f64));
        }
        let mats = [FormatKind::Ccs, FormatKind::Cccs, FormatKind::Csr]
            .map(|kind| SparseMatrix::from_triplets(kind, &t));
        let engines = mats.each_ref().map(|a| SpmvEngine::compile(a).expect("compiles"));
        let t = timed([5; 3], |k| {
            engines[k].run(black_box(&mats[k]), black_box(&x), black_box(&mut y)).expect("runs")
        });
        let us = t.us();
        println!("{label:<10}{:>10.2}{:>10.2}{:>10.2}", us[0], us[1], us[2]);
        cccs_over_ccs.push(t.ratio(1, 0));
    }
    println!();
    // With no column empty COLIND is one more load per three-entry
    // column: 1.1–1.3× here, so "costs little" is held to 1.5×.
    vec![
        Claim::at_least("A.cccs-gain", 1.0 / cccs_over_ccs[2], 5.0, "CCS / CCCS at 99% empty"),
        Claim::at_most("A.cccs-cost", cccs_over_ccs[0], 1.5, "CCCS / CCS at 0% empty"),
    ]
}

/// One Gauss-Seidel sweep with the row body's two decisions as
/// switches. `ORDERED`: the side of the row the sweep has not reached
/// first, then the swept side with the nearest row last (`split[i]` is
/// the in-row offset of the first column ≥ `i`); else storage order.
/// `RECIP`: close with a multiply by `1/diag`; else a divide.
fn gs_sweep<const ORDERED: bool, const RECIP: bool>(
    a: &Csr,
    split: &[usize],
    forward: bool,
    b: &[f64],
    x: &mut [f64],
) {
    let (n, rowptr) = (x.len(), a.rowptr());
    for k in 0..n {
        let i = if forward { k } else { n - 1 - k };
        let row = rowptr[i]..rowptr[i + 1];
        let (cols, vals) = (&a.colind()[row.clone()], &a.vals()[row]);
        let (mut acc, mut diag) = (b[i], 1.0);
        let mut term = |(&j, &v): (&usize, &f64)| match j == i {
            true => diag = v,
            false => acc -= v * x[j],
        };
        // Unordered, the whole row is one run in storage order.
        let m = if ORDERED { split[i] } else { cols.len() };
        let (lower, upper) = (cols[..m].iter().zip(&vals[..m]), cols[m..].iter().zip(&vals[m..]));
        if forward {
            upper.for_each(&mut term);
            lower.for_each(&mut term);
        } else {
            lower.for_each(&mut term);
            upper.rev().for_each(&mut term);
        }
        x[i] = if RECIP { acc * (1.0 / diag) } else { acc / diag };
    }
}

/// The dependent operations `[subtract, multiply, divide]` that one
/// forward + backward application of `gs_sweep::<ordered, recip>` puts
/// on the loop-carried chain `x[i∓1] → x[i]`, summed over rows: the
/// nearest row's multiply-subtract, one subtract per term the row takes
/// after it, and the closing divide or multiply. A count of the term
/// order, not a clock.
fn chain_ops(a: &Csr, split: &[usize], ordered: bool, recip: bool) -> [usize; 3] {
    let mut ops = [0; 3];
    for forward in [true, false] {
        for (i, &m) in split.iter().enumerate() {
            let cols = a.row_cols(i);
            let (lower, upper) = cols.split_at(if ordered { m } else { cols.len() });
            let order: Vec<usize> = match forward {
                true => upper.iter().chain(lower).copied().collect(),
                false => lower.iter().chain(upper.iter().rev()).copied().collect(),
            };
            let near = if forward { i.wrapping_sub(1) } else { i + 1 };
            if let Some(at) = order.iter().position(|&j| j == near) {
                ops[0] += 1 + order[at + 1..].iter().filter(|&&j| j != i).count();
                ops[1] += 1 + usize::from(recip);
                ops[2] += usize::from(!recip);
            }
        }
    }
    ops
}

/// The DO-ACROSS row body (`kernels::gs_row`): a sweep runs at the
/// speed of its loop-carried chain `x[i∓1] → x[i]`, so the body takes a
/// row's terms far-to-near over the operand's diagonal index and keeps
/// the divide off the chain. The textbook body — storage order, one
/// divide per row — against each decision alone and the kernel, on a
/// grid that fits one core's L2 (1.2 MB). The chain is counted exactly,
/// on a model the kernel must match bit for bit; the clock only has to
/// agree in direction, since how much a shorter chain buys depends on
/// the core and on what its neighbour is doing.
fn sweep_recurrence() -> Vec<Claim> {
    const GRID: usize = 20;
    let a = Csr::from_triplets(&grid3d_7pt(GRID, GRID, GRID));
    let n = a.nrows();
    let split: Vec<usize> = (0..n).map(|i| a.row_cols(i).partition_point(|&j| j < i)).collect();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    // Arms 0–3 are timed; arm 4 is the sweep `chain_ops` models for the
    // kernel, run only to compare bits.
    let apply = |arm: usize, x: &mut [f64]| {
        let (a, b) = (black_box(&a), black_box(&b));
        for forward in [true, false] {
            match arm {
                0 => gs_sweep::<false, false>(a, &split, forward, b, x),
                1 => gs_sweep::<false, true>(a, &split, forward, b, x),
                2 => gs_sweep::<true, false>(a, &split, forward, b, x),
                3 if forward => kernels::symgs_forward_csr(a, 1.0, b, x),
                3 => kernels::symgs_backward_csr(a, 1.0, b, x),
                _ => gs_sweep::<true, true>(a, &split, forward, b, x),
            }
        }
    };
    let mut x = vec![0.0; n];
    let t = timed([16; 4], |arm| {
        x.fill(0.0);
        apply(arm, black_box(&mut x))
    });
    let us = t.us();
    // Rounding records the term order and the close, so the kernel
    // leaving the modelled sweep's bits, and not the textbook one's,
    // ties the count below to the kernel's code. From a nonzero guess,
    // where the forward sweep's not-yet-swept terms are not zeros.
    let bits = |arm| {
        x.iter_mut().enumerate().for_each(|(i, v)| *v = 0.5 + (i % 3) as f64);
        apply(arm, &mut x);
        x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let [textbook_x, modelled_x, kernel_x] = [0, 4, 3].map(bits);
    let pinned = kernel_x == modelled_x && kernel_x != textbook_x;
    let chain = [(false, false), (false, true), (true, false), (true, true)]
        .map(|(ordered, recip)| chain_ops(&a, &split, ordered, recip));
    // Rows whose previous row in sweep order is a neighbour, both sweeps.
    let linked: usize =
        (0..n).map(|i| a.row_cols(i).iter().filter(|&&j| j + 1 == i || j == i + 1).count()).sum();
    println!("--- sweep recurrence: SymGS forward + backward, {GRID}^3 grid, per apply ---");
    let arms = ["storage, divide", "reciprocal", "far-to-near", "both (kernel)"];
    println!("{:<24}{:>19}{:>19}{:>19}{:>19}", "", arms[0], arms[1], arms[2], arms[3]);
    println!("{:<24}{:>19.1}{:>19.1}{:>19.1}{:>19.1}", "µs", us[0], us[1], us[2], us[3]);
    let [s, r, f, k] = chain.map(|[sub, mul, div]| format!("{sub}/{mul}/{div}"));
    println!("{:<24}{s:>19}{r:>19}{f:>19}{k:>19}\n", "chain sub/mul/div");
    let [storage, .., kernel] = chain;
    let shortened =
        kernel == [linked, 2 * linked, 0] && storage[1..] == [linked, linked] && storage[0] > linked;
    let seen = format!(
        "chain sub/mul/div over {linked} linked rows: storage-order divide {s}, kernel {k}; kernel bits {}",
        if pinned { "= modelled sweep's" } else { "differ from the modelled sweep's" }
    );
    let what = "storage-order divide-per-row sweeps / kernels::symgs_{forward,backward}_csr";
    vec![
        Claim::new("A.sweep-chain", shortened && pinned, seen),
        Claim::at_least("A.sweep-recurrence", t.ratio(0, 3), 1.0, what),
    ]
}

/// The storage a loop runs over is the compiler's choice: a
/// preconditioner applies SSOR from a *zero* guess, where the general
/// forward sweep multiplies the upper triangle by zeros and the
/// backward one re-derives `r − L·z`, which the forward one left behind
/// as `D·z/ω`. `SymGs` inspects its operand once into pre-scaled strict
/// triangles with `u32` columns and makes one pass over each, handing
/// the row just produced to the next in a register. Fill + the two
/// general sweeps against `SymGs::precondition`, on a grid inside one
/// core's L2 and on `pcg_solve`'s out-of-cache one; the entries each
/// visits are the kernels' own counters, not a clock.
fn symgs_zero_guess() -> Vec<Claim> {
    println!("--- SymGS from a zero guess: fill + two general sweeps vs the sweep split, per apply ---");
    println!(
        "{:<8}{:>12}{:>11}{:>8}{:>22}{:>26}",
        "grid", "general µs", "split µs", "ratio", "entries visited", "index + value bytes"
    );
    let mut ratio = 0.0;
    for (grid, reps) in [(20, 16), (64, 1)] {
        let a = Csr::from_triplets(&grid3d_7pt(grid, grid, grid));
        let r: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut z = vec![0.0; a.nrows()];
        // One instrumented application of each for the counts, then the
        // clocks on an uninstrumented preconditioner.
        let obs = Obs::enabled();
        let counted = SymGs::new(a.clone(), &ExecCtx::default().instrument(obs.clone())).expect("a grid compiles");
        counted.engine().apply_ssor(counted.matrix(), 1.0, &r, &mut z).expect("sweeps run");
        counted.precondition(&r, &mut z);
        drop(counted);
        let visited = |names: &[&str]| names.iter().map(|&k| obs.report().kernels[k].nnz).sum::<u64>();
        let entries = [visited(&["symgs_forward_csr", "symgs_backward_csr"]), visited(&["symgs_split"])];
        let pre = SymGs::new(a, &ExecCtx::default()).expect("a grid compiles");
        let t = timed([reps; 2], |arm| {
            let (a, r, z) = (black_box(pre.matrix()), black_box(&r), black_box(&mut z));
            match arm {
                0 => {
                    z.fill(0.0);
                    kernels::symgs_forward_csr(a, 1.0, r, z);
                    kernels::symgs_backward_csr(a, 1.0, r, z);
                }
                _ => pre.precondition(r, z),
            }
        });
        let us = t.us();
        ratio = t.ratio(0, 1);
        println!(
            "{:<8}{:>12.1}{:>11.1}{ratio:>8.2}{:>22}{:>26}",
            format!("{grid}^3"),
            us[0],
            us[1],
            format!("{} / {}", entries[0], entries[1]),
            format!("{} / {}", 16 * entries[0], 12 * entries[1]),
        );
    }
    println!();
    let what = "fill + two general sweeps / SymGs::precondition at 64^3";
    vec![Claim::at_least("A.symgs-zero-guess", ratio, 1.4, what), eisenstat_products()]
}

/// One level up: when the operator is provably the preconditioner's own
/// matrix, `cg` runs Eisenstat's form over the same split, and an
/// iteration makes no product by `A` — one backward and one forward
/// pass over the strict triangles stand in for the SpMV and the SSOR
/// application. The kernels' own counters of one zero-guess solve each
/// way, at 20³: the general form through a closure over the bound
/// engine, Eisenstat's over the engine itself. The proof is an
/// inspector too, run once per value version of the operand: two more
/// solves leave the proof passes at 1, and a `vals_mut` (writing a
/// value back) costs one more.
fn eisenstat_products() -> Claim {
    let t = grid3d_7pt(20, 20, 20);
    let mut sm = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let (n, nnz) = (t.nrows() as u64, sm.meta().nnz as u64);
    let b: Vec<f64> = (0..t.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    let opts = CgOptions { max_iters: 200, rel_tol: 1e-8 };
    let obs = Obs::enabled();
    let ctx = ExecCtx::default().instrument(obs.clone());
    let engine = SpmvEngine::compile_in(&sm, &ctx).expect("a grid compiles");
    let pre = SymGs::new(Csr::from_triplets(&t), &ctx).expect("a grid compiles");
    let op = engine.bind(&sm);
    let closure = FnOperator::new(t.nrows(), t.ncols(), |v: &[f64], y: &mut [f64]| op.apply(v, y).expect("bound"));
    // Per form: iterations, products by `A`, entries one iteration visits.
    let form = |op: &dyn Operator, names: &[&str]| {
        let before = obs.report().kernels;
        let mut x = vec![0.0; t.nrows()];
        let res = cg(op, &pre, &b, &mut x, opts, &ExecCtx::default()).expect("the grid solves");
        let kernels = obs.report().kernels;
        let delta = |k: &str| {
            let (now, was) = (kernels.get(k).copied().unwrap_or_default(), before.get(k).copied().unwrap_or_default());
            (now.calls - was.calls, now.nnz - was.nnz)
        };
        let products: u64 = kernels.keys().filter(|k| k.contains("spmv")).map(|k| delta(k).0).sum();
        let per_iter: u64 = names.iter().map(|k| delta(k)).map(|(calls, nnz)| nnz.checked_div(calls).unwrap_or(0)).sum();
        (res.converged.then_some(res.iters as u64), products, per_iter)
    };
    let general = form(&closure, &["spmv_csr", "symgs_split"]);
    let split = form(&op, &["symgs_split_op"]);
    let proof_passes = || obs.report().kernels.get("symgs_split_proof").map_or(0, |k| k.calls);
    let repeats = [form(&op, &[]), form(&op, &[])];
    let proved_once = proof_passes();
    if let SparseMatrix::Csr(a) = &mut sm {
        let v = a.vals()[0];
        a.vals_mut()[0] = v;
    }
    let touched = form(&engine.bind(&sm), &[]);
    let proofs = [proved_once, proof_passes()];
    let iters = |form: (Option<u64>, u64, u64)| form.0.map_or("unconverged".into(), |k| k.to_string());
    println!("--- Eisenstat's form: one zero-guess SymGS-PCG solve at 20^3, kernel counters ---");
    println!("{:<14}{:>12}{:>20}{:>26}", "form", "iterations", "products by A", "entries per iteration");
    for (name, form) in [("general", general), ("Eisenstat", split)] {
        println!("{name:<14}{:>12}{:>20}{:>26}", iters(form), form.1, form.2);
    }
    println!("proof passes: {} over three solves on one operand, {} after a vals_mut", proofs[0], proofs[1]);
    println!();
    let holds = general.0.is_some()
        && split.0 == general.0
        && (general.1, split.1) == (general.0.unwrap_or(0), 0)
        && (general.2, split.2) == (nnz + (nnz - n), nnz - n)
        && repeats.iter().chain([&touched]).all(|f| (f.0, f.1) == (split.0, 0))
        && proofs == [1, 2];
    let seen = format!(
        "general / Eisenstat: iterations {} / {}, products by A {} / {}, entries per iteration {} / {} (nnz + (nnz - n) = {}, nnz - n = {}); proof passes {} over three solves, {} after a vals_mut",
        iters(general),
        iters(split),
        general.1,
        split.1,
        general.2,
        split.2,
        nnz + (nnz - n),
        nnz - n,
        proofs[0],
        proofs[1],
    );
    Claim::new("A.eisenstat-products", holds, seen)
}

/// Certificate binding — the inspector/executor cost model applied to
/// the certified kernel tier: the structure fact a certificate rests on
/// (the operand's index digest) is hashed once per operand instance, so
/// a bound kernel entry costs an O(1) `covers()` and the unchecked
/// 4-lane body has to beat the safe reference on its own. Per format,
/// on a grid inside one core's L2 and on `pcg_solve`'s out-of-cache
/// one: the reference kernel, the bound fast kernel, and 1 000 repeat
/// `covers()`.
fn cert_bind() -> Vec<Claim> {
    println!("--- certificate binding: reference vs bound fast SpMV, µs per product ---");
    println!(
        "{:<8}{:<10}{:>11}{:>11}{:>10}{:>15}",
        "grid", "format", "reference", "fast", "ref/fast", "1000 covers()"
    );
    // Per printed row: reference / fast, and 1 000 covers() / fast.
    let (mut speedup, mut covers_share) = (Vec::new(), Vec::new());
    for (grid, reps) in [(20, 64), (64, 2)] {
        let t = grid3d_7pt(grid, grid, grid);
        let x: Vec<f64> = (0..t.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut y = vec![0.0; t.nrows()];
        let label = format!("{grid}^3");
        // One row per format: `$reference`, `$fast` under `$Cert`.
        macro_rules! row {
            ($name:expr, $a:expr, $Cert:ident, $reference:expr, $fast:path) => {{
                let a = $a;
                let cert = $Cert::certify(&a).expect("a generated grid validates");
                let t = timed([reps, reps, 1], |arm| {
                    let (x, y) = (black_box(&x), black_box(&mut y));
                    match arm {
                        0 => $reference(&a, x, y),
                        1 => $fast(&a, x, y, &cert),
                        _ => (0..1000).for_each(|_| assert!(black_box(&cert).covers(&a))),
                    }
                });
                let [reference, bound, covers] = t.us();
                println!(
                    "{label:<8}{:<10}{reference:>11.1}{bound:>11.1}{:>10.2}{covers:>15.2}",
                    $name,
                    t.ratio(0, 1)
                );
                speedup.push(t.ratio(0, 1));
                covers_share.push(t.ratio(2, 1));
            }};
        }
        row!("CRS", Csr::from_triplets(&t), CsrCert, kernels::spmv_csr, fast::spmv_csr_fast);
        let itpack = kernels::spmv_in::<F64Plus, Itpack>;
        row!("ITPACK", Itpack::from_triplets(&t), ItpackCert, itpack, fast::spmv_itpack_fast);
    }
    println!();
    let worst = covers_share.into_iter().fold(0.0, f64::max);
    let (fast, covers) = (
        "CRS reference / bound fast kernel at 64^3",
        "1000 repeat covers() / one fast SpMV pass, worst row",
    );
    vec![
        Claim::at_least("A.cert-bind", speedup[2], 1.0, fast),
        Claim::at_most("A.cert-bind-covers", worst, 1.0, covers),
    ]
}

/// Structure in distribution relations (the Table 3 claim isolated):
/// the same inspector over progressively less structured index
/// translations — closed-form Block, replicated GeneralizedBlock,
/// replicated ContiguousRuns (BlockSolve), replicated Indirect (MAP) —
/// and the Chaos distributed translation table.
fn dist() -> Vec<Claim> {
    const N: usize = 8000;
    const P: usize = 4;
    // Each processor needs a band of 64 indices past its block.
    let used_for = |dist: &dyn Distribution, me: usize| -> Vec<usize> {
        let base = dist.to_global(me, dist.local_len(me) - 1);
        (1..=64).map(|k| (base + k) % N).filter(|&g| dist.owner(g).0 != me).collect()
    };
    let block = BlockDist::new(N, P);
    let genblock = GeneralizedBlockDist::new(&[N / P; P]);
    let runs = (0..2 * P).map(|k| (k * (N / (2 * P)), N / (2 * P), k % P)).collect();
    let contig = ContiguousRunsDist::new(P, runs);
    let indirect = IndirectDist::new(P, (0..N).map(|g| (g / (N / P)).min(P - 1)).collect());
    // Five descriptions of IND: a relation, and whether its MAP is held
    // in a Chaos table (built collectively in the run, and charged to it).
    let inds: [(&str, &dyn Distribution, bool); 5] = [
        ("block", &block, false),
        ("generalized-block", &genblock, false),
        ("contiguous-runs", &contig, false),
        ("indirect-replicated", &indirect, false),
        ("chaos-table/block", &block, true),
    ];

    println!("--- distribution relations: one inspector, N = {N}, P = {P} ---");
    println!("{:<22}{:>12}{:>12}", "relation", "µs", "bytes sent");
    let mut bytes = [0u64; 5];
    let us = timed([1; 5], |arm| {
        let (_, dist, distributed) = inds[arm];
        let out = Machine::run(P, |ctx| {
            let me = ctx.rank();
            let table = distributed.then(|| ChaosTable::build(ctx, N, &dist.owned_globals(me)));
            let ind: &dyn IndexTranslation = match &table {
                Some(t) => t,
                None => dist,
            };
            let sched = CommSchedule::build(ctx, ind, &used_for(dist, me));
            black_box(sched.recv_volume());
            ctx.stats().bytes_sent
        });
        bytes[arm] = out.results.iter().sum();
    })
    .us();
    for (&(name, _, _), (us, bytes)) in inds.iter().zip(us.iter().zip(bytes)) {
        println!("{name:<22}{us:>12.1}{bytes:>12}");
    }
    println!();
    let (chaos, most) = (bytes[4], bytes[..4].iter().copied().fold(0, u64::max));
    let seen = format!("Chaos-table inspector sent {chaos} B, a replicated one at most {most} B");
    vec![Claim::new("A.dist-chaos-bytes", chaos > most, seen)]
}

/// Communication/computation overlap in the BlockSolve matvec — what
/// the paper credits for the hand-written code's 2–4 % edge. Printed
/// only: with P simulated processors on two cores there is little
/// concurrent progress for overlap to buy.
fn overlap() {
    println!("--- overlap: 20 BlockSolve matvecs on the SP-2 network model, ms ---");
    println!("{:<6}{:>14}{:>14}", "P", "gather-first", "overlapped");
    for p in [2, 4] {
        let w = build_workload(p);
        let network = Some(NetworkModel::sp2_scaled());
        let ms: [f64; 2] = median_times(SAMPLES, |overlap| {
            let out = Machine::run_in(p, network, "overlap", &ExecCtx::default(), |ctx| {
                let local = &w.bs_locals[ctx.rank()];
                let mut pm = BsParallelMatvec::inspect(ctx, local, &w.dist);
                let x = vec![1.0; local.n_local];
                let mut y = vec![0.0; local.n_local];
                // 20 matvecs amortise the inspector.
                (0..20).for_each(|_| pm.execute(ctx, local, &x, &mut y, overlap == 1));
                y[0]
            });
            black_box(out.results);
        })
        .map(|s| 1e3 * s);
        println!("{p:<6}{:>14.3}{:>14.3}", ms[0], ms[1]);
    }
    println!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn chaos_table_moves_more_bytes_than_any_replicated_relation() {
        // The one count among the ablation claims; the clocks are the
        // release binary's to read (`scripts/ci.sh` runs it).
        let claims = super::dist();
        assert_eq!(claims[0].id, "A.dist-chaos-bytes");
        assert!(claims[0].holds, "{}", claims[0].seen);
    }
}
