//! Cross-crate solver integration: preconditioned CG over the compiled
//! engines, agreeing on the same solutions.

use bernoulli::engines::SpmvEngine;
use bernoulli::ExecCtx;
use bernoulli_formats::gen::{fem_grid_2d, table1_suite, Scale};
use bernoulli_formats::{Csr, FormatKind, SparseMatrix, Triplets};
use bernoulli_solvers::cg::{cg, CgOptions, CgResult};
use bernoulli_solvers::precond::DiagonalPreconditioner;
use bernoulli_solvers::{Preconditioner, SymGs};

fn residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    t.matvec_acc(x, &mut ax);
    ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt()
}

/// CG under both preconditioners over a row-major (CRS) and a
/// column-major (CCS) compiled engine: the four solutions agree.
#[test]
fn preconditioned_cg_agrees_through_compiled_engines() {
    let t = fem_grid_2d(7, 6, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect();
    let diag = DiagonalPreconditioner::from_matrix(&t);
    let gs = SymGs::new(Csr::from_triplets(&t), &ExecCtx::default()).unwrap();
    let mut reference: Option<Vec<f64>> = None;

    for kind in [FormatKind::Csr, FormatKind::Ccs] {
        let a = SparseMatrix::from_triplets(kind, &t);
        let eng = SpmvEngine::compile(&a).unwrap();
        let op = eng.bind(&a);
        let opts = CgOptions { max_iters: 2000, rel_tol: 1e-11 };

        // CG (SPD) with diagonal preconditioning.
        let mut x_cg = vec![0.0; n];
        let r = cg(&op, &diag, &b, &mut x_cg, opts, &ExecCtx::default()).unwrap();
        assert!(r.converged, "{kind:?}");

        // CG with symmetric Gauss-Seidel.
        let mut x_gs = vec![0.0; n];
        let r_gs = cg(&op, &gs, &b, &mut x_gs, opts, &ExecCtx::default()).unwrap();
        assert!(r_gs.converged, "{kind:?}");
        assert!(r_gs.iters <= r.iters, "{kind:?}: SymGS must not be slower in iterations");

        let x_ref = reference.get_or_insert_with(|| x_cg.clone());
        for i in 0..n {
            assert!((x_cg[i] - x_gs[i]).abs() < 1e-6, "{kind:?}: CG vs SymGS-PCG at {i}");
            assert!((x_cg[i] - x_ref[i]).abs() < 1e-6, "{kind:?}: CG vs CRS CG at {i}");
        }
        assert!(residual(&t, &x_cg, &b) < 1e-7, "{kind:?}");
    }
}

#[test]
fn cg_solves_every_spd_suite_matrix_through_engines() {
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        if !s.symmetric || s.nrows > 3000 {
            continue; // keep the test fast (memplus runs in benches)
        }
        let n = s.nrows;
        let a = SparseMatrix::from_triplets(FormatKind::Csr, &m.triplets);
        let eng = SpmvEngine::compile(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let diag = DiagonalPreconditioner::from_matrix(&m.triplets);
        let mut x = vec![0.0; n];
        let opts = CgOptions { max_iters: 6000, rel_tol: 1e-8 };
        let r = cg(&eng.bind(&a), &diag, &b, &mut x, opts, &ExecCtx::default()).unwrap();
        assert!(r.converged, "{}: residual {} after {} iterations", m.name, r.final_residual, r.iters);
    }
}

/// Wrong-length vectors and a rectangular operator are the caller's
/// input: CG refuses them with a `RelError` (it used to `assert_eq!`
/// inside a `RelResult` function).
#[test]
fn cg_refuses_mismatched_systems_without_panicking() {
    use bernoulli::RelError;
    use bernoulli_solvers::precond::IdentityPreconditioner;
    let ctx = ExecCtx::default();
    let square = SparseMatrix::from_triplets(FormatKind::Csr, &fem_grid_2d(3, 3, 1));
    let n = square.nrows();
    let wide = SparseMatrix::from_triplets(
        FormatKind::Csr,
        &Triplets::from_entries(n, n + 2, &[(0, 0, 1.0), (n - 1, n + 1, 2.0)]),
    );
    let pc = IdentityPreconditioner { n };
    let b = vec![1.0; n];
    let before = vec![0.5; n + 1];
    for (what, op, xlen) in [("long x", &square, n + 1), ("short x", &square, n - 1), ("rectangular", &wide, n)] {
        let mut x = before[..xlen].to_vec();
        let res = cg(op, &pc, &b, &mut x, CgOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "cg, {what}: {res:?}");
        assert_eq!(x, before[..xlen], "{what}: a refused solve must not touch x");
    }
}

/// A preconditioner built for another matrix is the caller's input
/// too: CG refuses each preconditioner type with a `RelError` where the
/// application used to panic (`copy_from_slice`, a length assert, the
/// sweeps' `expect`).
#[test]
fn cg_refuses_a_preconditioner_of_another_order() {
    use bernoulli::RelError;
    use bernoulli_solvers::{IdentityPreconditioner, Preconditioner};
    fn refused(what: &str, a: &SparseMatrix, pc: &impl Preconditioner) {
        let (n, ctx) = (a.nrows(), ExecCtx::default());
        assert_ne!(pc.dim(), n);
        let (b, mut x) = (vec![1.0; n], vec![0.5; n]);
        let res = cg(a, pc, &b, &mut x, CgOptions::default(), &ctx);
        assert!(matches!(res, Err(RelError::Validation(_))), "cg, {what}: {res:?}");
        assert_eq!(x, vec![0.5; n], "{what}: a refused solve must not touch x");
    }
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &fem_grid_2d(3, 3, 1));
    let other = fem_grid_2d(4, 3, 1);
    refused("Identity", &a, &IdentityPreconditioner { n: a.nrows() + 1 });
    refused("Diagonal", &a, &DiagonalPreconditioner::from_matrix(&other));
    refused("SymGs", &a, &SymGs::new(Csr::from_triplets(&other), &ExecCtx::default()).unwrap());
}

// --- Numbers unchanged outside the split form ---------------------------

/// FNV-1a-style fold over f64 bit patterns: the golden fingerprint.
fn bit_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf29ce484222325u64, |h, x| (h ^ x.to_bits()).wrapping_mul(0x100000001b3))
}

/// One serial solve from `x0`: the bit hashes of `x` and the history.
fn solve_hashes(op: &dyn bernoulli::Operator, pc: &impl bernoulli_solvers::Preconditioner, b: &[f64], x0: &[f64]) -> [u64; 2] {
    let mut x = x0.to_vec();
    let res = cg(op, pc, b, &mut x, CgOptions { max_iters: 60, rel_tol: 1e-10 }, &ExecCtx::default()).unwrap();
    [bit_hash(&x), bit_hash(&res.residual_history)]
}

/// A serial `cg` that does not take the split form — a diagonal
/// preconditioner, or SymGS behind an operator that cannot prove it is
/// the preconditioner's matrix — carries the bits it had before the
/// split form existed, from a zero and a nonzero guess.
#[test]
fn serial_cg_outside_the_split_form_keeps_its_bits() {
    // Captured when every dot took the blocked eight-lane shape
    // (`vecops`); before that, at the commit before the split form.
    const GOLD: [[u64; 2]; 6] = [
        [0xa0a2474f539c18f9, 0xa028e39a71769b14],
        [0x29d12932ed82f041, 0x90c429f112ee82c2],
        [0x7e7305465bc553b8, 0xd579024dc7d6e067],
        [0x69e18c1b338b9b1d, 0x4481c1ae0df4b8f7],
        [0x5a93fd854df1c5fa, 0xb1fb4f9b59dfbd5d],
        [0xf21d2539305edb7a, 0x7174ac94e2292d50],
    ];
    let t = fem_grid_2d(7, 6, 2);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect();
    let guess: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) * 0.125 - 0.25).collect();
    let diag = DiagonalPreconditioner::from_matrix(&t);
    let wrapped = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| {
        out.fill(0.0);
        bernoulli_formats::kernels::spmv_csr(&a, v, out);
    });
    let mut got = Vec::new();
    for x0 in [vec![0.0; n], guess.clone()] {
        got.push(solve_hashes(&a, &diag, &b, &x0));
        for omega in [1.0, 1.3] {
            let gs = SymGs::with_omega(a.clone(), omega, &ExecCtx::default()).unwrap();
            got.push(solve_hashes(&wrapped, &gs, &b, &x0));
        }
    }
    for (k, (got, want)) in got.iter().zip(GOLD).enumerate() {
        assert_eq!(*got, want, "case {k}: {got:#018x?}");
    }
}

/// A serial `cg` in Eisenstat's form carries the bits it had before
/// its row bodies were fused and its proof memoised — on a 3-D stencil
/// and a 2-dof FEM grid, at ω = 1 and 1.3, from a zero and a nonzero
/// guess, over a serial and an armed-wave SymGS engine (which agree to
/// the bit, so one golden pair serves both).
#[test]
fn serial_cg_in_the_split_form_keeps_its_bits() {
    // Captured before the fused forward pass and the proof memo; the
    // histories again when the opening ⟨r,r⟩ took the blocked dot shape
    // (`vecops`), which moves only their first entry.
    const GOLD: [[u64; 2]; 8] = [
        [0x83884d52f4ebbef0, 0x9ec6b1c9181a3933],
        [0x56c6cc723f288713, 0x4a68830c57012c4f],
        [0x1f2511eec59670d1, 0x3e22c5960a4990e1],
        [0xa5dd5c9f327a4efc, 0x07fb73930e6eb4f7],
        [0x516682ea5d322e66, 0x40defc69c4e1b6f1],
        [0x2579abfd06379076, 0x0a60e0c5aae1f810],
        [0x39b2a8ced451c4f7, 0xaa7fe87453333c3c],
        [0x198b1f1385d84b4b, 0x7f2e1d7233d4384f],
    ];
    let mut got = Vec::new();
    for t in [bernoulli_formats::gen::grid3d_7pt(16, 16, 16), fem_grid_2d(9, 8, 2)] {
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 13) as f64) * 0.3).collect();
        let guess: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) * 0.125 - 0.25).collect();
        for omega in [1.0, 1.3] {
            for x0 in [vec![0.0; n], guess.clone()] {
                let tiers = [ExecCtx::default(), par_ctx()].map(|ctx| {
                    let gs = SymGs::with_omega(a.clone(), omega, &ctx).unwrap();
                    assert!(gs.split_form(&a).is_some());
                    solve_hashes(&a, &gs, &b, &x0)
                });
                assert_eq!(tiers[0], tiers[1], "n {n}, ω {omega}: the wave tier left the serial bits");
                got.push(tiers[0]);
            }
        }
    }
    for (k, (got, want)) in got.iter().zip(GOLD).enumerate() {
        assert_eq!(*got, want, "case {k}: {got:#018x?}");
    }
}

// --- Eisenstat's form against the general form ---------------------------

/// `ExecCtx` whose SymGS engines arm the level-parallel tier.
fn par_ctx() -> ExecCtx {
    ExecCtx::with_threads(2).oversubscribe(true).threshold(1)
}

/// The general form of a solve: the same operator behind a closure,
/// which proves nothing about itself.
fn general(
    op: &dyn bernoulli::Operator,
    pc: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: CgOptions,
) -> CgResult {
    let n = b.len();
    let wrapped = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| op.apply(v, out).unwrap());
    cg(&wrapped, pc, b, x, opts, &ExecCtx::default()).unwrap()
}

/// SymGS-PCG in Eisenstat's form takes the general form's iteration
/// count, every residual within 1e-8·h₀ of its, and really solves the
/// system — on a 3-D stencil and a 2-dof FEM grid, at ω = 1 and 1.3,
/// from a zero and a nonzero guess, over a serial and an armed-parallel
/// SymGS engine (which agree to the bit).
#[test]
fn split_form_tracks_the_general_form() {
    let opts = CgOptions { max_iters: 300, rel_tol: 1e-8 };
    for t in [bernoulli_formats::gen::grid3d_7pt(16, 16, 16), fem_grid_2d(9, 8, 2)] {
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let guess: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) * 0.125 - 0.25).collect();
        for omega in [1.0, 1.3] {
            for x0 in [vec![0.0; n], guess.clone()] {
                let mut general_x = x0.clone();
                let pc = SymGs::with_omega(a.clone(), omega, &ExecCtx::default()).unwrap();
                let want = general(&a, &pc, &b, &mut general_x, opts);
                let mut bits = Vec::new();
                for ctx in [ExecCtx::default(), par_ctx()] {
                    let pc = SymGs::with_omega(a.clone(), omega, &ctx).unwrap();
                    assert!(pc.split_form(&a).is_some());
                    let mut x = x0.clone();
                    let got = cg(&a, &pc, &b, &mut x, opts, &ExecCtx::default()).unwrap();
                    let case = format!("n {n}, ω {omega}, {:?}", pc.engine().strategy());
                    assert!(got.converged && want.converged, "{case}");
                    assert_eq!(got.iters, want.iters, "{case}");
                    let h0 = want.residual_history[0];
                    assert_eq!(got.residual_history[0].to_bits(), h0.to_bits(), "{case}");
                    for (k, (g, w)) in got.residual_history.iter().zip(&want.residual_history).enumerate() {
                        assert!((g - w).abs() <= 1e-8 * h0, "{case}, iteration {k}: {g} vs {w}");
                    }
                    assert!(residual(&t, &x, &b) <= opts.rel_tol * h0, "{case}");
                    bits.push((x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), got.residual_history));
                }
                assert_eq!(bits[0], bits[1], "n {n}, ω {omega}: the wave tier left the serial bits");
            }
        }
    }
}

/// An operator that is not provably the preconditioner's own matrix —
/// one value off, another pattern of the same order, the same values
/// over swapped columns, a CCS operator, a
/// closure, or a matrix whose split is inexact (a row missing its
/// diagonal, a row storing it twice) — takes the general form, bit for
/// bit the solve through a closure wrapper.
#[test]
fn split_form_is_refused_unless_proved() {
    let t = fem_grid_2d(6, 5, 2);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3 % 7) as f64) * 0.25).collect();
    let opts = CgOptions { max_iters: 25, rel_tol: 0.0 };
    let ctx = ExecCtx::default();
    let check = |what: &str, op: &dyn bernoulli::Operator, pc: &SymGs| {
        assert!(pc.split_form(op).is_none(), "{what}: proved");
        let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
        let got = cg(op, pc, &b, &mut x, opts, &ctx).unwrap();
        let want = general(op, pc, &b, &mut y, opts);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&x), bits(&got.residual_history)), (bits(&y), bits(&want.residual_history)), "{what}");
    };
    let pc = SymGs::new(a.clone(), &ctx).unwrap();
    assert!(pc.split_form(&a).is_some());
    let mut off = a.clone();
    off.vals_mut()[7] *= 1.0 + f64::EPSILON;
    check("one value changed", &off, &pc);
    let other = Csr::from_triplets(&t.canonicalize().entries().iter().filter(|e| (e.0, e.1) != (3, 4) && (e.0, e.1) != (4, 3)).fold(
        Triplets::new(n, n),
        |mut acc, &(r, c, v)| {
            acc.push(r, c, v);
            acc
        },
    ));
    assert_ne!(other.nnz(), a.nnz());
    check("another pattern", &other, &pc);
    // The same row pointers and values, two column indices of row 5
    // swapped: only the index arrays tell it from the owned matrix.
    let offd: Vec<usize> = (a.rowptr()[5]..a.rowptr()[6]).filter(|&k| a.colind()[k] != 5).collect();
    let mut ci = a.colind().to_vec();
    ci.swap(offd[0], offd[1]);
    let swapped = Csr::from_raw_unchecked(n, n, a.rowptr().to_vec(), ci, a.vals().to_vec());
    check("two columns swapped", &swapped, &pc);
    check("a CCS operator", &SparseMatrix::from_triplets(FormatKind::Ccs, &t), &pc);
    let closure = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| {
        out.fill(0.0);
        bernoulli_formats::kernels::spmv_csr(&a, v, out);
    });
    check("a closure", &closure, &pc);

    // Inexact splits: row 5 without its diagonal; row 5 storing it as
    // two halves, which an SpMV sums and the split would take one of.
    let (rowptr, colind, vals) = (a.rowptr(), a.colind(), a.vals());
    let d = (rowptr[5]..rowptr[6]).find(|&k| colind[k] == 5).unwrap();
    let (mut ci, mut va) = (colind.to_vec(), vals.to_vec());
    ci.remove(d);
    va.remove(d);
    let rp: Vec<usize> = rowptr.iter().map(|&p| if p > d { p - 1 } else { p }).collect();
    let missing = Csr::from_raw_unchecked(n, n, rp, ci, va);
    let (mut ci, mut va) = (colind.to_vec(), vals.to_vec());
    ci.insert(d, 5);
    va[d] *= 0.5;
    va.insert(d, va[d]);
    let rp: Vec<usize> = rowptr.iter().map(|&p| if p > d { p + 1 } else { p }).collect();
    let twice = Csr::from_raw_unchecked(n, n, rp, ci, va);
    for (what, m) in [("a missing diagonal", missing), ("a repeated diagonal", twice)] {
        let pc = SymGs::new(m.clone(), &ctx).unwrap();
        check(what, &m, &pc);
    }
}

/// The split-form proof is kept against the operator's value version
/// (`Csr::stamp`), and reads the arrays only when that version is new
/// (a `symgs_split_proof` kernel event): three solves on one operand
/// prove once; a `vals_mut` that writes a value back is proved again;
/// one that changes a value sends the next solve to the general form,
/// bit for bit the solve through a closure; a clone of a proved
/// operand is proved at once, a rebuild from the same triplets by one
/// more proof.
#[test]
fn split_form_proof_is_kept_per_value_version() {
    use bernoulli_obs::Obs;
    let t = fem_grid_2d(6, 5, 2);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3 % 7) as f64) * 0.25).collect();
    let opts = CgOptions { max_iters: 25, rel_tol: 0.0 };
    let obs = Obs::enabled();
    let pc = SymGs::new(Csr::from_triplets(&t), &ExecCtx::default().instrument(obs.clone())).unwrap();
    let proofs = || obs.report().kernels.get("symgs_split_proof").map_or(0, |k| k.calls);
    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let solve = |op: &dyn bernoulli::Operator| {
        let mut x = vec![0.0; n];
        let res = cg(op, &pc, &b, &mut x, opts, &ExecCtx::default()).unwrap();
        (bits(&x), bits(&res.residual_history))
    };

    assert!(pc.split_form(pc.matrix()).is_some() && pc.split_form(&pc.matrix().clone()).is_some());
    assert_eq!(proofs(), 0, "the owned matrix and its clones need no proof");
    let mut a = Csr::from_triplets(&t);
    let split = solve(&a);
    for _ in 0..2 {
        assert_eq!(solve(&a), split);
    }
    let kernels = obs.report().kernels;
    assert_eq!((kernels["symgs_split_proof"].calls, kernels["symgs_split_proof"].nnz), (1, a.nnz() as u64));
    assert_eq!(kernels["symgs_split_op"].calls, 3 * 25);

    let v = a.vals()[7];
    a.vals_mut()[7] = v;
    assert_eq!(solve(&a), split);
    assert_eq!(proofs(), 2, "the same value written back");
    assert!(pc.split_form(&a.clone()).is_some());
    assert_eq!(proofs(), 2, "a clone of a proved operand");

    a.vals_mut()[7] *= 1.0 + f64::EPSILON;
    let mut y = vec![0.0; n];
    let want = general(&a, &pc, &b, &mut y, opts);
    assert_eq!(solve(&a), (bits(&y), bits(&want.residual_history)), "one value changed");
    assert!(pc.split_form(&a).is_none());
    assert_eq!(proofs(), 4, "a failed proof is not kept");

    assert!(pc.split_form(&Csr::from_triplets(&t)).is_some());
    assert_eq!(proofs(), 5, "a rebuild from the same triplets");
}

/// A zero-guess solve in Eisenstat's form makes no product by `A`: an
/// instrumented run records no `spmv*` kernel event and one
/// `symgs_split_op` per iteration (its flops counting the lower
/// triangle twice), where the general form over the same
/// bound engine records one SpMV per iteration.
#[test]
fn split_form_makes_no_product() {
    use bernoulli_obs::Obs;
    let t = bernoulli_formats::gen::grid3d_7pt(8, 8, 8);
    let n = t.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let opts = CgOptions { max_iters: 100, rel_tol: 1e-8 };
    let obs = Obs::enabled();
    let ctx = ExecCtx::default().instrument(obs.clone());
    let sm = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let eng = SpmvEngine::compile_in(&sm, &ctx).unwrap();
    let pc = SymGs::new(Csr::from_triplets(&t), &ctx).unwrap();
    let products = |obs: &Obs| obs.report().kernels.iter().filter(|(k, _)| k.contains("spmv")).map(|(_, s)| s.calls).sum::<u64>();
    let before = products(&obs);
    let mut x = vec![0.0; n];
    let res = cg(&eng.bind(&sm), &pc, &b, &mut x, opts, &ctx).unwrap();
    assert!(res.converged && res.iters > 0);
    let report = obs.report();
    assert_eq!(products(&obs), before, "{:?}", report.kernels.keys());
    assert_eq!(report.kernels["symgs_split_op"].calls, res.iters as u64);
    // Per step: every strict entry multiplied once, the lower triangle's
    // again for `w = A·t`, and one multiply-add per row.
    let strict = (Csr::from_triplets(&t).nnz() - n) as u64;
    assert_eq!(report.kernels["symgs_split_op"].flops, res.iters as u64 * 2 * (strict + strict / 2 + n as u64));
    assert_eq!(report.kernels["symgs_split_forward"].calls, 1);
    let mut y = vec![0.0; n];
    let bound = eng.bind(&sm);
    let general = general(&bound, &pc, &b, &mut y, opts);
    assert_eq!(general.iters, res.iters);
    assert_eq!(products(&obs) - before, res.iters as u64);
}

/// Eisenstat's form runs its vector pass serially, so a ctx that would
/// put the general form's vector operations on its pool keeps the
/// general form, bit for bit the solve through a closure wrapper.
#[test]
fn a_parallel_ctx_keeps_the_general_form() {
    let t = fem_grid_2d(6, 5, 2);
    let n = t.nrows();
    let a = Csr::from_triplets(&t);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3 % 7) as f64) * 0.25).collect();
    let opts = CgOptions { max_iters: 25, rel_tol: 0.0 };
    let ctx = par_ctx();
    assert!(ctx.should_parallelize(n));
    let pc = SymGs::new(a.clone(), &ctx).unwrap();
    assert!(pc.split_form(&a).is_some());
    let wrapped = bernoulli::FnOperator::new(n, n, |v: &[f64], out: &mut [f64]| bernoulli::Operator::apply(&a, v, out).unwrap());
    let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
    let got = cg(&a, &pc, &b, &mut x, opts, &ctx).unwrap();
    let want = cg(&wrapped, &pc, &b, &mut y, opts, &ctx).unwrap();
    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!((bits(&x), bits(&got.residual_history)), (bits(&y), bits(&want.residual_history)));
}
