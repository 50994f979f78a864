//! Property-based tests (proptest) on the core invariants:
//! format round-trips, kernel equivalence, permutations, distribution
//! relations, and inspector communication-set correctness.

use bernoulli::ast::programs;
use bernoulli::compile::Compiler;
use bernoulli::engines::SpmvEngine;
use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta};
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_relational::permutation::Permutation;
use bernoulli_relational::semiring::F64Plus;
use bernoulli_spmd::dist::{
    BlockCyclicDist, BlockDist, CyclicDist, Distribution, GeneralizedBlockDist, IndirectDist,
};
use proptest::prelude::*;

/// Strategy: a small random matrix as (nrows, ncols, entries).
fn arb_matrix() -> impl Strategy<Value = Triplets> {
    (1usize..12, 1usize..12).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec(
            (0..nr, 0..nc, -100i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 4.0)),
            0..60,
        )
        .prop_map(move |entries| Triplets::from_entries(nr, nc, &entries))
    })
}

/// Strategy: a dense vector of a given length.
fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-50i32..50).prop_map(|v| v as f64 / 8.0), len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Triplets → any format → triplets is the identity on the
    /// canonical form.
    #[test]
    fn format_roundtrip(t in arb_matrix()) {
        let canon = t.canonicalize();
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            prop_assert_eq!(m.to_triplets().canonicalize(), canon.clone(), "format {}", kind);
        }
    }

    /// Every format's hand-written SpMV kernel computes the same y.
    #[test]
    fn spmv_kernels_equivalent((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let mut want = vec![0.0; t.nrows()];
        t.matvec_acc(&x, &mut want);
        for kind in FormatKind::ALL {
            let m = SparseMatrix::from_triplets(kind, &t);
            let mut y = vec![0.0; t.nrows()];
            m.spmv_acc(&x, &mut y);
            for (a, b) in y.iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-9, "format {}: {} vs {}", kind, a, b);
            }
        }
    }

    /// The compiled engine equals the hand-written kernel for every
    /// format (compiler correctness property).
    #[test]
    fn compiled_engine_equals_reference((t, x) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc))
    })) {
        let mut want = vec![0.0; t.nrows()];
        t.matvec_acc(&x, &mut want);
        for kind in [FormatKind::Csr, FormatKind::Ccs, FormatKind::Cccs,
                     FormatKind::Coordinate, FormatKind::Diagonal, FormatKind::Itpack,
                     FormatKind::JDiag, FormatKind::Inode] {
            let m = SparseMatrix::from_triplets(kind, &t);
            // The engine's kernel, then the plan interpreter itself.
            let mut y = vec![0.0; t.nrows()];
            SpmvEngine::compile(&m).unwrap().run(&m, &x, &mut y).unwrap();
            let meta = QueryMeta::new()
                .mat(MAT_A, m.meta())
                .vec(VEC_X, VecMeta::dense(t.ncols()))
                .vec(VEC_Y, VecMeta::dense(t.nrows()));
            let plan = Compiler::new().compile(&programs::matvec(), &meta).unwrap();
            let mut yi = vec![0.0; t.nrows()];
            let mut binds = Bindings::new();
            binds.bind_mat(MAT_A, &m).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut yi);
            plan.run(&mut binds).unwrap();
            for (tier, got) in [("engine", &y), ("interpreter", &yi)] {
                for (a, b) in got.iter().zip(&want) {
                    prop_assert!((a - b).abs() < 1e-9, "format {} {}", kind, tier);
                }
            }
        }
    }

    /// Permutations are bijections with consistent inverses.
    #[test]
    fn permutation_laws(seed in proptest::collection::vec(0u64..1000, 1..20)) {
        let p = Permutation::sorting(&seed);
        let n = p.len();
        for i in 0..n {
            prop_assert_eq!(p.backward(p.forward(i)), i);
        }
        let q = p.inverse();
        for i in 0..n {
            prop_assert_eq!(q.forward(p.forward(i)), i);
        }
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(p.unapply_to_vec(&p.apply_to_vec(&v)), v);
    }

    /// Every distribution relation is a 1–1, onto map, and
    /// owner/to_global are mutually inverse.
    #[test]
    fn distributions_are_bijective(n in 1usize..200, p in 1usize..9, b in 1usize..16, seed in 0u64..1000) {
        BlockDist::new(n, p).validate().unwrap();
        CyclicDist::new(n, p).validate().unwrap();
        BlockCyclicDist::new(n, p, b).validate().unwrap();
        // Generalized block with random sizes summing to n.
        let mut sizes = vec![n / p; p];
        sizes[(seed as usize) % p] += n % p;
        GeneralizedBlockDist::new(&sizes).validate().unwrap();
        // Indirect with a deterministic pseudo-random map.
        let map: Vec<usize> = (0..n).map(|g| ((g as u64).wrapping_mul(seed + 1) % p as u64) as usize).collect();
        IndirectDist::new(p, map).validate().unwrap();
    }

    /// The inspector's receive sets are exactly the nonlocal used
    /// indices, and send/recv volumes balance machine-wide.
    #[test]
    fn inspector_schedules_are_exact(n in 8usize..60, p in 2usize..5, seed in 0u64..500) {
        use bernoulli_spmd::inspector::CommSchedule;
        use bernoulli_spmd::machine::Machine;
        let dist = BlockDist::new(n, p);
        // Each proc uses a deterministic pseudo-random set of indices.
        let used_of = |me: usize| -> Vec<usize> {
            let mut v: Vec<usize> = (0..n)
                .filter(|&g| (g as u64 * 31 + me as u64 * 17 + seed).is_multiple_of(5))
                .filter(|&g| dist.owner(g).0 != me)
                .collect();
            v.dedup();
            v
        };
        let out = Machine::run(p, |ctx| {
            let sched = CommSchedule::build(ctx, &dist, &used_of(ctx.rank()));
            (sched.recv_volume(), sched.send_locals.concat().len(),
             sched.recv_globals.concat(), sched.num_ghosts)
        });
        let recv_total: usize = out.results.iter().map(|r| r.0).sum();
        let send_total: usize = out.results.iter().map(|r| r.1).sum();
        prop_assert_eq!(recv_total, send_total, "volumes must balance");
        for (me, (_, _, recv_globals, num_ghosts)) in out.results.iter().enumerate() {
            let mut want = used_of(me);
            want.sort_unstable();
            let mut got = recv_globals.clone();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "proc {} receives exactly its used set", me);
            prop_assert_eq!(*num_ghosts, want.len());
        }
    }

    /// Matrix Market writing/parsing round-trips arbitrary matrices.
    #[test]
    fn matrix_market_roundtrip(t in arb_matrix()) {
        let mut buf = Vec::new();
        bernoulli_formats::io::write_matrix_market(&t, &mut buf).unwrap();
        let back = bernoulli_formats::io::read_matrix_market(
            std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(back.canonicalize(), t.canonicalize());
    }

    /// The sparse dot product is a compiled loop nest: `s += X(i)·Z(i)`
    /// over a sparse `X` and a sparse or dense `Z` agrees with the
    /// dense dot. Where the two sparse streams are of comparable length
    /// (both ≥ 4 long, neither more than twice the other) one
    /// co-traversal costs less than a binary probe per entry, and the
    /// plan is one loop that merge-joins them.
    #[test]
    fn planned_vector_dot_matches_the_dense_dot(n in 1usize..40, pairs_a in
        proptest::collection::vec((0usize..1000, -30i32..30), 0..30),
        pairs_b in proptest::collection::vec((0usize..1000, -30i32..30), 0..30))
    {
        use bernoulli::ast::programs;
        use bernoulli::Compiler;
        use bernoulli_formats::SparseVec;
        use bernoulli_relational::prelude::*;
        let mk = |pairs: &[(usize, i32)]| {
            SparseVec::from_pairs(
                n,
                &pairs.iter().map(|&(i, v)| (i % n, v as f64 / 2.0)).collect::<Vec<_>>(),
            )
        };
        let dense = |v: &SparseVec| {
            let mut out = vec![0.0; n];
            let (idx, vals) = v.arrays();
            idx.iter().zip(vals).for_each(|(&i, &x)| out[i] = x);
            out
        };
        let (a, b) = (mk(&pairs_a), mk(&pairs_b));
        let db = dense(&b);
        let want: f64 = dense(&a).iter().zip(&db).map(|(x, y)| x * y).sum();

        let meta = QueryMeta::new().vec(VEC_X, a.meta()).vec(VEC_Y, b.meta());
        let merged = Compiler::new().compile(&programs::vec_dot(true, true), &meta).unwrap();
        let (short, long) = (a.nnz().min(b.nnz()), a.nnz().max(b.nnz()));
        if short >= 4 && long <= 2 * short {
            let merges = matches!(merged.plan.nodes.as_slice(),
                [PlanNode::Loop(l)] if l.lookups.iter().any(|k| k.method == JoinMethod::Merge));
            prop_assert!(merges, "not one merge-joined loop: {}", merged.shape());
        }
        let mut s = 0.0;
        merged.run(Bindings::new().bind_vec(VEC_X, &a).bind_vec(VEC_Y, &b).bind_scalar_mut(MAT_C, &mut s)).unwrap();
        prop_assert!((s - want).abs() < 1e-9, "sparse · sparse: {} vs {}", s, want);

        let meta = QueryMeta::new().vec(VEC_X, a.meta()).vec(VEC_Y, VecMeta::dense(n));
        let probed = Compiler::new().compile(&programs::vec_dot(true, false), &meta).unwrap();
        let mut s = 0.0;
        probed.run(Bindings::new().bind_vec(VEC_X, &a).bind_vec(VEC_Y, &db).bind_scalar_mut(MAT_C, &mut s)).unwrap();
        prop_assert!((s - want).abs() < 1e-9, "sparse · dense: {} vs {}", s, want);
    }

    /// Tree all-reduce computes the exact sum/max at every machine size.
    #[test]
    fn tree_allreduce_correct(p in 1usize..12, seed in 0u64..1000) {
        use bernoulli_spmd::machine::Machine;
        let vals: Vec<f64> = (0..p).map(|r| ((r as u64 * 37 + seed) % 100) as f64 - 50.0).collect();
        let want_sum: f64 = vals.iter().sum();
        let want_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let out = Machine::run(p, |ctx| {
            (ctx.all_reduce_sum(vals[ctx.rank()]), ctx.all_reduce_max(vals[ctx.rank()]))
        });
        for &(s, m) in &out.results {
            prop_assert!((s - want_sum).abs() < 1e-9);
            prop_assert_eq!(m, want_max);
        }
    }

    /// Symmetric Gauss-Seidel of an SPD grid-like matrix: M⁻¹
    /// application is symmetric positive (zᵀr > 0 for r ≠ 0) — the
    /// property PCG relies on.
    #[test]
    fn symgs_preconditioner_spd_action(seed in 0u64..50) {
        use bernoulli_solvers::precond::Preconditioner;
        use bernoulli_solvers::{ExecCtx, SymGs};
        let t = bernoulli_formats::gen::grid2d_5pt(5, 5);
        let n = t.nrows();
        let f = SymGs::new(bernoulli_formats::Csr::from_triplets(&t), &ExecCtx::default()).unwrap();
        let r: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + 1) * (seed + 3)) % 17) as f64 - 8.0)
            .collect();
        if r.iter().all(|&x| x == 0.0) {
            return Ok(());
        }
        let mut z = vec![0.0; n];
        f.precondition(&r, &mut z);
        let zr: f64 = z.iter().zip(&r).map(|(a, b)| a * b).sum();
        prop_assert!(zr > 0.0, "zᵀr = {zr}");
    }

    /// Transposing twice is the identity; SpMV with the transposed CSR
    /// equals the triplets' transposed product.
    #[test]
    fn transpose_laws((t, x) in arb_matrix().prop_flat_map(|t| {
        let nr = t.nrows();
        (Just(t), arb_vec(nr))
    })) {
        let a = bernoulli_formats::Csr::from_triplets(&t);
        prop_assert_eq!(a.transposed().transposed(), a.clone());
        let mut y1 = vec![0.0; t.ncols()];
        t.transposed().matvec_acc(&x, &mut y1);
        let mut y2 = vec![0.0; t.ncols()];
        bernoulli_formats::kernels::spmv_csr(&a.transposed(), &x, &mut y2);
        for (p1, p2) in y1.iter().zip(&y2) {
            prop_assert!((p1 - p2).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row-family parallel SpMV is bit-identical to the serial kernel
    /// for any worker count: row-block partitioning preserves the
    /// per-element accumulation order of every row.
    #[test]
    fn par_spmv_row_family_bit_identical((t, x, threads) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc), 2usize..6)
    })) {
        use bernoulli_formats::ExecCtx;
        let exec = ExecCtx::with_threads(threads).threshold(1);
        for kind in [
            FormatKind::Dense,
            FormatKind::Csr,
            FormatKind::Diagonal,
            FormatKind::Itpack,
            FormatKind::JDiag,
            FormatKind::Inode,
        ] {
            let a = SparseMatrix::from_triplets(kind, &t);
            let mut y_ser = vec![1.0; t.nrows()];
            let mut y_par = vec![1.0; t.nrows()];
            a.spmv_acc(&x, &mut y_ser);
            a.spmv_acc_on::<F64Plus>(&x, &mut y_par, Some(&exec));
            prop_assert_eq!(&y_ser, &y_par, "format {} threads {}", kind, threads);
        }
    }

    /// Reduction-family parallel SpMV (column-major and flat formats,
    /// merged from per-chunk partial vectors) matches serial to within
    /// re-association rounding.
    #[test]
    fn par_spmv_reduction_family_close((t, x, threads) in arb_matrix().prop_flat_map(|t| {
        let nc = t.ncols();
        (Just(t), arb_vec(nc), 2usize..6)
    })) {
        use bernoulli_formats::ExecCtx;
        let exec = ExecCtx::with_threads(threads).threshold(1);
        for kind in [FormatKind::Ccs, FormatKind::Cccs, FormatKind::Coordinate] {
            let a = SparseMatrix::from_triplets(kind, &t);
            let mut y_ser = vec![1.0; t.nrows()];
            let mut y_par = vec![1.0; t.nrows()];
            a.spmv_acc(&x, &mut y_ser);
            a.spmv_acc_on::<F64Plus>(&x, &mut y_par, Some(&exec));
            for (s, p) in y_ser.iter().zip(&y_par) {
                prop_assert!(
                    (s - p).abs() <= 1e-12 * s.abs().max(1.0),
                    "format {} threads {}: {} vs {}", kind, threads, s, p
                );
            }
        }
    }

    /// Degenerate shapes — all-empty rows and columns — survive every
    /// parallel kernel (the chunking math must not panic on them).
    #[test]
    fn par_spmv_handles_empty_rows_and_cols((nr, nc, threads) in (1usize..20, 1usize..20, 2usize..9)) {
        use bernoulli_formats::ExecCtx;
        let t = Triplets::from_entries(nr, nc, &[]);
        let exec = ExecCtx::with_threads(threads).threshold(1);
        let x = vec![1.0; nc];
        for kind in FormatKind::ALL {
            let a = SparseMatrix::from_triplets(kind, &t);
            let mut y = vec![0.5; nr];
            a.spmv_acc_on::<F64Plus>(&x, &mut y, Some(&exec));
            for v in &y {
                prop_assert_eq!(*v, 0.5, "format {}", kind);
            }
        }
    }
}
