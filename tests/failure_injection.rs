//! Failure injection: the run-time consistency checks the paper's §3.1
//! calls for ("it can only be verified at run-time if a user specified
//! distribution relation in fact provides a 1-1 and onto map"), plus
//! the compiler's rejection of malformed inputs and a rank of the SPMD
//! machine dying mid-run.

use bernoulli::ast::{programs, AccessRef, ArrayDecl, ExprAst, LoopNest};
use bernoulli::compile::Compiler;
use bernoulli_formats::{FormatKind, SparseMatrix, Triplets};
use bernoulli_relational::access::{MatrixAccess, VecMeta};
use bernoulli_relational::error::RelError;
use bernoulli_relational::exec::Bindings;
use bernoulli_relational::ids::{MAT_A, VAR_I, VAR_J, VEC_X, VEC_Y};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_relational::scalar::UpdateOp;
use bernoulli_spmd::dist::Distribution;

/// A deliberately broken "distribution": claims ownership inconsistent
/// with its local→global map.
struct Inconsistent;

impl Distribution for Inconsistent {
    fn nprocs(&self) -> usize {
        2
    }
    fn len(&self) -> usize {
        4
    }
    fn owner(&self, g: usize) -> (usize, usize) {
        (g % 2, 0) // every index claims local offset 0
    }
    fn local_len(&self, p: usize) -> usize {
        2 - p // sizes 2 and 1: not even onto
    }
    fn to_global(&self, p: usize, l: usize) -> usize {
        p + l
    }
}

#[test]
fn inconsistent_distribution_detected_at_runtime() {
    let err = Inconsistent.validate().unwrap_err();
    assert!(!err.is_empty());
}

#[test]
fn chaos_table_rejects_doubly_owned_indices() {
    use bernoulli_spmd::chaos::ChaosTable;
    use bernoulli_spmd::machine::Machine;
    // Both processors claim global 0 — the table build must panic
    // (caught per-thread, surfacing as a machine panic).
    let result = std::panic::catch_unwind(|| {
        Machine::run(2, |ctx| {
            let owned = vec![0usize]; // both claim index 0
            let _ = ChaosTable::build(ctx, 2, &owned);
        })
    });
    assert!(result.is_err(), "double ownership must be rejected");
}

#[test]
fn compiler_rejects_sparse_target() {
    let mut nest = programs::matvec();
    nest.arrays.iter_mut().find(|a| a.id == VEC_Y).unwrap().sparse = true;
    let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0)]);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let meta = QueryMeta::new()
        .mat(MAT_A, a.meta())
        .vec(VEC_X, VecMeta::dense(3))
        .vec(VEC_Y, VecMeta::dense(3));
    assert!(matches!(
        Compiler::new().compile(&nest, &meta),
        Err(RelError::MalformedQuery(_))
    ));
}

#[test]
fn compiler_rejects_rank_mismatch() {
    let nest = LoopNest::new(
        vec![VAR_I, VAR_J],
        vec![
            ArrayDecl { id: MAT_A, name: "A".into(), rank: 1, sparse: true }, // wrong rank
            ArrayDecl { id: VEC_X, name: "X".into(), rank: 1, sparse: false },
            ArrayDecl { id: VEC_Y, name: "Y".into(), rank: 1, sparse: false },
        ],
        AccessRef::vec(VEC_Y, VAR_I),
        UpdateOp::AddAssign,
        ExprAst::access(AccessRef::mat(MAT_A, VAR_I, VAR_J))
            .mul(ExprAst::access(AccessRef::vec(VEC_X, VAR_J))),
    );
    let meta = QueryMeta::new();
    assert!(Compiler::new().compile(&nest, &meta).is_err());
}

#[test]
fn executor_reports_missing_and_misshapen_bindings() {
    let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 2, 2.0)]);
    let a = SparseMatrix::from_triplets(FormatKind::Csr, &t);
    let meta = QueryMeta::new()
        .mat(MAT_A, a.meta())
        .vec(VEC_X, VecMeta::dense(3))
        .vec(VEC_Y, VecMeta::dense(3));
    let k = Compiler::new().compile(&programs::matvec(), &meta).unwrap();

    // Missing x.
    let mut y = vec![0.0; 3];
    let mut b = Bindings::new();
    b.bind_mat(MAT_A, &a).bind_vec_mut(VEC_Y, &mut y);
    assert_eq!(k.run(&mut b), Err(RelError::MissingBinding(VEC_X)));
    drop(b);

    // Wrong-length x.
    let x_bad = vec![0.0; 5];
    let mut y = vec![0.0; 3];
    let mut b = Bindings::new();
    b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x_bad).bind_vec_mut(VEC_Y, &mut y);
    assert!(matches!(k.run(&mut b), Err(RelError::ShapeMismatch { .. })));
    drop(b);

    // Wrong-length target.
    let x = vec![0.0; 3];
    let mut y_bad = vec![0.0; 7];
    let mut b = Bindings::new();
    b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y_bad);
    assert!(matches!(k.run(&mut b), Err(RelError::ShapeMismatch { .. })));

    // Target bound read-only.
    let x = vec![0.0; 3];
    let mut b = Bindings::new();
    b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x);
    assert_eq!(k.run(&mut b), Err(RelError::NotWritable(VEC_Y)));
}

#[test]
fn planner_reports_missing_metadata() {
    let meta = QueryMeta::new(); // nothing registered
    assert!(matches!(
        Compiler::new().compile(&programs::matvec(), &meta),
        Err(RelError::MissingMeta(_))
    ));
}

#[test]
fn matrix_market_parser_survives_garbage() {
    use bernoulli_formats::io::read_matrix_market;
    use std::io::BufReader;
    for bad in [
        "",
        "not a header\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real general\n",
        "%%MatrixMarket matrix coordinate real general\nx y z\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
        "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n1 1 1.0 0.0\n",
        // A lying entry count: more entries than the shape has cells ...
        "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 4611686018427387904\n1 1 1.0\n",
        // ... or one the shape could hold but no allocation can: the
        // reader must not reserve what the header claims.
        "%%MatrixMarket matrix coordinate real general\n4294967296 4294967296 4611686018427387904\n1 1 1.0\n",
    ] {
        assert!(
            read_matrix_market(BufReader::new(bad.as_bytes())).is_err(),
            "parser accepted: {bad:?}"
        );
    }
}

/// Every single-byte mutant of a small general and a small symmetric
/// file — each position overwritten by a non-UTF-8 byte, `0`, `-`, `9`
/// and a newline — parses or is an error, never a panic, and whatever
/// parses keeps its entries inside the shape it declares.
#[test]
fn matrix_market_byte_mutants_parse_or_fail_inside_their_shape() {
    use bernoulli_formats::io::read_matrix_market;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let files = [
        "%%MatrixMarket matrix coordinate real general\n% note\n3 4 4\n1 1 2.5\n2 4 -1\n3 2 1e2\n3 3 7\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4.0\n2 1 -1.0\n3 2 -1.0\n3 3 4.0\n",
    ];
    let (mut parsed, mut refused) = (0, 0);
    for file in files {
        for at in 0..file.len() {
            for byte in [0xff, b'0', b'-', b'9', b'\n'] {
                let mut mutant = file.as_bytes().to_vec();
                if std::mem::replace(&mut mutant[at], byte) == byte {
                    continue;
                }
                let case = String::from_utf8_lossy(&mutant).into_owned();
                let read = catch_unwind(AssertUnwindSafe(|| read_matrix_market(mutant.as_slice())))
                    .unwrap_or_else(|_| panic!("the reader panicked on {case:?}"));
                match read {
                    Ok(t) => {
                        parsed += 1;
                        let inside = t.entries().iter().all(|&(r, c, _)| r < t.nrows() && c < t.ncols());
                        assert!(inside, "an entry outside the declared shape from {case:?}");
                    }
                    Err(_) => refused += 1,
                }
            }
        }
    }
    assert!(parsed > 0 && refused > 0, "{parsed} mutants parsed, {refused} refused");
}

/// A rank that dies leaves its peers waiting for a message (or at a
/// barrier) that never comes. The waiters must notice — while polling
/// (`P ≤ cores`) and while parked (`P` oversubscribed) — and `run` must
/// re-raise the dead rank's own panic promptly, then serve the next run.
#[test]
fn a_dead_peer_unwinds_its_waiters_and_the_pool_survives() {
    use bernoulli_spmd::machine::{Payload, PooledMachine};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    enum Wait {
        AllReduce,
        Barrier,
    }
    for (nprocs, wait) in [(2, Wait::AllReduce), (5, Wait::AllReduce), (2, Wait::Barrier), (5, Wait::Barrier)] {
        let pool = PooledMachine::new(nprocs);
        let dying = nprocs - 1;
        let started = Instant::now();
        let died = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.rank() == dying {
                    // Die only once rank 0 is on its way into the wait,
                    // having sent nothing the collective could use.
                    ctx.recv(0, 1);
                    panic!("rank {dying} exploded");
                }
                if ctx.rank() == 0 {
                    ctx.send(dying, 1, Payload::Empty);
                }
                match wait {
                    Wait::AllReduce => ctx.all_reduce_sum(1.0),
                    Wait::Barrier => {
                        ctx.barrier();
                        0.0
                    }
                }
            })
        }));
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "P={nprocs}: a dead peer held the run for {took:?}");
        let payload = died.err().expect("the run must not complete");
        let message = payload.downcast_ref::<String>().expect("the dead rank's own panic is re-raised");
        assert_eq!(message, &format!("rank {dying} exploded"), "P={nprocs}");

        // Same pool, next run: collectives and barriers line up again.
        let out = pool.run(|ctx| {
            ctx.barrier();
            ctx.all_reduce_sum(ctx.rank() as f64)
        });
        let want = (nprocs * (nprocs - 1) / 2) as f64;
        assert!(out.results.iter().all(|&s| s == want), "P={nprocs}: {:?}", out.results);
    }
}
