//! Shared-memory parallel SpMV through the engine layer.
//!
//! ```text
//! cargo run --release --example parallel_spmv
//! ```
//!
//! Demonstrates the `ExecCtx` dispatch contract: the same matrix
//! compiled serial, parallel-below-threshold (degrades to the identical
//! specialized engine), and parallel-above-threshold
//! (`Strategy::Parallel`), with the row-family bitwise-equality
//! guarantee checked on the spot.

use bernoulli::engines::{SpmvEngine, Strategy};
use bernoulli::ExecCtx;
use bernoulli_formats::gen::grid3d_7pt;
use bernoulli_formats::{FormatKind, SparseMatrix};

fn main() {
    let t = grid3d_7pt(24, 24, 24);
    let n = t.nrows();
    let nnz = t.canonicalize().entries().len();
    println!("matrix: grid3d_7pt(24,24,24) — {n} rows, {nnz} stored nonzeros");
    println!("host workers (hardware threads): {}\n", ExecCtx::parallel().threads_hint());

    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();

    for kind in [FormatKind::Csr, FormatKind::Itpack, FormatKind::Ccs] {
        let a = SparseMatrix::from_triplets(kind, &t);
        let serial = SpmvEngine::compile(&a).expect("compiles");
        // Threshold above this matrix: parallel config degrades to the
        // byte-identical serial engine.
        let below =
            SpmvEngine::compile_in(&a, &ExecCtx::with_threads(4).threshold(nnz * 2))
                .expect("compiles");
        // Threshold cleared: parallel dispatch. Oversubscription is
        // explicit — without it, a pool whose 4 requested workers clamp
        // to 1 effective hardware thread downgrades to the serial
        // specialized tier (reason `single_worker_pool` in telemetry).
        let above = SpmvEngine::compile_in(
            &a,
            &ExecCtx::with_threads(4).threshold(1).oversubscribe(true),
        )
        .expect("compiles");
        println!(
            "{kind:>10}: serial={:?}  below-threshold={:?}  above-threshold={:?}  (plan {})",
            serial.strategy(),
            below.strategy(),
            above.strategy(),
            above.plan_shape(),
        );
        assert_eq!(below.strategy(), Strategy::Specialized);
        assert_eq!(above.strategy(), Strategy::Parallel);

        let mut y_ser = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        serial.run(&a, &x, &mut y_ser).unwrap();
        above.run(&a, &x, &mut y_par).unwrap();
        let worst = y_ser
            .iter()
            .zip(&y_par)
            .map(|(s, p)| (s - p).abs() / s.abs().max(1.0))
            .fold(0.0f64, f64::max);
        let bitwise = y_ser.iter().zip(&y_par).all(|(s, p)| s.to_bits() == p.to_bits());
        println!("{:>10}  parallel vs serial: bitwise-equal={bitwise}, worst rel err={worst:.2e}", "");
    }
}
