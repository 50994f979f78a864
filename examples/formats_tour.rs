//! A tour of the storage formats — Figure 1 of the paper, live.
//!
//! ```text
//! cargo run --release --example formats_tour
//! ```
//!
//! Prints the CCS and CCCS array layouts (COLP / VALS / ROWIND, plus
//! CCCS's COLIND) for a small matrix with empty columns, then surveys
//! the structural statistics of the Table 1 matrix suite — the numbers
//! that explain why no single format wins everywhere.

use bernoulli_formats::gen::{table1_suite, Scale};
use bernoulli_formats::{Ccs, Cccs, DiagonalMatrix, Itpack, JDiag, Triplets};

fn main() {
    // The Fig. 1 flavour: a 6×6 matrix whose columns 2 and 4 are empty.
    let t = Triplets::from_entries(
        6,
        6,
        &[
            (0, 0, 1.0),
            (2, 0, 2.0),
            (1, 1, 3.0),
            (4, 1, 4.0),
            (5, 1, 5.0),
            (0, 3, 6.0),
            (3, 3, 7.0),
            (2, 5, 8.0),
            (5, 5, 9.0),
        ],
    );

    println!("== Fig. 1(b): Compressed Column Storage ==");
    let ccs = Ccs::from_triplets(&t);
    println!("COLP   = {:?}", ccs.colp());
    println!("ROWIND = {:?}", ccs.rowind());
    println!("VALS   = {:?}", ccs.vals());
    println!("({} of {} columns empty)\n", ccs.empty_cols(), ccs.ncols());

    println!("== Fig. 1(c): Compressed Compressed Column Storage ==");
    let cccs = Cccs::from_triplets(&t);
    println!("COLIND = {:?}   <- the extra level of indirection", cccs.colind());
    println!("COLP   = {:?}", cccs.colp());
    println!("ROWIND = {:?}", cccs.rowind());
    println!("VALS   = {:?}", cccs.vals());
    println!(
        "stored columns: {} (CCS stored pointer slots for all {})\n",
        cccs.stored_cols(),
        ccs.ncols()
    );

    println!("== other formats on the same matrix ==");
    let diag = DiagonalMatrix::from_triplets(&t);
    println!(
        "Diagonal: {} diagonals, {} stored slots for {} nonzeros",
        diag.num_diagonals(),
        diag.stored_len(),
        diag.nnz()
    );
    let itp = Itpack::from_triplets(&t);
    println!(
        "ITPACK:   width {}, {} padded slots for {} nonzeros",
        itp.width(),
        itp.stored_len(),
        itp.nnz()
    );
    let jd = JDiag::from_triplets(&t);
    println!(
        "JDiag:    {} jagged diagonals, row permutation {:?}",
        jd.num_jdiags(),
        jd.permutation().as_forward()
    );

    println!("\n== the Table 1 suite: why no single format wins ==");
    println!(
        "{:<10} {:>7} {:>9} {:>6} {:>9} {:>11} {:>12}",
        "matrix", "n", "nnz", "diags", "max row", "itpack-waste", "rows/i-node"
    );
    for m in table1_suite(Scale::Small) {
        let s = m.stats();
        println!(
            "{:<10} {:>7} {:>9} {:>6} {:>9} {:>10.0}% {:>12.1}",
            m.name,
            s.nrows,
            s.nnz,
            s.num_diagonals,
            s.max_row_len,
            100.0 * s.itpack_waste(),
            s.avg_inode_rows(),
        );
    }
    println!("\nbanded matrices favour Diagonal; uniform rows favour ITPACK;");
    println!("skewed rows favour JDiag; multi-DOF FEM matrices favour i-nodes (BS95).");
}
