//! # bernoulli-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation:
//!
//! * [`table1`] — SpMV MFlops per storage format per matrix (§1,
//!   Table 1): compiler-generated kernels over the synthetic twins of
//!   the paper's eight test matrices;
//! * [`table2`] — parallel CG executor times, 10 iterations, P = 2..64
//!   (§4, Table 2): hand-written BlockSolve vs. Bernoulli-Mixed vs.
//!   naive Bernoulli;
//! * `table3` (in [`table2`]) — inspector overhead ratios (§4, Table 3), adding the
//!   Chaos-based `Indirect-Mixed` / `Indirect` inspectors;
//! * [`fig4`] — the `(k + r_I)/(k + r_B)` curves of Figure 4 derived
//!   from the measured overheads.
//!
//! These functions back the `tables` binary that prints the
//! paper-formatted rows; `benches/` holds the design-choice ablations.

pub mod fig4;
pub mod table1;
pub mod table2;
pub mod workload;

pub use fig4::fig4_series;
pub use table1::{run_table1, Table1};
pub use table2::{run_table2_3, Table23};
