//! # bernoulli-spmd
//!
//! A simulated distributed-memory SPMD machine and the distributed
//! index-translation machinery of the paper's §3.
//!
//! The paper ran on an IBM SP-2 with message passing; this crate stands
//! in a faithful software substitute: one OS thread per "processor",
//! point-to-point messages over channels, the collectives the
//! algorithms need (barrier, all-reduce, all-to-all), and — because
//! wall-clock alone cannot reproduce a 64-node machine on a laptop —
//! **per-processor traffic accounting** (messages, bytes, collective
//! rounds), which is exactly the quantity the paper's inspector
//! comparison (Table 3) turns on.
//!
//! Modules:
//!
//! * [`machine`] — the machine, per-processor [`machine::Ctx`] handle,
//!   collectives and [`machine::TrafficStats`];
//! * [`dist`] — *distribution relations* (§3.1): Block, Cyclic,
//!   BlockCyclic, HPF-2 GeneralizedBlock, BlockSolve-style
//!   ContiguousRuns, and replicated Indirect (MAP array) — all
//!   answering the global ↔ (proc, local) queries of the fragmentation
//!   equation — and [`dist::IndexTranslation`], the one access method
//!   by which the inspector joins any `IND`;
//! * [`chaos`] — the Chaos-library distributed translation table:
//!   a MAP array partitioned blockwise, so its join takes all-to-all
//!   rounds (the `Indirect` rows of Table 3) — one more `IND`;
//! * [`inspector`] — communication-set computation (§3.2.3): the one
//!   `Used ⋈ IND → RecvInd` query over any `IND`, producing a
//!   [`inspector::CommSchedule`];
//! * [`executor`] — ghost-value gather over a schedule, and the
//!   boundary product over the rows that touch a ghost;
//! * [`verify`] — the §3.1 "debugging version": collective run-time
//!   consistency checking of user-supplied distribution relations.

pub mod chaos;
pub mod dist;
pub mod executor;
pub mod inspector;
pub mod machine;
pub mod verify;

pub use dist::{
    BlockCyclicDist, BlockDist, ContiguousRunsDist, CyclicDist, Distribution, GeneralizedBlockDist,
    IndexTranslation, IndirectDist,
};
pub use inspector::CommSchedule;
pub use machine::{Ctx, Machine, NetworkModel, PooledMachine, TrafficStats};
pub use verify::{check_distribution_collective, verify_comm_schedule, verify_comm_schedule_ok};
