//! The executor's communication step: replaying a [`CommSchedule`].
//!
//! The paper's executor "first exchanges the non-local values of x and
//! then does the computation" (§4) — [`gather_ghosts`] is that
//! exchange. The overlap-capable split used by the hand-written
//! BlockSolve code (post sends, compute local part, then receive) is
//! provided as [`start_sends`] / [`finish_receives`].
//!
//! Everything an iteration does here is proportional to the boundary:
//! the replay walks the slot lists the inspector resolved (no hashing),
//! and the boundary product [`GhostRows`] stores only the rows that
//! touch a ghost.

use crate::inspector::CommSchedule;
use crate::machine::{Ctx, Payload};
use bernoulli_formats::Csr;

/// Tag used by executor gathers.
const TAG_GATHER: u32 = 0x0200;

/// Exchange ghost values: sends this processor's owned values that
/// peers need, receives this processor's ghost values into `ghosts`
/// (indexed by ghost slot, length `sched.num_ghosts`).
pub fn gather_ghosts(ctx: &mut Ctx, sched: &CommSchedule, x_local: &[f64], ghosts: &mut [f64]) {
    start_sends(ctx, sched, x_local);
    finish_receives(ctx, sched, ghosts);
}

/// Post all sends of owned values (the overlap-friendly first half).
pub fn start_sends(ctx: &mut Ctx, sched: &CommSchedule, x_local: &[f64]) {
    for (k, &peer) in sched.send_peers.iter().enumerate() {
        let vals: Vec<f64> = sched.send_locals[k].iter().map(|&l| x_local[l]).collect();
        ctx.send(peer, TAG_GATHER, Payload::F64(vals));
    }
}

/// Receive all ghost values (the second half; call after local work to
/// overlap communication with computation).
pub fn finish_receives(ctx: &mut Ctx, sched: &CommSchedule, ghosts: &mut [f64]) {
    assert!(ghosts.len() >= sched.num_ghosts, "ghost buffer too small");
    assert_eq!(sched.recv_slots.len(), sched.recv_peers.len(), "one slot list per recv peer");
    for (&peer, slots) in sched.recv_peers.iter().zip(&sched.recv_slots) {
        let vals = ctx.recv(peer, TAG_GATHER).into_f64();
        assert_eq!(vals.len(), slots.len(), "gather length from {peer}");
        for (&slot, v) in slots.iter().zip(vals) {
            ghosts[slot] = v;
        }
    }
}

/// The executor's boundary product `y += A_SNL·ghosts`, stored over
/// only the local rows that touch a ghost, columns rewritten to ghost
/// slots: building it and applying it cost ∝ boundary, whatever the
/// local row count.
#[derive(Clone, Debug)]
pub struct GhostRows {
    /// Local row of each stored row, ascending.
    rows: Vec<usize>,
    /// `rows.len() × num_ghosts`.
    a: Csr,
}

impl GhostRows {
    /// From duplicate-free `(local_row, global_col, value)` entries
    /// whose columns `sched` receives.
    pub fn build(sched: &CommSchedule, entries: &[(usize, usize, f64)]) -> GhostRows {
        let mut rows: Vec<usize> = entries.iter().map(|&(lr, _, _)| lr).collect();
        rows.sort_unstable();
        rows.dedup();
        let stored: Vec<(usize, usize, f64)> = entries
            .iter()
            .map(|&(lr, gc, v)| {
                let k = rows.binary_search(&lr).expect("every entry's row was collected");
                (k, sched.ghost_of_global[&gc], v)
            })
            .collect();
        let a = Csr::from_entries_nodup(rows.len(), sched.num_ghosts.max(1), &stored);
        GhostRows { rows, a }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.a.nnz()
    }

    /// `y_local[r] += Σₛ a[r][s]·ghosts[s]` over the stored rows, each
    /// row's products added in slot order (the CRS row body).
    pub fn apply(&self, ghosts: &[f64], y_local: &mut [f64]) {
        for (k, &r) in self.rows.iter().enumerate() {
            let mut acc = 0.0;
            for (&v, &slot) in self.a.row_vals(k).iter().zip(self.a.row_cols(k)) {
                acc += v * ghosts[slot];
            }
            y_local[r] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{BlockDist, Distribution};
    use crate::machine::Machine;

    #[test]
    fn gather_moves_correct_values() {
        let n = 12;
        let d = BlockDist::new(n, 3);
        let out = Machine::run(3, |ctx| {
            let me = ctx.rank();
            // Global value of index g is g² so mistakes are visible.
            let x_local: Vec<f64> =
                d.owned_globals(me).iter().map(|&g| (g * g) as f64).collect();
            // Each proc wants the two globals before its block start.
            let start = d.to_global(me, 0);
            let used: Vec<usize> =
                (1..=2).map(|k| (start + n - k) % n).filter(|&g| d.owner(g).0 != me).collect();
            let sched = CommSchedule::build(ctx, &d, &used);
            let mut ghosts = vec![f64::NAN; sched.num_ghosts];
            gather_ghosts(ctx, &sched, &x_local, &mut ghosts);
            used.iter().map(|g| ghosts[sched.ghost_of_global[g]]).collect::<Vec<f64>>()
        });
        // proc1 wanted globals 3, 2 → 9, 4; proc2 wanted 7, 6 → 49, 36;
        // proc0 wanted 11, 10 → 121, 100.
        assert_eq!(out.results[0], vec![121.0, 100.0]);
        assert_eq!(out.results[1], vec![9.0, 4.0]);
        assert_eq!(out.results[2], vec![49.0, 36.0]);
    }

    #[test]
    fn overlapped_split_equals_plain_gather() {
        let n = 8;
        let d = BlockDist::new(n, 2);
        let out = Machine::run(2, |ctx| {
            let me = ctx.rank();
            let x_local: Vec<f64> =
                d.owned_globals(me).iter().map(|&g| g as f64 + 0.5).collect();
            let used: Vec<usize> = if me == 0 { vec![4, 7] } else { vec![3] };
            let sched = CommSchedule::build(ctx, &d, &used);
            let mut ghosts = vec![0.0; sched.num_ghosts];
            // Overlapped: sends first, fake local work, then receives.
            start_sends(ctx, &sched, &x_local);
            let local_work: f64 = x_local.iter().sum();
            finish_receives(ctx, &sched, &mut ghosts);
            (ghosts, local_work)
        });
        assert_eq!(out.results[0].0, vec![4.5, 7.5]);
        assert_eq!(out.results[1].0, vec![3.5]);
    }

    /// Slots need not follow wire order: a schedule whose table and
    /// slot lists are permuted together verifies clean and gathers every
    /// value into the slot the table names.
    #[test]
    fn permuted_slots_replay_where_the_table_says() {
        let n = 12;
        let d = BlockDist::new(n, 3);
        Machine::run(3, |ctx| {
            let me = ctx.rank();
            let used: Vec<usize> = (0..n).filter(|&g| d.owner(g).0 != me && g % 2 == me % 2).collect();
            let mut sched = CommSchedule::build(ctx, &d, &used);
            // Reverse the slot numbering, consistently in both places.
            let last = sched.num_ghosts - 1;
            sched.ghost_of_global.values_mut().for_each(|s| *s = last - *s);
            sched.recv_slots.iter_mut().flatten().for_each(|s| *s = last - *s);
            assert!(sched.recv_slots[0].windows(2).all(|w| w[0] > w[1]), "slots now run against wire order");
            assert!(crate::verify::verify_comm_schedule(&sched, 3).is_empty());

            let x_local: Vec<f64> = d.owned_globals(me).iter().map(|&g| (g * g) as f64).collect();
            let mut ghosts = vec![f64::NAN; sched.num_ghosts];
            gather_ghosts(ctx, &sched, &x_local, &mut ghosts);
            for &g in &used {
                assert_eq!(ghosts[sched.ghost_of_global[&g]], (g * g) as f64, "gathered global {g}");
            }
        });
    }

    #[test]
    fn ghost_rows_store_and_touch_only_boundary_rows() {
        let d = BlockDist::new(8, 2);
        let out = Machine::run(2, |ctx| {
            let used: Vec<usize> = if ctx.rank() == 0 { vec![4, 7] } else { vec![3] };
            let sched = CommSchedule::build(ctx, &d, &used);
            // Entries in no particular row order; rows 1 and 3 only.
            let entries: Vec<(usize, usize, f64)> = match ctx.rank() {
                0 => vec![(3, 7, 2.0), (1, 4, -1.0), (3, 4, 0.5)],
                _ => vec![(1, 3, 4.0)],
            };
            let rows = GhostRows::build(&sched, &entries);
            let x_local: Vec<f64> = d.owned_globals(ctx.rank()).iter().map(|&g| g as f64).collect();
            let mut ghosts = vec![0.0; sched.num_ghosts];
            gather_ghosts(ctx, &sched, &x_local, &mut ghosts);
            let mut y = vec![-0.0; 4];
            rows.apply(&ghosts, &mut y);
            (rows.nnz(), y)
        });
        assert_eq!(out.results[0].0, 3);
        // Rows no entry names keep their bits (−0.0 + 0.0 would be +0.0).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.results[0].1), bits(&[-0.0, -4.0, -0.0, 2.0 * 7.0 + 0.5 * 4.0]));
        assert_eq!(bits(&out.results[1].1), bits(&[-0.0, 12.0, -0.0, -0.0]));
    }

    #[test]
    fn executor_volume_matches_schedule() {
        let n = 16;
        let d = BlockDist::new(n, 4);
        let out = Machine::run(4, |ctx| {
            let me = ctx.rank();
            let x_local = vec![1.0; d.local_len(me)];
            let used: Vec<usize> = vec![(d.to_global(me, 0) + 4) % n];
            let sched = CommSchedule::build(ctx, &d, &used);
            let before = ctx.stats();
            let mut ghosts = vec![0.0; sched.num_ghosts];
            gather_ghosts(ctx, &sched, &x_local, &mut ghosts);
            (ctx.stats().since(&before), sched.send_locals.concat().len())
        });
        for (delta, send_vol) in &out.results {
            assert_eq!(delta.bytes_sent, 8 * *send_vol as u64);
            assert_eq!(delta.alltoalls, 0, "executor must not all-to-all");
        }
    }
}
