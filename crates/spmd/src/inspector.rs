//! The inspector: communication-set computation (§3.2.3, §4).
//!
//! Given the set of global indices a processor's local computation
//! *uses* (the query `Used^(p)(j) = π_j σ_NZ(A^(p)) …` of eq. (21)),
//! the inspector joins it with the index-translation relation `IND`
//! (eq. (22): `RecvInd = Used ⋈ IND`) to learn **where** each value
//! lives, then exchanges request lists so every processor also knows
//! what to **send**. The result is a [`CommSchedule`] the executor
//! replays every iteration.
//!
//! One join, [`CommSchedule::build`], evaluated the way `IND` describes
//! its own access ([`IndexTranslation::join`]) — which is where the
//! paper's Table 3 comparison comes from:
//!
//! * a replicated [`Distribution`] answers locally, so communication is
//!   one exchange of request lists, volume ∝ boundary size (the
//!   `BlockSolve` / `Bernoulli-*` inspectors);
//! * the Chaos distributed translation table
//!   ([`crate::chaos::ChaosTable`]) answers with all-to-all rounds of
//!   volume ∝ number of used indices (the `Indirect-*` inspectors).
//!
//! [`Distribution`]: crate::dist::Distribution

use crate::dist::IndexTranslation;
use crate::machine::{Ctx, Payload};
use std::collections::{BTreeMap, HashMap};

/// A gather schedule for one distributed array.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommSchedule {
    /// Peers we receive ghost values from, ascending.
    pub recv_peers: Vec<usize>,
    /// Per recv peer: the global indices received, in wire order.
    pub recv_globals: Vec<Vec<usize>>,
    /// Per recv peer: the ghost slot of each received value, in wire
    /// order — `ghost_of_global` resolved once here, so the executor
    /// replays a gather without hashing.
    pub recv_slots: Vec<Vec<usize>>,
    /// Peers we send values to, ascending.
    pub send_peers: Vec<usize>,
    /// Per send peer: local offsets of the values to send, in the wire
    /// order the peer expects.
    pub send_locals: Vec<Vec<usize>>,
    /// Ghost slot of each nonlocal global index.
    pub ghost_of_global: HashMap<usize, usize>,
    /// Total ghost slots.
    pub num_ghosts: usize,
}

impl CommSchedule {
    /// Total values received per executor iteration (boundary size).
    pub fn recv_volume(&self) -> usize {
        self.recv_globals.iter().map(Vec::len).sum()
    }

    /// Total values sent per executor iteration.
    pub fn send_volume(&self) -> usize {
        self.send_locals.iter().map(Vec::len).sum()
    }

    /// The inspector: join `used` with `ind` (`RecvInd = Used ⋈ IND`),
    /// group the answers by owner in `used` order, and run the request
    /// exchange. An index this processor owns needs no ghost and is
    /// skipped, whatever the relation: the naive spec pays to discover
    /// that locality, the mixed one never asks.
    ///
    /// `used` is this processor's set of used global indices (any
    /// order, no duplicates). Collective: every processor calls it.
    pub fn build(ctx: &mut Ctx, ind: &(impl IndexTranslation + ?Sized), used: &[usize]) -> CommSchedule {
        let (me, nprocs) = (ctx.rank(), ctx.nprocs());
        let mut by_owner: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for (&g, (p, l)) in used.iter().zip(ind.join(ctx, used)) {
            if p != me {
                let e = by_owner.entry(p).or_default();
                e.0.push(g);
                e.1.push(l);
            }
        }
        let mut sched = CommSchedule::default();
        // Ghost slots in (peer, wire-order) order.
        let mut requests: Vec<Payload> = (0..nprocs).map(|_| Payload::Empty).collect();
        for (peer, (globals, peer_locals)) in by_owner {
            let slots = sched.num_ghosts..sched.num_ghosts + globals.len();
            sched.ghost_of_global.extend(globals.iter().copied().zip(slots.clone()));
            sched.num_ghosts = slots.end;
            requests[peer] = Payload::Usize(peer_locals);
            sched.recv_peers.push(peer);
            sched.recv_globals.push(globals);
            sched.recv_slots.push(slots.collect());
        }
        // Tell each owner which of its locals we need. A full exchange
        // (empty payloads to non-neighbours) doubles as the "who sends
        // to me" discovery.
        for (peer, pl) in ctx.all_to_all(requests).into_iter().enumerate() {
            let locals = pl.into_usize();
            if !locals.is_empty() {
                sched.send_peers.push(peer);
                sched.send_locals.push(locals);
            }
        }
        debug_assert!(
            crate::verify::verify_comm_schedule(&sched, nprocs).is_empty(),
            "inspector built an inconsistent schedule: {:?}",
            crate::verify::verify_comm_schedule(&sched, nprocs)
        );
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosTable;
    use crate::dist::{BlockDist, Distribution};
    use crate::machine::Machine;

    /// 8 indices over 2 procs, block: p0 owns 0..4, p1 owns 4..8.
    /// p0 uses {5, 6}; p1 uses {0}.
    #[test]
    fn replicated_schedule_shapes() {
        let d = BlockDist::new(8, 2);
        let out = Machine::run(2, |ctx| {
            let used: Vec<usize> = if ctx.rank() == 0 { vec![5, 6] } else { vec![0] };
            CommSchedule::build(ctx, &d, &used)
        });
        let s0 = &out.results[0];
        assert_eq!(s0.recv_peers, vec![1]);
        assert_eq!(s0.recv_globals, vec![vec![5, 6]]);
        assert_eq!(s0.recv_slots, vec![vec![0, 1]]);
        assert_eq!(s0.num_ghosts, 2);
        assert_eq!(s0.send_peers, vec![1]);
        assert_eq!(s0.send_locals, vec![vec![0]]); // p1 wants global 0 = p0 local 0
        let s1 = &out.results[1];
        assert_eq!(s1.recv_volume(), 1);
        assert_eq!(s1.send_volume(), 2);
        assert_eq!(s1.send_locals, vec![vec![1, 2]]); // globals 5,6 = p1 locals 1,2
        assert_eq!(s1.ghost_of_global[&0], 0);
    }

    #[test]
    fn chaos_schedule_matches_replicated() {
        let n = 40;
        let d = BlockDist::new(n, 4);
        // Each proc uses the 3 indices just past its block end (wrapped).
        let used_of = |p: usize| -> Vec<usize> {
            let end = (p + 1) * 10;
            (0..3).map(|k| (end + k) % n).collect()
        };
        let rep = Machine::run(4, |ctx| CommSchedule::build(ctx, &d, &used_of(ctx.rank())));
        let chaos = Machine::run(4, |ctx| {
            let owned = d.owned_globals(ctx.rank());
            let table = ChaosTable::build(ctx, n, &owned);
            CommSchedule::build(ctx, &table, &used_of(ctx.rank()))
        });
        for p in 0..4 {
            assert_eq!(rep.results[p], chaos.results[p], "proc {p}");
        }
        // But the chaos inspector moves strictly more bytes.
        let rep_bytes = rep.total_traffic().bytes_sent;
        let chaos_bytes = chaos.total_traffic().bytes_sent;
        assert!(
            chaos_bytes > 2 * rep_bytes,
            "chaos {chaos_bytes} vs replicated {rep_bytes}"
        );
    }

    #[test]
    fn chaos_tolerates_local_entries_in_used() {
        let n = 20;
        let d = BlockDist::new(n, 2);
        let out = Machine::run(2, |ctx| {
            let owned = d.owned_globals(ctx.rank());
            let table = ChaosTable::build(ctx, n, &owned);
            // Naive used-set: everything, local included.
            let used: Vec<usize> = (0..n).collect();
            CommSchedule::build(ctx, &table, &used)
        });
        // Each proc ends up needing exactly the other's 10 values.
        for p in 0..2 {
            assert_eq!(out.results[p].recv_volume(), 10, "proc {p}");
            assert_eq!(out.results[p].send_volume(), 10, "proc {p}");
        }
    }

    #[test]
    fn no_ghosts_needed() {
        let d = BlockDist::new(6, 3);
        let out = Machine::run(3, |ctx| CommSchedule::build(ctx, &d, &[]));
        for s in &out.results {
            assert_eq!(s.num_ghosts, 0);
            assert!(s.recv_peers.is_empty());
            assert!(s.send_peers.is_empty());
        }
    }
}
