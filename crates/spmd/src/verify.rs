//! Run-time distribution consistency checking — the "debugging
//! version" of §3.1.
//!
//! "By mistake, the user may specify inconsistent distribution
//! relations IND. These inconsistencies, in general, can only be
//! detected at runtime … It is possible to generate a 'debugging'
//! version of the code, that will check the consistency of the
//! distributions." This module is that debugging version: a collective
//! check that every global index is owned exactly once and that the
//! local views (`owned_globals`) agree with the replicated relation.

use crate::dist::Distribution;
use crate::inspector::CommSchedule;
use crate::machine::{Ctx, Payload};
use bernoulli_analysis::diag::{codes, Diagnostic, Span};

/// Collectively verify a distribution against each processor's own
/// view. Every processor passes the list of globals it *believes* it
/// owns (e.g. the indices its fragment actually came with);
/// the check asserts:
///
/// 1. the union covers `0..dist.len()` exactly once (1–1 and onto);
/// 2. each claimed global is owned by the claiming processor under
///    `dist.owner`, at the claimed local offset.
///
/// Returns `Ok(())` on every processor, or the first inconsistency
/// found (same result on every processor — the verdict is reduced).
pub fn check_distribution_collective(
    ctx: &mut Ctx,
    dist: &dyn Distribution,
    my_claimed_globals: &[usize],
) -> Result<(), String> {
    let me = ctx.rank();
    let n = dist.len();
    // Local checks first.
    let mut local_err: Option<String> = None;
    for (l, &g) in my_claimed_globals.iter().enumerate() {
        if g >= n {
            local_err = Some(format!("proc {me}: claimed global {g} out of range {n}"));
            break;
        }
        let (p, off) = dist.owner(g);
        if p != me || off != l {
            local_err = Some(format!(
                "proc {me}: claims global {g} at local {l}, but IND says ({p}, {off})"
            ));
            break;
        }
    }
    // Coverage check: rank 0 collects every claim (volume ∝ n — this
    // is a *debugging* mode, exactly as the paper frames it).
    let mut out: Vec<Payload> = (0..ctx.nprocs()).map(|_| Payload::Empty).collect();
    out[0] = Payload::Usize(my_claimed_globals.to_vec());
    let inbox = ctx.all_to_all(out);
    let mut verdict: f64 = match local_err {
        Some(_) => 1.0,
        None => 0.0,
    };
    let mut coverage_err: Option<String> = None;
    if me == 0 && verdict == 0.0 {
        let mut seen = vec![false; n];
        let mut total = 0usize;
        'outer: for (src, pl) in inbox.into_iter().enumerate() {
            for g in pl.into_usize() {
                if g >= n || seen[g] {
                    coverage_err =
                        Some(format!("global {g} claimed twice (second claim by proc {src})"));
                    break 'outer;
                }
                seen[g] = true;
                total += 1;
            }
        }
        if coverage_err.is_none() && total != n {
            coverage_err = Some(format!("{total} of {n} globals claimed"));
        }
        if coverage_err.is_some() {
            verdict = 1.0;
        }
    }
    // Share the verdict so all processors agree.
    let bad = ctx.all_reduce_max(verdict) > 0.0;
    if bad {
        Err(local_err
            .or(coverage_err)
            .unwrap_or_else(|| "distribution inconsistency detected on another processor".into()))
    } else {
        Ok(())
    }
}

/// Statically verify one processor's [`CommSchedule`] (`BA31`): the
/// parallel arrays must line up, peer lists must be strictly ascending
/// and in range, the ghost table must be a bijection between the
/// flattened receive set and slots `0..num_ghosts`, and the slot lists
/// the executor replays must say what the table says. The inspector
/// asserts this on every schedule it builds (debug builds); the lint
/// driver runs it over sample schedules.
pub fn verify_comm_schedule(sched: &CommSchedule, nprocs: usize) -> Vec<Diagnostic> {
    let mut d = Vec::new();
    let bad = |name: &'static str, at: Option<usize>, msg: String| {
        Diagnostic::error(codes::SPMD_BAD_SCHEDULE, Span::Component { name, at }, msg)
    };
    if sched.recv_peers.len() != sched.recv_globals.len() {
        d.push(bad(
            "recv_peers",
            None,
            format!(
                "{} recv peers but {} receive lists",
                sched.recv_peers.len(),
                sched.recv_globals.len()
            ),
        ));
    }
    if sched.recv_slots.len() != sched.recv_globals.len()
        || sched.recv_slots.iter().zip(&sched.recv_globals).any(|(s, g)| s.len() != g.len())
    {
        d.push(bad(
            "recv_slots",
            None,
            "slot lists do not match the receive lists in shape".to_string(),
        ));
    }
    if sched.send_peers.len() != sched.send_locals.len() {
        d.push(bad(
            "send_peers",
            None,
            format!(
                "{} send peers but {} send lists",
                sched.send_peers.len(),
                sched.send_locals.len()
            ),
        ));
    }
    if !d.is_empty() {
        return d; // parallel arrays broken: element checks would misalign
    }
    for (name, peers) in [("recv_peers", &sched.recv_peers), ("send_peers", &sched.send_peers)] {
        for (k, &p) in peers.iter().enumerate() {
            if p >= nprocs {
                d.push(bad(name, Some(k), format!("peer {p} out of 0..{nprocs}")));
            }
            if k > 0 && peers[k - 1] >= p {
                d.push(bad(
                    name,
                    Some(k),
                    format!("peer {p} after {} — wire order must be ascending", peers[k - 1]),
                ));
            }
        }
    }
    // Ghost table: flattened recv_globals ↔ slots 0..num_ghosts, 1–1.
    let flat: Vec<usize> = sched.recv_globals.iter().flatten().copied().collect();
    if flat.len() != sched.num_ghosts {
        d.push(bad(
            "num_ghosts",
            None,
            format!("{} ghost slots but {} received globals", sched.num_ghosts, flat.len()),
        ));
    }
    if sched.ghost_of_global.len() != flat.len() {
        d.push(bad(
            "ghost_of_global",
            None,
            format!(
                "{} table entries for {} received globals (duplicate or missing global)",
                sched.ghost_of_global.len(),
                flat.len()
            ),
        ));
    }
    let flat_slots = sched.recv_slots.iter().flatten();
    let mut slot_seen = vec![false; sched.num_ghosts];
    for (k, (g, &replayed)) in flat.iter().zip(flat_slots).enumerate() {
        match sched.ghost_of_global.get(g) {
            Some(&s) if s != replayed => d.push(bad(
                "recv_slots",
                Some(k),
                format!("global {g} is replayed into slot {replayed} but the table says {s}"),
            )),
            None => d.push(bad(
                "ghost_of_global",
                Some(k),
                format!("received global {g} has no ghost slot"),
            )),
            Some(&s) if s >= sched.num_ghosts => d.push(bad(
                "ghost_of_global",
                Some(k),
                format!("global {g} mapped to slot {s}, outside 0..{}", sched.num_ghosts),
            )),
            Some(&s) if slot_seen[s] => d.push(bad(
                "ghost_of_global",
                Some(k),
                format!("ghost slot {s} assigned twice (second: global {g})"),
            )),
            Some(&s) => slot_seen[s] = true,
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{BlockDist, Distribution};
    use crate::machine::Machine;
    use bernoulli_analysis::diag::into_result;

    #[test]
    fn ba31_inspector_schedules_verify_clean() {
        let d = BlockDist::new(24, 3);
        let out = Machine::run(3, |ctx| {
            let used: Vec<usize> = match ctx.rank() {
                0 => vec![10, 23],
                1 => vec![0, 1, 20],
                _ => vec![7],
            };
            CommSchedule::build(ctx, &d, &used)
        });
        for s in &out.results {
            assert!(into_result(&verify_comm_schedule(s, 3)).is_ok());
        }
    }

    #[test]
    fn ba31_corrupt_schedules_flagged() {
        let d = BlockDist::new(16, 2);
        let out = Machine::run(2, |ctx| {
            let used: Vec<usize> = if ctx.rank() == 0 { vec![9, 12] } else { vec![2, 3] };
            CommSchedule::build(ctx, &d, &used)
        });
        let base = &out.results[0];

        // Parallel arrays misaligned.
        let mut s = base.clone();
        s.recv_globals.push(vec![4]);
        let diags = verify_comm_schedule(&s, 2);
        assert!(diags.iter().any(|x| x.code == codes::SPMD_BAD_SCHEDULE), "{diags:?}");

        // Peer out of range.
        let mut s = base.clone();
        s.send_peers[0] = 7;
        assert!(into_result(&verify_comm_schedule(&s, 2)).is_err());

        // Ghost slot count lies.
        let mut s = base.clone();
        s.num_ghosts += 1;
        assert!(into_result(&verify_comm_schedule(&s, 2)).unwrap_err().contains("BA31"));

        // A received global missing from the translation table.
        let mut s = base.clone();
        s.ghost_of_global.remove(&9);
        assert!(into_result(&verify_comm_schedule(&s, 2)).is_err());

        // Two globals collapsed onto one ghost slot.
        let mut s = base.clone();
        let slot = s.ghost_of_global[&9];
        s.ghost_of_global.insert(12, slot);
        assert!(into_result(&verify_comm_schedule(&s, 2)).is_err());

        // Replay slots that disagree with the translation table: the
        // executor would put global 9's value where 12's is read.
        let mut s = base.clone();
        s.recv_slots[0].swap(0, 1);
        assert!(into_result(&verify_comm_schedule(&s, 2)).unwrap_err().contains("BA31"));

        // A hand-built schedule that never resolved its slots.
        let mut s = base.clone();
        s.recv_slots.clear();
        assert!(into_result(&verify_comm_schedule(&s, 2)).unwrap_err().contains("recv_slots"));

        // The untouched schedule stays clean.
        assert!(into_result(&verify_comm_schedule(base, 2)).is_ok());
    }

    #[test]
    fn consistent_distribution_passes() {
        let d = BlockDist::new(20, 4);
        let out = Machine::run(4, |ctx| {
            let owned = d.owned_globals(ctx.rank());
            check_distribution_collective(ctx, &d, &owned).is_ok()
        });
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn missing_claim_detected_everywhere() {
        let d = BlockDist::new(12, 3);
        let out = Machine::run(3, |ctx| {
            let mut owned = d.owned_globals(ctx.rank());
            if ctx.rank() == 1 {
                owned.pop(); // proc 1 "loses" one of its rows
            }
            check_distribution_collective(ctx, &d, &owned)
        });
        // Everyone learns about the problem, not just rank 0 / rank 1.
        for r in &out.results {
            assert!(r.is_err());
        }
    }

    #[test]
    fn double_claim_detected() {
        let d = BlockDist::new(12, 3);
        let out = Machine::run(3, |ctx| {
            let mut owned = d.owned_globals(ctx.rank());
            if ctx.rank() == 2 {
                owned = d.owned_globals(1); // claims proc 1's rows
            }
            check_distribution_collective(ctx, &d, &owned)
        });
        for r in &out.results {
            assert!(r.is_err());
        }
    }

    #[test]
    fn wrong_local_order_detected() {
        let d = BlockDist::new(8, 2);
        let out = Machine::run(2, |ctx| {
            let mut owned = d.owned_globals(ctx.rank());
            if ctx.rank() == 0 {
                owned.swap(0, 1); // local offsets disagree with IND
            }
            check_distribution_collective(ctx, &d, &owned)
        });
        for r in &out.results {
            assert!(r.is_err());
        }
    }
}
