//! The Chaos-library distributed translation table (§3.1, eqs. (8)–(9)).
//!
//! When partitioning information arrives as an arbitrary list of row
//! indices per processor (HPF-2 `INDIRECT` / Chaos), ownership of a
//! global index is *not* locally computable. Chaos builds a
//! **distributed translation table**: the `⟨proc, local⟩` record for
//! global index `i` is stored on processor `q = ⌊i/B⌋` at offset
//! `h = i mod B`, with `B = ⌈N/P⌉` — "equivalent to having a MAP array
//! partitioned blockwise".
//!
//! Both building the table and querying it ("dereferencing") take
//! all-to-all communication with volume proportional to the number of
//! indices involved — the asymptotic cost the paper's Table 3 pins the
//! `Indirect` inspectors' order-of-magnitude slowdown on.

use crate::dist::IndexTranslation;
use crate::machine::{Ctx, Payload};

/// One processor's slice of the distributed translation table.
pub struct ChaosTable {
    n: usize,
    block: usize,
    /// `slice[h] = (owner, local)` for global `base + h`.
    slice: Vec<(usize, usize)>,
    base: usize,
}

impl ChaosTable {
    /// Block size `B = ⌈n/P⌉`.
    pub fn block_size(n: usize, nprocs: usize) -> usize {
        n.div_ceil(nprocs).max(1)
    }

    /// Build the table collectively. `owned_globals` lists the global
    /// indices this processor owns, in local order (its part of the
    /// partitioning input). Costs one all-to-all with total volume
    /// proportional to `n` — the table-build round the paper charges
    /// the Indirect-* inspectors for.
    pub fn build(ctx: &mut Ctx, n: usize, owned_globals: &[usize]) -> ChaosTable {
        let nprocs = ctx.nprocs();
        let b = Self::block_size(n, nprocs);
        // Route each owned (global, local) record to its table home.
        let mut outgoing: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nprocs];
        for (l, &g) in owned_globals.iter().enumerate() {
            assert!(g < n, "owned global {g} out of range {n}");
            outgoing[(g / b).min(nprocs - 1)].push((g, l));
        }
        let inbox = ctx.all_to_all(
            outgoing.into_iter().map(Payload::Pairs).collect(),
        );
        let base = ctx.rank() * b;
        let my_len = n.saturating_sub(base).min(b);
        let mut slice = vec![(usize::MAX, usize::MAX); my_len];
        for (src, pl) in inbox.into_iter().enumerate() {
            for (g, l) in pl.into_pairs() {
                let h = g - base;
                assert!(
                    slice[h] == (usize::MAX, usize::MAX),
                    "global {g} registered twice in translation table"
                );
                slice[h] = (src, l);
            }
        }
        ChaosTable { n, block: b, slice, base }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The table home of a global index.
    pub fn home_of(&self, g: usize) -> usize {
        g / self.block
    }
}

/// Dereferencing the distributed table: two all-to-all rounds (queries
/// out to their table homes, answers back) with volume proportional to
/// the number of queries. Every processor must call it the same number
/// of times (SPMD collective discipline).
impl IndexTranslation for ChaosTable {
    fn join(&self, ctx: &mut Ctx, queries: &[usize]) -> Vec<(usize, usize)> {
        let nprocs = ctx.nprocs();
        // Round 1: route query indices to their table homes.
        let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
        let mut route: Vec<(usize, usize)> = Vec::with_capacity(queries.len());
        for &g in queries {
            assert!(g < self.n, "query {g} out of range {}", self.n);
            let q = self.home_of(g).min(nprocs - 1);
            route.push((q, outgoing[q].len()));
            outgoing[q].push(g);
        }
        let requests = ctx.all_to_all(
            outgoing.into_iter().map(Payload::Usize).collect(),
        );
        // Answer each incoming request from the local slice.
        let mut answers: Vec<Vec<(usize, usize)>> = Vec::with_capacity(nprocs);
        for pl in requests {
            let gs = pl.into_usize();
            answers.push(
                gs.into_iter()
                    .map(|g| {
                        let rec = self.slice[g - self.base];
                        assert!(rec.0 != usize::MAX, "global {g} not in translation table");
                        rec
                    })
                    .collect(),
            );
        }
        // Round 2: answers travel back.
        let replies = ctx.all_to_all(
            answers.into_iter().map(Payload::Pairs).collect(),
        );
        let replies: Vec<Vec<(usize, usize)>> =
            replies.into_iter().map(Payload::into_pairs).collect();
        route.into_iter().map(|(q, k)| replies[q][k]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, IndirectDist};
    use crate::machine::Machine;

    #[test]
    fn build_and_dereference_matches_replicated_map() {
        // An irregular partition of 17 indices over 3 processors.
        let map = vec![2, 0, 1, 1, 0, 2, 2, 0, 1, 0, 0, 2, 1, 1, 0, 2, 1];
        let d = IndirectDist::new(3, map.clone());
        let n = map.len();
        let out = Machine::run(3, |ctx| {
            let owned = d.owned_globals(ctx.rank());
            let table = ChaosTable::build(ctx, n, &owned);
            // Everyone queries a different set, including empty-ish.
            let queries: Vec<usize> = (0..n).filter(|g| g % 3 == ctx.rank()).collect();
            let answers = table.join(ctx, &queries);
            (queries, answers)
        });
        for (queries, answers) in out.results {
            for (g, got) in queries.iter().zip(answers) {
                assert_eq!(got, d.owner(*g), "ownership of global {g}");
            }
        }
    }

    #[test]
    fn build_volume_proportional_to_n() {
        let n = 300;
        let map: Vec<usize> = (0..n).map(|g| g % 4).collect();
        let d = IndirectDist::new(4, map);
        let out = Machine::run(4, |ctx| {
            let before = ctx.stats();
            let _table = ChaosTable::build(ctx, n, &d.owned_globals(ctx.rank()));
            ctx.stats().since(&before).bytes_sent
        });
        let total: u64 = out.results.iter().sum();
        // Each of the 300 records is a 16-byte pair; ~3/4 travel off-proc.
        assert!(total >= 16 * (n as u64) / 2, "build moved only {total} bytes");
    }

    #[test]
    fn empty_queries_are_fine() {
        let n = 8;
        let map: Vec<usize> = (0..n).map(|g| g % 2).collect();
        let d = IndirectDist::new(2, map);
        let out = Machine::run(2, |ctx| {
            let table = ChaosTable::build(ctx, n, &d.owned_globals(ctx.rank()));
            if ctx.rank() == 0 {
                table.join(ctx, &[3, 0])
            } else {
                table.join(ctx, &[])
            }
        });
        assert_eq!(out.results[0], vec![d.owner(3), d.owner(0)]);
        assert!(out.results[1].is_empty());
    }

    #[test]
    fn home_blocks() {
        assert_eq!(ChaosTable::block_size(10, 3), 4);
        assert_eq!(ChaosTable::block_size(12, 3), 4);
        assert_eq!(ChaosTable::block_size(1, 8), 1);
    }
}
