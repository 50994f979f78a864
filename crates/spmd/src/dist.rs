//! Distribution relations (§3.1 of the paper).
//!
//! A distribution relation `IND(i, p, i')` is a 1–1 map between a global
//! index `i` and a pair ⟨processor `p`, local offset `i'`⟩ — the heart
//! of the *fragmentation equation*
//! `R(a) = ⋃_p π(IND(a, p, a') ⋈ R^(p)(a'))`. Everything here is
//! *replicated* (ownership resolvable without communication); the
//! distributed-translation-table case lives in [`crate::chaos`].
//!
//! Implemented relations:
//!
//! * [`BlockDist`], [`CyclicDist`], [`BlockCyclicDist`] — the regular
//!   HPF distributions (closed-form);
//! * [`GeneralizedBlockDist`] — HPF-2 generalized block: one contiguous
//!   block per processor of user-chosen sizes, sizes replicated;
//! * [`ContiguousRunsDist`] — the BlockSolve scheme: each processor
//!   owns *several* blocks of contiguous rows (one per color), the run
//!   table replicated ("more general than generalized block, more
//!   structure than indirect");
//! * [`IndirectDist`] — HPF-2 indirect with a replicated `MAP` array
//!   (the fully general, least structured relation).
//!
//! Whatever its storage, a relation is joined through its one declared
//! access method, [`IndexTranslation::join`]; every [`Distribution`]
//! has it by a blanket impl, a local probe per index.

use crate::machine::Ctx;
use std::sync::Arc;

/// `IND` as the inspector sees it (§3.2.3): the one access method that
/// evaluates `Used ⋈ IND`. A replicated relation answers locally; the
/// Chaos table ([`crate::chaos::ChaosTable`]) answers with all-to-all
/// rounds. Adding a distribution means describing this, nothing more.
pub trait IndexTranslation {
    /// `⟨proc, local⟩` of each of `used`, in order. Collective for a
    /// distributed relation: every processor calls it, passing an
    /// empty slice when it has nothing to ask.
    fn join(&self, ctx: &mut Ctx, used: &[usize]) -> Vec<(usize, usize)>;
}

/// A replicated relation: one local `owner` probe per index, no
/// messages.
impl<D: Distribution + ?Sized> IndexTranslation for D {
    fn join(&self, _ctx: &mut Ctx, used: &[usize]) -> Vec<(usize, usize)> {
        used.iter().map(|&g| self.owner(g)).collect()
    }
}

/// A replicated 1–1 distribution relation over `0..len()`.
pub trait Distribution: IndexTranslation + Send + Sync {
    /// Number of processors.
    fn nprocs(&self) -> usize;

    /// Global extent.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `IND(g) = (proc, local)`.
    fn owner(&self, g: usize) -> (usize, usize);

    /// Number of global indices owned by `p`.
    fn local_len(&self, p: usize) -> usize;

    /// Inverse translation: the global index of `(p, l)`.
    fn to_global(&self, p: usize, l: usize) -> usize;

    /// The global indices owned by `p`, in local order (the paper's
    /// per-processor `IND^(p)` list).
    fn owned_globals(&self, p: usize) -> Vec<usize> {
        (0..self.local_len(p)).map(|l| self.to_global(p, l)).collect()
    }

    /// Verify the relation is a 1–1, onto map (the run-time consistency
    /// check the paper's §3.1 notes can only happen at run time —
    /// the "debugging version" of the generated code).
    fn validate(&self) -> Result<(), String> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut total = 0usize;
        for p in 0..self.nprocs() {
            for l in 0..self.local_len(p) {
                let g = self.to_global(p, l);
                if g >= n {
                    return Err(format!("({p},{l}) maps to out-of-range global {g}"));
                }
                if seen[g] {
                    return Err(format!("global {g} owned twice"));
                }
                seen[g] = true;
                if self.owner(g) != (p, l) {
                    return Err(format!(
                        "owner({g}) = {:?} but to_global({p},{l}) = {g}",
                        self.owner(g)
                    ));
                }
                total += 1;
            }
        }
        if total != n {
            return Err(format!("{total} of {n} globals owned"));
        }
        Ok(())
    }
}

/// HPF `BLOCK`: processor `p` owns one contiguous block of
/// `⌈n/P⌉`-ish size (first `n mod P` processors get one extra).
#[derive(Clone, Debug)]
pub struct BlockDist {
    n: usize,
    p: usize,
}

impl BlockDist {
    pub fn new(n: usize, nprocs: usize) -> Self {
        assert!(nprocs >= 1);
        BlockDist { n, p: nprocs }
    }

    fn block_start(&self, p: usize) -> usize {
        let base = self.n / self.p;
        let extra = self.n % self.p;
        p * base + p.min(extra)
    }
}

impl Distribution for BlockDist {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn len(&self) -> usize {
        self.n
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n);
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let split = extra * (base + 1);
        let p = if g < split { g / (base + 1) } else { extra + (g - split) / base.max(1) };
        (p, g - self.block_start(p))
    }

    fn local_len(&self, p: usize) -> usize {
        self.block_start(p + 1) - self.block_start(p)
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        debug_assert!(l < self.local_len(p));
        self.block_start(p) + l
    }
}

/// HPF `CYCLIC`: global `g` lives on processor `g mod P`.
#[derive(Clone, Debug)]
pub struct CyclicDist {
    n: usize,
    p: usize,
}

impl CyclicDist {
    pub fn new(n: usize, nprocs: usize) -> Self {
        assert!(nprocs >= 1);
        CyclicDist { n, p: nprocs }
    }
}

impl Distribution for CyclicDist {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn len(&self) -> usize {
        self.n
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n);
        (g % self.p, g / self.p)
    }

    fn local_len(&self, p: usize) -> usize {
        if p >= self.n {
            0
        } else {
            (self.n - 1 - p) / self.p + 1
        }
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        l * self.p + p
    }
}

/// HPF `CYCLIC(B)`: blocks of size `B` dealt round-robin.
#[derive(Clone, Debug)]
pub struct BlockCyclicDist {
    n: usize,
    p: usize,
    b: usize,
}

impl BlockCyclicDist {
    pub fn new(n: usize, nprocs: usize, block: usize) -> Self {
        assert!(nprocs >= 1 && block >= 1);
        BlockCyclicDist { n, p: nprocs, b: block }
    }
}

impl Distribution for BlockCyclicDist {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn len(&self) -> usize {
        self.n
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n);
        let blk = g / self.b;
        let p = blk % self.p;
        let local_blk = blk / self.p;
        (p, local_blk * self.b + g % self.b)
    }

    fn local_len(&self, p: usize) -> usize {
        let nblocks = self.n / self.b;
        let rem = self.n % self.b;
        let full = nblocks / self.p + usize::from(p < nblocks % self.p);
        let mut len = full * self.b;
        if rem > 0 && nblocks % self.p == p {
            len += rem;
        }
        len
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        let local_blk = l / self.b;
        let blk = local_blk * self.p + p;
        blk * self.b + l % self.b
    }
}

/// HPF-2 generalized block: processor `p` owns one contiguous block of
/// `sizes[p]` indices. "The standard suggests each processor hold the
/// block sizes for all processors" — the sizes vector is replicated, so
/// ownership needs no communication (binary search over prefix sums).
#[derive(Clone, Debug)]
pub struct GeneralizedBlockDist {
    starts: Arc<Vec<usize>>, // prefix sums, len = P + 1
}

impl GeneralizedBlockDist {
    pub fn new(sizes: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for &s in sizes {
            starts.push(starts.last().unwrap() + s);
        }
        GeneralizedBlockDist { starts: Arc::new(starts) }
    }
}

impl Distribution for GeneralizedBlockDist {
    fn nprocs(&self) -> usize {
        self.starts.len() - 1
    }

    fn len(&self) -> usize {
        *self.starts.last().unwrap()
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        assert!(g < self.len());
        let p = match self.starts.binary_search(&g) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        (p, g - self.starts[p])
    }

    fn local_len(&self, p: usize) -> usize {
        self.starts[p + 1] - self.starts[p]
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        self.starts[p] + l
    }
}

/// The BlockSolve scheme (§3.3): each processor owns *several* runs of
/// contiguous global rows — one run per color — and the run table is
/// replicated ("each processor usually receives only a small number of
/// contiguous rows", so replication is cheap). More general than
/// generalized block, far more structured than indirect.
#[derive(Clone, Debug)]
pub struct ContiguousRunsDist {
    /// Runs sorted by global start: `(start, len, proc, local_start)`.
    runs: Arc<Vec<(usize, usize, usize, usize)>>,
    n: usize,
    p: usize,
    local_lens: Arc<Vec<usize>>,
    /// Per processor: its runs in local order.
    proc_runs: Arc<Vec<Vec<usize>>>,
}

impl ContiguousRunsDist {
    /// Build from `(global_start, len, proc)` runs. Runs must tile
    /// `0..n` exactly; local offsets follow ascending global order of
    /// each processor's runs.
    pub fn new(nprocs: usize, mut runs: Vec<(usize, usize, usize)>) -> Self {
        runs.sort_by_key(|&(s, _, _)| s);
        let mut n = 0usize;
        for &(s, l, p) in &runs {
            assert_eq!(s, n, "runs must tile the index space contiguously");
            assert!(p < nprocs, "run assigned to processor {p} of {nprocs}");
            n += l;
        }
        let mut local_lens = vec![0usize; nprocs];
        let mut full = Vec::with_capacity(runs.len());
        let mut proc_runs: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
        for (k, &(s, l, p)) in runs.iter().enumerate() {
            full.push((s, l, p, local_lens[p]));
            proc_runs[p].push(k);
            local_lens[p] += l;
        }
        ContiguousRunsDist {
            runs: Arc::new(full),
            n,
            p: nprocs,
            local_lens: Arc::new(local_lens),
            proc_runs: Arc::new(proc_runs),
        }
    }

    /// Number of runs in the (replicated) table — the quantity that
    /// keeps replication cheap.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }
}

impl Distribution for ContiguousRunsDist {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn len(&self) -> usize {
        self.n
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n);
        let k = match self.runs.binary_search_by_key(&g, |&(s, _, _, _)| s) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        let (s, _, p, lstart) = self.runs[k];
        (p, lstart + (g - s))
    }

    fn local_len(&self, p: usize) -> usize {
        self.local_lens[p]
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        for &k in &self.proc_runs[p] {
            let (s, len, _, lstart) = self.runs[k];
            if l < lstart + len {
                return s + (l - lstart);
            }
        }
        panic!("local offset {l} out of range on processor {p}");
    }
}

/// HPF-2 `INDIRECT` with a **replicated** MAP array: `map[g]` names the
/// owner of global `g`; local offsets follow each processor's global
/// order. Fully general, no structure to exploit. (The *distributed*
/// MAP — the Chaos translation table — is in [`crate::chaos`].)
#[derive(Clone, Debug)]
pub struct IndirectDist {
    map: Arc<Vec<usize>>,
    p: usize,
    /// `local_of[g]` = local offset of `g` on its owner.
    local_of: Arc<Vec<usize>>,
    owned: Arc<Vec<Vec<usize>>>,
}

impl IndirectDist {
    pub fn new(nprocs: usize, map: Vec<usize>) -> Self {
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
        let mut local_of = vec![0usize; map.len()];
        for (g, &p) in map.iter().enumerate() {
            assert!(p < nprocs, "MAP({g}) = {p} out of {nprocs} processors");
            local_of[g] = owned[p].len();
            owned[p].push(g);
        }
        IndirectDist {
            map: Arc::new(map),
            p: nprocs,
            local_of: Arc::new(local_of),
            owned: Arc::new(owned),
        }
    }

    /// The raw MAP array.
    pub fn map(&self) -> &[usize] {
        &self.map
    }
}

impl Distribution for IndirectDist {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn owner(&self, g: usize) -> (usize, usize) {
        (self.map[g], self.local_of[g])
    }

    fn local_len(&self, p: usize) -> usize {
        self.owned[p].len()
    }

    fn to_global(&self, p: usize, l: usize) -> usize {
        self.owned[p][l]
    }

    fn owned_globals(&self, p: usize) -> Vec<usize> {
        self.owned[p].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(d: &dyn Distribution) {
        d.validate().unwrap();
        // owned_globals consistent with to_global.
        for p in 0..d.nprocs() {
            let og = d.owned_globals(p);
            assert_eq!(og.len(), d.local_len(p));
            for (l, &g) in og.iter().enumerate() {
                assert_eq!(d.to_global(p, l), g);
                assert_eq!(d.owner(g), (p, l));
            }
        }
    }

    #[test]
    fn block_dist() {
        for (n, p) in [(10, 3), (9, 3), (1, 4), (0, 2), (17, 5)] {
            check_all(&BlockDist::new(n, p));
        }
        let d = BlockDist::new(10, 3);
        // Sizes 4,3,3.
        assert_eq!(d.local_len(0), 4);
        assert_eq!(d.local_len(1), 3);
        assert_eq!(d.owner(4), (1, 0));
    }

    #[test]
    fn cyclic_dist() {
        for (n, p) in [(10, 3), (3, 5), (0, 2)] {
            check_all(&CyclicDist::new(n, p));
        }
        let d = CyclicDist::new(10, 3);
        assert_eq!(d.owner(7), (1, 2));
        assert_eq!(d.to_global(1, 2), 7);
    }

    #[test]
    fn block_cyclic_dist() {
        for (n, p, b) in [(20, 3, 2), (17, 3, 4), (5, 2, 10), (8, 4, 1)] {
            check_all(&BlockCyclicDist::new(n, p, b));
        }
        let d = BlockCyclicDist::new(20, 3, 2);
        // Block 0 → p0, block1 → p1, block2 → p2, block3 → p0, ...
        assert_eq!(d.owner(6), (0, 2)); // block 3, second local block of p0
    }

    #[test]
    fn generalized_block_dist() {
        let d = GeneralizedBlockDist::new(&[4, 0, 6, 2]);
        check_all(&d);
        assert_eq!(d.len(), 12);
        assert_eq!(d.owner(3), (0, 3));
        assert_eq!(d.owner(4), (2, 0));
        assert_eq!(d.local_len(1), 0);
        assert_eq!(d.owner(10), (3, 0));
    }

    #[test]
    fn contiguous_runs_dist() {
        // 3 colors × 2 procs, BlockSolve-style interleaving:
        // color0: p0 gets 0..3, p1 gets 3..6
        // color1: p0 gets 6..8, p1 gets 8..12
        // color2: p0 gets 12..13, p1 gets 13..14
        let d = ContiguousRunsDist::new(
            2,
            vec![(0, 3, 0), (3, 3, 1), (6, 2, 0), (8, 4, 1), (12, 1, 0), (13, 1, 1)],
        );
        check_all(&d);
        assert_eq!(d.num_runs(), 6);
        assert_eq!(d.local_len(0), 6);
        assert_eq!(d.local_len(1), 8);
        // p0's local order: globals 0,1,2 then 6,7 then 12.
        assert_eq!(d.owned_globals(0), vec![0, 1, 2, 6, 7, 12]);
        assert_eq!(d.owner(7), (0, 4));
    }

    #[test]
    #[should_panic]
    fn contiguous_runs_must_tile() {
        ContiguousRunsDist::new(2, vec![(0, 3, 0), (4, 2, 1)]);
    }

    #[test]
    fn indirect_dist() {
        let map = vec![2, 0, 0, 1, 2, 1, 0];
        let d = IndirectDist::new(3, map);
        check_all(&d);
        assert_eq!(d.owner(0), (2, 0));
        assert_eq!(d.owner(4), (2, 1));
        assert_eq!(d.owned_globals(0), vec![1, 2, 6]);
    }

    #[test]
    fn validate_catches_broken_relation() {
        // A deliberately inconsistent Distribution impl.
        struct Broken;
        impl Distribution for Broken {
            fn nprocs(&self) -> usize {
                2
            }
            fn len(&self) -> usize {
                2
            }
            fn owner(&self, _g: usize) -> (usize, usize) {
                (0, 0) // both globals claim proc 0 slot 0
            }
            fn local_len(&self, p: usize) -> usize {
                if p == 0 {
                    2
                } else {
                    0
                }
            }
            fn to_global(&self, _p: usize, _l: usize) -> usize {
                0 // global 0 owned twice
            }
        }
        assert!(Broken.validate().is_err());
    }
}
