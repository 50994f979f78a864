//! Seeded input generation. Structures are fixed so the amount of
//! work never depends on the seed; the seed picks matrix values,
//! right-hand sides and request order.

use bernoulli_formats::gen::{grid2d_9pt, grid3d_7pt};
use bernoulli_formats::Triplets;

/// SplitMix64: small, seedable, and good enough to shuffle requests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Scale every value by up to 2 %, keyed on the seed and the
/// *unordered* position, then canonicalize. Off-diagonals shrink and
/// diagonals grow, so a symmetric, strictly diagonally dominant input
/// stays both (CG and the triangular sweeps need that).
pub fn perturb(t: &Triplets, seed: u64) -> Triplets {
    let mut out = Triplets::with_capacity(t.nrows(), t.ncols(), t.len());
    for &(r, c, v) in t.entries() {
        let pos = ((r.min(c) as u64) << 32) ^ r.max(c) as u64;
        let u = (mix(seed ^ mix(pos)) >> 11) as f64 / (1u64 << 53) as f64;
        out.push(r, c, v * if r == c { 1.0 + 0.02 * u } else { 1.0 - 0.02 * u });
    }
    out.canonicalize()
}

/// The lower triangle of a canonical matrix, diagonal included.
pub fn lower_triangle(t: &Triplets) -> Triplets {
    let mut lt = Triplets::with_capacity(t.nrows(), t.ncols(), t.len() / 2 + t.nrows());
    for &(r, c, v) in t.entries() {
        if c <= r {
            lt.push(r, c, v);
        }
    }
    lt
}

/// A dense vector with entries in `[0.5, 1.5)`.
pub fn vector(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| 0.5 + rng.unit()).collect()
}

/// Matrix groups shared by `dispatch_warm` and `compile_cold`.
pub const GROUPS: usize = 16;

/// One group: a 9-point 2-D grid (12–17k nonzeros), a 7-point 3-D grid
/// (13³–16³ points, 14–27k nonzeros) and the latter's lower triangle.
/// Every group has its own dimensions, so all 48 structures differ.
pub struct Group {
    pub grid2d: Triplets,
    pub grid3d: Triplets,
    pub lower: Triplets,
}

/// Group `g`'s 2-D grid: 37x37 up to 44x45.
fn dims2(g: usize) -> (usize, usize) {
    (37 + g / 2, 37 + g.div_ceil(2))
}

/// Group `g`'s 3-D grid: every side 13 to 16, no two groups alike.
fn dims3(g: usize) -> (usize, usize, usize) {
    (13 + g % 4, 13 + g / 4, 13 + (g % 4 + g / 4) % 4)
}

pub fn group(g: usize, seed: u64) -> Group {
    let ((nx, ny), (mx, my, mz)) = (dims2(g), dims3(g));
    let grid2d = perturb(&grid2d_9pt(nx, ny), seed);
    let grid3d = perturb(&grid3d_7pt(mx, my, mz), seed);
    let lower = lower_triangle(&grid3d);
    Group { grid2d, grid3d, lower }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::grid2d_5pt;

    #[test]
    fn same_seed_same_inputs_other_seed_same_structure() {
        let base = grid2d_5pt(6, 5);
        let (a, b, c) = (perturb(&base, 7), perturb(&base, 7), perturb(&base, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let pattern = |t: &Triplets| t.entries().iter().map(|&(r, c, _)| (r, c)).collect::<Vec<_>>();
        assert_eq!(pattern(&a), pattern(&c));
    }

    #[test]
    fn perturbed_grid_stays_symmetric_and_dominant() {
        let t = perturb(&grid2d_5pt(5, 5), 3);
        assert!(t.is_symmetric());
        let mut off = vec![0.0; t.nrows()];
        for &(r, c, v) in t.entries() {
            if r != c {
                off[r] += v.abs();
            }
        }
        for (d, o) in t.diagonal().iter().zip(&off) {
            assert!(d > o);
        }
    }

    #[test]
    fn groups_have_distinct_dimensions() {
        let mut flat: Vec<_> = (0..GROUPS).map(dims2).collect();
        flat.sort_unstable();
        flat.dedup();
        assert_eq!(flat.len(), GROUPS);
        let mut cubes: Vec<_> = (0..GROUPS).map(dims3).collect();
        cubes.sort_unstable();
        cubes.dedup();
        assert_eq!(cubes.len(), GROUPS);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
