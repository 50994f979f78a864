//! Structured-grid stencil matrices, with and without multiple degrees
//! of freedom per discretisation point.
//!
//! The multi-DOF variants reproduce the matrix class of the paper's
//! Fig. 2 and §4: a finite-element model with `dof` components per grid
//! point yields full `dof × dof` coupling blocks, so the `dof` rows of
//! one point share an identical column structure — the i-nodes the
//! BlockSolve format exploits. All generated matrices are symmetric
//! positive definite (Kronecker structure `(Laplacian + I) ⊗ B` with an
//! SPD block `B`), so conjugate gradients converges on them.

use crate::triplet::Triplets;

/// 5-point Laplacian (plus identity shift) on an `nx × ny` grid.
pub fn grid2d_5pt(nx: usize, ny: usize) -> Triplets {
    fem_grid_2d(nx, ny, 1)
}

/// 9-point stencil on an `nx × ny` grid — the structural twin of
/// `gr_30_30` (which is a 9-point operator on a 30×30 grid).
pub fn grid2d_9pt(nx: usize, ny: usize) -> Triplets {
    let n = nx * ny;
    let mut t = Triplets::with_capacity(n, n, 9 * n);
    let id = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let p = id(x, y);
            let mut deg = 0.0;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (qx, qy) = (x as isize + dx, y as isize + dy);
                    if qx < 0 || qy < 0 || qx >= nx as isize || qy >= ny as isize {
                        continue;
                    }
                    let q = id(qx as usize, qy as usize);
                    let w = if dx == 0 || dy == 0 { -1.0 } else { -0.5 };
                    t.push(p, q, w);
                    deg -= w;
                }
            }
            t.push(p, p, deg + 1.0);
        }
    }
    t
}

/// 7-point Laplacian (plus identity shift) on an `nx × ny × nz` grid —
/// the structural twin of `sherman1` (oil reservoir, 10×10×10 grid).
pub fn grid3d_7pt(nx: usize, ny: usize, nz: usize) -> Triplets {
    fem_grid_3d(nx, ny, nz, 1)
}

/// SPD `dof × dof` coupling block. Structurally *full* (every entry
/// nonzero) so all rows of one grid point share a column structure —
/// the i-node property — and with off-diagonal row sum 0.1, small
/// enough that the assembled `(Laplacian + I) ⊗ B` matrix stays
/// strictly diagonally dominant (Gershgorin ⇒ SPD) even for interior
/// 3-D points.
fn dof_block(dof: usize) -> Vec<f64> {
    let mut b = vec![0.0; dof * dof];
    let off = if dof > 1 { -0.1 / (dof - 1) as f64 } else { 0.0 };
    for di in 0..dof {
        for dj in 0..dof {
            b[di * dof + dj] = if di == dj { 2.0 } else { off };
        }
    }
    b
}

/// Generic multi-DOF grid assembly over a point-adjacency closure.
fn fem_grid(
    npoints: usize,
    dof: usize,
    mut neighbors: impl FnMut(usize, &mut Vec<usize>),
) -> Triplets {
    assert!(dof >= 1);
    let n = npoints * dof;
    let b = dof_block(dof);
    let mut t = Triplets::with_capacity(n, n, npoints * dof * dof * 7);
    let mut nbrs = Vec::new();
    for p in 0..npoints {
        nbrs.clear();
        neighbors(p, &mut nbrs);
        let lpp = nbrs.len() as f64 + 1.0; // Laplacian diagonal + I shift
        // Diagonal block: lpp · B
        for di in 0..dof {
            for dj in 0..dof {
                let v = lpp * b[di * dof + dj];
                if v != 0.0 {
                    t.push(p * dof + di, p * dof + dj, v);
                }
            }
        }
        // Off-diagonal blocks: −1 · B per neighbour (full blocks, so all
        // dof rows of a point share one column structure → i-nodes).
        for &q in nbrs.iter() {
            for di in 0..dof {
                for dj in 0..dof {
                    let v = -b[di * dof + dj];
                    if v != 0.0 {
                        t.push(p * dof + di, q * dof + dj, v);
                    }
                }
            }
        }
    }
    t
}

/// Renumber the discretisation *points* of a multi-DOF matrix with a
/// deterministic pseudo-random permutation, keeping each point's `dof`
/// rows consecutive. Real finite-element meshes are numbered by mesh
/// generators, not lexicographically — this reproduces that: i-node
/// structure survives (rows of a point stay together) while the banded
/// diagonal structure of the synthetic grid is destroyed.
pub fn shuffle_points(t: &Triplets, dof: usize, seed: u64) -> Triplets {
    assert_eq!(t.nrows() % dof, 0);
    let npoints = t.nrows() / dof;
    // Deterministic Fisher–Yates with a splitmix64 stream.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..npoints).collect();
    for i in (1..npoints).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let remap = |r: usize| perm[r / dof] * dof + r % dof;
    let mut out = Triplets::with_capacity(t.nrows(), t.ncols(), t.len());
    for &(r, c, v) in t.canonical_entries().iter() {
        out.push(remap(r), remap(c), v);
    }
    out
}

/// 5-point stencil on `nx × ny` with `dof` degrees of freedom per point.
pub fn fem_grid_2d(nx: usize, ny: usize, dof: usize) -> Triplets {
    fem_grid(nx * ny, dof, |p, out| {
        let (x, y) = (p % nx, p / nx);
        if x > 0 {
            out.push(p - 1);
        }
        if x + 1 < nx {
            out.push(p + 1);
        }
        if y > 0 {
            out.push(p - nx);
        }
        if y + 1 < ny {
            out.push(p + nx);
        }
    })
}

/// 7-point stencil on `nx × ny × nz` with `dof` degrees of freedom per
/// point — the workload of the paper's §4 experiments (`dof = 5`).
pub fn fem_grid_3d(nx: usize, ny: usize, nz: usize, dof: usize) -> Triplets {
    let nxy = nx * ny;
    fem_grid(nxy * nz, dof, |p, out| {
        let (x, y, z) = (p % nx, (p / nx) % ny, p / nxy);
        if x > 0 {
            out.push(p - 1);
        }
        if x + 1 < nx {
            out.push(p + 1);
        }
        if y > 0 {
            out.push(p - nx);
        }
        if y + 1 < ny {
            out.push(p + nx);
        }
        if z > 0 {
            out.push(p - nxy);
        }
        if z + 1 < nz {
            out.push(p + nxy);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::analyze;

    #[test]
    fn laplacian_2d_structure() {
        let t = grid2d_5pt(4, 4);
        let s = analyze(&t);
        assert_eq!(s.nrows, 16);
        assert!(s.symmetric);
        assert_eq!(s.max_row_len, 5);
        assert_eq!(s.min_row_len, 3); // corners
        assert_eq!(s.bandwidth, 4);
    }

    #[test]
    fn nine_point_structure() {
        let t = grid2d_9pt(5, 5);
        let s = analyze(&t);
        assert_eq!(s.nrows, 25);
        assert!(s.symmetric);
        assert_eq!(s.max_row_len, 9);
        assert_eq!(s.min_row_len, 4); // corners: 3 neighbours + self
    }

    #[test]
    fn laplacian_3d_interior_row() {
        let t = grid3d_7pt(3, 3, 3);
        let s = analyze(&t);
        assert_eq!(s.nrows, 27);
        assert_eq!(s.max_row_len, 7); // centre point
        assert!(s.symmetric);
    }

    #[test]
    fn multi_dof_forms_inodes() {
        let dof = 3;
        let t = fem_grid_2d(3, 3, dof);
        let s = analyze(&t);
        assert_eq!(s.nrows, 27);
        assert!(s.symmetric);
        // Every point's rows share column structure: 9 groups of 3.
        assert_eq!(s.inode_groups, 9);
        assert!((s.avg_inode_rows() - dof as f64).abs() < 1e-12);
    }

    #[test]
    fn spd_by_gershgorin() {
        // Strict diagonal dominance with positive diagonal ⇒ SPD.
        for t in [fem_grid_2d(4, 3, 2), fem_grid_3d(3, 3, 2, 5)] {
            let c = t.canonicalize();
            let n = c.nrows();
            let mut diag = vec![0.0; n];
            let mut offsum = vec![0.0; n];
            for &(r, cc, v) in c.entries() {
                if r == cc {
                    diag[r] = v;
                } else {
                    offsum[r] += v.abs();
                }
            }
            for r in 0..n {
                assert!(diag[r] > offsum[r], "row {r}: {} !> {}", diag[r], offsum[r]);
            }
        }
    }

    #[test]
    fn paper_workload_shape() {
        // §4: 7-point stencil, 5 DOF per point.
        let t = fem_grid_3d(4, 4, 4, 5);
        let s = analyze(&t);
        assert_eq!(s.nrows, 320);
        // Interior row: (6 neighbours + self) × 5 dof = 35 entries.
        assert_eq!(s.max_row_len, 35);
        assert!((s.avg_inode_rows() - 5.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod shuffle_tests {
    use super::*;
    use crate::stats::analyze;

    #[test]
    fn shuffle_preserves_inodes_destroys_bands() {
        let t = fem_grid_2d(6, 6, 5);
        let s0 = analyze(&t);
        let sh = shuffle_points(&t, 5, 42);
        let s1 = analyze(&sh);
        // Same size, same nnz, same i-node richness.
        assert_eq!(s0.nnz, s1.nnz);
        assert_eq!(s0.inode_groups, s1.inode_groups);
        // But far more distinct diagonals (bandedness destroyed).
        assert!(s1.num_diagonals > 3 * s0.num_diagonals,
            "{} vs {}", s1.num_diagonals, s0.num_diagonals);
        // Deterministic.
        assert_eq!(shuffle_points(&t, 5, 42).canonicalize(), sh.canonicalize());
        assert_ne!(shuffle_points(&t, 5, 43).canonicalize(), sh.canonicalize());
    }

    #[test]
    fn shuffle_preserves_symmetry_and_values() {
        let t = fem_grid_2d(4, 4, 2);
        let sh = shuffle_points(&t, 2, 7);
        assert!(sh.is_symmetric());
        // The multiset of values is unchanged.
        let mut v0: Vec<i64> = t.canonicalize().entries().iter().map(|e| (e.2 * 1e9) as i64).collect();
        let mut v1: Vec<i64> = sh.canonicalize().entries().iter().map(|e| (e.2 * 1e9) as i64).collect();
        v0.sort_unstable();
        v1.sort_unstable();
        assert_eq!(v0, v1);
    }
}
