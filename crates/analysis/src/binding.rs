//! The one operand binding: how every certificate checks, in O(1), that
//! the operand it is handed is the one it proved.
//!
//! An inspector proves a fact about one operand once — the sanitizer's
//! BA2x invariants for the fast tier, a level schedule for a DO-ACROSS
//! sweep — and the executor re-checks at every entry that the proof
//! still describes its operand. [`OperandBinding`] is that check, the
//! same for every certificate: the dimensions, the address and length
//! of each index array, and a content digest of those arrays
//! ([`index_digest`], which the formats memoise per instance). Address
//! and length alone are not sound: once a certified operand is dropped,
//! the allocator may hand another pattern the same buffers, and the
//! digest is what refuses it. Values are not bound — no proof
//! constrains them, and no format exposes `&mut` access to its index
//! arrays, so equal index content at equal addresses is the proved
//! operand.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// One FNV-1a step: the fold every digest in the workspace uses (the
/// index digest, the level-schedule hash, the plan cache's structure
/// key).
#[inline]
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100000001b3)
}

/// Content digest of an operand's index arrays. Four interleaved lanes —
/// the element at position `p` feeds lane `p % 4`, lanes folded together
/// at the end — so the per-entry multiply chains stay independent and
/// the sweep does not serialise on one chain. Each array's length is
/// folded in first, so content cannot shift across an array boundary
/// unnoticed.
pub fn index_digest(arrays: &[&[usize]]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    for a in arrays {
        lanes[0] = fnv(lanes[0], a.len() as u64);
        let mut it = a.chunks_exact(4);
        for c in &mut it {
            lanes[0] = fnv(lanes[0], c[0] as u64);
            lanes[1] = fnv(lanes[1], c[1] as u64);
            lanes[2] = fnv(lanes[2], c[2] as u64);
            lanes[3] = fnv(lanes[3], c[3] as u64);
        }
        for (j, &x) in it.remainder().iter().enumerate() {
            lanes[j] = fnv(lanes[j], x as u64);
        }
    }
    lanes.into_iter().fold(FNV_OFFSET, fnv)
}

/// Identity of one array: address + length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceId {
    ptr: usize,
    len: usize,
}

impl SliceId {
    #[inline]
    pub fn of<T>(s: &[T]) -> SliceId {
        SliceId { ptr: s.as_ptr() as usize, len: s.len() }
    }
}

/// What a certificate binds of its operand (see the module docs);
/// compared with `==`. Moving the owning matrix keeps its heap buffers
/// in place, so a binding survives moves but not clones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperandBinding {
    nrows: usize,
    ncols: usize,
    index: [SliceId; 2],
    digest: u64,
}

impl OperandBinding {
    /// Bind an `nrows × ncols` operand by its index arrays (a format
    /// with one passes `&[]` second) and `digest`, the operand's
    /// [`index_digest`] of them — its memoised `index_digest()`.
    #[inline]
    pub fn new(nrows: usize, ncols: usize, index: [&[usize]; 2], digest: u64) -> OperandBinding {
        OperandBinding { nrows, ncols, index: index.map(SliceId::of), digest }
    }

    /// Order of the bound operand.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_digest_separates_array_boundaries_and_content() {
        // Moving an element across the array boundary must change the
        // digest (each array's length is folded in as a separator).
        assert_ne!(index_digest(&[&[1], &[]]), index_digest(&[&[], &[1]]));
        assert_ne!(index_digest(&[&[1, 2], &[3]]), index_digest(&[&[1], &[2, 3]]));
        // Same layout, one index changed: different digest.
        let a: Vec<usize> = (0..100).collect();
        let mut b = a.clone();
        b[57] = 9999;
        assert_ne!(index_digest(&[&a]), index_digest(&[&b]));
        assert_eq!(index_digest(&[&a]), index_digest(&[&a.clone()]));
    }

    #[test]
    fn binding_is_identity_and_content() {
        let (rp, ci) = (vec![0, 1, 2], vec![0, 1]);
        let d = index_digest(&[&rp, &ci]);
        let b = OperandBinding::new(2, 2, [&rp, &ci], d);
        assert_eq!(b, OperandBinding::new(2, 2, [&rp, &ci], d));
        // Equal content elsewhere, another order, another digest: refused.
        let rp2 = rp.clone();
        assert_ne!(b, OperandBinding::new(2, 2, [&rp2, &ci], d));
        assert_ne!(b, OperandBinding::new(2, 3, [&rp, &ci], d));
        assert_ne!(b, OperandBinding::new(2, 2, [&rp, &ci], d ^ 1));
    }
}
