//! Stable structure keys: what "the same problem" means to the cache.
//!
//! A [`StructureKey`] is one FNV-1a fold (`digest`) over what a
//! format *stores*: its tag (a CSR and a CCS of one pattern plan
//! differently), its dimensions, every stored `(row, col)` in the order
//! the format's own [`MatrixAccess::enum_flat`] delivers it, then the
//! entry count. Numeric **values are excluded**, so a refactorization
//! that keeps the pattern replays the same plan, and a constructor
//! that sorts and merges its input (`from_triplets`) keys independently
//! of assembly order.
//!
//! The key is *identification*, not *proof*: nothing downstream trusts
//! it for soundness. Cached certificates are re-validated and cached
//! schedules re-verified against the actual operand at compile time, so
//! the worst a colliding or stale key can do is pick a suboptimal tier
//! (a hand-built CSR with unsorted rows keys apart from its sorted twin
//! and simply compiles cold).

use bernoulli_analysis::binding::{fnv, FNV_OFFSET};
use bernoulli_formats::{Csr, FormatKind, SparseMatrix};
use bernoulli_relational::access::MatrixAccess;

/// A 64-bit structure digest. `Copy`, hashable, order-stable — made
/// for use as a `HashMap` key and a fixed-width hex token in the
/// persisted cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureKey(u64);

impl StructureKey {
    /// Fixed-width lowercase hex (16 digits) — the on-disk spelling.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the [`hex`](Self::hex) spelling back. `None` on anything
    /// that is not exactly 16 lowercase/uppercase hex digits.
    pub fn from_hex(s: &str) -> Option<StructureKey> {
        // `from_str_radix` alone would also take a leading `+`.
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(StructureKey)
    }
}

impl std::fmt::Display for StructureKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The one digest: format tag, dimensions, the stored positions in
/// enumeration order, entry count. Persisted keys depend on this layout
/// — changing it bumps [`SCHEMA`](crate::SCHEMA).
fn digest(
    kind: FormatKind,
    nrows: usize,
    ncols: usize,
    entries: impl Iterator<Item = (usize, usize)>,
) -> StructureKey {
    let mut h = FNV_OFFSET;
    for b in kind.paper_name().bytes() {
        h = fnv(h, b as u64);
    }
    h = fnv(fnv(h, nrows as u64), ncols as u64);
    let mut count = 0u64;
    // `for_each`, not `for`: internal iteration lets the CSR arm's
    // `flat_map` compile to the plain nested loop.
    entries.for_each(|(r, c)| {
        h = fnv(fnv(h, r as u64), c as u64);
        count += 1;
    });
    StructureKey(fnv(h, count))
}

/// Key a matrix in any supported format by what it stores (a dense
/// matrix stores every position, so its key is its dimensions).
pub fn structure_key(a: &SparseMatrix) -> StructureKey {
    if let SparseMatrix::Csr(m) = a {
        return structure_key_csr(m);
    }
    let m = a.meta();
    digest(a.kind(), m.nrows, m.ncols, a.enum_flat().map(|(r, c, _)| (r, c)))
}

/// Key a bare CSR operand (the trisolve/SymGS input type) identically
/// to `structure_key(&SparseMatrix::Csr(..))`, straight off the row
/// slices: the same fold without the boxed enumeration.
pub fn structure_key_csr(a: &Csr) -> StructureKey {
    let colind = a.colind();
    let rows = a.rowptr().windows(2).enumerate();
    let entries = rows.flat_map(|(r, w)| colind[w[0]..w[1]].iter().map(move |&c| (r, c)));
    digest(FormatKind::Csr, a.nrows(), a.ncols(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen::grid2d_5pt;
    use bernoulli_formats::Triplets;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let k = structure_key(&SparseMatrix::from_triplets(
            FormatKind::Csr,
            &grid2d_5pt(4, 4),
        ));
        assert_eq!(StructureKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 16);
        assert_eq!(StructureKey::from_hex("xyz"), None);
        assert_eq!(StructureKey::from_hex("0123"), None);
        assert_eq!(StructureKey::from_hex("+000000000000001"), None);
    }

    #[test]
    fn csr_helper_agrees_with_the_enum_path() {
        let t = grid2d_5pt(5, 5);
        let csr = Csr::from_triplets(&t);
        assert_eq!(
            structure_key_csr(&csr),
            structure_key(&SparseMatrix::Csr(csr.clone()))
        );
    }

    #[test]
    fn symmetric_pattern_with_asymmetric_values_keys_like_its_refactorization() {
        // Regression: `analyze`'s symmetry check is value-sensitive.
        // A pattern-symmetric operand whose values are NOT symmetric
        // must still key identically to its unit-valued twin.
        let mut t = Triplets::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push(0, 1, 5.0);
        t.push(1, 0, -3.0); // pattern-symmetric, value-asymmetric
        let mut unit = Triplets::new(3, 3);
        for &(r, c, _) in t.canonicalize().entries() {
            unit.push(r, c, 1.0);
        }
        assert_eq!(
            structure_key(&SparseMatrix::from_triplets(FormatKind::Csr, &t)),
            structure_key(&SparseMatrix::from_triplets(FormatKind::Csr, &unit)),
        );
    }

    #[test]
    fn format_tag_separates_identical_patterns() {
        let t = grid2d_5pt(4, 4);
        let csr = structure_key(&SparseMatrix::from_triplets(FormatKind::Csr, &t));
        let ccs = structure_key(&SparseMatrix::from_triplets(FormatKind::Ccs, &t));
        assert_ne!(csr, ccs, "format tag must enter the digest");
    }
}
