//! Semiring abstraction over the kernels' scalar algebra.
//!
//! The paper's relational compilation story never assumed `(+, ×)` on
//! `f64`: joins and aggregations are algebra-agnostic, and the same
//! query plans evaluate graph algorithms once the scalar operations are
//! swapped — shortest paths over `(min, +)`, for one. This module
//! defines the [`Semiring`] trait threaded through `formats::kernels`,
//! `par_kernels`, and the engines, plus the concrete instances shipped
//! with the repo.
//!
//! Two design constraints shape the trait:
//!
//! 1. **Everything is `f64`.** Every sparse format keeps its stored
//!    values as `f64` and every instance computes on `f64`; a semiring
//!    re-reads a stored value on the fly via [`Semiring::from_f64`]
//!    (min-plus lifts the stored `0.0` to its `+∞`). For [`F64Plus`]
//!    the lift is the identity, which is what makes the generic kernels
//!    compile to byte-identical code and output as the pre-refactor f64
//!    kernels.
//! 2. **Parallel safety is per-algebra.** The reduction-style parallel
//!    kernels (CCS/CCCS/COO scatter with thread-local partials) merge
//!    partial results in an order that differs from the serial
//!    evaluation, so they are only offered when the additive monoid is
//!    associative and commutative. The race checker consumes the same
//!    facts as plain data ([`AlgebraProps`]) and refuses a `Reduction`
//!    certificate for a non-AC algebra (diagnostic BA06).
//!
//! Associativity here is *algebraic* associativity: for [`F64Plus`] the
//! floating-point sum is only associative up to rounding, matching the
//! long-standing convention that a `Reduction` certificate permits
//! reassociation within O(n·ε).

/// Plain-data description of a semiring's additive monoid, consumable
/// by crates that must not depend on a concrete [`Semiring`] type
/// (the race checker, codegen, telemetry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgebraProps {
    /// Stable identifier recorded in telemetry (`bernoulli.profile/v2`
    /// `algebra` fields), e.g. `"f64_plus"` or `"min_plus"`.
    pub name: &'static str,
    /// `⊕` is associative (up to rounding for float instances).
    pub plus_associative: bool,
    /// `⊕` is commutative.
    pub plus_commutative: bool,
    /// Rendering hint for pseudocode emission, e.g. `"+"` or `"min"`.
    pub plus_symbol: &'static str,
    /// Rendering hint for pseudocode emission, e.g. `"*"`.
    pub times_symbol: &'static str,
}

impl AlgebraProps {
    /// The classical `(+, ×)` algebra on `f64` — the pre-refactor
    /// default everywhere.
    pub const fn f64_plus() -> Self {
        AlgebraProps {
            name: "f64_plus",
            plus_associative: true,
            plus_commutative: true,
            plus_symbol: "+",
            times_symbol: "*",
        }
    }

    /// Whether `⊕` forms an associative-commutative monoid — the
    /// property the `Reduction` parallel certificate requires.
    pub fn plus_is_ac(&self) -> bool {
        self.plus_associative && self.plus_commutative
    }
}

impl Default for AlgebraProps {
    fn default() -> Self {
        AlgebraProps::f64_plus()
    }
}

/// A semiring `(S, ⊕, ⊗, 0, 1)` driving the generic kernels.
///
/// Implementors are zero-sized marker types over `f64`. `0` must be
/// the identity of `⊕` and an annihilator of `⊗`
/// for the sparsity predicate (`A(i,j) = 0 ⇒` the tuple contributes
/// nothing) to remain sound — every instance here satisfies that.
pub trait Semiring: 'static {
    /// Stable algebra identifier (telemetry, diagnostics).
    const NAME: &'static str;
    /// `⊕` is associative (algebraically; up to rounding for floats).
    const PLUS_IS_ASSOCIATIVE: bool = true;
    /// `⊕` is commutative.
    const PLUS_IS_COMMUTATIVE: bool = true;
    /// Pseudocode rendering of `⊕`.
    const PLUS_SYMBOL: &'static str = "(+)";
    /// Pseudocode rendering of `⊗`.
    const TIMES_SYMBOL: &'static str = "(*)";

    /// Additive identity (and multiplicative annihilator).
    fn zero() -> f64;
    /// Multiplicative identity.
    fn one() -> f64;
    /// `a ⊕ b`. Left operand is the accumulator: non-commutative
    /// instances rely on this orientation.
    fn plus(a: f64, b: f64) -> f64;
    /// `a ⊗ b`.
    fn times(a: f64, b: f64) -> f64;
    /// Lift a stored value into the algebra.
    ///
    /// **Contract:** `from_f64(0.0)` must equal [`Semiring::zero`].
    /// Formats materialize structural zeros (dense storage, ITPACK
    /// padding, diagonal storage); those slots hold `0.0` and must
    /// lift to the inert element or the materializing formats would
    /// compute different answers than the compressed ones. The flip
    /// side is the standard "implicit zero" convention of semiring
    /// sparse algebra: an explicitly stored `0.0` is indistinguishable
    /// from an absent entry (e.g. a 0-weight edge is no edge under
    /// min-plus).
    fn from_f64(v: f64) -> f64;

    /// Column-skip gate for the CCS kernels: may the
    /// whole stored column scaled by `xj` be skipped without touching
    /// `y`? The default `false` never skips (always sound). [`F64Plus`]
    /// overrides it with the exact NaN-safe test of the pre-refactor
    /// f64 kernels (`xj == 0.0` and every stored value finite, so that
    /// `0 · v` cannot produce a NaN that must propagate).
    fn skip_scaled_column(_xj: f64, _stored: &[f64]) -> bool {
        false
    }

    /// The additive monoid's properties as plain data.
    fn props() -> AlgebraProps {
        AlgebraProps {
            name: Self::NAME,
            plus_associative: Self::PLUS_IS_ASSOCIATIVE,
            plus_commutative: Self::PLUS_IS_COMMUTATIVE,
            plus_symbol: Self::PLUS_SYMBOL,
            times_symbol: Self::TIMES_SYMBOL,
        }
    }
}

/// The classical algebra: `(f64, +, ×, 0.0, 1.0)`.
///
/// Generic kernels instantiated here are bitwise-identical to the
/// pre-refactor f64 kernels (pinned by the goldens in
/// `tests/observability.rs` and the proptest suite in
/// `tests/semiring_equivalence.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct F64Plus;

impl Semiring for F64Plus {
    const NAME: &'static str = "f64_plus";
    const PLUS_SYMBOL: &'static str = "+";
    const TIMES_SYMBOL: &'static str = "*";

    #[inline(always)]
    fn zero() -> f64 {
        0.0
    }

    #[inline(always)]
    fn one() -> f64 {
        1.0
    }

    #[inline(always)]
    fn plus(a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline(always)]
    fn times(a: f64, b: f64) -> f64 {
        a * b
    }

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn skip_scaled_column(xj: f64, stored: &[f64]) -> bool {
        xj == 0.0 && stored.iter().all(|v| v.is_finite())
    }
}

/// Tropical min-plus: `(f64 ∪ {+∞}, min, +, +∞, 0.0)` — shortest
/// paths. `A^k x` relaxes distances over paths of length ≤ k. A
/// stored `0.0` lifts to the inert `+∞` (see the [`Semiring::from_f64`]
/// contract): edge weights must be nonzero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    const NAME: &'static str = "min_plus";
    const PLUS_SYMBOL: &'static str = "min";
    const TIMES_SYMBOL: &'static str = "+";

    #[inline(always)]
    fn zero() -> f64 {
        f64::INFINITY
    }

    #[inline(always)]
    fn one() -> f64 {
        0.0
    }

    #[inline(always)]
    fn plus(a: f64, b: f64) -> f64 {
        // Deterministic tie-break: keep the accumulator on ties (and
        // on NaN in either operand), so serial and chunked-parallel
        // evaluations agree bit-for-bit on well-formed inputs.
        if b < a {
            b
        } else {
            a
        }
    }

    #[inline(always)]
    fn times(a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        if v == 0.0 {
            f64::INFINITY
        } else {
            v
        }
    }
}

/// First-nonzero-wins selection: `⊕` keeps the accumulator unless it
/// is still `0.0` — associative but **not** commutative (parent
/// selection in traversals, where "which parent" depends on visit
/// order). Exists chiefly to exercise the race checker's per-semiring
/// refusal: the parallel reduction tier must decline this algebra
/// (diagnostic BA06) because merging thread-local partials reorders
/// the `⊕` chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirstNonZero;

impl Semiring for FirstNonZero {
    const NAME: &'static str = "first_nonzero";
    const PLUS_IS_COMMUTATIVE: bool = false;
    const PLUS_SYMBOL: &'static str = "first";
    const TIMES_SYMBOL: &'static str = "*";

    #[inline(always)]
    fn zero() -> f64 {
        0.0
    }

    #[inline(always)]
    fn one() -> f64 {
        1.0
    }

    #[inline(always)]
    fn plus(a: f64, b: f64) -> f64 {
        if a != 0.0 {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn times(a: f64, b: f64) -> f64 {
        a * b
    }

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monoid_laws<S: Semiring>(samples: &[f64]) {
        for &a in samples {
            // Identity laws.
            assert_eq!(S::plus(S::zero(), a), a, "{}: 0 ⊕ a", S::NAME);
            assert_eq!(S::plus(a, S::zero()), a, "{}: a ⊕ 0", S::NAME);
            assert_eq!(S::times(S::one(), a), a, "{}: 1 ⊗ a", S::NAME);
            assert_eq!(S::times(a, S::one()), a, "{}: a ⊗ 1", S::NAME);
            // Annihilation.
            assert_eq!(S::times(S::zero(), a), S::zero(), "{}: 0 ⊗ a", S::NAME);
            assert_eq!(S::times(a, S::zero()), S::zero(), "{}: a ⊗ 0", S::NAME);
            for &b in samples {
                if S::PLUS_IS_COMMUTATIVE {
                    assert_eq!(S::plus(a, b), S::plus(b, a), "{}: commutativity", S::NAME);
                }
                for &c in samples {
                    if S::PLUS_IS_ASSOCIATIVE {
                        assert_eq!(
                            S::plus(S::plus(a, b), c),
                            S::plus(a, S::plus(b, c)),
                            "{}: associativity",
                            S::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn min_plus_laws() {
        check_monoid_laws::<MinPlus>(&[0.0, 1.5, -3.0, 7.0, f64::INFINITY]);
    }

    #[test]
    fn first_nonzero_associative_not_commutative() {
        check_monoid_laws::<FirstNonZero>(&[0.0, 2.0, -1.0, 5.0]);
        // Witness of non-commutativity.
        assert_eq!(FirstNonZero::plus(2.0, 5.0), 2.0);
        assert_eq!(FirstNonZero::plus(5.0, 2.0), 5.0);
        const { assert!(!FirstNonZero::PLUS_IS_COMMUTATIVE) };
        assert!(!FirstNonZero::props().plus_is_ac());
    }

    #[test]
    fn f64_plus_matches_scalar_arithmetic() {
        // Exact f64 semantics, including sign of zero and NaN
        // propagation through ⊗ — what bitwise identity rests on.
        assert_eq!(F64Plus::plus(1.5, 2.25), 3.75);
        assert_eq!(F64Plus::times(1.5, 2.0), 3.0);
        assert_eq!(F64Plus::from_f64(-0.0).to_bits(), (-0.0f64).to_bits());
        assert!(F64Plus::times(f64::NAN, 0.0).is_nan());
    }

    #[test]
    fn f64_skip_gate_is_nan_safe() {
        // Zero x over finite column: skippable.
        assert!(F64Plus::skip_scaled_column(0.0, &[1.0, -2.0]));
        // Zero x over a NaN/Inf column: 0·NaN = NaN must propagate.
        assert!(!F64Plus::skip_scaled_column(0.0, &[1.0, f64::NAN]));
        assert!(!F64Plus::skip_scaled_column(0.0, &[f64::INFINITY]));
        // Nonzero x: never skippable.
        assert!(!F64Plus::skip_scaled_column(1.0, &[1.0]));
        // Other semirings never skip (min-plus "zero" is +∞, and its
        // ⊗ has no annihilating stored value to exploit).
        assert!(!MinPlus::skip_scaled_column(MinPlus::zero(), &[1.0]));
    }

    #[test]
    fn props_round_trip() {
        let p = F64Plus::props();
        assert_eq!(p, AlgebraProps::f64_plus());
        assert!(p.plus_is_ac());
        assert_eq!(MinPlus::props().name, "min_plus");
        assert_eq!(MinPlus::props().plus_symbol, "min");
        assert_eq!(AlgebraProps::default(), AlgebraProps::f64_plus());
    }

    #[test]
    fn stored_zero_lifts_to_identity() {
        // The from_f64 contract keeping zero-materializing formats
        // (dense, ITPACK padding, diagonal) sound under every algebra.
        assert_eq!(F64Plus::from_f64(0.0), F64Plus::zero());
        assert_eq!(MinPlus::from_f64(0.0), MinPlus::zero());
        assert_eq!(FirstNonZero::from_f64(0.0), FirstNonZero::zero());
    }
}
