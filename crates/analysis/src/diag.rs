//! Shared diagnostic machinery for the lint passes.
//!
//! Every analysis reports through one [`Diagnostic`] type carrying a
//! lint-style `BA..` code, a [`Severity`], a human-readable message and
//! a [`Span`] locating the finding, so drivers (tests, the planner's
//! verifier hook, engine checked mode) can collect, filter and render
//! findings uniformly.

use bernoulli_relational::ids::{RelId, Var};
use std::fmt;

/// Lint codes, grouped by pass: `BA0x` race checker, `BA1x` plan
/// verifier, `BA2x` format sanitizer, `BA3x` SPMD inspector, `BA4x`
/// wavefront dependence pass / level-schedule verifier.
pub mod codes {
    /// Non-reduction write does not cover every loop variable
    /// (write-write race under DO-ANY execution).
    pub const RACE_NON_COVERING_WRITE: &str = "BA01";
    /// Right-hand side reads the written array (read-after-write
    /// aliasing between iterations).
    pub const RACE_READS_TARGET: &str = "BA02";
    /// Array access uses a variable the nest does not bind.
    pub const NEST_UNBOUND_VAR: &str = "BA03";
    /// Access references an array with no declaration in the nest.
    pub const NEST_UNDECLARED_ARRAY: &str = "BA04";
    /// Access arity differs from the declared array rank.
    pub const NEST_ARITY_MISMATCH: &str = "BA05";
    /// A non-covering write needs a `Reduction` certificate, but the
    /// algebra's `⊕` is not an associative-commutative monoid, so
    /// reassociating partial accumulations changes the result.
    pub const RACE_NON_MONOID_REDUCTION: &str = "BA06";

    /// Merge join where either side is unsorted or may contain
    /// duplicate indices.
    pub const PLAN_BAD_MERGE: &str = "BA11";
    /// Search join against a level whose `SearchCost` is unsupported.
    pub const PLAN_BAD_SEARCH: &str = "BA12";
    /// Lookup or derivation references a variable not bound at its
    /// node, or disagrees with the query's permutation term.
    pub const PLAN_UNBOUND_LOOKUP: &str = "BA13";
    /// Plan fails to bind every query variable exactly once.
    pub const PLAN_BINDING_MISMATCH: &str = "BA14";
    /// Driver enumeration is unsound: the relation is outside the
    /// sparsity predicate and its enumerated level is not dense.
    pub const PLAN_UNSOUND_DRIVER: &str = "BA15";
    /// A relation in the query has no registered metadata.
    pub const PLAN_MISSING_META: &str = "BA16";
    /// Plan carries a non-finite cost estimate: the cost model broke
    /// down on the metadata, so the plan cannot be ranked against
    /// alternatives (the planner counts and discards such candidates;
    /// a hand-built plan reaching execution with one is a defect).
    pub const PLAN_NONFINITE_COST: &str = "BA17";

    /// Pointer array non-monotone, or wrong length / start / end.
    pub const FMT_BAD_PTR: &str = "BA21";
    /// Stored index out of bounds.
    pub const FMT_INDEX_OOB: &str = "BA22";
    /// Entries unsorted where the format declares sortedness.
    pub const FMT_UNSORTED: &str = "BA23";
    /// Duplicate entries where the format declares duplicate-freedom.
    pub const FMT_DUPLICATE: &str = "BA24";
    /// Stored metadata (nnz, dimensions, array lengths) disagrees with
    /// the data.
    pub const FMT_META_MISMATCH: &str = "BA25";
    /// Permutation is not a bijection.
    pub const FMT_BAD_PERM: &str = "BA26";
    /// Access-method views disagree (hierarchical vs flat enumeration,
    /// search vs enumeration).
    pub const FMT_CONTRACT: &str = "BA27";

    /// SPMD communication schedule internally inconsistent.
    pub const SPMD_BAD_SCHEDULE: &str = "BA31";

    /// Stored entry on the wrong side of the diagonal for the claimed
    /// triangle: the sweep's dependence relation is cyclic
    /// (non-triangular input), so no wavefront order exists.
    pub const WAVE_NOT_TRIANGULAR: &str = "BA41";
    /// Level schedule is not a topological order of the dependence
    /// DAG: a row depends on a row scheduled at a later level.
    pub const WAVE_NON_TOPOLOGICAL: &str = "BA42";
    /// Level schedule does not list every row exactly once (missing,
    /// duplicate or out-of-range row, or malformed level boundaries).
    pub const WAVE_BAD_COVERAGE: &str = "BA43";
    /// Two rows in the same level are connected by a dependence, so
    /// the parallel wave would overlap a read with its write.
    pub const WAVE_LEVEL_OVERLAP: &str = "BA44";
}

/// How bad a finding is. Only [`Severity::Error`] findings fail the
/// planner hook and engine checked mode; warnings are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// Where a finding points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Span {
    /// The whole analyzed object.
    Whole,
    /// A relation (array) of a nest, query or plan.
    Rel(RelId),
    /// A loop variable.
    Var(Var),
    /// A plan node, by position in `Plan::nodes` (outermost = 0).
    PlanNode(usize),
    /// A storage component (e.g. `rowptr`), optionally at an element.
    Component { name: &'static str, at: Option<usize> },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Whole => write!(f, "-"),
            Span::Rel(r) => write!(f, "{r}"),
            Span::Var(v) => write!(f, "{v}"),
            Span::PlanNode(k) => write!(f, "node {k}"),
            Span::Component { name, at: None } => write!(f, "{name}"),
            Span::Component { name, at: Some(k) } => write!(f, "{name}[{k}]"),
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Lint code from [`codes`], e.g. `"BA21"`.
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    pub span: Span,
}

impl Diagnostic {
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Error, message: message.into(), span }
    }

    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Warning, message: message.into(), span }
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}] at {}: {}", self.code, self.span, self.message)
    }
}

/// Render error findings into one `Result`-friendly string
/// (warnings omitted); `Ok(())` when there are none.
pub fn into_result(diags: &[Diagnostic]) -> Result<(), String> {
    let errs: Vec<String> =
        diags.iter().filter(|d| d.is_error()).map(Diagnostic::to_string).collect();
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_relational::ids::MAT_A;

    #[test]
    fn display_and_result_rendering() {
        let d = Diagnostic::error(codes::FMT_BAD_PTR, Span::Component { name: "rowptr", at: Some(3) }, "decreases");
        assert_eq!(d.to_string(), "error[BA21] at rowptr[3]: decreases");
        let w = Diagnostic::warning(codes::FMT_CONTRACT, Span::Rel(MAT_A), "odd");
        assert!(w.to_string().starts_with("warning[BA27] at A"));
        into_result(std::slice::from_ref(&w)).unwrap();
        let msg = into_result(&[w, d]).unwrap_err();
        assert!(msg.contains("BA21") && !msg.contains("BA27"), "{msg}");
    }

    #[test]
    fn codes_are_unique() {
        use codes::*;
        let all = [
            RACE_NON_COVERING_WRITE, RACE_READS_TARGET, NEST_UNBOUND_VAR, NEST_UNDECLARED_ARRAY,
            NEST_ARITY_MISMATCH, RACE_NON_MONOID_REDUCTION, PLAN_BAD_MERGE, PLAN_BAD_SEARCH,
            PLAN_UNBOUND_LOOKUP, PLAN_BINDING_MISMATCH, PLAN_UNSOUND_DRIVER, PLAN_MISSING_META,
            PLAN_NONFINITE_COST, FMT_BAD_PTR, FMT_INDEX_OOB, FMT_UNSORTED,
            FMT_DUPLICATE, FMT_META_MISMATCH, FMT_BAD_PERM, FMT_CONTRACT,
            SPMD_BAD_SCHEDULE, WAVE_NOT_TRIANGULAR, WAVE_NON_TOPOLOGICAL, WAVE_BAD_COVERAGE,
            WAVE_LEVEL_OVERLAP,
        ];
        let mut seen = std::collections::HashSet::new();
        for code in all {
            assert!(seen.insert(code) && code.starts_with("BA"), "code {code}");
        }
    }
}
