//! Physical query plans.
//!
//! A [`Plan`] is an ordered nest of loops, one per enumerated loop
//! variable (plus a combined node for flat-enumerated matrices that bind
//! two variables at once). Each loop names a *driver* — the relation
//! level whose enumeration produces candidate index values — and a set
//! of *joins* resolved at that variable, each implemented as a
//! merge-join against a sorted co-enumeration or as a search probe.
//!
//! The plan is pure data: it can be inspected, printed, compared by
//! shape (the basis for kernel specialisation downstream), and executed
//! by [`crate::exec::execute`].

use crate::ids::{RelId, Var};
use std::fmt;

/// How a joined relation is resolved at a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Co-enumerate the relation's sorted level alongside the driver,
    /// advancing both in index order (merge join).
    Merge,
    /// Probe the relation's search method once per driver candidate.
    Search,
}

/// The access path a probe uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Probe a vector at the given variable, producing its value field.
    VecAt(Var),
    /// Locate a hierarchical matrix's outer cursor at the variable.
    /// Produces no value yet; enables later inner access.
    MatOuterAt(Var),
    /// Probe a matrix's inner level (cursor already located) at the
    /// variable, producing the value field.
    MatInnerAt(Var),
    /// Locate the outer cursor at `outer_var` (already bound earlier)
    /// and immediately probe the inner level at `inner_var` (also
    /// already bound). Used when a matrix's outer-axis variable binds
    /// *after* its inner-axis variable.
    MatPairAt { outer_var: Var, inner_var: Var },
    /// Random whole-matrix probe `search_pair(i, j)` for flat formats.
    MatFlatPairAt { row_var: Var, col_var: Var },
}

/// One join resolved at a loop node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lookup {
    pub rel: RelId,
    pub kind: ProbeKind,
    pub method: JoinMethod,
    /// Whether the relation participates in the sparsity predicate: a
    /// miss skips the tuple rather than contributing 0.0.
    pub in_predicate: bool,
}

/// What enumerates the candidate values of a loop variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Driver {
    /// Enumerate the dense iteration-space range `0..extent` (extent
    /// resolved from relation shapes at bind time).
    Range,
    /// Enumerate a vector relation's stored entries.
    Vector(RelId),
    /// Enumerate a hierarchical matrix's outer level.
    MatOuter(RelId),
    /// Enumerate a hierarchical matrix's inner level (its outer cursor
    /// must have been located at an earlier node).
    MatInner(RelId),
}

impl Driver {
    pub fn rel(&self) -> Option<RelId> {
        match self {
            Driver::Range => None,
            Driver::Vector(r) | Driver::MatOuter(r) | Driver::MatInner(r) => Some(*r),
        }
    }

    /// The driver as plan shapes and EXPLAIN print it.
    pub(crate) fn label(self) -> String {
        match self {
            Driver::Range => "range".to_string(),
            Driver::Vector(r) => format!("vec({r})"),
            Driver::MatOuter(r) => format!("outer({r})"),
            Driver::MatInner(r) => format!("inner({r})"),
        }
    }
}

/// Derivation of a variable through a permutation relation (§2.2):
/// once `from` is bound, `to = P(from)` (or the inverse) in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Derivation {
    pub perm: RelId,
    pub from: Var,
    pub to: Var,
    /// `true`: `to = forward(from)`; `false`: `to = backward(from)`.
    pub forward: bool,
}

/// One loop of the nest.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNode {
    pub var: Var,
    pub driver: Driver,
    /// Permutation-derived variables bound immediately after `var`.
    pub derived: Vec<Derivation>,
    /// Joins resolved at this node (on `var` or a derived variable).
    pub lookups: Vec<Lookup>,
}

/// A flat-enumeration node binding a matrix's row and column variables
/// simultaneously from its `⟨i, j, v⟩` stream.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatNode {
    pub rel: RelId,
    pub row_var: Var,
    pub col_var: Var,
    pub derived: Vec<Derivation>,
    pub lookups: Vec<Lookup>,
}

/// A node of the loop nest.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanNode {
    Loop(LoopNode),
    Flat(FlatNode),
}

impl PlanNode {
    /// Variables bound by this node, including derived ones.
    pub fn bound_vars(&self) -> Vec<Var> {
        match self {
            PlanNode::Loop(l) => {
                let mut v = vec![l.var];
                v.extend(l.derived.iter().map(|d| d.to));
                v
            }
            PlanNode::Flat(fnode) => {
                let mut v = vec![fnode.row_var, fnode.col_var];
                v.extend(fnode.derived.iter().map(|d| d.to));
                v
            }
        }
    }

    pub fn lookups(&self) -> &[Lookup] {
        match self {
            PlanNode::Loop(l) => &l.lookups,
            PlanNode::Flat(f) => &f.lookups,
        }
    }
}

/// A complete physical plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub nodes: Vec<PlanNode>,
    /// The planner's cost estimate (abstract units; comparable only
    /// between plans for the same query + metadata).
    pub est_cost: f64,
}

impl Plan {
    /// A short structural signature, used by downstream crates to pick
    /// specialised kernels (plan-shape-directed monomorphisation — the
    /// reproduction's stand-in for the paper's code generation).
    pub fn shape(&self) -> String {
        let mut s = String::new();
        for (k, n) in self.nodes.iter().enumerate() {
            if k > 0 {
                s.push('>');
            }
            match n {
                PlanNode::Loop(l) => s.push_str(&format!("{}:{}", l.var, l.driver.label())),
                PlanNode::Flat(f) => {
                    s.push_str(&format!("({},{}):flat({})", f.row_var, f.col_var, f.rel))
                }
            }
            for lk in n.lookups() {
                let method = if lk.method == JoinMethod::Merge { "~" } else { "?" };
                s.push_str(&format!("[{}{method}]", lk.rel));
            }
        }
        s
    }

    /// All variables the plan binds, in binding order.
    pub fn bound_vars(&self) -> Vec<Var> {
        self.nodes.iter().flat_map(|n| n.bound_vars()).collect()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan (est cost {:.1}):", self.est_cost)?;
        for (depth, n) in self.nodes.iter().enumerate() {
            let pad = "  ".repeat(depth + 1);
            match n {
                PlanNode::Loop(l) => {
                    write!(f, "{pad}for {} in {:?}", l.var, l.driver)?;
                    for d in &l.derived {
                        write!(
                            f,
                            " derive {} = {}{}({})",
                            d.to,
                            d.perm,
                            if d.forward { "" } else { "⁻¹" },
                            d.from
                        )?;
                    }
                    for lk in &l.lookups {
                        write!(f, " join {} via {:?}/{:?}", lk.rel, lk.kind, lk.method)?;
                    }
                    writeln!(f)?;
                }
                PlanNode::Flat(fl) => {
                    write!(f, "{pad}for ({},{}) in flat({})", fl.row_var, fl.col_var, fl.rel)?;
                    for lk in &fl.lookups {
                        write!(f, " join {} via {:?}/{:?}", lk.rel, lk.kind, lk.method)?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MAT_A, VAR_I, VAR_J, VEC_X};

    fn sample_plan() -> Plan {
        Plan {
            nodes: vec![
                PlanNode::Loop(LoopNode {
                    var: VAR_I,
                    driver: Driver::MatOuter(MAT_A),
                    derived: vec![],
                    lookups: vec![],
                }),
                PlanNode::Loop(LoopNode {
                    var: VAR_J,
                    driver: Driver::MatInner(MAT_A),
                    derived: vec![],
                    lookups: vec![Lookup {
                        rel: VEC_X,
                        kind: ProbeKind::VecAt(VAR_J),
                        method: JoinMethod::Search,
                        in_predicate: false,
                    }],
                }),
            ],
            est_cost: 42.0,
        }
    }

    #[test]
    fn shape_signature_is_stable() {
        let p = sample_plan();
        assert_eq!(p.shape(), "i:outer(A)>j:inner(A)[X?]");
    }

    #[test]
    fn bound_vars_in_order() {
        assert_eq!(sample_plan().bound_vars(), vec![VAR_I, VAR_J]);
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", sample_plan());
        assert!(s.contains("for i"));
        assert!(s.contains("join X"));
    }

    #[test]
    fn flat_node_binds_two_vars() {
        let n = PlanNode::Flat(FlatNode {
            rel: MAT_A,
            row_var: VAR_I,
            col_var: VAR_J,
            derived: vec![],
            lookups: vec![],
        });
        assert_eq!(n.bound_vars(), vec![VAR_I, VAR_J]);
    }

    #[test]
    fn driver_rel() {
        assert_eq!(Driver::Range.rel(), None);
        assert_eq!(Driver::Vector(VEC_X).rel(), Some(VEC_X));
        assert_eq!(Driver::MatOuter(MAT_A).rel(), Some(MAT_A));
    }
}
