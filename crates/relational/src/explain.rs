//! EXPLAIN: human-readable plan provenance.
//!
//! Renders a chosen [`Plan`] together with *why* each decision was made
//! in terms of the declared [`LevelProps`]:
//! the join order (loop nesting), the driver enumerated at each level
//! with its properties and expected cardinality, and each join's
//! implementation (merge vs. search) with the partner-level properties
//! that justified it. The text is recorded as plan provenance through
//! the planner's [`Obs`](bernoulli_obs::Obs) handle and golden-pinned by
//! `tests/observability.rs` — treat format changes as schema changes.

use crate::plan::{JoinMethod, Lookup, Plan, PlanNode, ProbeKind};
use crate::planner::{driver_level, var_extents, QueryMeta};
use crate::props::{LevelProps, SearchCost};
use crate::query::Query;
use crate::scalar::{Target, UpdateOp};
use std::fmt::Write as _;

/// One-line rendering of the per-tuple statement, used as the `op`
/// field of plan provenance events (e.g. `Y(i) += (val(A) * val(X))`).
pub fn describe_stmt(query: &Query) -> String {
    let target = match query.stmt.target {
        Target::VecElem { rel, var } => format!("{rel}({var})"),
        Target::MatElem { rel, row, col } => format!("{rel}({row},{col})"),
        Target::Scalar { rel } => format!("{rel}"),
    };
    let op = match query.stmt.op {
        UpdateOp::Assign => "=",
        UpdateOp::AddAssign => "+=",
    };
    format!("{target} {op} {}", query.stmt.rhs)
}

fn search_desc(c: SearchCost) -> &'static str {
    match c {
        SearchCost::Constant => "O(1) direct index",
        SearchCost::Logarithmic => "O(log n) binary search",
        SearchCost::Linear => "O(n) linear scan",
        SearchCost::Unsupported => "search unsupported",
    }
}

/// Render an expected cardinality without trailing `.0` noise.
fn card(x: f64) -> String {
    if x.is_finite() && (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.1}")
    }
}

/// Properties of the level a lookup probes (the "partner" of the join).
fn partner_props(lk: &Lookup, meta: &QueryMeta) -> Option<LevelProps> {
    match lk.kind {
        ProbeKind::VecAt(_) => meta.vec_meta(lk.rel).map(|m| m.props),
        ProbeKind::MatOuterAt(_) => meta.mat_meta(lk.rel).map(|m| m.outer),
        ProbeKind::MatInnerAt(_) | ProbeKind::MatPairAt { .. } => {
            meta.mat_meta(lk.rel).map(|m| m.inner)
        }
        ProbeKind::MatFlatPairAt { .. } => meta.mat_meta(lk.rel).map(|m| m.flat),
    }
}

fn lookup_line(lk: &Lookup, meta: &QueryMeta) -> String {
    let what = match lk.kind {
        ProbeKind::VecAt(v) => format!("{}({v})", lk.rel),
        ProbeKind::MatOuterAt(v) => format!("outer({}) at {v}", lk.rel),
        ProbeKind::MatInnerAt(v) => format!("inner({}) at {v}", lk.rel),
        ProbeKind::MatPairAt { outer_var, inner_var } => {
            format!("{}({outer_var},{inner_var}) outer+inner", lk.rel)
        }
        ProbeKind::MatFlatPairAt { row_var, col_var } => {
            format!("{}({row_var},{col_var}) flat", lk.rel)
        }
    };
    let props = partner_props(lk, meta);
    let props_s =
        props.map_or_else(|| "unknown".to_string(), |p| p.to_string());
    let (verb, how) = match lk.method {
        JoinMethod::Merge => (
            "merge",
            format!("merge join: driver and partner both enumerate sorted ({props_s})"),
        ),
        JoinMethod::Search => (
            "probe",
            format!(
                "search join: partner {props_s}, {}",
                search_desc(props.map_or(SearchCost::Unsupported, |p| p.search))
            ),
        ),
    };
    let role = if lk.in_predicate {
        "predicate filter (miss skips tuple)"
    } else {
        "value supply (miss contributes 0)"
    };
    format!("{verb} {what} -- {how}; {role}")
}

fn node_header(
    node: &PlanNode,
    meta: &QueryMeta,
    extents: &std::collections::HashMap<crate::ids::Var, usize>,
) -> String {
    let (level, c) = driver_level(node, meta, extents);
    match node {
        PlanNode::Loop(l) => format!(
            "for {} in {} -- level {level}, ~{} candidates/start",
            l.var,
            l.driver.label(),
            card(c)
        ),
        PlanNode::Flat(f) => format!(
            "for ({},{}) in flat({}) -- level {level}, ~{} stored tuples",
            f.row_var,
            f.col_var,
            f.rel,
            card(c)
        ),
    }
}

/// Full EXPLAIN text for a plan: header (shape + cost), statement,
/// sparsity predicate, then one line per loop level and per join with
/// the level properties that justified the implementation choice.
pub fn explain_plan(plan: &Plan, query: &Query, meta: &QueryMeta) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "plan {} (est cost {:.1})", plan.shape(), plan.est_cost);
    let _ = writeln!(out, "stmt: {}", describe_stmt(query));
    let pred = if query.predicate.is_empty() {
        "true (dense iteration)".to_string()
    } else {
        query
            .predicate
            .iter()
            .map(|r| format!("NZ({r})"))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    let _ = writeln!(out, "predicate: {pred}");
    let extents = var_extents(query, meta).unwrap_or_default();
    for (depth, node) in plan.nodes.iter().enumerate() {
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", node_header(node, meta, &extents));
        let (derived, lookups) = match node {
            PlanNode::Loop(l) => (&l.derived, &l.lookups),
            PlanNode::Flat(f) => (&f.derived, &f.lookups),
        };
        for d in derived {
            let _ = writeln!(
                out,
                "{pad}  bind {} = {}{}({}) -- O(1) permutation derivation",
                d.to,
                d.perm,
                if d.forward { "" } else { "^-1" },
                d.from
            );
        }
        for lk in lookups {
            let _ = writeln!(out, "{pad}  {}", lookup_line(lk, meta));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{MatMeta, Orientation, VecMeta};
    use crate::ids::{MAT_A, PERM_P, VEC_X};
    use crate::planner::Planner;
    use crate::ast::programs;
    use crate::lower::extract_query;

    fn csr_meta(n: usize, nnz: usize) -> MatMeta {
        MatMeta {
            nrows: n,
            ncols: n,
            nnz,
            orientation: Orientation::RowMajor,
            outer: LevelProps::dense(),
            inner: LevelProps::sparse_sorted(),
            flat: LevelProps::sparse_sorted(),
            pair_search_cheap: true,
        }
    }

    #[test]
    fn describe_stmt_matvec() {
        let q = extract_query(&programs::matvec()).unwrap();
        assert_eq!(describe_stmt(&q), "Y(i) += (val(A) * val(X))");
    }

    #[test]
    fn csr_matvec_explain_names_levels_and_joins() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(100, 500))
            .vec(VEC_X, VecMeta::dense(100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let text = explain_plan(&plan, &q, &meta);
        assert!(text.starts_with("plan i:outer(A)>j:inner(A)[X?] (est cost "), "{text}");
        assert!(text.contains("stmt: Y(i) += (val(A) * val(X))"), "{text}");
        assert!(text.contains("predicate: NZ(A)"), "{text}");
        assert!(
            text.contains("for i in outer(A) -- level sorted/Constant/dense, ~100 candidates/start"),
            "{text}"
        );
        assert!(
            text.contains("  for j in inner(A) -- level sorted/Logarithmic/sparse, ~5 candidates/start"),
            "{text}"
        );
        assert!(
            text.contains(
                "    probe X(j) -- search join: partner sorted/Constant/dense, O(1) direct index; value supply (miss contributes 0)"
            ),
            "{text}"
        );
    }

    #[test]
    fn merge_join_justified_by_sortedness() {
        let mut q = extract_query(&programs::matvec()).unwrap();
        q.infer_predicate(&|r| r == MAT_A || r == VEC_X);
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(1_000, 200_000))
            .vec(VEC_X, VecMeta::sparse_sorted(1_000, 100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        assert!(plan.shape().contains("[X~]"), "{}", plan.shape());
        let text = explain_plan(&plan, &q, &meta);
        assert!(text.contains("merge X(j) -- merge join: driver and partner both enumerate sorted"), "{text}");
        assert!(text.contains("predicate filter (miss skips tuple)"), "{text}");
        assert!(text.contains("predicate: NZ(A) AND NZ(X)"), "{text}");
    }

    #[test]
    fn permuted_plan_explains_derivation() {
        let q = extract_query(&programs::matvec_row_permuted()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(100, 600))
            .vec(VEC_X, VecMeta::dense(100))
            .perm(PERM_P, 100);
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let text = explain_plan(&plan, &q, &meta);
        assert!(
            text.contains("O(1) permutation derivation"),
            "expected a derivation line: {text}"
        );
    }

    #[test]
    fn flat_plan_explained() {
        let coo = MatMeta {
            orientation: Orientation::Flat,
            outer: LevelProps::enumerate_only(),
            inner: LevelProps::enumerate_only(),
            flat: LevelProps::sparse_unsorted(),
            pair_search_cheap: false,
            ..csr_meta(100, 500)
        };
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, coo).vec(VEC_X, VecMeta::dense(100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let text = explain_plan(&plan, &q, &meta);
        assert!(
            text.contains("for (i,j) in flat(A) -- level unsorted/Linear/sparse, ~500 stored tuples"),
            "{text}"
        );
    }
}
