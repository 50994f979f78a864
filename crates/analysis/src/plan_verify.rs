//! Independent verification of planner output.
//!
//! The planner *chooses* join implementations from declared
//! [`LevelProps`]; this pass *re-derives* the legality of every choice
//! from the same properties, so a planner bug (or a hand-built plan)
//! cannot silently execute an illegal join:
//!
//! * merge joins require sorted, duplicate-free levels on **both**
//!   sides (`BA11`);
//! * search joins require a supported [`SearchCost`](bernoulli_relational::props::SearchCost) on the probed
//!   level (`BA12`);
//! * every lookup and derivation references only variables bound by
//!   enclosing plan nodes (`BA13`), and derivations agree with the
//!   query's permutation terms;
//! * the plan binds every query variable exactly once (`BA14`);
//! * drivers outside the sparsity predicate may only enumerate dense
//!   levels (`BA15` — skipping stored zeros elsewhere loses tuples);
//! * every relation has registered metadata (`BA16`);
//! * the cost estimate is finite (`BA17` — a non-finite estimate means
//!   the cost model broke down and the plan was never comparable; the
//!   planner counts and discards such candidates itself, so one
//!   reaching verification is a planner bug or a hand-built plan).
//!
//! [`verify_plan_hook`] packages the pass as a
//! [`PlanVerifier`](bernoulli_relational::planner::PlanVerifier) so
//! `Compiler::new()` can install it on the planner under
//! `debug_assertions`.

use crate::diag::{self, codes, Diagnostic, Span};
use bernoulli_relational::access::Orientation;
use bernoulli_relational::ids::{RelId, Var};
use bernoulli_relational::plan::{Driver, JoinMethod, Lookup, Plan, PlanNode, ProbeKind};
use bernoulli_relational::planner::QueryMeta;
use bernoulli_relational::props::LevelProps;
use bernoulli_relational::query::{Query, Term};

/// Re-check a plan against the query and declared metadata.
pub fn verify_plan(plan: &Plan, query: &Query, meta: &QueryMeta) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if !plan.est_cost.is_finite() {
        diags.push(Diagnostic::error(
            codes::PLAN_NONFINITE_COST,
            Span::Whole,
            format!(
                "plan cost estimate is {}: the cost model broke down, so this plan \
                 was never comparable against alternatives",
                plan.est_cost
            ),
        ));
    }

    // Metadata must exist for every joined relation; without it the
    // remaining checks cannot run.
    for t in &query.terms {
        let present = match t {
            Term::Mat { rel, .. } => meta.mat_meta(*rel).is_some(),
            Term::Vec { rel, .. } => meta.vec_meta(*rel).is_some(),
            Term::Perm { rel, .. } => meta.perm_len(*rel).is_some(),
        };
        if !present {
            diags.push(Diagnostic::error(
                codes::PLAN_MISSING_META,
                Span::Rel(t.rel()),
                format!("relation {} has no registered metadata", t.rel()),
            ));
        }
    }
    if !diags.is_empty() {
        return diags;
    }

    let mut bound: Vec<Var> = Vec::new();
    let bind = |v: Var, k: usize, diags: &mut Vec<Diagnostic>, bound: &mut Vec<Var>| {
        if bound.contains(&v) {
            diags.push(Diagnostic::error(
                codes::PLAN_BINDING_MISMATCH,
                Span::PlanNode(k),
                format!("variable {v} bound twice"),
            ));
        } else if !query.vars.contains(&v) {
            diags.push(Diagnostic::error(
                codes::PLAN_BINDING_MISMATCH,
                Span::PlanNode(k),
                format!("plan binds {v}, which is not a query variable"),
            ));
        } else {
            bound.push(v);
        }
    };

    for (k, node) in plan.nodes.iter().enumerate() {
        let (derived, lookups) = match node {
            PlanNode::Loop(l) => {
                bind(l.var, k, &mut diags, &mut bound);
                (&l.derived, &l.lookups)
            }
            PlanNode::Flat(f) => {
                bind(f.row_var, k, &mut diags, &mut bound);
                bind(f.col_var, k, &mut diags, &mut bound);
                (&f.derived, &f.lookups)
            }
        };

        for d in derived {
            if !bound.contains(&d.from) {
                diags.push(Diagnostic::error(
                    codes::PLAN_UNBOUND_LOOKUP,
                    Span::PlanNode(k),
                    format!("derivation through {} starts from unbound variable {}", d.perm, d.from),
                ));
            }
            match query.term(d.perm) {
                Some(Term::Perm { from, to, .. }) => {
                    let want = if d.forward { (*from, *to) } else { (*to, *from) };
                    if (d.from, d.to) != want {
                        diags.push(Diagnostic::error(
                            codes::PLAN_UNBOUND_LOOKUP,
                            Span::PlanNode(k),
                            format!(
                                "derivation {}→{} disagrees with permutation term {}",
                                d.from, d.to, d.perm
                            ),
                        ));
                    }
                }
                _ => diags.push(Diagnostic::error(
                    codes::PLAN_UNBOUND_LOOKUP,
                    Span::PlanNode(k),
                    format!("derivation references {}, which is not a permutation term", d.perm),
                )),
            }
            bind(d.to, k, &mut diags, &mut bound);
        }

        for lk in lookups {
            for v in probe_vars(lk) {
                if !bound.contains(&v) {
                    diags.push(Diagnostic::error(
                        codes::PLAN_UNBOUND_LOOKUP,
                        Span::PlanNode(k),
                        format!("lookup {:?}({}) references unbound variable {v}", lk.kind, lk.rel),
                    ));
                }
            }
            // A MatInnerAt probe needs its outer cursor locatable, so
            // the relation's outer variable must already be bound.
            if let ProbeKind::MatInnerAt(_) = lk.kind {
                if let Some(ov) = outer_var(query, meta, lk.rel) {
                    if !bound.contains(&ov) {
                        diags.push(Diagnostic::error(
                            codes::PLAN_UNBOUND_LOOKUP,
                            Span::PlanNode(k),
                            format!(
                                "inner probe of {} before its outer variable {ov} is bound",
                                lk.rel
                            ),
                        ));
                    }
                }
            }
            check_method(node, lk, k, query, meta, &mut diags);
        }

        check_driver_sound(node, k, query, meta, &mut diags);
    }

    for v in &query.vars {
        if !bound.contains(v) {
            diags.push(Diagnostic::error(
                codes::PLAN_BINDING_MISMATCH,
                Span::Var(*v),
                format!("plan never binds query variable {v}"),
            ));
        }
    }

    diags
}

/// [`verify_plan`] rendered as a planner hook: errors joined into one
/// message, warnings ignored.
pub fn verify_plan_hook(plan: &Plan, query: &Query, meta: &QueryMeta) -> Result<(), String> {
    diag::into_result(&verify_plan(plan, query, meta))
}

fn probe_vars(lk: &Lookup) -> Vec<Var> {
    match lk.kind {
        ProbeKind::VecAt(v) | ProbeKind::MatOuterAt(v) | ProbeKind::MatInnerAt(v) => vec![v],
        ProbeKind::MatPairAt { outer_var, inner_var } => vec![outer_var, inner_var],
        ProbeKind::MatFlatPairAt { row_var, col_var } => vec![row_var, col_var],
    }
}

/// The variable a matrix's outer level enumerates, per its orientation.
fn outer_var(query: &Query, meta: &QueryMeta, rel: RelId) -> Option<Var> {
    let m = meta.mat_meta(rel)?;
    match query.term(rel)? {
        Term::Mat { row, col, .. } => match m.orientation {
            Orientation::RowMajor => Some(*row),
            Orientation::ColMajor => Some(*col),
            Orientation::Flat => None,
        },
        _ => None,
    }
}

/// The level a lookup probes, described by its `LevelProps` (`None` for
/// pair probes, which are handled specially).
fn probed_level(lk: &Lookup, meta: &QueryMeta) -> Option<LevelProps> {
    match lk.kind {
        ProbeKind::VecAt(_) => meta.vec_meta(lk.rel).map(|vm| vm.props),
        ProbeKind::MatOuterAt(_) => meta.mat_meta(lk.rel).map(|m| m.outer),
        ProbeKind::MatInnerAt(_) => meta.mat_meta(lk.rel).map(|m| m.inner),
        ProbeKind::MatPairAt { .. } | ProbeKind::MatFlatPairAt { .. } => None,
    }
}

/// Whether the node's driver produces its variable in ascending order —
/// the driver-side precondition for a merge join at that node.
fn driver_sorted(node: &PlanNode, meta: &QueryMeta) -> bool {
    match node {
        PlanNode::Flat(_) => false,
        PlanNode::Loop(l) => match l.driver {
            Driver::Range => true,
            Driver::Vector(r) => {
                meta.vec_meta(r).is_some_and(|vm| vm.props.sortedness.is_sorted())
            }
            Driver::MatOuter(r) => {
                meta.mat_meta(r).is_some_and(|m| m.outer.sortedness.is_sorted())
            }
            Driver::MatInner(r) => {
                meta.mat_meta(r).is_some_and(|m| m.inner.sortedness.is_sorted())
            }
        },
    }
}

fn check_method(
    node: &PlanNode,
    lk: &Lookup,
    k: usize,
    _query: &Query,
    meta: &QueryMeta,
    diags: &mut Vec<Diagnostic>,
) {
    match lk.method {
        JoinMethod::Merge => {
            let Some(level) = probed_level(lk, meta) else {
                diags.push(Diagnostic::error(
                    codes::PLAN_BAD_MERGE,
                    Span::PlanNode(k),
                    format!("pair probe of {} cannot be a merge join", lk.rel),
                ));
                return;
            };
            if !driver_sorted(node, meta) {
                diags.push(Diagnostic::error(
                    codes::PLAN_BAD_MERGE,
                    Span::PlanNode(k),
                    format!("merge join with {} at a node whose driver enumerates unsorted", lk.rel),
                ));
            }
            if !level.sortedness.is_sorted() {
                diags.push(Diagnostic::error(
                    codes::PLAN_BAD_MERGE,
                    Span::PlanNode(k),
                    format!("merge join against unsorted level of {}", lk.rel),
                ));
            }
            if level.duplicates {
                diags.push(Diagnostic::error(
                    codes::PLAN_BAD_MERGE,
                    Span::PlanNode(k),
                    format!("merge join against duplicate-bearing level of {}", lk.rel),
                ));
            }
        }
        JoinMethod::Search => {
            let supported = match lk.kind {
                ProbeKind::MatPairAt { .. } => meta.mat_meta(lk.rel).is_some_and(|m| {
                    m.outer.search.supported() && m.inner.search.supported()
                }),
                // Flat pair probes always have the flat-scan fallback.
                ProbeKind::MatFlatPairAt { .. } => true,
                _ => probed_level(lk, meta).is_some_and(|l| l.search.supported()),
            };
            if !supported {
                diags.push(Diagnostic::error(
                    codes::PLAN_BAD_SEARCH,
                    Span::PlanNode(k),
                    format!("search join against {} whose search cost is unsupported", lk.rel),
                ));
            }
        }
    }
}

/// A driver's enumeration skips unstored indices, which is only legal
/// when the relation is in the sparsity predicate (zeros may be
/// skipped) or the enumerated level is dense (nothing is skipped).
fn check_driver_sound(
    node: &PlanNode,
    k: usize,
    query: &Query,
    meta: &QueryMeta,
    diags: &mut Vec<Diagnostic>,
) {
    let (rel, dense) = match node {
        PlanNode::Flat(f) => {
            (Some(f.rel), meta.mat_meta(f.rel).is_some_and(|m| m.flat.is_dense()))
        }
        PlanNode::Loop(l) => match l.driver {
            Driver::Range => (None, true),
            Driver::Vector(r) => (Some(r), meta.vec_meta(r).is_some_and(|vm| vm.props.is_dense())),
            Driver::MatOuter(r) => (Some(r), meta.mat_meta(r).is_some_and(|m| m.outer.is_dense())),
            Driver::MatInner(r) => (Some(r), meta.mat_meta(r).is_some_and(|m| m.inner.is_dense())),
        },
    };
    if let Some(r) = rel {
        if !query.predicate.contains(&r) && !dense {
            diags.push(Diagnostic::error(
                codes::PLAN_UNSOUND_DRIVER,
                Span::PlanNode(k),
                format!(
                    "driver {r} is outside the sparsity predicate but enumerates \
                     a non-dense level: stored-zero tuples would be skipped"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_relational::access::{MatMeta, VecMeta};
    use bernoulli_relational::ids::{MAT_A, VAR_I, VAR_J, VAR_K, VEC_X};
    use bernoulli_relational::plan::LoopNode;
    use bernoulli_relational::planner::Planner;
    use bernoulli_relational::props::{LevelProps, SearchCost};
    use bernoulli_relational::ast::programs;
    use bernoulli_relational::lower::extract_query;

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

    fn matvec_setup() -> (Query, QueryMeta) {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta =
            QueryMeta::new().mat(MAT_A, csr_meta(50, 200)).vec(VEC_X, VecMeta::dense(50));
        (q, meta)
    }

    /// The planner's own CSR matvec plan — used as the clean baseline
    /// in every trigger test below.
    fn clean_plan() -> (Plan, Query, QueryMeta) {
        let (q, meta) = matvec_setup();
        let plan = Planner::new().plan(&q, &meta).unwrap();
        (plan, q, meta)
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn planner_output_verifies_clean() {
        let (q, meta) = matvec_setup();
        for p in Planner::new().plan_all(&q, &meta).unwrap() {
            let diags = verify_plan(&p, &q, &meta);
            assert!(!diags.iter().any(Diagnostic::is_error), "plan {}: {diags:?}", p.shape());
        }
        let (p, q, meta) = clean_plan();
        verify_plan_hook(&p, &q, &meta).unwrap();
    }

    #[test]
    fn ba11_merge_against_unsorted_partner() {
        let (mut plan, q, _) = clean_plan();
        // Same shape, but X is declared unsorted while the plan merges.
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(50, 200))
            .vec(VEC_X, VecMeta { len: 50, nnz: 20, props: LevelProps::sparse_unsorted() });
        for n in &mut plan.nodes {
            if let PlanNode::Loop(l) = n {
                for lk in &mut l.lookups {
                    lk.method = JoinMethod::Merge;
                }
            }
        }
        let diags = verify_plan(&plan, &q, &meta);
        assert!(codes_of(&diags).contains(&codes::PLAN_BAD_MERGE), "{diags:?}");
        // Clean baseline does not emit BA11.
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_BAD_MERGE));
    }

    #[test]
    fn ba11_merge_against_duplicate_bearing_partner() {
        let (mut plan, q, _) = clean_plan();
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(50, 200)).vec(
            VEC_X,
            VecMeta { len: 50, nnz: 20, props: LevelProps { duplicates: true, ..LevelProps::sparse_sorted() } },
        );
        for n in &mut plan.nodes {
            if let PlanNode::Loop(l) = n {
                for lk in &mut l.lookups {
                    lk.method = JoinMethod::Merge;
                }
            }
        }
        let diags = verify_plan(&plan, &q, &meta);
        assert!(
            diags.iter().any(|d| d.code == codes::PLAN_BAD_MERGE && d.message.contains("duplicate")),
            "{diags:?}"
        );
    }

    #[test]
    fn ba12_search_against_unsearchable_partner() {
        let (plan, q, _) = clean_plan();
        // X now declares no search support, but the plan probes it.
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(50, 200)).vec(
            VEC_X,
            VecMeta {
                len: 50,
                nnz: 50,
                props: LevelProps::dense().with_search(SearchCost::Unsupported),
            },
        );
        let diags = verify_plan(&plan, &q, &meta);
        assert!(codes_of(&diags).contains(&codes::PLAN_BAD_SEARCH), "{diags:?}");
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_BAD_SEARCH));
    }

    #[test]
    fn ba13_lookup_references_unbound_var() {
        let (mut plan, q, meta) = clean_plan();
        // Point the X probe at a variable no node binds.
        for n in &mut plan.nodes {
            if let PlanNode::Loop(l) = n {
                for lk in &mut l.lookups {
                    if let ProbeKind::VecAt(_) = lk.kind {
                        lk.kind = ProbeKind::VecAt(VAR_K);
                    }
                }
            }
        }
        let diags = verify_plan(&plan, &q, &meta);
        assert!(codes_of(&diags).contains(&codes::PLAN_UNBOUND_LOOKUP), "{diags:?}");
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_UNBOUND_LOOKUP));
    }

    #[test]
    fn ba14_plan_missing_a_variable() {
        let (mut plan, q, meta) = clean_plan();
        plan.nodes.retain(|n| !matches!(n, PlanNode::Loop(l) if l.var == VAR_J));
        let diags = verify_plan(&plan, &q, &meta);
        assert!(codes_of(&diags).contains(&codes::PLAN_BINDING_MISMATCH), "{diags:?}");
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_BINDING_MISMATCH));
    }

    #[test]
    fn ba14_variable_bound_twice() {
        let (mut plan, q, meta) = clean_plan();
        plan.nodes.push(PlanNode::Loop(LoopNode {
            var: VAR_I,
            driver: Driver::Range,
            derived: vec![],
            lookups: vec![],
        }));
        let diags = verify_plan(&plan, &q, &meta);
        assert!(
            diags.iter().any(|d| d.code == codes::PLAN_BINDING_MISMATCH && d.message.contains("twice")),
            "{diags:?}"
        );
    }

    #[test]
    fn ba15_sparse_driver_outside_predicate() {
        let (mut plan, q, _) = clean_plan();
        // Make X sparse (and not in the predicate), then drive j from it.
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(50, 200))
            .vec(VEC_X, VecMeta::sparse_sorted(50, 10));
        for n in &mut plan.nodes {
            if let PlanNode::Loop(l) = n {
                if l.var == VAR_J {
                    l.driver = Driver::Vector(VEC_X);
                    l.lookups.clear();
                }
            }
        }
        let diags = verify_plan(&plan, &q, &meta);
        assert!(codes_of(&diags).contains(&codes::PLAN_UNSOUND_DRIVER), "{diags:?}");
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_UNSOUND_DRIVER));
    }

    #[test]
    fn ba16_missing_metadata() {
        let (plan, q, _) = clean_plan();
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(50, 200)); // X unregistered
        let diags = verify_plan(&plan, &q, &meta);
        assert_eq!(codes_of(&diags), vec![codes::PLAN_MISSING_META]);
        let (p, q2, m2) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q2, &m2)).contains(&codes::PLAN_MISSING_META));
    }

    #[test]
    fn ba17_nonfinite_cost_estimate() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let (mut plan, q, meta) = clean_plan();
            plan.est_cost = bad;
            let diags = verify_plan(&plan, &q, &meta);
            assert!(codes_of(&diags).contains(&codes::PLAN_NONFINITE_COST), "{bad}: {diags:?}");
        }
        let (p, q, m) = clean_plan();
        assert!(!codes_of(&verify_plan(&p, &q, &m)).contains(&codes::PLAN_NONFINITE_COST));
    }

    #[test]
    fn permuted_plans_verify_clean() {
        let q = extract_query(&programs::matvec_row_permuted()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(40, 160))
            .vec(VEC_X, VecMeta::dense(40))
            .perm(bernoulli_relational::ids::PERM_P, 40);
        for p in Planner::new().plan_all(&q, &meta).unwrap() {
            let diags = verify_plan(&p, &q, &meta);
            assert!(!diags.iter().any(Diagnostic::is_error), "plan {}: {diags:?}", p.shape());
        }
    }
}
