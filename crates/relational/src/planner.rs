//! Cost-based query planning.
//!
//! Given a [`Query`] and per-relation metadata ([`QueryMeta`]), the
//! planner chooses:
//!
//! 1. a **join order** — which loop variable is enumerated at which
//!    depth, compatible with every hierarchical format's index order
//!    (a CCS matrix can only enumerate rows *within* a column, so `j`
//!    must come before `i` if CCS drives both);
//! 2. a **driver** per variable — the relation whose enumeration
//!    produces candidates (preferring relations in the sparsity
//!    predicate, so that only nonzeros are visited);
//! 3. a **join implementation** per remaining relation — merge-join
//!    against a sorted co-enumeration, or a search probe — based purely
//!    on the declared [`LevelProps`](crate::props::LevelProps).
//!
//! The search is exhaustive over variable orders and driver choices
//! (queries have ≤ 3 variables and ≤ 4 terms), scored by an abstract
//! cost model, mirroring the paper's claim that join order/implementation
//! selection needs only the high-level structure of the relations.

use crate::access::{MatMeta, Orientation, VecMeta};
use crate::error::{RelError, RelResult};
use crate::ids::{RelId, Var};
use crate::plan::{
    Derivation, Driver, FlatNode, JoinMethod, LoopNode, Lookup, Plan, PlanNode, ProbeKind,
};
use crate::props::SearchCost;
use crate::query::{Query, Term};
use bernoulli_obs::events::PlanEvent;
use bernoulli_obs::Obs;
use std::collections::HashMap;

/// Per-relation metadata registry handed to the planner.
#[derive(Clone, Debug, Default)]
pub struct QueryMeta {
    mats: HashMap<RelId, MatMeta>,
    vecs: HashMap<RelId, VecMeta>,
    perms: HashMap<RelId, usize>,
}

impl QueryMeta {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn mat(mut self, rel: RelId, meta: MatMeta) -> Self {
        self.mats.insert(rel, meta);
        self
    }

    pub fn vec(mut self, rel: RelId, meta: VecMeta) -> Self {
        self.vecs.insert(rel, meta);
        self
    }

    pub fn perm(mut self, rel: RelId, len: usize) -> Self {
        self.perms.insert(rel, len);
        self
    }

    pub fn mat_meta(&self, rel: RelId) -> Option<&MatMeta> {
        self.mats.get(&rel)
    }

    pub fn vec_meta(&self, rel: RelId) -> Option<&VecMeta> {
        self.vecs.get(&rel)
    }

    pub fn perm_len(&self, rel: RelId) -> Option<usize> {
        self.perms.get(&rel).copied()
    }
}

/// Independent re-check of an emitted plan, installable on
/// [`Planner::verifier`]. A failure aborts planning with
/// [`RelError::PlanVerification`]. The production implementation lives
/// in `bernoulli-analysis` (`verify_plan_hook`), which this crate
/// cannot depend on — hence the function-pointer seam.
pub type PlanVerifier = fn(&Plan, &Query, &QueryMeta) -> Result<(), String>;

/// The planner. Stateless apart from its two seams.
#[derive(Clone, Debug, Default)]
pub struct Planner {
    /// When set, every candidate plan is re-checked by this hook before
    /// being returned; a failure aborts planning (belt-and-braces
    /// against planner/metadata skew, wired up by `Compiler::new()`
    /// under `debug_assertions`).
    pub verifier: Option<PlanVerifier>,
    /// Observability handle: when enabled, every successful `plan_all`
    /// records a [`PlanEvent`] (chosen shape, cost, runners-up and the
    /// full EXPLAIN text from [`crate::explain`]). The disabled default
    /// is zero-cost — the event closure never runs.
    pub obs: Obs,
}

impl Planner {
    pub fn new() -> Self {
        Planner::default()
    }

    /// Plan a query. Returns the cheapest feasible plan.
    pub fn plan(&self, query: &Query, meta: &QueryMeta) -> RelResult<Plan> {
        let mut all = self.plan_all(query, meta)?;
        Ok(all.swap_remove(0))
    }

    /// Explain the planning decision: every feasible candidate plan,
    /// cheapest first. Useful for tooling and for verifying what the
    /// cost model considered (the first element is what [`Planner::plan`]
    /// returns).
    pub fn plan_all(&self, query: &Query, meta: &QueryMeta) -> RelResult<Vec<Plan>> {
        query.validate()?;
        // Check all terms have metadata.
        for t in &query.terms {
            let ok = match t {
                Term::Mat { rel, .. } => meta.mats.contains_key(rel),
                Term::Vec { rel, .. } => meta.vecs.contains_key(rel),
                Term::Perm { rel, .. } => meta.perms.contains_key(rel),
            };
            if !ok {
                return Err(RelError::MissingMeta(t.rel()));
            }
        }

        let extents = var_extents(query, meta)?;
        let mut candidates: Vec<Plan> = Vec::new();
        let mut nonfinite = 0usize;

        // Choose, for every permutation term, which side is derived.
        for deriv_choice in derivation_choices(query) {
            let enum_vars: Vec<Var> = query
                .vars
                .iter()
                .copied()
                .filter(|v| !deriv_choice.iter().any(|d| d.to == *v))
                .collect();
            if enum_vars.is_empty() {
                continue;
            }
            for order in permutations(&enum_vars) {
                // Nested-loop candidates.
                self.candidates_for_order(
                    query, meta, &extents, &order, &deriv_choice, &mut candidates,
                    &mut nonfinite,
                );
                // Flat-enumeration candidates: a matrix binds both of
                // its variables at the outermost position.
                self.flat_candidates(
                    query, meta, &extents, &order, &deriv_choice, &mut candidates,
                    &mut nonfinite,
                );
            }
        }

        // Surface non-finite cost-model discards through provenance:
        // the candidate set EXPLAIN and the plan events report must not
        // shrink silently.
        if nonfinite > 0 {
            self.obs.counter("planner.nonfinite_cost_discards", nonfinite as u64);
        }
        if candidates.is_empty() {
            let msg = if nonfinite > 0 {
                format!(
                    "no variable order / driver assignment satisfies the access methods \
                     ({nonfinite} candidate(s) discarded for non-finite cost estimates — \
                     the cost model broke down on this metadata)"
                )
            } else {
                "no variable order / driver assignment satisfies the access methods".into()
            };
            return Err(RelError::NoFeasiblePlan(msg));
        }
        candidates.sort_by(|a, b| a.est_cost.total_cmp(&b.est_cost));
        // Drop duplicate shapes, keeping the cheapest instance of each.
        let mut seen: Vec<String> = Vec::new();
        candidates.retain(|c| {
            let sh = c.shape();
            if seen.contains(&sh) {
                false
            } else {
                seen.push(sh);
                true
            }
        });
        if let Some(verify) = self.verifier {
            for c in &candidates {
                verify(c, query, meta).map_err(|e| {
                    RelError::PlanVerification(format!("plan `{}`: {e}", c.shape()))
                })?;
            }
        }
        self.obs.plan(|| {
            let best = &candidates[0];
            PlanEvent {
                op: crate::explain::describe_stmt(query),
                shape: best.shape(),
                est_cost: best.est_cost,
                candidates: candidates.len(),
                runners_up: candidates
                    .iter()
                    .skip(1)
                    .take(4)
                    .map(|c| (c.shape(), c.est_cost))
                    .collect(),
                explain: crate::explain::explain_plan(best, query, meta),
            }
        });
        Ok(candidates)
    }

    #[allow(clippy::too_many_arguments)]
    fn candidates_for_order(
        &self,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        order: &[Var],
        derivs: &[Derivation],
        out: &mut Vec<Plan>,
        nonfinite: &mut usize,
    ) {
        // Enumerate driver assignments with a simple product search.
        let options: Vec<Vec<Driver>> = order
            .iter()
            .enumerate()
            .map(|(pos, &v)| self.driver_options(query, meta, order, pos, v))
            .collect();
        if options.iter().any(|o| o.is_empty()) {
            return;
        }
        let mut idx = vec![0usize; order.len()];
        loop {
            let drivers: Vec<Driver> =
                idx.iter().zip(&options).map(|(&k, opts)| opts[k]).collect();
            if let Some(plan) =
                self.assemble(query, meta, extents, order, &drivers, derivs, None, nonfinite)
            {
                out.push(plan);
            }
            // Advance the product counter.
            let mut p = 0;
            loop {
                if p == idx.len() {
                    return;
                }
                idx[p] += 1;
                if idx[p] < options[p].len() {
                    break;
                }
                idx[p] = 0;
                p += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn flat_candidates(
        &self,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        order: &[Var],
        derivs: &[Derivation],
        out: &mut Vec<Plan>,
        nonfinite: &mut usize,
    ) {
        for t in &query.terms {
            let (rel, row, col) = match t {
                Term::Mat { rel, row, col } => (*rel, *row, *col),
                _ => continue,
            };
            // The flat node binds row & col; the remaining enumerated
            // vars must follow in `order`'s relative order.
            if !order.contains(&row) || !order.contains(&col) {
                continue;
            }
            let rest: Vec<Var> =
                order.iter().copied().filter(|v| *v != row && *v != col).collect();
            // Drivers for the remaining vars.
            let flat_bound = [row, col];
            let options: Vec<Vec<Driver>> = rest
                .iter()
                .enumerate()
                .map(|(pos, &v)| {
                    self.driver_options_with_prefix(query, meta, &flat_bound, &rest, pos, v, rel)
                })
                .collect();
            if options.iter().any(|o| o.is_empty()) {
                continue;
            }
            let mut idx = vec![0usize; rest.len()];
            loop {
                let drivers: Vec<Driver> =
                    idx.iter().zip(&options).map(|(&k, opts)| opts[k]).collect();
                if let Some(plan) = self.assemble(
                    query,
                    meta,
                    extents,
                    &rest,
                    &drivers,
                    derivs,
                    Some((rel, row, col)),
                    nonfinite,
                ) {
                    out.push(plan);
                }
                let mut p = 0;
                let mut done = false;
                loop {
                    if p == idx.len() {
                        done = true;
                        break;
                    }
                    idx[p] += 1;
                    if idx[p] < options[p].len() {
                        break;
                    }
                    idx[p] = 0;
                    p += 1;
                }
                if done || rest.is_empty() {
                    break;
                }
            }
            if rest.is_empty() {
                // Handled the single empty-product iteration above.
                continue;
            }
        }
    }

    /// Legal drivers for enumerated var `v` at position `pos` of `order`
    /// in a pure nested-loop plan.
    fn driver_options(
        &self,
        query: &Query,
        meta: &QueryMeta,
        order: &[Var],
        pos: usize,
        v: Var,
    ) -> Vec<Driver> {
        self.driver_options_with_prefix(query, meta, &[], order, pos, v, RelId(u32::MAX))
    }

    /// Same, with `prefix_bound` vars already bound by a flat node for
    /// relation `flat_rel` (which cannot be used again as a driver).
    #[allow(clippy::too_many_arguments)]
    fn driver_options_with_prefix(
        &self,
        query: &Query,
        meta: &QueryMeta,
        prefix_bound: &[Var],
        order: &[Var],
        pos: usize,
        v: Var,
        flat_rel: RelId,
    ) -> Vec<Driver> {
        let bound: Vec<Var> =
            prefix_bound.iter().copied().chain(order[..pos].iter().copied()).collect();
        let mut out = vec![Driver::Range];
        for t in &query.terms {
            match t {
                Term::Vec { rel, idx } if *idx == v => out.push(Driver::Vector(*rel)),
                Term::Mat { rel, row, col } if *rel != flat_rel => {
                    let m = &meta.mats[rel];
                    let (outer_v, inner_v) = match m.orientation {
                        Orientation::RowMajor => (*row, *col),
                        Orientation::ColMajor => (*col, *row),
                        Orientation::Flat => continue,
                    };
                    if outer_v == v {
                        out.push(Driver::MatOuter(*rel));
                    }
                    if inner_v == v && bound.contains(&outer_v) {
                        // The outer cursor can be located: either this
                        // relation drove the outer var (checked at
                        // assembly) or outer search is supported.
                        out.push(Driver::MatInner(*rel));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Try to assemble a full plan for one (order, drivers) choice.
    /// Returns `None` when some join cannot be implemented.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        order: &[Var],
        drivers: &[Driver],
        derivs: &[Derivation],
        flat: Option<(RelId, Var, Var)>,
        nonfinite: &mut usize,
    ) -> Option<Plan> {
        // node index at which each var becomes bound
        let mut bind_node: HashMap<Var, usize> = HashMap::new();
        let mut nodes: Vec<PlanNode> = Vec::new();
        if let Some((rel, row, col)) = flat {
            bind_node.insert(row, 0);
            bind_node.insert(col, 0);
            nodes.push(PlanNode::Flat(FlatNode {
                rel,
                row_var: row,
                col_var: col,
                derived: vec![],
                lookups: vec![],
            }));
        }
        let base = nodes.len();
        for (k, (&v, &d)) in order.iter().zip(drivers).enumerate() {
            bind_node.insert(v, base + k);
            nodes.push(PlanNode::Loop(LoopNode {
                var: v,
                driver: d,
                derived: vec![],
                lookups: vec![],
            }));
        }
        // Attach derivations to the node binding their source var, and
        // record the derived var as bound at that node.
        for d in derivs {
            let &src_node = bind_node.get(&d.from)?;
            bind_node.insert(d.to, src_node);
            match &mut nodes[src_node] {
                PlanNode::Loop(l) => l.derived.push(*d),
                PlanNode::Flat(f) => f.derived.push(*d),
            }
        }
        // Every query var must be bound.
        for v in &query.vars {
            bind_node.get(v)?;
        }

        // A matrix driving its inner level must have a locatable outer
        // cursor: either it drove the outer var, or we must attach a
        // MatOuterAt lookup at the outer var's node.
        let mut extra_lookups: Vec<(usize, Lookup)> = Vec::new();
        for (k, node) in nodes.iter().enumerate() {
            let l = match node {
                PlanNode::Loop(l) => l,
                PlanNode::Flat(_) => continue,
            };
            if let Driver::MatInner(rel) = l.driver {
                let m = &meta.mats[&rel];
                let (outer_v, _) = mat_axis_vars(query, rel, m)?;
                let outer_node = *bind_node.get(&outer_v)?;
                if outer_node >= k {
                    return None;
                }
                let drove_outer = matches!(
                    &nodes[outer_node],
                    PlanNode::Loop(ol) if ol.driver == Driver::MatOuter(rel)
                );
                if !drove_outer {
                    if !m.outer.search.supported() {
                        return None;
                    }
                    extra_lookups.push((
                        outer_node,
                        Lookup {
                            rel,
                            kind: ProbeKind::MatOuterAt(outer_v),
                            method: JoinMethod::Search,
                            in_predicate: query.predicate.contains(&rel),
                        },
                    ));
                }
            }
        }

        // Resolve every term not covered by a driver.
        for t in &query.terms {
            match t {
                Term::Perm { .. } => {} // derivations handle these
                Term::Vec { rel, idx } => {
                    let driven = nodes.iter().any(|n| {
                        matches!(n, PlanNode::Loop(l) if l.driver == Driver::Vector(*rel))
                    });
                    if driven {
                        continue;
                    }
                    let node = *bind_node.get(idx)?;
                    let vm = &meta.vecs[rel];
                    let method = choose_method(
                        node_sorted(&nodes[node], meta, query),
                        vm.props.sortedness.is_sorted(),
                        vm.props.search,
                        vm.nnz as f64,
                        node_driver_card(&nodes[node], meta, extents),
                    )?;
                    extra_lookups.push((
                        node,
                        Lookup {
                            rel: *rel,
                            kind: ProbeKind::VecAt(*idx),
                            method,
                            in_predicate: query.predicate.contains(rel),
                        },
                    ));
                }
                Term::Mat { rel, row, col } => {
                    if flat.map(|(r, _, _)| r) == Some(*rel) {
                        continue; // the flat driver
                    }
                    let m = &meta.mats[&rel.clone()];
                    let in_pred = query.predicate.contains(rel);
                    let drove_outer = nodes.iter().any(|n| {
                        matches!(n, PlanNode::Loop(l) if l.driver == Driver::MatOuter(*rel))
                    });
                    let drove_inner = nodes.iter().any(|n| {
                        matches!(n, PlanNode::Loop(l) if l.driver == Driver::MatInner(*rel))
                    });
                    if drove_outer && drove_inner {
                        continue; // fully enumerated
                    }
                    if m.orientation == Orientation::Flat {
                        // Only random pair probes are possible.
                        let n_row = *bind_node.get(row)?;
                        let n_col = *bind_node.get(col)?;
                        let node = n_row.max(n_col);
                        extra_lookups.push((
                            node,
                            Lookup {
                                rel: *rel,
                                kind: ProbeKind::MatFlatPairAt { row_var: *row, col_var: *col },
                                method: JoinMethod::Search,
                                in_predicate: in_pred,
                            },
                        ));
                        continue;
                    }
                    let (outer_v, inner_v) = match m.orientation {
                        Orientation::RowMajor => (*row, *col),
                        Orientation::ColMajor => (*col, *row),
                        Orientation::Flat => unreachable!(),
                    };
                    let n_outer = *bind_node.get(&outer_v)?;
                    let n_inner = *bind_node.get(&inner_v)?;
                    if drove_outer {
                        // Need only the inner value at the later var.
                        let node = n_outer.max(n_inner);
                        let method = if n_inner > n_outer {
                            choose_method(
                                node_sorted(&nodes[node], meta, query),
                                m.inner.sortedness.is_sorted(),
                                m.inner.search,
                                m.avg_inner_len(),
                                node_driver_card(&nodes[node], meta, extents),
                            )?
                        } else {
                            // inner var bound before/at the outer node:
                            // probe inner under the driver's cursor.
                            if !m.inner.search.supported() {
                                return None;
                            }
                            JoinMethod::Search
                        };
                        extra_lookups.push((
                            node,
                            Lookup {
                                rel: *rel,
                                kind: ProbeKind::MatInnerAt(inner_v),
                                method,
                                in_predicate: in_pred,
                            },
                        ));
                        continue;
                    }
                    if drove_inner {
                        // Outer cursor handled above (extra MatOuterAt or
                        // an error); nothing further: the inner driver
                        // produces the value.
                        continue;
                    }
                    // Not a driver at all.
                    if n_outer < n_inner {
                        // Locate the cursor when the outer var binds,
                        // then resolve the value at the inner var.
                        if !m.outer.search.supported() {
                            return None;
                        }
                        let outer_method = choose_method(
                            node_sorted(&nodes[n_outer], meta, query),
                            m.outer.sortedness.is_sorted(),
                            m.outer.search,
                            m.outer_extent() as f64,
                            node_driver_card(&nodes[n_outer], meta, extents),
                        )?;
                        extra_lookups.push((
                            n_outer,
                            Lookup {
                                rel: *rel,
                                kind: ProbeKind::MatOuterAt(outer_v),
                                method: outer_method,
                                in_predicate: in_pred,
                            },
                        ));
                        let inner_method = choose_method(
                            node_sorted(&nodes[n_inner], meta, query),
                            m.inner.sortedness.is_sorted(),
                            m.inner.search,
                            m.avg_inner_len(),
                            node_driver_card(&nodes[n_inner], meta, extents),
                        )?;
                        extra_lookups.push((
                            n_inner,
                            Lookup {
                                rel: *rel,
                                kind: ProbeKind::MatInnerAt(inner_v),
                                method: inner_method,
                                in_predicate: in_pred,
                            },
                        ));
                    } else {
                        // Inner var binds first: combined probe at the
                        // outer var's node.
                        if !m.outer.search.supported() || !m.inner.search.supported() {
                            return None;
                        }
                        extra_lookups.push((
                            n_outer,
                            Lookup {
                                rel: *rel,
                                kind: ProbeKind::MatPairAt {
                                    outer_var: outer_v,
                                    inner_var: inner_v,
                                },
                                method: JoinMethod::Search,
                                in_predicate: in_pred,
                            },
                        ));
                    }
                }
            }
        }

        for (node, lk) in extra_lookups {
            match &mut nodes[node] {
                PlanNode::Loop(l) => l.lookups.push(lk),
                PlanNode::Flat(f) => f.lookups.push(lk),
            }
        }
        // Deduplicate lookups (a MatOuterAt may be requested twice).
        for n in &mut nodes {
            let lks = match n {
                PlanNode::Loop(l) => &mut l.lookups,
                PlanNode::Flat(f) => &mut f.lookups,
            };
            let mut seen = Vec::new();
            lks.retain(|lk| {
                if seen.contains(&(lk.rel, lk.kind)) {
                    false
                } else {
                    seen.push((lk.rel, lk.kind));
                    true
                }
            });
            // Merge lookups must run before searches (they also filter
            // more cheaply); stable-sort by method.
            lks.sort_by_key(|lk| match lk.method {
                JoinMethod::Merge => 0,
                JoinMethod::Search => 1,
            });
        }

        // Soundness: a driver's enumeration filters out unstored
        // indices, which is only legal when the relation is in the
        // sparsity predicate (zeros may be skipped) or the enumerated
        // level is dense (nothing is skipped).
        for n in &nodes {
            let sound = match n {
                PlanNode::Flat(f) => {
                    query.predicate.contains(&f.rel) || meta.mats[&f.rel].flat.is_dense()
                }
                PlanNode::Loop(l) => match l.driver {
                    Driver::Range => true,
                    Driver::Vector(r) => {
                        query.predicate.contains(&r) || meta.vecs[&r].props.is_dense()
                    }
                    Driver::MatOuter(r) => {
                        query.predicate.contains(&r) || meta.mats[&r].outer.is_dense()
                    }
                    Driver::MatInner(r) => {
                        query.predicate.contains(&r) || meta.mats[&r].inner.is_dense()
                    }
                },
            };
            if !sound {
                return None;
            }
        }

        self.price_candidate(nodes, query, meta, extents, nonfinite)
    }

    /// Run the cost model over an assembled candidate. A non-finite
    /// estimate means the model broke down on the metadata (e.g. an
    /// unpriceable probe — planner/metadata skew), not that the plan is
    /// infeasible; the candidate is still discarded (a non-comparable
    /// cost cannot be ranked) but the discard is *counted* so
    /// [`Planner::plan_all`] can surface it through obs/EXPLAIN
    /// provenance instead of silently shrinking the candidate set
    /// EXPLAIN reports.
    fn price_candidate(
        &self,
        nodes: Vec<PlanNode>,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        nonfinite: &mut usize,
    ) -> Option<Plan> {
        let est_cost = estimate_cost(&nodes, query, meta, extents);
        if !est_cost.is_finite() {
            *nonfinite += 1;
            return None;
        }
        Some(Plan { nodes, est_cost })
    }
}

/// Whether a node's driver enumerates its variable in ascending order
/// (precondition for merge joins at that node).
/// Expected number of candidates a node's driver enumerates per start.
pub(crate) fn node_driver_card(
    node: &PlanNode,
    meta: &QueryMeta,
    extents: &HashMap<Var, usize>,
) -> f64 {
    match node {
        PlanNode::Flat(f) => meta.mats[&f.rel].nnz as f64,
        PlanNode::Loop(l) => match l.driver {
            Driver::Range => extents[&l.var] as f64,
            Driver::Vector(r) => meta.vecs[&r].nnz as f64,
            Driver::MatOuter(r) => {
                let m = &meta.mats[&r];
                if m.outer.is_dense() {
                    m.outer_extent() as f64
                } else {
                    (m.nnz as f64).min(m.outer_extent() as f64)
                }
            }
            Driver::MatInner(r) => meta.mats[&r].avg_inner_len(),
        },
    }
}

fn node_sorted(node: &PlanNode, meta: &QueryMeta, _query: &Query) -> bool {
    match node {
        PlanNode::Flat(_) => false,
        PlanNode::Loop(l) => match l.driver {
            Driver::Range => true,
            Driver::Vector(r) => meta.vecs[&r].props.sortedness.is_sorted(),
            Driver::MatOuter(r) => meta.mats[&r].outer.sortedness.is_sorted(),
            Driver::MatInner(r) => meta.mats[&r].inner.sortedness.is_sorted(),
        },
    }
}

/// Pick merge vs. search for one lookup; `None` if neither is legal.
///
/// The trade-off is contextual: a merge join traverses the whole partner
/// once per node start (`partner_len` steps), while searching probes
/// once per driver candidate (`driver_card × probe_cost`). Both legal ⇒
/// pick the cheaper.
fn choose_method(
    driver_sorted: bool,
    partner_sorted: bool,
    partner_search: SearchCost,
    partner_len: f64,
    driver_card: f64,
) -> Option<JoinMethod> {
    let merge_ok = driver_sorted && partner_sorted;
    let search_ok = partner_search.supported();
    match (merge_ok, search_ok) {
        (false, false) => None,
        (true, false) => Some(JoinMethod::Merge),
        (false, true) => Some(JoinMethod::Search),
        (true, true) => {
            if partner_search == SearchCost::Constant {
                // Dense direct indexing beats co-traversal outright.
                Some(JoinMethod::Search)
            } else if partner_len < driver_card * partner_search.probe_cost(partner_len) {
                Some(JoinMethod::Merge)
            } else {
                Some(JoinMethod::Search)
            }
        }
    }
}

/// Derive (outer_var, inner_var) for a matrix relation from the query.
fn mat_axis_vars(query: &Query, rel: RelId, m: &MatMeta) -> Option<(Var, Var)> {
    match query.term(rel)? {
        Term::Mat { row, col, .. } => match m.orientation {
            Orientation::RowMajor => Some((*row, *col)),
            Orientation::ColMajor => Some((*col, *row)),
            Orientation::Flat => None,
        },
        _ => None,
    }
}

/// All ways of orienting the permutation terms (which side enumerated,
/// which derived).
fn derivation_choices(query: &Query) -> Vec<Vec<Derivation>> {
    let perms: Vec<(RelId, Var, Var)> = query
        .terms
        .iter()
        .filter_map(|t| match t {
            Term::Perm { rel, from, to } => Some((*rel, *from, *to)),
            _ => None,
        })
        .collect();
    let mut out = vec![vec![]];
    for (rel, from, to) in perms {
        let mut next = Vec::new();
        for base in &out {
            let mut a = base.clone();
            a.push(Derivation { perm: rel, from, to, forward: true });
            next.push(a);
            let mut b = base.clone();
            b.push(Derivation { perm: rel, from: to, to: from, forward: false });
            next.push(b);
        }
        out = next;
    }
    out
}

fn permutations(vars: &[Var]) -> Vec<Vec<Var>> {
    if vars.len() <= 1 {
        return vec![vars.to_vec()];
    }
    let mut out = Vec::new();
    for (k, &v) in vars.iter().enumerate() {
        let mut rest = vars.to_vec();
        rest.remove(k);
        for mut tail in permutations(&rest) {
            tail.insert(0, v);
            out.push(tail);
        }
    }
    out
}

/// Resolve the dense extent of each variable from the relation shapes.
pub(crate) fn var_extents(query: &Query, meta: &QueryMeta) -> RelResult<HashMap<Var, usize>> {
    let mut ext: HashMap<Var, usize> = HashMap::new();
    let mut put = |v: Var, n: usize| {
        let e = ext.entry(v).or_insert(n);
        *e = (*e).min(n);
    };
    for t in &query.terms {
        match t {
            Term::Mat { rel, row, col } => {
                if let Some(m) = meta.mats.get(rel) {
                    put(*row, m.nrows);
                    put(*col, m.ncols);
                }
            }
            Term::Vec { rel, idx } => {
                if let Some(vm) = meta.vecs.get(rel) {
                    put(*idx, vm.len);
                }
            }
            Term::Perm { rel, from, to } => {
                if let Some(&n) = meta.perms.get(rel) {
                    put(*from, n);
                    put(*to, n);
                }
            }
        }
    }
    for v in &query.vars {
        if !ext.contains_key(v) {
            return Err(RelError::UnboundVar(*v));
        }
    }
    Ok(ext)
}

/// Abstract cost model: work ≈ tuples touched + probe costs + merge
/// co-traversals, estimated top-down through the loop nest.
fn estimate_cost(
    nodes: &[PlanNode],
    query: &Query,
    meta: &QueryMeta,
    extents: &HashMap<Var, usize>,
) -> f64 {
    let mut cost = 0.0;
    let mut starts = 1.0; // times the node begins
    for node in nodes {
        // Reconstructing ⟨i, j, v⟩ tuples from a flat stream costs more
        // per element than stepping a hierarchy level (and for
        // hierarchical formats the flat view is derived, so hierarchical
        // plans are preferred when available).
        let step_cost = match node {
            PlanNode::Flat(_) => 1.5,
            PlanNode::Loop(_) => 1.0,
        };
        let (dcard, lookups) = match node {
            PlanNode::Flat(f) => (meta.mats[&f.rel].nnz as f64, &f.lookups),
            PlanNode::Loop(l) => {
                let c = match l.driver {
                    Driver::Range => extents[&l.var] as f64,
                    Driver::Vector(r) => meta.vecs[&r].nnz as f64,
                    Driver::MatOuter(r) => {
                        let m = &meta.mats[&r];
                        if m.outer.is_dense() {
                            m.outer_extent() as f64
                        } else {
                            (m.nnz as f64).min(m.outer_extent() as f64)
                        }
                    }
                    Driver::MatInner(r) => meta.mats[&r].avg_inner_len(),
                };
                (c, &l.lookups)
            }
        };
        let raw = starts * dcard;
        cost += raw * step_cost; // driver stepping
        let mut surviving = raw;
        // Merges first: co-traversal cost per node start, then filter.
        for lk in lookups.iter().filter(|lk| lk.method == JoinMethod::Merge) {
            let plen = partner_len(lk, meta);
            cost += starts * plen;
            if lk.in_predicate {
                surviving *= selectivity(lk, meta, extents, query);
            }
        }
        for lk in lookups.iter().filter(|lk| lk.method == JoinMethod::Search) {
            cost += surviving * probe_cost(lk, meta);
            if lk.in_predicate {
                surviving *= selectivity(lk, meta, extents, query);
            }
        }
        starts = surviving.max(0.0);
    }
    cost + starts // final statement evaluations
}

fn partner_len(lk: &Lookup, meta: &QueryMeta) -> f64 {
    match lk.kind {
        ProbeKind::VecAt(_) => meta.vecs[&lk.rel].nnz as f64,
        ProbeKind::MatOuterAt(_) => meta.mats[&lk.rel].outer_extent() as f64,
        ProbeKind::MatInnerAt(_) => meta.mats[&lk.rel].avg_inner_len(),
        ProbeKind::MatPairAt { .. } | ProbeKind::MatFlatPairAt { .. } => {
            meta.mats[&lk.rel].nnz as f64
        }
    }
}

fn probe_cost(lk: &Lookup, meta: &QueryMeta) -> f64 {
    match lk.kind {
        ProbeKind::VecAt(_) => {
            let vm = &meta.vecs[&lk.rel];
            vm.props.search.probe_cost(vm.nnz as f64)
        }
        ProbeKind::MatOuterAt(_) => {
            let m = &meta.mats[&lk.rel];
            m.outer.search.probe_cost(m.outer_extent() as f64)
        }
        ProbeKind::MatInnerAt(_) => {
            let m = &meta.mats[&lk.rel];
            m.inner.search.probe_cost(m.avg_inner_len())
        }
        ProbeKind::MatPairAt { .. } => {
            let m = &meta.mats[&lk.rel];
            m.outer.search.probe_cost(m.outer_extent() as f64)
                + m.inner.search.probe_cost(m.avg_inner_len())
        }
        ProbeKind::MatFlatPairAt { .. } => {
            let m = &meta.mats[&lk.rel];
            if m.pair_search_cheap {
                2.0
            } else {
                m.nnz as f64 / 2.0
            }
        }
    }
}

fn selectivity(
    lk: &Lookup,
    meta: &QueryMeta,
    extents: &HashMap<Var, usize>,
    _query: &Query,
) -> f64 {
    let frac = |nnz: f64, dim: f64| if dim <= 0.0 { 1.0 } else { (nnz / dim).min(1.0) };
    match lk.kind {
        ProbeKind::VecAt(v) => {
            let vm = &meta.vecs[&lk.rel];
            frac(vm.nnz as f64, extents.get(&v).copied().unwrap_or(vm.len) as f64)
        }
        ProbeKind::MatOuterAt(_) => {
            let m = &meta.mats[&lk.rel];
            frac(m.nnz as f64, m.outer_extent() as f64)
        }
        ProbeKind::MatInnerAt(_) => {
            let m = &meta.mats[&lk.rel];
            let inner_dim = match m.orientation {
                Orientation::RowMajor => m.ncols,
                Orientation::ColMajor => m.nrows,
                Orientation::Flat => m.ncols,
            };
            frac(m.avg_inner_len(), inner_dim as f64)
        }
        ProbeKind::MatPairAt { .. } | ProbeKind::MatFlatPairAt { .. } => {
            let m = &meta.mats[&lk.rel];
            frac(m.nnz as f64, (m.nrows * m.ncols) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{MatMeta, VecMeta};
    use crate::ids::{MAT_A, MAT_B, VAR_I, VAR_J, VEC_X, VEC_Y};
    use crate::props::LevelProps;
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

    fn ccs_meta(n: usize, nnz: usize) -> MatMeta {
        MatMeta { orientation: Orientation::ColMajor, ..csr_meta(n, nnz) }
    }

    fn coo_meta(n: usize, nnz: usize) -> MatMeta {
        MatMeta {
            orientation: Orientation::Flat,
            outer: LevelProps::enumerate_only(),
            inner: LevelProps::enumerate_only(),
            flat: LevelProps::sparse_unsorted(),
            pair_search_cheap: false,
            ..csr_meta(n, nnz)
        }
    }

    #[test]
    fn csr_matvec_plans_row_then_col() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(100, 500)).vec(VEC_X, VecMeta::dense(100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        assert_eq!(plan.shape(), "i:outer(A)>j:inner(A)[X?]");
    }

    #[test]
    fn ccs_matvec_plans_col_then_row() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, ccs_meta(100, 500)).vec(VEC_X, VecMeta::dense(100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        // Column-major: enumerate j at the outer level, probe X once per
        // column (hoisted naturally since X is at the j node), rows inner.
        assert_eq!(plan.shape(), "j:outer(A)[X?]>i:inner(A)");
    }

    #[test]
    fn coo_matvec_uses_flat_enumeration() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, coo_meta(100, 500)).vec(VEC_X, VecMeta::dense(100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        assert!(plan.shape().starts_with("(i,j):flat(A)"), "got {}", plan.shape());
    }

    #[test]
    fn sparse_x_enters_predicate_and_merges() {
        let mut q = extract_query(&programs::matvec()).unwrap();
        q.infer_predicate(&|r| r == MAT_A || r == VEC_X);
        // Long rows (200 entries) against a short sparse x (100 stored):
        // one co-traversal of x per row beats 200 binary searches.
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(1_000, 200_000))
            .vec(VEC_X, VecMeta::sparse_sorted(1_000, 100));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        assert!(plan.shape().contains("[X~]"), "expected merge join, got {}", plan.shape());
    }

    #[test]
    fn mat_dot_csr_csr_merges_inner() {
        let q = extract_query(&programs::mat_dot()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(1000, 20_000))
            .mat(MAT_B, csr_meta(1000, 20_000));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        // Rows of A drive; B's row located at i; columns merge.
        assert!(plan.shape().contains("[B~]") || plan.shape().contains("[A~]"),
            "expected a merge join, got {}", plan.shape());
    }

    #[test]
    fn spmm_csr_csr_feasible() {
        let q = extract_query(&programs::matmat()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(500, 5_000))
            .mat(MAT_B, csr_meta(500, 5_000));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        // Gustavson's order: i from A, k from A's inner, j from B's inner.
        assert_eq!(plan.shape(), "i:outer(A)>k:inner(A)[B?]>j:inner(B)");
    }

    #[test]
    fn missing_meta_reported() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(10, 10));
        assert_eq!(Planner::new().plan(&q, &meta), Err(RelError::MissingMeta(VEC_X)));
    }

    #[test]
    fn verifier_hook_gates_plan_all() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(10, 30)).vec(VEC_X, VecMeta::dense(10));
        let mut planner = Planner::new();
        planner.verifier = Some(|_, _, _| Err("rejected by test hook".into()));
        match planner.plan(&q, &meta) {
            Err(RelError::PlanVerification(msg)) => {
                assert!(msg.contains("rejected by test hook"), "{msg}")
            }
            other => panic!("expected PlanVerification, got {other:?}"),
        }
        planner.verifier = Some(|_, _, _| Ok(()));
        planner.plan(&q, &meta).unwrap();
    }

    #[test]
    fn permuted_matvec_derives_via_perm() {
        let q = extract_query(&programs::matvec_row_permuted()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, csr_meta(100, 600))
            .vec(VEC_X, VecMeta::dense(100))
            .perm(crate::ids::PERM_P, 100);
        let plan = Planner::new().plan(&q, &meta).unwrap();
        // The permuted row index (k) should be enumerated from A and the
        // global index derived — never a dense range over both.
        let shape = plan.shape();
        assert!(shape.contains("outer(A)"), "got {shape}");
        let loops = plan.nodes.len();
        assert_eq!(loops, 2, "derivation should not add a loop: {shape}");
    }

    #[test]
    fn permutations_helper() {
        assert_eq!(permutations(&[VAR_I]).len(), 1);
        assert_eq!(permutations(&[VAR_I, VAR_J]).len(), 2);
        let q = extract_query(&programs::matmat()).unwrap();
        assert_eq!(permutations(&q.vars).len(), 6);
    }

    #[test]
    fn nonfinite_cost_candidate_is_discarded_and_counted() {
        // Force the cost model to break down: a Search-method probe
        // against a vector whose metadata declares search unsupported
        // prices to +inf. `assemble` never emits that pairing itself
        // (choose_method refuses), so the skew is injected directly at
        // the pricing seam — the guard this exercises is exactly the
        // planner/metadata-skew defence at the end of `assemble`.
        let q = extract_query(&programs::matvec()).unwrap();
        let vm = VecMeta { props: LevelProps::enumerate_only(), ..VecMeta::dense(100) };
        let meta = QueryMeta::new().mat(MAT_A, csr_meta(100, 500)).vec(VEC_X, vm);
        let extents = var_extents(&q, &meta).unwrap();
        let nodes = vec![
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
        ];
        assert!(
            !estimate_cost(&nodes, &q, &meta, &extents).is_finite(),
            "the crafted candidate must force a non-finite estimate"
        );
        let planner = Planner::new();
        let mut nonfinite = 0usize;
        assert!(planner
            .price_candidate(nodes.clone(), &q, &meta, &extents, &mut nonfinite)
            .is_none());
        assert_eq!(nonfinite, 1, "the discard must be counted, not silent");
        // A priceable candidate passes through and leaves the count alone.
        let finite_meta =
            QueryMeta::new().mat(MAT_A, csr_meta(100, 500)).vec(VEC_X, VecMeta::dense(100));
        let plan = planner
            .price_candidate(nodes, &q, &finite_meta, &extents, &mut nonfinite)
            .unwrap();
        assert!(plan.est_cost.is_finite());
        assert_eq!(nonfinite, 1);
    }

    #[test]
    fn extent_mismatch_takes_min() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta =
            QueryMeta::new().mat(MAT_A, csr_meta(100, 500)).vec(VEC_X, VecMeta::dense(100));
        let ext = var_extents(&q, &meta).unwrap();
        assert_eq!(ext[&VAR_I], 100);
        assert_eq!(ext[&VAR_J], 100);
        // VEC_Y is not a term, only the target — no extent contribution.
        assert_eq!(q.term(VEC_Y), None);
    }
}

#[cfg(test)]
mod plan_all_tests {
    use super::*;
    use crate::access::VecMeta;
    use crate::ids::{MAT_A, VEC_X};
    use crate::ast::programs;
    use crate::lower::extract_query;
    use crate::access::{MatMeta, Orientation};
    use crate::props::LevelProps;

    #[test]
    fn plan_all_is_sorted_and_deduplicated() {
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(
                MAT_A,
                MatMeta {
                    nrows: 100,
                    ncols: 100,
                    nnz: 600,
                    orientation: Orientation::RowMajor,
                    outer: LevelProps::dense(),
                    inner: LevelProps::sparse_sorted(),
                    flat: LevelProps::sparse_sorted(),
                    pair_search_cheap: true,
                },
            )
            .vec(VEC_X, VecMeta::dense(100));
        let all = Planner::new().plan_all(&q, &meta).unwrap();
        assert!(all.len() >= 2, "expected several candidate plans");
        assert!(all.windows(2).all(|w| w[0].est_cost <= w[1].est_cost));
        // No two candidates share a shape.
        let shapes: Vec<String> = all.iter().map(Plan::shape).collect();
        let mut dedup = shapes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), shapes.len());
        // The first is what plan() returns.
        let best = Planner::new().plan(&q, &meta).unwrap();
        assert_eq!(best.shape(), all[0].shape());
    }
}
