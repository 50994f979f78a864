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
//!    on the declared [`LevelProps`].
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
use crate::props::{LevelProps, SearchCost};
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
        for derivs in derivation_choices(query) {
            self.candidates(query, meta, &extents, &derivs, &mut candidates, &mut nonfinite);
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
        // Stable: cost ties keep their enumeration order.
        candidates.sort_by(|a, b| a.est_cost.total_cmp(&b.est_cost));
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

    /// Every candidate for one derivation choice, each built and priced
    /// once. Each loop order of the enumerated variables yields its
    /// nested-loop candidates, then the candidates that enumerate one
    /// matrix flat — binding its two variables at the outermost node —
    /// and loop over the rest in that order. Several orders leave the
    /// same rest; the flat candidates are taken at the first of them,
    /// so cost ties keep one enumeration order.
    fn candidates(
        &self,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        derivs: &[Derivation],
        out: &mut Vec<Plan>,
        nonfinite: &mut usize,
    ) {
        let enum_vars: Vec<Var> =
            query.vars.iter().copied().filter(|v| !derivs.iter().any(|d| d.to == *v)).collect();
        if enum_vars.is_empty() {
            return;
        }
        let flats: Vec<FlatNode> = query
            .terms
            .iter()
            .filter_map(|t| match *t {
                Term::Mat { rel, row, col }
                    if enum_vars.contains(&row) && enum_vars.contains(&col) =>
                {
                    let (row_var, col_var) = (row, col);
                    Some(FlatNode { rel, row_var, col_var, derived: vec![], lookups: vec![] })
                }
                _ => None,
            })
            .collect();
        let rest = |f: &FlatNode, order: &[Var]| -> Vec<Var> {
            order.iter().copied().filter(|&v| v != f.row_var && v != f.col_var).collect()
        };
        let orders = permutations(&enum_vars);
        for (k, order) in orders.iter().enumerate() {
            let first = |f: &&FlatNode| !orders[..k].iter().any(|o| rest(f, o) == rest(f, order));
            for flat in std::iter::once(None).chain(flats.iter().filter(first).map(Some)) {
                let loops = flat.map_or_else(|| order.clone(), |f| rest(f, order));
                let options: Vec<Vec<Driver>> =
                    (0..loops.len()).map(|pos| driver_options(query, meta, flat, &loops, pos)).collect();
                // An odometer over the driver choices, position 0 fastest.
                let mut idx = vec![0usize; loops.len()];
                loop {
                    let nodes = flat.map(|f| PlanNode::Flat(f.clone())).into_iter().chain(
                        loops.iter().zip(&idx).zip(&options).map(|((&var, &i), opts)| {
                            let driver = opts[i];
                            PlanNode::Loop(LoopNode { var, driver, derived: vec![], lookups: vec![] })
                        }),
                    );
                    let plan = self.assemble(query, meta, extents, nodes.collect(), derivs, nonfinite);
                    out.extend(plan);
                    let Some(p) = (0..idx.len()).find(|&p| idx[p] + 1 < options[p].len()) else {
                        break;
                    };
                    idx[p] += 1;
                    idx[..p].fill(0);
                }
            }
        }
    }

    /// Complete one candidate skeleton — an optional flat node, then one
    /// loop per variable with its driver — into a priced plan: attach the
    /// derivations and resolve every other term with a lookup. Returns
    /// `None` when some join cannot be implemented.
    fn assemble(
        &self,
        query: &Query,
        meta: &QueryMeta,
        extents: &HashMap<Var, usize>,
        mut nodes: Vec<PlanNode>,
        derivs: &[Derivation],
        nonfinite: &mut usize,
    ) -> Option<Plan> {
        // node index at which each var becomes bound
        let mut bind_node: HashMap<Var, usize> = HashMap::new();
        for (k, node) in nodes.iter().enumerate() {
            bind_node.extend(node.bound_vars().into_iter().map(|v| (v, k)));
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
        let flat_rel = match nodes.first() {
            Some(PlanNode::Flat(f)) => Some(f.rel),
            _ => None,
        };
        let drives = |d: Driver| nodes.iter().any(|n| matches!(n, PlanNode::Loop(l) if l.driver == d));
        let choose = |node: usize, partner: LevelProps, len: f64| {
            choose_method(&nodes[node], meta, extents, partner, len)
        };

        // A matrix driving its inner level must have a locatable outer
        // cursor: either it drove the outer var, or we must attach a
        // MatOuterAt lookup at the outer var's node.
        let mut extra_lookups: Vec<(usize, Lookup)> = Vec::new();
        for (k, node) in nodes.iter().enumerate() {
            let PlanNode::Loop(LoopNode { driver: Driver::MatInner(rel), .. }) = *node else {
                continue;
            };
            let m = &meta.mats[&rel];
            let Some(Term::Mat { row, col, .. }) = query.term(rel) else { return None };
            let (outer_v, _) = axis_vars(m, *row, *col)?;
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

        // Resolve every term not covered by a driver.
        for t in &query.terms {
            match t {
                Term::Perm { .. } => {} // derivations handle these
                Term::Vec { rel, idx } => {
                    if drives(Driver::Vector(*rel)) {
                        continue;
                    }
                    let node = *bind_node.get(idx)?;
                    let vm = &meta.vecs[rel];
                    extra_lookups.push((
                        node,
                        Lookup {
                            rel: *rel,
                            kind: ProbeKind::VecAt(*idx),
                            method: choose(node, vm.props, vm.nnz as f64)?,
                            in_predicate: query.predicate.contains(rel),
                        },
                    ));
                }
                Term::Mat { rel, row, col } => {
                    if flat_rel == Some(*rel) {
                        continue; // the flat driver
                    }
                    let m = &meta.mats[rel];
                    let in_pred = query.predicate.contains(rel);
                    let drove_outer = drives(Driver::MatOuter(*rel));
                    let drove_inner = drives(Driver::MatInner(*rel));
                    if drove_outer && drove_inner {
                        continue; // fully enumerated
                    }
                    let Some((outer_v, inner_v)) = axis_vars(m, *row, *col) else {
                        // Only random pair probes are possible.
                        let node = (*bind_node.get(row)?).max(*bind_node.get(col)?);
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
                    };
                    let n_outer = *bind_node.get(&outer_v)?;
                    let n_inner = *bind_node.get(&inner_v)?;
                    let lookup = |kind, method| Lookup { rel: *rel, kind, method, in_predicate: in_pred };
                    if drove_outer {
                        // Need only the inner value at the later var.
                        let node = n_outer.max(n_inner);
                        let method = if n_inner > n_outer {
                            choose(node, m.inner, m.avg_inner_len())?
                        } else {
                            // inner var bound before/at the outer node:
                            // probe inner under the driver's cursor.
                            if !m.inner.search.supported() {
                                return None;
                            }
                            JoinMethod::Search
                        };
                        extra_lookups.push((node, lookup(ProbeKind::MatInnerAt(inner_v), method)));
                    } else if drove_inner {
                        // Outer cursor handled above (extra MatOuterAt or
                        // an error); nothing further: the inner driver
                        // produces the value.
                    } else if n_outer < n_inner {
                        // Not a driver at all. Locate the cursor when the
                        // outer var binds, then resolve the value at the
                        // inner var.
                        if !m.outer.search.supported() {
                            return None;
                        }
                        let outer = choose(n_outer, m.outer, m.outer_extent() as f64)?;
                        extra_lookups.push((n_outer, lookup(ProbeKind::MatOuterAt(outer_v), outer)));
                        let inner = choose(n_inner, m.inner, m.avg_inner_len())?;
                        extra_lookups.push((n_inner, lookup(ProbeKind::MatInnerAt(inner_v), inner)));
                    } else {
                        // Inner var binds first: combined probe at the
                        // outer var's node.
                        if !m.outer.search.supported() || !m.inner.search.supported() {
                            return None;
                        }
                        let kind = ProbeKind::MatPairAt { outer_var: outer_v, inner_var: inner_v };
                        extra_lookups.push((n_outer, lookup(kind, JoinMethod::Search)));
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
        let sound = |n: &PlanNode| {
            let rel = match n {
                PlanNode::Flat(f) => Some(f.rel),
                PlanNode::Loop(l) => l.driver.rel(),
            };
            rel.is_some_and(|r| query.predicate.contains(&r))
                || driver_level(n, meta, extents).0.is_dense()
        };
        if !nodes.iter().all(sound) {
            return None;
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

/// Legal drivers for the variable at `pos` of `loops`, after an optional
/// flat node that binds its matrix's two variables (that matrix drives
/// nothing further).
fn driver_options(
    query: &Query,
    meta: &QueryMeta,
    flat: Option<&FlatNode>,
    loops: &[Var],
    pos: usize,
) -> Vec<Driver> {
    let v = loops[pos];
    let bound = |u: Var| {
        loops[..pos].contains(&u) || flat.is_some_and(|f| u == f.row_var || u == f.col_var)
    };
    let mut out = vec![Driver::Range];
    for t in &query.terms {
        match *t {
            Term::Vec { rel, idx } if idx == v => out.push(Driver::Vector(rel)),
            Term::Mat { rel, row, col } if flat.is_none_or(|f| f.rel != rel) => {
                let Some((outer_v, inner_v)) = axis_vars(&meta.mats[&rel], row, col) else {
                    continue;
                };
                if outer_v == v {
                    out.push(Driver::MatOuter(rel));
                }
                if inner_v == v && bound(outer_v) {
                    // The outer cursor can be located: either this
                    // relation drove the outer var (checked at
                    // assembly) or outer search is supported.
                    out.push(Driver::MatInner(rel));
                }
            }
            _ => {}
        }
    }
    out
}

/// The level a node's driver enumerates, as declared, and the candidates
/// it yields per node start — what pricing, the join-method choice, the
/// soundness check and EXPLAIN all read. A range enumerates a dense level.
pub(crate) fn driver_level(
    node: &PlanNode,
    meta: &QueryMeta,
    extents: &HashMap<Var, usize>,
) -> (LevelProps, f64) {
    match node {
        PlanNode::Flat(f) => {
            let m = &meta.mats[&f.rel];
            (m.flat, m.nnz as f64)
        }
        PlanNode::Loop(l) => match l.driver {
            Driver::Range => (LevelProps::dense(), extents[&l.var] as f64),
            Driver::Vector(r) => {
                let vm = &meta.vecs[&r];
                (vm.props, vm.nnz as f64)
            }
            Driver::MatOuter(r) => {
                let m = &meta.mats[&r];
                let extent = m.outer_extent() as f64;
                (m.outer, if m.outer.is_dense() { extent } else { (m.nnz as f64).min(extent) })
            }
            Driver::MatInner(r) => {
                let m = &meta.mats[&r];
                (m.inner, m.avg_inner_len())
            }
        },
    }
}

/// Pick merge vs. search for a lookup at `node` against a `partner`
/// level of `partner_len` entries; `None` if neither is legal.
///
/// A merge needs the node to bind its variable in ascending order, which
/// a flat node (binding two at once) never does. The trade-off is
/// contextual: a merge join traverses the whole partner once per node
/// start (`partner_len` steps), while searching probes once per driver
/// candidate (`driver_card × probe_cost`). Both legal ⇒ pick the cheaper.
fn choose_method(
    node: &PlanNode,
    meta: &QueryMeta,
    extents: &HashMap<Var, usize>,
    partner: LevelProps,
    partner_len: f64,
) -> Option<JoinMethod> {
    let (level, driver_card) = driver_level(node, meta, extents);
    let merge_ok = matches!(node, PlanNode::Loop(_))
        && level.sortedness.is_sorted()
        && partner.sortedness.is_sorted();
    let search_ok = partner.search.supported();
    match (merge_ok, search_ok) {
        (false, false) => None,
        (true, false) => Some(JoinMethod::Merge),
        (false, true) => Some(JoinMethod::Search),
        (true, true) => {
            if partner.search == SearchCost::Constant {
                // Dense direct indexing beats co-traversal outright.
                Some(JoinMethod::Search)
            } else if partner_len < driver_card * partner.search.probe_cost(partner_len) {
                Some(JoinMethod::Merge)
            } else {
                Some(JoinMethod::Search)
            }
        }
    }
}

/// A hierarchical matrix's (outer, inner) variables, given its term's
/// (row, col); `None` for a flat matrix.
fn axis_vars(m: &MatMeta, row: Var, col: Var) -> Option<(Var, Var)> {
    match m.orientation {
        Orientation::RowMajor => Some((row, col)),
        Orientation::ColMajor => Some((col, row)),
        Orientation::Flat => None,
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
        let lookups = node.lookups();
        let raw = starts * driver_level(node, meta, extents).1;
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
    fn plan_all_is_sorted_and_lists_each_shape_once() {
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
