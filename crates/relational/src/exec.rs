//! Plan execution: the general interpreter for physical plans.
//!
//! [`execute`] walks a [`Plan`] against a set of [`Bindings`] — actual
//! access methods for each relation plus a mutable target — evaluating
//! the query's per-tuple statement for every tuple that survives the
//! sparsity predicate. The interpreter is completely format-agnostic:
//! it only speaks the [`MatrixAccess`]/[`VectorAccess`] vocabulary.
//!
//! Downstream crates layer *specialised kernels* on top (selected by
//! [`Plan::shape`]) for the hot shapes; the interpreter is the
//! always-correct general path and the baseline of the
//! dispatch-hoisting ablation.

use crate::access::{InnerIter, MatrixAccess, OuterCursor, OuterIter, VectorAccess};
use crate::error::{RelError, RelResult};
use crate::ids::{RelId, Var};
use crate::permutation::Permutation;
use crate::plan::{Driver, JoinMethod, Lookup, Plan, PlanNode, ProbeKind};
use crate::query::{Query, Term};
use crate::scalar::{Target, UpdateOp};
use std::collections::HashMap;

/// Maximum loop variables per query (the paper's kernels need ≤ 3).
const MAX_VARS: usize = 4;
/// Maximum relations per query.
const MAX_RELS: usize = 8;

/// A mutable dense matrix target (row-major).
pub struct DenseMatMut<'a> {
    pub data: &'a mut [f64],
    pub nrows: usize,
    pub ncols: usize,
}

/// Relation bindings for one execution.
#[derive(Default)]
pub struct Bindings<'a> {
    mats: HashMap<RelId, &'a dyn MatrixAccess>,
    vecs: HashMap<RelId, &'a dyn VectorAccess>,
    perms: HashMap<RelId, &'a Permutation>,
    vec_muts: HashMap<RelId, &'a mut [f64]>,
    mat_muts: HashMap<RelId, DenseMatMut<'a>>,
    scalar_muts: HashMap<RelId, &'a mut f64>,
}

impl<'a> Bindings<'a> {
    pub fn new() -> Self {
        Bindings::default()
    }

    pub fn bind_mat(&mut self, rel: RelId, m: &'a dyn MatrixAccess) -> &mut Self {
        self.mats.insert(rel, m);
        self
    }

    pub fn bind_vec(&mut self, rel: RelId, v: &'a dyn VectorAccess) -> &mut Self {
        self.vecs.insert(rel, v);
        self
    }

    pub fn bind_perm(&mut self, rel: RelId, p: &'a Permutation) -> &mut Self {
        self.perms.insert(rel, p);
        self
    }

    pub fn bind_vec_mut(&mut self, rel: RelId, v: &'a mut [f64]) -> &mut Self {
        self.vec_muts.insert(rel, v);
        self
    }

    pub fn bind_mat_mut(
        &mut self,
        rel: RelId,
        data: &'a mut [f64],
        nrows: usize,
        ncols: usize,
    ) -> &mut Self {
        assert_eq!(data.len(), nrows * ncols, "dense target buffer size mismatch");
        self.mat_muts.insert(rel, DenseMatMut { data, nrows, ncols });
        self
    }

    pub fn bind_scalar_mut(&mut self, rel: RelId, s: &'a mut f64) -> &mut Self {
        self.scalar_muts.insert(rel, s);
        self
    }
}

/// Counters of the work one execution actually performed — the
/// empirical counterpart of the planner's cost estimate. A test can
/// assert that the cost model's *ordering* of candidate plans matches
/// the ordering of real work (see the planner-validation tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Candidates produced by drivers (loop-body entries before joins).
    pub driver_steps: u64,
    /// Search probes executed.
    pub probes: u64,
    /// Merge-stream advancement checks.
    pub merge_advances: u64,
    /// Statements fired (surviving tuples).
    pub tuples: u64,
}

impl ExecStats {
    /// A single scalar summarising total work, comparable across plans
    /// for the same query and bindings.
    pub fn total_work(&self) -> u64 {
        self.driver_steps + self.probes + self.merge_advances + self.tuples
    }
}

#[derive(Default)]
struct StatsCells {
    driver_steps: std::cell::Cell<u64>,
    probes: std::cell::Cell<u64>,
    merge_advances: std::cell::Cell<u64>,
    tuples: std::cell::Cell<u64>,
}

impl StatsCells {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            driver_steps: self.driver_steps.get(),
            probes: self.probes.get(),
            merge_advances: self.merge_advances.get(),
            tuples: self.tuples.get(),
        }
    }
}

/// Execute a plan: evaluate the query's statement for every surviving
/// tuple. The target relation named by `query.stmt.target` must be
/// bound mutably; every term relation must be bound.
pub fn execute(plan: &Plan, query: &Query, binds: &mut Bindings<'_>) -> RelResult<()> {
    execute_with_stats(plan, query, binds).map(|_| ())
}

/// As [`execute`], additionally returning work counters.
pub fn execute_with_stats(
    plan: &Plan,
    query: &Query,
    binds: &mut Bindings<'_>,
) -> RelResult<ExecStats> {
    query.validate()?;
    // --- variable slot assignment -------------------------------------
    let mut var_slot: HashMap<Var, usize> = HashMap::new();
    for v in &query.vars {
        let n = var_slot.len();
        var_slot.insert(*v, n);
    }
    if var_slot.len() > MAX_VARS {
        return Err(RelError::MalformedQuery("too many loop variables".into()));
    }
    for v in plan.bound_vars() {
        if !var_slot.contains_key(&v) {
            return Err(RelError::UnboundVar(v));
        }
    }
    // --- relation slot assignment --------------------------------------
    let mut rel_slot: HashMap<RelId, usize> = HashMap::new();
    for t in &query.terms {
        let n = rel_slot.len();
        rel_slot.entry(t.rel()).or_insert(n);
    }
    if rel_slot.len() > MAX_RELS {
        return Err(RelError::MalformedQuery("too many relations".into()));
    }

    // --- binding presence + shape validation ---------------------------
    let mut extents: HashMap<Var, usize> = HashMap::new();
    let mut constrain = |v: Var, n: usize, rel: RelId| -> RelResult<()> {
        match extents.get(&v) {
            None => {
                extents.insert(v, n);
                Ok(())
            }
            Some(&e) if e == n => Ok(()),
            Some(&e) => Err(RelError::ShapeMismatch {
                rel,
                detail: format!("variable {v} has extent {e} elsewhere but {n} here"),
            }),
        }
    };
    for t in &query.terms {
        match t {
            Term::Mat { rel, row, col } => {
                let m = binds.mats.get(rel).ok_or(RelError::MissingBinding(*rel))?;
                let meta = m.meta();
                constrain(*row, meta.nrows, *rel)?;
                constrain(*col, meta.ncols, *rel)?;
            }
            Term::Vec { rel, idx } => {
                let v = binds.vecs.get(rel).ok_or(RelError::MissingBinding(*rel))?;
                constrain(*idx, v.meta().len, *rel)?;
            }
            Term::Perm { rel, from, to } => {
                let p = binds.perms.get(rel).ok_or(RelError::MissingBinding(*rel))?;
                constrain(*from, p.len(), *rel)?;
                constrain(*to, p.len(), *rel)?;
            }
        }
    }
    for v in &query.vars {
        if !extents.contains_key(v) {
            return Err(RelError::UnboundVar(*v));
        }
    }

    // --- take the target out of the bindings ---------------------------

    let mut target = match query.stmt.target {
        Target::VecElem { rel, var } => {
            let buf = binds.vec_muts.remove(&rel).ok_or(RelError::NotWritable(rel))?;
            let want = extents[&var];
            if buf.len() != want {
                let got = buf.len();
                binds.vec_muts.insert(rel, buf);
                return Err(RelError::ShapeMismatch {
                    rel,
                    detail: format!("target length {got}, loop extent {want}"),
                });
            }
            TargetMut::Vec(buf)
        }
        Target::MatElem { rel, row, col } => {
            let m = binds.mat_muts.remove(&rel).ok_or(RelError::NotWritable(rel))?;
            if m.nrows != extents[&row] || m.ncols != extents[&col] {
                let detail = format!(
                    "target {}x{}, loop extents {}x{}",
                    m.nrows, m.ncols, extents[&row], extents[&col]
                );
                binds.mat_muts.insert(rel, m);
                return Err(RelError::ShapeMismatch { rel, detail });
            }
            TargetMut::Mat(m)
        }
        Target::Scalar { rel } => {
            let s = binds.scalar_muts.remove(&rel).ok_or(RelError::NotWritable(rel))?;
            TargetMut::Scalar(s)
        }
    };

    let stats = StatsCells::default();
    let ctx = ExecCtx {
        plan,
        query,
        binds,
        var_slot: &var_slot,
        rel_slot: &rel_slot,
        extents: &extents,
        stats: &stats,
    };
    let mut env = Env::new();
    let result = ctx.run(0, &mut env, &mut target);

    // Put the target back so Bindings can be reused.
    match (target, query.stmt.target) {
        (TargetMut::Vec(buf), Target::VecElem { rel, .. }) => {
            binds.vec_muts.insert(rel, buf);
        }
        (TargetMut::Mat(m), Target::MatElem { rel, .. }) => {
            binds.mat_muts.insert(rel, m);
        }
        (TargetMut::Scalar(s), Target::Scalar { rel }) => {
            binds.scalar_muts.insert(rel, s);
        }
        _ => unreachable!("target kind cannot change during execution"),
    }
    result.map(|()| stats.snapshot())
}

enum TargetMut<'a> {
    Vec(&'a mut [f64]),
    Mat(DenseMatMut<'a>),
    Scalar(&'a mut f64),
}

/// Per-tuple environment: bound variable values, per-relation value
/// fields and located outer cursors.
struct Env {
    vars: [usize; MAX_VARS],
    vals: [f64; MAX_RELS],
    cursors: [Option<OuterCursor>; MAX_RELS],
}

impl Env {
    fn new() -> Self {
        Env { vars: [0; MAX_VARS], vals: [0.0; MAX_RELS], cursors: [None; MAX_RELS] }
    }
}

struct ExecCtx<'a, 'b> {
    plan: &'a Plan,
    query: &'a Query,
    binds: &'a Bindings<'b>,
    var_slot: &'a HashMap<Var, usize>,
    rel_slot: &'a HashMap<RelId, usize>,
    extents: &'a HashMap<Var, usize>,
    stats: &'a StatsCells,
}

/// A merge-join partner stream with one-item lookahead.
struct MergeState<'a> {
    lookup: Lookup,
    iter: PartnerIter<'a>,
    current: Option<(usize, PartnerVal)>,
}

enum PartnerIter<'a> {
    Pairs(InnerIter<'a>),
    Outer(OuterIter<'a>),
}

#[derive(Clone, Copy)]
enum PartnerVal {
    Val(f64),
    Cur(OuterCursor),
}

impl<'a> MergeState<'a> {
    fn pull(&mut self) {
        self.current = match &mut self.iter {
            PartnerIter::Pairs(it) => it.next().map(|(i, v)| (i, PartnerVal::Val(v))),
            PartnerIter::Outer(it) => it.next().map(|c| (c.index, PartnerVal::Cur(c))),
        };
    }

    /// Advance until the stream's key is ≥ `key`; return the payload on
    /// an exact match. Returns the number of pulls in `advances`.
    fn advance_to(&mut self, key: usize, advances: &mut u64) -> Option<PartnerVal> {
        while let Some((k, v)) = self.current {
            *advances += 1;
            if k < key {
                self.pull();
            } else if k == key {
                return Some(v);
            } else {
                return None;
            }
        }
        None
    }
}

impl<'a, 'b> ExecCtx<'a, 'b> {
    fn vslot(&self, v: Var) -> usize {
        self.var_slot[&v]
    }

    fn rslot(&self, r: RelId) -> usize {
        self.rel_slot[&r]
    }

    fn run(&self, depth: usize, env: &mut Env, target: &mut TargetMut<'_>) -> RelResult<()> {
        if depth == self.plan.nodes.len() {
            self.fire(env, target);
            return Ok(());
        }
        match &self.plan.nodes[depth] {
            PlanNode::Flat(f) => {
                let mat = self.binds.mats[&f.rel];
                let rs = self.rslot(f.rel);
                let rvs = self.vslot(f.row_var);
                let cvs = self.vslot(f.col_var);
                for (i, j, v) in mat.enum_flat() {
                    self.stats.driver_steps.set(self.stats.driver_steps.get() + 1);
                    env.vars[rvs] = i;
                    env.vars[cvs] = j;
                    env.vals[rs] = v;
                    if !self.derive(&f.derived, env)? {
                        continue;
                    }
                    if !self.searches(&f.lookups, env)? {
                        continue;
                    }
                    self.run(depth + 1, env, target)?;
                }
                Ok(())
            }
            PlanNode::Loop(l) => {
                let vs = self.vslot(l.var);
                // Merge partners are (re)opened each time the node starts.
                let mut merges: Vec<MergeState<'_>> = Vec::new();
                for lk in &l.lookups {
                    if lk.method != JoinMethod::Merge {
                        continue;
                    }
                    let iter = self.open_partner(lk, env)?;
                    let mut st = MergeState { lookup: *lk, iter, current: None };
                    st.pull();
                    merges.push(st);
                }
                let searches: Vec<Lookup> = l
                    .lookups
                    .iter()
                    .copied()
                    .filter(|lk| lk.method == JoinMethod::Search)
                    .collect();

                macro_rules! body {
                    ($idx:expr) => {{
                        self.stats.driver_steps.set(self.stats.driver_steps.get() + 1);
                        env.vars[vs] = $idx;
                        let mut keep = self.derive(&l.derived, env)?;
                        if keep {
                            for m in merges.iter_mut() {
                                let mut adv = 0u64;
                                let hit = m.advance_to($idx, &mut adv);
                                self.stats
                                    .merge_advances
                                    .set(self.stats.merge_advances.get() + adv);
                                match hit {
                                    Some(pv) => self.apply_partner(&m.lookup, pv, env),
                                    None => {
                                        if m.lookup.in_predicate {
                                            keep = false;
                                            break;
                                        } else {
                                            self.apply_miss(&m.lookup, env);
                                        }
                                    }
                                }
                            }
                        }
                        if keep {
                            keep = self.searches(&searches, env)?;
                        }
                        if keep {
                            self.run(depth + 1, env, target)?;
                        }
                    }};
                }

                match l.driver {
                    Driver::Range => {
                        let extent = self.extents[&l.var];
                        for i in 0..extent {
                            body!(i);
                        }
                    }
                    Driver::Vector(r) => {
                        let rs = self.rslot(r);
                        let vecb = self.binds.vecs[&r];
                        for (i, v) in vecb.enumerate() {
                            env.vals[rs] = v;
                            body!(i);
                        }
                    }
                    Driver::MatOuter(r) => {
                        let rs = self.rslot(r);
                        let mat = self.binds.mats[&r];
                        for c in mat.enum_outer() {
                            env.cursors[rs] = Some(c);
                            body!(c.index);
                        }
                    }
                    Driver::MatInner(r) => {
                        let rs = self.rslot(r);
                        let mat = self.binds.mats[&r];
                        if let Some(c) = env.cursors[rs] {
                            for (i, v) in mat.enum_inner(&c) {
                                env.vals[rs] = v;
                                body!(i);
                            }
                        }
                        // Absent cursor: the relation has no entries at
                        // the bound outer index — zero iterations.
                    }
                }
                Ok(())
            }
        }
    }

    /// Bind permutation-derived variables. Returns false if a derived
    /// value falls outside its extent (skip the tuple).
    fn derive(&self, derived: &[crate::plan::Derivation], env: &mut Env) -> RelResult<bool> {
        for d in derived {
            let p = self.binds.perms.get(&d.perm).ok_or(RelError::MissingBinding(d.perm))?;
            let from = env.vars[self.vslot(d.from)];
            if from >= p.len() {
                return Ok(false);
            }
            let to = if d.forward { p.forward(from) } else { p.backward(from) };
            env.vars[self.vslot(d.to)] = to;
        }
        Ok(true)
    }

    /// Open a merge partner stream for a lookup.
    fn open_partner(&self, lk: &Lookup, env: &Env) -> RelResult<PartnerIter<'a>> {
        match lk.kind {
            ProbeKind::VecAt(_) => {
                let v = self.binds.vecs.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                Ok(PartnerIter::Pairs(v.enumerate()))
            }
            ProbeKind::MatInnerAt(_) => {
                let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                match env.cursors[self.rslot(lk.rel)] {
                    Some(c) => Ok(PartnerIter::Pairs(m.enum_inner(&c))),
                    None => Ok(PartnerIter::Pairs(InnerIter::Empty)),
                }
            }
            ProbeKind::MatOuterAt(_) => {
                let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                Ok(PartnerIter::Outer(m.enum_outer()))
            }
            ProbeKind::MatPairAt { .. } | ProbeKind::MatFlatPairAt { .. } => {
                Err(RelError::UnsupportedAccess {
                    rel: lk.rel,
                    detail: "pair probes cannot be merge joins".into(),
                })
            }
        }
    }

    fn apply_partner(&self, lk: &Lookup, pv: PartnerVal, env: &mut Env) {
        let rs = self.rslot(lk.rel);
        match pv {
            PartnerVal::Val(v) => env.vals[rs] = v,
            PartnerVal::Cur(c) => env.cursors[rs] = Some(c),
        }
    }

    fn apply_miss(&self, lk: &Lookup, env: &mut Env) {
        let rs = self.rslot(lk.rel);
        match lk.kind {
            ProbeKind::MatOuterAt(_) => env.cursors[rs] = None,
            _ => env.vals[rs] = 0.0,
        }
    }

    /// Run search lookups; false means the sparsity predicate failed.
    fn searches(&self, lks: &[Lookup], env: &mut Env) -> RelResult<bool> {
        for lk in lks {
            self.stats.probes.set(self.stats.probes.get() + 1);
            let rs = self.rslot(lk.rel);
            let hit = match lk.kind {
                ProbeKind::VecAt(v) => {
                    let vecb = self.binds.vecs.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                    match vecb.search(env.vars[self.vslot(v)]) {
                        Some(x) => {
                            env.vals[rs] = x;
                            true
                        }
                        None => false,
                    }
                }
                ProbeKind::MatOuterAt(v) => {
                    let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                    match m.search_outer(env.vars[self.vslot(v)]) {
                        Some(c) => {
                            env.cursors[rs] = Some(c);
                            true
                        }
                        None => {
                            env.cursors[rs] = None;
                            false
                        }
                    }
                }
                ProbeKind::MatInnerAt(v) => {
                    let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                    match env.cursors[rs] {
                        Some(c) => match m.search_inner(&c, env.vars[self.vslot(v)]) {
                            Some(x) => {
                                env.vals[rs] = x;
                                true
                            }
                            None => false,
                        },
                        None => false,
                    }
                }
                ProbeKind::MatPairAt { outer_var, inner_var } => {
                    let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                    match m.search_outer(env.vars[self.vslot(outer_var)]) {
                        Some(c) => match m.search_inner(&c, env.vars[self.vslot(inner_var)]) {
                            Some(x) => {
                                env.vals[rs] = x;
                                true
                            }
                            None => false,
                        },
                        None => false,
                    }
                }
                ProbeKind::MatFlatPairAt { row_var, col_var } => {
                    let m = self.binds.mats.get(&lk.rel).ok_or(RelError::MissingBinding(lk.rel))?;
                    match m.search_pair(env.vars[self.vslot(row_var)], env.vars[self.vslot(col_var)]) {
                        Some(x) => {
                            env.vals[rs] = x;
                            true
                        }
                        None => false,
                    }
                }
            };
            if !hit {
                if lk.in_predicate {
                    return Ok(false);
                }
                self.apply_miss(lk, env);
            }
        }
        Ok(true)
    }

    /// Evaluate the statement for the current tuple.
    fn fire(&self, env: &Env, target: &mut TargetMut<'_>) {
        self.stats.tuples.set(self.stats.tuples.get() + 1);
        let rel_slot = self.rel_slot;
        let vals = &env.vals;
        let rhs = self.query.stmt.rhs.eval(&|r: RelId| {
            rel_slot.get(&r).map_or(0.0, |&s| vals[s])
        });
        let cell: &mut f64 = match (&mut *target, self.query.stmt.target) {
            (TargetMut::Vec(buf), Target::VecElem { var, .. }) => {
                &mut buf[env.vars[self.vslot(var)]]
            }
            (TargetMut::Mat(m), Target::MatElem { row, col, .. }) => {
                let r = env.vars[self.vslot(row)];
                let c = env.vars[self.vslot(col)];
                &mut m.data[r * m.ncols + c]
            }
            (TargetMut::Scalar(s), Target::Scalar { .. }) => s,
            _ => unreachable!("target kind mismatch"),
        };
        match self.query.stmt.op {
            UpdateOp::Assign => *cell = rhs,
            UpdateOp::AddAssign => *cell += rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MAT_A, MAT_B, MAT_C, PERM_P, VEC_X, VEC_Y};
    use crate::planner::{Planner, QueryMeta};
    use crate::ast::programs;
    use crate::lower::extract_query;
    use crate::testmat::DokMatrix;

    fn plan_for(q: &Query, meta: &QueryMeta) -> Plan {
        Planner::new().plan(q, meta).unwrap()
    }

    #[test]
    fn matvec_row_major() {
        let a = DokMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)],
        );
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(3));
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan, &q, &mut b).unwrap();
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn transposed_matvec() {
        let a = DokMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0)]);
        let x = vec![10.0, 20.0];
        let mut y = vec![0.0; 3];
        let q = extract_query(&programs::matvec_transposed()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(2));
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        execute(&plan, &q, &mut b).unwrap();
        // y = Aᵀ x: y[0] = 3*20, y[1] = 2*10, y[2] = 4*20
        assert_eq!(y, vec![60.0, 20.0, 80.0]);
    }

    #[test]
    fn spmm_dense_result() {
        let a = DokMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let bm = DokMatrix::from_triplets(3, 2, &[(0, 1, 4.0), (1, 0, 5.0), (2, 1, 6.0)]);
        let mut c = vec![0.0; 4];
        let q = extract_query(&programs::matmat()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, bm.meta());
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_mat_mut(MAT_C, &mut c, 2, 2);
        execute(&plan, &q, &mut b).unwrap();
        // A*B = [[0, 16],[15, 0]]
        assert_eq!(c, vec![0.0, 4.0 + 12.0, 15.0, 0.0]);
    }

    #[test]
    fn mat_dot_scalar_target() {
        let a = DokMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
        let bm = DokMatrix::from_triplets(2, 2, &[(0, 0, 5.0), (0, 1, 7.0), (1, 1, 11.0)]);
        let mut s = 0.0;
        let q = extract_query(&programs::mat_dot()).unwrap();
        let meta = QueryMeta::new().mat(MAT_A, a.meta()).mat(MAT_B, bm.meta());
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_scalar_mut(MAT_C, &mut s);
        execute(&plan, &q, &mut b).unwrap();
        assert_eq!(s, 2.0 * 5.0 + 3.0 * 11.0);
    }

    #[test]
    fn permuted_matvec_via_perm_relation() {
        // Stored matrix As has rows permuted: stored row p.forward(i)
        // holds global row i. Query: y(i) += As(i', j) x(j), P(i,i').
        let p = Permutation::from_forward(vec![2, 0, 1]).unwrap();
        // Global matrix: row0: [1 0 0]; row1: [0 2 0]; row2: [0 0 3]
        // Stored row for global i lives at p.forward(i).
        let a_stored = DokMatrix::from_triplets(
            3,
            3,
            &[(2, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0)],
        );
        let x = vec![1.0, 10.0, 100.0];
        let mut y = vec![0.0; 3];
        let q = extract_query(&programs::matvec_row_permuted()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a_stored.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(3))
            .perm(PERM_P, 3);
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a_stored)
            .bind_vec(VEC_X, &x)
            .bind_perm(PERM_P, &p)
            .bind_vec_mut(VEC_Y, &mut y);
        execute(&plan, &q, &mut b).unwrap();
        assert_eq!(y, vec![1.0, 20.0, 300.0]);
    }

    #[test]
    fn mat_pair_probe_when_inner_var_binds_first() {
        // Frobenius dot with B column-major: B's outer axis (j) binds
        // after its inner axis (i), forcing a combined MatPairAt probe.
        use crate::access::{MatMeta, Orientation};
        use crate::props::LevelProps;

        /// Column-major wrapper over DokMatrix (transposes the roles).
        struct ColMajor(DokMatrix);
        impl crate::access::MatrixAccess for ColMajor {
            fn meta(&self) -> MatMeta {
                MatMeta {
                    nrows: self.0.ncols(),
                    ncols: self.0.nrows(),
                    nnz: self.0.nnz(),
                    orientation: Orientation::ColMajor,
                    outer: LevelProps::dense(),
                    inner: LevelProps::sparse_sorted(),
                    flat: LevelProps::sparse_unsorted(),
                    pair_search_cheap: true,
                }
            }
            fn enum_outer(&self) -> crate::access::OuterIter<'_> {
                self.0.enum_outer()
            }
            fn search_outer(&self, index: usize) -> Option<OuterCursor> {
                self.0.search_outer(index)
            }
            fn enum_inner(&self, outer: &OuterCursor) -> InnerIter<'_> {
                self.0.enum_inner(outer)
            }
            fn search_inner(&self, outer: &OuterCursor, index: usize) -> Option<f64> {
                self.0.search_inner(outer, index)
            }
            fn enum_flat(&self) -> crate::access::FlatIter<'_> {
                Box::new(self.0.enum_flat().map(|(i, j, v)| (j, i, v)))
            }
        }

        let a = DokMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 2, 3.0), (2, 1, 4.0)]);
        // B stored column-major: underlying Dok holds Bᵀ, so
        // B = {(0,0,5), (1,2,7), (2,1,11)} — all three overlap A.
        let b_t = DokMatrix::from_triplets(3, 3, &[(0, 0, 5.0), (2, 1, 7.0), (1, 2, 11.0)]);
        let bm = ColMajor(b_t);
        let want = 2.0 * 5.0 + 3.0 * 7.0 + 4.0 * 11.0;
        let q = extract_query(&programs::mat_dot()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .mat(MAT_B, crate::access::MatrixAccess::meta(&bm));
        // Planner-chosen plan computes the right value...
        let plan = plan_for(&q, &meta);
        let mut s = 0.0;
        let mut binds = Bindings::new();
        binds.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_scalar_mut(MAT_C, &mut s);
        execute(&plan, &q, &mut binds).unwrap();
        drop(binds);
        assert_eq!(s, want, "plan {}", plan.shape());
        // ...and so does a hand-built plan that forces the combined
        // MatPairAt probe (B's outer axis j binds after its inner i).
        use crate::plan::{Driver, LoopNode, PlanNode};
        let forced = Plan {
            nodes: vec![
                PlanNode::Loop(LoopNode {
                    var: crate::ids::VAR_I,
                    driver: Driver::MatOuter(MAT_A),
                    derived: vec![],
                    lookups: vec![],
                }),
                PlanNode::Loop(LoopNode {
                    var: crate::ids::VAR_J,
                    driver: Driver::MatInner(MAT_A),
                    derived: vec![],
                    lookups: vec![Lookup {
                        rel: MAT_B,
                        kind: ProbeKind::MatPairAt {
                            outer_var: crate::ids::VAR_J,
                            inner_var: crate::ids::VAR_I,
                        },
                        method: JoinMethod::Search,
                        in_predicate: true,
                    }],
                }),
            ],
            est_cost: 0.0,
        };
        let mut s2 = 0.0;
        let mut binds = Bindings::new();
        binds.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_scalar_mut(MAT_C, &mut s2);
        execute(&forced, &q, &mut binds).unwrap();
        drop(binds);
        assert_eq!(s2, want);
    }

    #[test]
    fn forced_outer_level_merge_join() {
        // Hand-built plan: enumerate rows of A as a Range, merge B's
        // outer level alongside (PartnerIter::Outer path), then B's
        // inner enumeration drives j.
        use crate::plan::{Driver, LoopNode, Lookup, PlanNode};
        let a = DokMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 2, 5.0), (3, 0, 2.0)]);
        let bm = DokMatrix::from_triplets(
            4,
            4,
            &[(0, 1, 10.0), (2, 2, 20.0), (3, 1, 30.0)],
        );
        let q = extract_query(&programs::mat_dot()).unwrap();
        let plan = Plan {
            nodes: vec![
                PlanNode::Loop(LoopNode {
                    var: crate::ids::VAR_I,
                    driver: Driver::MatOuter(MAT_A),
                    derived: vec![],
                    lookups: vec![Lookup {
                        rel: MAT_B,
                        kind: ProbeKind::MatOuterAt(crate::ids::VAR_I),
                        method: JoinMethod::Merge,
                        in_predicate: true,
                    }],
                }),
                PlanNode::Loop(LoopNode {
                    var: crate::ids::VAR_J,
                    driver: Driver::MatInner(MAT_A),
                    derived: vec![],
                    lookups: vec![Lookup {
                        rel: MAT_B,
                        kind: ProbeKind::MatInnerAt(crate::ids::VAR_J),
                        method: JoinMethod::Search,
                        in_predicate: true,
                    }],
                }),
            ],
            est_cost: 0.0,
        };
        let mut s = 0.0;
        let mut binds = Bindings::new();
        binds.bind_mat(MAT_A, &a).bind_mat(MAT_B, &bm).bind_scalar_mut(MAT_C, &mut s);
        execute(&plan, &q, &mut binds).unwrap();
        drop(binds);
        assert_eq!(s, 1.0 * 10.0 + 5.0 * 20.0);
    }

    #[test]
    fn missing_binding_is_reported() {
        let a = DokMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(2));
        let plan = plan_for(&q, &meta);
        let mut y = vec![0.0; 2];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec_mut(VEC_Y, &mut y);
        assert_eq!(execute(&plan, &q, &mut b), Err(RelError::MissingBinding(VEC_X)));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = DokMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let x = vec![0.0; 3]; // wrong length
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(2));
        let plan = plan_for(&q, &meta);
        let mut y = vec![0.0; 2];
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        assert!(matches!(
            execute(&plan, &q, &mut b),
            Err(RelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn target_not_writable_reported_and_bindings_reusable() {
        let a = DokMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let x = vec![1.0, 1.0];
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, a.meta())
            .vec(VEC_X, crate::access::VecMeta::dense(2));
        let plan = plan_for(&q, &meta);
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x);
        assert_eq!(execute(&plan, &q, &mut b), Err(RelError::NotWritable(VEC_Y)));
        // Now bind the target and reuse the same Bindings twice.
        let mut y = vec![0.0; 2];
        b.bind_vec_mut(VEC_Y, &mut y);
        execute(&plan, &q, &mut b).unwrap();
        execute(&plan, &q, &mut b).unwrap();
        drop(b);
        assert_eq!(y, vec![2.0, 0.0]); // two accumulations
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::ids::{MAT_A, VAR_I, VAR_J, VEC_X, VEC_Y};
    use crate::planner::{Planner, QueryMeta};
    use crate::ast::programs;
    use crate::lower::extract_query;
    use crate::testmat::DokMatrix;

    fn grid_matrix(n: usize) -> DokMatrix {
        // n×n tridiagonal-ish: ~3 entries per row.
        let mut tr = Vec::new();
        for i in 0..n {
            tr.push((i, i, 2.0));
            if i + 1 < n {
                tr.push((i, i + 1, -1.0));
                tr.push((i + 1, i, -1.0));
            }
        }
        DokMatrix::from_triplets(n, n, &tr)
    }

    #[test]
    fn stats_count_the_obvious_quantities() {
        let n = 50;
        let a = grid_matrix(n);
        let nnz = a.nnz() as u64;
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, crate::access::MatrixAccess::meta(&a))
            .vec(VEC_X, crate::access::VecMeta::dense(n));
        let plan = Planner::new().plan(&q, &meta).unwrap();
        let mut b = Bindings::new();
        b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
        let st = execute_with_stats(&plan, &q, &mut b).unwrap();
        // Every stored entry yields exactly one tuple (x dense).
        assert_eq!(st.tuples, nnz);
        // One probe of X per candidate entry.
        assert_eq!(st.probes, nnz);
        assert!(st.driver_steps >= nnz);
    }

    #[test]
    fn cost_model_ordering_matches_measured_work() {
        // The planner's candidate ordering should correlate with the
        // interpreter's actual work counters: in particular the chosen
        // plan must be within the best measured plans, and the cost
        // model's best must beat its worst by a real margin.
        let n = 120;
        let a = grid_matrix(n);
        let x = vec![1.0; n];
        let q = extract_query(&programs::matvec()).unwrap();
        let meta = QueryMeta::new()
            .mat(MAT_A, crate::access::MatrixAccess::meta(&a))
            .vec(VEC_X, crate::access::VecMeta::dense(n));
        let candidates = Planner::new().plan_all(&q, &meta).unwrap();
        assert!(candidates.len() >= 3);
        let work: Vec<u64> = candidates
            .iter()
            .map(|p| {
                let mut y = vec![0.0; n];
                let mut b = Bindings::new();
                b.bind_mat(MAT_A, &a).bind_vec(VEC_X, &x).bind_vec_mut(VEC_Y, &mut y);
                execute_with_stats(p, &q, &mut b).unwrap().total_work()
            })
            .collect();
        let chosen = work[0];
        let best = *work.iter().min().unwrap();
        let worst = *work.iter().max().unwrap();
        assert!(
            chosen <= best * 2,
            "chosen plan does {chosen} work, the true best does {best}: {work:?}"
        );
        assert!(worst > best, "candidates should differ in measured work");
        let _ = (VAR_I, VAR_J);
    }
}
