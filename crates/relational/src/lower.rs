//! Query extraction: dense loop nest → relational query (§2).
//!
//! Reads of each array become join terms over the loop variables; the
//! body becomes the per-tuple statement; and the sparsity predicate is
//! inferred with the Bik–Wijshoff rule already encoded in
//! [`Query::infer_predicate`]: a sparse array enters `P` exactly when a
//! zero of it annihilates the (reduction) update.

use crate::ast::{AccessRef, ExprAst, LoopNest};
use crate::error::{RelError, RelResult};
use crate::ids::RelId;
use crate::query::{Query, Term};
use crate::scalar::{Expr, Stmt, Target};

/// Lower a loop nest to a validated relational query.
pub fn extract_query(nest: &LoopNest) -> RelResult<Query> {
    // Build join terms from the distinct read references.
    let mut terms: Vec<Term> = Vec::new();
    let mut seen: Vec<RelId> = Vec::new();
    for acc in nest.rhs.accesses() {
        if seen.contains(&acc.array) {
            // The engine joins each relation once; repeated identical
            // references are fine (same term), differing ones are not.
            let existing = terms.iter().find(|t| t.rel() == acc.array).expect("seen term");
            let matches = match (existing, acc.indices.len()) {
                (Term::Vec { idx, .. }, 1) => *idx == acc.indices[0],
                (Term::Mat { row, col, .. }, 2) => {
                    *row == acc.indices[0] && *col == acc.indices[1]
                }
                _ => false,
            };
            if !matches {
                return Err(RelError::MalformedQuery(format!(
                    "array {} referenced with two different subscript lists",
                    acc.array
                )));
            }
            continue;
        }
        seen.push(acc.array);
        terms.push(term_for(nest, acc)?);
    }
    for p in &nest.perms {
        terms.push(Term::Perm { rel: p.id, from: p.from, to: p.to });
    }

    let target = target_for(nest, &nest.target)?;
    let stmt = Stmt::new(target, nest.op, lower_expr(&nest.rhs));
    let mut query = Query { vars: nest.vars.clone(), terms, predicate: Vec::new(), stmt };
    let sparse = |r: RelId| nest.array(r).is_some_and(|a| a.sparse);
    query.infer_predicate(&sparse);
    query.validate()?;
    Ok(query)
}

fn term_for(nest: &LoopNest, acc: &AccessRef) -> RelResult<Term> {
    let decl = nest
        .array(acc.array)
        .ok_or_else(|| RelError::MalformedQuery(format!("undeclared array {}", acc.array)))?;
    if decl.rank != acc.indices.len() {
        return Err(RelError::MalformedQuery(format!(
            "array {} declared rank {} but subscripted with {} indices",
            decl.name,
            decl.rank,
            acc.indices.len()
        )));
    }
    match acc.indices.len() {
        1 => Ok(Term::Vec { rel: acc.array, idx: acc.indices[0] }),
        2 => Ok(Term::Mat { rel: acc.array, row: acc.indices[0], col: acc.indices[1] }),
        n => Err(RelError::MalformedQuery(format!("rank-{n} arrays unsupported"))),
    }
}

fn target_for(nest: &LoopNest, acc: &AccessRef) -> RelResult<Target> {
    let decl = nest
        .array(acc.array)
        .ok_or_else(|| RelError::MalformedQuery(format!("undeclared target {}", acc.array)))?;
    if decl.sparse {
        return Err(RelError::MalformedQuery(format!(
            "target {} must be dense (DO-ANY reductions assemble into dense storage)",
            decl.name
        )));
    }
    match acc.indices.len() {
        0 => Ok(Target::Scalar { rel: acc.array }),
        1 => Ok(Target::VecElem { rel: acc.array, var: acc.indices[0] }),
        2 => Ok(Target::MatElem { rel: acc.array, row: acc.indices[0], col: acc.indices[1] }),
        n => Err(RelError::MalformedQuery(format!("rank-{n} targets unsupported"))),
    }
}

fn lower_expr(e: &ExprAst) -> Expr {
    match e {
        ExprAst::Access(a) => Expr::Value(a.array),
        ExprAst::Const(c) => Expr::Const(*c),
        ExprAst::Add(a, b) => lower_expr(a).add(lower_expr(b)),
        ExprAst::Sub(a, b) => lower_expr(a).sub(lower_expr(b)),
        ExprAst::Mul(a, b) => lower_expr(a).mul(lower_expr(b)),
        ExprAst::Neg(a) => lower_expr(a).neg(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{programs, ArrayDecl};
    use crate::ids::{MAT_A, MAT_B, MAT_C, PERM_P, VAR_I, VAR_J, VAR_K, VEC_X, VEC_Y};
    use crate::scalar::UpdateOp;

    fn add_assign(target: Target, rhs: Expr) -> Stmt {
        Stmt::new(target, UpdateOp::AddAssign, rhs)
    }

    fn a_times(r: RelId) -> Expr {
        Expr::value(MAT_A).mul(Expr::value(r))
    }

    #[test]
    fn matvec_lowers_to_paper_query() {
        // x dense: NZ(x) ≡ true, so P = NZ(A) alone.
        let want = Query {
            vars: vec![VAR_I, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_J },
                Term::Vec { rel: VEC_X, idx: VAR_J },
            ],
            predicate: vec![MAT_A],
            stmt: add_assign(Target::VecElem { rel: VEC_Y, var: VAR_I }, a_times(VEC_X)),
        };
        assert_eq!(extract_query(&programs::matvec()).unwrap(), want);
    }

    #[test]
    fn sparse_x_joins_predicate() {
        // The paper's running example: P = NZ(A) ∧ NZ(X).
        let mut nest = programs::matvec();
        nest.arrays.iter_mut().find(|a| a.id == VEC_X).unwrap().sparse = true;
        let want = Query {
            vars: vec![VAR_I, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_J },
                Term::Vec { rel: VEC_X, idx: VAR_J },
            ],
            predicate: vec![MAT_A, VEC_X],
            stmt: add_assign(Target::VecElem { rel: VEC_Y, var: VAR_I }, a_times(VEC_X)),
        };
        assert_eq!(extract_query(&nest).unwrap(), want);
    }

    #[test]
    fn matvec_transposed_lowers() {
        let want = Query {
            vars: vec![VAR_I, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_J },
                Term::Vec { rel: VEC_X, idx: VAR_I },
            ],
            predicate: vec![MAT_A],
            stmt: add_assign(Target::VecElem { rel: VEC_Y, var: VAR_J }, a_times(VEC_X)),
        };
        assert_eq!(extract_query(&programs::matvec_transposed()).unwrap(), want);
    }

    #[test]
    fn matmat_lowers_with_two_sided_predicate() {
        let want = Query {
            vars: vec![VAR_I, VAR_K, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_K },
                Term::Mat { rel: MAT_B, row: VAR_K, col: VAR_J },
            ],
            predicate: vec![MAT_A, MAT_B],
            stmt: add_assign(Target::MatElem { rel: MAT_C, row: VAR_I, col: VAR_J }, a_times(MAT_B)),
        };
        assert_eq!(extract_query(&programs::matmat()).unwrap(), want);
    }

    #[test]
    fn mat_dot_lowers_to_a_scalar_reduction() {
        let want = Query {
            vars: vec![VAR_I, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_J },
                Term::Mat { rel: MAT_B, row: VAR_I, col: VAR_J },
            ],
            predicate: vec![MAT_A, MAT_B],
            stmt: add_assign(Target::Scalar { rel: MAT_C }, a_times(MAT_B)),
        };
        assert_eq!(extract_query(&programs::mat_dot()).unwrap(), want);
    }

    #[test]
    fn permutation_becomes_a_trailing_perm_term() {
        // A is indexed by the stored (permuted) row k, P relates the
        // global i to k, and Y is indexed by the global i.
        let want = Query {
            vars: vec![VAR_I, VAR_K, VAR_J],
            terms: vec![
                Term::Mat { rel: MAT_A, row: VAR_K, col: VAR_J },
                Term::Vec { rel: VEC_X, idx: VAR_J },
                Term::Perm { rel: PERM_P, from: VAR_I, to: VAR_K },
            ],
            predicate: vec![MAT_A],
            stmt: add_assign(Target::VecElem { rel: VEC_Y, var: VAR_I }, a_times(VEC_X)),
        };
        assert_eq!(extract_query(&programs::matvec_row_permuted()).unwrap(), want);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let mut nest = programs::matvec();
        nest.arrays.iter_mut().find(|a| a.id == MAT_A).unwrap().rank = 1;
        assert!(extract_query(&nest).is_err());
    }

    #[test]
    fn sparse_target_rejected() {
        let mut nest = programs::matvec();
        nest.arrays.iter_mut().find(|a| a.id == VEC_Y).unwrap().sparse = true;
        assert!(extract_query(&nest).is_err());
    }

    #[test]
    fn conflicting_subscripts_rejected() {
        let nest = LoopNest::new(
            vec![VAR_I, VAR_J],
            vec![
                ArrayDecl { id: VEC_X, name: "X".into(), rank: 1, sparse: false },
                ArrayDecl { id: VEC_Y, name: "Y".into(), rank: 1, sparse: false },
            ],
            AccessRef::vec(VEC_Y, VAR_I),
            UpdateOp::AddAssign,
            ExprAst::access(AccessRef::vec(VEC_X, VAR_I))
                .mul(ExprAst::access(AccessRef::vec(VEC_X, VAR_J))),
        );
        assert!(extract_query(&nest).is_err());
    }
}
