//! The logical query IR extracted from a DO-ANY loop nest.
//!
//! Following §2 of the paper, a loop nest such as
//!
//! ```text
//! DO i = 1, N
//!   DO j = 1, N
//!     Y(i) = Y(i) + A(i,j) * X(j)
//! ```
//!
//! with sparse `A` and `X` becomes the query
//!
//! ```text
//! Q_sparse = σ_P ( I(i,j) ⋈ A(i,j,a) ⋈ X(j,x) ⋈ Y(i,y) )
//! P       = NZ(A(i,j)) ∧ NZ(X(j))
//! ```
//!
//! A [`Query`] holds the loop variables, the joined relation terms, the
//! sparsity predicate (the set of relations under `NZ(·)`), and the
//! loop-body [`Stmt`] evaluated per result tuple. The iteration-space
//! relation `I` is implicit: its bounds come from relation shapes at
//! binding time.

use crate::error::{RelError, RelResult};
use crate::ids::{RelId, Var};
use crate::scalar::{Stmt, UpdateOp};

/// One relation joined into the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Term {
    /// A matrix relation `R(row, col, value)`.
    Mat { rel: RelId, row: Var, col: Var },
    /// A vector relation `R(idx, value)`.
    Vec { rel: RelId, idx: Var },
    /// A permutation relation `R(from, to)`: a bijection between index
    /// spaces (§2.2). Binding either variable determines the other.
    Perm { rel: RelId, from: Var, to: Var },
}

impl Term {
    pub fn rel(&self) -> RelId {
        match self {
            Term::Mat { rel, .. } | Term::Vec { rel, .. } | Term::Perm { rel, .. } => *rel,
        }
    }

    /// Variables this term constrains.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Term::Mat { row, col, .. } => vec![*row, *col],
            Term::Vec { idx, .. } => vec![*idx],
            Term::Perm { from, to, .. } => vec![*from, *to],
        }
    }
}

/// A relational query plus the per-tuple statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Loop variables in source order (the order is advisory; the
    /// planner is free to reorder — DO-ANY semantics).
    pub vars: Vec<Var>,
    /// Relations joined together.
    pub terms: Vec<Term>,
    /// The sparsity predicate `P = ⋀ NZ(rel)`: only tuples where every
    /// listed relation holds a stored entry are enumerated.
    pub predicate: Vec<RelId>,
    /// The loop body.
    pub stmt: Stmt,
}

impl Query {
    /// The term (if any) for a given relation.
    pub fn term(&self, rel: RelId) -> Option<&Term> {
        self.terms.iter().find(|t| t.rel() == rel)
    }

    /// Structural validation.
    pub fn validate(&self) -> RelResult<()> {
        if self.vars.is_empty() {
            return Err(RelError::MalformedQuery("no loop variables".into()));
        }
        let mut seen = self.vars.clone();
        seen.sort();
        seen.dedup();
        if seen.len() != self.vars.len() {
            return Err(RelError::MalformedQuery("duplicate loop variable".into()));
        }
        let known = |v: &Var| self.vars.contains(v);
        for t in &self.terms {
            for v in t.vars() {
                if !known(&v) {
                    return Err(RelError::MalformedQuery(format!(
                        "term over {} uses undeclared variable {v}",
                        t.rel()
                    )));
                }
            }
        }
        let mut rel_ids: Vec<RelId> = self.terms.iter().map(|t| t.rel()).collect();
        rel_ids.sort();
        let dup = rel_ids.windows(2).any(|w| w[0] == w[1]);
        if dup {
            return Err(RelError::MalformedQuery("relation joined twice".into()));
        }
        for p in &self.predicate {
            if self.term(*p).is_none() {
                return Err(RelError::MalformedQuery(format!(
                    "predicate relation {p} not joined"
                )));
            }
        }
        for v in self.stmt.target.vars() {
            if !known(&v) {
                return Err(RelError::UnboundVar(v));
            }
        }
        for r in self.stmt.rhs.reads() {
            if self.term(r).is_none() {
                return Err(RelError::MalformedQuery(format!(
                    "statement reads unjoined relation {r}"
                )));
            }
        }
        self.stmt.validate()?;
        Ok(())
    }

    /// Sparsity predicate inference following Bik & Wijshoff: a sparse
    /// relation read by the statement belongs in the predicate exactly
    /// when the RHS is annihilated by a zero of that relation *and* the
    /// update is a reduction (skipping the iteration is a no-op).
    ///
    /// `is_sparse(rel)` reports whether the relation's storage omits
    /// zeros (dense relations never enter the predicate — their `NZ` is
    /// identically true, as the paper notes for dense `Y`).
    pub fn infer_predicate(&mut self, is_sparse: &dyn Fn(RelId) -> bool) {
        let mut pred = Vec::new();
        if self.stmt.op == UpdateOp::AddAssign {
            for t in &self.terms {
                let r = t.rel();
                if matches!(t, Term::Perm { .. }) {
                    continue;
                }
                if is_sparse(r) && self.stmt.rhs.is_multiplicative_in(r) {
                    pred.push(r);
                }
            }
        } else {
            // For plain assignment, only relations that gate the whole
            // RHS *and* whose zero makes the assignment write the value
            // already present may be skipped. We conservatively keep the
            // predicate empty; DO-ALL assignments enumerate densely.
        }
        self.predicate = pred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::programs;
    use crate::ids::{MAT_A, MAT_B, PERM_P, VAR_I, VAR_J, VAR_K, VEC_X, VEC_Y};
    use crate::lower::extract_query;
    use crate::scalar::{Expr, Target};

    fn matvec() -> Query {
        extract_query(&programs::matvec()).unwrap()
    }

    #[test]
    fn undeclared_variable_rejected() {
        let mut q = matvec();
        q.vars = vec![VAR_I]; // j now undeclared
        assert!(matches!(q.validate(), Err(RelError::MalformedQuery(_))));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut q = matvec();
        q.terms.push(Term::Vec { rel: VEC_X, idx: VAR_I });
        assert!(q.validate().is_err());
    }

    #[test]
    fn predicate_must_be_joined() {
        let mut q = matvec();
        q.predicate.push(MAT_B);
        assert!(q.validate().is_err());
    }

    #[test]
    fn infer_predicate_matvec_sparse_a_sparse_x() {
        // Matches the paper's running example: P = NZ(A) ∧ NZ(X).
        let mut q = matvec();
        q.infer_predicate(&|r| r == MAT_A || r == VEC_X);
        assert_eq!(q.predicate, vec![MAT_A, VEC_X]);
    }

    #[test]
    fn infer_predicate_dense_x_excluded() {
        // Dense X: NZ(X) ≡ true, so P = NZ(A) alone.
        let mut q = matvec();
        q.infer_predicate(&|r| r == MAT_A);
        assert_eq!(q.predicate, vec![MAT_A]);
    }

    #[test]
    fn infer_predicate_additive_term_blocks() {
        // Y(i) += A(i,j)*X(j) + X(j): zero of A no longer annihilates.
        let mut q = matvec();
        q.stmt = Stmt::new(
            Target::VecElem { rel: VEC_Y, var: VAR_I },
            UpdateOp::AddAssign,
            Expr::value(MAT_A).mul(Expr::value(VEC_X)).add(Expr::value(VEC_X)),
        );
        q.infer_predicate(&|r| r == MAT_A || r == VEC_X);
        assert_eq!(q.predicate, vec![VEC_X]); // X still annihilates both terms
    }

    #[test]
    fn term_vars() {
        assert_eq!(
            Term::Mat { rel: MAT_A, row: VAR_I, col: VAR_J }.vars(),
            vec![VAR_I, VAR_J]
        );
        assert_eq!(Term::Vec { rel: VEC_X, idx: VAR_J }.vars(), vec![VAR_J]);
        assert_eq!(
            Term::Perm { rel: PERM_P, from: VAR_I, to: VAR_K }.vars(),
            vec![VAR_I, VAR_K]
        );
    }
}
