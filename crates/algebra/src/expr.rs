//! The query algebra (AGCA-style) of Section 3.1 / Appendix A.
//!
//! Queries (views) are algebraic formulas over generalized multiset
//! relations: relations, bag union, natural join, multiplicity-preserving
//! projection (`Sum`), constants, value terms, comparisons, and variable
//! assignment — including the generalized form `var := Q` used to express
//! nested aggregates and existential quantification.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// How a relational term is backed at runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RelKind {
    /// A base table of the database (materialized by the maintenance program
    /// itself when needed).
    Base,
    /// An auxiliary materialized view created by the recursive IVM compiler.
    View,
    /// A batch of updates (the delta relation `ΔR`); may contain insertions
    /// (positive multiplicities) and deletions (negative multiplicities).
    Delta,
}

/// A reference to a relation together with the variable names its columns
/// bind, e.g. `R(A, B)`.  The same stored relation can be referenced with
/// different variable names (self-joins, renamings).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RelRef {
    pub name: String,
    pub kind: RelKind,
    pub cols: Vec<String>,
}

impl RelRef {
    pub fn schema(&self) -> Schema {
        Schema::new(self.cols.iter().cloned())
    }
}

/// Comparison operators of the language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(&self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Interpreted value terms: arithmetic over bound variables and literals.
/// A value term is only valid in a context where all its variables are bound
/// (information flows left to right through joins).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ValExpr {
    Var(String),
    Lit(Value),
    Add(Box<ValExpr>, Box<ValExpr>),
    Sub(Box<ValExpr>, Box<ValExpr>),
    Mul(Box<ValExpr>, Box<ValExpr>),
    Div(Box<ValExpr>, Box<ValExpr>),
}

impl ValExpr {
    pub fn var(name: impl Into<String>) -> Self {
        ValExpr::Var(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Self {
        ValExpr::Lit(v.into())
    }

    /// Free variables of the term, in first-occurrence order.
    pub fn variables(&self) -> Schema {
        fn walk(e: &ValExpr, out: &mut Schema) {
            match e {
                ValExpr::Var(v) => out.push(v.clone()),
                ValExpr::Lit(_) => {}
                ValExpr::Add(a, b)
                | ValExpr::Sub(a, b)
                | ValExpr::Mul(a, b)
                | ValExpr::Div(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut s = Schema::empty();
        walk(self, &mut s);
        s
    }

    /// Evaluate the term given a variable lookup function.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<Value>) -> Value {
        match self {
            ValExpr::Var(v) => {
                lookup(v).unwrap_or_else(|| panic!("unbound variable `{v}` in value term"))
            }
            ValExpr::Lit(v) => v.clone(),
            ValExpr::Add(a, b) => Value::Double(a.eval(lookup).as_f64() + b.eval(lookup).as_f64()),
            ValExpr::Sub(a, b) => Value::Double(a.eval(lookup).as_f64() - b.eval(lookup).as_f64()),
            ValExpr::Mul(a, b) => Value::Double(a.eval(lookup).as_f64() * b.eval(lookup).as_f64()),
            ValExpr::Div(a, b) => {
                let d = b.eval(lookup).as_f64();
                Value::Double(if d == 0.0 {
                    0.0
                } else {
                    a.eval(lookup).as_f64() / d
                })
            }
        }
    }
}

impl fmt::Display for ValExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValExpr::Var(v) => write!(f, "{v}"),
            ValExpr::Lit(v) => write!(f, "{v}"),
            ValExpr::Add(a, b) => write!(f, "({a} + {b})"),
            ValExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            ValExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            ValExpr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// A query expression of the algebra.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Relational term `R(A, B, ...)`.
    Rel(RelRef),
    /// Bag union `Q1 + Q2`: multiplicities of matching tuples are summed.
    Union(Box<Expr>, Box<Expr>),
    /// Natural join `Q1 ⋈ Q2`: multiplicities are multiplied; variable
    /// bindings flow from left to right.
    Join(Box<Expr>, Box<Expr>),
    /// Multiplicity-preserving projection `Sum_[A1,...](Q)`.
    Sum { group_by: Schema, body: Box<Expr> },
    /// Constant multiplicity (a singleton relation over the empty tuple).
    Const(f64),
    /// Interpreted value term: its numeric value becomes the multiplicity.
    Val(ValExpr),
    /// Comparison `value1 θ value2`: multiplicity 1 when true, 0 otherwise.
    Cmp {
        op: CmpOp,
        lhs: ValExpr,
        rhs: ValExpr,
    },
    /// Variable assignment over a value term `(var := value)`.
    AssignVal { var: String, value: ValExpr },
    /// Generalized variable assignment `(var := Q)` where `Q` may be an
    /// arbitrary (possibly correlated) subquery: the relation containing the
    /// tuples of `Q` extended by a column `var` holding their multiplicity,
    /// each with multiplicity 1 (Section 3.1).
    AssignQuery { var: String, query: Box<Expr> },
    /// `Exists(Q)`: syntactic sugar for
    /// `Sum_[sch(Q)]((X := Q) ⋈ (X ≠ 0))` — every non-zero multiplicity in
    /// `Q` becomes 1.  Kept as a first-class node because domain extraction
    /// (Section 3.2.2) builds and pattern-matches on it.
    Exists(Box<Expr>),
}

// ---------------------------------------------------------------------------
// Constructors / builders
// ---------------------------------------------------------------------------

/// Reference a base relation: `rel("R", ["A", "B"])`.
pub fn rel(name: impl Into<String>, cols: impl IntoIterator<Item = impl Into<String>>) -> Expr {
    Expr::Rel(RelRef {
        name: name.into(),
        kind: RelKind::Base,
        cols: cols.into_iter().map(Into::into).collect(),
    })
}

/// Reference an auxiliary materialized view.
pub fn view(name: impl Into<String>, cols: impl IntoIterator<Item = impl Into<String>>) -> Expr {
    Expr::Rel(RelRef {
        name: name.into(),
        kind: RelKind::View,
        cols: cols.into_iter().map(Into::into).collect(),
    })
}

/// Reference the update batch (delta relation) of a base relation.
pub fn delta_rel(
    name: impl Into<String>,
    cols: impl IntoIterator<Item = impl Into<String>>,
) -> Expr {
    Expr::Rel(RelRef {
        name: name.into(),
        kind: RelKind::Delta,
        cols: cols.into_iter().map(Into::into).collect(),
    })
}

/// Natural join of two expressions.
pub fn join(l: Expr, r: Expr) -> Expr {
    Expr::Join(Box::new(l), Box::new(r))
}

/// Natural join of several expressions (left-deep).
pub fn join_all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
    let mut it = exprs.into_iter();
    let first = it.next().expect("join_all of empty sequence");
    it.fold(first, join)
}

/// Bag union of two expressions.
pub fn union(l: Expr, r: Expr) -> Expr {
    Expr::Union(Box::new(l), Box::new(r))
}

/// Multiplicity-preserving projection.
pub fn sum(group_by: impl IntoIterator<Item = impl Into<String>>, body: Expr) -> Expr {
    Expr::Sum {
        group_by: Schema::new(group_by),
        body: Box::new(body),
    }
}

/// Total aggregate (`Sum_[]`).
pub fn sum_total(body: Expr) -> Expr {
    Expr::Sum {
        group_by: Schema::empty(),
        body: Box::new(body),
    }
}

/// Comparison term.
pub fn cmp(lhs: ValExpr, op: CmpOp, rhs: ValExpr) -> Expr {
    Expr::Cmp { op, lhs, rhs }
}

/// Comparison between two variables.
pub fn cmp_vars(l: impl Into<String>, op: CmpOp, r: impl Into<String>) -> Expr {
    cmp(ValExpr::Var(l.into()), op, ValExpr::Var(r.into()))
}

/// Comparison between a variable and a literal.
pub fn cmp_lit(l: impl Into<String>, op: CmpOp, r: impl Into<Value>) -> Expr {
    cmp(ValExpr::Var(l.into()), op, ValExpr::Lit(r.into()))
}

/// Variable assignment over a value term.
pub fn assign_val(var: impl Into<String>, value: ValExpr) -> Expr {
    Expr::AssignVal {
        var: var.into(),
        value,
    }
}

/// Generalized variable assignment over a subquery (nested aggregate).
pub fn assign_query(var: impl Into<String>, query: Expr) -> Expr {
    Expr::AssignQuery {
        var: var.into(),
        query: Box::new(query),
    }
}

/// `Exists(Q)`.
pub fn exists(q: Expr) -> Expr {
    Expr::Exists(Box::new(q))
}

/// Value term used as a multiplicity, e.g. `val(ValExpr::var("price"))`.
pub fn val(v: ValExpr) -> Expr {
    Expr::Val(v)
}

/// Multiplicity given by a single variable (`SUM(col)`-style aggregates).
pub fn val_var(name: impl Into<String>) -> Expr {
    Expr::Val(ValExpr::Var(name.into()))
}

/// Negation `-Q`, sugar for `(-1) ⋈ Q`.
pub fn neg(q: Expr) -> Expr {
    join(Expr::Const(-1.0), q)
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        join(self, rhs)
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        union(self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        union(self, neg(rhs))
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

impl Expr {
    /// Output schema of the expression.
    ///
    /// Correlated variables bound by the evaluation context do not appear in
    /// an expression's own schema only when the expression projects them away
    /// (`Sum`); this static notion is the one used by the paper's rewrite
    /// rules.
    pub fn schema(&self) -> Schema {
        Schema::new(self.column_names())
    }

    /// The columns of [`Expr::schema`], in order, as names borrowed from the
    /// expression: each name at its first occurrence, no descent into a
    /// `Sum` body, an `AssignQuery`'s variable after its query's columns.
    pub fn column_names(&self) -> Vec<&str> {
        fn push<'e>(out: &mut Vec<&'e str>, name: &'e str) {
            if !out.contains(&name) {
                out.push(name);
            }
        }
        fn collect<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) {
            match expr {
                Expr::Rel(r) => r.cols.iter().for_each(|c| push(out, c)),
                Expr::Union(l, r) | Expr::Join(l, r) => {
                    collect(l, out);
                    collect(r, out);
                }
                Expr::Sum { group_by, .. } => group_by.iter().for_each(|c| push(out, c)),
                Expr::Const(_) | Expr::Val(_) | Expr::Cmp { .. } => {}
                Expr::AssignVal { var, .. } => push(out, var),
                Expr::AssignQuery { var, query } => {
                    collect(query, out);
                    push(out, var);
                }
                Expr::Exists(q) => collect(q, out),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Immediate children of this node.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Union(l, r) | Expr::Join(l, r) => vec![l, r],
            Expr::Sum { body, .. } => vec![body],
            Expr::AssignQuery { query, .. } => vec![query],
            Expr::Exists(q) => vec![q],
            _ => vec![],
        }
    }

    /// Rebuild this node with transformed children.
    pub fn map_children(&self, f: &mut dyn FnMut(&Expr) -> Expr) -> Expr {
        match self {
            Expr::Union(l, r) => Expr::Union(Box::new(f(l)), Box::new(f(r))),
            Expr::Join(l, r) => Expr::Join(Box::new(f(l)), Box::new(f(r))),
            Expr::Sum { group_by, body } => Expr::Sum {
                group_by: group_by.clone(),
                body: Box::new(f(body)),
            },
            Expr::AssignQuery { var, query } => Expr::AssignQuery {
                var: var.clone(),
                query: Box::new(f(query)),
            },
            Expr::Exists(q) => Expr::Exists(Box::new(f(q))),
            other => other.clone(),
        }
    }

    /// Visit every node of the expression tree (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// All relational references in the expression (pre-order).
    pub fn relations(&self) -> Vec<RelRef> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Rel(r) = e {
                out.push(r.clone());
            }
        });
        out
    }

    /// Whether the expression references any base or view relation
    /// (`hasRelations` in the paper's Figure 1).
    pub fn has_stored_relations(&self) -> bool {
        self.relations()
            .iter()
            .any(|r| matches!(r.kind, RelKind::Base | RelKind::View))
    }

    /// Whether the expression references any delta relation.
    pub fn has_delta_relations(&self) -> bool {
        self.relations()
            .iter()
            .any(|r| matches!(r.kind, RelKind::Delta))
    }

    /// Whether the expression references the named relation of the given kind.
    pub fn references(&self, name: &str, kind: RelKind) -> bool {
        self.relations()
            .iter()
            .any(|r| r.name == name && r.kind == kind)
    }

    /// The *degree* of the expression: number of base/view relational terms.
    /// The paper uses degree as the complexity measure driving recursive
    /// compilation (each delta derivation strictly reduces it for flat
    /// queries).
    pub fn degree(&self) -> usize {
        self.relations()
            .iter()
            .filter(|r| matches!(r.kind, RelKind::Base | RelKind::View))
            .count()
    }

    /// Replace every occurrence of `target` (by structural equality) with
    /// `replacement`; returns the rewritten expression and how many
    /// replacements were made.
    pub fn replace_subexpr(&self, target: &Expr, replacement: &Expr) -> (Expr, usize) {
        if self == target {
            return (replacement.clone(), 1);
        }
        let mut count = 0usize;
        let out = self.map_children(&mut |c| {
            let (e, n) = c.replace_subexpr(target, replacement);
            count += n;
            e
        });
        (out, count)
    }

    /// Structural size (node count) — used by tests and optimizer heuristics.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Free column variables needed *from the context* for this expression
    /// to be evaluable: variables used by value terms, comparisons and
    /// assignments that are not produced by relational terms to their left.
    /// This is a conservative approximation used by the compiler to decide
    /// whether a subexpression can be hoisted out and materialized on its
    /// own.
    pub fn input_variables(&self) -> Schema {
        fn walk(e: &Expr, bound: &mut Schema, needed: &mut Schema) {
            match e {
                Expr::Rel(r) => {
                    for c in &r.cols {
                        bound.push(c.clone());
                    }
                }
                Expr::Join(l, rr) => {
                    walk(l, bound, needed);
                    walk(rr, bound, needed);
                }
                Expr::Union(l, rr) => {
                    let mut bl = bound.clone();
                    let mut br = bound.clone();
                    walk(l, &mut bl, needed);
                    walk(rr, &mut br, needed);
                    *bound = bound.union(&bl.intersect(&br));
                }
                Expr::Sum { body, group_by } => {
                    let mut b = bound.clone();
                    walk(body, &mut b, needed);
                    *bound = bound.union(group_by);
                }
                Expr::Const(_) => {}
                Expr::Val(v) => {
                    for c in v.variables().iter() {
                        if !bound.contains(c) {
                            needed.push(c.to_string());
                        }
                    }
                }
                Expr::Cmp { lhs, rhs, .. } => {
                    for c in lhs.variables().union(&rhs.variables()).iter() {
                        if !bound.contains(c) {
                            needed.push(c.to_string());
                        }
                    }
                }
                Expr::AssignVal { var, value } => {
                    for c in value.variables().iter() {
                        if !bound.contains(c) {
                            needed.push(c.to_string());
                        }
                    }
                    bound.push(var.clone());
                }
                Expr::AssignQuery { var, query } => {
                    let mut b = bound.clone();
                    walk(query, &mut b, needed);
                    bound.push(var.clone());
                }
                Expr::Exists(q) => walk(q, bound, needed),
            }
        }
        let mut bound = Schema::empty();
        let mut needed = Schema::empty();
        walk(self, &mut bound, &mut needed);
        needed
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rel(r) => {
                let prefix = match r.kind {
                    RelKind::Base => "",
                    RelKind::View => "",
                    RelKind::Delta => "Δ",
                };
                write!(f, "{prefix}{}({})", r.name, r.cols.join(", "))
            }
            Expr::Union(l, r) => write!(f, "({l} + {r})"),
            Expr::Join(l, r) => write!(f, "({l} * {r})"),
            Expr::Sum { group_by, body } => write!(f, "Sum_{group_by:?}({body})"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Val(v) => write!(f, "[{v}]"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::AssignVal { var, value } => write!(f, "({var} := {value})"),
            Expr::AssignQuery { var, query } => write!(f, "({var} := {query})"),
            Expr::Exists(q) => write!(f, "Exists({q})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Expr {
        // Sum_[B]( R(A,B) * S(B,C) * T(C,D) )
        sum(
            ["B"],
            join_all([
                rel("R", ["A", "B"]),
                rel("S", ["B", "C"]),
                rel("T", ["C", "D"]),
            ]),
        )
    }

    #[test]
    fn schema_inference_join_and_sum() {
        let q = sample_query();
        assert_eq!(q.schema().columns(), ["B"]);
        let j = join(rel("R", ["A", "B"]), rel("S", ["B", "C"]));
        assert_eq!(j.schema().columns(), ["A", "B", "C"]);
    }

    #[test]
    fn degree_counts_stored_relations_only() {
        let q = sample_query();
        assert_eq!(q.degree(), 3);
        let d = join(delta_rel("R", ["A", "B"]), rel("S", ["B", "C"]));
        assert_eq!(d.degree(), 1);
        assert!(d.has_delta_relations());
    }

    #[test]
    fn replace_subexpr_substitutes_views() {
        // join_all builds a left-deep tree: ((R * S) * T).
        let q = sample_query();
        let rs = join(rel("R", ["A", "B"]), rel("S", ["B", "C"]));
        let (rewritten, n) = q.replace_subexpr(&rs, &view("M_RS", ["A", "B", "C"]));
        assert_eq!(n, 1);
        assert!(rewritten.references("M_RS", RelKind::View));
        assert!(!rewritten.references("S", RelKind::Base));
        assert!(rewritten.references("T", RelKind::Base));
    }

    #[test]
    fn operators_build_union_join_difference() {
        let e = rel("R", ["A"]) * rel("S", ["A"]) + rel("T", ["A"]);
        assert_eq!(e.relations().len(), 3);
        let d = rel("R", ["A"]) - rel("S", ["A"]);
        // difference = union with (-1) * S
        assert_eq!(d.relations().len(), 2);
    }

    #[test]
    fn input_variables_detects_correlation() {
        // Sum_[](S(B2,C) * (B = B2)) is correlated on B.
        let q = sum_total(join(rel("S", ["B2", "C"]), cmp_vars("B", CmpOp::Eq, "B2")));
        assert!(q.input_variables().contains("B"));
        assert!(!q.input_variables().contains("B2"));
    }

    #[test]
    fn exists_schema_matches_body() {
        let q = exists(sum(["A"], rel("R", ["A", "B"])));
        assert_eq!(q.schema().columns(), ["A"]);
    }

    #[test]
    fn assign_query_extends_schema() {
        let q = assign_query("X", sum_total(rel("S", ["B", "C"])));
        assert_eq!(q.schema().columns(), ["X"]);
    }

    #[test]
    fn display_round_trips_structure() {
        let q = sample_query();
        let s = q.to_string();
        assert!(s.contains("Sum_[B]"));
        assert!(s.contains("R(A, B)"));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(rel("R", ["A"]).size(), 1);
        assert_eq!(join(rel("R", ["A"]), rel("S", ["A"])).size(), 3);
    }
}
