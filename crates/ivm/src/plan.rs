//! Maintenance-plan representation: materialized views, trigger statements
//! and triggers, plus the access-pattern analysis that decides which
//! secondary indexes each view needs (Section 5.1/5.2.1).

use crate::simplify::{join_factors, join_of};
use hotdog_algebra::expr::{CmpOp, Expr, RelKind, RelRef, ValExpr};
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Which maintenance strategy produced a plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Strategy {
    /// Re-evaluate the query from (materialized) base tables on every batch.
    Reevaluation,
    /// Classical first-order incremental view maintenance: one delta query
    /// per base relation, evaluated against materialized base tables.
    ClassicalIvm,
    /// Recursive incremental view maintenance with auxiliary views
    /// (DBToaster-style, the paper's approach).
    RecursiveIvm,
}

impl Strategy {
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Reevaluation => "REEVAL",
            Strategy::ClassicalIvm => "IVM",
            Strategy::RecursiveIvm => "RIVM",
        }
    }
}

/// A materialized view of the plan.
#[derive(Clone, Debug)]
pub struct ViewDef {
    /// Storage name (also used in `View`-kind relation references).
    pub name: String,
    /// Column names of the stored key tuple.
    pub schema: Schema,
    /// Defining query over *base* relations (used by tests and by the
    /// re-evaluation of the view from scratch).
    pub definition: Expr,
    /// `true` for the top-level query result.
    pub is_top: bool,
}

/// Statement operation: accumulate or overwrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StmtOp {
    /// `target += expr` — merge the delta into the view.
    AddTo,
    /// `target := expr` — replace the view contents.
    SetTo,
}

/// One maintenance statement of a trigger.
#[derive(Clone, Debug)]
pub struct Statement {
    /// Name of the target materialized view, or of a trigger-local temp:
    /// a `:=` statement whose target is no view of the plan computes a
    /// batch-only term once per batch for the statements after it
    /// ([`hoist_batch_terms`](crate::hoist::hoist_batch_terms)).
    pub target: String,
    /// Schema of the target view (the RHS is projected onto it).
    pub target_schema: Schema,
    pub op: StmtOp,
    /// Right-hand side, referencing only `View` and `Delta` relations.
    pub expr: Expr,
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            StmtOp::AddTo => "+=",
            StmtOp::SetTo => ":=",
        };
        write!(
            f,
            "{}({:?}) {} {}",
            self.target, self.target_schema, op, self.expr
        )
    }
}

/// The maintenance trigger for one base relation: the ordered statements to
/// run when a batch of updates to that relation arrives.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// Base relation whose updates this trigger handles.
    pub relation: String,
    /// Schema of the update batch.
    pub relation_schema: Schema,
    /// Statements in execution order (decreasing view complexity).
    pub statements: Vec<Statement>,
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ON UPDATE {} BY Δ{}", self.relation, self.relation)?;
        for s in &self.statements {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

impl Trigger {
    /// Batch preprocessing (Section 3.3): the trigger's [`BatchPrep`], and
    /// this trigger rewritten to read the preprocessed batch.  The filter
    /// and the weight are [`Trigger::batch_factors`], which leave every
    /// statement; then [`Trigger::kept_delta_positions`] of what remains
    /// decides the projection, so columns only the filter or the weight
    /// read die too.
    pub fn preprocessing(&self) -> (BatchPrep, Trigger) {
        let (filter, weight) = self.batch_factors();
        let factored = Trigger {
            statements: self
                .statements
                .iter()
                .map(|s| Statement {
                    expr: self.without_factors(&s.expr, &filter, &weight),
                    ..s.clone()
                })
                .collect(),
            ..self.clone()
        };
        let kept = factored.kept_delta_positions();
        let narrowed = factored.narrowed(&kept);
        let prep = BatchPrep::new(filter, weight, self.relation_schema.clone(), kept);
        (prep, narrowed)
    }

    /// The static conditions and value terms of the trigger (Section 3.3):
    /// the comparisons (the filter) and the value terms (the weight) on
    /// batch columns only that *every* statement multiplies its batch by,
    /// over the trigger's relation schema.  Filtering the batch by the
    /// comparisons and multiplying each tuple's multiplicity by the value
    /// terms changes no statement's result, provided each statement reads
    /// `Δrelation` exactly once, as a top-level factor of its root `Sum`'s
    /// join, beside them.  Any other read — under `Union`, `Exists` or
    /// `:=`, a domain guard's, or a second reference — disables both, and
    /// so does a statement whose root is no `Sum`: a guard must see counts,
    /// never weights.  Factors match by position, not by name.
    pub fn batch_factors(&self) -> (Vec<Expr>, Vec<Expr>) {
        let mut common: Option<Vec<Expr>> = None;
        for stmt in &self.statements {
            let reads = stmt
                .expr
                .relations()
                .iter()
                .filter(|r| r.kind == RelKind::Delta && r.name == self.relation)
                .count();
            let Expr::Sum { body, .. } = &stmt.expr else {
                return (Vec::new(), Vec::new());
            };
            let factors = join_factors(body);
            let batch = factors.iter().find_map(|f| self.batch_ref(f));
            let (1, Some(batch)) = (reads, batch) else {
                return (Vec::new(), Vec::new());
            };
            let mut mine: Vec<Expr> = Vec::new();
            for p in factors.iter().filter_map(|f| self.positional(f, batch)) {
                if !mine.contains(&p) {
                    mine.push(p);
                }
            }
            common = Some(match common {
                None => mine,
                Some(c) => c.into_iter().filter(|f| mine.contains(f)).collect(),
            });
        }
        common
            .unwrap_or_default()
            .into_iter()
            .partition(|f| matches!(f, Expr::Cmp { .. }))
    }

    /// `f` as a reference to this trigger's batch.
    fn batch_ref<'a>(&self, f: &'a Expr) -> Option<&'a RelRef> {
        match f {
            Expr::Rel(r) if r.kind == RelKind::Delta && r.name == self.relation => Some(r),
            _ => None,
        }
    }

    /// `f`, when it is a comparison or a value term over the columns of
    /// `batch` only, renamed to the relation schema's names at the same
    /// positions.
    fn positional(&self, f: &Expr, batch: &RelRef) -> Option<Expr> {
        let name_at = |v: &str| {
            let i = batch.cols.iter().position(|c| c == v)?;
            Some(self.relation_schema.columns()[i].clone())
        };
        let vars = match f {
            Expr::Cmp { lhs, rhs, .. } => lhs.variables().union(&rhs.variables()),
            Expr::Val(v) => v.variables(),
            _ => return None,
        };
        if !vars.iter().all(|v| name_at(v).is_some()) {
            return None;
        }
        let rename = |v: &ValExpr| {
            rename_vars(v, &|name| {
                name_at(name).expect("every variable is a batch column")
            })
        };
        Some(match f {
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: rename(lhs),
                rhs: rename(rhs),
            },
            Expr::Val(v) => Expr::Val(rename(v)),
            _ => unreachable!("only comparisons and value terms get here"),
        })
    }

    /// `expr` without the root-join comparisons that `filter` holds, and
    /// without one occurrence of each value term that `weight` holds.
    fn without_factors(&self, expr: &Expr, filter: &[Expr], weight: &[Expr]) -> Expr {
        if filter.is_empty() && weight.is_empty() {
            return expr.clone();
        }
        let Expr::Sum { group_by, body } = expr else {
            unreachable!("a factored statement's root is a `Sum`")
        };
        let factors = join_factors(body);
        let batch = factors
            .iter()
            .find_map(|f| self.batch_ref(f))
            .expect("a factored statement reads its batch");
        let mut unweighed = weight.to_vec();
        let kept = factors.iter().filter(|f| match self.positional(f, batch) {
            Some(p @ Expr::Cmp { .. }) => !filter.contains(&p),
            Some(p) => match unweighed.iter().position(|w| *w == p) {
                Some(i) => {
                    unweighed.remove(i);
                    false
                }
                None => true,
            },
            None => true,
        });
        Expr::Sum {
            group_by: group_by.clone(),
            body: Box::new(join_of(kept.cloned().collect())),
        }
    }

    /// Batch preprocessing (Section 3.3): the positions of the update batch
    /// the statements need, ascending.  Every other position is *dead* and
    /// can be summed out of the batch before the trigger runs: in every
    /// statement, each reference to `Δrelation` binds it to a variable that
    /// occurs nowhere else in the reference's scope (no other relation
    /// reference, value term, comparison, assignment, group-by or target
    /// column), and no `Exists` or `:=` sits between the reference and its
    /// nearest enclosing `Sum` (or the statement root) — those two are not
    /// linear in the multiplicity, so they must see the batch un-aggregated.
    ///
    /// * `Union` branches are separate scopes: each branch is linear in the
    ///   batch, so a variable named again only on another branch of the
    ///   same union is still dead there.
    /// * A domain guard's leaf — the bare `Exists(Δrelation(…))` that
    ///   [`extract_domain`](crate::domain::extract_domain) emits, always
    ///   inside the guard's own `Exists` — pins no position by itself.  A
    ///   guard may admit more bindings than the delta it guards touches,
    ///   never fewer (its factors are all 0/1), and that delta reads the
    ///   same projected batch: a key whose batch tuples cancel once
    ///   projected is a key the delta does not touch.  A bare `Exists` over
    ///   the batch that no other `Exists` encloses is no guard, and keeps
    ///   every position.
    ///
    /// So Q18's LINEITEM trigger, whose nested `Sum` of `l_quantity` per
    /// order is guarded by `Exists(Sum_[OK](Exists(ΔLINEITEM(OK, …))))`,
    /// reads `Δ keeps 2/10: OK, l_quantity`.
    ///
    /// The analysis is by position, not by name: a batch read twice under
    /// different variable names is handled reference by reference.
    pub fn kept_delta_positions(&self) -> Vec<usize> {
        let mut kept = vec![false; self.relation_schema.len()];
        for stmt in &self.statements {
            let mut uses = variable_uses(&stmt.expr);
            for c in stmt.target_schema.iter() {
                *uses.entry(c.to_string()).or_insert(0) += 1;
            }
            visit_refs(
                &stmt.expr,
                false,
                false,
                &uses,
                &mut |r, nonlinear, uses| {
                    if r.kind == RelKind::Delta && r.name == self.relation {
                        for (i, c) in r.cols.iter().enumerate() {
                            kept[i] |= nonlinear || uses[c.as_str()] > 1;
                        }
                    }
                },
            );
        }
        (0..kept.len()).filter(|&i| kept[i]).collect()
    }

    /// This trigger over its preprocessed batch: the relation schema and
    /// every `Δrelation` reference keep only the `kept` positions (see
    /// [`Trigger::kept_delta_positions`]).
    pub fn narrowed(&self, kept: &[usize]) -> Trigger {
        let narrow =
            |cols: &[String]| -> Vec<String> { kept.iter().map(|&i| cols[i].clone()).collect() };
        Trigger {
            relation: self.relation.clone(),
            relation_schema: Schema::new(narrow(self.relation_schema.columns())),
            statements: self
                .statements
                .iter()
                .map(|s| Statement {
                    expr: narrow_delta_refs(&s.expr, &self.relation, &narrow),
                    ..s.clone()
                })
                .collect(),
        }
    }
}

/// Batch preprocessing of one trigger (Section 3.3), the one step every
/// backend runs on an update batch before the trigger's statements see it:
/// keep the tuples every `filter` comparison admits, multiply each one's
/// multiplicity by the `weight` value terms, and project them onto the
/// `kept` positions, summing the multiplicities of tuples that collide.
/// Built by [`Trigger::preprocessing`].  The fields are read through
/// accessors: the compiled filter and weight must stay those of `filter`
/// and `weight`.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPrep {
    filter: Vec<Expr>,
    weight: Vec<Expr>,
    batch_schema: Schema,
    kept: Vec<usize>,
    schema: Schema,
    /// `filter`, compiled to batch positions.
    compiled_filter: Vec<(CmpOp, PosTerm, PosTerm)>,
    /// `weight`, compiled to batch positions.
    compiled_weight: Vec<PosTerm>,
}

impl BatchPrep {
    /// The preprocessing that filters by `filter`, weighs by `weight` and
    /// keeps the `kept` positions of batches over `batch_schema`.  Each
    /// variable is resolved to its batch position here, once.
    pub fn new(
        filter: Vec<Expr>,
        weight: Vec<Expr>,
        batch_schema: Schema,
        kept: Vec<usize>,
    ) -> BatchPrep {
        let at = |v: &ValExpr| PosTerm::compile(v, &batch_schema);
        let compiled_filter = (filter.iter())
            .map(|f| match f {
                Expr::Cmp { op, lhs, rhs } => (*op, at(lhs), at(rhs)),
                other => panic!("a batch filter holds comparisons only, not {other}"),
            })
            .collect();
        let compiled_weight = (weight.iter())
            .map(|w| match w {
                Expr::Val(v) => at(v),
                other => panic!("a batch weight holds value terms only, not {other}"),
            })
            .collect();
        let schema = Schema::new(kept.iter().map(|&i| batch_schema.columns()[i].clone()));
        BatchPrep {
            filter,
            weight,
            batch_schema,
            kept,
            schema,
            compiled_filter,
            compiled_weight,
        }
    }

    /// Comparisons over the update batch, named by
    /// [`BatchPrep::batch_schema`] ([`Trigger::batch_factors`]); a tuple
    /// passes when all of them hold.
    pub fn filter(&self) -> &[Expr] {
        &self.filter
    }

    /// Value terms over the update batch, named by
    /// [`BatchPrep::batch_schema`] ([`Trigger::batch_factors`]); each
    /// admitted tuple's multiplicity is multiplied by all of them.
    pub fn weight(&self) -> &[Expr] {
        &self.weight
    }

    /// Schema of the update batch: the trigger's relation schema.
    pub fn batch_schema(&self) -> &Schema {
        &self.batch_schema
    }

    /// Positions of the update batch the trigger reads
    /// ([`Trigger::kept_delta_positions`]), ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Schema of the preprocessed batch: the batch schema at
    /// [`BatchPrep::kept`].
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Relabel only: no filter, no weight, every position kept.
    pub fn identity(batch_schema: &Schema) -> BatchPrep {
        let all = (0..batch_schema.len()).collect();
        BatchPrep::new(Vec::new(), Vec::new(), batch_schema.clone(), all)
    }

    /// Update tuple `t`'s multiplicity `m` once preprocessed: 0 when the
    /// filter rejects `t`, else `m` times the weight.
    fn weigh(&self, t: &Tuple, m: Mult) -> Mult {
        let admits =
            (self.compiled_filter.iter()).all(|(op, lhs, rhs)| op.eval(&lhs.eval(t), &rhs.eval(t)));
        if !admits {
            return 0.0;
        }
        (self.compiled_weight.iter()).fold(m, |m, w| m * w.eval(t).as_f64())
    }

    /// The preprocessed `batch`, filtered, weighed and projected in one
    /// pass, in wire-canonical layout
    /// ([`Relation::project_canonical_weighted`]).
    pub fn apply(&self, batch: &Relation) -> Relation {
        batch.project_canonical_weighted(&self.kept, self.schema.clone(), |t, m| self.weigh(t, m))
    }

    /// Ring-sum `batch`, preprocessed, into an already preprocessed `delta`
    /// (pipelined admission's coalescing), without building the canonical
    /// relation the merge would not keep.
    pub fn apply_into(&self, batch: &Relation, delta: &mut Relation) {
        for (t, m) in batch.iter().map(|(t, m)| (t, self.weigh(t, m))) {
            if m != 0.0 {
                delta.add(t.project(&self.kept), m);
            }
        }
    }

    /// `Δ keeps 1/10: OK; Δ weight [(l_extendedprice * (1 - l_discount))];
    /// Δ filter (l_shipdate > 19950315)` — the weight and the filter part
    /// only when there is one.
    pub fn describe(&self) -> String {
        let mut out = format!("Δ keeps {}/{}", self.kept.len(), self.batch_schema.len());
        if !self.kept.is_empty() {
            out.push_str(&format!(": {}", self.schema.columns().join(", ")));
        }
        for (label, factors) in [("weight", &self.weight), ("filter", &self.filter)] {
            if !factors.is_empty() {
                let shown: Vec<String> = factors.iter().map(|f| f.to_string()).collect();
                out.push_str(&format!("; Δ {label} {}", shown.join(" * ")));
            }
        }
        out
    }
}

/// A value term over tuple positions: [`ValExpr`] with every variable
/// resolved to its position in the batch schema.
#[derive(Clone, Debug, PartialEq)]
enum PosTerm {
    At(usize),
    Lit(Value),
    Add(Box<PosTerm>, Box<PosTerm>),
    Sub(Box<PosTerm>, Box<PosTerm>),
    Mul(Box<PosTerm>, Box<PosTerm>),
    Div(Box<PosTerm>, Box<PosTerm>),
}

impl PosTerm {
    fn compile(v: &ValExpr, schema: &Schema) -> PosTerm {
        let c = |e: &ValExpr| Box::new(PosTerm::compile(e, schema));
        match v {
            ValExpr::Var(x) => PosTerm::At(
                schema
                    .position(x)
                    .unwrap_or_else(|| panic!("`{x}` is no column of {schema:?}")),
            ),
            ValExpr::Lit(l) => PosTerm::Lit(l.clone()),
            ValExpr::Add(a, b) => PosTerm::Add(c(a), c(b)),
            ValExpr::Sub(a, b) => PosTerm::Sub(c(a), c(b)),
            ValExpr::Mul(a, b) => PosTerm::Mul(c(a), c(b)),
            ValExpr::Div(a, b) => PosTerm::Div(c(a), c(b)),
        }
    }

    /// The term's value on `t`, as [`ValExpr::eval`] computes it by name.
    fn eval<'a>(&'a self, t: &'a Tuple) -> Cow<'a, Value> {
        let num = |e: &PosTerm| e.eval(t).as_f64();
        Cow::Owned(Value::Double(match self {
            PosTerm::At(i) => return Cow::Borrowed(t.get(*i)),
            PosTerm::Lit(v) => return Cow::Borrowed(v),
            PosTerm::Add(a, b) => num(a) + num(b),
            PosTerm::Sub(a, b) => num(a) - num(b),
            PosTerm::Mul(a, b) => num(a) * num(b),
            PosTerm::Div(a, b) => {
                let d = num(b);
                if d == 0.0 {
                    0.0
                } else {
                    num(a) / d
                }
            }
        }))
    }
}

/// `v` with every variable renamed by `rename`.
fn rename_vars(v: &ValExpr, rename: &dyn Fn(&str) -> String) -> ValExpr {
    let r = |e: &ValExpr| Box::new(rename_vars(e, rename));
    match v {
        ValExpr::Var(x) => ValExpr::Var(rename(x)),
        ValExpr::Lit(l) => ValExpr::Lit(l.clone()),
        ValExpr::Add(a, b) => ValExpr::Add(r(a), r(b)),
        ValExpr::Sub(a, b) => ValExpr::Sub(r(a), r(b)),
        ValExpr::Mul(a, b) => ValExpr::Mul(r(a), r(b)),
        ValExpr::Div(a, b) => ValExpr::Div(r(a), r(b)),
    }
}

/// How often each variable name occurs in some part of a statement.
pub(crate) type Uses = HashMap<String, usize>;

/// How often each variable name occurs in `expr`: once per relation
/// column, value term, comparison, assignment and group-by that mentions it.
pub(crate) fn variable_uses(expr: &Expr) -> Uses {
    let mut uses = HashMap::new();
    let mut count = |c: &str| *uses.entry(c.to_string()).or_insert(0) += 1;
    expr.visit(&mut |e| match e {
        Expr::Rel(r) => r.cols.iter().for_each(|c| count(c)),
        Expr::Val(v) => v.variables().iter().for_each(&mut count),
        Expr::Cmp { lhs, rhs, .. } => {
            lhs.variables().iter().for_each(&mut count);
            rhs.variables().iter().for_each(&mut count);
        }
        Expr::AssignVal { var, value } => {
            count(var);
            value.variables().iter().for_each(&mut count);
        }
        Expr::AssignQuery { var, .. } => count(var),
        Expr::Sum { group_by, .. } => group_by.iter().for_each(&mut count),
        Expr::Union(..) | Expr::Join(..) | Expr::Const(_) | Expr::Exists(_) => {}
    });
    uses
}

/// Visit every relation reference with whether it is read non-linearly —
/// an `Exists` or `:=` sits between it and its nearest enclosing `Sum`,
/// unless it is a domain guard's leaf, a bare `Exists` over a batch inside
/// another `Exists` — and the `uses` in its scope: those of the statement,
/// less the other branch of each enclosing `Union`.
fn visit_refs(
    expr: &Expr,
    nonlinear: bool,
    in_exists: bool,
    uses: &Uses,
    f: &mut dyn FnMut(&RelRef, bool, &Uses),
) {
    match expr {
        Expr::Rel(r) => f(r, nonlinear, uses),
        Expr::Sum { body, .. } => visit_refs(body, false, in_exists, uses, f),
        Expr::Exists(q)
            if in_exists && matches!(&**q, Expr::Rel(r) if r.kind == RelKind::Delta) =>
        {
            visit_refs(q, false, true, uses, f)
        }
        Expr::Exists(q) => visit_refs(q, true, true, uses, f),
        Expr::AssignQuery { query, .. } => visit_refs(query, true, in_exists, uses, f),
        Expr::Union(l, r) => {
            let without = |branch: &Expr| {
                let mut scope = uses.clone();
                for (v, n) in variable_uses(branch) {
                    *scope
                        .get_mut(&v)
                        .expect("a branch's uses are the statement's") -= n;
                }
                scope
            };
            visit_refs(l, nonlinear, in_exists, &without(r), f);
            visit_refs(r, nonlinear, in_exists, &without(l), f);
        }
        _ => expr
            .children()
            .into_iter()
            .for_each(|c| visit_refs(c, nonlinear, in_exists, uses, f)),
    }
}

/// Rewrite every `Δrelation` reference's columns with `narrow`.
fn narrow_delta_refs(
    expr: &Expr,
    relation: &str,
    narrow: &dyn Fn(&[String]) -> Vec<String>,
) -> Expr {
    match expr {
        Expr::Rel(r) if r.kind == RelKind::Delta && r.name == relation => Expr::Rel(RelRef {
            cols: narrow(&r.cols),
            ..r.clone()
        }),
        other => other.map_children(&mut |c| narrow_delta_refs(c, relation, narrow)),
    }
}

/// A complete maintenance plan for one query.
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    pub query_name: String,
    pub strategy: Strategy,
    /// Name of the view holding the top-level query result.
    pub top_view: String,
    /// All materialized views (top view first).
    pub views: Vec<ViewDef>,
    /// One trigger per updatable base relation.
    pub triggers: Vec<Trigger>,
}

/// A secondary-index requirement discovered by access-pattern analysis:
/// the named view is probed with exactly these key positions bound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexSpec {
    pub view: String,
    pub positions: Vec<usize>,
}

impl MaintenancePlan {
    /// Look up a view definition by name.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.iter().find(|v| v.name == name)
    }

    /// The top-level view definition.
    pub fn top(&self) -> &ViewDef {
        self.view(&self.top_view).expect("top view missing")
    }

    /// Trigger for a base relation, if the query references it.
    pub fn trigger(&self, relation: &str) -> Option<&Trigger> {
        self.triggers.iter().find(|t| t.relation == relation)
    }

    /// Names of the base relations this plan reacts to.
    pub fn stream_relations(&self) -> Vec<&str> {
        self.triggers.iter().map(|t| t.relation.as_str()).collect()
    }

    /// Total number of maintenance statements across all triggers.
    pub fn statement_count(&self) -> usize {
        self.triggers.iter().map(|t| t.statements.len()).sum()
    }

    /// Secondary-index requirements of every view, derived from the access
    /// patterns of all trigger statements (Section 5.2.1): a `slice` access
    /// with columns `P` bound creates a non-unique hash index over `P`.
    pub fn index_requirements(&self) -> Vec<IndexSpec> {
        let statements = self.triggers.iter().flat_map(|t| &t.statements);
        self.index_requirements_of(statements.map(|s| &s.expr))
    }

    /// The secondary indexes of this plan's views that the statement
    /// expressions `exprs` probe, by the rule of
    /// [`MaintenancePlan::index_requirements`]: a node that runs other
    /// statements than the plan's own triggers (a distributed node) indexes
    /// what *its* statements slice.
    pub fn index_requirements_of<'a>(
        &self,
        exprs: impl IntoIterator<Item = &'a Expr>,
    ) -> Vec<IndexSpec> {
        let mut specs = BTreeSet::new();
        for expr in exprs {
            collect_access(expr, &mut Schema::empty(), &mut |view, positions| {
                specs.insert((view.to_string(), positions));
            });
        }
        specs
            .into_iter()
            .filter(|(view, positions)| {
                // A probe with all positions bound uses the primary (unique)
                // index; a probe with none bound is a scan.  Only partial
                // bindings need secondary indexes, and only views have
                // them: a temp is sliced through a per-statement index.
                self.view(view)
                    .is_some_and(|v| !positions.is_empty() && positions.len() < v.schema.len())
            })
            .map(|(view, positions)| IndexSpec { view, positions })
            .collect()
    }

    /// Render the whole plan (views + triggers) for inspection.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "-- plan `{}` [{}], {} views, {} triggers\n",
            self.query_name,
            self.strategy.label(),
            self.views.len(),
            self.triggers.len()
        ));
        for v in &self.views {
            out.push_str(&format!(
                "VIEW {}{:?}{} := {}\n",
                v.name,
                v.schema,
                if v.is_top { " (top)" } else { "" },
                v.definition
            ));
        }
        for t in &self.triggers {
            out.push_str(&t.to_string());
        }
        out
    }
}

/// Walk an expression in evaluation order, tracking which columns are bound,
/// and report every access to a `View`-kind relation along with the bound
/// key positions at that point.
pub fn collect_access(expr: &Expr, bound: &mut Schema, report: &mut dyn FnMut(&str, Vec<usize>)) {
    match expr {
        Expr::Rel(r) => {
            if r.kind == RelKind::View {
                let positions: Vec<usize> = r
                    .cols
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| bound.contains(c))
                    .map(|(i, _)| i)
                    .collect();
                report(&r.name, positions);
            }
            for c in &r.cols {
                bound.push(c.clone());
            }
        }
        Expr::Join(l, r) => {
            collect_access(l, bound, report);
            collect_access(r, bound, report);
        }
        Expr::Union(l, r) => {
            let snapshot = bound.clone();
            let mut bl = snapshot.clone();
            collect_access(l, &mut bl, report);
            let mut br = snapshot.clone();
            collect_access(r, &mut br, report);
            *bound = snapshot.union(&bl.intersect(&br));
        }
        Expr::Sum { group_by, body } => {
            let mut inner = bound.clone();
            collect_access(body, &mut inner, report);
            *bound = bound.union(group_by);
        }
        Expr::Exists(q) => {
            let snapshot = bound.clone();
            let mut inner = snapshot.clone();
            collect_access(q, &mut inner, report);
            *bound = bound.union(&q.schema());
        }
        Expr::AssignQuery { var, query } => {
            let mut inner = bound.clone();
            collect_access(query, &mut inner, report);
            *bound = bound.union(&query.schema());
            bound.push(var.clone());
        }
        Expr::AssignVal { var, .. } => {
            bound.push(var.clone());
        }
        Expr::Const(_) | Expr::Val(_) | Expr::Cmp { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use std::collections::BTreeMap;

    #[test]
    fn collect_access_reports_bound_positions() {
        // ΔR(A,B) ⋈ M_ST(B): when M_ST is reached, B is bound -> position 0.
        let e = join(delta_rel("R", ["A", "B"]), view("M_ST", ["B"]));
        let mut reported = Vec::new();
        collect_access(&e, &mut Schema::empty(), &mut |v, p| {
            reported.push((v.to_string(), p));
        });
        assert_eq!(reported, vec![("M_ST".to_string(), vec![0])]);
    }

    #[test]
    fn collect_access_partial_binding() {
        // ΔR(A,B) ⋈ M_S(B,C): only position 0 (B) bound -> slice index [0].
        let e = join(delta_rel("R", ["A", "B"]), view("M_S", ["B", "C"]));
        let mut reported = Vec::new();
        collect_access(&e, &mut Schema::empty(), &mut |v, p| {
            reported.push((v.to_string(), p));
        });
        assert_eq!(reported, vec![("M_S".to_string(), vec![0])]);
    }

    /// A trigger on `R(A, B)` with one statement per `(target, expr)`.
    fn trigger_on_r(stmts: Vec<(&[&str], Expr)>) -> Trigger {
        Trigger {
            relation: "R".into(),
            relation_schema: Schema::new(["A", "B"]),
            statements: stmts
                .into_iter()
                .map(|(target, expr)| Statement {
                    target: "Q".into(),
                    target_schema: Schema::new(target.iter().copied()),
                    op: StmtOp::AddTo,
                    expr,
                })
                .collect(),
        }
    }

    /// Check that every statement of `narrowed` over `prep`'s output
    /// evaluates exactly as the matching statement of `trigger` over a
    /// batch full of duplicates on the kept columns.
    fn assert_equivalent(trigger: &Trigger, prep: &BatchPrep, narrowed: &Trigger) {
        use hotdog_algebra::eval::{evaluate, MapCatalog};
        use hotdog_algebra::tuple;
        let batch = Relation::from_pairs(
            trigger.relation_schema.clone(),
            (0..12i64).map(|i| (tuple![i, i % 3], if i % 4 == 0 { -1.0 } else { 2.0 })),
        );
        let preprocessed = prep.apply(&batch);
        for (wide, narrow) in trigger.statements.iter().zip(&narrowed.statements) {
            let mut full = MapCatalog::new();
            full.insert("R", RelKind::Delta, batch.clone());
            let mut pre = MapCatalog::new();
            pre.insert("R", RelKind::Delta, preprocessed.clone());
            assert!(
                evaluate(&narrow.expr, &pre).approx_eq(&evaluate(&wide.expr, &full)),
                "{wide} changed meaning as {narrow}"
            );
        }
    }

    /// The positions `trigger` keeps, checked by [`assert_equivalent`].
    fn kept_checked(trigger: &Trigger) -> Vec<usize> {
        let kept = trigger.kept_delta_positions();
        let narrowed = trigger.narrowed(&kept);
        let prep = BatchPrep::new(
            Vec::new(),
            Vec::new(),
            trigger.relation_schema.clone(),
            kept.clone(),
        );
        assert_equivalent(trigger, &prep, &narrowed);
        kept
    }

    /// `trigger`'s whole preprocessing, checked by [`assert_equivalent`].
    fn prep_checked(trigger: &Trigger) -> BatchPrep {
        let (prep, narrowed) = trigger.preprocessing();
        assert_equivalent(trigger, &prep, &narrowed);
        prep
    }

    #[test]
    fn a_column_summed_away_is_dead() {
        let t = trigger_on_r(vec![(&["B"], sum(["B"], delta_rel("R", ["A", "B"])))]);
        assert_eq!(kept_checked(&t), [1]);
        assert_eq!(t.narrowed(&[1]).relation_schema, Schema::new(["B"]));
        assert_eq!(
            t.narrowed(&[1]).statements[0].expr,
            sum(["B"], delta_rel("R", ["B"]))
        );
    }

    #[test]
    fn a_self_join_keeps_its_join_column() {
        let self_join = join(delta_rel("R", ["A", "B"]), delta_rel("R", ["A", "B"]));
        assert_eq!(
            kept_checked(&trigger_on_r(vec![(&[], sum_total(self_join))])),
            [0, 1]
        );
        // By position: `B` and `C` are each bound once, at the same position.
        let renamed = join(delta_rel("R", ["A", "B"]), delta_rel("R", ["A", "C"]));
        assert_eq!(
            kept_checked(&trigger_on_r(vec![(&[], sum_total(renamed))])),
            [0]
        );
    }

    #[test]
    fn exists_directly_over_the_batch_keeps_every_position() {
        let e = sum_total(exists(delta_rel("R", ["A", "B"])));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&[], e)])), [0, 1]);
        // A `Sum` between the two makes the reference linear again.
        let e = sum_total(exists(sum(["B"], delta_rel("R", ["A", "B"]))));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&[], e)])), [1]);
    }

    #[test]
    fn a_guard_leaf_pins_no_position_by_itself() {
        let leaf = || exists(delta_rel("R", ["A", "B"]));
        // A domain guard over `A`: `B` is read nowhere else.
        let guard = sum(["A"], exists(sum(["A"], leaf())));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&["A"], guard)])), [0]);
        // A comparison inside the guard still reads `B`.
        let guard = exists(sum(["A"], join(leaf(), cmp_lit("B", CmpOp::Gt, 3))));
        assert_eq!(
            kept_checked(&trigger_on_r(vec![(&["A"], sum(["A"], guard))])),
            [0, 1]
        );
        // So does the delta the guard sits beside.
        let guarded = sum(
            ["A"],
            join(
                exists(sum(["A"], leaf())),
                sum(["A"], join(delta_rel("R", ["A", "B"]), val_var("B"))),
            ),
        );
        assert_eq!(kept_checked(&trigger_on_r(vec![(&["A"], guarded)])), [0, 1]);
    }

    #[test]
    fn union_branches_are_separate_scopes() {
        let d = || delta_rel("R", ["A", "B"]);
        // `B` is named on both branches, but each branch sums it away.
        let e = sum(["A"], union(d(), d()));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&["A"], e)])), [0]);
        // A use on one branch pins it.
        let e = sum(["A"], union(d(), join(d(), val_var("B"))));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&["A"], e)])), [0, 1]);
        // A use outside the union sees both branches.
        let e = sum_total(join(union(d(), d()), val_var("B")));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&[], e)])), [1]);
    }

    #[test]
    fn a_column_used_anywhere_else_is_kept() {
        let d = || delta_rel("R", ["A", "B"]);
        let cases: Vec<(&[&str], Expr)> = vec![
            (&[], sum_total(join(d(), cmp_lit("B", CmpOp::Gt, 3)))),
            (&[], sum_total(join(d(), val_var("B")))),
            (
                &["X"],
                sum(["X"], join(d(), assign_val("X", ValExpr::var("B")))),
            ),
            (&[], sum_total(join(sum(["B"], d()), view("S", ["C"])))),
            (&["B"], sum(["B"], d())),
            (&[], sum_total(join(d(), view("S", ["B"])))),
        ];
        for (target, expr) in cases {
            assert_eq!(
                kept_checked(&trigger_on_r(vec![(target, expr.clone())])),
                [1],
                "{expr}"
            );
        }
    }

    #[test]
    fn an_aggregate_under_assignment_drops_only_what_it_sums_away() {
        let nested = sum_total(join(delta_rel("R", ["A", "B"]), val_var("B")));
        let e = sum_total(join(assign_query("X", nested), val_var("X")));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&[], e)])), [1]);
        // Directly under `:=`, the batch is not behind a `Sum`.
        let e = sum_total(join(
            assign_query("X", delta_rel("R", ["A", "B"])),
            val_var("X"),
        ));
        assert_eq!(kept_checked(&trigger_on_r(vec![(&[], e)])), [0, 1]);
    }

    #[test]
    fn a_position_is_kept_if_any_statement_needs_it() {
        let t = trigger_on_r(vec![
            (&["B"], sum(["B"], delta_rel("R", ["A", "B"]))),
            (&["A"], sum(["A"], delta_rel("R", ["A", "B"]))),
        ]);
        assert_eq!(kept_checked(&t), [0, 1]);
    }

    #[test]
    fn a_comparison_every_statement_applies_filters_the_batch() {
        let d = || delta_rel("R", ["A", "B"]);
        let t = trigger_on_r(vec![
            (&["B"], sum(["B"], join(d(), cmp_lit("A", CmpOp::Gt, 5)))),
            (
                &[],
                sum_total(join_all([
                    d(),
                    view("S", ["B"]),
                    cmp_lit("A", CmpOp::Gt, 5),
                ])),
            ),
        ]);
        let prep = prep_checked(&t);
        assert_eq!(prep.filter, [cmp_lit("A", CmpOp::Gt, 5)]);
        // `A` was read by the filter only, so it dies.
        assert_eq!(prep.kept, [1]);
        assert_eq!(prep.describe(), "Δ keeps 1/2: B; Δ filter (A > 5)");
        let (_, narrowed) = t.preprocessing();
        assert_eq!(
            narrowed.statements[0].expr,
            sum(["B"], delta_rel("R", ["B"]))
        );
        // The filter drops tuples before they are projected and summed.
        let batch = Relation::from_pairs(
            t.relation_schema.clone(),
            (0..12i64).map(|i| (hotdog_algebra::tuple![i, i % 3], 1.0)),
        );
        let mut into = Relation::new(prep.schema.clone());
        prep.apply_into(&batch, &mut into);
        assert_eq!(prep.apply(&batch).len(), 3);
        assert!(into.approx_eq(&prep.apply(&batch)));
        assert_eq!(prep.apply(&batch).get(&hotdog_algebra::tuple![0i64]), 2.0);
    }

    #[test]
    fn a_comparison_one_statement_lacks_is_no_filter() {
        let d = || delta_rel("R", ["A", "B"]);
        let t = trigger_on_r(vec![
            (&["B"], sum(["B"], join(d(), cmp_lit("A", CmpOp::Gt, 5)))),
            (&["B"], sum(["B"], d())),
        ]);
        assert!(prep_checked(&t).filter.is_empty());
        // Only the comparisons all statements share filter the batch.
        let t = trigger_on_r(vec![
            (
                &[],
                sum_total(join_all([
                    d(),
                    cmp_lit("A", CmpOp::Gt, 5),
                    cmp_lit("B", CmpOp::Ne, 2),
                ])),
            ),
            (&[], sum_total(join(d(), cmp_lit("B", CmpOp::Ne, 2)))),
        ]);
        let prep = prep_checked(&t);
        assert_eq!(prep.filter, [cmp_lit("B", CmpOp::Ne, 2)]);
        assert_eq!(prep.kept, [0]);
    }

    #[test]
    fn comparisons_match_by_position_not_by_name() {
        // Statements name the batch's columns differently: the filter is
        // the same by position and is named by the relation schema.
        let t = trigger_on_r(vec![
            (
                &[],
                sum_total(join(delta_rel("R", ["A", "B"]), cmp_lit("A", CmpOp::Gt, 5))),
            ),
            (
                &[],
                sum_total(join(delta_rel("R", ["X", "Y"]), cmp_lit("X", CmpOp::Gt, 5))),
            ),
        ]);
        assert_eq!(prep_checked(&t).filter, [cmp_lit("A", CmpOp::Gt, 5)]);
        // The same name at another position is another comparison.
        let t = trigger_on_r(vec![
            (
                &[],
                sum_total(join(delta_rel("R", ["A", "B"]), cmp_lit("A", CmpOp::Gt, 1))),
            ),
            (
                &[],
                sum_total(join(delta_rel("R", ["B", "A"]), cmp_lit("A", CmpOp::Gt, 1))),
            ),
        ]);
        assert!(prep_checked(&t).filter.is_empty());
    }

    /// The weight too: every case multiplies its batch by `(A > 5) * [B]`.
    #[test]
    fn any_other_read_of_the_batch_disables_the_filter() {
        let d = || delta_rel("R", ["A", "B"]);
        let factors = || join(cmp_lit("A", CmpOp::Gt, 5), val_var("B"));
        let cases: Vec<Expr> = vec![
            // Under `Union`.
            sum_total(join(union(d(), d()), factors())),
            // Under `Exists`.
            sum_total(join(exists(d()), factors())),
            // Under `:=`.
            sum_total(join_all([assign_query("X", d()), factors(), val_var("X")])),
            // A top-level read plus a second one under `:=`.
            sum_total(join_all([
                d(),
                factors(),
                assign_query("X", sum(["B"], delta_rel("R", ["A2", "B"]))),
                val_var("X"),
            ])),
            // Read twice.
            sum_total(join_all([d(), delta_rel("R", ["A", "C"]), factors()])),
        ];
        for expr in cases {
            let t = trigger_on_r(vec![(&[], expr.clone())]);
            assert_eq!(t.batch_factors(), (vec![], vec![]), "{expr}");
            prep_checked(&t);
        }
    }

    #[test]
    fn a_value_term_every_statement_applies_weighs_the_batch() {
        let d = || delta_rel("R", ["A", "B"]);
        let t = trigger_on_r(vec![
            (&["A"], sum(["A"], join(d(), val_var("B")))),
            (
                &[],
                sum_total(join_all([d(), view("S", ["A"]), val_var("B")])),
            ),
        ]);
        let prep = prep_checked(&t);
        assert_eq!(prep.weight, [val_var("B")]);
        // `B` was read by the weight only, so it dies.
        assert_eq!(prep.describe(), "Δ keeps 1/2: A; Δ weight [B]");
        let (_, narrowed) = t.preprocessing();
        assert_eq!(
            narrowed.statements[0].expr,
            sum(["A"], delta_rel("R", ["A"]))
        );
        // A term one statement lacks is no weight; a term applied twice
        // leaves one application in the statement.
        let t = trigger_on_r(vec![
            (&["A"], sum(["A"], join(d(), val_var("B")))),
            (&["A"], sum(["A"], d())),
        ]);
        assert!(prep_checked(&t).weight.is_empty());
        let twice = sum(["A"], join_all([d(), val_var("B"), val_var("B")]));
        let t = trigger_on_r(vec![(&["A"], twice)]);
        assert_eq!(prep_checked(&t).weight, [val_var("B")]);
        assert_eq!(
            t.preprocessing().1.statements[0].expr,
            sum(["A"], join(delta_rel("R", ["A", "B"]), val_var("B")))
        );
    }

    /// The filter and the weight compiled to positions agree, tuple by
    /// tuple, with [`ValExpr::eval`] and [`CmpOp::eval`] by name.
    #[test]
    fn compiled_filter_and_weight_agree_with_evaluation_by_name() {
        use hotdog_algebra::tuple;
        let schema = Schema::new(["A", "B", "C"]);
        let var = ValExpr::var;
        let bin = |f: fn(Box<ValExpr>, Box<ValExpr>) -> ValExpr, a: ValExpr, b: ValExpr| {
            f(Box::new(a), Box::new(b))
        };
        let weight = vec![
            Expr::Val(bin(
                ValExpr::Div,
                bin(
                    ValExpr::Mul,
                    var("A"),
                    bin(ValExpr::Sub, ValExpr::lit(1i64), var("C")),
                ),
                bin(ValExpr::Add, var("B"), ValExpr::lit(0.5)),
            )),
            Expr::Val(var("C")),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let batch = Relation::from_pairs(
            schema.clone(),
            (0..60i64).map(|i| {
                let t = tuple![i % 5, (i % 7) as f64 - 0.5, (i % 3) as f64 * 0.25];
                (t, if i % 4 == 0 { -1.0 } else { 2.0 })
            }),
        );
        for op in ops {
            let filter = vec![
                cmp_lit("A", op, 2),
                Expr::Cmp {
                    op,
                    lhs: bin(ValExpr::Add, var("B"), ValExpr::lit(1i64)),
                    rhs: var("C"),
                },
            ];
            let prep = BatchPrep::new(filter.clone(), weight.clone(), schema.clone(), vec![0]);
            for (t, m) in batch.iter() {
                let lookup = |name: &str| schema.position(name).map(|i| t.get(i).clone());
                let admits = filter.iter().all(|f| match f {
                    Expr::Cmp { op, lhs, rhs } => op.eval(&lhs.eval(&lookup), &rhs.eval(&lookup)),
                    _ => unreachable!(),
                });
                let by_name = match admits {
                    false => 0.0,
                    true => weight.iter().fold(m, |m, w| match w {
                        Expr::Val(v) => m * v.eval(&lookup).as_f64(),
                        _ => unreachable!(),
                    }),
                };
                assert_eq!(
                    prep.weigh(t, m).to_bits(),
                    by_name.to_bits(),
                    "{op:?} {t:?}"
                );
            }
            let mut into = Relation::new(prep.schema.clone());
            prep.apply_into(&batch, &mut into);
            assert!(into.approx_eq(&prep.apply(&batch)), "{op:?}");
        }
    }

    /// The compiled recursive plan of catalog query `id`.
    fn catalog_plan(id: &str) -> MaintenancePlan {
        let q = hotdog_workload::query(id).unwrap();
        crate::compile_recursive(q.id, &q.expr)
    }

    /// Each trigger's preprocessing in the catalog query `id`, per relation.
    fn catalog_prep(id: &str) -> BTreeMap<String, BatchPrep> {
        catalog_plan(id)
            .triggers
            .iter()
            .map(|t| (t.relation.clone(), t.preprocessing().0))
            .collect()
    }

    #[test]
    fn q3_keeps_the_columns_its_triggers_read() {
        let prep = catalog_prep("Q3");
        let cols = |r: &str| prep[r].schema.columns().to_vec();
        assert_eq!(cols("CUSTOMER"), ["CK"]);
        assert_eq!(
            cols("ORDERS"),
            ["OK", "CK", "o_orderdate", "o_shippriority"]
        );
        // The revenue term is LINEITEM's weight, so its columns die.
        assert_eq!(cols("LINEITEM"), ["OK"]);
        let revenue = ValExpr::Mul(
            Box::new(ValExpr::var("l_extendedprice")),
            Box::new(ValExpr::Sub(
                Box::new(ValExpr::lit(1i64)),
                Box::new(ValExpr::var("l_discount")),
            )),
        );
        assert_eq!(prep["LINEITEM"].weight, [Expr::Val(revenue)]);
        assert!(prep["CUSTOMER"].weight.is_empty() && prep["ORDERS"].weight.is_empty());
        assert_eq!(
            prep["CUSTOMER"].filter,
            [cmp_lit("c_mktsegment", CmpOp::Eq, 1)]
        );
        assert_eq!(
            prep["LINEITEM"].filter,
            [cmp_lit("l_shipdate", CmpOp::Gt, 19950315)]
        );
        assert_eq!(
            prep["ORDERS"].filter,
            [cmp_lit("o_orderdate", CmpOp::Lt, 19950315)]
        );
    }

    /// LINEITEM's batch is read by a domain guard and on two branches of
    /// one union; neither pins a column, so it keeps the order key and the
    /// quantity its nested `Sum` adds up.
    #[test]
    fn q18_keeps_keys_and_all_of_the_lineitem_it_tests_for_existence() {
        let prep = catalog_prep("Q18");
        assert_eq!(prep["CUSTOMER"].schema.columns(), ["CK"]);
        assert_eq!(prep["ORDERS"].schema.columns(), ["OK", "CK"]);
        assert_eq!(prep["LINEITEM"].describe(), "Δ keeps 2/10: OK, l_quantity");
        for (relation, p) in &prep {
            assert!(p.filter.is_empty(), "{relation}: {}", p.describe());
        }
    }

    #[test]
    fn no_comparison_is_left_beside_a_view_that_binds_it() {
        // Every comparison over variables one view factor binds is
        // materialized inside that view (compiler.rs, `materialize_join`).
        fn check(e: &Expr, site: &str, found: &mut Vec<String>) {
            if let Expr::Join(..) = e {
                let factors = join_factors(e);
                for f in &factors {
                    let Expr::Cmp { lhs, rhs, .. } = f else {
                        continue;
                    };
                    let vars = lhs.variables().union(&rhs.variables());
                    let beside = factors.iter().find(|v| {
                        matches!(v, Expr::Rel(r) if r.kind == RelKind::View
                            && vars.subset_of(&r.schema()))
                    });
                    if let Some(v) = beside {
                        found.push(format!("{site}: {f} beside {v}"));
                    }
                }
                for f in &factors {
                    f.children().into_iter().for_each(|c| check(c, site, found));
                }
            } else {
                e.children().into_iter().for_each(|c| check(c, site, found));
            }
        }
        let mut found = Vec::new();
        for q in hotdog_workload::all_queries() {
            for t in catalog_plan(q.id).triggers {
                for s in &t.statements {
                    check(
                        &s.expr,
                        &format!("{} ON {} {s}", q.id, t.relation),
                        &mut found,
                    );
                }
            }
        }
        assert!(found.is_empty(), "{}", found.join("\n"));
    }

    #[test]
    fn statement_display_is_readable() {
        let s = Statement {
            target: "Q".into(),
            target_schema: Schema::new(["B"]),
            op: StmtOp::AddTo,
            expr: join(delta_rel("R", ["A", "B"]), view("M_ST", ["B"])),
        };
        let txt = s.to_string();
        assert!(txt.contains("Q"));
        assert!(txt.contains("+="));
        assert!(txt.contains("M_ST"));
    }
}
