//! Reference evaluator for algebra expressions.
//!
//! Implements the paper's model of computation (Section 3.2.1): operator
//! trees are evaluated left to right, bottom up; information about bound
//! variables flows from left to right through joins, and relational terms
//! are compiled to `foreach` (no variable bound), `get` (all bound) or
//! `slice` (some bound) accesses against the backing store — exactly the
//! access patterns the storage layer specializes for.
//!
//! The evaluator is written in continuation-passing style over a [`Catalog`]
//! abstraction, so the same code evaluates queries against plain hash-map
//! relations (tests, baselines, the re-evaluation strategy), against record
//! pools (the local execution engine) and against per-worker partitions (the
//! distributed runtime).
//!
//! Evaluating a statement allocates nothing per binding or per scanned or
//! sliced tuple; a join or an aggregate allocates its scratch once per
//! call.  The
//! [`Env`] borrows every variable name from the expression being
//! evaluated, a join keeps its left side's bindings in one flat frame, and
//! a relation reference emits each tuple from inside the catalog's
//! `scan`/`slice` callback rather than copying it out first.  The last is
//! sound because every continuation the evaluator passes down is a leaf:
//! a join materializes its left side before it streams the right one, and
//! the only other continuations fold into a result relation or a group
//! map, so no continuation re-enters the evaluator or the catalog.

use crate::expr::{Expr, RelKind, RelRef};
use crate::hash::DetMap;
use crate::relation::Relation;
use crate::ring::Mult;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// Access to stored relations during evaluation.
///
/// `kind` routes the lookup: `Base`/`View` hit materialized state, `Delta`
/// hits the update batch currently being processed.
pub trait Catalog {
    /// Iterate over all tuples of a relation.
    fn scan(&self, name: &str, kind: RelKind, f: &mut dyn FnMut(&[Value], Mult));

    /// Multiplicity of an exact key (0 when absent).
    fn lookup(&self, name: &str, kind: RelKind, key: &[Value]) -> Mult;

    /// Iterate over tuples whose columns at `positions` equal `key_vals`,
    /// in the relation's iteration order.
    ///
    /// The default implementation scans and filters, which costs O(|R|)
    /// per probe; it is the reference that [`MapCatalog`] uses.  The
    /// execution catalogs override it: view slices probe the record pool's
    /// secondary indexes, and delta and temp slices are hash-indexed once
    /// per statement (by the catalog of `hotdog_exec::execute`), so each later probe
    /// costs O(matches).
    fn slice(
        &self,
        name: &str,
        kind: RelKind,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    ) {
        self.scan(name, kind, &mut |t, m| {
            if positions.iter().zip(key_vals).all(|(&p, v)| &t[p] == v) {
                f(t, m);
            }
        });
    }
}

/// Variable bindings with stack discipline (push during evaluation of a
/// subtree, truncate on the way out).
///
/// Every name is borrowed from the expression under evaluation (a
/// relation reference's columns, the variable of an assignment, a
/// group-by column), so pushing a binding allocates nothing.  Lookups scan
/// from the top of the stack, so a later binding shadows an earlier one.
#[derive(Default, Clone, Debug)]
pub struct Env<'e> {
    bindings: Vec<(&'e str, Value)>,
}

impl<'e> Env<'e> {
    pub fn new() -> Self {
        Env::default()
    }

    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    pub fn push(&mut self, var: &'e str, val: Value) {
        self.bindings.push((var, val));
    }

    pub fn truncate(&mut self, len: usize) {
        self.bindings.truncate(len);
    }

    /// Latest binding of a variable, if any.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(v, _)| *v == var)
            .map(|(_, val)| val)
    }

    pub fn is_bound(&self, var: &str) -> bool {
        self.get(var).is_some()
    }

    /// Project the environment onto the named columns, panicking on
    /// unbound ones.
    pub fn project(&self, names: &[&str]) -> Tuple {
        Tuple(
            names
                .iter()
                .map(|c| {
                    self.get(c)
                        .unwrap_or_else(|| panic!("column `{c}` unbound in result projection"))
                        .clone()
                })
                .collect(),
        )
    }
}

/// Evaluation statistics: number of storage operations issued.  These
/// counters are the substitute for the paper's CPU performance counters
/// (Table 2) and feed the distributed runtime's compute-cost model.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct EvalCounters {
    pub scans: u64,
    pub lookups: u64,
    pub slices: u64,
    pub tuples_visited: u64,
    pub emissions: u64,
    /// Tuples the catalog touched to answer scans and slices of deltas,
    /// temps and pools; building a slice index counts one pass over its
    /// relation.  Only the catalog sees this work, so the statement
    /// executor copies it from its catalog (the interpreters never set it),
    /// and it stays out of [`EvalCounters::instructions`].  Being real
    /// work, it is the one field where the interpreters can differ: the
    /// vectorized path scans an unconstrained mid-chain relation once,
    /// where the row path re-scans it per driving row.
    pub tuples_touched: u64,
}

impl EvalCounters {
    /// Aggregate "instruction" count: a weighted sum of the storage
    /// operations performed, loosely modelling retired instructions.
    /// `tuples_touched` is deliberately not part of it.
    pub fn instructions(&self) -> u64 {
        self.scans * 8
            + self.lookups * 12
            + self.slices * 16
            + self.tuples_visited * 24
            + self.emissions * 8
    }

    pub fn add(&mut self, other: &EvalCounters) {
        self.scans += other.scans;
        self.lookups += other.lookups;
        self.slices += other.slices;
        self.tuples_visited += other.tuples_visited;
        self.emissions += other.emissions;
        self.tuples_touched += other.tuples_touched;
    }
}

/// The evaluator.  Holds mutable counters so callers can meter work.
pub struct Evaluator<'a> {
    catalog: &'a dyn Catalog,
    pub counters: EvalCounters,
    /// Probe buffers [`Evaluator::stream_rel`] reuses from one relation
    /// reference to the next: bound positions and the key values.
    positions: Vec<usize>,
    key: Vec<Value>,
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a dyn Catalog) -> Self {
        Evaluator {
            catalog,
            counters: EvalCounters::default(),
            positions: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Evaluate an expression from an empty environment into a [`Relation`]
    /// over the expression's schema.
    pub fn eval(&mut self, expr: &Expr) -> Relation {
        self.eval_under(expr, &mut Env::new())
    }

    /// Evaluate an expression under an existing environment (used for
    /// correlated subqueries and by the trigger interpreter, which binds the
    /// current delta tuple before evaluating statement right-hand sides).
    pub fn eval_under<'e>(&mut self, expr: &'e Expr, env: &mut Env<'e>) -> Relation {
        // Columns already bound by the caller stay out of the "result" only
        // if the expression projects them away; the natural output schema
        // is the right thing to materialize.
        let names = expr.column_names();
        let mut rel = Relation::new(Schema::new(names.iter().copied()));
        let base = env.len();
        self.stream(expr, env, &mut |env, m| {
            rel.add(env.project(&names), m);
        });
        env.truncate(base);
        rel
    }

    /// Core continuation-passing evaluation.  Calls `out` once per produced
    /// tuple with the environment extended by this expression's bindings.
    pub fn stream<'e>(
        &mut self,
        expr: &'e Expr,
        env: &mut Env<'e>,
        out: &mut dyn FnMut(&mut Env<'e>, Mult),
    ) {
        match expr {
            Expr::Const(c) => {
                self.counters.emissions += 1;
                out(env, *c);
            }
            Expr::Val(v) => {
                let value = v.eval(&|name| env.get(name).cloned());
                self.counters.emissions += 1;
                out(env, value.as_f64());
            }
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(&|name| env.get(name).cloned());
                let r = rhs.eval(&|name| env.get(name).cloned());
                if op.eval(&l, &r) {
                    self.counters.emissions += 1;
                    out(env, 1.0);
                }
            }
            Expr::AssignVal { var, value } => {
                let v = value.eval(&|name| env.get(name).cloned());
                match env.get(var).map(|existing| *existing == v) {
                    Some(true) => out(env, 1.0),
                    Some(false) => {}
                    None => {
                        let base = env.len();
                        env.push(var, v);
                        out(env, 1.0);
                        env.truncate(base);
                    }
                }
            }
            Expr::Rel(r) => self.stream_rel(r, env, out),
            Expr::Union(l, r) => {
                let base = env.len();
                self.stream(l, env, out);
                env.truncate(base);
                self.stream(r, env, out);
                env.truncate(base);
            }
            Expr::Join(l, r) => {
                // Information flows left to right: the right operand sees the
                // bindings produced by the left operand.
                let base = env.len();
                self.stream_join(l, r, env, out);
                env.truncate(base);
            }
            Expr::Sum { group_by, body } => {
                let names = group_by.columns().iter().map(String::as_str);
                let groups = self.aggregate(body, names.clone(), env);
                self.emit_groups(names, groups, env, out, false);
            }
            Expr::Exists(q) => {
                let names = q.column_names();
                let groups = self.aggregate(q, names.iter().copied(), env);
                self.emit_groups(names.iter().copied(), groups, env, out, true);
            }
            Expr::AssignQuery { var, query } => {
                let names = query.column_names();
                let groups = self.aggregate(query, names.iter().copied(), env);
                let all_prebound = names.iter().all(|c| env.is_bound(c));
                if groups.is_empty() && all_prebound {
                    // Scalar nested aggregate over an empty input: SQL-style
                    // semantics yield the aggregate value 0.
                    let base = env.len();
                    if env.is_bound(var) {
                        if env.get(var) == Some(&Value::Double(0.0)) {
                            out(env, 1.0);
                        }
                    } else {
                        env.push(var, Value::Double(0.0));
                        out(env, 1.0);
                        env.truncate(base);
                    }
                    return;
                }
                let base = env.len();
                for (key, mult) in groups {
                    if mult == 0.0 {
                        continue;
                    }
                    if bind_key(env, names.iter().copied(), key) {
                        match env
                            .get(var)
                            .map(|existing| *existing == Value::Double(mult))
                        {
                            Some(true) => out(env, 1.0),
                            Some(false) => {}
                            None => {
                                env.push(var, Value::Double(mult));
                                out(env, 1.0);
                            }
                        }
                    }
                    env.truncate(base);
                }
            }
        }
    }

    fn stream_join<'e>(
        &mut self,
        left: &'e Expr,
        right: &'e Expr,
        env: &mut Env<'e>,
        out: &mut dyn FnMut(&mut Env<'e>, Mult),
    ) {
        // Materialize the left side's emissions to avoid nested mutable
        // borrows of `self` inside the continuation.  Each emission captures
        // only the bindings added by the left subtree, as the range
        // `start..end` of one flat frame shared by all of them.
        let base = env.len();
        let mut frame: Vec<(&'e str, Value)> = Vec::new();
        let mut left_rows: Vec<(usize, usize, Mult)> = Vec::new();
        self.stream(left, env, &mut |env2, m| {
            let start = frame.len();
            frame.extend_from_slice(&env2.bindings[base..]);
            left_rows.push((start, frame.len(), m));
        });
        env.truncate(base);
        for &(start, end, m1) in &left_rows {
            env.bindings.extend_from_slice(&frame[start..end]);
            self.stream(right, env, &mut |env2, m2| {
                out(env2, m1 * m2);
            });
            env.truncate(base);
        }
    }

    fn stream_rel<'e>(
        &mut self,
        r: &'e RelRef,
        env: &mut Env<'e>,
        out: &mut dyn FnMut(&mut Env<'e>, Mult),
    ) {
        // Determine which positional columns are already bound.  A repeated
        // unbound column within the same reference, e.g. R(A, A), is
        // handled by the equality filter inside `emit` below.
        let mut positions = std::mem::take(&mut self.positions);
        let mut key = std::mem::take(&mut self.key);
        positions.clear();
        key.clear();
        for (i, col) in r.cols.iter().enumerate() {
            if let Some(v) = env.get(col) {
                positions.push(i);
                key.push(v.clone());
            }
        }

        let name = r.name.as_str();
        let kind = r.kind;
        let cols = &r.cols;
        // `out` is a leaf continuation (see the module docs), so it may run
        // inside the catalog's callback.
        let catalog = self.catalog;
        let mut visited = 0u64;
        let mut emit = |t: &[Value], m: Mult| {
            visited += 1;
            let base = env.len();
            let mut ok = true;
            for (i, col) in cols.iter().enumerate() {
                match env.get(col) {
                    Some(existing) => {
                        if existing != &t[i] {
                            ok = false;
                            break;
                        }
                    }
                    None => env.push(col, t[i].clone()),
                }
            }
            if ok {
                out(env, m);
            }
            env.truncate(base);
        };

        if positions.len() == cols.len() && !cols.is_empty() {
            // All columns bound: point lookup.
            self.counters.lookups += 1;
            let m = catalog.lookup(name, kind, &key);
            if m != 0.0 {
                self.counters.tuples_visited += 1;
                out(env, m);
            }
        } else if positions.is_empty() {
            // Nothing bound: full scan.
            self.counters.scans += 1;
            catalog.scan(name, kind, &mut emit);
            self.counters.tuples_visited += visited;
        } else {
            // Some columns bound: index slice.
            self.counters.slices += 1;
            catalog.slice(name, kind, &positions, &key, &mut emit);
            self.counters.tuples_visited += visited;
        }
        self.positions = positions;
        self.key = key;
    }

    /// Evaluate `body` and aggregate multiplicities grouped by `group_by`
    /// (whose columns may be bound either by the body or by the outer
    /// environment — correlation).
    fn aggregate<'e>(
        &mut self,
        body: &'e Expr,
        group_by: impl Iterator<Item = &'e str> + Clone,
        env: &mut Env<'e>,
    ) -> Vec<(Tuple, Mult)> {
        let mut groups: DetMap<Tuple, Mult> = DetMap::default();
        let mut key: Vec<Value> = Vec::new();
        let base = env.len();
        self.stream(body, env, &mut |env2, m| {
            key.clear();
            key.extend(group_by.clone().map(|c| {
                env2.get(c)
                    .unwrap_or_else(|| panic!("group-by column `{c}` unbound"))
                    .clone()
            }));
            match groups.get_mut(key.as_slice()) {
                Some(acc) => *acc += m,
                // `0.0 + m`, not `m`: a new group starts at 0 and adds, so
                // a first `-0.0` lands as `0.0`.
                None => {
                    groups.insert(Tuple::from(key.clone()), 0.0 + m);
                }
            }
        });
        env.truncate(base);
        let mut v: Vec<(Tuple, Mult)> = groups
            .into_iter()
            .filter(|(_, m)| m.abs() >= crate::ring::MULT_EPSILON)
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn emit_groups<'e>(
        &mut self,
        names: impl Iterator<Item = &'e str> + Clone,
        groups: Vec<(Tuple, Mult)>,
        env: &mut Env<'e>,
        out: &mut dyn FnMut(&mut Env<'e>, Mult),
        exists_semantics: bool,
    ) {
        let base = env.len();
        for (key, mult) in groups {
            if bind_key(env, names.clone(), key) {
                self.counters.emissions += 1;
                out(env, if exists_semantics { 1.0 } else { mult });
            }
            env.truncate(base);
        }
    }
}

/// Bind each name to its key value, or check it against an existing
/// binding; `false` at the first mismatch (the caller truncates).
fn bind_key<'e>(env: &mut Env<'e>, names: impl Iterator<Item = &'e str>, key: Tuple) -> bool {
    for (c, v) in names.zip(key.0) {
        match env.get(c) {
            Some(existing) => {
                if *existing != v {
                    return false;
                }
            }
            None => env.push(c, v),
        }
    }
    true
}

/// A straightforward [`Catalog`] backed by hash-map [`Relation`]s, used by
/// tests, the re-evaluation baseline and the distributed driver.
#[derive(Default, Clone, Debug)]
pub struct MapCatalog {
    relations: HashMap<(RelKind, String), Relation>,
}

impl MapCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, kind: RelKind, rel: Relation) {
        self.relations.insert((kind, name.into()), rel);
    }

    pub fn get_relation(&self, name: &str, kind: RelKind) -> Option<&Relation> {
        self.relations.get(&(kind, name.to_string()))
    }

    pub fn get_relation_mut(&mut self, name: &str, kind: RelKind) -> Option<&mut Relation> {
        self.relations.get_mut(&(kind, name.to_string()))
    }

    pub fn remove(&mut self, name: &str, kind: RelKind) -> Option<Relation> {
        self.relations.remove(&(kind, name.to_string()))
    }

    pub fn names(&self) -> impl Iterator<Item = (&RelKind, &String)> {
        self.relations.keys().map(|(k, n)| (k, n))
    }
}

impl Catalog for MapCatalog {
    fn scan(&self, name: &str, kind: RelKind, f: &mut dyn FnMut(&[Value], Mult)) {
        if let Some(rel) = self.relations.get(&(kind, name.to_string())) {
            for (t, m) in rel.iter() {
                f(&t.0, m);
            }
        }
    }

    fn lookup(&self, name: &str, kind: RelKind, key: &[Value]) -> Mult {
        self.relations
            .get(&(kind, name.to_string()))
            .map(|r| r.get(key))
            .unwrap_or(0.0)
    }
}

/// Evaluate an expression against a catalog from an empty environment.
pub fn evaluate(expr: &Expr, catalog: &dyn Catalog) -> Relation {
    Evaluator::new(catalog).eval(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::tuple;

    fn catalog() -> MapCatalog {
        let mut cat = MapCatalog::new();
        cat.insert(
            "R",
            RelKind::Base,
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                vec![
                    (tuple![1, 10], 1.0),
                    (tuple![2, 10], 1.0),
                    (tuple![3, 20], 2.0),
                ],
            ),
        );
        cat.insert(
            "S",
            RelKind::Base,
            Relation::from_pairs(
                Schema::new(["B", "C"]),
                vec![(tuple![10, 100], 1.0), (tuple![20, 200], 3.0)],
            ),
        );
        cat
    }

    #[test]
    fn scan_relation() {
        let cat = catalog();
        let r = evaluate(&rel("R", ["A", "B"]), &cat);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(&tuple![3, 20]), 2.0);
    }

    #[test]
    fn natural_join_multiplies_multiplicities() {
        let cat = catalog();
        let q = join(rel("R", ["A", "B"]), rel("S", ["B", "C"]));
        let r = evaluate(&q, &cat);
        assert_eq!(r.get(&tuple![1, 10, 100]), 1.0);
        assert_eq!(r.get(&tuple![3, 20, 200]), 6.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn sum_groups_and_counts() {
        let cat = catalog();
        // COUNT(*) GROUP BY B over R ⋈ S
        let q = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
        let r = evaluate(&q, &cat);
        assert_eq!(r.get(&tuple![10]), 2.0);
        assert_eq!(r.get(&tuple![20]), 6.0);
    }

    #[test]
    fn total_aggregate_is_scalar() {
        let cat = catalog();
        let q = sum_total(rel("R", ["A", "B"]));
        let r = evaluate(&q, &cat);
        assert_eq!(r.scalar_value(), 4.0);
    }

    #[test]
    fn comparison_filters() {
        let cat = catalog();
        let q = sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 15)));
        assert_eq!(evaluate(&q, &cat).scalar_value(), 2.0);
    }

    #[test]
    fn value_term_weights_multiplicity() {
        let cat = catalog();
        // SUM(A) over R
        let q = sum_total(join(rel("R", ["A", "B"]), val_var("A")));
        assert_eq!(evaluate(&q, &cat).scalar_value(), 1.0 + 2.0 + 3.0 * 2.0);
    }

    #[test]
    fn exists_collapses_multiplicities() {
        let cat = catalog();
        let q = exists(sum(["B"], rel("R", ["A", "B"])));
        let r = evaluate(&q, &cat);
        assert_eq!(r.get(&tuple![10]), 1.0);
        assert_eq!(r.get(&tuple![20]), 1.0);
    }

    #[test]
    fn nested_aggregate_correlated() {
        let cat = catalog();
        // SELECT COUNT(*) FROM R WHERE R.A < (SELECT COUNT(*) FROM S WHERE S.B = R.B)
        let nested = sum_total(join(rel("S", ["B2", "C"]), cmp_vars("B", CmpOp::Eq, "B2")));
        let q = sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_query("X", nested),
            cmp_vars("A", CmpOp::Lt, "X"),
        ]));
        // R tuples: (1,10): nested count over S with B=10 -> 1, A=1 < 1? no.
        //           (2,10): 2 < 1? no. (3,20): nested count = 3, 3 < 3? no.
        assert_eq!(evaluate(&q, &cat).scalar_value(), 0.0);

        // Loosen to <=: (1,10) passes (1<=1), (3,20) passes with mult 2.
        let nested = sum_total(join(rel("S", ["B2", "C"]), cmp_vars("B", CmpOp::Eq, "B2")));
        let q = sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_query("X", nested),
            cmp_vars("A", CmpOp::Le, "X"),
        ]));
        assert_eq!(evaluate(&q, &cat).scalar_value(), 3.0);
    }

    #[test]
    fn nested_aggregate_uncorrelated_empty_gives_zero() {
        let mut cat = catalog();
        cat.insert("T", RelKind::Base, Relation::new(Schema::new(["D"])));
        // X := COUNT(T); R tuples where A > X (X = 0, so all pass).
        let q = sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_query("X", sum_total(rel("T", ["D"]))),
            cmp_vars("A", CmpOp::Gt, "X"),
        ]));
        assert_eq!(evaluate(&q, &cat).scalar_value(), 4.0);
    }

    #[test]
    fn union_sums_multiplicities() {
        let cat = catalog();
        let q = sum(["B"], union(rel("R", ["A", "B"]), rel("R", ["A", "B"])));
        let r = evaluate(&q, &cat);
        assert_eq!(r.get(&tuple![10]), 4.0);
    }

    #[test]
    fn difference_cancels() {
        let cat = catalog();
        let q = sum(["B"], rel("R", ["A", "B"]) - rel("R", ["A", "B"]));
        assert!(evaluate(&q, &cat).is_empty());
    }

    #[test]
    fn counters_track_access_patterns() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // R drives the join; S is probed by slice on B.
        let q = join(rel("R", ["A", "B"]), rel("S", ["B", "C"]));
        ev.eval(&q);
        assert_eq!(ev.counters.scans, 1);
        assert!(ev.counters.slices >= 3);
        assert!(ev.counters.instructions() > 0);
    }

    #[test]
    fn assign_val_binds_and_checks() {
        let cat = catalog();
        let q = sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_val("K", ValExpr::lit(10)),
            cmp_vars("B", CmpOp::Eq, "K"),
        ]));
        assert_eq!(evaluate(&q, &cat).scalar_value(), 2.0);
    }

    #[test]
    fn delta_relations_resolve_against_delta_kind() {
        let mut cat = catalog();
        cat.insert(
            "R",
            RelKind::Delta,
            Relation::from_pairs(Schema::new(["A", "B"]), vec![(tuple![9, 10], 1.0)]),
        );
        let q = sum(
            ["B"],
            join(delta_rel("R", ["A", "B"]), rel("S", ["B", "C"])),
        );
        let r = evaluate(&q, &cat);
        assert_eq!(r.get(&tuple![10]), 1.0);
        assert_eq!(r.len(), 1);
    }
}
