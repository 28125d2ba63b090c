//! View-maintenance compilers.
//!
//! Three strategies are provided, matching the systems compared in the
//! paper's evaluation:
//!
//! * [`compile_recursive`] — recursive incremental view maintenance
//!   (Section 2.2): auxiliary views materialize the update-independent parts
//!   of every delta, recursively, until deltas reference no stored relations;
//!   then the batch-only terms of each statement become per-batch temps
//!   ([`hoist_batch_terms`]).
//! * [`compile_classical`] — classical first-order IVM: one delta query per
//!   base relation evaluated against materialized base tables (the
//!   "IVM (PostgreSQL)" baseline of Figure 8 / Table 1).
//! * [`compile_reevaluation`] — re-evaluate the query from materialized base
//!   tables after applying each batch (the "Re-eval" baseline).

use crate::delta::{base_relations, delta};
use crate::hoist::hoist_batch_terms;
use crate::plan::{
    variable_uses, MaintenancePlan, Statement, StmtOp, Strategy, Trigger, Uses, ViewDef,
};
use crate::simplify::{is_zero, join_factors, join_of, simplify};
use hotdog_algebra::expr::{Expr, RelKind, RelRef};
use hotdog_algebra::schema::Schema;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Compile a query with the requested maintenance strategy.
pub fn compile(name: &str, query: &Expr, strategy: Strategy) -> MaintenancePlan {
    match strategy {
        Strategy::Reevaluation => compile_reevaluation(name, query),
        Strategy::ClassicalIvm => compile_classical(name, query),
        Strategy::RecursiveIvm => compile_recursive(name, query),
    }
}

// ---------------------------------------------------------------------------
// Recursive incremental view maintenance
// ---------------------------------------------------------------------------

struct RecursiveCompiler {
    views: Vec<ViewDef>,
    /// canonical definition text -> index into `views`
    canon: HashMap<String, usize>,
    /// (relation, statement, target definition degree, creation index)
    statements: Vec<(String, Statement, usize, usize)>,
    /// canonical schema of each base relation (first-occurrence column names)
    base_schemas: BTreeMap<String, Vec<String>>,
    counter: usize,
    /// Canonical definition of the view each value-term fold replaced.
    /// Canonical definition of the view each value-term fold replaced.
    folded: Vec<String>,
    /// Views that must not be replaced by a fold: each has a twin in an
    /// earlier compilation of the same query.
    no_fold: BTreeSet<String>,
}

/// Compile a query into a recursive incremental view maintenance plan,
/// with the batch-only terms of its statements hoisted into per-batch
/// temps ([`hoist_batch_terms`]).
///
/// A value term folded into a view must not leave the view it replaced
/// beside it: the two would store the same relations twice.  So when a
/// fold's unfolded twin is among the plan's views, the query is compiled
/// again without that fold, until no fold has a twin.
pub fn compile_recursive(name: &str, query: &Expr) -> MaintenancePlan {
    let mut no_fold = BTreeSet::new();
    loop {
        let c = recursive_views(name, query, no_fold.clone());
        let twins: Vec<String> = (c.folded.iter())
            .filter(|&unfolded| c.canon.contains_key(unfolded))
            .cloned()
            .collect();
        if twins.is_empty() {
            let mut plan = build_plan(
                name,
                Strategy::RecursiveIvm,
                c.views,
                c.statements,
                &c.base_schemas,
            );
            hoist_batch_terms(&mut plan);
            return plan;
        }
        no_fold.extend(twins);
    }
}

/// The views and statements of `query`'s recursive plan, with no fold
/// that would replace a view in `no_fold`.
fn recursive_views(name: &str, query: &Expr, no_fold: BTreeSet<String>) -> RecursiveCompiler {
    let mut c = RecursiveCompiler {
        views: Vec::new(),
        canon: HashMap::new(),
        statements: Vec::new(),
        base_schemas: BTreeMap::new(),
        counter: 0,
        folded: Vec::new(),
        no_fold,
    };
    for r in query.relations() {
        if r.kind == RelKind::Base {
            c.base_schemas
                .entry(r.name.clone())
                .or_insert(r.cols.clone());
        }
    }

    let top_schema = query.schema();
    c.views.push(ViewDef {
        name: name.to_string(),
        schema: top_schema,
        definition: query.clone(),
        is_top: true,
    });
    c.canon.insert(canonical(query), 0);

    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);
    let mut processed = 0usize;
    while let Some(vi) = queue.pop_front() {
        processed += 1;
        assert!(
            processed < 10_000,
            "recursive compilation did not terminate"
        );
        let vdef = c.views[vi].clone();
        for base in base_relations(&vdef.definition) {
            let d = delta(&vdef.definition, &base.name);
            if is_zero(&d) {
                continue;
            }
            let mut new_views = Vec::new();
            // `needed` = columns the statement must output (the target view's
            // schema); `bound` = columns already bound by the evaluation
            // context (none at statement entry — bindings are produced by the
            // batch and the views as evaluation proceeds left to right).
            let rewritten = c.materialize(&d, &vdef.schema, &Schema::empty(), &d, &mut new_views);
            let expr = simplify(&Expr::Sum {
                group_by: vdef.schema.clone(),
                body: Box::new(rewritten),
            });
            let degree = vdef.definition.degree();
            let idx = c.statements.len();
            c.statements.push((
                base.name.clone(),
                Statement {
                    target: vdef.name.clone(),
                    target_schema: vdef.schema.clone(),
                    op: StmtOp::AddTo,
                    expr,
                },
                degree,
                idx,
            ));
            for nv in new_views {
                queue.push_back(nv);
            }
        }
    }
    c
}

impl RecursiveCompiler {
    /// Replace every update-independent (delta-free) stored subexpression of
    /// `e` with a reference to a materialized auxiliary view, creating the
    /// view definitions on the fly.
    ///
    /// * `needed` — columns the surrounding statement must be able to output
    ///   (the target view schema plus enclosing group-by columns);
    /// * `bound` — columns already bound by the evaluation context *before*
    ///   this subexpression is reached (batch columns of factors to the
    ///   left, etc.); only these may be re-exposed as correlation columns of
    ///   an auxiliary view;
    /// * `scope` — the nearest `Sum` enclosing `e`, else the statement: a
    ///   variable its body binds that is neither grouped by nor bound by
    ///   the context is local to it.
    fn materialize(
        &mut self,
        e: &Expr,
        needed: &Schema,
        bound: &Schema,
        scope: &Expr,
        new_views: &mut Vec<usize>,
    ) -> Expr {
        // A whole delta-free, *flat* stored subexpression is materialized
        // directly (this is the path taken by nested-aggregate bodies such
        // as the per-partkey average of TPC-H Q17).  Non-flat expressions
        // (assignments, Exists) are never materialized wholesale because
        // lifting them would lose the variables they bind; we recurse into
        // them instead.
        if !e.has_delta_relations()
            && e.degree() >= 1
            && is_flat_stored(e)
            && !is_bare_view(e)
            && e.input_variables().is_empty()
        {
            return self.intern_group(e, bound, &needed.union(bound), new_views);
        }
        match e {
            Expr::Sum { group_by, body } => {
                let needed2 = needed.union(group_by);
                Expr::Sum {
                    group_by: group_by.clone(),
                    body: Box::new(self.materialize(body, &needed2, bound, e, new_views)),
                }
            }
            Expr::Union(l, r) => Expr::Union(
                Box::new(self.materialize(l, needed, bound, scope, new_views)),
                Box::new(self.materialize(r, needed, bound, scope, new_views)),
            ),
            Expr::Exists(q) => Expr::Exists(Box::new(
                self.materialize(q, needed, bound, scope, new_views),
            )),
            Expr::AssignQuery { var, query } => Expr::AssignQuery {
                var: var.clone(),
                query: Box::new(self.materialize(query, needed, bound, scope, new_views)),
            },
            Expr::Join(..) => self.materialize_join(e, needed, bound, scope, new_views),
            other => other.clone(),
        }
    }

    /// Materialize the delta-free factors of a join term, grouped by join
    /// connectivity (disconnected components are stored separately, per the
    /// paper's footnote on disconnected join graphs).
    fn materialize_join(
        &mut self,
        e: &Expr,
        needed: &Schema,
        bound: &Schema,
        scope: &Expr,
        new_views: &mut Vec<usize>,
    ) -> Expr {
        let factors = join_factors(e);

        // Classify factors.
        let mut groupable: Vec<Expr> = Vec::new();
        let mut delta_factors: Vec<Expr> = Vec::new();
        let mut assign_factors: Vec<Expr> = Vec::new();
        let mut rest_factors: Vec<Expr> = Vec::new();
        for f in factors {
            let flat = is_flat_stored(&f);
            if !f.has_delta_relations() && f.degree() >= 1 && flat && f.input_variables().is_empty()
            {
                groupable.push(f);
            } else if f.has_delta_relations() {
                delta_factors.push(f);
            } else if matches!(
                f,
                Expr::AssignVal { .. } | Expr::AssignQuery { .. } | Expr::Exists(_)
            ) {
                assign_factors.push(f);
            } else if f.degree() >= 1 {
                // Delta-free but nested (e.g. an uncorrelated stored nested
                // aggregate): recurse so its internals get materialized.
                assign_factors.push(f);
            } else {
                rest_factors.push(f);
            }
        }

        // Group the stored factors into join-connected components, and
        // materialize each comparison with the first component that binds
        // all of its variables (a selection pushed into the view, as
        // DBToaster's maps carry the predicates over their own variables).
        // Columns only such a comparison reads then drop out of the view.
        let mut components = connected_components(&groupable);
        rest_factors.retain(|f| {
            if !matches!(f, Expr::Cmp { .. }) {
                return true;
            }
            let vars = f.input_variables();
            let binds = |comp: &Vec<Expr>| {
                let schema = comp
                    .iter()
                    .fold(Schema::empty(), |s, g| s.union(&g.schema()));
                vars.subset_of(&schema)
            };
            match components.iter_mut().find(|comp| binds(comp)) {
                Some(comp) => {
                    comp.push(f.clone());
                    false
                }
                None => true,
            }
        });

        // Columns bound once all delta-dependent factors have been evaluated
        // (they are placed before the materialized views in the rebuilt
        // term, so views and trailing factors can correlate with them).
        let mut bound_after_deltas = bound.clone();
        for f in &delta_factors {
            bound_after_deltas = bound_after_deltas.union(&f.schema());
        }

        // Columns any factor of this term requires from its context (e.g. a
        // trailing comparison on `l_quantity`): materialization *inside* the
        // term — including inside nested union branches — must keep these
        // columns available, so they are added to the `needed` set threaded
        // through every recursive call below.
        let mut term_needed = needed.clone();
        for f in delta_factors
            .iter()
            .chain(assign_factors.iter())
            .chain(rest_factors.iter())
            .chain(groupable.iter())
        {
            term_needed = term_needed.union(&f.input_variables());
        }

        if groupable.is_empty() {
            // Nothing to extract at this level; recurse into the factors
            // that may contain nested stored subexpressions, threading the
            // bound columns accumulated left to right.
            let mut out: Vec<Expr> = Vec::new();
            let mut running_bound = bound.clone();
            for f in delta_factors {
                out.push(self.materialize(&f, &term_needed, &running_bound, scope, new_views));
                running_bound = running_bound.union(&f.schema());
            }
            for f in assign_factors {
                out.push(self.materialize(&f, &term_needed, &running_bound, scope, new_views));
                running_bound = running_bound.union(&f.schema());
            }
            out.extend(rest_factors);
            return join_of(out);
        }

        // Columns referenced by the rest of the statement (join keys with the
        // batch, output columns, variables of trailing predicates).  Inner
        // columns of nested factors are included too: a nested aggregate
        // correlates with the group through shared column names, so those
        // columns must survive in the materialized view's schema.
        let mut used_elsewhere = term_needed.union(&bound_after_deltas);
        for f in assign_factors.iter().chain(rest_factors.iter()) {
            used_elsewhere = used_elsewhere.union(&f.schema());
            used_elsewhere = used_elsewhere.union(&f.input_variables());
            used_elsewhere = used_elsewhere.union(&inner_columns(f));
        }

        // Fold each value term into the component that binds all of its
        // variables, when each of them occurs in exactly one relation
        // column of that component and nowhere else in its scope (no other
        // factor, comparison, value term, `:=`, `Exists`, group-by or
        // target column) or context (`needed`, `bound`): the view then
        // stores the term's sum in its multiplicity, as F-IVM's views carry
        // payloads, and the columns drop out of its schema.  A fold whose
        // unfolded view is in `no_fold` is skipped (see
        // [`compile_recursive`]).
        let mut scope_uses: Option<Uses> = None;
        rest_factors.retain(|f| {
            let Expr::Val(v) = f else {
                return true;
            };
            let vars = v.variables();
            if vars.is_empty() {
                return true;
            }
            let uses = scope_uses.get_or_insert_with(|| variable_uses(scope));
            let value_only = |c: &str| {
                uses.get(c) == Some(&2) && !needed.contains(c) && !bound_after_deltas.contains(c)
            };
            if !vars.iter().all(value_only) {
                return true;
            }
            let binds = |comp: &&mut Vec<Expr>| {
                let schema = (comp.iter()).fold(Schema::empty(), |s, g| s.union(&g.schema()));
                vars.subset_of(&schema)
            };
            let Some(comp) = components.iter_mut().find(binds) else {
                return true;
            };
            let unfolded = canonical(&view_definition(
                &join_of(comp.clone()),
                &bound_after_deltas,
                &used_elsewhere,
            ));
            if self.no_fold.contains(&unfolded) {
                return true;
            }
            comp.push(f.clone());
            self.folded.push(unfolded);
            used_elsewhere = used_elsewhere.difference(&vars);
            false
        });

        let mut view_refs = Vec::new();
        for comp in components {
            let group = join_of(comp);
            view_refs.push(self.intern_group(
                &group,
                &bound_after_deltas,
                &used_elsewhere,
                new_views,
            ));
        }

        // Rebuild the term.  Preference order: batch-driven factors first
        // (they drive the iteration), then the materialized views (probed by
        // lookup/slice), then nested factors, then residual predicates — but
        // a factor is only placed once the variables it *requires from the
        // context* are bound by the factors already placed, preserving the
        // left-to-right information flow of the model of computation.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Prio {
            Delta,
            View,
            Nested,
            Rest,
        }
        let mut pending: Vec<(Prio, usize, Expr, bool)> = Vec::new();
        for (i, f) in delta_factors.into_iter().enumerate() {
            pending.push((Prio::Delta, i, f, true));
        }
        for (i, v) in view_refs.into_iter().enumerate() {
            pending.push((Prio::View, i, v, false));
        }
        for (i, f) in assign_factors.into_iter().enumerate() {
            pending.push((Prio::Nested, i, f, true));
        }
        for (i, f) in rest_factors.into_iter().enumerate() {
            pending.push((Prio::Rest, i, f, false));
        }

        let mut out: Vec<Expr> = Vec::new();
        let mut running_bound = bound.clone();
        while !pending.is_empty() {
            // Lowest (priority, original index) among the factors whose
            // context requirements are already satisfied; if none is
            // eligible (should not happen for well-formed queries), fall
            // back to the overall lowest to guarantee progress.
            let eligible = pending
                .iter()
                .enumerate()
                .filter(|(_, (_, _, f, _))| f.input_variables().subset_of(&running_bound))
                .min_by(|(_, a), (_, b)| (&a.0, a.1).cmp(&(&b.0, b.1)))
                .map(|(pos, _)| pos);
            let pos = eligible.unwrap_or_else(|| {
                pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| (&a.0, a.1).cmp(&(&b.0, b.1)))
                    .map(|(pos, _)| pos)
                    .unwrap()
            });
            let (_, _, f, recurse) = pending.remove(pos);
            let placed = if recurse {
                self.materialize(&f, &term_needed, &running_bound, scope, new_views)
            } else {
                f
            };
            running_bound = running_bound.union(&placed.schema());
            out.push(placed);
        }
        join_of(out)
    }

    /// Create (or reuse) the auxiliary view materializing `group`, projected
    /// onto the columns the surrounding statement actually needs, and return
    /// the replacing view reference.
    fn intern_group(
        &mut self,
        group: &Expr,
        corr_sources: &Schema,
        used_elsewhere: &Schema,
        new_views: &mut Vec<usize>,
    ) -> Expr {
        let definition = view_definition(group, corr_sources, used_elsewhere);
        let key = canonical(&definition);
        let idx = if let Some(&i) = self.canon.get(&key) {
            i
        } else {
            self.counter += 1;
            let name = format!("M{}", self.counter);
            let idx = self.views.len();
            self.views.push(ViewDef {
                name,
                schema: definition.schema(),
                definition: definition.clone(),
                is_top: false,
            });
            self.canon.insert(key, idx);
            new_views.push(idx);
            idx
        };
        let v = &self.views[idx];
        Expr::Rel(RelRef {
            name: v.name.clone(),
            kind: RelKind::View,
            cols: v.schema.columns().to_vec(),
        })
    }
}

/// The definition of the view materializing `group`: projected onto its
/// output columns used downstream plus its inner columns correlated with
/// the already-bound context (safe to re-expose: they will be bound at the
/// view's use site, turning the probe into a lookup/slice).
fn view_definition(group: &Expr, corr_sources: &Schema, used_elsewhere: &Schema) -> Expr {
    let used = corr_sources.union(used_elsewhere);
    let view_schema =
        (group.schema().intersect(&used)).union(&inner_columns(group).intersect(corr_sources));
    simplify(&lift(group, &view_schema))
}

/// Whether a factor is a "flat" stored expression that can be grouped and
/// materialized directly: relational terms, joins of them, aggregations of
/// them, possibly mixed with value terms and comparisons — but no nested
/// assignments or existential subqueries.
fn is_flat_stored(e: &Expr) -> bool {
    let mut flat = true;
    e.visit(&mut |n| {
        if matches!(n, Expr::AssignQuery { .. } | Expr::Exists(_)) {
            flat = false;
        }
    });
    flat
}

fn is_bare_view(e: &Expr) -> bool {
    matches!(e, Expr::Rel(r) if r.kind == RelKind::View)
}

/// All column names mentioned anywhere inside an expression (including
/// columns projected away by inner aggregates).
fn inner_columns(e: &Expr) -> Schema {
    let mut s = Schema::empty();
    e.visit(&mut |n| match n {
        Expr::Rel(r) => {
            for c in &r.cols {
                s.push(c.clone());
            }
        }
        Expr::AssignVal { var, .. } | Expr::AssignQuery { var, .. } => s.push(var.clone()),
        _ => {}
    });
    s
}

/// Project/extend an expression so that its output schema becomes exactly
/// `schema` (re-exposing correlated columns that an inner aggregate had
/// projected away).
fn lift(e: &Expr, schema: &Schema) -> Expr {
    if e.schema().same_columns(schema) {
        return e.clone();
    }
    match e {
        Expr::Sum { body, .. } => Expr::Sum {
            group_by: schema.clone(),
            body: body.clone(),
        },
        Expr::Exists(q) => Expr::Exists(Box::new(lift(q, schema))),
        other => Expr::Sum {
            group_by: schema.clone(),
            body: Box::new(other.clone()),
        },
    }
}

/// Group join factors into connected components by shared column names.
fn connected_components(factors: &[Expr]) -> Vec<Vec<Expr>> {
    let n = factors.len();
    let schemas: Vec<Schema> = factors.iter().map(|f| f.schema()).collect();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if !schemas[i].intersect(&schemas[j]).is_empty() {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<Expr>> = BTreeMap::new();
    for (i, factor) in factors.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(factor.clone());
    }
    groups.into_values().collect()
}

fn canonical(e: &Expr) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Classical IVM and re-evaluation baselines
// ---------------------------------------------------------------------------

/// Rewrite every base-relation reference into a view reference with the same
/// name (the baselines materialize base tables under their own names).
fn base_to_view(e: &Expr) -> Expr {
    match e {
        Expr::Rel(r) if r.kind == RelKind::Base => Expr::Rel(RelRef {
            name: r.name.clone(),
            kind: RelKind::View,
            cols: r.cols.clone(),
        }),
        other => other.map_children(&mut |c| base_to_view(c)),
    }
}

fn base_table_views(query: &Expr) -> (Vec<ViewDef>, BTreeMap<String, Vec<String>>) {
    let mut schemas = BTreeMap::new();
    let mut views = Vec::new();
    for r in query.relations() {
        if r.kind == RelKind::Base && !schemas.contains_key(&r.name) {
            schemas.insert(r.name.clone(), r.cols.clone());
            views.push(ViewDef {
                name: r.name.clone(),
                schema: Schema::new(r.cols.iter().cloned()),
                definition: Expr::Rel(r.clone()),
                is_top: false,
            });
        }
    }
    (views, schemas)
}

/// Compile the classical (first-order) incremental maintenance plan.
pub fn compile_classical(name: &str, query: &Expr) -> MaintenancePlan {
    let (base_views, base_schemas) = base_table_views(query);
    let top_schema = query.schema();
    let mut views = vec![ViewDef {
        name: name.to_string(),
        schema: top_schema.clone(),
        definition: query.clone(),
        is_top: true,
    }];
    views.extend(base_views);

    let mut statements = Vec::new();
    for (idx, (rel, cols)) in base_schemas.iter().enumerate() {
        let d = delta(query, rel);
        if !is_zero(&d) {
            statements.push((
                rel.clone(),
                Statement {
                    target: name.to_string(),
                    target_schema: top_schema.clone(),
                    op: StmtOp::AddTo,
                    expr: simplify(&Expr::Sum {
                        group_by: top_schema.clone(),
                        body: Box::new(base_to_view(&d)),
                    }),
                },
                usize::MAX, // top view first
                idx * 2,
            ));
        }
        statements.push((
            rel.clone(),
            Statement {
                target: rel.clone(),
                target_schema: Schema::new(cols.iter().cloned()),
                op: StmtOp::AddTo,
                expr: Expr::Rel(RelRef {
                    name: rel.clone(),
                    kind: RelKind::Delta,
                    cols: cols.clone(),
                }),
            },
            0,
            idx * 2 + 1,
        ));
    }
    build_plan(
        name,
        Strategy::ClassicalIvm,
        views,
        statements,
        &base_schemas,
    )
}

/// Compile the re-evaluation plan (refresh the base tables, then recompute
/// the query from scratch).
pub fn compile_reevaluation(name: &str, query: &Expr) -> MaintenancePlan {
    let (base_views, base_schemas) = base_table_views(query);
    let top_schema = query.schema();
    let mut views = vec![ViewDef {
        name: name.to_string(),
        schema: top_schema.clone(),
        definition: query.clone(),
        is_top: true,
    }];
    views.extend(base_views);

    let mut statements = Vec::new();
    for (idx, (rel, cols)) in base_schemas.iter().enumerate() {
        statements.push((
            rel.clone(),
            Statement {
                target: rel.clone(),
                target_schema: Schema::new(cols.iter().cloned()),
                op: StmtOp::AddTo,
                expr: Expr::Rel(RelRef {
                    name: rel.clone(),
                    kind: RelKind::Delta,
                    cols: cols.clone(),
                }),
            },
            usize::MAX,
            idx * 2,
        ));
        statements.push((
            rel.clone(),
            Statement {
                target: name.to_string(),
                target_schema: top_schema.clone(),
                op: StmtOp::SetTo,
                expr: simplify(&Expr::Sum {
                    group_by: top_schema.clone(),
                    body: Box::new(base_to_view(query)),
                }),
            },
            0,
            idx * 2 + 1,
        ));
    }
    build_plan(
        name,
        Strategy::Reevaluation,
        views,
        statements,
        &base_schemas,
    )
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

fn build_plan(
    name: &str,
    strategy: Strategy,
    views: Vec<ViewDef>,
    statements: Vec<(String, Statement, usize, usize)>,
    base_schemas: &BTreeMap<String, Vec<String>>,
) -> MaintenancePlan {
    let mut triggers: Vec<Trigger> = base_schemas
        .iter()
        .map(|(rel, cols)| Trigger {
            relation: rel.clone(),
            relation_schema: Schema::new(cols.iter().cloned()),
            statements: Vec::new(),
        })
        .collect();
    // Order statements within each trigger by decreasing target complexity
    // (the data-flow dependency order of Section 2.3), breaking ties by
    // creation order.
    let mut sorted = statements;
    sorted.sort_by(|a, b| b.2.cmp(&a.2).then(a.3.cmp(&b.3)));
    for (rel, stmt, _, _) in sorted {
        if let Some(t) = triggers.iter_mut().find(|t| t.relation == rel) {
            t.statements.push(stmt);
        }
    }
    MaintenancePlan {
        query_name: name.to_string(),
        strategy,
        top_view: name.to_string(),
        views,
        triggers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;

    fn example_query() -> Expr {
        // Example 2.1/2.2: Sum_[B](R(A,B) ⋈ S(B,C) ⋈ T(C,D))
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
    fn recursive_plan_matches_example_2_2_structure() {
        let plan = compile_recursive("Q", &example_query());
        // Views: top Q, M_ST(B), M_RS(B,C), M_R(B), M_S(B,C), M_T(C)
        // (names are generated, so check schemas/definitions).
        assert_eq!(plan.top().schema.columns(), ["B"]);
        assert!(plan.views.len() >= 5, "plan: {}", plan.pretty());
        // The R-trigger's first statement maintains the top view using a
        // single auxiliary view over B (the S⋈T pre-join).
        let trig = plan.trigger("R").unwrap();
        assert_eq!(trig.statements[0].target, "Q");
        let first = trig.statements[0].expr.to_string();
        assert!(first.contains("ΔR"), "got {first}");
        assert!(
            !first.contains("S("),
            "S must be materialized away: {first}"
        );
        // All three relations have triggers.
        assert_eq!(plan.triggers.len(), 3);
    }

    #[test]
    fn recursive_plan_statements_reference_only_views_and_deltas() {
        for q in [
            example_query(),
            sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3))),
            exists(sum(
                ["A"],
                join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3)),
            )),
        ] {
            let plan = compile_recursive("Q", &q);
            for t in &plan.triggers {
                for s in &t.statements {
                    for r in s.expr.relations() {
                        assert_ne!(
                            r.kind,
                            RelKind::Base,
                            "statement references base relation {} directly:\n{}",
                            r.name,
                            plan.pretty()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recursive_plan_orders_statements_by_decreasing_complexity() {
        let plan = compile_recursive("Q", &example_query());
        for t in &plan.triggers {
            let degrees: Vec<usize> = t
                .statements
                .iter()
                .map(|s| {
                    plan.view(&s.target)
                        .map(|v| v.definition.degree())
                        .unwrap_or(0)
                })
                .collect();
            let mut sorted = degrees.clone();
            sorted.sort_by(|a, b| b.cmp(a));
            assert_eq!(degrees, sorted, "trigger {} out of order", t.relation);
        }
    }

    #[test]
    fn disconnected_join_components_materialize_separately() {
        // Δ_S of the example has R and T disconnected once S is removed;
        // they must become two separate auxiliary views, not a cross product.
        let plan = compile_recursive("Q", &example_query());
        let trig = plan.trigger("S").unwrap();
        let top_stmt = &trig.statements[0];
        let view_refs: Vec<_> = top_stmt
            .expr
            .relations()
            .into_iter()
            .filter(|r| r.kind == RelKind::View)
            .collect();
        assert_eq!(view_refs.len(), 2, "stmt: {top_stmt}");
        for v in view_refs {
            let def = &plan.view(&v.name).unwrap().definition;
            assert!(
                def.degree() == 1,
                "component view should hold one relation: {def}"
            );
        }
    }

    #[test]
    fn q17_style_nested_aggregate_materializes_per_key_view() {
        // Sum_[](L(pk,qty) ⋈ (X := Sum_[](L2(pk,qty2)⋈[qty2])) ⋈ (qty < X))
        let nested = sum_total(join(rel("LINEITEM", ["pk", "qty2"]), val_var("qty2")));
        let q = sum_total(join_all([
            rel("LINEITEM", ["pk", "qty"]),
            assign_query("X", nested),
            cmp_vars("qty", CmpOp::Lt, "X"),
        ]));
        let plan = compile_recursive("Q17", &q);
        // Some auxiliary view must carry pk (the correlated key), i.e. the
        // per-partkey nested aggregate.
        assert!(
            plan.views
                .iter()
                .any(|v| !v.is_top && v.schema.contains("pk")),
            "plan: {}",
            plan.pretty()
        );
        // And no statement references LINEITEM as a base relation.
        for t in &plan.triggers {
            for s in &t.statements {
                assert!(s.expr.relations().iter().all(|r| r.kind != RelKind::Base));
            }
        }
    }

    #[test]
    fn classical_plan_has_base_table_views_and_two_statements_per_trigger() {
        let plan = compile_classical("Q", &example_query());
        assert_eq!(plan.views.len(), 4); // top + R, S, T
        for t in &plan.triggers {
            assert_eq!(t.statements.len(), 2);
            assert_eq!(t.statements[0].target, "Q");
            assert_eq!(t.statements[1].target, t.relation);
        }
    }

    #[test]
    fn reevaluation_plan_replaces_top_view() {
        let plan = compile_reevaluation("Q", &example_query());
        for t in &plan.triggers {
            assert_eq!(t.statements[0].op, StmtOp::AddTo); // base refresh
            assert_eq!(t.statements[1].op, StmtOp::SetTo); // recompute
            assert_eq!(t.statements[1].target, "Q");
        }
    }

    #[test]
    fn index_requirements_cover_sliced_views() {
        let plan = compile_recursive("Q", &example_query());
        let specs = plan.index_requirements();
        // M_S(B,C) is probed with only B bound in the R-trigger, so at least
        // one partial-key index must be required.
        assert!(
            !specs.is_empty(),
            "expected secondary indexes, plan: {}",
            plan.pretty()
        );
    }

    #[test]
    fn compile_dispatches_on_strategy() {
        let q = example_query();
        assert_eq!(
            compile("Q", &q, Strategy::Reevaluation).strategy,
            Strategy::Reevaluation
        );
        assert_eq!(
            compile("Q", &q, Strategy::ClassicalIvm).strategy,
            Strategy::ClassicalIvm
        );
        assert_eq!(
            compile("Q", &q, Strategy::RecursiveIvm).strategy,
            Strategy::RecursiveIvm
        );
    }

    /// Whether `e` multiplies by a value term anywhere.
    fn has_value_term(e: &Expr) -> bool {
        let mut found = false;
        e.visit(&mut |n| found |= matches!(n, Expr::Val(_)));
        found
    }

    #[test]
    fn a_value_only_column_folds_into_the_view_and_the_batch() {
        // In ΔR, S's `B` is read only by `[B]`: the view sums it away.
        let q = sum(
            ["A"],
            join_all([rel("R", ["A"]), rel("S", ["A", "B"]), val_var("B")]),
        );
        let plan = compile_recursive("Q", &q);
        let folded: Vec<&ViewDef> = (plan.views.iter())
            .filter(|v| !v.is_top && has_value_term(&v.definition))
            .collect();
        assert_eq!(folded.len(), 1, "{}", plan.pretty());
        assert_eq!(folded[0].schema.columns(), ["A"]);
        // In ΔS, every statement weighs the batch by `[B]`.
        let prep = plan.trigger("S").unwrap().preprocessing().0;
        assert_eq!(prep.describe(), "Δ keeps 1/2: A; Δ weight [B]");
    }

    #[test]
    fn a_value_term_whose_variable_is_read_again_does_not_fold() {
        let r = || rel("R", ["A"]);
        let s = || rel("S", ["A", "B"]);
        let cases = [
            // `B` is also a group-by column.
            sum(["A", "B"], join_all([r(), s(), val_var("B")])),
            // `B` is also read by a comparison.
            sum(
                ["A"],
                join_all([r(), s(), val_var("B"), cmp_lit("B", CmpOp::Gt, 3)]),
            ),
            // `B` is also a column of a second relation.
            sum(["A"], join_all([r(), s(), rel("T", ["B"]), val_var("B")])),
        ];
        for q in cases {
            let plan = compile_recursive("Q", &q);
            for v in plan.views.iter().filter(|v| !v.is_top) {
                assert!(!has_value_term(&v.definition), "{}", plan.pretty());
                if v.definition.relations().iter().any(|r| r.name == "S") {
                    assert!(v.schema.contains("B"), "{}", plan.pretty());
                }
            }
        }
    }

    #[test]
    fn a_batch_read_under_a_union_gets_no_weight() {
        // A self-join's delta reads the batch on three union branches.
        let q = sum(
            ["A"],
            join_all([rel("R", ["A", "B"]), rel("R", ["A", "C"]), val_var("B")]),
        );
        let prep = compile_recursive("Q", &q).triggers[0].preprocessing().0;
        assert!(prep.weight().is_empty(), "{}", prep.describe());
        assert_eq!(prep.kept(), [0, 1]);
    }

    #[test]
    fn q3_stores_revenue_sums_not_lineitems() {
        let q = hotdog_workload::query("Q3").unwrap();
        let plan = compile_recursive(q.id, &q.expr);
        for v in &plan.views {
            assert!(
                !v.schema.contains("l_extendedprice") && !v.schema.contains("l_discount"),
                "{}",
                plan.pretty()
            );
        }
        let schema = |name: &str| plan.view(name).unwrap().schema.columns().to_vec();
        assert_eq!(schema("M1"), ["OK", "CK", "o_orderdate", "o_shippriority"]);
        assert_eq!(schema("M3"), ["OK"]);
    }

    /// Q18's `M1(OK, CK, l_quantity)` would fold `[l_quantity]` for the
    /// CUSTOMER trigger, but `M6`'s CUSTOMER delta reads the unfolded view:
    /// the fold would store the same lineitems twice, so it is skipped.
    #[test]
    fn a_fold_with_an_unfolded_twin_is_skipped() {
        let q = hotdog_workload::query("Q18").unwrap();
        let plan = compile_recursive(q.id, &q.expr);
        let quantity = Expr::Val(ValExpr::var("l_quantity"));
        for v in plan.views.iter().filter(|v| !v.is_top) {
            let mut folded = false;
            v.definition.visit(&mut |n| folded |= *n == quantity);
            assert!(!folded, "{}", plan.pretty());
        }
        assert!(plan
            .views
            .iter()
            .any(|v| v.schema.columns() == ["OK", "CK", "l_quantity"]));
    }

    #[test]
    fn single_relation_query_needs_no_auxiliary_views() {
        let q = sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3)));
        let plan = compile_recursive("Q", &q);
        assert_eq!(plan.views.len(), 1, "plan: {}", plan.pretty());
        assert_eq!(plan.triggers.len(), 1);
        assert_eq!(plan.statement_count(), 1);
    }
}
