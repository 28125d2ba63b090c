//! Per-batch temps for the batch-only terms of a statement (DBToaster's
//! higher-order delta maps; the paper computes batch-only terms once per
//! batch, Section 3.2.2).
//!
//! The delta of a nested aggregate, `guard × ((v := Q + ΔQ) − (v := Q))`
//! ([`delta`](mod@crate::delta)), holds terms that read only the batch — the
//! domain guard and `ΔQ` — but sit under the bindings of the rows around
//! them, so an interpreter re-aggregates a slice of the batch for every
//! outer row.  [`hoist_batch_terms`] computes each such term once per
//! batch instead.  A statement ahead of its reader materializes the term
//! into a trigger-local temp, keyed by the term's output columns and then
//! its correlated variables (the ones the context binds), and each
//! occurrence becomes a reference to the temp:
//!
//! ```text
//! batch_2(OK) := Sum_[OK](ΔLINEITEM(OK, …, qty) * [qty])
//! Q18 += … (TQ := M2(OK) + Sum_[](ΔLINEITEM(OK, …, qty) * [qty])) …
//!     ⇒ … (TQ := M2(OK) + batch_2(OK)) …
//! ```
//!
//! A temp is a statement whose target is no view of the plan; it lives for
//! one batch of its trigger.  The rewrite is exact.  An occurrence
//! evaluated with its correlated variables bound sees the rows of the
//! uncorrelated term that agree with them, in the same order: a slice of
//! the batch lists its tuples in batch order, and every aggregate emits
//! sorted groups.  So within one key the temp adds the same numbers in the
//! same order, and a lookup returns the multiplicity the occurrence
//! emitted.
//!
//! A term hoists only when some occurrence sits under outer bindings, and
//! only when every correlated variable it reads is bound by the term
//! itself before anything projects it away, so the uncorrelated form
//! groups by it instead of summing over it.  An uncorrelated occurrence
//! under outer bindings hoists too: an interpreter evaluates it once per
//! outer row, so a batch total under the rows of the batch domain would
//! cost |Δ|² per batch (Q11's `Sum_[](ΔPARTSUPP(…) * …)`); as a temp with
//! no key columns it is one lookup per row.  Occurrences of the same temp
//! in one statement share it, correlated or not.  A term no occurrence
//! nests under outer bindings stays in place: hoisting would save nothing.

use crate::plan::{MaintenancePlan, Statement, StmtOp};
use hotdog_algebra::expr::{Expr, RelKind, RelRef};
use hotdog_algebra::schema::Schema;

/// Hoist the batch-only terms of every statement of `plan` into per-batch
/// temps, each emitted just ahead of the statement that reads it.  Temps
/// are named `batch_<n>`, numbered across the plan.
pub fn hoist_batch_terms(plan: &mut MaintenancePlan) {
    let mut counter = 0usize;
    for trigger in &mut plan.triggers {
        let mut statements = Vec::with_capacity(trigger.statements.len());
        for stmt in std::mem::take(&mut trigger.statements) {
            let (temps, expr) = hoist_statement(&stmt.expr, &mut counter);
            statements.extend(temps);
            statements.push(Statement { expr, ..stmt });
        }
        trigger.statements = statements;
    }
}

/// A hoisted term: the temp's defining expression and its key columns.
type Temp = (Expr, Schema);

/// The temp statements `expr` needs, in first-occurrence order, and `expr`
/// reading them.
fn hoist_statement(expr: &Expr, counter: &mut usize) -> (Vec<Statement>, Expr) {
    // First pass: every batch-only term, its temp, and whether some
    // occurrence of that temp sits under outer bindings (correlated or not).
    let mut found: Vec<(Temp, bool)> = Vec::new();
    rewrite(
        expr,
        &mut Schema::empty(),
        &mut |term, correlated, bound| {
            if let Some(temp) = temp_of(term, correlated) {
                let nested = !correlated.is_empty() || !bound.is_empty();
                match found.iter_mut().find(|(t, _)| *t == temp) {
                    Some((_, any)) => *any |= nested,
                    None => found.push((temp, nested)),
                }
            }
            None
        },
    );
    let hoisted: Vec<(Temp, String)> = found
        .into_iter()
        .filter(|(_, nested)| *nested)
        .map(|(temp, _)| {
            *counter += 1;
            (temp, format!("batch_{counter}"))
        })
        .collect();
    if hoisted.is_empty() {
        return (Vec::new(), expr.clone());
    }
    // Second pass: replace every occurrence of a hoisted temp.  Where the
    // context binds every key column it is a lookup; elsewhere `Sum_[key]`
    // re-emits the slice of the temp in sorted order, the order the term
    // emitted its groups in.
    let rewritten = rewrite(
        expr,
        &mut Schema::empty(),
        &mut |term, correlated, bound| {
            let temp = temp_of(term, correlated)?;
            let (_, name) = hoisted.iter().find(|(t, _)| *t == temp)?;
            let (_, key) = temp;
            let read = Expr::Rel(RelRef {
                name: name.clone(),
                kind: RelKind::View,
                cols: key.columns().to_vec(),
            });
            Some(if key.subset_of(bound) {
                read
            } else {
                Expr::Sum {
                    group_by: key,
                    body: Box::new(read),
                }
            })
        },
    );
    let temps = hoisted
        .into_iter()
        .map(|((expr, key), name)| Statement {
            target: name,
            target_schema: key,
            op: StmtOp::SetTo,
            expr,
        })
        .collect();
    (temps, rewritten)
}

/// `e` with every batch-only `Sum` or `Exists` term that `f` replaces
/// replaced, walking in evaluation order.  `f` sees each outermost such
/// term with its correlated variables — those it mentions that the
/// context binds — and with what the context binds (`bound`, the
/// variables bound to its left).  A term `f` leaves alone is not
/// descended into.
fn rewrite(
    e: &Expr,
    bound: &mut Schema,
    f: &mut dyn FnMut(&Expr, &Schema, &Schema) -> Option<Expr>,
) -> Expr {
    if batch_only(e) {
        let correlated = mentioned(e).intersect(bound);
        let out = f(e, &correlated, bound).unwrap_or_else(|| e.clone());
        *bound = bound.union(&out.schema());
        return out;
    }
    match e {
        Expr::Rel(r) => {
            for c in &r.cols {
                bound.push(c.clone());
            }
            e.clone()
        }
        Expr::Join(l, r) => {
            let l = rewrite(l, bound, f);
            let r = rewrite(r, bound, f);
            Expr::Join(Box::new(l), Box::new(r))
        }
        Expr::Union(l, r) => {
            let (mut bl, mut br) = (bound.clone(), bound.clone());
            let l = rewrite(l, &mut bl, f);
            let r = rewrite(r, &mut br, f);
            *bound = bound.union(&bl.intersect(&br));
            Expr::Union(Box::new(l), Box::new(r))
        }
        Expr::Sum { group_by, body } => {
            let body = rewrite(body, &mut bound.clone(), f);
            *bound = bound.union(group_by);
            Expr::Sum {
                group_by: group_by.clone(),
                body: Box::new(body),
            }
        }
        Expr::Exists(q) => {
            let q = rewrite(q, &mut bound.clone(), f);
            *bound = bound.union(&q.schema());
            Expr::Exists(Box::new(q))
        }
        Expr::AssignQuery { var, query } => {
            let query = rewrite(query, &mut bound.clone(), f);
            *bound = bound.union(&query.schema());
            bound.push(var.clone());
            Expr::AssignQuery {
                var: var.clone(),
                query: Box::new(query),
            }
        }
        Expr::AssignVal { var, .. } => {
            bound.push(var.clone());
            e.clone()
        }
        Expr::Const(_) | Expr::Val(_) | Expr::Cmp { .. } => e.clone(),
    }
}

/// A `Sum` or `Exists` that reads the batch and nothing else.
fn batch_only(e: &Expr) -> bool {
    matches!(e, Expr::Sum { .. } | Expr::Exists(_)) && {
        let relations = e.relations();
        !relations.is_empty() && relations.iter().all(|r| r.kind == RelKind::Delta)
    }
}

/// The temp of batch-only term `e` evaluated with `correlated` bound: `e`
/// grouped by its correlated variables as well, and the key columns, or
/// `None` when grouping by them would change what `e` computes.
fn temp_of(e: &Expr, correlated: &Schema) -> Option<Temp> {
    let extend = |group_by: &Schema, body: &Expr| -> Option<Temp> {
        let mut bound = Schema::empty();
        if !binds_before_use(body, correlated, &mut bound) || !correlated.subset_of(&bound) {
            return None;
        }
        let key = group_by.union(correlated);
        let sum = Expr::Sum {
            group_by: key.clone(),
            body: Box::new(body.clone()),
        };
        Some((sum, key))
    };
    match e {
        Expr::Sum { group_by, body } => extend(group_by, body),
        Expr::Exists(q) => match &**q {
            Expr::Sum { group_by, body } => {
                let (sum, key) = extend(group_by, body)?;
                Some((Expr::Exists(Box::new(sum)), key))
            }
            q => {
                let mut bound = Schema::empty();
                let key = q.schema();
                (binds_before_use(q, correlated, &mut bound) && correlated.subset_of(&key))
                    .then(|| (e.clone(), key))
            }
        },
        _ => None,
    }
}

/// Whether binding the `correlated` variables from the context, instead of
/// letting `e` bind them, only filters `e`'s rows: evaluated with `bound`
/// bound, `e` binds each of them before reading it, and no nested
/// aggregate sums away one that it bound itself.  Extends `bound` like an
/// evaluation would.
fn binds_before_use(e: &Expr, correlated: &Schema, bound: &mut Schema) -> bool {
    let reads = |vars: Schema, bound: &Schema| vars.intersect(correlated).subset_of(bound);
    // A nested aggregate keeps a correlated variable it bound only if its
    // output carries it.
    let nested = |inner: &Expr, out: &Schema, bound: &mut Schema| {
        let mut inside = bound.clone();
        let ok = binds_before_use(inner, correlated, &mut inside)
            && mentioned(inner)
                .intersect(correlated)
                .iter()
                .all(|v| bound.contains(v) || (out.contains(v) && inside.contains(v)));
        *bound = bound.union(out);
        ok
    };
    match e {
        Expr::Rel(r) => {
            for c in &r.cols {
                bound.push(c.clone());
            }
            true
        }
        Expr::Join(l, r) => {
            binds_before_use(l, correlated, bound) && binds_before_use(r, correlated, bound)
        }
        Expr::Union(l, r) => {
            let (mut bl, mut br) = (bound.clone(), bound.clone());
            let ok = binds_before_use(l, correlated, &mut bl)
                && binds_before_use(r, correlated, &mut br);
            *bound = bound.union(&bl.intersect(&br));
            ok
        }
        Expr::Sum { group_by, body } => nested(body, group_by, bound),
        Expr::Exists(q) => nested(q, &q.schema(), bound),
        Expr::AssignQuery { var, query } => {
            let ok = nested(query, &query.schema(), bound);
            bound.push(var.clone());
            ok
        }
        Expr::AssignVal { var, value } => {
            let ok = reads(value.variables(), bound);
            bound.push(var.clone());
            ok
        }
        Expr::Val(v) => reads(v.variables(), bound),
        Expr::Cmp { lhs, rhs, .. } => reads(lhs.variables().union(&rhs.variables()), bound),
        Expr::Const(_) => true,
    }
}

/// Every variable `e` mentions: relation columns, group-by columns,
/// assigned variables and the variables of value terms.
fn mentioned(e: &Expr) -> Schema {
    let mut out = Schema::empty();
    e.visit(&mut |n| match n {
        Expr::Rel(r) => r.cols.iter().for_each(|c| out.push(c.clone())),
        Expr::Sum { group_by, .. } => out = out.union(group_by),
        Expr::Val(v) => out = out.union(&v.variables()),
        Expr::Cmp { lhs, rhs, .. } => {
            out = out.union(&lhs.variables()).union(&rhs.variables());
        }
        Expr::AssignVal { var, value } => {
            out = out.union(&value.variables());
            out.push(var.clone());
        }
        Expr::AssignQuery { var, .. } => out.push(var.clone()),
        Expr::Union(..) | Expr::Join(..) | Expr::Const(_) | Expr::Exists(_) => {}
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;
    use hotdog_algebra::eval::{evaluate, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::tuple;

    /// A one-trigger plan on `R(A, B)` with one statement into `Q(B)`.
    fn plan_of(expr: Expr) -> MaintenancePlan {
        MaintenancePlan {
            query_name: "Q".into(),
            strategy: crate::plan::Strategy::RecursiveIvm,
            top_view: "Q".into(),
            views: Vec::new(),
            triggers: vec![Trigger {
                relation: "R".into(),
                relation_schema: Schema::new(["A", "B"]),
                statements: vec![Statement {
                    target: "Q".into(),
                    target_schema: Schema::new(["B"]),
                    op: StmtOp::AddTo,
                    expr,
                }],
            }],
        }
    }

    /// `Sum_[](ΔR(B, C) * [C])`: a batch total, correlated on `B` wherever
    /// `B` is bound.
    fn batch_total() -> Expr {
        sum_total(join(delta_rel("R", ["B", "C"]), val_var("C")))
    }

    #[test]
    fn a_correlated_batch_total_becomes_one_keyed_temp_ahead_of_its_reader() {
        let expr = sum(
            ["B"],
            join_all([
                delta_rel("R", ["A", "B"]),
                assign_query("X", union(view("M", ["B"]), batch_total())),
                assign_query("Y", batch_total()),
                val_var("X"),
                val_var("Y"),
            ]),
        );
        let mut plan = plan_of(expr.clone());
        hoist_batch_terms(&mut plan);
        let statements = &plan.triggers[0].statements;
        assert_eq!(statements.len(), 2);
        let (temp, reader) = (&statements[0], &statements[1]);
        assert_eq!(temp.target, "batch_1");
        assert_eq!(temp.target_schema, Schema::new(["B"]));
        assert_eq!(temp.op, StmtOp::SetTo);
        assert_eq!(
            temp.expr,
            sum(["B"], join(delta_rel("R", ["B", "C"]), val_var("C")))
        );
        // Both occurrences read the one temp, by lookup.
        assert_eq!(
            reader.expr,
            sum(
                ["B"],
                join_all([
                    delta_rel("R", ["A", "B"]),
                    assign_query("X", union(view("M", ["B"]), view("batch_1", ["B"]))),
                    assign_query("Y", view("batch_1", ["B"])),
                    val_var("X"),
                    val_var("Y"),
                ]),
            )
        );

        // The reader over the temp is the original statement, bit for bit.
        let mut catalog = MapCatalog::new();
        catalog.insert(
            "R",
            RelKind::Delta,
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                vec![
                    (tuple![1, 10], 1.0),
                    (tuple![10, 10], 0.1),
                    (tuple![2, 20], -1.0),
                    (tuple![20, 30], 0.7),
                ],
            ),
        );
        catalog.insert(
            "M",
            RelKind::View,
            Relation::from_pairs(Schema::new(["B"]), vec![(tuple![10], 0.3)]),
        );
        let want = evaluate(&expr, &catalog);
        catalog.insert("batch_1", RelKind::View, evaluate(&temp.expr, &catalog));
        let got = evaluate(&reader.expr, &catalog);
        assert!(!want.is_empty());
        assert_eq!(got.checksum(), want.checksum());
    }

    #[test]
    fn an_occurrence_that_binds_no_key_rereads_the_temp_in_sorted_order() {
        // The guard shape: `Exists(Sum_[B](…))` correlated on `B` on the
        // right, uncorrelated on the left.
        let guard = || exists(sum(["B"], join(delta_rel("R", ["A2", "B"]), val_var("A2"))));
        let expr = sum(
            ["B"],
            union(
                join(guard(), view("M", ["B"])),
                join(delta_rel("R", ["A", "B"]), guard()),
            ),
        );
        let mut plan = plan_of(expr);
        hoist_batch_terms(&mut plan);
        let statements = &plan.triggers[0].statements;
        assert_eq!(statements.len(), 2);
        assert_eq!(statements[0].expr, guard());
        let temp = || view("batch_1", ["B"]);
        assert_eq!(
            statements[1].expr,
            sum(
                ["B"],
                union(
                    join(sum(["B"], temp()), view("M", ["B"])),
                    join(delta_rel("R", ["A", "B"]), temp()),
                ),
            )
        );
    }

    #[test]
    fn a_term_no_occurrence_correlates_stays_in_place() {
        // A total over the whole batch: nothing outside binds `B2` or `C`.
        let total = sum_total(join(delta_rel("R", ["B2", "C"]), val_var("C")));
        let expr = sum(
            ["B"],
            join_all([
                delta_rel("R", ["A", "B"]),
                assign_query("X", total),
                val_var("X"),
            ]),
        );
        let mut plan = plan_of(expr.clone());
        hoist_batch_terms(&mut plan);
        assert_eq!(plan.triggers[0].statements.len(), 1);
        assert_eq!(plan.triggers[0].statements[0].expr, expr);
    }

    #[test]
    fn a_correlated_variable_summed_away_inside_keeps_the_term_in_place() {
        // `B` is read inside a nested total before the term binds it, so
        // grouping the term by `B` would change what it sums.
        let inner = sum_total(join(delta_rel("R", ["B", "D"]), val_var("D")));
        let term = sum_total(join(assign_query("Z", inner), delta_rel("R", ["B", "C"])));
        let expr = sum(
            ["B"],
            join_all([
                delta_rel("R", ["A", "B"]),
                assign_query("X", term),
                val_var("X"),
            ]),
        );
        let mut plan = plan_of(expr.clone());
        hoist_batch_terms(&mut plan);
        assert_eq!(plan.triggers[0].statements[0].expr, expr);
    }
}
