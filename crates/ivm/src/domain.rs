//! Domain extraction (Section 3.2.2, Figure 1).
//!
//! The delta rule for generalized variable assignment `(var := Q)` — and for
//! `Exists(Q)` — recomputes both the old and the new value of `Q`, which can
//! be as expensive as re-evaluating the whole query.  Domain extraction
//! builds a *domain expression* from the delta of the nested query: a cheap
//! expression (built mostly from the update batch) that binds exactly the
//! variables whose values can be affected by the update.  Prepending the
//! domain expression to the delta restricts the recomputation to the affected
//! tuples only.
//!
//! A domain is a filter, never a weight: each of its factors is 0 or 1 — an
//! `Exists` over the batch, a comparison, a value assignment — and a value
//! term restricts nothing, so it becomes `1`.  A signed sum of values could
//! read 0 for a key whose nested aggregate did change.  A domain may admit
//! more bindings than the delta touches, never fewer; batch preprocessing
//! relies on that to project a guard's batch like the delta's
//! ([`Trigger::kept_delta_positions`](crate::plan::Trigger::kept_delta_positions)).

use crate::simplify::{is_one, is_zero, join_of, simplify};
use hotdog_algebra::expr::{Expr, RelKind};
use hotdog_algebra::schema::Schema;

/// Extract the iteration-domain expression of `e` (typically the delta of a
/// nested aggregate).  Returns `Const(1.0)` when no useful restriction can be
/// derived, mirroring the `1` case of Figure 1.
pub fn extract_domain(e: &Expr) -> Expr {
    simplify(&extract(e))
}

fn extract(e: &Expr) -> Expr {
    match e {
        // Plus: the update may affect tuples coming from either branch, so
        // the propagated domain must cover both; only the columns common to
        // both branch domains can be propagated further up.
        Expr::Union(a, b) => inter_doms(&extract(a), &extract(b)),
        // Prod: domains of the factors merge (bind the union of variables),
        // preserving the left-to-right information flow.
        Expr::Join(a, b) => union_doms(extract(a), extract(b)),
        Expr::Sum { group_by, body } => {
            let dom_a = extract(body);
            if is_one(&dom_a) {
                return Expr::Const(1.0);
            }
            let dom_schema = dom_a.schema();
            let dom_gb = dom_schema.intersect(group_by);
            if dom_gb.same_columns(group_by) {
                // The domain covers the whole group-by list.  For scalar
                // aggregates (empty group-by) the unprojected domain is
                // propagated so that equality-correlated variables stay
                // available to the enclosing delta rule (Section 3.2.3);
                // otherwise reduce the schema to the aggregate's columns
                // (Example 3.2).
                if group_by.is_empty() || dom_schema.same_columns(group_by) {
                    dom_a
                } else {
                    Expr::Exists(Box::new(Expr::Sum {
                        group_by: group_by.clone(),
                        body: Box::new(dom_a),
                    }))
                }
            } else if dom_gb.is_empty() {
                Expr::Const(1.0)
            } else {
                // Reduce the domain schema to the covered part of the
                // aggregate's schema; the Exists wrapper preserves the
                // multiplicity-one domain semantics.
                Expr::Exists(Box::new(Expr::Sum {
                    group_by: dom_gb,
                    body: Box::new(dom_a),
                }))
            }
        }
        Expr::Exists(q) => extract(q),
        Expr::AssignQuery { query, .. }
            if query.has_stored_relations() || query.has_delta_relations() =>
        {
            extract(query)
        }
        Expr::Rel(r) => {
            // Delta relations are the low-cardinality leaves: the batch is
            // (by assumption) much smaller than the base relations, so it is
            // the term that restricts the iteration domain.
            if r.kind == RelKind::Delta {
                Expr::Exists(Box::new(e.clone()))
            } else {
                Expr::Const(1.0)
            }
        }
        // Comparisons and assignments over values can further restrict the
        // domain and are kept verbatim (they are filtered later if their
        // variables end up unbound — see `union_doms`).
        Expr::Cmp { .. } | Expr::AssignVal { .. } => e.clone(),
        // A value weighs a tuple but admits every binding.
        Expr::Const(_) | Expr::Val(_) => Expr::Const(1.0),
        Expr::AssignQuery { .. } => Expr::Const(1.0),
    }
}

/// Common-domain extraction for bag union: keep only the columns both
/// domains bind, and cover the tuples of either (the update can touch both
/// branches).
fn inter_doms(a: &Expr, b: &Expr) -> Expr {
    if is_one(a) || is_one(b) {
        return Expr::Const(1.0);
    }
    if is_zero(a) {
        return b.clone();
    }
    if is_zero(b) {
        return a.clone();
    }
    if a == b {
        return a.clone();
    }
    let common: Schema = a.schema().intersect(&b.schema());
    if common.is_empty() {
        return Expr::Const(1.0);
    }
    Expr::Exists(Box::new(Expr::Sum {
        group_by: common.clone(),
        body: Box::new(Expr::Union(
            Box::new(Expr::Sum {
                group_by: common.clone(),
                body: Box::new(a.clone()),
            }),
            Box::new(Expr::Sum {
                group_by: common,
                body: Box::new(b.clone()),
            }),
        )),
    }))
}

/// Merge the domains of the two factors of a product, dropping
/// comparisons and value assignments whose variables would be unbound in
/// the merged domain (they referred to columns of factors that contributed
/// no domain).
fn union_doms(a: Expr, b: Expr) -> Expr {
    let mut factors = Vec::new();
    collect_factors(a, &mut factors);
    collect_factors(b, &mut factors);
    // Drop comparisons whose variables are not bound by the relational part
    // of the domain accumulated to their left.
    let mut bound = Schema::empty();
    let mut kept = Vec::new();
    for f in factors {
        match &f {
            Expr::Cmp { .. } => {
                let needed = f.input_variables();
                if needed.subset_of(&bound) {
                    kept.push(f);
                }
            }
            Expr::AssignVal { var, value } => {
                if value.variables().subset_of(&bound) {
                    bound.push(var.clone());
                    kept.push(f);
                }
            }
            _ => {
                bound = bound.union(&f.schema());
                kept.push(f);
            }
        }
    }
    if kept.is_empty() {
        Expr::Const(1.0)
    } else {
        join_of(kept)
    }
}

fn collect_factors(e: Expr, out: &mut Vec<Expr>) {
    if is_one(&e) {
        return;
    }
    match e {
        Expr::Join(l, r) => {
            collect_factors(*l, out);
            collect_factors(*r, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;

    #[test]
    fn example_3_2_distinct_query_domain() {
        // ΔQn = Sum_[A](ΔR(A,B) * (B > 3))
        let delta_qn = sum(
            ["A"],
            join(delta_rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3)),
        );
        let dom = extract_domain(&delta_qn);
        // Expect Exists(Sum_[A](Exists(ΔR(A,B)) * (B > 3))) — i.e. a domain
        // over A built from the batch, retaining the comparison.
        assert_eq!(dom.schema().columns(), ["A"]);
        assert!(dom.has_delta_relations());
        assert!(!dom.has_stored_relations());
        let printed = dom.to_string();
        assert!(printed.contains("Exists"), "got {printed}");
        assert!(printed.contains("> 3"), "got {printed}");
    }

    #[test]
    fn scalar_aggregate_propagates_unprojected_domain() {
        // For a scalar (empty group-by) aggregate the domain keeps the batch
        // columns bound, so that an enclosing delta rule can still restrict
        // equality-correlated variables (Section 3.2.3).  Whether any of
        // those columns are usable is decided by the delta rule's guard
        // projection, not here.
        let delta = sum_total(delta_rel("S", ["B", "C"]));
        let dom = extract_domain(&delta);
        assert_eq!(dom.schema().columns(), ["B", "C"]);
        assert!(dom.has_delta_relations());
    }

    #[test]
    fn a_value_term_restricts_nothing() {
        // Δ of `Sum_[A](S(A,B) * [B])`: a guard that kept `[B]` would sum
        // the batch's `B`s and read 0 for `A` when they cancel.
        let e = sum(["A"], join(delta_rel("S", ["A", "B"]), val_var("B")));
        let dom = extract_domain(&e);
        assert_eq!(dom, extract_domain(&sum(["A"], delta_rel("S", ["A", "B"]))));
        assert!(!dom.to_string().contains("[B]"), "got {dom}");
    }

    #[test]
    fn base_relations_contribute_no_domain() {
        // A delta expression built only from stored relations (no batch
        // terms) yields no restriction.
        let delta = sum(["B"], rel("S", ["B", "C"]));
        let dom = extract_domain(&delta);
        assert_eq!(dom, Expr::Const(1.0));
    }

    #[test]
    fn correlated_nested_aggregate_restricts_correlated_variable() {
        // ΔQn for Q17-style correlation: Sum_[](ΔS(B2,C) * (B = B2)).
        // The domain cannot propagate B2 through Sum_[] (empty schema), so it
        // degenerates to 1 — but at the Sum_[B2] level it restricts B2.
        let delta_inner = join(delta_rel("S", ["B2", "C"]), cmp_vars("B", CmpOp::Eq, "B2"));
        let dom = extract_domain(&sum(["B2"], delta_inner));
        assert_eq!(dom.schema().columns(), ["B2"]);
        assert!(dom.has_delta_relations());
    }

    #[test]
    fn comparisons_on_unbound_columns_are_dropped() {
        // ΔR(A,B) * S(B,C) * (C > 5): S contributes no domain, so the
        // comparison on C must be dropped rather than left dangling.
        let e = join_all([
            delta_rel("R", ["A", "B"]),
            rel("S", ["B", "C"]),
            cmp_lit("C", CmpOp::Gt, 5),
        ]);
        let dom = extract_domain(&e);
        assert!(!dom.to_string().contains("C >"), "got {dom}");
        assert!(dom.has_delta_relations());
    }

    #[test]
    fn union_intersects_domains() {
        // Δ(R + T) for updates touching both branches: common column A.
        let e = union(
            sum(["A"], delta_rel("R", ["A", "B"])),
            sum(["A"], delta_rel("T", ["A", "C"])),
        );
        let dom = extract_domain(&e);
        assert_eq!(dom.schema().columns(), ["A"]);
    }

    #[test]
    fn union_with_disjoint_domains_gives_one() {
        let e = union(
            sum(["A"], delta_rel("R", ["A", "B"])),
            sum(["C"], delta_rel("T", ["C", "D"])),
        );
        assert_eq!(extract_domain(&e), Expr::Const(1.0));
    }

    #[test]
    fn sum_projects_domain_onto_group_by() {
        let e = sum(["B"], delta_rel("R", ["A", "B"]));
        let dom = extract_domain(&e);
        assert_eq!(dom.schema().columns(), ["B"]);
        assert!(matches!(dom, Expr::Exists(_)));
    }

    #[test]
    fn sum_with_group_by_fully_covered_passes_domain_through() {
        let e = sum(["A", "B"], delta_rel("R", ["A", "B"]));
        let dom = extract_domain(&e);
        // domain already binds A and B: no extra Exists/Sum wrapper needed.
        assert_eq!(dom.schema().columns(), ["A", "B"]);
    }
}
