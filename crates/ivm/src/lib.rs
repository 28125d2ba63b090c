//! # hotdog-ivm
//!
//! Incremental view maintenance compilers: the paper's core contribution.
//!
//! * [`delta`](mod@delta) — delta-query derivation rules (Section 3.1),
//!   including the revised rule for generalized variable assignment;
//! * [`domain`] — the domain extraction algorithm (Section 3.2.2, Figure 1)
//!   that makes nested aggregates and existential quantification efficiently
//!   maintainable for batch updates;
//! * [`simplify`](mod@simplify) — algebraic simplification used throughout
//!   compilation;
//! * [`hoist`] — per-batch temps for the batch-only terms of nested-aggregate
//!   deltas (the recursive strategy's last step);
//! * [`compiler`] — three maintenance strategies: recursive IVM
//!   (DBToaster-style, with auxiliary views), classical first-order IVM, and
//!   full re-evaluation;
//! * [`plan`] — the compiled representation (views, statements, triggers),
//!   each trigger's batch preprocessing (Section 3.3: the static-condition
//!   filter, the value-term weight and the kept columns, [`BatchPrep`]),
//!   plus access-pattern analysis for automatic index selection (Section
//!   5.2.1).

#![forbid(unsafe_code)]

pub mod compiler;
pub mod delta;
pub mod domain;
pub mod hoist;
pub mod plan;
pub mod simplify;

pub use compiler::{compile, compile_classical, compile_recursive, compile_reevaluation};
pub use delta::{base_relations, delta};
pub use domain::extract_domain;
pub use plan::{
    BatchPrep, IndexSpec, MaintenancePlan, Statement, StmtOp, Strategy, Trigger, ViewDef,
};
pub use simplify::simplify;

#[cfg(test)]
mod proptests {
    use crate::delta::delta;
    use hotdog_algebra::eval::{evaluate, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple::Tuple;
    use hotdog_algebra::value::Value;
    use proptest::prelude::*;

    fn rel_strategy(arity: usize) -> impl Strategy<Value = Vec<(Vec<i64>, i64)>> {
        prop::collection::vec((prop::collection::vec(0i64..6, arity), -2i64..3), 0..25)
    }

    fn to_relation(cols: &[&str], rows: &[(Vec<i64>, i64)]) -> Relation {
        Relation::from_pairs(
            Schema::new(cols.iter().copied()),
            rows.iter().map(|(vals, m)| {
                (
                    Tuple(vals.iter().map(|v| Value::Long(*v)).collect()),
                    *m as f64,
                )
            }),
        )
    }

    /// The queries exercised by the delta-correctness property: a flat
    /// group-by join count, a SUM aggregate, a DISTINCT projection and a
    /// correlated nested aggregate.
    fn queries() -> Vec<Expr> {
        let flat = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
        let weighted = sum(
            ["B"],
            join_all([rel("R", ["A", "B"]), rel("S", ["B", "C"]), val_var("C")]),
        );
        let distinct = exists(sum(["B"], rel("R", ["A", "B"])));
        let nested = sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_query("X", sum_total(rel("S", ["B", "C2"]))),
            cmp_vars("A", CmpOp::Lt, "X"),
        ]));
        vec![flat, weighted, distinct, nested]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fundamental delta correctness: Q(D + ΔD) = Q(D) + ΔQ(D, ΔD) for
        /// random databases and random batches of insertions/deletions, for
        /// every query shape and for updates to either relation.
        #[test]
        fn delta_rule_is_correct(
            r_rows in rel_strategy(2),
            s_rows in rel_strategy(2),
            dr_rows in rel_strategy(2),
            ds_rows in rel_strategy(2),
        ) {
            let r = to_relation(&["A", "B"], &r_rows);
            let s = to_relation(&["B", "C"], &s_rows);
            let dr = to_relation(&["A", "B"], &dr_rows);
            let ds = to_relation(&["B", "C"], &ds_rows);

            for q in queries() {
                for (target, d_rel) in [("R", &dr), ("S", &ds)] {
                    let mut base = MapCatalog::new();
                    base.insert("R", RelKind::Base, r.clone());
                    base.insert("S", RelKind::Base, s.clone());

                    let mut with_delta = base.clone();
                    with_delta.insert(target, RelKind::Delta, (*d_rel).clone());

                    let mut merged = MapCatalog::new();
                    merged.insert(
                        "R",
                        RelKind::Base,
                        if target == "R" { r.union(d_rel) } else { r.clone() },
                    );
                    merged.insert(
                        "S",
                        RelKind::Base,
                        if target == "S" { s.union(d_rel) } else { s.clone() },
                    );

                    let before = evaluate(&q, &base);
                    let change = evaluate(&delta(&q, target), &with_delta);
                    let after = evaluate(&q, &merged);
                    prop_assert!(
                        after.approx_eq(&before.union(&change)),
                        "delta mismatch for {q} on {target}\nafter={after:?}\nincr={:?}",
                        before.union(&change)
                    );
                }
            }
        }
    }
}
