//! Census of the statements the vectorizer refuses.
//!
//! For every catalog query, every trigger statement of its recursive plan
//! (the per-batch temps included) goes through
//! `hotdog_exec::vectorized::compile`; a refused statement runs on the row
//! `Evaluator`.  The per-query refusal counts are pinned: a change that
//! vectorizes more statements lowers a count and re-records the table from
//! the failure message; a count may never rise.  Run with `--nocapture` to
//! print the table and every refused statement.

use hotdog::exec::vectorized;
use hotdog::prelude::*;

/// Refused statements across the catalog before nested-aggregate deltas
/// were hoisted and `:=` lookups and unions vectorized.
const REFUSED_BEFORE: usize = 33;

/// `(query, refused statements)` for every query that still refuses one.
const REFUSED: &[(&str, usize)] = &[("Q2", 2), ("Q11", 1), ("Q21", 3)];

#[test]
fn vectorizer_refusals_per_query_are_pinned() {
    let mut refused: Vec<(&str, usize)> = Vec::new();
    let (mut statements, mut total) = (0usize, 0usize);
    for q in all_queries() {
        let plan = compile_recursive(q.id, &q.expr);
        let mut n = 0usize;
        for t in &plan.triggers {
            for s in &t.statements {
                statements += 1;
                if vectorized::compile(&s.expr).is_none() {
                    n += 1;
                    println!("refused  {} ON {}: {s}", q.id, t.relation);
                }
            }
        }
        println!("{:<6} {n}", q.id);
        total += n;
        if n > 0 {
            refused.push((q.id, n));
        }
    }
    println!("refused {total} of {statements} statements");
    let table: String = refused
        .iter()
        .map(|(id, n)| format!("    ({id:?}, {n}),\n"))
        .collect();
    assert_eq!(
        refused.as_slice(),
        REFUSED,
        "the refusal census changed; current table:\n{table}"
    );
    assert!(total <= REFUSED_BEFORE, "{total} refused");
    assert!(refused.iter().all(|(id, _)| *id != "Q18"));
}
