//! Census of the statements the vectorizer refuses: there are none.
//!
//! Every trigger statement of every catalog query goes through
//! `hotdog_exec::vectorized::compile`: the recursive plans (the per-batch
//! temps included), the classical and the re-evaluation plans, and every
//! `Compute` statement the distributed compiler lowers the recursive plan
//! to at O0–O3.  `hotdog_exec::execute` has no other interpreter, so a
//! refused statement would panic there; the census pins that none is
//! refused.  Run with `--nocapture` to print the counts and any refusal.

use hotdog::distributed::DistStmtKind;
use hotdog::exec::vectorized;
use hotdog::prelude::*;

const OPT_LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

/// The statements of one plan family `compile` refuses, each printed.
fn census<'a>(label: &str, statements: impl Iterator<Item = (&'a str, &'a Expr)>) -> usize {
    let (mut refused, mut total) = (0usize, 0usize);
    for (id, expr) in statements {
        total += 1;
        if vectorized::compile(expr).is_none() {
            refused += 1;
            println!("refused  {label} {id}: {expr}");
        }
    }
    println!("{label:<14} refused {refused} of {total} statements");
    refused
}

#[test]
fn vectorizer_refusals_per_query_are_pinned() {
    let queries = all_queries();
    let mut refused = 0usize;
    for (label, strategy) in [
        ("recursive", Strategy::RecursiveIvm),
        ("classical", Strategy::ClassicalIvm),
        ("re-evaluation", Strategy::Reevaluation),
    ] {
        let plans: Vec<(&str, MaintenancePlan)> = queries
            .iter()
            .map(|q| (q.id, compile(q.id, &q.expr, strategy)))
            .collect();
        refused += census(
            label,
            plans.iter().flat_map(|(id, plan)| {
                plan.triggers
                    .iter()
                    .flat_map(|t| &t.statements)
                    .map(move |s| (*id, &s.expr))
            }),
        );
    }
    for opt in OPT_LEVELS {
        let plans: Vec<(&str, DistributedPlan)> = queries
            .iter()
            .map(|q| {
                let plan = compile_recursive(q.id, &q.expr);
                let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
                (q.id, compile_distributed(&plan, &spec, opt))
            })
            .collect();
        refused += census(
            &format!("distributed {opt:?}"),
            plans.iter().flat_map(|(id, dplan)| {
                dplan
                    .programs
                    .iter()
                    .flat_map(|p| &p.blocks)
                    .flat_map(|b| &b.statements)
                    .filter_map(move |s| match &s.kind {
                        DistStmtKind::Compute(e) => Some((*id, e)),
                        DistStmtKind::Transform { .. } => None,
                    })
            }),
        );
    }
    assert_eq!(refused, 0, "the vectorizer refused {refused} statements");
}
