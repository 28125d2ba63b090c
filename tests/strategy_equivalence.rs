//! All three maintenance strategies (re-evaluation, classical IVM, recursive
//! IVM) and both local execution modes must produce identical query results
//! for the whole catalog — the strategies differ only in cost, never in
//! semantics.

use hotdog::prelude::*;

fn run(q: &CatalogQuery, stream: &UpdateStream, strategy: Strategy, mode: ExecMode) -> Relation {
    let plan = compile(q.id, &q.expr, strategy);
    let mut engine = LocalEngine::new(plan, mode);
    for batch in stream.batches(120) {
        for (rel, delta) in batch {
            engine.apply_batch(rel, &delta);
        }
    }
    engine.query_result()
}

fn stream_for(q: &CatalogQuery, tuples: usize) -> UpdateStream {
    match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(11, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(11, tuples),
    }
}

#[test]
fn recursive_equals_classical_on_full_tpch_catalog() {
    for q in tpch_queries() {
        let stream = stream_for(&q, 350);
        let rivm = run(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        let ivm = run(
            &q,
            &stream,
            Strategy::ClassicalIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        assert!(
            rivm.approx_eq_eps(&ivm, 1e-3),
            "{}: recursive vs classical diverged\nrivm {rivm:?}\nivm {ivm:?}",
            q.id
        );
    }
}

#[test]
fn recursive_equals_classical_on_full_tpcds_catalog() {
    for q in tpcds_queries() {
        let stream = stream_for(&q, 350);
        let rivm = run(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        let ivm = run(
            &q,
            &stream,
            Strategy::ClassicalIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        assert!(
            rivm.approx_eq_eps(&ivm, 1e-3),
            "{}: recursive vs classical diverged",
            q.id
        );
    }
}

/// Pre-aggregation (the batch preprocessing of every distributed backend)
/// never changes a result: single-tuple execution, which never projects a
/// batch, agrees with pre-aggregated batches on the whole catalog.
#[test]
fn single_tuple_equals_preaggregated_batches_on_full_catalog() {
    for q in all_queries() {
        let id = q.id;
        let stream = stream_for(&q, 300);
        let st = run(&q, &stream, Strategy::RecursiveIvm, ExecMode::SingleTuple);
        let batched = run(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched { preaggregate: true },
        );
        assert!(
            st.approx_eq_eps(&batched, 1e-3),
            "{id}: single-tuple vs batched diverged\nst {st:?}\nbatched {batched:?}"
        );
    }
}

#[test]
fn reevaluation_equals_recursive_on_nested_queries() {
    for id in [
        "Q4", "Q11", "Q13", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22", "DS34",
    ] {
        let q = query(id).unwrap();
        let stream = stream_for(&q, 300);
        let reeval = run(
            &q,
            &stream,
            Strategy::Reevaluation,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        let rivm = run(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        assert!(
            reeval.approx_eq_eps(&rivm, 1e-3),
            "{id}: re-evaluation vs recursive diverged\nreeval {reeval:?}\nrivm {rivm:?}"
        );
    }
}
