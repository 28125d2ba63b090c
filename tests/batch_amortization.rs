//! The paper's batching premise, held per query: a batch update does the
//! work of its tuples once (Section 3.3), so a stream costs no more
//! interpreter work in large batches than in small ones.
//!
//! Every catalog query streams the same seeded workload with deletions
//! through the batched, pre-aggregating [`LocalEngine`] twice: in batches
//! of `BATCH` tuples and of `4 * BATCH`.  Summed
//! [`EvalCounters::instructions`](hotdog::algebra::EvalCounters::instructions)
//! — exact counts, not timings — must not grow with the batch.  A term
//! that re-aggregates the whole batch once per batch row (|Δ|² work per
//! batch) fails here.  Run with `--nocapture` to print each query's totals.

use hotdog::prelude::*;
use hotdog::workload::Workload;

/// Tuples generated per query before deletions are added.
const TUPLES: usize = 3_000;
/// Stream seed (generation and deletions).
const SEED: u64 = 0xBA7C;
/// Fraction of insertions later deleted.
const DELETIONS: f64 = 0.25;
/// The smaller batch size; the larger is four times it.
const BATCH: usize = 100;

/// Total interpreter instructions to stream `stream` through `q`'s plan in
/// batches of `batch` tuples.
fn instructions(q: &CatalogQuery, stream: &UpdateStream, batch: usize) -> u64 {
    let plan = compile(q.id, &q.expr, Strategy::RecursiveIvm);
    let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });
    for round in stream.batches(batch) {
        for (relation, delta) in round {
            engine.apply_batch(relation, &delta);
        }
    }
    engine.totals.eval.instructions()
}

#[test]
fn instructions_do_not_grow_with_the_batch() {
    let mut grew = Vec::new();
    for q in all_queries() {
        let stream = match q.workload {
            Workload::TpcH => generate_tpch(SEED, TUPLES),
            Workload::TpcDs => generate_tpcds(SEED, TUPLES),
        }
        .with_deletions(SEED, DELETIONS);
        let small = instructions(&q, &stream, BATCH);
        let large = instructions(&q, &stream, 4 * BATCH);
        println!(
            "{:<5} batch {BATCH:>4}: {small:>9}  batch {:>4}: {large:>9}  ({:.2}x)",
            q.id,
            4 * BATCH,
            large as f64 / small.max(1) as f64
        );
        if large > small {
            grew.push(q.id);
        }
    }
    assert!(
        grew.is_empty(),
        "interpreter work grows with the batch size for {grew:?}"
    );
}
