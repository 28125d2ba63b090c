//! A live-record census of every catalog query's views, pinned so that it
//! can only go down.
//!
//! Every `all_queries()` query streams the same seeded workload with 25 %
//! deletions through the batched, pre-aggregating [`LocalEngine`].  The
//! census is the total number of live records over all views of the plan
//! (the top view included) once the stream is applied — an exact count,
//! not a timing.  `RECORDS` pins it per query: the test fails if any query
//! holds more records than its pin, and also if one holds fewer, so that
//! a deliberate drop is re-recorded.  The failure message prints the whole
//! table in `RECORDS`' own syntax.
//!
//! `cargo test --release --test view_census -- --nocapture` prints the
//! census of every query, each with the heap bytes its pools hold
//! (`Database::heap_bytes`).  The bytes are printed, not pinned: they
//! follow the capacities std's growth policy gives the pools' vectors and
//! tables.

use hotdog::prelude::*;
use hotdog::workload::Workload;

/// Tuples generated per query before deletions are added.
const TUPLES: usize = 3_000;
/// Stream seed (generation and deletions).
const SEED: u64 = 7;
/// Fraction of insertions later deleted.
const DELETIONS: f64 = 0.25;
/// Tuples per batch.
const BATCH: usize = 500;

/// `(query, live view records)` for every catalog query.
#[rustfmt::skip]
const RECORDS: [(&str, usize); 32] = [
    ("Q1", 6),
    ("Q2", 41),
    ("Q3", 788),
    ("Q4", 489),
    ("Q5", 4949),
    ("Q6", 1),
    ("Q7", 945),
    ("Q8", 4442),
    ("Q9", 9719),
    ("Q10", 399),
    ("Q11", 190),
    ("Q12", 442),
    ("Q13", 92),
    ("Q14", 33),
    ("Q15", 9),
    ("Q16", 289),
    ("Q17", 1728),
    ("Q18", 4683),
    ("Q19", 1030),
    ("Q20", 351),
    ("Q21", 2141),
    ("Q22", 71),
    ("DS3", 90),
    ("DS7", 3764),
    ("DS19", 3050),
    ("DS27", 5342),
    ("DS34", 4424),
    ("DS42", 137),
    ("DS43", 23),
    ("DS52", 167),
    ("DS55", 90),
    ("DS68", 3325),
];

/// Live records over all views of `q`'s recursive plan after the stream,
/// and the heap bytes the pools holding them take.
fn live_records(q: &CatalogQuery) -> (usize, usize) {
    let stream = match q.workload {
        Workload::TpcH => generate_tpch(SEED, TUPLES),
        Workload::TpcDs => generate_tpcds(SEED, TUPLES),
    }
    .with_deletions(SEED, DELETIONS);
    let plan = compile_recursive(q.id, &q.expr);
    let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });
    for round in stream.batches(BATCH) {
        for (relation, delta) in round {
            engine.apply_batch(relation, &delta);
        }
    }
    let plan = engine.plan();
    let records = plan
        .views
        .iter()
        .map(|v| engine.view_contents(&v.name).len())
        .sum();
    (records, engine.database().heap_bytes())
}

#[test]
fn no_query_holds_more_live_records() {
    let census: Vec<(&str, (usize, usize))> = all_queries()
        .iter()
        .map(|q| (q.id, live_records(q)))
        .collect();
    let got: Vec<(&str, usize)> = census.iter().map(|&(id, (n, _))| (id, n)).collect();
    let table: Vec<String> = got
        .iter()
        .map(|(id, n)| format!("    (\"{id}\", {n}),"))
        .collect();
    for (row, (_, (_, bytes))) in table.iter().zip(&census) {
        println!("{row:<20} // {bytes} B");
    }
    let mut rose = Vec::new();
    for (id, n) in &got {
        let pinned = RECORDS.iter().find(|(q, _)| q == id).map(|&(_, p)| p);
        match pinned {
            Some(p) if *n <= p => {}
            _ => rose.push(format!("{id}: {n} (pinned {pinned:?})")),
        }
    }
    assert!(
        rose.is_empty(),
        "live view records rose or are unpinned: {}",
        rose.join(", ")
    );
    assert_eq!(
        got,
        RECORDS,
        "the census fell; re-record `RECORDS` as:\n{}",
        table.join("\n")
    );
}
