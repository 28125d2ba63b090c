//! Per-view oracle: every materialized view of every catalog query holds
//! exactly what its definition says.
//!
//! Each query streams a seeded workload with deletions through the batched
//! [`LocalEngine`], with and without batch pre-aggregation.  Afterwards the
//! pool of every view — the top view and each auxiliary view the recursive
//! compiler introduced — must equal `evaluate(view.definition)` over the
//! accumulated stream.  A view whose definition carries a selection (a
//! comparison materialized with the relations that bind it) must hold the
//! filtered records and nothing else.
//!
//! `HOTDOG_SEED=n` replays a seed; the one in use is printed.

mod common;

use common::seed_from_env;
use hotdog::prelude::*;
use hotdog::workload::Workload;

/// Tuples generated per query before deletions are added.
const TUPLES: usize = 1_500;
/// Fraction of insertions later deleted.
const DELETIONS: f64 = 0.25;
/// Tuples per stream batch.
const BATCH: usize = 100;
/// Tolerance of the local end-to-end suite.
const EPS: f64 = 1e-4;

fn stream(q: &CatalogQuery, seed: u64) -> UpdateStream {
    match q.workload {
        Workload::TpcH => generate_tpch(seed, TUPLES),
        Workload::TpcDs => generate_tpcds(seed, TUPLES),
    }
    .with_deletions(seed, DELETIONS)
}

#[test]
fn every_view_equals_its_definition() {
    let seed = seed_from_env().unwrap_or(0x5E1EC7);
    eprintln!("view-definition seed: {seed}");
    let mut failures = Vec::new();
    let mut checked = 0;
    for q in all_queries() {
        let stream = stream(&q, seed);
        let mut catalog = MapCatalog::new();
        for (name, rel) in stream.accumulate() {
            catalog.insert(name, RelKind::Base, rel);
        }
        let plan = compile(q.id, &q.expr, Strategy::RecursiveIvm);
        let expected: Vec<Relation> = plan
            .views
            .iter()
            .map(|v| evaluate(&v.definition, &catalog))
            .collect();
        for preaggregate in [false, true] {
            let mode = ExecMode::Batched { preaggregate };
            let mut engine = LocalEngine::new(plan.clone(), mode);
            for batch in stream.batches(BATCH) {
                for (rel, delta) in batch {
                    engine.apply_batch(rel, &delta);
                }
            }
            for (view, want) in plan.views.iter().zip(&expected) {
                checked += 1;
                let got = engine.view_contents(&view.name);
                if !got.approx_eq_eps(want, EPS) {
                    failures.push(format!(
                        "{} {} ({}): {} records, definition gives {}\n  VIEW {}{:?} := {}",
                        q.id,
                        view.name,
                        mode.label(),
                        got.len(),
                        want.len(),
                        view.name,
                        view.schema,
                        view.definition
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "seed {seed}: {} of {checked} views differ from their definitions:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
