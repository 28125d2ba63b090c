//! Subscription differential oracle: for every subscriber, the
//! accumulated pushed deltas must reconstruct its parameterized view
//! **bit-for-bit** against both the serving backend's own
//! `view_contents` and a fresh full evaluation on the simulated cluster
//! (1e-9 when the serving backend coalesces batches, which re-associates
//! float additions relative to the fresh run) — across all three
//! backends: simulated, threaded, TCP.
//!
//! This is the test target the CI `serve-smoke` job runs
//! (HOTDOG_WORKERS={1,2}); the nightly seed-sweep drives the churn arm
//! through `HOTDOG_SEED`, and the chaos job aims `HOTDOG_FAULT` at the
//! fault-recovery arm.

mod common;

use common::{chaos_plan, seed_from_env, tcp_config, workers_under_test};
use hotdog::prelude::*;

fn shape_for(q: &CatalogQuery) -> QueryShape {
    QueryShape::new(q.id, q.expr.clone(), q.partition_keys.iter().copied())
}

fn seeded_stream(q: &CatalogQuery, tuples: usize, seed: u64) -> UpdateStream {
    let base = match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(seed, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(seed, tuples),
    };
    base.with_deletions(seed, 0.25)
}

/// Fresh full evaluation: an independent simulated cluster over the same
/// batches (the reference the ISSUE oracle names).
fn fresh_eval(q: &CatalogQuery, batches: &[Vec<(&str, Relation)>], workers: usize) -> Relation {
    let shape = shape_for(q);
    let mut sim = Cluster::new(shape.compile(), ClusterConfig::with_workers(workers));
    sim.apply_stream(batches);
    sim.query_result()
}

/// A parameter binding that actually selects something: the first column
/// value of the reference view's first row (or Long(0) on an empty view).
fn binding_from(reference: &Relation, schema: &Schema) -> Option<(String, Value)> {
    let column = schema.columns().first()?.clone();
    let value = reference
        .iter()
        .next()
        .map(|(t, _)| t.get(0).clone())
        .unwrap_or(Value::Long(0));
    Some((column, value))
}

/// Drive one hub through the stream — subscribe a full-view client and a
/// parameter-bound client, push every batch round, pump, replay — and
/// assert both reconstructions.
fn check_subscriptions<B, F>(
    mut hub: SubscriptionHub<B, F>,
    q: &CatalogQuery,
    batches: &[Vec<(&str, Relation)>],
    reference: &Relation,
    bit_exact_vs_fresh: bool,
    label: &str,
) where
    B: Backend + DeltaCapture,
    F: FnMut(&QueryShape, DistributedPlan) -> B,
{
    let shape = shape_for(q);
    let (full_id, init_full) = hub.subscribe(&shape, ParamFilter::all());
    let schema = hub.schema_of(full_id).expect("live subscription").clone();
    let filter = match binding_from(reference, &schema) {
        Some((col, val)) => ParamFilter::equals(col, val),
        None => ParamFilter::all(),
    };
    let (bound_id, init_bound) = hub.subscribe(&shape, filter.clone());
    assert_eq!(hub.active_programs(), 1, "{label}: one shared program");

    let mut full = SubscriberView::new(schema.clone());
    let mut bound = SubscriberView::new(schema.clone());
    full.apply(&init_full);
    bound.apply(&init_bound);
    for round in batches {
        for (rel, batch) in round {
            hub.apply_batch(rel, batch);
        }
        for delta in hub.pump() {
            if delta.subscription == full_id {
                full.apply(&delta);
            } else if delta.subscription == bound_id {
                bound.apply(&delta);
            }
        }
    }

    // Replay vs the serving backend's own view: always bit-for-bit (the
    // capture log preserves the exact statement stream).
    let own = hub.view_contents(q.id).expect("shape live");
    assert_eq!(
        full.contents().checksum(),
        own.checksum(),
        "{label}: replayed deltas != serving backend's view bit-for-bit"
    );
    assert_eq!(
        bound.contents().checksum(),
        filter.apply(&schema, &own).checksum(),
        "{label}: filtered replay != filtered serving view bit-for-bit"
    );

    // Replay vs fresh full evaluation.
    if bit_exact_vs_fresh {
        assert_eq!(
            full.contents().checksum(),
            reference.checksum(),
            "{label}: replayed deltas != fresh evaluation bit-for-bit"
        );
    } else {
        assert!(
            full.contents().approx_eq_eps(reference, 1e-9),
            "{label}: replayed deltas diverged from fresh evaluation beyond 1e-9"
        );
    }
}

/// The oracle across all three backends, over a catalog slice.
#[test]
fn subscriptions_reconstruct_views_across_backends() {
    let workers = workers_under_test();
    for (i, q) in ["Q3", "Q6", "Q7"].iter().enumerate() {
        let q = query(q).unwrap();
        let stream = seeded_stream(&q, 150, 0x5E7E + i as u64);
        let batches = stream.batches(10);
        let reference = fresh_eval(&q, &batches, workers);

        check_subscriptions(
            SubscriptionHub::new(|_s: &QueryShape, dplan: DistributedPlan| {
                Cluster::new(dplan, ClusterConfig::with_workers(workers))
            }),
            &q,
            &batches,
            &reference,
            true,
            &format!("{} simulated x{workers}", q.id),
        );
        check_subscriptions(
            SubscriptionHub::new(|_s: &QueryShape, dplan: DistributedPlan| {
                ThreadedCluster::new(dplan, workers)
            }),
            &q,
            &batches,
            &reference,
            true,
            &format!("{} threaded x{workers}", q.id),
        );
        check_subscriptions(
            SubscriptionHub::new(|_s: &QueryShape, dplan: DistributedPlan| {
                TcpCluster::new(dplan, &tcp_config(workers)).expect("tcp cluster")
            }),
            &q,
            &batches,
            &reference,
            true,
            &format!("{} tcp x{workers}", q.id),
        );
    }
}

/// Coalesced pipelined serving: the replay still matches the serving
/// backend bit-for-bit, and the fresh evaluation within 1e-9 (coalescing
/// re-associates float additions).
#[test]
fn coalesced_pipeline_subscriptions_agree_within_epsilon() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 150, 0xC0A1);
    let batches = stream.batches(8);
    let reference = fresh_eval(&q, &batches, workers);
    let config = PipelineConfig {
        coalesce_tuples: 100_000,
        ..Default::default()
    };
    check_subscriptions(
        SubscriptionHub::new(move |_s: &QueryShape, dplan: DistributedPlan| {
            ThreadedCluster::pipelined(dplan, workers, config.clone())
        }),
        &q,
        &batches,
        &reference,
        false,
        &format!("Q3 threaded+coalesce x{workers}"),
    );
}

/// Splitmix-style generator for the churn schedule (the vendored rand shim
/// keeps this deterministic everywhere).
struct Churn(u64);

impl Churn {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Run-id-seeded subscriber churn: subscribers join and leave mid-stream
/// (the nightly seed-sweep arm; `HOTDOG_SEED` replays a red run).  Every
/// survivor's replay must match its filtered view bit-for-bit.
#[test]
fn seeded_subscriber_churn_stays_consistent() {
    let workers = workers_under_test();
    let seed = seed_from_env().unwrap_or(0xC4u64);
    eprintln!("churn seed: {seed} (x{workers})");
    let q = query("Q3").unwrap();
    let shape = shape_for(&q);
    let stream = seeded_stream(&q, 180, seed ^ 0x5EED);
    let batches = stream.batches(12);

    let mut hub = SubscriptionHub::new(|_s: &QueryShape, dplan: DistributedPlan| {
        ThreadedCluster::new(dplan, workers)
    });
    // One pinned full-view subscriber keeps the shared program alive for
    // the whole stream (the churn may otherwise retire and restart it,
    // which is legal but resets the standing query's history).
    let (pinned_id, init) = hub.subscribe(&shape, ParamFilter::all());
    let schema = hub.schema_of(pinned_id).unwrap().clone();
    let mut pinned = SubscriberView::new(schema.clone());
    pinned.apply(&init);

    let mut rng = Churn(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut live: Vec<(SubscriptionId, ParamFilter, SubscriberView)> = Vec::new();
    for round in &batches {
        // Seeded churn between rounds: join with a random binding, or
        // drop a random live subscriber.
        match rng.next() % 3 {
            0 | 1 => {
                let filter = match rng.next() % 4 {
                    0 => ParamFilter::all(),
                    _ => {
                        let col =
                            schema.columns()[rng.next() as usize % schema.columns().len()].clone();
                        ParamFilter::equals(col, Value::Long(rng.next() as i64 % 50))
                    }
                };
                let (id, init) = hub.subscribe(&shape, filter.clone());
                let mut view = SubscriberView::new(schema.clone());
                view.apply(&init);
                live.push((id, filter, view));
            }
            _ => {
                if !live.is_empty() {
                    let (id, _, _) = live.swap_remove(rng.next() as usize % live.len());
                    assert!(hub.unsubscribe(id));
                }
            }
        }
        for (rel, batch) in round {
            hub.apply_batch(rel, batch);
        }
        for delta in hub.pump() {
            if delta.subscription == pinned_id {
                pinned.apply(&delta);
            } else if let Some((_, _, view)) =
                live.iter_mut().find(|(id, _, _)| *id == delta.subscription)
            {
                view.apply(&delta);
            }
        }
    }

    let own = hub
        .view_contents(q.id)
        .expect("pinned keeps the shape live");
    assert_eq!(
        pinned.contents().checksum(),
        own.checksum(),
        "seed {seed}: pinned subscriber diverged"
    );
    for (id, filter, view) in &live {
        assert_eq!(
            view.contents().checksum(),
            filter.apply(&schema, &own).checksum(),
            "seed {seed}: churned subscriber {id} diverged"
        );
    }
}

/// A worker kill mid-stream during an active subscription (the chaos
/// arm): recovery must resync the subscriber — no gaps, no duplicates —
/// and the post-recovery replay must still reconstruct the view
/// bit-for-bit.  `HOTDOG_FAULT` overrides the kill spec.
#[test]
fn fault_during_active_subscription_resyncs_without_gaps_or_duplicates() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let shape = shape_for(&q);
    let stream = seeded_stream(&q, 150, 0xFA57);
    let batches = stream.batches(10);

    let env_plan = chaos_plan(workers);
    let from_env = env_plan.is_some();
    let plan =
        env_plan.unwrap_or_else(|| FaultPlan::kill(0, FaultKind::RunBlock, 3, Phase::Before));
    eprintln!(
        "subscription fault plan: {} (x{workers})",
        plan.kills
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(";")
    );
    let config = tcp_config(workers).with_faults(plan);
    let mut hub = SubscriptionHub::new(move |_s: &QueryShape, dplan: DistributedPlan| {
        let mut tcp = TcpCluster::new(dplan, &config).expect("tcp cluster");
        tcp.set_fault_config(Some(FaultConfig::every(1)));
        tcp
    });
    let (id, init) = hub.subscribe(&shape, ParamFilter::all());
    let schema = hub.schema_of(id).unwrap().clone();
    let mut view = SubscriberView::new(schema);
    view.apply(&init);

    let mut resyncs = 0usize;
    for round in &batches {
        for (rel, batch) in round {
            hub.apply_batch(rel, batch);
        }
        for delta in hub.pump() {
            if delta.resync {
                resyncs += 1;
            }
            view.apply(&delta);
        }
    }

    // Read the recovery count before the reference read: a seeded kill
    // aimed past the stream could still fire during `view_contents` and
    // recover *after* the last pump (legal, but no resync is due then).
    let recoveries = hub.backend(q.id).unwrap().recoveries();
    let own = hub.view_contents(q.id).expect("shape live");
    assert_eq!(
        view.contents().checksum(),
        own.checksum(),
        "post-recovery replay != serving view bit-for-bit (gap or duplicate)"
    );
    if from_env {
        // A run-id-seeded kill spec may aim past this stream (a later
        // ordinal, a higher worker slot); when it does fire, the resync
        // contract still holds.
        assert!(
            recoveries >= resyncs,
            "resync pushed without a recovery: {resyncs} resyncs, {recoveries} recoveries"
        );
        if recoveries > 0 {
            assert!(resyncs >= 1, "recovery happened but no resync was pushed");
        }
    } else {
        assert_eq!(recoveries, 1, "expected exactly one recovery");
        assert!(
            resyncs >= 1,
            "recovery broke capture continuity but no resync delta was pushed"
        );
    }
}
