//! Distributed execution correctness: the simulated cluster must maintain
//! exactly the same query results as the local engine, for every
//! optimization level and across worker counts, on real workload streams.

mod common;

use hotdog::distributed::{DistStmtKind, Programs, Transform};
use hotdog::ivm::plan::collect_access;
use hotdog::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn stream_for(q: &CatalogQuery, tuples: usize) -> UpdateStream {
    match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(21, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(21, tuples),
    }
}

fn local_result(q: &CatalogQuery, stream: &UpdateStream, batch_size: usize) -> Relation {
    let plan = compile_recursive(q.id, &q.expr);
    let mut engine = LocalEngine::new(
        plan,
        ExecMode::Batched {
            preaggregate: false,
        },
    );
    for batch in stream.batches(batch_size) {
        for (rel, delta) in batch {
            engine.apply_batch(rel, &delta);
        }
    }
    engine.query_result()
}

fn cluster_result(
    q: &CatalogQuery,
    stream: &UpdateStream,
    batch_size: usize,
    workers: usize,
    opt: OptLevel,
) -> (Relation, hotdog::runtime::ClusterTotals) {
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    let dplan = compile_distributed(&plan, &spec, opt);
    let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(workers));
    for batch in stream.batches(batch_size) {
        for (rel, delta) in batch {
            cluster.apply_batch(rel, &delta);
        }
    }
    (cluster.query_result(), cluster.totals.clone())
}

#[test]
fn cluster_matches_local_engine_on_distributed_benchmark_queries() {
    // The queries the paper scales out (Figures 9–11) plus a TPC-DS star join.
    for id in ["Q1", "Q3", "Q6", "Q7", "Q17", "DS42"] {
        let q = query(id).unwrap();
        let stream = stream_for(&q, 600);
        let expected = local_result(&q, &stream, 150);
        let (got, totals) = cluster_result(&q, &stream, 150, 6, OptLevel::O3);
        assert!(
            got.approx_eq_eps(&expected, 1e-3),
            "{id}: cluster diverged from local engine\nexpected {expected:?}\ngot {got:?}"
        );
        assert!(totals.latency_secs > 0.0, "{id}: no latency modelled");
    }
}

#[test]
fn optimization_levels_do_not_change_results() {
    let q = query("Q3").unwrap();
    let stream = stream_for(&q, 500);
    let expected = local_result(&q, &stream, 100);
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        let (got, _) = cluster_result(&q, &stream, 100, 4, opt);
        assert!(got.approx_eq_eps(&expected, 1e-3), "Q3 diverged at {opt:?}");
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let q = query("Q17").unwrap();
    let stream = stream_for(&q, 400);
    let expected = local_result(&q, &stream, 100);
    for workers in [1, 2, 5, 16] {
        let (got, _) = cluster_result(&q, &stream, 100, workers, OptLevel::O3);
        assert!(
            got.approx_eq_eps(&expected, 1e-3),
            "Q17 diverged with {workers} workers"
        );
    }
}

#[test]
fn block_fusion_reduces_blocks_on_tpch_q3() {
    let q = query("Q3").unwrap();
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    let unfused = compile_distributed(&plan, &spec, OptLevel::O1);
    let fused = compile_distributed(&plan, &spec, OptLevel::O2);
    let blocks =
        |dp: &DistributedPlan| -> usize { dp.programs.iter().map(|p| p.blocks.len()).sum() };
    assert!(
        blocks(&fused) < blocks(&unfused),
        "block fusion had no effect: {} vs {}",
        blocks(&fused),
        blocks(&unfused)
    );
}

#[test]
fn distributed_plans_report_jobs_and_stages_for_all_tpch_queries() {
    for q in tpch_queries() {
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let (jobs, stages) = dplan.complexity();
        assert!(jobs >= 1, "{}: zero jobs", q.id);
        assert!(
            stages >= jobs.min(1),
            "{}: stages {stages} < jobs {jobs}",
            q.id
        );
        assert!(stages <= 24, "{}: implausibly many stages ({stages})", q.id);
    }
}

#[test]
fn shuffled_bytes_scale_with_batch_size() {
    let q = query("Q3").unwrap();
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    let small_stream = stream_for(&q, 200);
    let big_stream = stream_for(&q, 800);

    let run = |stream: &UpdateStream| {
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(4));
        for batch in stream.batches(stream.len()) {
            for (rel, delta) in batch {
                cluster.apply_batch(rel, &delta);
            }
        }
        cluster.totals.bytes_shuffled
    };
    let small = run(&small_stream);
    let big = run(&big_stream);
    assert!(
        big > small,
        "bytes shuffled should grow with input: {big} vs {small}"
    );
}

fn catalog_plan(q: &CatalogQuery, opt: OptLevel) -> DistributedPlan {
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

/// An oracle independent of every incremental path: the simulated cluster
/// — which runs each trigger over its preprocessed batch — matches
/// re-evaluation from scratch (no pre-aggregation) on a stream with
/// deletions, and holds the same views as the local engine running the
/// same plan.
fn matches_reevaluation_with_deletions(queries: Vec<CatalogQuery>) {
    for q in queries {
        let stream = match q.workload {
            hotdog::workload::Workload::TpcH => generate_tpch(11, 800),
            hotdog::workload::Workload::TpcDs => generate_tpcds(11, 800),
        }
        .with_deletions(11, 0.25);
        let unaggregated = ExecMode::Batched {
            preaggregate: false,
        };
        let mut reeval =
            LocalEngine::new(compile(q.id, &q.expr, Strategy::Reevaluation), unaggregated);
        let mut local = LocalEngine::new(compile_recursive(q.id, &q.expr), unaggregated);
        let mut cluster = Cluster::new(
            catalog_plan(&q, OptLevel::O3),
            ClusterConfig::with_workers(2),
        );
        for round in stream.batches(200) {
            for (rel, delta) in round {
                reeval.apply_batch(rel, &delta);
                local.apply_batch(rel, &delta);
                cluster.apply_batch(rel, &delta);
            }
        }
        let (expected, got) = (reeval.query_result(), cluster.query_result());
        assert!(
            got.approx_eq_eps(&expected, 1e-3),
            "{}: cluster diverged from re-evaluation\nexpected {expected:?}\ngot {got:?}",
            q.id
        );
        for view in &local.plan().views {
            assert!(
                cluster
                    .view_contents(&view.name)
                    .approx_eq_eps(&local.view_contents(&view.name), 1e-3),
                "{}: view {} diverged from the local engine",
                q.id,
                view.name
            );
        }
    }
}

#[test]
fn every_tpch_query_matches_reevaluation_with_deletions() {
    matches_reevaluation_with_deletions(tpch_queries());
}

#[test]
fn every_tpcds_query_matches_reevaluation_with_deletions() {
    matches_reevaluation_with_deletions(tpcds_queries());
}

/// Plan shape across the catalog: no program at any level replicates a
/// persistent view wholesale (such views are placed `Replicated` and fed by
/// their delta instead), and the whole-view moves that remain — driver
/// views broadcast to the workers, partitioned views re-hashed by another
/// column — are pinned catalog-wide at O3 so they can only go down.
#[test]
fn no_plan_replicates_a_whole_view() {
    let (mut broadcast, mut repartitioned) = (0, 0);
    for q in all_queries() {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let dplan = catalog_plan(&q, opt);
            let moves = dplan.whole_view_moves();
            assert_eq!(
                moves.replicated,
                0,
                "{} at {opt:?} replicates a whole view:\n{}",
                q.id,
                dplan.pretty()
            );
            if opt == OptLevel::O3 {
                broadcast += moves.broadcast;
                repartitioned += moves.repartitioned;
            }
        }
    }
    // Lower these when a placement change removes more of them.
    assert_eq!(broadcast, 23, "driver-view broadcasts across the catalog");
    assert_eq!(repartitioned, 9, "whole-view re-hashes across the catalog");
}

/// Every node indexes exactly what its installed statements probe: the
/// partially bound view slices of the distributed programs' `Compute`
/// statements, not those of the plan's local triggers, which no node runs.
#[test]
fn nodes_index_exactly_the_view_slices_their_statements_probe() {
    for q in all_queries() {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let dplan = catalog_plan(&q, opt);
            let mut probed = BTreeSet::new();
            let statements = dplan
                .programs
                .iter()
                .flat_map(|p| &p.blocks)
                .flat_map(|b| &b.statements);
            for stmt in statements {
                if let DistStmtKind::Compute(expr) = &stmt.kind {
                    collect_access(expr, &mut Schema::empty(), &mut |view, positions| {
                        let arity = dplan.plan.view(view).map(|v| v.schema.len());
                        if arity.is_some_and(|a| !positions.is_empty() && positions.len() < a) {
                            probed.insert((view.to_string(), positions));
                        }
                    });
                }
            }
            let programs = Programs::install(dplan.program_blocks()).expect("plan installs");
            let node = WorkerState::with_programs(&dplan.plan, Arc::new(programs));
            let mut indexed = BTreeSet::new();
            for view in &dplan.plan.views {
                let pool = node.db.pool(&view.name).expect("every view has a pool");
                for positions in pool.secondary_index_specs() {
                    indexed.insert((view.name.clone(), positions));
                }
            }
            assert_eq!(indexed, probed, "{} at {opt:?}", q.id);
        }
    }
}

/// Communication is O(|Δ|): for every catalog query whose O3 programs move
/// nothing but the batch itself, the bytes shuffled by a fixed suffix of
/// the stream do not depend on how much was loaded before it.
#[test]
fn shuffled_bytes_do_not_grow_with_the_database() {
    const ROUND: usize = 50;
    const SUFFIX_ROUNDS: usize = 4;
    let mut covered = Vec::new();
    for q in all_queries() {
        let scatters_batches_only = catalog_plan(&q, OptLevel::O3)
            .programs
            .iter()
            .flat_map(|p| p.statements())
            .all(|s| match &s.kind {
                DistStmtKind::Transform { kind, source } => {
                    matches!(kind, Transform::Scatter(_)) && source.starts_with('Δ')
                }
                DistStmtKind::Compute(_) => true,
            });
        if !scatters_batches_only {
            continue;
        }
        covered.push(q.id);
        let stream = stream_for(&q, 600);
        let rounds = stream.batches(ROUND);
        let suffix_start = rounds.len() - SUFFIX_ROUNDS;
        // 2x preload: everything before the suffix; 1x: its second half.
        let suffix_bytes = |preload_start: usize| {
            let mut cluster = Cluster::new(
                catalog_plan(&q, OptLevel::O3),
                ClusterConfig::with_workers(2),
            );
            let mut before_suffix = 0;
            for (i, round) in rounds.iter().enumerate().skip(preload_start) {
                if i == suffix_start {
                    before_suffix = cluster.totals.bytes_shuffled;
                }
                for (rel, delta) in round {
                    cluster.apply_batch(rel, delta);
                }
            }
            cluster.totals.bytes_shuffled - before_suffix
        };
        let (once, twice) = (suffix_bytes(suffix_start / 2), suffix_bytes(0));
        assert!(once > 0, "{}: the suffix shuffled nothing", q.id);
        assert_eq!(once, twice, "{}: suffix bytes depend on the preload", q.id);
    }
    for id in ["Q3", "Q18"] {
        assert!(covered.contains(&id), "{id} moves more than its batches");
    }
}

/// Compute is O(|Δ|) where the plan probes the batch by key: Q18's
/// LINEITEM trigger slices the scattered batch on `OK` once per batch
/// tuple, so answering each slice by a scan of the batch would make the
/// tuples touched per batch tuple grow with |Δ| (8× from 512 to 4096).
/// Each batch is drawn with an order-key domain proportional to its size,
/// so the matches per probe stay constant and linear work stays flat.
#[test]
fn tuples_touched_per_delta_tuple_do_not_grow_with_the_batch() {
    let q = query("Q18").unwrap();
    let workers = common::workers_under_test();
    let touched_per_tuple = |size: usize| {
        let stream = generate_tpch(7, size * 3 / 2);
        let mut delta = Relation::new(stream.schema("LINEITEM").unwrap().clone());
        for ev in stream.events.iter().filter(|ev| ev.relation == "LINEITEM") {
            if delta.len() == size {
                break;
            }
            delta.add(ev.tuple.clone(), ev.mult);
        }
        assert_eq!(delta.len(), size);
        let mut cluster = Cluster::new(
            catalog_plan(&q, OptLevel::O3),
            ClusterConfig::with_workers(workers),
        );
        cluster.apply_batch("LINEITEM", &delta);
        cluster.telemetry_totals().tuples_touched as f64 / size as f64
    };
    let (small, large) = (touched_per_tuple(512), touched_per_tuple(4096));
    assert!(
        large <= 1.5 * small,
        "x{workers}: {large:.2} tuples touched per batch tuple at |Δ| = 4096 vs {small:.2} at 512"
    );
}

/// The exact-count gate on the repo benchmark's `shuffle_bytes_per_tuple`:
/// for the benchmark's plan shapes (`BENCHMARK.json`: Q3 at O3 on 2 workers
/// and on 1, Q18 at O3 on 1 worker with deletions) over a fixed-seed
/// stream, the synchronous `ThreadedCluster` counts exactly the bytes the
/// simulated `Cluster` models — the metric is a property of the plan, not
/// of the backend — and the count is pinned so it can only go down.
#[test]
fn benchmark_plan_shapes_shuffle_pinned_bytes_on_every_backend() {
    const TUPLES: usize = 2_400;
    const ROUND: usize = 100;
    // (query, workers, deleted fraction, most bytes the stream may shuffle).
    // Lower a pin when a lowering change ships fewer bytes; never raise one.
    for (id, workers, deletions, pinned) in [
        ("Q3", 2, None, 85_048),
        ("Q3", 1, None, 84_064),
        ("Q18", 1, Some(0.25), 189_568),
    ] {
        let q = query(id).unwrap();
        let mut stream = generate_tpch(7, TUPLES);
        if let Some(fraction) = deletions {
            stream = stream.with_deletions(7, fraction);
        }
        let rounds = stream.batches(ROUND);
        let mut sim = Cluster::new(
            catalog_plan(&q, OptLevel::O3),
            ClusterConfig::with_workers(workers),
        );
        let mut threaded = ThreadedCluster::new(catalog_plan(&q, OptLevel::O3), workers);
        sim.apply_stream(&rounds);
        threaded.apply_stream(&rounds);
        assert_eq!(
            threaded.query_result().checksum(),
            sim.query_result().checksum(),
            "{id} x{workers}: threaded != simulated"
        );
        let bytes = threaded.totals.bytes_shuffled;
        assert_eq!(
            bytes, sim.totals.bytes_shuffled,
            "{id} x{workers}: threaded and simulated count different shuffle bytes"
        );
        assert!(
            bytes <= pinned,
            "{id} x{workers}: {bytes} B shuffled over {} tuples, pinned at {pinned} B",
            stream.len()
        );
    }
}
