//! Backend equivalence: the real thread-per-worker runtime
//! (`ThreadedCluster`) and the simulated `Cluster` are the same driver over
//! two transports (worker threads vs. workers run inline) and the same
//! `WorkerState` machinery, so they must produce identical query results —
//! across the same
//! strategy/workload matrix as `strategy_equivalence.rs`, for 1, 2 and 4
//! workers.
//!
//! The match is asserted **bit-for-bit, on the floating-point TPC catalogs
//! too**, via sorted-order [`ViewChecksum`]s: every container on the data
//! path hashes with a fixed seed (`hotdog_algebra::hash`), so iteration
//! order — and therefore float accumulation order — is a deterministic
//! function of the insertion history, which is identical across backends by
//! construction.  The checksum folds (tuple, multiplicity-bits) pairs in
//! sorted key order, so the comparison itself is independent of map
//! layout.

use hotdog::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn stream_for(q: &CatalogQuery, tuples: usize) -> UpdateStream {
    match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(11, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(11, tuples),
    }
}

fn compile_for(q: &CatalogQuery, opt: OptLevel) -> DistributedPlan {
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

fn run_simulated(dplan: DistributedPlan, stream: &UpdateStream, workers: usize) -> Relation {
    let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(workers));
    for batch in stream.batches(120) {
        for (rel, delta) in batch {
            cluster.apply_batch(rel, &delta);
        }
    }
    cluster.query_result()
}

fn run_threaded(dplan: DistributedPlan, stream: &UpdateStream, workers: usize) -> Relation {
    let mut cluster = ThreadedCluster::new(dplan, workers);
    for batch in stream.batches(120) {
        for (rel, delta) in batch {
            cluster.apply_batch(rel, &delta);
        }
    }
    cluster.query_result()
}

fn check_catalog(queries: Vec<CatalogQuery>, tuples: usize) {
    for q in queries {
        let stream = stream_for(&q, tuples);
        for workers in WORKER_COUNTS {
            let sim = run_simulated(compile_for(&q, OptLevel::O3), &stream, workers);
            let real = run_threaded(compile_for(&q, OptLevel::O3), &stream, workers);
            assert!(
                real.checksum() == sim.checksum(),
                "{} x{workers}: threaded diverged from simulator (bit-for-bit)\nsim {sim:?}\nreal {real:?}",
                q.id
            );
        }
    }
}

#[test]
fn threaded_equals_simulated_on_full_tpch_catalog() {
    check_catalog(tpch_queries(), 350);
}

#[test]
fn threaded_equals_simulated_on_full_tpcds_catalog() {
    check_catalog(tpcds_queries(), 350);
}

#[test]
fn threaded_equals_simulated_at_every_opt_level() {
    for id in ["Q3", "Q17"] {
        let q = query(id).unwrap();
        let stream = stream_for(&q, 300);
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for workers in WORKER_COUNTS {
                let sim = run_simulated(compile_for(&q, opt), &stream, workers);
                let real = run_threaded(compile_for(&q, opt), &stream, workers);
                assert!(
                    real.checksum() == sim.checksum(),
                    "{id} {opt:?} x{workers}: threaded diverged from simulator (bit-for-bit)"
                );
            }
        }
    }
}

/// On integer-multiplicity data every f64 operation is exact, so the two
/// backends must agree bit-for-bit regardless of accumulation order.
#[test]
fn threaded_is_bit_identical_on_integer_workload() {
    let q = sum(
        ["B"],
        join_all([
            rel("R", ["OK", "B"]),
            rel("S", ["B", "CK"]),
            rel("T", ["CK", "D"]),
        ]),
    );
    let plan = compile_recursive("Q", &q);
    let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
    let batches: Vec<(&str, Relation)> = vec![
        (
            "R",
            Relation::from_pairs(
                Schema::new(["OK", "B"]),
                (0..60i64).map(|i| {
                    (
                        Tuple::from_values([Value::Long(i), Value::Long(i % 7)]),
                        if i % 11 == 0 { -1.0 } else { 1.0 },
                    )
                }),
            ),
        ),
        (
            "S",
            Relation::from_pairs(
                Schema::new(["B", "CK"]),
                (0..30i64).map(|i| {
                    (
                        Tuple::from_values([Value::Long(i % 7), Value::Long(i)]),
                        2.0,
                    )
                }),
            ),
        ),
        (
            "T",
            Relation::from_pairs(
                Schema::new(["CK", "D"]),
                (0..30i64).map(|i| {
                    (
                        Tuple::from_values([Value::Long(i), Value::Long(i * 3)]),
                        1.0,
                    )
                }),
            ),
        ),
    ];
    for workers in WORKER_COUNTS {
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let mut sim = Cluster::new(dplan.clone(), ClusterConfig::with_workers(workers));
        let mut real = ThreadedCluster::new(dplan, workers);
        for (rel, batch) in &batches {
            sim.apply_batch(rel, batch);
            real.apply_batch(rel, batch);
        }
        assert_eq!(
            real.query_result().sorted(),
            sim.query_result().sorted(),
            "bit-for-bit mismatch with {workers} workers"
        );
    }
}
