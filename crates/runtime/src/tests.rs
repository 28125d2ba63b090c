use super::*;
use hotdog_algebra::expr::*;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple;
use hotdog_distributed::{compile_distributed, LocTag, OptLevel, PartitioningSpec};
use hotdog_exec::{ExecMode, LocalEngine};
use hotdog_ivm::compile_recursive;

pub(crate) fn example_query() -> Expr {
    sum(
        ["B"],
        join_all([
            rel("R", ["OK", "B"]),
            rel("S", ["B", "CK"]),
            rel("T", ["CK", "D"]),
        ]),
    )
}

pub(crate) fn example_dplan(opt: OptLevel) -> DistributedPlan {
    let plan = compile_recursive("Q", &example_query());
    let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
    compile_distributed(&plan, &spec, opt)
}

/// A plan whose top view stays *distributed* (a plain join, no final
/// aggregate): its triggers end with a `Distributed` block rather than
/// a gather, so block completions outlive the trigger that issued them
/// — the shape that exercises the request-id ledger across batches.
fn join_dplan(opt: OptLevel) -> DistributedPlan {
    let q = join_all([
        rel("R", ["OK", "B"]),
        rel("S", ["B", "CK"]),
        rel("T", ["CK", "D"]),
    ]);
    let plan = compile_recursive("J", &q);
    let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
    compile_distributed(&plan, &spec, opt)
}

/// The driver's `driver.batches.executed` counter.
fn executed_batches<T: Transport>(driver: &Driver<T>) -> usize {
    let counter = driver.telemetry().counter("driver.batches.executed");
    counter.get() as usize
}

pub(crate) fn batches() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "R",
            Relation::from_pairs(
                Schema::new(["OK", "B"]),
                (0..40i64).map(|i| (tuple![i, i % 5], 1.0)),
            ),
        ),
        (
            "S",
            Relation::from_pairs(
                Schema::new(["B", "CK"]),
                (0..20i64).map(|i| (tuple![i % 5, i], 1.0)),
            ),
        ),
        (
            "T",
            Relation::from_pairs(
                Schema::new(["CK", "D"]),
                (0..20i64).map(|i| (tuple![i, i * 10], 1.0)),
            ),
        ),
        (
            "R",
            Relation::from_pairs(
                Schema::new(["OK", "B"]),
                vec![(tuple![1, 1], -1.0), (tuple![100, 2], 1.0)],
            ),
        ),
    ]
}

#[test]
fn threaded_matches_simulator_at_every_opt_level() {
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        for workers in [1usize, 2, 5] {
            let dplan = example_dplan(opt);
            let mut sim = Cluster::new(dplan.clone(), ClusterConfig::with_workers(workers));
            let mut real = ThreadedCluster::new(dplan, workers);
            for (rel, batch) in batches() {
                sim.apply_batch(rel, &batch);
                real.apply_batch(rel, &batch);
            }
            assert_eq!(
                real.query_result().sorted(),
                sim.query_result().sorted(),
                "threaded diverged from simulator at {opt:?} with {workers} workers"
            );
        }
    }
}

#[test]
fn pipelined_matches_synchronous_everywhere() {
    for opt in [OptLevel::O0, OptLevel::O3] {
        for workers in [1usize, 2, 5] {
            let mut sync = ThreadedCluster::new(example_dplan(opt), workers);
            let mut piped =
                ThreadedCluster::pipelined(example_dplan(opt), workers, PipelineConfig::default());
            for (rel, batch) in batches() {
                sync.apply_batch(rel, &batch);
                piped.apply_batch(rel, &batch);
            }
            piped.flush();
            assert_eq!(
                piped.query_result().checksum(),
                sync.query_result().checksum(),
                "pipelined diverged at {opt:?} with {workers} workers"
            );
            let view_names: Vec<String> = sync
                .plan()
                .plan
                .views
                .iter()
                .map(|v| v.name.clone())
                .collect();
            for v in view_names {
                assert_eq!(
                    piped.view_contents(&v).checksum(),
                    sync.view_contents(&v).checksum(),
                    "view {v} diverged at {opt:?} with {workers} workers"
                );
            }
        }
    }
}

#[test]
fn coalescing_merges_consecutive_same_relation_batches() {
    let mut piped = ThreadedCluster::pipelined(
        example_dplan(OptLevel::O3),
        2,
        PipelineConfig {
            coalesce_tuples: 1_000,
            admit_capacity: 64,
            ..Default::default()
        },
    );
    // 16 single-tuple R batches then one S batch: the R's coalesce into
    // one queued delta, so only two program executions trigger.
    for i in 0..16i64 {
        piped.apply_batch(
            "R",
            &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![i, i % 5], 1.0)]),
        );
    }
    piped.apply_batch(
        "S",
        &Relation::from_pairs(Schema::new(["B", "CK"]), vec![(tuple![0, 0], 1.0)]),
    );
    piped.flush();
    let stats = piped.pipeline_stats().unwrap();
    assert_eq!(stats.batches_admitted, 17);
    assert_eq!(stats.batches_coalesced, 15);
    assert_eq!(stats.batches_executed, 2);
    assert_eq!(stats.tuples_admitted, 17);
    // One trigger run carries all 16 R tuples, preprocessed onto the only
    // column the R trigger reads (`B`, 5 values), plus the S tuple.
    assert_eq!(stats.tuples_executed, 5 + 1);
}

#[test]
fn coalescing_ring_sum_cancels_opposing_deltas() {
    let mut piped = ThreadedCluster::pipelined(
        example_dplan(OptLevel::O3),
        2,
        PipelineConfig::with_coalesce(1_000),
    );
    piped.apply_batch(
        "R",
        &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![7, 1], 1.0)]),
    );
    piped.apply_batch(
        "R",
        &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![7, 1], -1.0)]),
    );
    piped.flush();
    let stats = piped.pipeline_stats().unwrap();
    assert_eq!(stats.batches_coalesced, 1);
    // The insert and the delete annihilate before ever triggering.
    assert_eq!(stats.tuples_executed, 0);
    assert!(piped.query_result().is_empty());
}

#[test]
fn watermark_exposes_consistent_prefix_without_flush() {
    let config = PipelineConfig {
        coalesce_tuples: 0, // keep every batch distinct
        admit_capacity: 1,  // force eager execution
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
    let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    let all = batches();
    for (rel, batch) in &all {
        piped.apply_batch(rel, batch);
        sync.apply_batch(rel, batch);
    }
    // Without a flush the read still observes a consistent batch
    // boundary: `admit_capacity = 1` guarantees at least all but one
    // batch has been issued.
    assert!(piped.watermark() == 0); // not yet committed by any read
    let partial = piped.query_result();
    let committed = piped.watermark();
    assert!(
        committed >= (all.len() as u64 - 1),
        "eager execution should have issued all but the queued tail"
    );
    // Re-running the same prefix synchronously reproduces the read.
    let mut prefix = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    for (rel, batch) in all.iter().take(committed as usize) {
        prefix.apply_batch(rel, batch);
    }
    assert_eq!(partial.checksum(), prefix.query_result().checksum());
    piped.flush();
    assert_eq!(piped.watermark(), all.len() as u64);
    assert_eq!(
        piped.query_result().checksum(),
        sync.query_result().checksum()
    );
}

#[test]
fn coalesced_reads_observe_commuted_prefix() {
    // Coalescing merges a later same-relation batch into its queued
    // delta, commuting it past other relations' queued batches; a
    // pre-flush read must observe exactly that commuted boundary.
    let config = PipelineConfig {
        coalesce_tuples: 1_000,
        admit_capacity: 2,
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
    let all = batches(); // [R1, S1, T1, R2]
    let (r1, s1, t1, r2) = (&all[0].1, &all[1].1, &all[2].1, &all[3].1);
    piped.apply_batch("R", r1); // queue [R1]
    piped.apply_batch("S", s1); // queue [R1, S1]
    piped.apply_batch("R", r2); // merges into R1's entry, ahead of S1
    piped.apply_batch("T", t1); // queue exceeds capacity -> issue R1⊕R2
    assert_eq!(piped.pipeline_stats().unwrap().batches_coalesced, 1);
    let read = piped.query_result();
    assert_eq!(piped.watermark(), 1, "exactly the coalesced R delta issued");
    // The committed boundary is the commuted prefix [R1 ⊕ R2]: both R
    // batches visible (R2 admitted *after* S1), S1 and T1 not yet.
    let mut reference = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    reference.apply_batch("R", &r1.union(r2));
    assert_eq!(read.checksum(), reference.query_result().checksum());
    let view_names: Vec<String> = reference
        .plan()
        .plan
        .views
        .iter()
        .map(|v| v.name.clone())
        .collect();
    for v in &view_names {
        assert_eq!(
            piped.view_contents(v).checksum(),
            reference.view_contents(v).checksum(),
            "view {v} is not at the commuted boundary"
        );
    }
    // After a flush the end state matches the admitted order exactly
    // (integer multiplicities, so coalescing is bit-exact here).
    piped.flush();
    let mut full = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    for (rel, batch) in &all {
        full.apply_batch(rel, batch);
    }
    for v in &view_names {
        assert_eq!(
            piped.view_contents(v).checksum(),
            full.view_contents(v).checksum(),
            "flushed view {v} diverged"
        );
    }
}

#[test]
fn tiny_inflight_window_still_correct() {
    // A small coalescing bound and queue at the driver's in-flight window.
    let config = PipelineConfig {
        coalesce_tuples: 64,
        admit_capacity: 2,
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
    let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 4);
    for (rel, batch) in batches() {
        piped.apply_batch(rel, &batch);
        sync.apply_batch(rel, &batch);
    }
    piped.flush();
    assert_eq!(
        piped.query_result().checksum(),
        sync.query_result().checksum()
    );
}

#[test]
fn measured_stats_are_populated() {
    let dplan = example_dplan(OptLevel::O3);
    let stages: usize = (batches().iter())
        .filter_map(|(rel, _)| dplan.program(rel).map(|p| p.stages()))
        .sum();
    let mut cluster = ThreadedCluster::new(dplan, 3);
    for (rel, batch) in batches() {
        cluster.apply_batch(rel, &batch);
        let latest = cluster.totals.latencies.last().copied();
        assert!(latest > Some(0.0), "latency must be measured");
    }
    assert!(stages > 0);
    assert_eq!(cluster.totals.latencies.len(), batches().len());
    assert_eq!(executed_batches(&cluster), batches().len());
    assert!(cluster.totals.bytes_shuffled > 0);
    assert!(cluster.totals.throughput() > 0.0);
}

#[test]
fn pipelined_totals_report_stream_throughput() {
    let mut piped =
        ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, PipelineConfig::default());
    for (rel, batch) in batches() {
        piped.apply_batch(rel, &batch);
    }
    piped.flush();
    assert!(piped.totals.latency_secs > 0.0);
    assert!(piped.totals.throughput() > 0.0);
    assert_eq!(
        piped.totals.tuples,
        batches().iter().map(|(_, b)| b.len()).sum::<usize>()
    );
    // Flushing twice must not double-count stream time.
    let t = piped.totals.latency_secs;
    piped.flush();
    assert_eq!(piped.totals.latency_secs, t);
}

#[test]
fn intermediate_view_contents_match_simulator() {
    let dplan = example_dplan(OptLevel::O3);
    let view_names: Vec<String> = dplan.plan.views.iter().map(|v| v.name.clone()).collect();
    let mut sim = Cluster::new(dplan.clone(), ClusterConfig::with_workers(4));
    let mut real = ThreadedCluster::new(dplan, 4);
    for (rel, batch) in batches() {
        sim.apply_batch(rel, &batch);
        real.apply_batch(rel, &batch);
    }
    for v in view_names {
        assert_eq!(
            real.view_contents(&v).sorted(),
            sim.view_contents(&v).sorted(),
            "view {v} diverged"
        );
    }
}

#[test]
fn replicated_view_reads_return_one_copy() {
    // The Q3 shape: the customer view is probed by `CK` under the
    // order key, so the compiler places it on every worker.  A read
    // must return one replica (the single-node view), not W of them
    // summed — and the replica must have been maintained from the
    // replicated batch alone.
    let q = sum(
        ["OK"],
        join_all([
            rel("C", ["CK", "SEG"]),
            rel("O", ["OK", "CK"]),
            rel("L", ["OK", "P"]),
        ]),
    );
    let plan = compile_recursive("Q", &q);
    let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
    let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
    let replicas: Vec<String> = dplan
        .spec
        .views()
        .filter(|(_, tag)| **tag == LocTag::Replicated)
        .map(|(v, _)| v.clone())
        .collect();
    assert_eq!(replicas.len(), 1, "{}", dplan.pretty());

    let stream = [
        (
            "C",
            Relation::from_pairs(
                Schema::new(["CK", "SEG"]),
                (0..12i64).map(|i| (tuple![i, i % 3], 1.0)),
            ),
        ),
        (
            "O",
            Relation::from_pairs(
                Schema::new(["OK", "CK"]),
                (0..30i64).map(|i| (tuple![i, i % 12], 1.0)),
            ),
        ),
        (
            "L",
            Relation::from_pairs(
                Schema::new(["OK", "P"]),
                (0..60i64).map(|i| (tuple![i % 30, i], 1.0)),
            ),
        ),
        (
            "C",
            Relation::from_pairs(
                Schema::new(["CK", "SEG"]),
                vec![(tuple![3, 0], -1.0), (tuple![12, 1], 1.0)],
            ),
        ),
        (
            "O",
            Relation::from_pairs(Schema::new(["OK", "CK"]), vec![(tuple![30, 12], 1.0)]),
        ),
    ];
    let mut local = LocalEngine::new(
        plan,
        ExecMode::Batched {
            preaggregate: false,
        },
    );
    let mut real = ThreadedCluster::new(dplan, 3);
    for (rel, batch) in &stream {
        local.apply_batch(rel, batch);
        real.apply_batch(rel, batch);
    }
    assert_eq!(
        real.view_contents(&replicas[0]).sorted(),
        local.view_contents(&replicas[0]).sorted()
    );
    assert_eq!(real.query_result().sorted(), local.query_result().sorted());
    assert!(!real.query_result().is_empty());
}

#[test]
fn unknown_relation_batches_are_ignored() {
    let dplan = example_dplan(OptLevel::O3);
    let mut cluster = ThreadedCluster::new(dplan, 2);
    cluster.apply_batch(
        "UNRELATED",
        &Relation::from_pairs(Schema::new(["X"]), vec![(tuple![1], 1.0)]),
    );
    assert!(cluster.totals.latencies.is_empty(), "nothing executed");
    assert!(cluster.query_result().is_empty());
}

#[test]
fn byte_bound_backpressures_the_admission_queue() {
    let admit_bytes = 600usize;
    let config = PipelineConfig {
        coalesce_tuples: 0, // keep batches distinct so the queue grows
        admit_capacity: 1_000,
        ..Default::default()
    }
    .with_admit_bytes(admit_bytes);
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
    let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
    for _ in 0..4 {
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
            sync.apply_batch(rel, &batch);
            assert!(
                piped.queued_bytes() <= admit_bytes,
                "queue footprint {} exceeds the byte bound",
                piped.queued_bytes()
            );
        }
    }
    let stats = piped.pipeline_stats().unwrap();
    assert!(
        stats.executions_forced_by_bytes > 0,
        "the byte bound never engaged: {stats:?}"
    );
    piped.flush();
    assert_eq!(piped.queued_bytes(), 0);
    assert_eq!(
        piped.query_result().checksum(),
        sync.query_result().checksum(),
        "byte backpressure changed view state"
    );
}

#[test]
fn close_abandons_queued_batches_without_executing() {
    let config = PipelineConfig {
        coalesce_tuples: 0, // keep every admitted batch distinct
        admit_capacity: 1_000,
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
    for (rel, batch) in batches() {
        piped.apply_batch(rel, &batch);
    }
    assert_eq!(piped.queued_batches(), batches().len());
    assert_eq!(piped.pipeline_stats().unwrap().batches_executed, 0);
    let final_stats = piped.close(); // must not hang, execute, or leak
    assert_eq!(final_stats.batches_abandoned, batches().len());
    assert_eq!(
        final_stats.batches_executed, 0,
        "close() must not execute queued deltas"
    );

    // Same invariant on the plain Drop path, with replies still in
    // flight: issued-but-uncollected block completions plus a queued
    // tail must shut down cleanly.
    let config = PipelineConfig {
        coalesce_tuples: 0,
        admit_capacity: 2, // forces some eager (pipelined) executions
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
    for _ in 0..3 {
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
    }
    assert!(piped.queued_batches() > 0);
    drop(piped); // no hang, no panic, queued deltas never execute
}

#[test]
fn async_gather_overlaps_inflight_blocks() {
    // Eager per-batch execution: by the time batch k's repart/gather
    // fetches, blocks of earlier batches are still pending, so the tagged
    // schedule must record overlapped gathers.
    let config = PipelineConfig {
        coalesce_tuples: 0,
        admit_capacity: 0,
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
    for _ in 0..3 {
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
    }
    piped.flush();
    let stats = piped.pipeline_stats().unwrap();
    assert!(
        stats.gathers_overlapped > 0,
        "no gather ever overlapped in-flight blocks: {stats:?}"
    );
}

#[test]
fn scatter_batching_reduces_messages() {
    // O0 keeps transformer statements unfused, so consecutive scatters
    // buffer into one ApplyMany per worker and the saved-message
    // counter must engage.
    let mut piped =
        ThreadedCluster::pipelined(example_dplan(OptLevel::O0), 2, PipelineConfig::default());
    for (rel, batch) in batches() {
        piped.apply_batch(rel, &batch);
    }
    piped.flush();
    let stats = piped.pipeline_stats().unwrap();
    assert!(stats.scatter_messages_sent > 0);
    assert!(
        stats.scatter_messages_saved > 0,
        "batching saved no messages: {stats:?}"
    );
}

#[test]
fn flush_drains_reply_ledger_before_close() {
    // Eager pipelined execution leaves block completions unsettled in
    // the request-id ledger; `flush` must
    // settle all of them (and barrier trailing scatters) so a
    // subsequent close/Drop abandons nothing and owes workers nothing.
    let config = PipelineConfig {
        coalesce_tuples: 0,
        admit_capacity: 1,
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(join_dplan(OptLevel::O3), 4, config);
    for _ in 0..3 {
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
    }
    assert!(
        piped.outstanding_replies() > 0,
        "expected unsettled completions before the flush"
    );
    piped.flush();
    assert_eq!(
        piped.outstanding_replies(),
        0,
        "flush must drain the request-id ledger"
    );
    assert_eq!(piped.queued_batches(), 0);
    let final_stats = piped.close();
    assert_eq!(
        final_stats.batches_abandoned, 0,
        "a flushed pipeline abandons nothing at close"
    );
}

#[test]
#[should_panic(expected = "before any batch is issued")]
fn a_fault_config_installed_mid_stream_is_refused() {
    // No checkpoint would cover the batches already issued: the first
    // recovery would restore every node to empty and lose them.
    let mut cluster = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
    let (rel, batch) = &batches()[0];
    cluster.apply_batch(rel, batch);
    cluster.set_fault_config(Some(FaultConfig::default()));
}

#[test]
fn eager_pipelined_reads_observe_an_issued_prefix() {
    // Eager execution gathers mid-stream, with batch k+1's blocks in
    // flight behind batch k's fetches.  A pre-flush read must still
    // observe a consistent batch boundary, and the flushed state must
    // match a synchronous driver's.
    let config = PipelineConfig {
        coalesce_tuples: 0, // keep every batch a distinct trigger
        admit_capacity: 1,  // eager execution, gathers mid-stream
        ..Default::default()
    };
    let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
    let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    let all = batches();
    for (rel, batch) in &all {
        piped.apply_batch(rel, batch);
        sync.apply_batch(rel, batch);
    }
    // Pre-flush read: reproducible by re-running the issued prefix.
    let partial = piped.query_result();
    let committed = piped.watermark();
    assert!(
        committed >= all.len() as u64 - 1,
        "eager execution should have issued all but the queued tail"
    );
    let mut prefix = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
    for (rel, batch) in all.iter().take(committed as usize) {
        prefix.apply_batch(rel, batch);
    }
    assert_eq!(
        partial.checksum(),
        prefix.query_result().checksum(),
        "the pre-flush read is not an issued prefix"
    );
    piped.flush();
    assert_eq!(piped.watermark(), all.len() as u64);
    assert_eq!(piped.outstanding_replies(), 0);
    assert_eq!(
        piped.query_result().checksum(),
        sync.query_result().checksum(),
        "the pipelined schedule changed the final state"
    );
}

#[test]
fn workers_shut_down_cleanly_on_drop() {
    let dplan = example_dplan(OptLevel::O3);
    let mut cluster = ThreadedCluster::new(dplan, 8);
    for (rel, batch) in batches() {
        cluster.apply_batch(rel, &batch);
    }
    drop(cluster); // must not hang or panic

    // Pipelined clusters with work still in flight must also shut down.
    let mut piped =
        ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, PipelineConfig::default());
    for (rel, batch) in batches() {
        piped.apply_batch(rel, &batch);
    }
    drop(piped); // queued + in-flight work abandoned, no hang
}

fn run_generic<T: Transport>(driver: &mut Driver<T>) -> Relation {
    let batches: Vec<Vec<(&str, Relation)>> = vec![vec![
        (
            "R",
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                (0..10i64).map(|i| (tuple![i, i % 3], 1.0)),
            ),
        ),
        (
            "S",
            Relation::from_pairs(
                Schema::new(["B", "C"]),
                (0..6i64).map(|i| (tuple![i % 3, i], 1.0)),
            ),
        ),
    ]];
    driver.apply_stream(&batches);
    driver.query_result()
}

#[test]
fn generic_driver_code_runs_on_the_simulated_cluster() {
    let q = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
    let plan = compile_recursive("Q", &q);
    let spec = PartitioningSpec::heuristic(&plan, &["A"]);
    let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
    let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(3));
    let result = run_generic(&mut cluster);
    assert!(!result.is_empty());
    assert_eq!(cluster.totals.latencies.len(), 2);
    assert_eq!(executed_batches(&cluster), 2);
}

#[test]
fn commits_behind_a_block_send_no_barrier_round() {
    // Every scatter of this plan is followed by a `RunBlock` to the same
    // worker, whose owed completion the watermark commit settles anyway:
    // neither schedule may add a `Barrier` round on top of it.
    for pipeline in [None, Some(PipelineConfig::default())] {
        let dplan = example_dplan(OptLevel::O3);
        let transport = ChannelTransport::spawn(&dplan, 2);
        let mut d = Driver::with_transport(dplan, transport, pipeline.clone());
        for _ in 0..3 {
            for (rel, batch) in batches() {
                d.apply_batch(rel, &batch);
            }
            d.flush();
            d.query_result();
        }
        let barriers = d
            .telemetry()
            .registry()
            .counter_value("driver.requests.barrier");
        assert_eq!(barriers, 0, "pipelined: {}", pipeline.is_some());
    }
}

/// Apply `stream` one batch at a time on a synchronous driver and check
/// that each `apply_batch` returns committed: no block completion owed,
/// and the watermark one further for each batch the plan triggers on.
fn assert_each_batch_commits<T: Transport>(d: &mut Driver<T>, stream: &[(&str, Relation)]) {
    for (i, (rel, batch)) in stream.iter().enumerate() {
        let before = d.watermark();
        d.apply_batch(rel, batch);
        let triggered = d.plan().program(rel).is_some();
        assert_eq!(
            d.outstanding_replies(),
            0,
            "batch {i} ({rel}) left completions owed"
        );
        assert_eq!(
            d.watermark(),
            before + u64::from(triggered),
            "batch {i} ({rel}) did not commit"
        );
    }
}

#[test]
fn a_synchronous_batch_commits_before_apply_batch_returns() {
    // The commit runs behind the batch's `issued += 1`: in front of it,
    // `watermark == issued` would make the commit return at once with the
    // last block's completion still owed.
    let mut stream = batches();
    let unrelated = Relation::from_pairs(Schema::new(["X"]), vec![(tuple![1], 1.0)]);
    stream.insert(1, ("UNRELATED", unrelated));
    for make in [example_dplan, join_dplan] {
        let mut threaded = ThreadedCluster::new(make(OptLevel::O3), 3);
        assert_each_batch_commits(&mut threaded, &stream);
        let mut sim = Cluster::new(make(OptLevel::O3), ClusterConfig::with_workers(3));
        assert_each_batch_commits(&mut sim, &stream);
        assert_eq!(
            threaded.query_result().checksum(),
            sim.query_result().checksum()
        );
    }
}
