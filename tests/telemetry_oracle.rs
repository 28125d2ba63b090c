//! Telemetry oracle: the `driver.*` / `worker.*` counters are
//! deterministic functions of the admission sequence and the shared
//! driver schedule — never of wall-clock time or of how bytes move — so
//! for the same update stream the threaded and TCP backends, and the
//! simulated cluster (the same driver over inline workers), must produce
//! **bit-identical** totals.  This suite holds that contract across the
//! differential-oracle catalog, plus the StatsReply hygiene invariants
//! (a stats gather leaves no unconsumed reply in the ledger).

mod common;

use common::{tcp_config, workers_under_test};
use hotdog::prelude::*;

fn compile_for(q: &CatalogQuery, opt: OptLevel) -> DistributedPlan {
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

fn seeded_stream(q: &CatalogQuery, tuples: usize, seed: u64) -> UpdateStream {
    let base = match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(seed, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(seed, tuples),
    };
    base.with_deletions(seed, 0.25)
}

/// Every catalog query, epoch-synchronous: every worker's
/// `worker_stats()` (its counters and per-view partition cardinalities)
/// and the deterministic slice of the metrics registry (driver message
/// counts, worker sums) must agree bit-for-bit between the threaded and
/// TCP backends and the simulated cluster.
#[test]
fn telemetry_totals_agree_threaded_vs_tcp_across_catalog() {
    let workers = workers_under_test();
    for (i, q) in all_queries().iter().enumerate() {
        let opt = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3][i % 4];
        let stream = seeded_stream(q, 120, 0x7E1E + i as u64);
        let batches = stream.batches(24);

        let mut threaded = ThreadedCluster::new(compile_for(q, opt), workers);
        let mut tcp =
            TcpCluster::new(compile_for(q, opt), &tcp_config(workers)).expect("tcp cluster");
        let mut sim = Cluster::new(compile_for(q, opt), ClusterConfig::with_workers(workers));
        threaded.apply_stream(&batches);
        tcp.apply_stream(&batches);
        sim.apply_stream(&batches);

        let threaded_workers = threaded.worker_stats();
        assert_eq!(
            threaded_workers,
            tcp.worker_stats(),
            "{} {opt:?} x{workers}: worker stats diverged threaded vs TCP",
            q.id
        );
        assert_eq!(
            threaded_workers,
            sim.worker_stats(),
            "{} {opt:?} x{workers}: worker stats diverged threaded vs simulated",
            q.id
        );

        // The deterministic registry slice (driver.* counters and the
        // worker.* sums) agrees too.
        let threaded_snap = threaded.metrics_snapshot().deterministic();
        let tcp_snap = tcp.metrics_snapshot().deterministic();
        assert_eq!(
            threaded_snap, tcp_snap,
            "{} {opt:?} x{workers}: deterministic metrics snapshot diverged",
            q.id
        );
        assert_eq!(
            threaded_snap,
            sim.metrics_snapshot().deterministic(),
            "{} {opt:?} x{workers}: deterministic metrics snapshot diverged threaded vs simulated",
            q.id
        );
        for counter in [
            "worker.instructions",
            "worker.tuples_touched",
            "driver.requests.total",
            "driver.replies.total",
        ] {
            assert!(
                threaded_snap.counter(counter) > 0,
                "{}: {counter} missing from the snapshot",
                q.id
            );
        }
        // Stats gathers are tagged requests like any other: after the
        // gather the ledger owes nothing (no unconsumed StatsReply).
        assert_eq!(threaded.outstanding_replies(), 0);
        assert_eq!(tcp.outstanding_replies(), 0);
    }
}

/// Pipelined mode with a coalescing bound: same admission stream, same
/// coalesced schedule, same worker stats, deterministic snapshot and
/// whole [`PipelineStats`] (high-water marks included) on both backends —
/// and repeated snapshots stay in agreement (each `Stats` round adds
/// exactly `workers` requests and replies on each side).
#[test]
fn telemetry_agrees_pipelined_fixed_coalesce() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 140, 0xD06);
    let batches = stream.batches(8);
    let config = PipelineConfig {
        coalesce_tuples: 4096,
        admit_capacity: 4,
        ..Default::default()
    };

    let mut threaded =
        ThreadedCluster::pipelined(compile_for(&q, OptLevel::O3), workers, config.clone());
    let mut tcp =
        TcpCluster::pipelined(compile_for(&q, OptLevel::O3), &tcp_config(workers), config)
            .expect("tcp cluster");
    threaded.apply_stream(&batches);
    tcp.apply_stream(&batches);

    assert_eq!(
        threaded.worker_stats(),
        tcp.worker_stats(),
        "pipelined worker stats diverged threaded vs TCP"
    );
    assert_eq!(
        threaded.pipeline_stats().unwrap(),
        tcp.pipeline_stats().unwrap(),
        "pipelined pipeline stats diverged threaded vs TCP"
    );
    let first = (
        threaded.metrics_snapshot().deterministic(),
        tcp.metrics_snapshot().deterministic(),
    );
    assert_eq!(
        first.0, first.1,
        "pipelined snapshot diverged threaded vs TCP"
    );
    assert!(first.0.counter("worker.instructions") > 0);

    let second = (
        threaded.metrics_snapshot().deterministic(),
        tcp.metrics_snapshot().deterministic(),
    );
    assert_eq!(second.0, second.1, "repeated snapshots diverged");
    for counter in [
        "driver.requests.total",
        "driver.requests.stats",
        "driver.replies.total",
    ] {
        assert_eq!(
            second.0.counter(counter),
            first.0.counter(counter) + workers as u64,
            "a stats round costs exactly one {counter} per worker"
        );
    }
    assert_eq!(threaded.outstanding_replies(), 0);
    assert_eq!(tcp.outstanding_replies(), 0);
}

/// Fault-tolerance arm of the oracle.  Three contracts:
///
/// * with a [`FaultConfig`] installed and **no** fault fired, the
///   deterministic counters stay bit-identical across backends (the
///   checkpoint machinery itself is part of the shared schedule);
/// * when a kill fires, the recovery counters record **exactly** what
///   the [`FaultPlan`] predicts — one injection, one death, one respawn,
///   one recovery, one replayed batch under `checkpoint_every = 1`;
/// * the same faulted run repeated is bit-identical to itself, counters
///   included (kill points are schedule-determined, never wall-clock).
#[test]
fn fault_counters_match_the_plan_exactly() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 120, 0xFAB);
    let batches = stream.batches(12);
    let fault_config = FaultConfig::every(1);

    // (a) No fault fired: FaultConfig on both backends.
    let mut threaded = ThreadedCluster::new(compile_for(&q, OptLevel::O3), workers);
    threaded.set_fault_config(Some(fault_config.clone()));
    let mut tcp =
        TcpCluster::new(compile_for(&q, OptLevel::O3), &tcp_config(workers)).expect("tcp cluster");
    tcp.set_fault_config(Some(fault_config.clone()));
    threaded.apply_stream(&batches);
    tcp.apply_stream(&batches);
    assert_eq!(
        threaded.worker_stats(),
        tcp.worker_stats(),
        "worker stats diverged threaded vs TCP with checkpointing enabled"
    );
    let threaded_snap = threaded.metrics_snapshot();
    let tcp_snap = tcp.metrics_snapshot();
    assert_eq!(
        threaded_snap.deterministic(),
        tcp_snap.deterministic(),
        "deterministic snapshot diverged with checkpointing enabled"
    );
    assert_eq!(tcp_snap.counter("worker.respawned"), 0);
    assert_eq!(tcp_snap.counter("worker.declared_dead"), 0);
    assert_eq!(tcp_snap.counter("fault.injected"), 0);
    assert_eq!(
        threaded_snap.counter("recovery.checkpoints"),
        tcp_snap.counter("recovery.checkpoints"),
        "both backends must take the same checkpoint epochs"
    );
    assert!(tcp_snap.counter("recovery.checkpoints") > 0);

    // (b) One kill spec: every recovery counter is predicted by the plan.
    let run_faulted = || {
        let plan = FaultPlan::kill(workers - 1, FaultKind::RunBlock, 3, Phase::Before);
        let mut tcp = TcpCluster::new(
            compile_for(&q, OptLevel::O3),
            &tcp_config(workers).with_faults(plan),
        )
        .expect("tcp cluster");
        tcp.set_fault_config(Some(fault_config.clone()));
        tcp.apply_stream(&batches);
        let checksum = tcp.query_result().checksum();
        (checksum, tcp.metrics_snapshot())
    };
    let (checksum, snap) = run_faulted();
    assert_eq!(snap.counter("fault.injected"), 1);
    assert_eq!(snap.counter("worker.declared_dead"), 1);
    assert_eq!(snap.counter("worker.respawned"), 1);
    assert_eq!(snap.counter("recovery.attempts"), 1);
    assert_eq!(
        snap.counter("recovery.replayed_batches"),
        1,
        "checkpoint_every=1 leaves exactly the interrupted batch in the log"
    );
    assert_eq!(
        snap.counter("recovery.restored_workers"),
        workers as u64,
        "a recovery restores every slot to the checkpoint cut"
    );

    // (c) Same faulted run again: bit-identical, counters included.
    let (checksum2, snap2) = run_faulted();
    assert_eq!(checksum, checksum2, "faulted runs must be deterministic");
    assert_eq!(
        snap.deterministic(),
        snap2.deterministic(),
        "deterministic counters of identical faulted runs diverged"
    );
}

/// Trace arm of the oracle.  Span *structure* — the sorted
/// `(trace, track, id, parent, name)` slice of every recorded span — is a
/// deterministic function of the admission sequence and the shared driver
/// schedule, exactly like the counters: for the same update stream the
/// threaded and TCP backends must stitch **bit-identical** span trees.
/// (Durations are wall-clock and excluded by construction of the slice.)
#[test]
fn trace_oracle_span_structure_agrees_threaded_vs_tcp() {
    let workers = workers_under_test();
    for (i, q) in all_queries().iter().enumerate() {
        let opt = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3][i % 4];
        let stream = seeded_stream(q, 120, 0x7ACE + i as u64);
        let batches = stream.batches(24);

        let mut threaded = ThreadedCluster::new(compile_for(q, opt), workers);
        let mut tcp =
            TcpCluster::new(compile_for(q, opt), &tcp_config(workers)).expect("tcp cluster");
        threaded.apply_stream(&batches);
        tcp.apply_stream(&batches);

        let threaded_spans = threaded.trace_spans();
        let tcp_spans = tcp.trace_spans();
        let threaded_structure = trace_structure(&threaded_spans);
        let tcp_structure = trace_structure(&tcp_spans);
        assert_eq!(
            threaded_structure, tcp_structure,
            "{} {opt:?} x{workers}: span-tree structure diverged threaded vs TCP",
            q.id
        );

        // One stitched tree per executed batch: every batch opened exactly
        // one root span, every non-root span's parent is present in its
        // own trace, and worker execution shows up on worker tracks.
        let roots: Vec<_> = threaded_spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(
            roots.len(),
            threaded.totals.latencies.len(),
            "{}: one root span per executed batch",
            q.id
        );
        assert_eq!(
            threaded.totals.latencies.len() as u64,
            threaded
                .telemetry()
                .counter("driver.batches.executed")
                .get(),
            "{}: one latency per executed batch",
            q.id
        );
        assert!(roots.iter().all(|r| r.name == "batch" && r.track == 0));
        for span in &threaded_spans {
            if span.parent != 0 {
                assert!(
                    threaded_spans
                        .iter()
                        .any(|p| p.trace == span.trace && p.id == span.parent),
                    "{}: span {} of trace {} has a dangling parent {}",
                    q.id,
                    span.id,
                    span.trace,
                    span.parent
                );
            }
        }
        assert!(
            threaded_spans
                .iter()
                .any(|s| s.name == "worker.run_block" && s.track > 0),
            "{}: worker trigger execution must appear on worker tracks",
            q.id
        );

        // Critical-path attribution accounts for (at least) 90% of the
        // latest batch root's wall-clock window.
        let cp = threaded
            .critical_path()
            .expect("critical path of the last batch");
        assert!(
            cp.attributed_fraction() >= 0.9,
            "{}: critical path attributed only {:.1}% of the batch window",
            q.id,
            cp.attributed_fraction() * 100.0
        );
    }
}

/// Pipelined trace arm: coalescing folds admissions into fewer trees (a
/// `coalesce` child instead of a new root), and the structure still
/// agrees bit-for-bit across transports under a fixed coalescing bound.
#[test]
fn trace_oracle_pipelined_fixed_coalesce() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 140, 0x7ACED);
    let batches = stream.batches(8);
    let config = PipelineConfig {
        coalesce_tuples: 4096,
        admit_capacity: 4,
        ..Default::default()
    };

    let mut threaded =
        ThreadedCluster::pipelined(compile_for(&q, OptLevel::O3), workers, config.clone());
    let mut tcp =
        TcpCluster::pipelined(compile_for(&q, OptLevel::O3), &tcp_config(workers), config)
            .expect("tcp cluster");
    threaded.apply_stream(&batches);
    tcp.apply_stream(&batches);

    let threaded_spans = threaded.trace_spans();
    assert_eq!(
        trace_structure(&threaded_spans),
        trace_structure(&tcp.trace_spans()),
        "pipelined span-tree structure diverged threaded vs TCP"
    );
    let coalesces = threaded_spans
        .iter()
        .filter(|s| s.name == "coalesce")
        .count();
    assert_eq!(
        coalesces,
        threaded.pipeline_stats().unwrap().batches_coalesced,
        "every coalesced admission records one coalesce child"
    );
}

/// The Chrome trace-event export of a real threaded run: only complete
/// (`X`) spans and track metadata (`M`) — a begin/end pair would allow an
/// unclosed span — every `X` event carries its required fields, and at
/// least one stitched `batch` root is present.
#[test]
fn chrome_trace_export_of_a_threaded_run_is_complete() {
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 120, 0x7ACE);
    let mut threaded = ThreadedCluster::new(compile_for(&q, OptLevel::O3), workers_under_test());
    threaded.apply_stream(&stream.batches(24));
    let spans = threaded.trace_spans();
    assert!(spans.iter().any(|s| s.parent == 0 && s.name == "batch"));

    let json = chrome_trace_json(&spans);
    let body = json
        .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
        .and_then(|rest| rest.strip_suffix("]}"))
        .expect("one traceEvents array closes the document");
    // Span names are plain identifiers, so `},{` only separates events.
    let events: Vec<&str> = body.split("},{").collect();
    let complete: Vec<&&str> = events
        .iter()
        .filter(|e| e.contains("\"ph\":\"X\""))
        .collect();
    assert_eq!(complete.len(), spans.len(), "one X event per span");
    for event in &complete {
        for field in ["\"name\":", "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"] {
            assert!(event.contains(field), "X event without {field}: {event}");
        }
    }
    assert!(events
        .iter()
        .all(|e| e.contains("\"ph\":\"X\"") || e.contains("\"ph\":\"M\"")));
    assert!(complete.iter().any(|e| e.contains("\"name\":\"batch\"")));
}

/// The per-worker cardinalities riding in the stats snapshot describe
/// real partitioned state: summed across workers they match the
/// cluster-wide view cardinality for distributed views.
#[test]
fn worker_cardinalities_are_live() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 120, 0xCA8D);
    let batches = stream.batches(16);
    let mut threaded = ThreadedCluster::new(compile_for(&q, OptLevel::O3), workers);
    threaded.apply_stream(&batches);
    let per_worker = threaded.worker_stats();
    assert_eq!(per_worker.len(), workers);
    let held: u64 = per_worker
        .iter()
        .flat_map(|w| w.cardinalities.iter().map(|(_, n)| *n))
        .sum();
    assert!(held > 0, "workers hold no view partitions after a stream");
}
