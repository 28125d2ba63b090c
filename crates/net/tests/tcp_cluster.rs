//! End-to-end tests of the TCP backend: `TcpCluster` must be
//! bit-identical to `ThreadedCluster` (hence to the simulated cluster,
//! which the runtime suites pin) in every mode — the codec, framing,
//! handshake and reader threads must be completely transparent to view
//! state.
//!
//! Thread-spawn mode runs the full wire path (framing, codec, kernel
//! TCP) without subprocesses, so these tests don't depend on the
//! `hotdog-worker` binary; one subprocess smoke test covers real
//! multi-process operation and is exercised exhaustively by the
//! workspace-level differential oracle.

use hotdog_algebra::expr::*;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple;
use hotdog_distributed::{
    compile_distributed, Backend, DistributedPlan, OptLevel, PartitioningSpec,
};
use hotdog_ivm::compile_recursive;
use hotdog_net::{TcpCluster, TcpConfig, WorkerSpawn};
use hotdog_runtime::{PipelineConfig, ThreadedCluster};

fn example_dplan(opt: OptLevel) -> DistributedPlan {
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
    compile_distributed(&plan, &spec, opt)
}

fn batches() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "R",
            Relation::from_pairs(
                Schema::new(["OK", "B"]),
                (0..40i64).map(|i| (tuple![i, i % 5], 1.0 + i as f64 * 0.125)),
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
                (0..20i64).map(|i| (tuple![i, i * 10], 0.5)),
            ),
        ),
        (
            "R",
            Relation::from_pairs(
                Schema::new(["OK", "B"]),
                vec![(tuple![1, 1], -1.125), (tuple![100, 2], 1.0)],
            ),
        ),
    ]
}

fn thread_config(workers: usize) -> TcpConfig {
    TcpConfig::with_workers(workers).with_spawn(WorkerSpawn::Thread)
}

/// Compare every view of two backends bit-for-bit.
fn assert_views_equal<A: Backend, B: Backend>(a: &mut A, b: &mut B, label: &str) {
    let views: Vec<String> = Backend::plan(a)
        .plan
        .views
        .iter()
        .map(|v| v.name.clone())
        .collect();
    for v in views {
        assert_eq!(
            a.view_contents(&v).checksum(),
            b.view_contents(&v).checksum(),
            "view {v} diverged: {label}"
        );
    }
}

#[test]
fn tcp_thread_mode_matches_threaded_bit_for_bit() {
    for opt in [OptLevel::O0, OptLevel::O3] {
        for workers in [1usize, 2, 3] {
            let mut tcp =
                TcpCluster::new(example_dplan(opt), &thread_config(workers)).expect("tcp cluster");
            let mut real = ThreadedCluster::new(example_dplan(opt), workers);
            for (rel, batch) in batches() {
                tcp.apply_batch(rel, &batch);
                real.apply_batch(rel, &batch);
            }
            assert_eq!(
                tcp.query_result().checksum(),
                real.query_result().checksum(),
                "tcp diverged from threaded at {opt:?} x{workers}"
            );
            assert_views_equal(&mut tcp, &mut real, &format!("{opt:?} x{workers}"));
        }
    }
}

#[test]
fn tcp_pipelined_matches_sync_bit_for_bit() {
    // Coalescing disabled: the pipelined TCP schedule (async gathers,
    // ApplyMany batching, in-flight window) must be bit-transparent.
    for config in [
        PipelineConfig {
            coalesce_tuples: 0,
            ..Default::default()
        },
        PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 1,
            inflight_blocks: 1,
            ..Default::default()
        },
        PipelineConfig {
            coalesce_tuples: 0,
            ..Default::default()
        }
        .with_shuffled_replies(0xD15C0),
    ] {
        let mut tcp = TcpCluster::pipelined(
            example_dplan(OptLevel::O3),
            &thread_config(2),
            config.clone(),
        )
        .expect("tcp cluster");
        let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
        for (rel, batch) in batches() {
            tcp.apply_batch(rel, &batch);
            sync.apply_batch(rel, &batch);
        }
        tcp.flush();
        assert_eq!(
            tcp.query_result().checksum(),
            sync.query_result().checksum(),
            "pipelined tcp diverged under {config:?}"
        );
        assert_eq!(tcp.outstanding_replies(), 0);
    }
}

#[test]
fn tcp_coalescing_matches_coalesced_threaded_bit_for_bit() {
    // Same coalescing bound on both sides -> same trigger sequence ->
    // bit-identical, even on this float-multiplicity workload.
    let config = PipelineConfig::with_coalesce(64);
    let mut tcp = TcpCluster::pipelined(
        example_dplan(OptLevel::O2),
        &thread_config(2),
        config.clone(),
    )
    .expect("tcp cluster");
    let mut threaded = ThreadedCluster::pipelined(example_dplan(OptLevel::O2), 2, config);
    for (rel, batch) in batches() {
        tcp.apply_batch(rel, &batch);
        threaded.apply_batch(rel, &batch);
    }
    tcp.flush();
    threaded.flush();
    assert_eq!(
        tcp.query_result().checksum(),
        threaded.query_result().checksum(),
        "coalesced tcp diverged from coalesced threaded"
    );
    assert_eq!(
        tcp.pipeline_stats().unwrap().batches_coalesced,
        threaded.pipeline_stats().unwrap().batches_coalesced,
        "coalescing decisions must not depend on the transport"
    );
}

#[test]
fn tcp_subprocess_mode_matches_threaded() {
    // Real worker subprocesses on loopback: the worker bin cargo built for
    // this test target.
    let config = TcpConfig {
        worker_bin: Some(env!("CARGO_BIN_EXE_hotdog-net-worker").into()),
        ..TcpConfig::with_workers(2)
    };
    let mut tcp = TcpCluster::new(example_dplan(OptLevel::O3), &config).expect("spawn tcp cluster");
    let mut real = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
    for (rel, batch) in batches() {
        tcp.apply_batch(rel, &batch);
        real.apply_batch(rel, &batch);
    }
    assert_eq!(
        tcp.query_result().checksum(),
        real.query_result().checksum(),
        "subprocess tcp diverged from threaded"
    );
    assert_eq!(tcp.backend_name(), "tcp");
    // Shut down explicitly: close() must reap the worker processes.
    let stats = tcp.close();
    assert_eq!(stats.batches_abandoned, 0);
}

/// Subprocess mode names its worker executable in the config or fails
/// with a typed error up front: no environment lookup, no probing next to
/// the current executable, and nothing spawned.
#[test]
fn subprocess_mode_without_worker_bin_is_invalid_input() {
    let config = TcpConfig::with_workers(2);
    assert_eq!(config.spawn, WorkerSpawn::Subprocess);
    assert!(config.worker_bin.is_none());
    let err = TcpCluster::new(example_dplan(OptLevel::O3), &config)
        .err()
        .expect("no worker binary named: construction must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("TcpConfig::worker_bin"),
        "error must name the field to set: {err}"
    );
}

#[test]
fn tcp_drop_with_inflight_work_shuts_down() {
    let config = PipelineConfig {
        coalesce_tuples: 0,
        admit_capacity: 2,
        inflight_blocks: 8,
        ..Default::default()
    };
    let mut tcp = TcpCluster::pipelined(example_dplan(OptLevel::O3), &thread_config(3), config)
        .expect("tcp cluster");
    for _ in 0..3 {
        for (rel, batch) in batches() {
            tcp.apply_batch(rel, &batch);
        }
    }
    drop(tcp); // queued + in-flight work abandoned; no hang, no panic
}

#[test]
fn accept_timeout_fails_loudly_without_workers() {
    let config = TcpConfig {
        workers: 1,
        spawn: WorkerSpawn::External,
        accept_timeout: std::time::Duration::from_millis(200),
        ..Default::default()
    };
    let err = TcpCluster::new(example_dplan(OptLevel::O3), &config)
        .err()
        .expect("no worker ever connects: construction must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
}
