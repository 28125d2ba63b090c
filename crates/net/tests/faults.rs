//! Fault-tolerance tests of the TCP backend: typed worker-death errors,
//! heartbeat failure detection, and kill → respawn → restore recovery.
//!
//! Thread-spawn mode runs the full wire path (framing, codec, kernel
//! TCP) without subprocesses, so these tests don't depend on the
//! `hotdog-worker` binary; the workspace-level differential fault sweep
//! (`tests/tcp_differential.rs`) exercises subprocess kill/respawn
//! across the query catalog.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hotdog_algebra::expr::*;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple;
use hotdog_distributed::{compile_distributed, DistributedPlan, OptLevel, PartitioningSpec};
use hotdog_ivm::compile_recursive;
use hotdog_net::codec::ToDriver;
use hotdog_net::{
    read_frame, send_msg, write_frame, FaultKind, FaultPlan, KillSpec, Phase, TcpCluster,
    TcpConfig, WorkerSpawn,
};
use hotdog_runtime::{FaultConfig, PipelineConfig, PipelineStats};
use hotdog_telemetry::MetricsSnapshot;

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

/// Satellite: with no [`FaultConfig`] installed, a worker death is not a
/// panic — it is a clean, typed [`WorkerDead`] naming the slot, and the
/// same error keeps coming back on subsequent operations (the slot is
/// fenced, not retried).
#[test]
fn recovery_disabled_death_is_a_clean_typed_error() {
    let plan = FaultPlan::kill(1, FaultKind::RunBlock, 1, Phase::Before);
    let config = thread_config(2).with_faults(plan);
    let mut tcp = TcpCluster::new(example_dplan(OptLevel::O3), &config).expect("tcp cluster");
    assert!(tcp.fault_config().is_none(), "no recovery configured");

    let mut died = None;
    for (rel, batch) in batches() {
        match tcp.try_apply_batch(rel, &batch) {
            Ok(_) => {}
            Err(dead) => {
                died = Some(dead);
                break;
            }
        }
    }
    let dead = died.expect("kill spec must fire within the stream");
    assert_eq!(dead.index, 1, "typed error must name the killed slot");
    assert!(
        dead.reason.contains("fault injected"),
        "reason should carry the cause: {}",
        dead.reason
    );
    // The slot stays fenced: later operations fail fast with the same
    // typed error instead of hanging or panicking.
    let again = tcp
        .try_flush()
        .and_then(|()| tcp.try_query_result().map(drop))
        .expect_err("dead slot must keep failing");
    assert_eq!(again.index, 1);
}

/// Heartbeat failure detection: an external "worker" that handshakes and
/// then goes silent is probed with `Ping`s and declared dead after the
/// configured number of silent intervals — `recv` returns a typed error
/// instead of blocking forever.
#[test]
fn heartbeat_declares_a_silent_worker_dead() {
    // Reserve a port so the silent peer knows where to connect; the tiny
    // window between drop and rebind is covered by the connect retry loop.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");

    let peer_addr = addr.clone();
    let peer = std::thread::spawn(move || {
        // Retry until the driver's listener is up, handshake as worker 0,
        // then swallow everything (Init, requests, pings) without ever
        // replying — a live TCP peer whose event loop has wedged.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stream = loop {
            match TcpStream::connect(&peer_addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("silent peer could not connect: {e}"),
            }
        };
        send_msg(&mut stream, &ToDriver::Hello { index: 0 }).expect("hello");
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let config = TcpConfig {
        workers: 1,
        bind_addr: addr,
        spawn: WorkerSpawn::External,
        accept_timeout: Duration::from_secs(10),
        ..Default::default()
    }
    .with_heartbeat(Duration::from_millis(40), 3);
    let mut tcp = TcpCluster::new(example_dplan(OptLevel::O0), &config).expect("tcp cluster");

    let (rel, batch) = &batches()[0];
    let dead = tcp
        .try_apply_batch(rel, batch)
        .expect_err("silent worker must be declared dead, not awaited forever");
    assert_eq!(dead.index, 0);
    assert!(
        dead.reason.contains("heartbeat"),
        "death should be attributed to the heartbeat: {}",
        dead.reason
    );
    // The misses were counted (wall-clock valued, hence excluded from the
    // deterministic snapshot — but visible in the raw registry).
    assert!(
        tcp.telemetry()
            .registry()
            .counter_value("worker.heartbeat_missed")
            >= 3
    );
    peer.join().expect("silent peer thread");
}

/// A protocol error keeps its reason: an external "worker" that
/// handshakes, reads its `Init` and then writes a frame with an unknown
/// tag is declared dead with the reply pump's decode error as the
/// [`WorkerDead`](hotdog_runtime::WorkerDead) reason — not a bare
/// "connection closed".
#[test]
fn protocol_error_is_the_worker_dead_reason() {
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");

    let peer_addr = addr.clone();
    let peer = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stream = loop {
            match TcpStream::connect(&peer_addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("garbling peer could not connect: {e}"),
            }
        };
        send_msg(&mut stream, &ToDriver::Hello { index: 0 }).expect("hello");
        read_frame(&mut stream).expect("init");
        write_frame(&mut stream, &[0xEE]).expect("garbage frame");
        // Stay connected until the driver fences the slot.
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let config = TcpConfig {
        workers: 1,
        bind_addr: addr,
        spawn: WorkerSpawn::External,
        accept_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let mut tcp = TcpCluster::new(example_dplan(OptLevel::O0), &config).expect("tcp cluster");

    let (rel, batch) = &batches()[0];
    let dead = tcp
        .try_apply_batch(rel, batch)
        .expect_err("a worker that sends garbage must be declared dead");
    assert_eq!(dead.index, 0);
    assert!(
        dead.reason.contains("bad frame"),
        "death should carry the protocol error: {}",
        dead.reason
    );
    // The driver's own registry: a full snapshot would ask the dead worker.
    assert_eq!(
        tcp.telemetry().snapshot().counter("worker.declared_dead"),
        1,
        "a death surfaced with recovery off still counts"
    );
    peer.join().expect("garbling peer thread");
}

/// The batch counts a recovery replay must not inflate:
/// `driver.batches.executed` and the count and sum of
/// `driver.batch_tuples`.
fn batches_counted(snap: &MetricsSnapshot) -> (u64, u64, u64) {
    let tuples = &snap.histograms["driver.batch_tuples"];
    (
        snap.counter("driver.batches.executed"),
        tuples.count,
        tuples.sum,
    )
}

/// The batch and tuple fields of [`PipelineStats`]; the scatter fields are
/// left out, since a replay really does resend its `ApplyMany` messages.
fn batch_fields(stats: &PipelineStats) -> [usize; 6] {
    [
        stats.batches_admitted,
        stats.batches_coalesced,
        stats.batches_executed,
        stats.batches_abandoned,
        stats.tuples_admitted,
        stats.tuples_executed,
    ]
}

/// Kill → respawn → restore → replay: the final views of a faulted run
/// are bit-identical to an unfaulted run under the same [`FaultConfig`],
/// the recovery counters record exactly one death, one respawn, one
/// recovery and one `recovery.micros` sample, and the replay counts no
/// batch twice — the totals, the registry's batch counts and the
/// pipeline counters equal the unfaulted run's.  Arms: a cut after every
/// batch (the log holds only the killed batch); a cut every four batches
/// (two finished batches replay with the killed one); and a pipelined
/// driver, whose replay runs inside its in-flight window.
#[test]
fn killed_worker_respawns_and_recovers_bit_identically() {
    let no_coalesce = PipelineConfig {
        coalesce_tuples: 0,
        ..Default::default()
    };
    // (checkpoint interval, pipeline, the `RunBlock` the kill is aimed at)
    let arms = [(1, None, 2), (4, None, 3), (1, Some(no_coalesce), 2)];
    for (every, pipeline, run_block) in arms {
        let run = |config: TcpConfig| {
            let dplan = example_dplan(OptLevel::O3);
            let mut tcp = match &pipeline {
                None => TcpCluster::new(dplan, &config),
                Some(pipeline) => TcpCluster::pipelined(dplan, &config, pipeline.clone()),
            }
            .expect("tcp cluster");
            tcp.set_fault_config(Some(FaultConfig::every(every)));
            for (rel, batch) in batches() {
                tcp.apply_batch(rel, &batch); // recovery is internal
            }
            tcp.flush();
            tcp
        };
        // Baseline: same FaultConfig (checkpoint epochs canonicalize
        // storage, so this is the comparable run), no kill.
        let mut clean = run(thread_config(2));
        let expected = clean.query_result().checksum();
        let clean_counted = batches_counted(&clean.metrics_snapshot());
        let clean_fields = clean.pipeline_stats().as_ref().map(batch_fields);

        for phase in [Phase::Before, Phase::After] {
            let label = format!(
                "every({every}), {}, RunBlock {run_block} {phase:?}",
                if pipeline.is_some() {
                    "pipelined"
                } else {
                    "sync"
                }
            );
            let plan = FaultPlan::kill(1, FaultKind::RunBlock, run_block, phase);
            let mut tcp = run(thread_config(2).with_faults(plan));
            assert_eq!(
                tcp.query_result().checksum(),
                expected,
                "faulted run diverged ({label})"
            );
            assert_eq!(tcp.recoveries(), 1, "exactly one recovery ({label})");
            let snap = tcp.metrics_snapshot();
            assert_eq!(snap.counter("fault.injected"), 1);
            assert_eq!(snap.counter("worker.declared_dead"), 1);
            assert_eq!(snap.counter("worker.respawned"), 1);
            assert_eq!(snap.counter("recovery.attempts"), 1);
            assert_eq!(
                snap.histograms["recovery.micros"].count,
                snap.counter("recovery.attempts"),
                "one recovery.micros sample per recovery ({label})"
            );
            assert_eq!(tcp.totals.tuples, clean.totals.tuples, "tuples ({label})");
            assert_eq!(
                tcp.totals.latencies.len(),
                clean.totals.latencies.len(),
                "latencies ({label})"
            );
            assert_eq!(
                tcp.totals.latencies.len() as u64,
                snap.counter("driver.batches.executed"),
                "one latency per executed batch ({label})"
            );
            assert_eq!(
                tcp.totals.bytes_shuffled, clean.totals.bytes_shuffled,
                "bytes shuffled ({label})"
            );
            assert_eq!(
                batches_counted(&snap),
                clean_counted,
                "driver.batches.executed and driver.batch_tuples ({label})"
            );
            assert_eq!(
                tcp.pipeline_stats().as_ref().map(batch_fields),
                clean_fields,
                "pipeline batch and tuple counts ({label})"
            );
        }
    }
}

/// A second death while recovery replays the log: the deltas the first
/// replay had not reached yet stay logged, so the second recovery replays
/// them and the run still ends bit-identical to an unfaulted one.  Worker
/// 1 dies at its third `RunBlock` (the third batch); worker 0 then dies at
/// its fourth, the replay of the first batch.
#[test]
fn a_death_during_replay_loses_no_batch() {
    let no_coalesce = PipelineConfig {
        coalesce_tuples: 0,
        ..Default::default()
    };
    for pipeline in [None, Some(no_coalesce)] {
        let run = |config: TcpConfig| {
            let dplan = example_dplan(OptLevel::O3);
            let mut tcp = match &pipeline {
                None => TcpCluster::new(dplan, &config),
                Some(pipeline) => TcpCluster::pipelined(dplan, &config, pipeline.clone()),
            }
            .expect("tcp cluster");
            tcp.set_fault_config(Some(FaultConfig::every(4)));
            for (rel, batch) in batches() {
                tcp.apply_batch(rel, &batch);
            }
            tcp.flush();
            tcp
        };
        let mut clean = run(thread_config(2));
        let kill = |worker, nth| KillSpec {
            worker,
            kind: FaultKind::RunBlock,
            nth,
            phase: Phase::Before,
        };
        let plan = FaultPlan {
            kills: vec![kill(1, 3), kill(0, 4)],
        };
        let mut tcp = run(thread_config(2).with_faults(plan));
        let label = if pipeline.is_some() {
            "pipelined"
        } else {
            "sync"
        };
        assert_eq!(tcp.recoveries(), 2, "two recoveries ({label})");
        assert_eq!(
            tcp.query_result().checksum(),
            clean.query_result().checksum(),
            "a batch was lost to the second death ({label})"
        );
        assert_eq!(
            tcp.totals.latencies.len(),
            clean.totals.latencies.len(),
            "latencies ({label})"
        );
    }
}

/// A seeded `HOTDOG_FAULT`-style plan recovers too — the chaos job's
/// shape, in-process: materialize the plan from a seed, run, and demand
/// the unfaulted checksum.
#[test]
fn seeded_plans_recover_bit_identically() {
    let fault_config = FaultConfig::every(2);
    let mut clean =
        TcpCluster::new(example_dplan(OptLevel::O2), &thread_config(2)).expect("tcp cluster");
    clean.set_fault_config(Some(fault_config.clone()));
    for (rel, batch) in batches() {
        clean.apply_batch(rel, &batch);
    }
    let expected = clean.query_result().checksum();

    for seed in [1u64, 7, 42] {
        let plan = FaultPlan::seeded(seed, 2);
        let mut tcp = TcpCluster::new(
            example_dplan(OptLevel::O2),
            &thread_config(2).with_faults(plan.clone()),
        )
        .expect("tcp cluster");
        tcp.set_fault_config(Some(fault_config.clone()));
        for (rel, batch) in batches() {
            tcp.apply_batch(rel, &batch);
        }
        assert_eq!(
            tcp.query_result().checksum(),
            expected,
            "seed {seed} ({}) diverged",
            plan.kills[0]
        );
        // Small stream: a late ordinal may never fire — that's fine, the
        // run then simply matches as an unfaulted run.  But if it fired,
        // it must have recovered.
        let snap = tcp.metrics_snapshot();
        assert_eq!(
            snap.counter("recovery.attempts") > 0,
            snap.counter("fault.injected") > 0
        );
    }
}
