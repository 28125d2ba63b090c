//! End-to-end tests of the TCP backend: `TcpCluster` must be
//! bit-identical to `ThreadedCluster` (hence to the simulated cluster,
//! which the runtime suites pin) in every mode — the codec, framing,
//! handshake and reader threads must be completely transparent to view
//! state.
//!
//! Thread-spawn mode runs the full wire path (framing, codec, kernel
//! TCP) without subprocesses; one subprocess smoke test covers real
//! multi-process operation (exercised exhaustively by the workspace-level
//! differential oracle), and the bring-up tests drive the lifecycle:
//! launched workers that exit or never connect, external workers with a
//! respawn, and stray peers the accept loop must refuse.

use hotdog_algebra::expr::*;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple;
use hotdog_distributed::protocol::WorkerReply;
use hotdog_distributed::{
    compile_distributed, DistributedPlan, OptLevel, PartitioningSpec, StmtMode,
};
use hotdog_ivm::compile_recursive;
use hotdog_net::codec::ToDriver;
use hotdog_net::{send_msg, FaultKind, FaultPlan, Phase, TcpCluster, TcpConfig, WorkerSpawn};
use hotdog_runtime::{Driver, FaultConfig, PipelineConfig, ThreadedCluster, Transport};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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
fn assert_views_equal<A: Transport, B: Transport>(
    a: &mut Driver<A>,
    b: &mut Driver<B>,
    label: &str,
) {
    let views: Vec<String> = a.plan().plan.views.iter().map(|v| v.name.clone()).collect();
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
            ..Default::default()
        },
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
    // The whole struct, high-water marks included: coalescing decisions,
    // queue occupancy and the message schedule must not depend on the
    // transport.
    assert_eq!(
        tcp.pipeline_stats().unwrap(),
        threaded.pipeline_stats().unwrap(),
        "pipeline counters diverged tcp vs threaded"
    );
}

/// Q3 compiled at `opt` as the repo benchmark runs it.
fn q3_dplan(opt: OptLevel) -> DistributedPlan {
    let q = hotdog_workload::query("Q3").expect("catalog query");
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

#[test]
fn sync_q3_writes_each_worker_once_per_block() {
    // Heartbeats off, so no `Ping` lands in a count.
    const WORKERS: usize = 2;
    let config = thread_config(WORKERS).with_heartbeat(Duration::ZERO, 0);
    let dplan = q3_dplan(OptLevel::O3);
    let mut tcp = TcpCluster::new(dplan.clone(), &config).expect("tcp cluster");
    let mut threaded = ThreadedCluster::new(dplan.clone(), WORKERS);
    // One chunk of the stream, grouped: one batch per relation.
    let stream = hotdog_workload::generate_tpch(7, 400);
    let round = stream.batches(stream.len()).remove(0);
    let mut blocks = 0;
    for (rel, batch) in &round {
        tcp.apply_batch(rel, batch);
        threaded.apply_batch(rel, batch);
        if let Some(program) = dplan.programs.iter().find(|p| p.relation == *rel) {
            blocks += program
                .blocks
                .iter()
                .filter(|b| b.mode == StmtMode::Distributed)
                .count();
        }
    }
    // Read before any read or stats round adds frames of its own.
    let snap = tcp.telemetry().snapshot();
    assert_eq!(blocks, 3, "Q3 at O3: one distributed block per trigger");
    assert_eq!(
        snap.counter("net.frames.sent"),
        12,
        "each block costs every worker an ApplyMany and a RunBlock"
    );
    assert_eq!(
        snap.counter("net.writes"),
        (WORKERS * blocks) as u64,
        "one socket write per worker per block"
    );
    assert_eq!(
        snap.histograms["net.write_micros"].count,
        snap.counter("net.writes")
    );
    assert_eq!(
        tcp.query_result().checksum(),
        threaded.query_result().checksum()
    );
}

#[test]
fn tcp_subprocess_mode_matches_threaded() {
    // Real worker subprocesses on loopback: the worker bin cargo built for
    // this test target.
    let config = TcpConfig {
        worker_bin: Some(env!("CARGO_BIN_EXE_hotdog-worker").into()),
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
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
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
        accept_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let err = TcpCluster::new(example_dplan(OptLevel::O3), &config)
        .err()
        .expect("no worker ever connects: construction must fail");
    assert_eq!(err.kind(), ErrorKind::TimedOut);
}

/// A launched worker that exits before connecting fails construction at
/// once, not at the accept deadline.
#[cfg(unix)]
#[test]
fn worker_exiting_before_connecting_fails_construction_at_once() {
    let bin = std::path::Path::new("/bin/false");
    if !bin.exists() {
        eprintln!("skipped: no /bin/false");
        return;
    }
    let config = TcpConfig {
        worker_bin: Some(bin.into()),
        accept_timeout: Duration::from_secs(30),
        ..TcpConfig::with_workers(2)
    };
    let started = Instant::now();
    let err = TcpCluster::new(example_dplan(OptLevel::O3), &config)
        .err()
        .expect("a worker that exits must fail construction");
    assert_eq!(err.kind(), ErrorKind::BrokenPipe, "{err}");
    assert!(
        err.to_string().contains("exited before connecting"),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "waited for the deadline"
    );
}

/// A launched worker that never connects times construction out — and is
/// killed and reaped on the way out, the path a timed-out respawn shares.
#[cfg(unix)]
#[test]
fn worker_never_connecting_times_out_and_is_reaped() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("hotdog-never-connects-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("worker.sh");
    let pid_file = dir.join("pid");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\necho $$ > '{}'\nexec sleep 60\n",
            pid_file.display()
        ),
    )
    .expect("write script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");

    let config = TcpConfig {
        worker_bin: Some(script),
        accept_timeout: Duration::from_millis(300),
        ..TcpConfig::with_workers(1)
    };
    let err = TcpCluster::new(example_dplan(OptLevel::O3), &config)
        .err()
        .expect("a worker that never connects must time construction out");
    assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
    let pid = std::fs::read_to_string(&pid_file).expect("the script ran");
    let alive = Command::new("kill")
        .args(["-0", pid.trim()])
        .stderr(Stdio::null())
        .status()
        .expect("run kill")
        .success();
    assert!(!alive, "worker {} outlived the failed bring-up", pid.trim());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connect to `addr`, retrying until the driver listens.
fn connect_when_listening(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("driver never listened on {addr}: {e}"),
        }
    }
}

/// Two peers the accept loop must refuse: one opens with a reply instead
/// of `Hello`, one announces a slot that does not exist.
fn send_strays(addr: &str, workers: u32) -> Vec<TcpStream> {
    let mut not_hello = connect_when_listening(addr);
    send_msg(
        &mut not_hello,
        &ToDriver::Reply(WorkerReply::Pong { id: 0 }),
    )
    .expect("stray");
    let mut bad_index = connect_when_listening(addr);
    send_msg(&mut bad_index, &ToDriver::Hello { index: workers }).expect("stray");
    vec![not_hello, bad_index]
}

/// The README's multi-host path: `External` workers started by hand with
/// the real `hotdog-worker`, one of them killed and restarted by hand
/// while the respawn waits, and stray peers arriving both before
/// construction completes and during the respawn.  Recovery must be
/// bit-identical and every stray refused and counted.
#[test]
fn external_workers_respawn_and_stray_peers_are_rejected() {
    let fault_config = FaultConfig::every(1);
    let mut clean =
        TcpCluster::new(example_dplan(OptLevel::O3), &thread_config(2)).expect("tcp cluster");
    clean.set_fault_config(Some(fault_config.clone()));
    for (rel, batch) in batches() {
        clean.apply_batch(rel, &batch);
    }
    let expected = clean.query_result().checksum();

    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
    };
    let worker = |index: usize, addr: &str| -> Child {
        Command::new(env!("CARGO_BIN_EXE_hotdog-worker"))
            .args(["--connect", addr, "--index", &index.to_string()])
            .spawn()
            .expect("start hotdog-worker")
    };
    let launcher_addr = addr.clone();
    let launcher = std::thread::spawn(move || {
        let addr = launcher_addr.as_str();
        // Strays queue ahead of the workers, and the listener accepts in
        // order: both are judged before construction can complete.
        let mut strays = send_strays(addr, 2);
        let w0 = worker(0, addr);
        let mut w1 = worker(1, addr);
        // Worker 1 exits once the driver fences it; the respawn then waits
        // for a replacement, and strays again queue ahead of it.
        w1.wait().expect("worker 1 exits when fenced");
        strays.extend(send_strays(addr, 2));
        (w0, worker(1, addr), strays)
    });

    let config = TcpConfig {
        workers: 2,
        bind_addr: addr,
        spawn: WorkerSpawn::External,
        accept_timeout: Duration::from_secs(10),
        ..Default::default()
    }
    .with_faults(FaultPlan::kill(1, FaultKind::RunBlock, 2, Phase::Before));
    let mut tcp = TcpCluster::new(example_dplan(OptLevel::O3), &config).expect("tcp cluster");
    tcp.set_fault_config(Some(fault_config));
    for (rel, batch) in batches() {
        tcp.apply_batch(rel, &batch);
    }
    assert_eq!(tcp.query_result().checksum(), expected, "recovery diverged");
    let snap = tcp.metrics_snapshot();
    assert_eq!(snap.counter("worker.respawned"), 1);
    assert_eq!(
        snap.counter("net.rejected_connections"),
        4,
        "two strays at construction, two at the respawn"
    );
    tcp.close();

    let (mut w0, mut w1, _strays) = launcher.join().expect("launcher thread");
    assert!(w0.wait().expect("reap worker 0").success());
    assert!(w1.wait().expect("reap worker 1").success());
}
