//! TCP-focused differential oracle: the scenarios that stress what is
//! *unique* to the socket transport — process isolation, the handshake,
//! mid-stream watermark reads over sockets, spawn modes — beyond the
//! per-case TCP arms that `pipeline_differential.rs` already runs.
//!
//! This is the test target the CI `differential-tcp` matrix job runs
//! (HOTDOG_WORKERS={1,2,4}).  Only the chaos entry point reads
//! `HOTDOG_FAULT`; every other run here is unfaulted by construction, so
//! the whole target passes with it set.

mod common;

use common::{chaos_plan, tcp_config, workers_under_test};
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

/// Every catalog query through the epoch-synchronous TCP cluster,
/// bit-for-bit against the simulated cluster.
#[test]
fn tcp_sync_matches_simulated_across_catalog() {
    let workers = workers_under_test();
    for (i, q) in all_queries().iter().enumerate() {
        let opt = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3][i % 4];
        let stream = seeded_stream(q, 180, 0x7C9 + i as u64);
        let batches = stream.batches(32);
        let mut sim = Cluster::new(compile_for(q, opt), ClusterConfig::with_workers(workers));
        let mut tcp =
            TcpCluster::new(compile_for(q, opt), &tcp_config(workers)).expect("tcp cluster");
        sim.apply_stream(&batches);
        tcp.apply_stream(&batches);
        assert_eq!(
            tcp.query_result().checksum(),
            sim.query_result().checksum(),
            "{} {opt:?} x{workers}: sync TCP != simulated bit-for-bit",
            q.id
        );
    }
}

/// Mid-stream watermark reads over sockets: a pre-flush read must observe
/// a consistent batch boundary, reproducible by re-running the committed
/// prefix synchronously — exactly as the threaded runtime guarantees.
#[test]
fn tcp_watermark_reads_are_consistent() {
    let workers = workers_under_test();
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 160, 0xBEEF);
    let batches = stream.batches(8);
    let flat: Vec<(&str, Relation)> = batches
        .iter()
        .flatten()
        .map(|(r, b)| (*r, b.clone()))
        .collect();

    let config = PipelineConfig {
        coalesce_tuples: 0, // keep every batch a distinct trigger
        admit_capacity: 1,  // eager execution, bounded queue
        ..Default::default()
    };
    let dplan = compile_for(&q, OptLevel::O3);
    // Only trigger-bearing batches are admitted and counted by the
    // watermark; batches to relations outside the query are no-ops.
    let triggering: Vec<&(&str, Relation)> = flat
        .iter()
        .filter(|(rel, _)| dplan.plan.trigger(rel).is_some())
        .collect();
    let mut tcp = TcpCluster::pipelined(dplan, &tcp_config(workers), config).expect("tcp cluster");
    for (rel, batch) in &flat {
        tcp.apply_batch(rel, batch);
    }
    let partial = tcp.query_result();
    let committed = tcp.watermark() as usize;
    assert!(
        committed >= triggering.len() - 1,
        "eager execution should issue all but the queued tail \
         ({committed} of {})",
        triggering.len()
    );
    let mut prefix = ThreadedCluster::new(compile_for(&q, OptLevel::O3), workers);
    for (rel, batch) in triggering.iter().take(committed) {
        prefix.apply_batch(rel, batch);
    }
    assert_eq!(
        partial.checksum(),
        prefix.query_result().checksum(),
        "TCP pre-flush read is not a consistent prefix"
    );
    tcp.flush();
    assert_eq!(tcp.outstanding_replies(), 0);
    let stats = tcp.close();
    assert_eq!(stats.batches_abandoned, 0);
}

/// Kill-point sweep (the recovery oracle): for each steady-state message
/// kind × worker slot × kill phase, murder the worker at that exact
/// protocol moment, let the driver respawn + restore + replay it, and
/// demand the final view be **bit-identical** to an unfaulted run under
/// the same `FaultConfig`.  The kill lands at the transport's send
/// chokepoint, so each cell is a pure function of the schedule —
/// a red cell replays exactly.
///
/// Q3's O3 programs only scatter the batch and run blocks (its views are
/// maintained in place, the customer view as a replica), so the `Fetch`
/// cells run on Q6, whose scalar aggregate is gathered on every batch.
#[test]
fn tcp_kill_point_sweep_recovers_bit_identically() {
    let workers = workers_under_test();
    let fault_config = FaultConfig::every(1);
    let mut cell = 0u64;
    for (id, kinds) in [
        ("Q3", &[FaultKind::RunBlock, FaultKind::ApplyMany][..]),
        ("Q6", &[FaultKind::Fetch][..]),
    ] {
        let q = query(id).unwrap();
        let stream = seeded_stream(&q, 150, 0xFA117);
        let batches = stream.batches(12);

        // Unfaulted reference under the same FaultConfig (checkpoint
        // epochs canonicalize storage, so this is the comparable run).
        let mut clean = TcpCluster::new(compile_for(&q, OptLevel::O3), &tcp_config(workers))
            .expect("tcp cluster");
        clean.set_fault_config(Some(fault_config.clone()));
        clean.apply_stream(&batches);
        let expected = clean.query_result().checksum();

        for &kind in kinds {
            for worker in 0..workers {
                for phase in [Phase::Before, Phase::After] {
                    cell += 1;
                    let nth = 1 + cell % 3; // vary the kill point across cells
                    let plan = FaultPlan::kill(worker, kind, nth, phase);
                    let spec = plan.kills[0].clone();
                    let mut tcp = TcpCluster::new(
                        compile_for(&q, OptLevel::O3),
                        &tcp_config(workers).with_faults(plan),
                    )
                    .expect("tcp cluster");
                    tcp.set_fault_config(Some(fault_config.clone()));
                    tcp.apply_stream(&batches);
                    assert_eq!(
                        tcp.query_result().checksum(),
                        expected,
                        "{id} {spec} x{workers}: recovered run != unfaulted run"
                    );
                    assert_eq!(
                        tcp.recoveries(),
                        1,
                        "{id} {spec}: expected exactly one recovery"
                    );
                    let snap = tcp.metrics_snapshot();
                    assert_eq!(
                        snap.counter("fault.injected"),
                        1,
                        "{id} {spec}: kill never fired"
                    );
                    assert_eq!(snap.counter("worker.respawned"), 1, "{id} {spec}");
                }
            }
        }
    }
}

/// A plan shape the kill-point sweep does not cover — the six-stage Q7 at
/// O2 — with one kill per worker, alternating before/after the faulted
/// `RunBlock`, through the same oracle.
#[test]
fn tcp_rescatter_recovery_matches_unfaulted_run() {
    let workers = workers_under_test();
    let q = query("Q7").unwrap();
    let stream = seeded_stream(&q, 140, 0x5CA77E);
    let batches = stream.batches(10);
    let fault_config = FaultConfig::every(2);

    let mut clean =
        TcpCluster::new(compile_for(&q, OptLevel::O2), &tcp_config(workers)).expect("tcp cluster");
    clean.set_fault_config(Some(fault_config.clone()));
    clean.apply_stream(&batches);
    let expected = clean.query_result().checksum();

    for (worker, phase) in (0..workers).zip([Phase::Before, Phase::After].into_iter().cycle()) {
        let plan = FaultPlan::kill(worker, FaultKind::RunBlock, 2, phase);
        let spec = plan.kills[0].clone();
        let mut tcp = TcpCluster::new(
            compile_for(&q, OptLevel::O2),
            &tcp_config(workers).with_faults(plan),
        )
        .expect("tcp cluster");
        tcp.set_fault_config(Some(fault_config.clone()));
        tcp.apply_stream(&batches);
        assert_eq!(
            tcp.query_result().checksum(),
            expected,
            "{spec}: recovered run != unfaulted run"
        );
        assert_eq!(tcp.recoveries(), 1, "{spec}");
    }
}

/// The CI chaos job's entry point: run one seeded kill (from
/// `HOTDOG_FAULT`, typically `seed:<run id>`; a fixed default seed when
/// unset) against the pipelined TCP backend mid-stream and demand the
/// unfaulted checksum, and that the recovery counted no batch twice:
/// `driver.batches.executed` and the batch and tuple fields of
/// `pipeline_stats()` equal the unfaulted run's.  The scatter fields are
/// not compared, since a replay really does resend `ApplyMany`.
/// `HOTDOG_FAULT=<printed spec>` replays a red run bit-for-bit.
#[test]
fn tcp_chaos_seeded_kill_recovers_bit_identically() {
    let workers = workers_under_test();
    let plan = chaos_plan(workers).unwrap_or_else(|| FaultPlan::seeded(0xC405, workers));
    eprintln!(
        "chaos plan: {} (x{workers})",
        plan.kills
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(";")
    );
    let q = query("Q3").unwrap();
    let stream = seeded_stream(&q, 150, 0xC405);
    let batches = stream.batches(12);
    let fault_config = FaultConfig::every(1);
    let config = PipelineConfig {
        coalesce_tuples: 0,
        ..Default::default()
    };

    let mut clean = TcpCluster::pipelined(
        compile_for(&q, OptLevel::O3),
        &tcp_config(workers),
        config.clone(),
    )
    .expect("tcp cluster");
    clean.set_fault_config(Some(fault_config.clone()));
    clean.apply_stream(&batches);
    clean.flush();
    let expected = clean.query_result().checksum();

    let mut tcp = TcpCluster::pipelined(
        compile_for(&q, OptLevel::O3),
        &tcp_config(workers).with_faults(plan),
        config,
    )
    .expect("tcp cluster");
    tcp.set_fault_config(Some(fault_config));
    tcp.apply_stream(&batches);
    tcp.flush();
    assert_eq!(
        tcp.query_result().checksum(),
        expected,
        "chaos run diverged from unfaulted run"
    );
    assert_eq!(tcp.outstanding_replies(), 0);
    let executed = |d: &TcpCluster| d.telemetry().snapshot().counter("driver.batches.executed");
    assert_eq!(
        executed(&tcp),
        executed(&clean),
        "recovery counted a replayed batch as executed"
    );
    let batch_fields = |d: &TcpCluster| {
        let s = d.pipeline_stats().expect("pipelined backend");
        [
            s.batches_admitted,
            s.batches_coalesced,
            s.batches_executed,
            s.batches_abandoned,
            s.tuples_admitted,
            s.tuples_executed,
        ]
    };
    assert_eq!(
        batch_fields(&tcp),
        batch_fields(&clean),
        "recovery changed the pipeline's batch or tuple counts"
    );
}

/// Aggressive pipelined configurations over the socket transport: eager
/// execution, the default queue, heavy coalescing — all bit-for-bit (or 1e-9 when coalescing re-associates floats)
/// against the simulated cluster.
#[test]
fn tcp_aggressive_pipeline_configs_agree() {
    let workers = workers_under_test();
    let q = query("Q7").unwrap();
    let stream = seeded_stream(&q, 140, 0xA11CE);
    let batches = stream.batches(8);
    let mut sim = Cluster::new(
        compile_for(&q, OptLevel::O2),
        ClusterConfig::with_workers(workers),
    );
    sim.apply_stream(&batches);
    let reference = sim.query_result();

    for (coalesces, config) in [
        (
            false,
            PipelineConfig {
                coalesce_tuples: 0,
                admit_capacity: 1,
                ..Default::default()
            },
        ),
        (
            false,
            PipelineConfig {
                coalesce_tuples: 0,
                ..Default::default()
            },
        ),
        (
            true,
            PipelineConfig {
                coalesce_tuples: 100_000,
                admit_capacity: 1,
                ..Default::default()
            },
        ),
    ] {
        let mut tcp = TcpCluster::pipelined(
            compile_for(&q, OptLevel::O2),
            &tcp_config(workers),
            config.clone(),
        )
        .expect("tcp cluster");
        tcp.apply_stream(&batches);
        let got = tcp.query_result();
        if coalesces {
            assert!(
                got.approx_eq_eps(&reference, 1e-9),
                "coalesced TCP diverged under {config:?}"
            );
        } else {
            assert_eq!(
                got.checksum(),
                reference.checksum(),
                "TCP diverged bit-for-bit under {config:?}"
            );
        }
    }
}
