//! Randomized differential-test oracle for the execution backends.
//!
//! Every backend must maintain identical view state over arbitrary update
//! streams:
//!
//! * **simulated** — the single-threaded `Cluster` (`Driver<SimTransport>`:
//!   the same driver, workers run inline, modelled time);
//! * **synchronous-threaded** — `ThreadedCluster::new`, epoch barriers
//!   after every distributed block;
//! * **pipelined** — `ThreadedCluster::pipelined`, admission queue, delta
//!   coalescing and a bounded in-flight window over the tagged-reply
//!   protocol (fully async gathers, batched scatters);
//! * **backpressured pipelined** — the caller's coalescing bound with
//!   byte-bounded backpressure and a latency target (timing-driven, so its
//!   trigger schedule differs run to run — the state must not);
//! * **TCP** — `hotdog-net`'s `TcpCluster`: worker *subprocesses* on
//!   loopback speaking the length-prefixed binary codec, behind the same
//!   transport-generic driver.  Framing, codec, handshake, reader threads
//!   and process isolation must be bit-transparent;
//! * **full recomputation** — from-scratch evaluation of the query over the
//!   accumulated base relations (the ground truth).
//!
//! A separate arm holds the **columnar trigger interpreter** to the row
//! `Evaluator` statement by statement, bit-for-bit, on every catalog query
//! under every strategy (see `columnar_vs_row_differential`).
//!
//! Backends that execute the *same trigger sequence* perform identical
//! per-node statement sequences over deterministically-hashed containers,
//! so they are compared **bit-for-bit** via sorted-order [`ViewChecksum`]s
//! — on floating-point workloads too: simulated, synchronous-threaded and
//! the pipelined path with coalescing disabled.  Coalescing deliberately
//! *changes* the trigger sequence (k small deltas become one ring-summed
//! delta — exact in real arithmetic, but a different float-addition
//! association), so the coalescing run and the recomputation reference are
//! held to tight relative tolerances instead.
//!
//! Streams mix insertions and deletions, batch sizes span 1–512, and the
//! randomized property rotates through the full TPC-H/TPC-DS catalog, all
//! optimization levels and the `{1, 2, 4}` worker axis (restrict with
//! `HOTDOG_WORKERS=n`, as the CI matrix does).  Failures are shrunk by the
//! proptest shim to a minimal (query, seed, batch size, deletion fraction)
//! tuple.  Every property prints its RNG seed and honours `HOTDOG_SEED`, so
//! a red CI matrix cell replays locally bit-for-bit:
//! `HOTDOG_WORKERS=2 HOTDOG_SEED=<printed seed> cargo test --release --test
//! pipeline_differential -- --nocapture`.

mod common;

use common::{tcp_config, workers_from_env};
use hotdog::algebra::EvalCounters;
use hotdog::exec::vectorized::eval_vectorized;
use hotdog::ivm::{StmtOp, Strategy, Trigger};
use hotdog::prelude::*;
use proptest::prelude::*;

/// Worker counts under test: `HOTDOG_WORKERS=n` pins one (CI matrix),
/// otherwise the full `{1, 2, 4}` axis is rotated through.
fn workers_under_test() -> Vec<usize> {
    match workers_from_env() {
        Some(w) => vec![w],
        None => vec![1, 2, 4],
    }
}

const OPT_LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

/// A seeded mixed insert/delete stream matching the query's workload family.
fn mixed_stream(q: &CatalogQuery, tuples: usize, seed: u64, delete_fraction: f64) -> UpdateStream {
    let base = match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(seed, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(seed, tuples),
    };
    base.with_deletions(seed, delete_fraction)
}

/// Ground truth: evaluate the query from scratch over the accumulated
/// stream.
fn recompute_reference(q: &CatalogQuery, stream: &UpdateStream) -> Relation {
    let mut catalog = MapCatalog::new();
    for (name, rel) in stream.accumulate() {
        catalog.insert(name, RelKind::Base, rel);
    }
    evaluate(&q.expr, &catalog)
}

fn compile_for(q: &CatalogQuery, opt: OptLevel) -> DistributedPlan {
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

/// Stream a pre-batched workload through a backend and return the final
/// query result (generic over every execution backend).
fn run_backend<T: Transport>(
    driver: &mut Driver<T>,
    batches: &[Vec<(&'static str, Relation)>],
) -> Relation {
    driver.apply_stream(batches);
    driver.query_result()
}

/// Run every maintenance backend over the same stream and check:
///
/// * simulated ≈ full recomputation (different evaluation path, `1e-3`
///   relative);
/// * synchronous-threaded == simulated, **bit-for-bit**;
/// * pipelined (coalescing disabled, tagged-reply protocol) == simulated,
///   **bit-for-bit** — the admission queue, in-flight window, request-id
///   ledger and watermarks are transparent;
/// * pipelined with coalescing ≈ simulated (`1e-9` relative) — ring-sum
///   coalescing is exact in real arithmetic but associates float additions
///   differently;
/// * **backpressured** pipelined (the caller's coalescing bound +
///   byte-bounded backpressure + a latency target) ≈ simulated (`1e-9`
///   relative): the backpressure paths only move *trigger boundaries*,
///   never view state — whatever schedule the measured timings produce;
/// * **TCP** (worker subprocesses, binary codec, no coalescing) ==
///   simulated, **bit-for-bit** — the wire is pure transport: floats
///   travel as raw bits and decoded relations reproduce the canonical
///   layout every in-process backend holds;
/// * **TCP with coalescing** ≈ simulated (`1e-9` relative), like every
///   coalesced schedule.
///
/// Returns an error message for the proptest shrinker instead of
/// panicking.
fn differential_check(
    q: &CatalogQuery,
    stream: &UpdateStream,
    batch_size: usize,
    workers: usize,
    opt: OptLevel,
    pipeline: PipelineConfig,
) -> Result<(), String> {
    let batches = stream.batches(batch_size);
    let reference = recompute_reference(q, stream);

    let sim = run_backend(
        &mut Cluster::new(compile_for(q, opt), ClusterConfig::with_workers(workers)),
        &batches,
    );
    let sync = run_backend(
        &mut ThreadedCluster::new(compile_for(q, opt), workers),
        &batches,
    );
    let no_coalesce = PipelineConfig {
        coalesce_tuples: 0,
        ..pipeline.clone()
    };
    let piped = run_backend(
        &mut ThreadedCluster::pipelined(compile_for(q, opt), workers, no_coalesce.clone()),
        &batches,
    );
    // Exercise both backpressure paths: a byte bound small enough to
    // engage on these streams, and a staleness budget that forces some
    // deltas through mid-stream.
    let backpressure_config = PipelineConfig {
        admit_bytes: 4_096,
        latency_target: Some(std::time::Duration::from_micros(200)),
        ..pipeline.clone()
    };
    let backpressured = run_backend(
        &mut ThreadedCluster::pipelined(compile_for(q, opt), workers, backpressure_config),
        &batches,
    );
    let coalesced = run_backend(
        &mut ThreadedCluster::pipelined(compile_for(q, opt), workers, pipeline.clone()),
        &batches,
    );
    // The socket transport, both modes: pipelined with coalescing
    // disabled (must be bit-for-bit — the codec, framing and reader
    // threads are pure transport) and with the same coalescing bound as
    // the threaded arm (1e-9, same as every coalesced schedule).
    let tcp = run_backend(
        &mut TcpCluster::pipelined(
            compile_for(q, opt),
            &tcp_config(workers),
            no_coalesce.clone(),
        )
        .expect("tcp cluster"),
        &batches,
    );
    let tcp_coalesced = run_backend(
        &mut TcpCluster::pipelined(compile_for(q, opt), &tcp_config(workers), pipeline)
            .expect("tcp cluster"),
        &batches,
    );

    if !sim.approx_eq_eps(&reference, 1e-3) {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: simulated diverged from recomputation\nref {reference:?}\nsim {sim:?}",
            q.id
        ));
    }
    let (cs_sim, cs_sync, cs_piped) = (sim.checksum(), sync.checksum(), piped.checksum());
    if cs_sync != cs_sim {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: threaded != simulated bit-for-bit ({cs_sync} vs {cs_sim})",
            q.id
        ));
    }
    if cs_piped != cs_sim {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: pipelined != simulated bit-for-bit ({cs_piped} vs {cs_sim})",
            q.id
        ));
    }
    let cs_tcp = tcp.checksum();
    if cs_tcp != cs_sim {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: TCP != simulated bit-for-bit ({cs_tcp} vs {cs_sim})",
            q.id
        ));
    }
    if !tcp_coalesced.approx_eq_eps(&sim, 1e-9) {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: coalesced TCP diverged beyond float tolerance\nsim {sim:?}\ntcp {tcp_coalesced:?}",
            q.id
        ));
    }
    if !coalesced.approx_eq_eps(&sim, 1e-9) {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: coalesced pipeline diverged beyond float tolerance\nsim {sim:?}\ncoalesced {coalesced:?}",
            q.id
        ));
    }
    if !backpressured.approx_eq_eps(&sim, 1e-9) {
        return Err(format!(
            "{} {opt:?} x{workers} b{batch_size}: backpressured pipeline diverged beyond float tolerance\nsim {sim:?}\nbackpressured {backpressured:?}",
            q.id
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random streams, batch sizes 1–512, random catalog query, rotating
    /// opt level / worker count / coalescing threshold.
    #[test]
    fn random_streams_agree_across_backends(
        seed in 1usize..10_000,
        query_idx in 0usize..1_000,
        batch_size in 1usize..513,
        knobs in (0usize..4, 0usize..1_000, 1usize..4_096),
    ) {
        let (opt_idx, worker_idx, coalesce) = knobs;
        let catalog = all_queries();
        let q = &catalog[query_idx % catalog.len()];
        let workers_list = workers_under_test();
        let workers = workers_list[worker_idx % workers_list.len()];
        let opt = OPT_LEVELS[opt_idx];
        let delete_fraction = (seed % 5) as f64 / 10.0; // 0.0 .. 0.4
        let stream = mixed_stream(q, 170, seed as u64, delete_fraction);
        let pipeline = PipelineConfig::with_coalesce(coalesce);
        differential_check(q, &stream, batch_size, workers, opt, pipeline)?;
    }
}

/// Deterministic sweep: every TPC-H and TPC-DS catalog query, rotating
/// through the worker axis and all optimization levels.
#[test]
fn full_catalog_four_way_differential() {
    let workers_list = workers_under_test();
    for (i, q) in all_queries().iter().enumerate() {
        let workers = workers_list[i % workers_list.len()];
        let opt = OPT_LEVELS[i % OPT_LEVELS.len()];
        let stream = mixed_stream(q, 240, 0xD1FF + i as u64, 0.25);
        differential_check(q, &stream, 48, workers, opt, PipelineConfig::default())
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// Batch-size extremes: single-tuple batches (maximal pipelining pressure)
/// and one giant batch (degenerate stream) must both agree.
#[test]
fn batch_size_extremes_agree() {
    let workers = *workers_under_test().first().unwrap();
    for id in ["Q3", "Q6", "DS42"] {
        let q = query(id).unwrap();
        let stream = mixed_stream(&q, 150, 0xBA7C4, 0.3);
        for batch_size in [1usize, 512] {
            differential_check(
                &q,
                &stream,
                batch_size,
                workers,
                OptLevel::O3,
                PipelineConfig::default(),
            )
            .unwrap_or_else(|msg| panic!("{msg}"));
        }
    }
}

/// Columnar-vs-row interpreter differential, statement by statement: for
/// every catalog query under every strategy, a seeded stream runs through
/// the [`LocalEngine`].  Before each batch is applied, every statement of
/// its trigger is evaluated by the columnar interpreter and by the row
/// [`Evaluator`] over one [`MapCatalog`] — the engine's views, the
/// preprocessed batch, and what the statements before it produced — and
/// both must emit the same `(tuple, multiplicity bits)` sequence and the
/// same counters.
#[test]
fn columnar_vs_row_differential() {
    let strategies = [
        Strategy::RecursiveIvm,
        Strategy::ClassicalIvm,
        Strategy::Reevaluation,
    ];
    for (i, q) in all_queries().iter().enumerate() {
        let stream = mixed_stream(q, 160, 0xC01A + i as u64, 0.25);
        for strategy in strategies {
            let plan = compile(q.id, &q.expr, strategy);
            let mut engine =
                LocalEngine::new(plan.clone(), ExecMode::Batched { preaggregate: true });
            for batch in stream.batches(32) {
                for (relation, delta) in &batch {
                    if let Some(trigger) = plan.triggers.iter().find(|t| t.relation == *relation) {
                        check_statements(q.id, &engine, trigger, delta);
                    }
                    engine.apply_batch(relation, delta);
                }
            }
        }
    }
}

/// Evaluate `trigger`'s statements over `batch` and the engine's views with
/// both interpreters; see `columnar_vs_row_differential`.
fn check_statements(id: &str, engine: &LocalEngine, trigger: &Trigger, batch: &Relation) {
    let (prep, trigger) = trigger.preprocessing();
    let mut catalog = MapCatalog::new();
    for v in &engine.plan().views {
        catalog.insert(v.name.clone(), RelKind::View, engine.view_contents(&v.name));
    }
    catalog.insert(trigger.relation.clone(), RelKind::Delta, prep.apply(batch));
    let bits = |r: &Relation| -> Vec<(Tuple, u64)> {
        r.iter().map(|(t, m)| (t.clone(), m.to_bits())).collect()
    };
    for stmt in &trigger.statements {
        let mut counters = EvalCounters::default();
        let got = eval_vectorized(&stmt.expr, &catalog, &mut counters)
            .unwrap_or_else(|| panic!("{id}: the vectorizer refused {stmt}"));
        let mut reference = Evaluator::new(&catalog);
        let want = reference.eval(&stmt.expr);
        assert_eq!(bits(&got), bits(&want), "{id}: results diverge on {stmt}");
        assert_eq!(
            counters, reference.counters,
            "{id}: counters diverge on {stmt}"
        );
        match catalog.get_relation_mut(&stmt.target, RelKind::View) {
            Some(view) if stmt.op == StmtOp::AddTo => view.merge(&got),
            _ => catalog.insert(stmt.target.clone(), RelKind::View, got),
        }
    }
}

/// An aggressive pipeline configuration (tiny admission queue, tiny
/// in-flight window, huge coalescing threshold, starved byte budget, zero
/// staleness budget) must not change results.
#[test]
fn aggressive_pipeline_configs_agree() {
    let workers = *workers_under_test().last().unwrap();
    let q = query("Q17").unwrap();
    let stream = mixed_stream(&q, 200, 0xA66, 0.2);
    for config in [
        PipelineConfig {
            coalesce_tuples: 100_000,
            admit_capacity: 1,
            inflight_blocks: 1,
            ..Default::default()
        },
        PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 64,
            inflight_blocks: 16,
            ..Default::default()
        },
        // Byte backpressure so tight every admission forces execution.
        PipelineConfig {
            coalesce_tuples: 100_000,
            admit_capacity: 64,
            admit_bytes: 1,
            ..Default::default()
        },
        // Zero staleness budget: the latency target drains the queue on
        // every admission and vetoes all coalescing into aged deltas.
        PipelineConfig {
            coalesce_tuples: 100_000,
            admit_capacity: 64,
            latency_target: Some(std::time::Duration::ZERO),
            ..Default::default()
        },
        // Near-minimal coalescing bound behind a two-batch queue.
        PipelineConfig {
            coalesce_tuples: 1,
            admit_capacity: 2,
            ..Default::default()
        },
        // Eager execution behind a one-block window: every issue blocks
        // on the oldest owed completion.
        PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 1,
            inflight_blocks: 1,
            ..Default::default()
        },
        // A wide window with coalescing.
        PipelineConfig {
            coalesce_tuples: 100_000,
            admit_capacity: 4,
            inflight_blocks: 16,
            ..Default::default()
        },
    ] {
        differential_check(&q, &stream, 7, workers, OptLevel::O2, config)
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}
