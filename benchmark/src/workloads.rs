//! The four workloads: frozen sizes, seeded inputs, and the lap runner.
//!
//! A *lap* builds a fresh backend, loads the head of the stream (set-up),
//! then streams the rest round by round (measured).  Every
//! lap of a run replays the identical pre-generated input, so lap-to-lap
//! spread is pure noise.  Each workload is a closed loop with one client:
//! `apply_batch` / `publish` block, and the next round is handed in when the
//! previous call returns.

use crate::procfs;
use crate::report::Values;
use crate::spans::{Recorder, ROOT};
use crate::stats;
use hotdog::net::TcpTransport;
use hotdog::prelude::*;
use hotdog::serve::serve_connection;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Tuples per round of the initial load (set-up), on every workload.
pub const LOAD_ROUND: usize = 10_000;
/// Seconds one measured lap was calibrated to on the reference host
/// (`nproc` = 2); `--seconds` buys `seconds / LAP_NOMINAL_S` measured laps.
pub const LAP_NOMINAL_S: f64 = 3.0;
/// Pipelined workload: a `flush` + `query_result()` every this many rounds.
pub const READ_EVERY: usize = 8;
/// Pipelined workload: static coalescing bound, tuples.
pub const COALESCE_TUPLES: usize = 4096;
/// Serve workload: registered subscribers and distinct filter values.
pub const SUBSCRIBERS: usize = 2_000;
pub const FILTER_VALUES: usize = 1_000;
/// Serve workload: subscriber views checked against the hub's view.
pub const SAMPLED_VIEWS: usize = 16;
/// Relative tolerance of the oracle on the coalesced workload (coalescing
/// re-associates float additions); every other workload is bit-for-bit.
pub const COALESCED_EPS: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `ThreadedCluster::new`, epoch-synchronous.
    Threaded,
    /// `TcpCluster::new`, this binary re-executed as each worker process.
    Tcp,
    /// `ThreadedCluster::pipelined` with static coalescing.
    Pipelined,
    /// `SubscriptionHub` over `ThreadedCluster::new`, served over TCP.
    Serve,
}

/// One workload, every size a frozen constant (calibrated once on the
/// reference host; never derived from `nproc` or a clock at run time).
pub struct Spec {
    pub name: &'static str,
    pub query: &'static str,
    pub kind: Kind,
    /// Worker threads/processes.  Sync backends block the driver while the
    /// workers run (2 workers); pipelined and serve overlap the driver or
    /// client with one worker — never more than 2 runnable threads.
    pub workers: usize,
    /// `generate_tpch(seed, tuples)`: the whole stream.
    pub tuples: usize,
    /// Leading stream events applied as the initial load (set-up); the rest
    /// is the measured phase.  Sized so set-up is about a second of work.
    pub load: usize,
    /// Tuples per measured round.
    pub round: usize,
    /// `with_deletions(seed, fraction)` over the generated stream.
    pub deletions: Option<f64>,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "bulk_q3_threaded",
        query: "Q3",
        kind: Kind::Threaded,
        workers: 2,
        tuples: 390_000,
        load: 150_000,
        round: 5_000,
        deletions: None,
    },
    Spec {
        name: "smallbatch_q3_tcp",
        query: "Q3",
        kind: Kind::Tcp,
        workers: 2,
        tuples: 141_000,
        load: 100_000,
        round: 100,
        deletions: None,
    },
    Spec {
        name: "churn_q18_pipelined",
        query: "Q18",
        kind: Kind::Pipelined,
        workers: 1,
        tuples: 70_000,
        load: 10_000,
        round: 500,
        deletions: Some(0.25),
    },
    Spec {
        name: "fanout_q3_serve",
        query: "Q3",
        kind: Kind::Serve,
        workers: 1,
        tuples: 190_000,
        load: 100_000,
        round: 250,
        deletions: None,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One element of `UpdateStream::batches(B)`: up to eight per-relation
/// batches, most for relations the query ignores.
pub type Round = Vec<(&'static str, Relation)>;

/// The pre-generated input of a run; the program sees nothing else.
pub struct Input {
    pub load: Vec<Round>,
    pub run: Vec<Round>,
    /// Tuples in `run` (the denominator of throughput and bytes/tuple).
    pub run_tuples: usize,
    pub generate_s: f64,
}

/// Build the input from the seed alone.  `shrink` divides the tuple counts
/// (`--smoke` uses 20; measured runs use 1).
pub fn generate(spec: &Spec, seed: u64, shrink: usize) -> Input {
    let start = Instant::now();
    let mut stream = generate_tpch(seed, spec.tuples / shrink);
    if let Some(fraction) = spec.deletions {
        stream = stream.with_deletions(seed, fraction);
    }
    let loaded = (spec.load / shrink).min(stream.len());
    let mut first = stream.clone();
    first.events.truncate(loaded);
    stream.events.drain(..loaded);
    let load = first.batches(LOAD_ROUND);
    let run = stream.batches(spec.round);
    Input {
        load,
        run,
        run_tuples: stream.len(),
        generate_s: start.elapsed().as_secs_f64(),
    }
}

pub struct Compiled {
    pub dplan: DistributedPlan,
    pub ivm_s: f64,
    pub distributed_s: f64,
}

/// `compile_recursive` + `compile_distributed` at O3, each timed.
pub fn compile_plan(spec: &Spec) -> Compiled {
    let q = query(spec.query).expect("catalog query");
    let t0 = Instant::now();
    let plan = compile_recursive(q.id, &q.expr);
    let ivm_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let partitioning = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    let dplan = compile_distributed(&plan, &partitioning, OptLevel::O3);
    Compiled {
        dplan,
        ivm_s,
        distributed_s: t1.elapsed().as_secs_f64(),
    }
}

/// The serve workload's shape and its subscribers' filters: `o_orderdate`
/// bound to `FILTER_VALUES` distinct calendar days inside the query's
/// date window, two subscribers per day.
pub fn serve_shape() -> QueryShape {
    let q = query("Q3").expect("catalog query");
    QueryShape::new(q.id, q.expr.clone(), q.partition_keys.iter().copied())
}

pub const FILTER_COLUMN: &str = "o_orderdate";

pub fn filter_value(subscriber: usize) -> Value {
    // The generator draws days 1..=28 of every month from 1992; Q3 keeps
    // o_orderdate < 1995-03-15, which leaves 1 078 days — enough for 1 000.
    let day = subscriber % FILTER_VALUES;
    let (year, month, dom) = (1992 + day / 336, 1 + (day % 336) / 28, 1 + day % 28);
    Value::Long((year * 10_000 + month * 100 + dom) as i64)
}

/// What one lap measured.
pub struct Lap {
    /// Compile + backend start + initial load (+ subscriber registration).
    pub setup_wall: Duration,
    /// First round handed in → final flush + read returned.
    pub measured_wall: Duration,
    /// Update-to-visible latency of every measured round.
    pub round_ms: Vec<f64>,
    pub rounds_failed: usize,
    /// `totals().bytes_shuffled` of the measured phase.
    pub shuffled_bytes: usize,
    /// `VmHWM` of this process plus its live worker children, read just
    /// before the backend is closed.
    pub peak_rss_mb: f64,
    /// Final top-level view.
    pub result: Relation,
    /// Serve only: sampled subscriber views equal the filtered hub view.
    pub views_match: bool,
    /// Traced lap only: per-layer numbers read off this lap.
    pub layer: Values,
    /// Traced lap only: the benchmark's own spans.
    pub recorder: Recorder,
}

impl Lap {
    pub fn setup_s(&self) -> f64 {
        self.setup_wall.as_secs_f64()
    }

    pub fn measured_s(&self) -> f64 {
        self.measured_wall.as_secs_f64()
    }

    /// Measured tuples ÷ measured-phase wall.
    pub fn throughput_tps(&self, input: &Input) -> f64 {
        input.run_tuples as f64 / self.measured_s()
    }
}

/// Run one lap of `spec` over `input`.
pub fn run_lap(spec: &Spec, input: &Input, traced: bool) -> Lap {
    let t0 = Instant::now();
    match spec.kind {
        Kind::Serve => serve_lap(spec, input, t0, traced),
        Kind::Threaded => {
            let mut cluster = ThreadedCluster::new(compile_plan(spec).dplan, spec.workers);
            drive(&mut cluster, spec, input, t0, traced)
        }
        Kind::Pipelined => {
            let config = PipelineConfig::with_coalesce(COALESCE_TUPLES);
            let mut cluster =
                ThreadedCluster::pipelined(compile_plan(spec).dplan, spec.workers, config);
            drive(&mut cluster, spec, input, t0, traced)
        }
        Kind::Tcp => {
            let dplan = compile_plan(spec).dplan;
            let mut config = TcpConfig::with_workers(spec.workers);
            // This binary is its own worker (`--connect`): no dependence
            // on a separately built, possibly stale `hotdog-worker`.
            config.worker_bin = Some(std::env::current_exe().expect("current_exe"));
            // A test executable is not a worker: unit tests run the workers
            // as in-process socket threads (same wire path).
            if cfg!(test) {
                config.spawn = WorkerSpawn::Thread;
            }
            let starting = Instant::now();
            let mut cluster = TcpCluster::new(dplan, &config).expect("start TCP cluster");
            let start_ms = ms(starting.elapsed());
            let cluster: &mut Driver<TcpTransport> = &mut cluster;
            let mut lap = drive(cluster, spec, input, t0, traced);
            if traced {
                lap.layer.set("net.cluster_start_ms", start_ms);
            }
            lap
        }
    }
}

/// A reading of the backend's cumulative counters at a phase boundary.
struct Mark {
    shuffled_bytes: usize,
    /// Traced laps only (taking it costs a `Stats` round to every worker,
    /// which also ships their finished spans), with how long it took.
    metrics: Option<(MetricsSnapshot, Duration)>,
    pipeline: Option<PipelineStats>,
    /// Id of the newest batch trace (ids rise with admission).
    trace: u64,
}

fn mark<T: Transport>(d: &mut Driver<T>, traced: bool) -> Mark {
    Mark {
        shuffled_bytes: d.totals.bytes_shuffled,
        metrics: traced.then(|| {
            let t = Instant::now();
            (d.metrics_snapshot(), t.elapsed())
        }),
        pipeline: Backend::pipeline_stats(d),
        trace: d.telemetry().tracer().latest_trace(),
    }
}

/// CPU and context-switch readings around the measured phase (traced lap).
struct CpuWindow {
    driver_thread: String,
    before: procfs::CpuSample,
    wall: Instant,
}

impl CpuWindow {
    fn open(driver_thread: String) -> Self {
        CpuWindow {
            before: procfs::cpu_sample(&driver_thread),
            driver_thread,
            wall: Instant::now(),
        }
    }

    fn close(self, spec: &Spec, input: &Input, layer: &mut Values) {
        let wall = self.wall.elapsed().as_secs_f64();
        let after = procfs::cpu_sample(&self.driver_thread);
        let workers = spec.workers as f64;
        let worker_threads = (after.worker_threads_s - self.before.worker_threads_s) / workers;
        let children = (after.children_s - self.before.children_s) / workers;
        layer.set(
            "runtime.driver_cpu_frac",
            (after.driver_s - self.before.driver_s) / wall,
        );
        layer.set(
            "runtime.worker_cpu_frac",
            (worker_threads + children) / wall,
        );
        layer.set("net.worker_cpu_frac", children / wall);
        let cpu_s =
            (after.process_s - self.before.process_s) + (after.children_s - self.before.children_s);
        layer.set(
            "process.cpu_s_per_mtuple",
            cpu_s / (input.run_tuples as f64 / 1e6),
        );
        layer.set(
            "process.vol_ctx_switches_per_round",
            (after.voluntary_switches - self.before.voluntary_switches) as f64
                / input.run.len() as f64,
        );
    }
}

/// Load, then stream, one `Driver` backend (threaded, pipelined or TCP).
fn drive<T: Transport>(
    d: &mut Driver<T>,
    spec: &Spec,
    input: &Input,
    t0: Instant,
    traced: bool,
) -> Lap {
    for round in &input.load {
        for (relation, batch) in round {
            d.try_apply_batch(relation, batch).expect("initial load");
        }
    }
    d.try_flush().expect("initial load flush");
    let setup_wall = t0.elapsed();

    let before = mark(d, traced);
    let cpu = traced.then(|| CpuWindow::open(procfs::current_thread_name()));
    let mut rec = Recorder::new(traced);
    let pipelined = spec.kind == Kind::Pipelined;
    let mut round_ms = Vec::with_capacity(input.run.len());
    let mut rounds_failed = 0usize;
    // Pipelined: hand-in times of the rounds admitted since the last read.
    let mut unread: Vec<Instant> = Vec::new();

    let measured = Instant::now();
    for (i, round) in input.run.iter().enumerate() {
        let span = rec.open("round", ROOT, i);
        let handed_in = Instant::now();
        let mut ok = true;
        for (relation, batch) in round {
            let (applied, _) = rec.timed("apply_batch", span, i, || {
                d.try_apply_batch(relation, batch)
            });
            ok &= applied.is_ok();
        }
        if pipelined {
            // `apply_batch` only admits; queued deltas become visible at the
            // next barrier, so a round's latency ends when the `flush` +
            // `query_result()` that follows it returns.
            unread.push(handed_in);
            if (i + 1) % READ_EVERY == 0 {
                let (flushed, _) = rec.timed("flush", span, i, || d.try_flush());
                let (read, _) = rec.timed("query_result", span, i, || d.try_query_result());
                ok &= flushed.is_ok() && read.is_ok();
                round_ms.extend(unread.drain(..).map(|t| ms(t.elapsed())));
            }
        } else {
            round_ms.push(ms(handed_in.elapsed()));
        }
        rec.close(span);
        rounds_failed += usize::from(!ok);
    }
    let last = input.run.len();
    let (flushed, _) = rec.timed("flush", ROOT, last, || d.try_flush());
    let (read, _) = rec.timed("query_result", ROOT, last, || d.try_query_result());
    round_ms.extend(unread.drain(..).map(|t| ms(t.elapsed())));
    let measured_wall = measured.elapsed();

    let mut layer = Values::default();
    if let Some(cpu) = cpu {
        cpu.close(spec, input, &mut layer);
    }
    let after = mark(d, traced);
    if traced {
        layer_from_marks(&before, &after, input, &mut layer);
        layer_from_program_spans(d, spec, &before, input, &mut layer);
        layer_from_own_spans(&rec, pipelined, &mut layer);
    }
    let result = match (flushed, read) {
        (Ok(()), Ok(result)) => result,
        // The final view is unknown: every round of the lap counts as failed.
        _ => {
            rounds_failed = input.run.len();
            Relation::default()
        }
    };
    Lap {
        setup_wall,
        measured_wall,
        round_ms,
        rounds_failed,
        shuffled_bytes: after.shuffled_bytes - before.shuffled_bytes,
        peak_rss_mb: procfs::peak_rss_mb_with_children(),
        result,
        views_match: true,
        layer,
        recorder: rec,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Exact counts the program keeps: pipeline stats and metric counters,
/// as differences over the measured phase.
fn layer_from_marks(before: &Mark, after: &Mark, input: &Input, layer: &mut Values) {
    let rounds = input.run.len() as f64;
    if let (Some((b, _)), Some((a, took))) = (&before.metrics, &after.metrics) {
        layer.set("telemetry.snapshot_ms", ms(*took));
        let diff = |name: &str| a.counter(name).saturating_sub(b.counter(name)) as f64;
        layer.set(
            "runtime.scatter_msgs_per_round",
            diff("driver.requests.apply_many") / rounds,
        );
        let frames = diff("net.frames.sent") + diff("net.frames.received");
        let bytes = diff("net.bytes.sent") + diff("net.bytes.received");
        layer.set("net.frames_per_round", frames / rounds);
        layer.set("net.bytes_per_round", bytes / rounds);
        let hits = diff("net.broadcast.cache_hits");
        let misses = diff("net.broadcast.cache_misses");
        if hits + misses > 0.0 {
            layer.set("net.broadcast_cache_hit_frac", hits / (hits + misses));
        }
    }
    if let (Some(b), Some(a)) = (&before.pipeline, &after.pipeline) {
        let admitted = (a.batches_admitted - b.batches_admitted) as f64;
        let tuples = (a.tuples_admitted - b.tuples_admitted) as f64;
        layer.set(
            "runtime.coalesce_ratio",
            (a.batches_coalesced - b.batches_coalesced) as f64 / admitted.max(1.0),
        );
        layer.set(
            "runtime.tuples_executed_frac",
            (a.tuples_executed - b.tuples_executed) as f64 / tuples.max(1.0),
        );
        layer.set("runtime.max_queue_depth", a.max_queue_depth as f64);
        layer.set(
            "runtime.gathers_overlapped",
            (a.gathers_overlapped - b.gathers_overlapped) as f64,
        );
    }
}

/// Stage shares from the program's existing span tree (`trace_spans()`):
/// time in each named stage as a share of the batch root spans' time, over
/// the measured phase.  Worker stages are averaged over the workers.
fn layer_from_program_spans<T: Transport>(
    d: &mut Driver<T>,
    spec: &Spec,
    before: &Mark,
    input: &Input,
    layer: &mut Values,
) {
    let spans: Vec<SpanRecord> = d
        .trace_spans()
        .into_iter()
        // By trace id, not by time: a worker process stamps its spans
        // against its own clock epoch.
        .filter(|s| s.trace > before.trace)
        .collect();
    layer.set(
        "telemetry.spans_per_round",
        spans.len() as f64 / input.run.len() as f64,
    );
    layer.set(
        "telemetry.spans_dropped",
        d.telemetry().tracer().dropped() as f64,
    );
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_micros() as f64)
            .sum()
    };
    let root = total("batch").max(1.0);
    let workers = spec.workers as f64;
    for (metric, stage, share) in [
        ("runtime.stage.admit_frac", "admit", 1.0),
        ("runtime.stage.coalesce_frac", "coalesce", 1.0),
        ("runtime.stage.scatter_encode_frac", "scatter.encode", 1.0),
        ("runtime.stage.gather_frac", "gather", 1.0),
        ("runtime.stage.commit_frac", "watermark.commit", 1.0),
        (
            "runtime.stage.worker_run_block_frac",
            "worker.run_block",
            workers,
        ),
        ("runtime.stage.worker_apply_frac", "worker.apply", workers),
        ("runtime.stage.worker_fetch_frac", "worker.fetch", workers),
    ] {
        layer.set(metric, total(stage) / share / root);
    }

    // Critical path of up to 64 evenly spaced batches: the share of the
    // root's wall-clock that named child stages explain.
    let mut by_trace: std::collections::BTreeMap<u64, Vec<SpanRecord>> = Default::default();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let step = (by_trace.len() / 64).max(1);
    let (mut explained, mut whole) = (0u64, 0u64);
    for (trace, spans) in by_trace.iter().step_by(step) {
        if let Some(path) = critical_path(spans, *trace) {
            let own: u64 = path
                .stages
                .iter()
                .filter(|(name, _)| name == "batch")
                .map(|(_, micros)| micros)
                .sum();
            explained += path.total_micros.saturating_sub(own);
            whole += path.total_micros;
        }
    }
    if whole > 0 {
        layer.set(
            "runtime.critical_path_attributed_frac",
            explained as f64 / whole as f64,
        );
    }
}

/// Per-call timings from the benchmark's own spans.
fn layer_from_own_spans(rec: &Recorder, pipelined: bool, layer: &mut Values) {
    if pipelined {
        // Admission only: execution is deferred to the queue.
        layer.set(
            "runtime.admit_us",
            stats::median(&rec.per_round_ms("apply_batch")) * 1e3,
        );
    }
    layer.set(
        "runtime.read_ms_p50",
        stats::median(&rec.durations_ms("query_result")),
    );
    layer.set(
        "runtime.flush_ms",
        stats::median(&rec.durations_ms("flush")),
    );
}

/// The serve lap.  A server thread owns the hub and serves two connections
/// in turn: the first registers the subscribers and publishes the initial
/// load, the second streams the measured rounds.  Subscriptions live in the
/// hub, so the second connection's `pump()` receives their deltas; the gap
/// between the two is where the server reads the backend's counters.
fn serve_lap(spec: &Spec, input: &Input, t0: Instant, traced: bool) -> Lap {
    const SERVER_THREAD: &str = "hub-server";
    let shape = serve_shape();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let workers = spec.workers;
    let shapes = vec![shape.clone()];
    let server = std::thread::Builder::new()
        .name(SERVER_THREAD.to_string())
        .spawn(move || {
            let mut hub = SubscriptionHub::new(move |_: &QueryShape, dplan: DistributedPlan| {
                ThreadedCluster::new(dplan, workers)
            });
            let (stream, _) = listener.accept().expect("accept load connection");
            serve_connection(stream, &mut hub, &shapes).expect("serve load connection");
            let before = mark(hub.backend(&shapes[0].name).expect("shape is live"), traced);
            let (stream, _) = listener.accept().expect("accept measured connection");
            let served = serve_connection(stream, &mut hub, &shapes);
            (hub, before, served)
        })
        .expect("spawn hub server thread");

    // -- set-up: register subscribers, publish the initial load ------------
    let mut client = SubscribeClient::connect(&addr).expect("connect");
    let mut views: Vec<SubscriberView> = Vec::with_capacity(SUBSCRIBERS);
    let mut subscribe_us = Vec::with_capacity(SUBSCRIBERS);
    for i in 0..SUBSCRIBERS {
        let t = Instant::now();
        let (id, schema, initial) = client
            .subscribe(
                &shape.name,
                Some((FILTER_COLUMN.to_string(), filter_value(i))),
            )
            .expect("subscribe");
        subscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
        // Hub ids are 1-based and dense, so `views[id - 1]` is the route.
        assert_eq!(id as usize, i + 1, "subscription ids are dense");
        let mut view = SubscriberView::new(schema);
        view.apply(&initial);
        views.push(view);
    }
    for round in &input.load {
        for (relation, batch) in round {
            client
                .publish(relation, batch)
                .expect("publish initial load");
        }
        for delta in client.pump().expect("pump initial load") {
            views[delta.subscription as usize - 1].apply(&delta);
        }
    }
    client.close().expect("close load connection");
    let mut client = SubscribeClient::connect(&addr).expect("reconnect");
    let setup_wall = t0.elapsed();

    // -- measured: publish a round, pump, decode and apply its deltas ------
    let cpu = traced.then(|| CpuWindow::open(SERVER_THREAD.to_string()));
    let mut rec = Recorder::new(traced);
    let mut round_ms = Vec::with_capacity(input.run.len());
    let mut rounds_failed = 0usize;
    let (mut pushed_deltas, mut push_bytes) = (0usize, 0usize);
    // Time spent sizing deltas in the traced lap; not the system's work.
    let mut untimed = Duration::ZERO;
    let measured = Instant::now();
    for (i, round) in input.run.iter().enumerate() {
        let span = rec.open("round", ROOT, i);
        let handed_in = Instant::now();
        let mut ok = true;
        for (relation, batch) in round {
            let (published, _) = rec.timed("publish", span, i, || client.publish(relation, batch));
            ok &= published.is_ok();
        }
        let (pumped, _) = rec.timed("pump", span, i, || client.pump());
        let deltas = pumped.unwrap_or_else(|_| {
            ok = false;
            Vec::new()
        });
        rec.timed("client.apply", span, i, || {
            for delta in &deltas {
                views[delta.subscription as usize - 1].apply(delta);
            }
        });
        round_ms.push(ms(handed_in.elapsed()));
        rec.close(span);
        rounds_failed += usize::from(!ok);
        pushed_deltas += deltas.len();
        if traced {
            let t = Instant::now();
            push_bytes += deltas
                .iter()
                .map(|d| hotdog::net::encode_to_vec(d).len() + 5)
                .sum::<usize>();
            untimed += t.elapsed();
        }
    }
    let measured_wall = measured.elapsed() - untimed;
    let mut layer = Values::default();
    // While the server thread is still alive to be sampled.
    if let Some(cpu) = cpu {
        cpu.close(spec, input, &mut layer);
    }
    let closed = client.close();
    let peak_rss_mb = procfs::peak_rss_mb_with_children();

    let (mut hub, before, served) = server.join().expect("hub server thread");
    let backend = hub.backend(&shape.name).expect("shape is live");
    let after = mark(backend, traced);
    if traced {
        layer_from_marks(&before, &after, input, &mut layer);
        layer_from_program_spans(backend, spec, &before, input, &mut layer);
        let rounds = input.run.len() as f64;
        layer.set("serve.subscribe_us", stats::median(&subscribe_us));
        layer.set(
            "serve.publish_ms_p50",
            stats::median(&rec.per_round_ms("publish")),
        );
        layer.set(
            "serve.pump_ms_p50",
            stats::median(&rec.durations_ms("pump")),
        );
        let apply_ms: f64 = rec.durations_ms("client.apply").iter().sum();
        layer.set(
            "serve.client_apply_us",
            apply_ms * 1e3 / (pushed_deltas as f64).max(1.0),
        );
        layer.set("serve.deltas_per_round", pushed_deltas as f64 / rounds);
        layer.set("serve.push_bytes_per_round", push_bytes as f64 / rounds);
    }
    let shuffled_bytes = after.shuffled_bytes - before.shuffled_bytes;

    // -- oracle: sampled subscriber views == filtered hub view -------------
    let result = hub.view_contents(&shape.name).expect("shape is live");
    let schema = result.schema().clone();
    let views_match = (0..SAMPLED_VIEWS).all(|k| {
        let i = k * SUBSCRIBERS / SAMPLED_VIEWS;
        let expect = ParamFilter::equals(FILTER_COLUMN, filter_value(i)).apply(&schema, &result);
        views[i].contents().checksum() == expect.checksum()
    });
    if served.is_err() || closed.is_err() {
        rounds_failed = input.run.len();
    }
    Lap {
        setup_wall,
        measured_wall,
        round_ms,
        rounds_failed,
        shuffled_bytes,
        peak_rss_mb,
        result,
        views_match,
        layer,
        recorder: rec,
    }
}

/// The correctness reference: the single-threaded simulated `Cluster` over
/// the same rounds with the same worker count (bit-for-bit with the sync
/// backends by the repo's determinism contract).  Returns the final view
/// and the simulated cluster's own measured-phase throughput — the
/// single-threaded baseline.
pub fn reference(spec: &Spec, input: &Input) -> (Relation, f64) {
    let compiled = compile_plan(spec);
    let mut sim = Cluster::new(compiled.dplan, ClusterConfig::with_workers(spec.workers));
    for round in &input.load {
        for (relation, batch) in round {
            sim.apply_batch(relation, batch);
        }
    }
    let t = Instant::now();
    for round in &input.run {
        for (relation, batch) in round {
            sim.apply_batch(relation, batch);
        }
    }
    let result = sim.query_result();
    let tps = input.run_tuples as f64 / t.elapsed().as_secs_f64();
    (result, tps)
}

/// Whether a lap's outputs agree with the reference.
pub fn lap_is_correct(spec: &Spec, lap: &Lap, reference: &Relation) -> bool {
    let view_ok = if spec.kind == Kind::Pipelined {
        lap.result.approx_eq_eps(reference, COALESCED_EPS)
    } else {
        lap.result.checksum() == reference.checksum()
    };
    view_ok && lap.views_match
}

/// Remove every `HOTDOG_*` variable: none of the system's environment
/// knobs may leak into a measurement (worker children inherit the result).
/// Returns the names removed.
pub fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HOTDOG_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small spec per kind, so a test lap takes milliseconds.
    fn small(name: &str) -> Spec {
        let s = spec(name).expect("workload");
        Spec {
            tuples: 6_000,
            load: 3_000,
            round: s.round.min(400),
            ..*s
        }
    }

    /// Digest of every round, in order.
    fn input_checksums(input: &Input) -> Vec<u64> {
        input
            .load
            .iter()
            .chain(&input.run)
            .flat_map(|round| round.iter().map(|(_, batch)| batch.checksum().digest))
            .collect()
    }

    #[test]
    fn same_seed_same_rounds_different_seed_different_rounds() {
        let s = small("churn_q18_pipelined");
        let a = input_checksums(&generate(&s, 11, 1));
        let b = input_checksums(&generate(&s, 11, 1));
        let c = input_checksums(&generate(&s, 12, 1));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn input_is_split_at_the_load_mark_and_counted() {
        let s = small("bulk_q3_threaded");
        let input = generate(&s, 3, 1);
        let tuples =
            |rounds: &[Round]| -> usize { rounds.iter().flatten().map(|(_, b)| b.len()).sum() };
        // Relations are sets of (tuple, multiplicity): duplicates inside a
        // batch merge, so a batch can hold fewer rows than events.
        assert!(tuples(&input.run) <= input.run_tuples);
        assert!(tuples(&input.load) <= s.load && tuples(&input.load) > s.load * 9 / 10);
        assert!(input.run_tuples.abs_diff(s.tuples - s.load) <= s.tuples / 100);
        assert_eq!(input.run.len(), input.run_tuples.div_ceil(s.round));
    }

    #[test]
    fn filter_values_are_distinct_days_inside_the_query_window() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..FILTER_VALUES {
            let Value::Long(day) = filter_value(i) else {
                panic!("dates are longs");
            };
            assert!((19920101..19950315).contains(&day), "{day}");
            assert!((1..=28).contains(&(day % 100)) && (1..=12).contains(&(day / 100 % 100)));
            seen.insert(day);
        }
        assert_eq!(seen.len(), FILTER_VALUES);
        assert_eq!(filter_value(3), filter_value(3 + FILTER_VALUES));
    }

    #[test]
    fn every_workload_agrees_with_the_reference_and_fails_no_round() {
        for w in &WORKLOADS {
            let s = small(w.name);
            let input = generate(&s, 5, 1);
            let lap = run_lap(&s, &input, false);
            let (expect, _) = reference(&s, &input);
            assert!(lap_is_correct(&s, &lap, &expect), "{}", s.name);
            assert_eq!(lap.rounds_failed, 0, "{}", s.name);
            assert_eq!(lap.round_ms.len(), input.run.len(), "{}", s.name);
            assert!(!lap.result.is_empty() || s.query == "Q18", "{}", s.name);
        }
    }

    #[test]
    fn a_wrong_view_is_caught_by_the_oracle() {
        let s = small("bulk_q3_threaded");
        let input = generate(&s, 5, 1);
        let lap = run_lap(&s, &input, false);
        let (mut expect, _) = reference(&s, &input);
        assert!(lap_is_correct(&s, &lap, &expect));
        let (tuple, _) = expect.sorted().into_iter().next().expect("non-empty view");
        expect.add(tuple, 1.0);
        assert!(!lap_is_correct(&s, &lap, &expect));
    }

    #[test]
    fn exact_counts_repeat_between_laps() {
        // Shuffled bytes on every backend kind, and the pipelined
        // coalescing ratio, are functions of the input alone.
        for w in &WORKLOADS {
            let s = small(w.name);
            let input = generate(&s, 9, 1);
            let a = run_lap(&s, &input, true);
            let b = run_lap(&s, &input, true);
            assert!(a.shuffled_bytes > 0, "{}", s.name);
            assert_eq!(a.shuffled_bytes, b.shuffled_bytes, "{}", s.name);
            if s.kind == Kind::Pipelined {
                let ratio = |lap: &Lap| lap.layer.get("runtime.coalesce_ratio");
                assert!(ratio(&a).is_some_and(|r| r > 0.0));
                assert_eq!(ratio(&a), ratio(&b));
            }
        }
    }

    #[test]
    fn scrubbing_removes_only_hotdog_variables() {
        std::env::set_var("HOTDOG_COLUMNAR", "0");
        std::env::set_var("HOTDOG_BENCH_SCRUB_TEST", "1");
        std::env::set_var("NOT_HOTDOG_SCRUB_TEST", "kept");
        let removed = scrub_environment();
        assert!(removed.contains(&"HOTDOG_COLUMNAR".to_string()));
        assert!(removed.contains(&"HOTDOG_BENCH_SCRUB_TEST".to_string()));
        assert!(std::env::var_os("HOTDOG_COLUMNAR").is_none());
        assert_eq!(
            std::env::var("NOT_HOTDOG_SCRUB_TEST").as_deref(),
            Ok("kept")
        );
        assert!(scrub_environment().is_empty());
    }
}
