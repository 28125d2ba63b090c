//! What the driver counts: per-batch [`BatchExecution`] stats, lifetime
//! [`ClusterTotals`] and [`PipelineStats`], the cached metric handles every
//! hot path updates ([`DriverMetrics`]), the deterministic cross-backend
//! [`TelemetryTotals`], and the snapshot / trace accessors built on the
//! protocol's `Stats` round.

use crate::{Driver, Reply, Request, Transport, WorkerDead};
use hotdog_distributed::WorkerStatsSnapshot;
use hotdog_telemetry::{
    Counter, CriticalPath, Gauge, Histogram, MetricsSnapshot, SpanRecord, Telemetry,
};
use std::sync::Arc;

/// Statistics of processing one batch on the cluster.
#[derive(Clone, Debug, Default)]
pub struct BatchExecution {
    pub input_tuples: usize,
    /// End-to-end latency of the batch (seconds): modelled on the
    /// simulated cluster, measured wall-clock elsewhere.
    pub latency_secs: f64,
    /// Total bytes moved over the network.
    pub bytes_shuffled: usize,
    /// Bytes moved per worker (average).
    pub bytes_per_worker: f64,
    /// Distributed stages executed.
    pub stages: usize,
    /// Jobs launched.
    pub jobs: usize,
    /// Interpreter work of the slowest worker (instruction count).
    pub max_worker_instructions: u64,
    /// Interpreter work performed on the driver.
    pub driver_instructions: u64,
    /// Real wall-clock time spent executing the batch.
    pub wall_secs: f64,
}

/// Accumulated totals over a cluster's lifetime.
#[derive(Clone, Debug, Default)]
pub struct ClusterTotals {
    /// Batches issued, each counted once: a recovery replay re-executes
    /// batches without counting them again.
    pub batches: usize,
    /// Tuples admitted, counted like `batches`.
    pub tuples: usize,
    pub latency_secs: f64,
    pub bytes_shuffled: usize,
    pub latencies: Vec<f64>,
}

impl ClusterTotals {
    /// Throughput (tuples per second of latency).
    pub fn throughput(&self) -> f64 {
        if self.latency_secs == 0.0 {
            0.0
        } else {
            self.tuples as f64 / self.latency_secs
        }
    }

    /// Median batch latency in seconds.
    pub fn median_latency(&self) -> f64 {
        self.latency_percentile(0.50)
    }

    /// Batch latency percentile in seconds (`p` in `[0, 1]`, nearest-rank).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((v.len() as f64 * p) as usize).min(v.len() - 1);
        v[idx]
    }
}

/// Counters of a pipelined ingestion path (admission queue, delta
/// coalescing, backpressure); [`Driver::pipeline_stats`] reports them, and
/// `None` for a synchronous driver.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Batches admitted via `apply_batch`.
    pub batches_admitted: usize,
    /// Admitted batches that were ring-summed into an already-queued delta
    /// instead of triggering on their own.
    pub batches_coalesced: usize,
    /// Maintenance-program executions actually triggered.
    pub batches_executed: usize,
    /// Admitted-but-unissued batches abandoned by an explicit close/drop
    /// (never executed).
    pub batches_abandoned: usize,
    /// Tuples admitted (pre-coalescing).
    pub tuples_admitted: usize,
    /// Tuples in the executed deltas, after batch preprocessing and
    /// coalescing: tuples that collide once projected onto the columns the
    /// trigger reads are summed, and opposing deltas cancel, so both shrink
    /// this below `tuples_admitted`.  The coalescing bound counts the same
    /// tuples.
    pub tuples_executed: usize,
    /// High-water mark of the admission queue depth (batches).
    pub max_queue_depth: usize,
    /// High-water mark of the admission queue footprint (serialized bytes).
    pub max_queue_bytes: usize,
    /// Executions forced by the byte-bounded backpressure
    /// (`admit_bytes`), not by the count capacity.
    pub executions_forced_by_bytes: usize,
    /// Executions forced by the latency target (watermark lag exceeded the
    /// configured staleness bound).
    pub executions_forced_by_latency: usize,
    /// Slowest worker's interpreter work observed across lazy reply drains.
    pub max_worker_instructions: u64,
    /// Gather/repartition fetches issued while distributed-block
    /// completions were still unconsumed (the worker may already have sent
    /// them): the fetch queues behind the in-flight blocks instead of
    /// draining the window first.  A function of the schedule alone.
    pub gathers_overlapped: usize,
    /// Multi-statement `ApplyMany` scatter messages shipped to workers.
    pub scatter_messages_sent: usize,
    /// Per-statement scatter messages avoided by batching (sum over
    /// shipped messages of `statements - 1`).
    pub scatter_messages_saved: usize,
}

/// Cached handles into the driver's metric registry, registered once at
/// construction so every hot-path update is a single relaxed atomic op.
///
/// The `driver.*` counters are deterministic functions of the admission
/// sequence and the (transport-generic) driver schedule: they must be
/// bit-identical across the threaded and TCP backends.  The gauges and
/// the latency-valued histograms are *not* part of that contract (see
/// [`MetricsSnapshot::deterministic`]).
pub(crate) struct DriverMetrics {
    pub(crate) requests_total: Arc<Counter>,
    pub(crate) requests_run_block: Arc<Counter>,
    pub(crate) requests_apply_many: Arc<Counter>,
    pub(crate) requests_fetch: Arc<Counter>,
    pub(crate) requests_snapshot: Arc<Counter>,
    pub(crate) requests_barrier: Arc<Counter>,
    pub(crate) requests_stats: Arc<Counter>,
    pub(crate) requests_checkpoint: Arc<Counter>,
    pub(crate) requests_restore: Arc<Counter>,
    pub(crate) requests_set_capture: Arc<Counter>,
    pub(crate) requests_take_captured: Arc<Counter>,
    pub(crate) replies_total: Arc<Counter>,
    pub(crate) worker_respawned: Arc<Counter>,
    pub(crate) worker_declared_dead: Arc<Counter>,
    pub(crate) recovery_attempts: Arc<Counter>,
    pub(crate) recovery_checkpoints: Arc<Counter>,
    pub(crate) recovery_replayed: Arc<Counter>,
    pub(crate) recovery_restored_workers: Arc<Counter>,
    pub(crate) batches_admitted: Arc<Counter>,
    pub(crate) batches_coalesced: Arc<Counter>,
    pub(crate) batches_executed: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) queue_bytes: Arc<Gauge>,
    pub(crate) ledger_outstanding: Arc<Gauge>,
    pub(crate) gather_micros: Arc<Histogram>,
    pub(crate) batch_tuples: Arc<Histogram>,
}

impl DriverMetrics {
    pub(crate) fn register(t: &Telemetry) -> Self {
        DriverMetrics {
            requests_total: t.counter("driver.requests.total"),
            requests_run_block: t.counter("driver.requests.run_block"),
            requests_apply_many: t.counter("driver.requests.apply_many"),
            requests_fetch: t.counter("driver.requests.fetch"),
            requests_snapshot: t.counter("driver.requests.snapshot"),
            requests_barrier: t.counter("driver.requests.barrier"),
            requests_stats: t.counter("driver.requests.stats"),
            requests_checkpoint: t.counter("driver.requests.checkpoint"),
            requests_restore: t.counter("driver.requests.restore"),
            requests_set_capture: t.counter("driver.requests.set_capture"),
            requests_take_captured: t.counter("driver.requests.take_captured"),
            replies_total: t.counter("driver.replies.total"),
            // Registered at zero on every backend so the deterministic
            // snapshot keeps key parity: in a fault-free run all of
            // these stay zero everywhere, and under a fault plan their
            // values are a function of the plan, not of the transport.
            // (`worker.heartbeat_missed`, which *is* wall-clock-driven,
            // is registered by the TCP transport and excluded from the
            // deterministic slice by name.)
            worker_respawned: t.counter("worker.respawned"),
            worker_declared_dead: t.counter("worker.declared_dead"),
            recovery_attempts: t.counter("recovery.attempts"),
            recovery_checkpoints: t.counter("recovery.checkpoints"),
            recovery_replayed: t.counter("recovery.replayed_batches"),
            recovery_restored_workers: t.counter("recovery.restored_workers"),
            batches_admitted: t.counter("driver.batches.admitted"),
            batches_coalesced: t.counter("driver.batches.coalesced"),
            batches_executed: t.counter("driver.batches.executed"),
            queue_depth: t.gauge("driver.queue.depth"),
            queue_bytes: t.gauge("driver.queue.bytes"),
            ledger_outstanding: t.gauge("driver.ledger.outstanding"),
            gather_micros: t.histogram("driver.gather_micros"),
            batch_tuples: t.histogram("driver.batch_tuples"),
        }
    }

    pub(crate) fn count_request(&self, request: &Request) {
        self.requests_total.inc();
        match request {
            Request::RunBlock { .. } => self.requests_run_block.inc(),
            Request::ApplyMany { .. } => self.requests_apply_many.inc(),
            Request::Fetch { .. } => self.requests_fetch.inc(),
            Request::Snapshot { .. } => self.requests_snapshot.inc(),
            Request::Barrier { .. } => self.requests_barrier.inc(),
            Request::Stats { .. } => self.requests_stats.inc(),
            Request::Checkpoint { .. } => self.requests_checkpoint.inc(),
            Request::Restore { .. } => self.requests_restore.inc(),
            Request::SetCapture { .. } => self.requests_set_capture.inc(),
            Request::TakeCaptured { .. } => self.requests_take_captured.inc(),
            // Heartbeat Pings are a transport concern, injected below this
            // chokepoint; Shutdown travels through `Transport::shutdown`.
            Request::Ping { .. } | Request::Shutdown => {}
        }
    }
}

/// The deterministic cross-backend telemetry totals: every field is a
/// function of the admission sequence and the shared driver schedule
/// only — never of wall-clock time or of how bytes move — so for the
/// same update stream the threaded and TCP backends must produce
/// **bit-identical** values.  The workspace telemetry oracle asserts
/// exactly that (derived `Eq`).
///
/// Obtained from [`Driver::telemetry_totals`], which flushes the
/// pipeline and gathers every worker's counters over the protocol's
/// `Stats` message.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryTotals {
    /// Messages the driver sent to workers (all kinds except `Shutdown`),
    /// captured after the flush but *before* the `Stats` gather round that
    /// collects the worker counters.
    pub messages_sent: u64,
    /// Replies received from workers, captured at the same instant as
    /// `messages_sent`.
    pub replies_received: u64,
    /// Total worker interpreter work (weighted `EvalCounters` units).
    pub instructions: u64,
    /// Distributed blocks run across all workers (triggers fired).
    pub blocks_run: u64,
    /// `Compute` statements interpreted across all workers.
    pub statements: u64,
    /// Scattered tuples installed across all workers.
    pub tuples_applied: u64,
    /// Tuples touched by statement scans and slices across all workers.
    pub tuples_touched: u64,
    /// Per-worker counters and view-partition cardinalities, in worker
    /// order.
    pub per_worker: Vec<WorkerStatsSnapshot>,
}

impl<T: Transport> Driver<T> {
    /// The telemetry sink this driver records into.  For the TCP backend
    /// this is the transport's own registry (wire counters and scheduler
    /// counters share one namespace); the threaded backend owns a fresh
    /// one.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Gather every worker's counter snapshot over the protocol's `Stats`
    /// message, in worker order.  Worker spans ride the same reply; they
    /// are stitched into the driver's trace store (and stage histograms)
    /// on arrival.
    pub(crate) fn fetch_worker_stats(&mut self) -> Result<Vec<WorkerStatsSnapshot>, WorkerDead> {
        let telemetry = self.telemetry.clone();
        self.round(
            |id| Request::Stats { id },
            |reply| match reply {
                Reply::Stats {
                    snapshot, spans, ..
                } => {
                    telemetry.ingest_spans(spans);
                    Some(snapshot)
                }
                _ => None,
            },
        )
    }

    /// Flush the pipeline and return the deterministic cross-backend
    /// telemetry totals (see [`TelemetryTotals`]): driver-side message
    /// counts captured *before* the stats gather itself, plus every
    /// worker's counters collected over the protocol.
    pub fn telemetry_totals(&mut self) -> TelemetryTotals {
        self.try_telemetry_totals()
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Fallible [`Driver::telemetry_totals`]: recovers worker deaths per
    /// the [`FaultConfig`](crate::FaultConfig), surfacing [`WorkerDead`]
    /// when recovery is disabled or exhausted.
    pub fn try_telemetry_totals(&mut self) -> Result<TelemetryTotals, WorkerDead> {
        self.with_recovery(Self::telemetry_totals_inner)
    }

    fn telemetry_totals_inner(&mut self) -> Result<TelemetryTotals, WorkerDead> {
        self.flush_inner()?;
        // Capture the driver-side counters before the `Stats` round so
        // repeated calls still agree across backends: each call adds
        // exactly `workers` requests and `workers` replies.
        let messages_sent = self.metrics.requests_total.get();
        let replies_received = self.metrics.replies_total.get();
        let per_worker = self.fetch_worker_stats()?;
        let mut totals = TelemetryTotals {
            messages_sent,
            replies_received,
            per_worker,
            ..Default::default()
        };
        for snap in &totals.per_worker {
            totals.instructions += snap.stats.instructions;
            totals.blocks_run += snap.stats.blocks_run;
            totals.statements += snap.stats.statements;
            totals.tuples_applied += snap.stats.tuples_applied;
            totals.tuples_touched += snap.stats.tuples_touched;
        }
        Ok(totals)
    }

    /// Flush, gather worker counters, and return a [`MetricsSnapshot`] of
    /// the whole registry with the aggregated `worker.*` counters folded
    /// in as absolute values (idempotent across repeated calls — the
    /// worker counters are cumulative on the worker, not re-summed here).
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let totals = self.telemetry_totals();
        let mut snap = self.telemetry.snapshot();
        snap.set_counter("worker.instructions", totals.instructions);
        snap.set_counter("worker.blocks_run", totals.blocks_run);
        snap.set_counter("worker.statements", totals.statements);
        snap.set_counter("worker.tuples_applied", totals.tuples_applied);
        snap.set_counter("worker.tuples_touched", totals.tuples_touched);
        snap
    }

    /// Flush, drain every worker's finished spans over the `Stats` round,
    /// and return the complete span store: one stitched tree per executed
    /// batch (driver track 0, workers on tracks 1..=N).  Structure —
    /// `(trace, track, id, parent, name)` — is a deterministic function of
    /// the admission sequence and identical across transports; durations
    /// are wall-clock.
    pub fn trace_spans(&mut self) -> Vec<SpanRecord> {
        self.telemetry_totals();
        self.telemetry.trace_spans()
    }

    /// Critical-path attribution for the most recent batch's trace (see
    /// [`hotdog_telemetry::critical_path`]): walks the longest dependency
    /// chain through the stitched tree and attributes the root's
    /// wall-clock to stages.  `None` before the first executed batch.
    pub fn critical_path(&mut self) -> Option<CriticalPath> {
        let spans = self.trace_spans();
        let trace = self.telemetry.tracer().latest_trace();
        if trace == 0 {
            return None;
        }
        hotdog_telemetry::critical_path(&spans, trace)
    }
}
