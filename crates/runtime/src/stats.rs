//! What the driver counts: lifetime [`ClusterTotals`] (per-batch
//! latencies among them), the cached metric handles every hot path updates
//! ([`DriverMetrics`]) and the [`PipelineStats`] read back from them, and
//! the snapshot / trace accessors built on the protocol's `Stats` round.

use crate::{Driver, Reply, Request, Transport, WorkerDead};
use hotdog_distributed::{WorkerStats, WorkerStatsSnapshot};
use hotdog_telemetry::{
    Counter, CriticalPath, Gauge, Histogram, MetricsSnapshot, SpanRecord, Telemetry,
};
use std::sync::Arc;

/// Accumulated totals over a cluster's lifetime.
#[derive(Clone, Debug, Default)]
pub struct ClusterTotals {
    /// Tuples admitted, each counted once: a recovery replay re-executes
    /// batches without counting them again.
    pub tuples: usize,
    /// Summed batch latencies on a synchronous driver; the admitted
    /// stream's wall-clock up to each flush on a pipelined one.
    pub latency_secs: f64,
    /// Bytes shuffled, counted like `tuples`.
    pub bytes_shuffled: usize,
    /// One latency per issued batch, counted like `tuples`: its length is
    /// the number of batches issued (`driver.batches.executed` counts the
    /// same batches).
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

    /// Median batch latency in seconds (nearest-rank; 0 before any batch).
    pub fn median_latency(&self) -> f64 {
        let mut v = self.latencies.clone();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    }
}

/// Counters of a pipelined ingestion path (admission queue, delta
/// coalescing, backpressure); [`Driver::pipeline_stats`] reports them, and
/// `None` for a synchronous driver.  Every field is read from the driver's
/// metric registry (each field's doc names the metric), so the struct is a
/// view of those counters, never a second count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Batches admitted via `apply_batch` (`driver.batches.admitted`).
    pub batches_admitted: usize,
    /// Admitted batches that were ring-summed into an already-queued delta
    /// instead of triggering on their own (`driver.batches.coalesced`).
    pub batches_coalesced: usize,
    /// Maintenance-program executions triggered, each counted at its first
    /// issue (`driver.batches.executed`): a recovery replay is counted only
    /// in `recovery.replayed_batches`.
    pub batches_executed: usize,
    /// Admitted-but-unissued batches abandoned by an explicit close/drop
    /// (never executed; `driver.batches.abandoned`).
    pub batches_abandoned: usize,
    /// Tuples admitted, pre-coalescing (`driver.tuples.admitted`).
    pub tuples_admitted: usize,
    /// Tuples in the executed deltas, after batch preprocessing and
    /// coalescing: tuples that collide once projected onto the columns the
    /// trigger reads are summed, and opposing deltas cancel, so both shrink
    /// this below `tuples_admitted`.  The coalescing bound counts the same
    /// tuples.  The sum of the `driver.batch_tuples` histogram.
    pub tuples_executed: usize,
    /// High-water mark of the admission queue depth in batches
    /// (`driver.queue.depth`).
    pub max_queue_depth: usize,
    /// High-water mark of the admission queue footprint in serialized
    /// bytes (`driver.queue.bytes`).
    pub max_queue_bytes: usize,
    /// Executions forced by the byte-bounded backpressure
    /// (`admit_bytes`), not by the count capacity
    /// (`driver.batches.forced_by_bytes`).
    pub executions_forced_by_bytes: usize,
    /// Gather/repartition fetches issued while distributed-block
    /// completions were still unconsumed (the worker may already have sent
    /// them): the fetch queues behind the in-flight blocks instead of
    /// draining the window first.  A function of the schedule alone
    /// (`driver.gathers.overlapped`).
    pub gathers_overlapped: usize,
    /// Multi-statement `ApplyMany` scatter messages shipped to workers
    /// (`driver.requests.apply_many`).
    pub scatter_messages_sent: usize,
    /// Per-statement scatter messages avoided by batching (sum over
    /// shipped messages of `statements - 1`): `driver.scatter.shards` less
    /// `driver.requests.apply_many`.
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
    pub(crate) recovery_micros: Arc<Histogram>,
    pub(crate) batches_admitted: Arc<Counter>,
    pub(crate) batches_coalesced: Arc<Counter>,
    pub(crate) batches_executed: Arc<Counter>,
    pub(crate) batches_abandoned: Arc<Counter>,
    pub(crate) batches_forced_by_bytes: Arc<Counter>,
    pub(crate) tuples_admitted: Arc<Counter>,
    pub(crate) gathers_overlapped: Arc<Counter>,
    pub(crate) scatter_shards: Arc<Counter>,
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
            recovery_micros: t.histogram("recovery.micros"),
            batches_admitted: t.counter("driver.batches.admitted"),
            batches_coalesced: t.counter("driver.batches.coalesced"),
            batches_executed: t.counter("driver.batches.executed"),
            batches_abandoned: t.counter("driver.batches.abandoned"),
            batches_forced_by_bytes: t.counter("driver.batches.forced_by_bytes"),
            tuples_admitted: t.counter("driver.tuples.admitted"),
            gathers_overlapped: t.counter("driver.gathers.overlapped"),
            scatter_shards: t.counter("driver.scatter.shards"),
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

    /// The [`PipelineStats`] view of these counters: plain loads, no lock
    /// and no worker round.
    pub(crate) fn pipeline_stats(&self) -> PipelineStats {
        let get = |c: &Counter| c.get() as usize;
        PipelineStats {
            batches_admitted: get(&self.batches_admitted),
            batches_coalesced: get(&self.batches_coalesced),
            batches_executed: get(&self.batches_executed),
            batches_abandoned: get(&self.batches_abandoned),
            tuples_admitted: get(&self.tuples_admitted),
            tuples_executed: self.batch_tuples.sum() as usize,
            max_queue_depth: self.queue_depth.high_water() as usize,
            max_queue_bytes: self.queue_bytes.high_water() as usize,
            executions_forced_by_bytes: get(&self.batches_forced_by_bytes),
            gathers_overlapped: get(&self.gathers_overlapped),
            scatter_messages_sent: get(&self.requests_apply_many),
            scatter_messages_saved: get(&self.scatter_shards) - get(&self.requests_apply_many),
        }
    }
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
                    snapshot,
                    spans,
                    spans_dropped,
                    ..
                } => {
                    telemetry.ingest_spans(spans, spans_dropped);
                    Some(snapshot)
                }
                _ => None,
            },
        )
    }

    /// Flush, then gather every worker's [`WorkerStatsSnapshot`] (its
    /// work counters and view-partition cardinalities) in worker order.
    /// Recovers worker deaths per the [`FaultConfig`](crate::FaultConfig);
    /// panics with the typed [`WorkerDead`] message when recovery is
    /// disabled or exhausted.
    pub fn worker_stats(&mut self) -> Vec<WorkerStatsSnapshot> {
        self.with_recovery(|d| {
            d.flush_inner()?;
            d.fetch_worker_stats()
        })
        .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Flush, gather worker counters, and return a [`MetricsSnapshot`] of
    /// the whole registry with the workers' counters summed in as absolute
    /// `worker.*` values (idempotent across repeated calls — the worker
    /// counters are cumulative on the worker, not re-summed here).
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let per_worker = self.worker_stats();
        let mut snap = self.telemetry.snapshot();
        let sum = |field: fn(&WorkerStats) -> u64| per_worker.iter().map(|w| field(&w.stats)).sum();
        snap.set_counter("worker.instructions", sum(|s| s.instructions));
        snap.set_counter("worker.blocks_run", sum(|s| s.blocks_run));
        snap.set_counter("worker.statements", sum(|s| s.statements));
        snap.set_counter("worker.tuples_applied", sum(|s| s.tuples_applied));
        snap.set_counter("worker.tuples_touched", sum(|s| s.tuples_touched));
        snap
    }

    /// Flush, drain every worker's finished spans over the `Stats` round,
    /// and return the complete span store: one stitched tree per executed
    /// batch (driver track 0, workers on tracks 1..=N).  Structure —
    /// `(trace, track, id, parent, name)` — is a deterministic function of
    /// the admission sequence and identical across transports; durations
    /// are wall-clock.
    pub fn trace_spans(&mut self) -> Vec<SpanRecord> {
        self.worker_stats();
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
