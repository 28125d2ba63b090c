//! The execution-backend abstraction.
//!
//! Every backend runs compiled [`DistributedPlan`]s over the same
//! [`WorkerState`](crate::worker::WorkerState) machinery, through the one
//! transport-generic driver of `hotdog-runtime`: the simulated cluster
//! (workers run inline, modelled time), the epoch-synchronous
//! thread-per-worker and TCP runtimes, and their pipelined modes with
//! delta coalescing (measured time).  [`Backend`] is the surface they
//! share, so benches and differential tests are written once and run
//! against every backend.
//!
//! The trait is deliberately *streaming-shaped*: [`Backend::apply_batch`]
//! admits one delta batch (a pipelined backend may only enqueue it), and
//! [`Backend::flush`] is the barrier that forces every admitted batch to be
//! fully executed.  Reads ([`Backend::view_contents`],
//! [`Backend::query_result`]) take `&mut self` because a pipelined backend
//! must synchronize to its watermark before exposing view state.

use crate::program::DistributedPlan;
use hotdog_algebra::relation::Relation;
use hotdog_telemetry::{SpanContext, Telemetry};
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
    pub batches: usize,
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
/// coalescing, backpressure).  Defined here — not in the runtime crate —
/// so [`Backend::pipeline_stats`] can expose them backend-generically;
/// synchronous backends report `None`.
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

/// A distributed execution backend: admits delta batches against one
/// compiled [`DistributedPlan`] and serves consistent view reads.
pub trait Backend {
    /// Short human-readable backend name (for tables and JSON output).
    fn backend_name(&self) -> &'static str;

    /// The compiled distributed plan this backend runs.
    fn plan(&self) -> &DistributedPlan;

    /// Admit one batch of updates to `relation`.  Synchronous backends
    /// execute it to completion and return measured/modelled statistics; a
    /// pipelined backend may coalesce and defer it, returning admission-time
    /// statistics only.
    fn apply_batch(&mut self, relation: &str, batch: &Relation) -> BatchExecution;

    /// Force every admitted batch to be fully executed (no-op for
    /// synchronous backends).  After `flush`, reads observe the entire
    /// admitted stream.
    fn flush(&mut self);

    /// Full contents of a view, merged across all nodes holding a piece.
    /// Pipelined backends synchronize to a consistent batch boundary first.
    fn view_contents(&mut self, name: &str) -> Relation;

    /// Current contents of the top-level query view.
    fn query_result(&mut self) -> Relation {
        let top = self.plan().plan.top_view.clone();
        self.view_contents(&top)
    }

    /// Accumulated execution totals.
    fn totals(&self) -> &ClusterTotals;

    /// Pipelined-ingestion counters, for backends with an admission queue
    /// (`None` for synchronous backends).  Lets benches and tests report
    /// coalescing/backpressure behaviour without knowing the concrete
    /// backend type.
    fn pipeline_stats(&self) -> Option<PipelineStats>;

    /// This backend's telemetry handle (metrics, flight ring, span
    /// tracer).  Layers above the backend — e.g. the subscription hub's
    /// fan-out path — record their metrics and spans here so a batch's
    /// tree stays stitched across layers.
    fn telemetry(&self) -> Arc<Telemetry>;

    /// Context of the most recently executed batch's root span, the
    /// parent for post-execution stages (subscription fan-out push).
    fn trace_scope(&self) -> SpanContext;

    /// Stream-apply: admit a pre-batched update stream in order, then flush.
    fn apply_stream<S: AsRef<str>>(&mut self, batches: &[Vec<(S, Relation)>]) {
        for batch in batches {
            for (rel, delta) in batch {
                self.apply_batch(rel.as_ref(), delta);
            }
        }
        self.flush();
    }
}
