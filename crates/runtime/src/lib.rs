//! # hotdog-runtime
//!
//! The real execution backend for compiled [`DistributedPlan`]s: a
//! thread-per-worker runtime that actually runs the distributed maintenance
//! programs in parallel, in contrast to the single-threaded simulated
//! [`Cluster`](hotdog_distributed::Cluster) which executes the same
//! programs sequentially and *models* time.
//!
//! Architecture (mirroring the paper's driver/worker deployment):
//!
//! * every worker is one OS thread owning a [`WorkerState`] — its
//!   hash-partitioned shard of the distributed views plus per-batch
//!   exchange buffers — and a command channel;
//! * the driver (the caller's thread) owns the driver-resident views and
//!   runs each [`TriggerProgram`]: `Local` blocks execute on the driver,
//!   transformer statements move relations between driver and workers
//!   (scatter / repartition / gather), and every `Distributed` block is
//!   broadcast to all workers — the mpsc channels play the role of the
//!   cluster fabric;
//! * routing reuses the exact `PartitionFn` shard assignment of the
//!   simulator (via [`hotdog_distributed::partition_shards`]), and workers
//!   run statements through the same [`WorkerState`] interpreter, so both
//!   backends produce identical view contents — only the *time* differs:
//!   [`BatchExecution::latency_secs`] here is measured wall-clock, not a
//!   cost model.
//!
//! ## Execution modes
//!
//! [`ThreadedCluster::new`] builds the **epoch-synchronous** runtime: each
//! [`ThreadedCluster::apply_batch`] executes the batch to completion,
//! barriering after every distributed block, exactly one batch in the
//! system at a time.
//!
//! [`ThreadedCluster::pipelined`] builds the **pipelined** runtime for
//! sustained update streams (the workload of the paper's batch-size
//! sweeps).  Three mechanisms amortize per-batch overhead:
//!
//! 1. **Admission queue with delta coalescing** — `apply_batch` only
//!    *admits* a batch.  An admitted batch is ring-summed into the latest
//!    queued delta of the same base relation (up to
//!    [`PipelineConfig::coalesce_tuples`]; batched IVM triggers are exact
//!    for any delta, so same-relation deltas commute past other
//!    relations' batches), so a stream of tiny batches triggers the
//!    maintenance program far fewer times — the paper's batching thesis
//!    applied at the runtime layer.  Coalescing preserves the maintained
//!    state exactly in real arithmetic; it only re-associates float
//!    additions (disable it for bit-identical runs).  The bound is either
//!    a static threshold or chosen online by the self-tuning
//!    [`adaptive::CoalesceController`], which hill-climbs the paper's
//!    concave throughput-vs-batch-size curve (Fig. 7) from measured
//!    per-trigger overhead vs. marginal per-tuple cost.  Admission is
//!    additionally bounded by serialized bytes
//!    ([`PipelineConfig::admit_bytes`]) and by a staleness budget
//!    ([`PipelineConfig::latency_target`]) that forces overdue deltas
//!    through and stops coalescing into half-expired ones — the
//!    streaming latency/throughput tradeoff as a config knob.
//! 2. **Bounded in-flight window over a tagged-reply protocol** — when a
//!    queued batch is executed, the driver broadcasts each distributed
//!    block and moves on *without collecting the workers' completion
//!    replies*.  Every driver→worker instruction carries a **request id**
//!    which the worker echoes in its reply, and the driver keeps a
//!    per-worker completion ledger of pending ids, so replies are matched
//!    by *identity*, never by channel position: a `Gather`/`Repart` fetch
//!    waits only for its own request ids (absorbing block completions that
//!    happen to arrive first into the ledger) instead of draining the
//!    whole in-flight window, and the fetch instructions reach the worker
//!    queues before the driver blocks — workers flow straight from a
//!    batch's distributed blocks into its gather with no idle gap
//!    ([`PipelineStats::gathers_overlapped`] counts fetches issued while
//!    completions were still pending).  Up to
//!    [`PipelineConfig::inflight_blocks`] block completions per worker may
//!    be unsettled; the ledger settles them lazily — at the window bound,
//!    opportunistically whenever replies have already arrived, and at
//!    watermark commits.  Command channels remain FIFO, which is what
//!    keeps every worker's *statement* sequence identical to the
//!    synchronous schedule; only reply accounting is order-free.
//!    Scatters batch: all shards a worker receives between two of its
//!    commands ship as one multi-statement `ApplyMany` message per worker
//!    per batch instead of one message per statement
//!    ([`PipelineStats::scatter_messages_saved`] counts the reduction).
//! 3. **Watermark tracking** — the cluster counts admitted, issued and
//!    committed batches.  Reads ([`ThreadedCluster::view_contents`],
//!    [`ThreadedCluster::query_result`]) first commit the watermark
//!    (settle the request-id ledger and barrier trailing scatters), so
//!    they always
//!    observe a *consistent batch boundary*: every issued batch
//!    completely, no batch partially.  With coalescing disabled, the
//!    issued batches are exactly a prefix of the admitted stream; with
//!    coalescing enabled they form a prefix of a commuted schedule in
//!    which per-relation admission order is preserved but a same-relation
//!    delta may have been ring-summed past later-admitted batches of
//!    *other* relations (the flushed end state is identical either way).
//!    Queued-but-unissued batches become visible after
//!    [`ThreadedCluster::flush`], which drains the admission queue and
//!    finalizes stream timing.
//!
//! [`BatchExecution::latency_secs`]: hotdog_distributed::BatchExecution

#![forbid(unsafe_code)]

pub mod adaptive;

pub use adaptive::{AdaptiveConfig, CoalesceController};
pub use hotdog_distributed::PipelineStats;

use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_distributed::protocol::{
    handle_request, WorkerReply as Reply, WorkerRequest as Request,
};
use hotdog_distributed::{
    assemble_views, partition_shards, Backend, BatchExecution, CaptureBatch, CapturedView,
    ClusterTotals, DeltaCapture, DistStatement, DistStmtKind, DistributedPlan, LocTag, PartitionFn,
    StmtMode, Transform, TriggerProgram, WorkerSnapshot, WorkerState, WorkerStatsSnapshot,
};
use hotdog_exec::relabel;
use hotdog_ivm::StmtOp;
use hotdog_telemetry::{
    ActiveSpan, Counter, CriticalPath, Gauge, Histogram, MetricsSnapshot, SpanContext, SpanRecord,
    Telemetry,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How a [`Driver`] reaches its workers: an in-process `mpsc` channel pair
/// per worker thread ([`ChannelTransport`]), or a TCP stream per worker
/// subprocess (`hotdog-net`'s `TcpTransport`).
///
/// The transport only moves [`WorkerRequest`]/[`WorkerReply`] messages; all
/// scheduling — the admission queue, delta coalescing, the request-id
/// ledger, adaptive tuning, backpressure — lives in the transport-generic
/// [`Driver`], so every real backend shares one pipeline implementation
/// and can only differ in how bytes move.
///
/// Contract (what the driver's ledger accounting relies on):
///
/// * [`Transport::send`] preserves per-worker FIFO command order;
/// * [`Transport::recv`] blocks until one more reply from worker `w`
///   arrives, in arrival order; [`Transport::try_recv`] is its
///   non-blocking form;
/// * a dead worker is a **typed error**, never a panic and never a
///   silent stall: `send`/`recv`/`try_recv` surface [`WorkerDead`] and
///   the driver decides — recover it (when a [`FaultConfig`] is set and
///   the transport can [`Transport::respawn`]) or propagate it;
/// * [`Transport::shutdown`] is idempotent and must not hang on workers
///   that already exited.
///
/// [`WorkerRequest`]: hotdog_distributed::protocol::WorkerRequest
/// [`WorkerReply`]: hotdog_distributed::protocol::WorkerReply
pub trait Transport {
    /// Number of workers this transport reaches.
    fn workers(&self) -> usize;
    /// Enqueue one command to worker `w` (per-worker FIFO).
    fn send(&mut self, w: usize, request: Request) -> Result<(), WorkerDead>;
    /// Block for the next reply from worker `w`.
    fn recv(&mut self, w: usize) -> Result<Reply, WorkerDead>;
    /// The next reply from worker `w` if one has already arrived.
    fn try_recv(&mut self, w: usize) -> Result<Option<Reply>, WorkerDead>;
    /// Replace a dead worker `w` with a fresh, empty one (new process or
    /// thread, re-handshaken, plan re-shipped).  The default refuses:
    /// transports that cannot respawn report the worker as still dead,
    /// and the driver surfaces the typed error instead of recovering.
    fn respawn(&mut self, w: usize) -> Result<(), WorkerDead> {
        Err(WorkerDead {
            index: w,
            reason: "transport cannot respawn workers".to_string(),
        })
    }
    /// Stop all workers (idempotent).
    fn shutdown(&mut self);
    /// Backend names a [`Driver`] over this transport reports, by mode.
    fn names(&self) -> TransportNames;
    /// The transport's own [`Telemetry`] instance, if it keeps one (the
    /// TCP transport counts frames, bytes and codec time).  The driver
    /// *adopts* it, so wire-level and scheduler-level metrics land in one
    /// registry; `None` (the default) makes the driver create a fresh
    /// instance.
    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        None
    }
}

/// The [`Backend::backend_name`] strings of a transport, per execution
/// mode (epoch-synchronous / pipelined tagged / pipelined FIFO-compat).
#[derive(Clone, Copy, Debug)]
pub struct TransportNames {
    pub sync: &'static str,
    pub pipelined: &'static str,
    pub fifo: &'static str,
}

/// A worker failed: its connection closed, its heartbeat deadline
/// elapsed, or its channel endpoint hung up.  This is the typed form of
/// every worker-death path — transports return it instead of panicking,
/// and the driver either recovers (checkpoint restore + replay, see
/// [`FaultConfig`]) or propagates it through the `try_*` API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerDead {
    /// The worker slot that died.
    pub index: usize,
    /// Human-readable cause (I/O error, heartbeat timeout, hung-up
    /// channel, refused respawn).
    pub reason: String,
}

impl std::fmt::Display for WorkerDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} died: {}", self.index, self.reason)
    }
}

impl std::error::Error for WorkerDead {}

/// How the driver rebuilds a consistent cluster state after a worker
/// death (see [`FaultConfig::mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Each checkpoint ships every worker's full [`WorkerSnapshot`]
    /// (canonical view partitions, exchange buffers, work counters) to
    /// the driver over the bit-preserving codec; recovery sends each
    /// worker its own snapshot back in a `Restore`.  Exact, including
    /// cross-batch exchange-buffer state.
    Checkpoint,
    /// Each checkpoint keeps only the workers' counters (`ship: false`)
    /// and gathers every worker-resident view partition driver-side via
    /// `Snapshot` fetches; recovery re-scatters those partitions.
    /// Exchange buffers are *not* checkpointed (restored empty) — valid
    /// because every trigger program scatters into its buffers before
    /// reading them, which the differential fault sweep holds.
    Rescatter,
}

/// Worker fault tolerance for a [`Driver`]: periodic consistent
/// checkpoints plus a bounded replay log, so a worker death rolls the
/// cluster back to the last checkpoint cut and replays the logged
/// batches — bit-identically (checkpoint epochs canonicalize every
/// node's storage layout, so a restored pool and a surviving pool agree
/// on all scan-order-dependent float arithmetic).
///
/// Configure it with [`Driver::set_fault_config`] **before the first
/// batch**.  Runs with the same `FaultConfig` are bit-identical to each
/// other whether faults fire or not; a run with fault tolerance
/// *disabled* may differ in float ulps from an enabled run, because the
/// checkpoint epochs themselves re-canonicalize storage.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Take a checkpoint every this many issued batches.  `0` never
    /// checkpoints: recovery then restores every node to *empty* and
    /// replays the entire logged stream.
    pub checkpoint_every: u64,
    /// What a checkpoint stores and how restore uses it.
    pub mode: RecoveryMode,
    /// Give up — surface the [`WorkerDead`] — after this many recovery
    /// attempts over the driver's lifetime.
    pub max_recoveries: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            checkpoint_every: 8,
            mode: RecoveryMode::Checkpoint,
            max_recoveries: 8,
        }
    }
}

impl FaultConfig {
    /// Config checkpointing every `n` issued batches.
    pub fn every(n: u64) -> Self {
        FaultConfig {
            checkpoint_every: n,
            ..Default::default()
        }
    }

    /// Builder-style recovery mode.
    pub fn with_mode(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One consistent cut: everything needed to roll the whole cluster —
/// driver included — back to `issued` batches.
struct CheckpointState {
    /// Value of `Driver::issued` at the cut.
    issued: u64,
    /// Driver-resident state at the cut (canonical).
    driver: WorkerSnapshot,
    /// Per-worker state at the cut: full snapshots shipped by the
    /// workers ([`RecoveryMode::Checkpoint`]) or rebuilt driver-side
    /// from gathered view partitions ([`RecoveryMode::Rescatter`]).
    workers: Vec<WorkerSnapshot>,
}

fn worker_loop(mut state: WorkerState, rx: Receiver<Request>, tx: Sender<Reply>) {
    while let Ok(msg) = rx.recv() {
        if matches!(msg, Request::Shutdown) {
            break;
        }
        if let Some(reply) = handle_request(&mut state, msg) {
            let _ = tx.send(reply);
        }
    }
}

/// The in-process transport: one OS thread per worker, joined by a pair of
/// `mpsc` channels playing the role of the cluster fabric.
pub struct ChannelTransport {
    requests: Vec<Sender<Request>>,
    replies: Vec<Receiver<Reply>>,
    handles: Vec<JoinHandle<()>>,
}

impl ChannelTransport {
    /// Spawn `workers` worker threads, each owning an empty
    /// [`WorkerState`] for the plan.
    pub fn spawn(dplan: &DistributedPlan, workers: usize) -> Self {
        assert!(workers > 0);
        let mut requests = Vec::with_capacity(workers);
        let mut replies = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let mut state = WorkerState::for_plan(&dplan.plan);
            state.set_trace_track(i as u32 + 1);
            let (req_tx, req_rx) = channel();
            let (rep_tx, rep_rx) = channel();
            let handle = thread::Builder::new()
                .name(format!("hotdog-worker-{i}"))
                .spawn(move || worker_loop(state, req_rx, rep_tx))
                .expect("failed to spawn worker thread");
            requests.push(req_tx);
            replies.push(rep_rx);
            handles.push(handle);
        }
        ChannelTransport {
            requests,
            replies,
            handles,
        }
    }
}

impl ChannelTransport {
    fn dead(w: usize) -> WorkerDead {
        WorkerDead {
            index: w,
            reason: "worker thread hung up its channel".to_string(),
        }
    }
}

impl Transport for ChannelTransport {
    fn workers(&self) -> usize {
        self.requests.len()
    }

    fn send(&mut self, w: usize, request: Request) -> Result<(), WorkerDead> {
        self.requests[w].send(request).map_err(|_| Self::dead(w))
    }

    fn recv(&mut self, w: usize) -> Result<Reply, WorkerDead> {
        self.replies[w].recv().map_err(|_| Self::dead(w))
    }

    fn try_recv(&mut self, w: usize) -> Result<Option<Reply>, WorkerDead> {
        match self.replies[w].try_recv() {
            Ok(reply) => Ok(Some(reply)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Self::dead(w)),
        }
    }

    fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        for tx in &self.requests {
            let _ = tx.send(Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn names(&self) -> TransportNames {
        TransportNames {
            sync: "threaded",
            pipelined: "pipelined",
            fifo: "pipelined-fifo",
        }
    }
}

/// A distributed block with its statements shared once, so per-batch
/// broadcasts are an `Arc` bump instead of a deep clone.
struct SharedBlock {
    mode: StmtMode,
    statements: Arc<Vec<DistStatement>>,
    /// Whether any statement of this block references a delta relation.
    /// The distributed compiler rewrites delta references into scattered
    /// temps, so worker-bound blocks normally never read the batch — a
    /// block that doesn't is broadcast with an *empty* deltas map, which
    /// keeps byte-counting transports from shipping the batch N times for
    /// nothing.
    needs_delta: bool,
}

struct SharedProgram {
    relation_schema: hotdog_algebra::schema::Schema,
    blocks: Vec<SharedBlock>,
    stages: usize,
    jobs: usize,
}

fn share_program(p: &TriggerProgram) -> SharedProgram {
    SharedProgram {
        relation_schema: p.relation_schema.clone(),
        blocks: p
            .blocks
            .iter()
            .map(|b| SharedBlock {
                mode: b.mode,
                needs_delta: b.statements.iter().any(|s| match &s.kind {
                    DistStmtKind::Compute(e) => e.has_delta_relations(),
                    DistStmtKind::Transform { .. } => false,
                }),
                statements: Arc::new(b.statements.clone()),
            })
            .collect(),
        stages: p.stages(),
        jobs: p.jobs(),
    }
}

/// Configuration of the pipelined ingestion path
/// ([`ThreadedCluster::pipelined`]).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Ring-sum each admitted batch into the latest queued delta of the
    /// same relation until that delta would exceed this many tuples.  `0`
    /// disables coalescing (making pipelined execution bit-identical to
    /// the synchronous schedule; with coalescing the state is identical in
    /// real arithmetic but float additions associate differently).
    /// Ignored when [`PipelineConfig::adaptive`] is set: the controller
    /// then chooses the bound online.
    pub coalesce_tuples: usize,
    /// Maximum admitted-but-unissued batches held in the admission queue;
    /// admitting beyond it drives execution of the queue front.
    pub admit_capacity: usize,
    /// Byte-bounded backpressure: maximum serialized footprint of the
    /// admission queue (queued deltas, via the O(1)
    /// [`Relation::serialized_size`] accounting).  Admitting beyond it
    /// drives execution of the queue front until the footprint fits.
    /// `0` disables the bound.
    pub admit_bytes: usize,
    /// Latency-target mode: an upper bound on how stale a queued batch may
    /// get before it is forced through.  Enforced at every admission *and*
    /// at every read: whenever the oldest queued delta has been waiting
    /// longer than this, the queue front is executed (counted in
    /// [`PipelineStats::executions_forced_by_latency`]), and a queued
    /// delta older than *half* the target stops accepting coalesced
    /// merges — trading coalescing throughput for bounded watermark lag
    /// (a read never observes data staler than the target).  There is no
    /// background timer: on a stream that goes fully quiescent (no
    /// admissions, no reads), queued deltas wait until the next
    /// admission, read or [`ThreadedCluster::flush`].  `None` leaves
    /// staleness unbounded (pure-throughput mode).
    pub latency_target: Option<Duration>,
    /// Self-tuning coalescing: measure per-trigger overhead vs. marginal
    /// per-tuple cost online and hill-climb the coalescing bound over the
    /// paper's concave throughput curve (see [`adaptive`]).  Overrides
    /// [`PipelineConfig::coalesce_tuples`].
    pub adaptive: Option<AdaptiveConfig>,
    /// Maximum unsettled distributed-block completions per worker before
    /// the driver must wait for one to settle.
    pub inflight_blocks: usize,
    /// Fully asynchronous gathers (the tagged-reply schedule, default):
    /// `Gather`/`Repart` fetches are issued immediately and wait only for
    /// their own request ids; in-flight block completions settle into the
    /// ledger whenever they arrive.  `false` restores the positional-FIFO
    /// schedule — drain the entire in-flight window before any fetch — as
    /// an A/B comparison arm (the `async_gather` bench section measures
    /// tagged vs. FIFO).
    pub async_gather: bool,
    /// Ship scatters as one multi-statement `ApplyMany` message per worker
    /// per batch (default).  `false` ships one message per scatter
    /// statement, reproducing the positional protocol's channel traffic
    /// for A/B comparison.
    pub batch_scatters: bool,
    /// Chaos/test knob: deterministically shuffle the driver's reply inbox
    /// (seeded) on every arrival, forcing replies to be *consumed* out of
    /// order.  Correctness must not depend on reply order — the ledger
    /// matches by request id — so any seed must leave results and
    /// watermarks bit-identical.  `None` (default) keeps arrival order.
    pub shuffle_replies: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            coalesce_tuples: 4096,
            admit_capacity: 16,
            admit_bytes: 0,
            latency_target: None,
            adaptive: None,
            inflight_blocks: 4,
            async_gather: true,
            batch_scatters: true,
            shuffle_replies: None,
        }
    }
}

impl PipelineConfig {
    /// Config with a specific static coalescing threshold (in tuples).
    pub fn with_coalesce(coalesce_tuples: usize) -> Self {
        PipelineConfig {
            coalesce_tuples,
            ..Default::default()
        }
    }

    /// Config with the default self-tuning coalescing policy.
    pub fn adaptive() -> Self {
        PipelineConfig {
            adaptive: Some(AdaptiveConfig::default()),
            ..Default::default()
        }
    }

    /// Builder-style latency target (see
    /// [`PipelineConfig::latency_target`]).
    pub fn with_latency_target(mut self, target: Duration) -> Self {
        self.latency_target = Some(target);
        self
    }

    /// Builder-style byte bound on the admission queue (see
    /// [`PipelineConfig::admit_bytes`]).
    pub fn with_admit_bytes(mut self, admit_bytes: usize) -> Self {
        self.admit_bytes = admit_bytes;
        self
    }

    /// Positional-FIFO compatibility schedule: drain the full in-flight
    /// window before every gather/repart fetch and ship one scatter
    /// message per statement.  State is bit-identical to the tagged
    /// schedule (same trigger sequence, same per-worker command order);
    /// only reply accounting and channel traffic differ.  Used as the
    /// baseline arm of the `async_gather` benchmark comparison.
    pub fn fifo_compat() -> Self {
        PipelineConfig {
            async_gather: false,
            batch_scatters: false,
            ..Default::default()
        }
    }

    /// Builder-style reply-inbox shuffling (see
    /// [`PipelineConfig::shuffle_replies`]).
    pub fn with_shuffled_replies(mut self, seed: u64) -> Self {
        self.shuffle_replies = Some(seed);
        self
    }
}

/// Cached handles into the driver's metric registry, registered once at
/// construction so every hot-path update is a single relaxed atomic op.
///
/// The `driver.*` counters are deterministic functions of the admission
/// sequence and the (transport-generic) driver schedule: they must be
/// bit-identical across the threaded and TCP backends.  The gauges and
/// the latency-valued histograms are *not* part of that contract (see
/// [`MetricsSnapshot::deterministic`]).
struct DriverMetrics {
    requests_total: Arc<Counter>,
    requests_run_block: Arc<Counter>,
    requests_apply_many: Arc<Counter>,
    requests_fetch: Arc<Counter>,
    requests_snapshot: Arc<Counter>,
    requests_barrier: Arc<Counter>,
    requests_stats: Arc<Counter>,
    requests_ping: Arc<Counter>,
    requests_checkpoint: Arc<Counter>,
    requests_restore: Arc<Counter>,
    requests_set_capture: Arc<Counter>,
    requests_take_captured: Arc<Counter>,
    replies_total: Arc<Counter>,
    worker_respawned: Arc<Counter>,
    worker_declared_dead: Arc<Counter>,
    recovery_attempts: Arc<Counter>,
    recovery_checkpoints: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    recovery_restored_workers: Arc<Counter>,
    batches_admitted: Arc<Counter>,
    batches_coalesced: Arc<Counter>,
    batches_executed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_bytes: Arc<Gauge>,
    ledger_outstanding: Arc<Gauge>,
    gather_micros: Arc<Histogram>,
    batch_tuples: Arc<Histogram>,
}

impl DriverMetrics {
    fn register(t: &Telemetry) -> Self {
        DriverMetrics {
            requests_total: t.counter("driver.requests.total"),
            requests_run_block: t.counter("driver.requests.run_block"),
            requests_apply_many: t.counter("driver.requests.apply_many"),
            requests_fetch: t.counter("driver.requests.fetch"),
            requests_snapshot: t.counter("driver.requests.snapshot"),
            requests_barrier: t.counter("driver.requests.barrier"),
            requests_stats: t.counter("driver.requests.stats"),
            requests_ping: t.counter("driver.requests.ping"),
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

    fn count_request(&self, request: &Request) {
        self.requests_total.inc();
        match request {
            Request::RunBlock { .. } => self.requests_run_block.inc(),
            Request::ApplyMany { .. } => self.requests_apply_many.inc(),
            Request::Fetch { .. } => self.requests_fetch.inc(),
            Request::Snapshot { .. } => self.requests_snapshot.inc(),
            Request::Barrier { .. } => self.requests_barrier.inc(),
            Request::Stats { .. } => self.requests_stats.inc(),
            // The driver itself never sends Pings — heartbeats are a
            // transport concern, injected below this chokepoint — so the
            // counter deterministically stays zero; the arm exists for
            // protocol completeness.
            Request::Ping { .. } => self.requests_ping.inc(),
            Request::Checkpoint { .. } => self.requests_checkpoint.inc(),
            Request::Restore { .. } => self.requests_restore.inc(),
            Request::SetCapture { .. } => self.requests_set_capture.inc(),
            Request::TakeCaptured { .. } => self.requests_take_captured.inc(),
            // Shutdown travels through `Transport::shutdown`, never here.
            Request::Shutdown => {}
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
    /// Per-worker counters and view-partition cardinalities, in worker
    /// order.
    pub per_worker: Vec<WorkerStatsSnapshot>,
}

/// One admitted-but-unissued coalesced delta in the admission queue.
struct QueuedDelta {
    relation: String,
    delta: Relation,
    /// When the *oldest* event folded into this delta was admitted: the
    /// staleness clock the latency target is enforced against.
    admitted_at: Instant,
    /// This batch's root span, opened at admission so queue dwell time is
    /// inside the root window; coalesced admissions record their
    /// `coalesce` child under it, and execution closes it.
    root: ActiveSpan,
}

/// One driver + N workers executing a distributed plan for real, generic
/// over the [`Transport`] that reaches the workers.
///
/// [`ThreadedCluster`] (= `Driver<ChannelTransport>`) is the in-process
/// thread-per-worker backend; `hotdog-net`'s `TcpCluster` runs the *same*
/// driver over worker subprocesses joined by TCP sockets.  Everything
/// above the transport — trigger execution, the admission queue, delta
/// coalescing, the request-id ledger, scatter batching, adaptive tuning,
/// backpressure, watermarks — is shared, so the backends can only differ
/// in how bytes move.
///
/// Public surface matches the simulated
/// [`Cluster`](hotdog_distributed::Cluster) (`apply_batch`,
/// `view_contents`, `query_result`, `plan`, `totals`) so the backends
/// are drop-in interchangeable; [`BatchExecution`] fields that model time in
/// the simulator hold *measured* wall-clock values here.  See the crate
/// docs for the epoch-synchronous vs. pipelined execution modes.
pub struct Driver<T: Transport> {
    /// Number of workers.
    pub workers: usize,
    dplan: DistributedPlan,
    driver: WorkerState,
    programs: HashMap<String, SharedProgram>,
    transport: T,
    /// Monotonic request-id source (shared across workers: ids are globally
    /// unique, which makes ledger mismatches loud).
    next_request_id: u64,
    /// The completion ledger: per worker, the ids of `RunBlock` requests
    /// whose `Ran` replies have not yet settled.
    pending_blocks: Vec<HashSet<u64>>,
    /// Per worker: replies received but not yet consumed (the stash that
    /// makes reply *consumption* independent of arrival order).
    inbox: Vec<Vec<Reply>>,
    /// Per worker: scattered shards buffered on the driver, shipped as one
    /// `ApplyMany` before the worker's next command (or at batch end).
    pending_applies: Vec<Vec<(Arc<DistStatement>, Relation)>>,
    /// Seeded inbox shuffler ([`PipelineConfig::shuffle_replies`]).
    reply_shuffle: Option<StdRng>,
    /// Slowest worker's interpreter work settled during the current
    /// `execute_canonical` call (reported per batch in synchronous mode).
    batch_max_instructions: u64,
    /// Worker interpreter work settled since the adaptive controller last
    /// observed a trigger — the lazily collected cost signal folded into
    /// the hill climber (see [`adaptive`]).
    instructions_since_observe: u64,
    /// Shared empty deltas map broadcast with blocks that never read the
    /// batch (the usual case: the compiler rewrites delta references into
    /// scattered temps).
    empty_deltas: Arc<HashMap<String, Relation>>,
    /// Whether `ApplyMany` messages have been shipped with no barrier
    /// behind them yet (a trailing scatter must be drained before worker
    /// state is read, or before a synchronous batch's wall clock stops).
    applies_in_flight: bool,
    /// `Some` iff this cluster runs the pipelined ingestion path.
    pipeline: Option<PipelineConfig>,
    /// Self-tuning coalescing controller (`Some` iff
    /// [`PipelineConfig::adaptive`] is set).
    controller: Option<CoalesceController>,
    /// Admitted-but-unissued coalesced delta batches.
    queue: VecDeque<QueuedDelta>,
    /// Serialized footprint of `queue` (incrementally maintained; the
    /// byte-bounded backpressure reads it on every admission).
    queue_bytes: usize,
    /// Batches whose execution has been fully issued to driver and workers.
    issued: u64,
    /// Batches guaranteed visible to reads (issued + drained + barriered).
    watermark: u64,
    /// First admission since the last `flush` (stream wall-clock origin).
    stream_start: Option<Instant>,
    /// Worker fault tolerance (`None` disables it: a worker death then
    /// surfaces as a typed [`WorkerDead`] error / panic).
    fault: Option<FaultConfig>,
    /// The last consistent cut (absent until the first checkpoint; an
    /// absent checkpoint restores to *empty* and replays everything).
    ckpt: Option<CheckpointState>,
    /// Canonical-schema deltas issued since the last checkpoint, in
    /// issue order — what recovery replays.  Empty when `fault` is off.
    replay_log: Vec<(String, Relation)>,
    /// Recovery attempts so far (bounded by
    /// [`FaultConfig::max_recoveries`]).
    recoveries: usize,
    /// Views with delta capture enabled (see
    /// [`hotdog_distributed::capture`]); empty = capture off.
    capture_views: Vec<String>,
    /// `recoveries` as of the last capture drain: when they diverge, a
    /// recovery cycle replayed the stream since the subscriber's last
    /// delta, so the next drain must resynchronize from snapshots.
    capture_epoch: usize,
    /// Pipelined-ingestion counters (all zero in epoch-synchronous mode).
    pub stats: PipelineStats,
    /// Accumulated measured totals (same shape as the simulator's).
    pub totals: ClusterTotals,
    /// Shared metrics registry + flight recorder (adopted from the
    /// transport when it keeps one, so wire- and scheduler-level metrics
    /// land together).
    telemetry: Arc<Telemetry>,
    /// Cached metric handles for the driver hot paths.
    metrics: DriverMetrics,
    /// Context of the batch currently executing (during
    /// `execute_canonical`) or most recently executed: the parent for
    /// wire-propagated worker spans, gathers and watermark commits.
    trace_scope: SpanContext,
}

/// The in-process thread-per-worker backend: the transport-generic
/// [`Driver`] over [`ChannelTransport`].
pub type ThreadedCluster = Driver<ChannelTransport>;

impl ThreadedCluster {
    /// Spawn `workers` worker threads with empty view partitions, in
    /// epoch-synchronous mode (one batch in the system at a time).
    pub fn new(dplan: DistributedPlan, workers: usize) -> Self {
        let transport = ChannelTransport::spawn(&dplan, workers);
        Driver::with_transport(dplan, transport, None)
    }

    /// Spawn `workers` worker threads with empty view partitions, in
    /// pipelined mode: `apply_batch` admits into a coalescing queue and
    /// execution overlaps driver and worker work within the configured
    /// in-flight window.  Call [`ThreadedCluster::flush`] (or read a view)
    /// to force admitted batches through.
    pub fn pipelined(dplan: DistributedPlan, workers: usize, config: PipelineConfig) -> Self {
        let transport = ChannelTransport::spawn(&dplan, workers);
        Driver::with_transport(dplan, transport, Some(config))
    }
}

impl<T: Transport> Driver<T> {
    /// Build a driver over an already-connected transport (whose workers
    /// hold empty view partitions for `dplan`), in epoch-synchronous mode
    /// when `pipeline` is `None` and pipelined mode otherwise.  This is
    /// the constructor other transports (e.g. `hotdog-net`'s TCP backend)
    /// use; the thread-channel backend wraps it as
    /// [`ThreadedCluster::new`] / [`ThreadedCluster::pipelined`].
    pub fn with_transport(
        dplan: DistributedPlan,
        transport: T,
        pipeline: Option<PipelineConfig>,
    ) -> Self {
        let workers = transport.workers();
        assert!(workers > 0);
        let controller = pipeline
            .as_ref()
            .and_then(|c| c.adaptive.clone())
            .map(CoalesceController::new);
        let driver = WorkerState::for_plan(&dplan.plan);
        let programs = dplan
            .programs
            .iter()
            .map(|p| (p.relation.clone(), share_program(p)))
            .collect();
        let reply_shuffle = pipeline
            .as_ref()
            .and_then(|c| c.shuffle_replies)
            .map(StdRng::seed_from_u64);
        let telemetry = transport.telemetry().unwrap_or_else(Telemetry::shared);
        telemetry.install_signal_dump();
        let metrics = DriverMetrics::register(&telemetry);
        let mut cluster = Driver {
            workers,
            dplan,
            driver,
            programs,
            transport,
            next_request_id: 0,
            pending_blocks: vec![HashSet::new(); workers],
            inbox: (0..workers).map(|_| Vec::new()).collect(),
            pending_applies: (0..workers).map(|_| Vec::new()).collect(),
            reply_shuffle,
            batch_max_instructions: 0,
            instructions_since_observe: 0,
            empty_deltas: Arc::new(HashMap::new()),
            applies_in_flight: false,
            pipeline,
            controller,
            queue: VecDeque::new(),
            queue_bytes: 0,
            issued: 0,
            watermark: 0,
            stream_start: None,
            fault: None,
            ckpt: None,
            replay_log: Vec::new(),
            recoveries: 0,
            capture_views: Vec::new(),
            capture_epoch: 0,
            stats: PipelineStats::default(),
            totals: ClusterTotals::default(),
            telemetry,
            metrics,
            trace_scope: SpanContext::NONE,
        };
        cluster.stats.coalesce_bound = cluster.effective_coalesce_bound();
        cluster
    }

    /// The compiled distributed plan this cluster runs.
    pub fn plan(&self) -> &DistributedPlan {
        &self.dplan
    }

    /// Whether this cluster runs the pipelined ingestion path.
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Admitted-but-unissued batches currently held in the admission queue
    /// (post-coalescing).  The latency-target mode bounds how long any of
    /// them may wait.
    pub fn queued_batches(&self) -> usize {
        self.queue.len()
    }

    /// Serialized footprint of the admission queue in bytes (what the
    /// `admit_bytes` backpressure bound is enforced against).
    pub fn queued_bytes(&self) -> usize {
        self.queue_bytes
    }

    /// Size of the request-id ledger: block completions issued to workers
    /// but not yet settled, plus replies stashed unconsumed in the
    /// driver's inbox.  [`ThreadedCluster::flush`] (and every read) drains
    /// this to zero — a flushed cluster owes its workers nothing.
    pub fn outstanding_replies(&self) -> usize {
        self.pending_blocks.iter().map(|p| p.len()).sum::<usize>()
            + self.inbox.iter().map(|i| i.len()).sum::<usize>()
    }

    /// Number of batches guaranteed visible to reads: reads observe
    /// exactly this many *issued* batches (post-coalescing), a prefix of
    /// the admitted stream when coalescing is off and of its commuted
    /// schedule otherwise (see [`ThreadedCluster::view_contents`]).
    /// Advanced by reads and by `flush`.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Fresh request id (globally unique across workers).
    fn fresh_request_id(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    /// The single driver→worker send chokepoint: counts the message by
    /// kind, then hands it to the transport.
    fn send_to(&mut self, w: usize, request: Request) -> Result<(), WorkerDead> {
        self.metrics.count_request(&request);
        self.transport.send(w, request)
    }

    /// Stash one received reply in worker `w`'s inbox.  Under the
    /// [`PipelineConfig::shuffle_replies`] chaos knob the inbox is
    /// re-shuffled on every arrival, so consumers can never rely on
    /// position — only on request ids.
    fn stash_reply(&mut self, w: usize, reply: Reply) {
        self.metrics.replies_total.inc();
        self.inbox[w].push(reply);
        if let Some(rng) = self.reply_shuffle.as_mut() {
            let inbox = &mut self.inbox[w];
            for i in (1..inbox.len()).rev() {
                let j = rng.gen_range(0..=i);
                inbox.swap(i, j);
            }
        }
    }

    /// Move every already-arrived reply from worker `w`'s channel into its
    /// inbox without blocking.
    fn pump(&mut self, w: usize) -> Result<(), WorkerDead> {
        while let Some(reply) = self.transport.try_recv(w)? {
            self.stash_reply(w, reply);
        }
        Ok(())
    }

    /// Block for one more reply from worker `w` and stash it.
    fn recv_one(&mut self, w: usize) -> Result<(), WorkerDead> {
        let reply = self.transport.recv(w)?;
        self.stash_reply(w, reply);
        Ok(())
    }

    /// Settle every block completion currently in worker `w`'s inbox
    /// against the ledger, folding the reported interpreter work into the
    /// stats.  Replies awaited by someone else (`Rel`/`Ack`) stay stashed.
    fn settle_completions(&mut self, w: usize) {
        let mut i = 0;
        while i < self.inbox[w].len() {
            if matches!(self.inbox[w][i], Reply::Ran { .. }) {
                let Reply::Ran { id, instructions } = self.inbox[w].swap_remove(i) else {
                    unreachable!()
                };
                assert!(
                    self.pending_blocks[w].remove(&id),
                    "completion for request id {id} not in worker {w}'s ledger"
                );
                self.stats.max_worker_instructions =
                    self.stats.max_worker_instructions.max(instructions);
                self.stats.worker_instructions += instructions;
                self.instructions_since_observe += instructions;
                self.batch_max_instructions = self.batch_max_instructions.max(instructions);
            } else {
                i += 1;
            }
        }
    }

    /// Opportunistically settle whatever completions have already arrived
    /// from worker `w` (non-blocking).
    fn settle_ready(&mut self, w: usize) -> Result<(), WorkerDead> {
        self.pump(w)?;
        self.settle_completions(w);
        Ok(())
    }

    /// Block until at least one of worker `w`'s pending block ids settles.
    fn await_one_completion(&mut self, w: usize) -> Result<(), WorkerDead> {
        let before = self.pending_blocks[w].len();
        debug_assert!(before > 0, "no pending block to await");
        self.settle_ready(w)?;
        while self.pending_blocks[w].len() >= before {
            self.recv_one(w)?;
            self.settle_completions(w);
        }
        Ok(())
    }

    /// Settle every pending block completion (all workers) — the full
    /// ledger drain used by watermark commits and the FIFO-compat
    /// schedule.
    fn drain_pending_blocks(&mut self) -> Result<(), WorkerDead> {
        for w in 0..self.workers {
            while !self.pending_blocks[w].is_empty() {
                self.await_one_completion(w)?;
            }
        }
        Ok(())
    }

    /// Wait for the relation reply tagged `id` from worker `w`, settling
    /// any block completions that arrive (or were shuffled) ahead of it.
    fn await_rel(&mut self, w: usize, id: u64) -> Result<Relation, WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(pos) = self.inbox[w]
                .iter()
                .position(|r| matches!(r, Reply::Rel { id: rid, .. } if *rid == id))
            {
                let Reply::Rel { rel, .. } = self.inbox[w].swap_remove(pos) else {
                    unreachable!()
                };
                return Ok(rel);
            }
            self.recv_one(w)?;
        }
    }

    /// Wait for the barrier acknowledgement tagged `id` from worker `w`.
    fn await_ack(&mut self, w: usize, id: u64) -> Result<(), WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(pos) = self.inbox[w]
                .iter()
                .position(|r| matches!(r, Reply::Ack { id: rid } if *rid == id))
            {
                self.inbox[w].swap_remove(pos);
                return Ok(());
            }
            self.recv_one(w)?;
        }
    }

    /// Wait for the checkpoint snapshot tagged `id` from worker `w`.
    fn await_checkpoint(&mut self, w: usize, id: u64) -> Result<WorkerSnapshot, WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(pos) = self.inbox[w]
                .iter()
                .position(|r| matches!(r, Reply::Checkpoint { id: rid, .. } if *rid == id))
            {
                let Reply::Checkpoint { snapshot, .. } = self.inbox[w].swap_remove(pos) else {
                    unreachable!()
                };
                return Ok(*snapshot);
            }
            self.recv_one(w)?;
        }
    }

    /// Ship worker `w`'s buffered scatter shards as one `ApplyMany`
    /// message.  Must run before any other command is sent to `w`, so the
    /// worker installs the shards first (command channels are FIFO).
    fn ship_applies(&mut self, w: usize) -> Result<(), WorkerDead> {
        if self.pending_applies[w].is_empty() {
            return Ok(());
        }
        let applies = std::mem::take(&mut self.pending_applies[w]);
        self.stats.scatter_messages_sent += 1;
        self.stats.scatter_messages_saved += applies.len() - 1;
        self.telemetry.event(
            "batch.scattered",
            vec![
                ("worker", w.into()),
                ("shards", applies.len().into()),
                (
                    "tuples",
                    applies
                        .iter()
                        .map(|(_, shard)| shard.len() as u64)
                        .sum::<u64>()
                        .into(),
                ),
            ],
        );
        let id = self.fresh_request_id();
        let ctx = self.trace_scope;
        self.send_to(w, Request::ApplyMany { id, ctx, applies })?;
        self.applies_in_flight = true;
        Ok(())
    }

    /// Ship every worker's buffered scatter shards.
    fn ship_all_applies(&mut self) -> Result<(), WorkerDead> {
        for w in 0..self.workers {
            self.ship_applies(w)?;
        }
        Ok(())
    }

    /// Barrier every worker (drains trailing `ApplyMany`s), waiting on the
    /// tagged acknowledgements.
    fn barrier_applies(&mut self) -> Result<(), WorkerDead> {
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let id = self.fresh_request_id();
            self.send_to(w, Request::Barrier { id })?;
            ids.push(id);
        }
        for (w, id) in ids.into_iter().enumerate() {
            self.await_ack(w, id)?;
        }
        self.applies_in_flight = false;
        Ok(())
    }

    /// Commit the watermark: after this, every issued batch is fully
    /// applied on every node and safe to read.  Ships any buffered
    /// scatters, settles the whole request-id ledger and barriers trailing
    /// applies.
    fn commit_watermark(&mut self) -> Result<(), WorkerDead> {
        // No-op commits (watermark already current, nothing buffered) are
        // spanless, so read-heavy workloads do not flood the trace with
        // empty "watermark.commit" entries.
        if self.watermark == self.issued && !self.applies_in_flight {
            let trivial = (0..self.workers).all(|w| self.pending_applies[w].is_empty());
            if trivial {
                return Ok(());
            }
        }
        let span = self
            .telemetry
            .begin_span(self.trace_scope, "watermark.commit");
        let result: Result<(), WorkerDead> = (|| {
            self.ship_all_applies()?;
            self.drain_pending_blocks()?;
            if self.applies_in_flight {
                self.barrier_applies()?;
            }
            self.watermark = self.issued;
            Ok(())
        })();
        self.telemetry.finish_span(span);
        result
    }

    /// The coalescing bound currently in force: the adaptive controller's
    /// latest choice, or the static `coalesce_tuples` threshold.
    fn effective_coalesce_bound(&self) -> usize {
        match (&self.controller, &self.pipeline) {
            (Some(ctl), _) => ctl.bound(),
            (None, Some(cfg)) => cfg.coalesce_tuples,
            (None, None) => 0,
        }
    }

    /// Execute every queued delta that has outlived the latency target
    /// (no-op without one).  Runs at every admission and before every
    /// read, so neither the queue nor a reader can outwait the staleness
    /// budget — but there is no background timer, so a fully quiescent
    /// stream holds its queue until the next admission, read or flush.
    fn enforce_latency_target(&mut self) -> Result<(), WorkerDead> {
        let Some(target) = self.pipeline.as_ref().and_then(|c| c.latency_target) else {
            return Ok(());
        };
        // `>=` so a zero budget forces unconditionally, independent of
        // clock resolution (a coarse monotonic clock can report elapsed()
        // == 0 across two admissions).
        while self
            .queue
            .front()
            .is_some_and(|q| q.admitted_at.elapsed() >= target)
        {
            self.telemetry.event(
                "backpressure.latency",
                vec![
                    ("queue_depth", self.queue.len().into()),
                    (
                        "target_micros",
                        (target.as_micros().min(u64::MAX as u128) as u64).into(),
                    ),
                ],
            );
            self.execute_queue_front()?;
            self.stats.executions_forced_by_latency += 1;
        }
        Ok(())
    }

    /// Pop and execute the queue front, feeding the measured trigger back
    /// to the adaptive controller.  A worker death mid-execution leaves
    /// the entry popped: it was logged before any message was issued, so
    /// recovery replays it to completion rather than re-queueing it.
    fn execute_queue_front(&mut self) -> Result<(), WorkerDead> {
        let Some(entry) = self.queue.pop_front() else {
            return Ok(());
        };
        self.queue_bytes -= entry.delta.serialized_size();
        let stats = self.execute_canonical(&entry.relation, entry.delta, true, Some(entry.root))?;
        if let Some(ctl) = self.controller.as_mut() {
            // Fold the worker interpreter work settled since the last
            // observation into the cost signal.  Completions settle
            // lazily, so this attributes a previous trigger's worker cost
            // to the current one — a bounded lag the probe-window
            // averaging absorbs (the window sums both terms).
            let old_bound = ctl.bound();
            let settled = std::mem::take(&mut self.instructions_since_observe);
            ctl.observe_with_work(stats.input_tuples, stats.wall_secs, settled);
            self.stats.coalesce_bound = ctl.bound();
            self.stats.bound_reversals = ctl.reversals;
            self.stats.bound_adjustments = ctl.adjustments;
            if ctl.bound() != old_bound {
                self.telemetry.event(
                    "controller.step",
                    vec![
                        ("old_bound", old_bound.into()),
                        ("new_bound", ctl.bound().into()),
                        ("tuples", stats.input_tuples.into()),
                        ("wall_secs", stats.wall_secs.into()),
                        ("settled_instructions", settled.into()),
                    ],
                );
            }
        }
        Ok(())
    }

    /// Execute every queued batch, commit the watermark and fold the stream
    /// wall-clock into the totals.  After `flush`, reads observe the entire
    /// admitted stream.  No-op in epoch-synchronous mode.
    ///
    /// Recovers worker deaths per the [`FaultConfig`]; panics with the
    /// typed [`WorkerDead`] message when recovery is disabled or
    /// exhausted (use [`Driver::try_flush`] for the fallible form).
    pub fn flush(&mut self) {
        self.try_flush()
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"));
    }

    /// Fallible [`Driver::flush`]: surfaces an unrecovered worker death
    /// instead of panicking.
    pub fn try_flush(&mut self) -> Result<(), WorkerDead> {
        loop {
            match self.flush_inner() {
                Ok(()) => return Ok(()),
                Err(dead) => self.recover(dead)?,
            }
        }
    }

    fn flush_inner(&mut self) -> Result<(), WorkerDead> {
        while !self.queue.is_empty() {
            self.execute_queue_front()?;
        }
        self.commit_watermark()?;
        if let Some(start) = self.stream_start.take() {
            // Pipelined latency accounting is stream-scoped: the admitted
            // stream's wall-clock (first admission to flush), not a sum of
            // per-batch latencies.
            self.totals.latency_secs += start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Whether gathers run fully asynchronously (the default tagged
    /// schedule) or drain the in-flight window first (FIFO compat).
    fn async_gather(&self) -> bool {
        self.pipeline.as_ref().is_none_or(|c| c.async_gather)
    }

    /// Whether scatters buffer into per-worker `ApplyMany` batches.
    fn batch_scatters(&self) -> bool {
        self.pipeline.as_ref().is_none_or(|c| c.batch_scatters)
    }

    /// Fetch one relation from every worker, in worker order (the merge
    /// order must match the simulator's sequential 0..N loop so float
    /// accumulation is identical).
    ///
    /// Tagged schedule: the fetch requests are issued to *every* worker
    /// immediately and each reply is awaited by its request id; pending
    /// block completions settle into the ledger as their replies arrive
    /// instead of being drained up front, so workers flow from their
    /// in-flight blocks straight into the fetch with the request already
    /// queued.  FIFO-compat schedule (`async_gather = false`): drain the
    /// entire window first, as the positional protocol had to.
    fn fetch_all(&mut self, make: impl Fn(u64) -> Request) -> Result<Vec<Relation>, WorkerDead> {
        let outstanding: usize = self.pending_blocks.iter().map(|p| p.len()).sum();
        if !self.async_gather() {
            self.drain_pending_blocks()?;
        } else if outstanding > 0 {
            self.stats.gathers_overlapped += 1;
        }
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.fresh_request_id();
            self.send_to(w, make(id))?;
            ids.push(id);
        }
        let gather_start = Instant::now();
        let mut rels = Vec::with_capacity(self.workers);
        for (w, id) in ids.into_iter().enumerate() {
            rels.push(self.await_rel(w, id)?);
        }
        let micros = gather_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics.gather_micros.record(micros);
        self.telemetry.event(
            "batch.gathered",
            vec![
                ("workers", self.workers.into()),
                ("overlapped", outstanding.into()),
                ("micros", micros.into()),
            ],
        );
        Ok(rels)
    }

    /// Full contents of a view, merged across all nodes holding a piece.
    /// In pipelined mode this commits the watermark first, so the read
    /// observes a consistent batch boundary: every issued batch completely,
    /// no batch partially.  With coalescing disabled the issued batches are
    /// exactly a prefix of the admitted stream; with coalescing enabled
    /// they are a prefix of a *commuted* schedule (same-relation deltas may
    /// have been ring-summed past later-admitted batches of other
    /// relations, preserving per-relation admission order — see the crate
    /// docs).  Admitted-but-queued batches require a
    /// [`ThreadedCluster::flush`] to become visible.
    pub fn view_contents(&mut self, name: &str) -> Relation {
        self.try_view_contents(name)
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Fallible [`ThreadedCluster::view_contents`]: recovers worker
    /// deaths per the [`FaultConfig`] (reads are idempotent, so the read
    /// is simply retried after recovery) and surfaces the typed error
    /// when recovery is disabled or exhausted.
    pub fn try_view_contents(&mut self, name: &str) -> Result<Relation, WorkerDead> {
        loop {
            match self.view_contents_inner(name) {
                Ok(rel) => return Ok(rel),
                Err(dead) => self.recover(dead)?,
            }
        }
    }

    fn view_contents_inner(&mut self, name: &str) -> Result<Relation, WorkerDead> {
        self.telemetry.poll_dump();
        // Under a latency target, overdue queued deltas are forced through
        // first: a read never observes data staler than the target.
        self.enforce_latency_target()?;
        self.commit_watermark()?;
        let schema = self.dplan.schema_of(name).unwrap_or_default();
        let mut out = Relation::new(schema);
        match self.dplan.location(name) {
            LocTag::Local => out.merge(&self.driver.snapshot(name)),
            LocTag::Replicated => {
                // Every worker holds an identical copy; read one.
                if self.workers > 0 {
                    let id = self.fresh_request_id();
                    self.send_to(
                        0,
                        Request::Snapshot {
                            id,
                            view: name.to_string(),
                        },
                    )?;
                    let r = self.await_rel(0, id)?;
                    out.merge(&r);
                }
            }
            _ => {
                for part in self.fetch_all(|id| Request::Snapshot {
                    id,
                    view: name.to_string(),
                })? {
                    out.merge(&part);
                }
            }
        }
        Ok(out)
    }

    /// Current contents of the top-level query view (watermark-consistent
    /// in pipelined mode, see [`ThreadedCluster::view_contents`]).
    pub fn query_result(&mut self) -> Relation {
        self.view_contents(&self.dplan.plan.top_view.clone())
    }

    /// Fallible [`ThreadedCluster::query_result`].
    pub fn try_query_result(&mut self) -> Result<Relation, WorkerDead> {
        self.try_view_contents(&self.dplan.plan.top_view.clone())
    }

    /// Process one batch of updates to `relation`.
    ///
    /// Epoch-synchronous mode: executes the batch to completion and returns
    /// **measured** execution statistics.  Pipelined mode: *admits* the
    /// batch (possibly ring-summing it into an already-queued delta) and
    /// returns admission statistics; execution overlaps subsequent
    /// admissions and is forced by [`ThreadedCluster::flush`] or any view
    /// read.
    pub fn apply_batch(&mut self, relation: &str, batch: &Relation) -> BatchExecution {
        self.try_apply_batch(relation, batch)
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Fallible [`ThreadedCluster::apply_batch`]: recovers worker deaths
    /// per the [`FaultConfig`] and surfaces the typed [`WorkerDead`]
    /// when recovery is disabled or exhausted.  An interrupted batch is
    /// logged *before* any message is issued, so a successful recovery
    /// replays it to completion — the returned stats for a recovered
    /// batch carry only its input size, not measured execution numbers.
    pub fn try_apply_batch(
        &mut self,
        relation: &str,
        batch: &Relation,
    ) -> Result<BatchExecution, WorkerDead> {
        match self.pipeline {
            None => match self.execute_program(relation, batch) {
                Ok(stats) => Ok(stats),
                Err(dead) => {
                    self.recover(dead)?;
                    Ok(BatchExecution {
                        input_tuples: batch.len(),
                        ..Default::default()
                    })
                }
            },
            Some(_) => {
                let stats = self.admit(relation, batch);
                loop {
                    match self.drain_admission_bounds() {
                        Ok(()) => return Ok(stats),
                        Err(dead) => self.recover(dead)?,
                    }
                }
            }
        }
    }

    /// Pipelined admission: coalesce into the queue tail or enqueue.
    /// Driver-only (infallible); [`Driver::drain_admission_bounds`] then
    /// drives execution while the queue exceeds the admission capacity,
    /// the byte bound, or the latency target's staleness budget —
    /// keeping the fallible worker traffic out of the enqueue step so an
    /// admission is never double-counted across a recovery retry.
    ///
    /// Queued deltas are kept in the trigger's canonical schema (`relabel`
    /// is positional, so canonicalizing is one `add` per tuple), which
    /// makes coalescing a plain ring-sum into the tail and lets execution
    /// move the delta straight into the trigger with no further copy — the
    /// admission path costs the same tuple copies as the synchronous path.
    fn admit(&mut self, relation: &str, batch: &Relation) -> BatchExecution {
        let config = self.pipeline.clone().expect("admit requires pipeline mode");
        self.stream_start.get_or_insert_with(Instant::now);
        self.telemetry.poll_dump();
        self.stats.batches_admitted += 1;
        self.stats.tuples_admitted += batch.len();
        self.metrics.batches_admitted.inc();
        self.telemetry.event(
            "batch.admitted",
            vec![
                ("relation", relation.into()),
                ("tuples", batch.len().into()),
                ("queue_depth", self.queue.len().into()),
            ],
        );
        let stats = BatchExecution {
            input_tuples: batch.len(),
            ..Default::default()
        };
        // Batches to relations the plan has no trigger for are no-ops; do
        // not let them split a coalescing run.  (The bounds drain still
        // runs after a no-op admission, so already-queued deltas cannot
        // outlive the latency budget.)
        let Some(program) = self.programs.get(relation) else {
            return stats;
        };
        let canonical_schema = program.relation_schema.clone();
        self.totals.tuples += batch.len();

        // Merge into the *latest* queued delta of the same relation (not
        // just the queue tail).  Batched IVM triggers are exact for any
        // delta against any current state, so same-relation deltas commute
        // past other relations' batches: the flushed state is identical in
        // real arithmetic, and interleaved streams (where consecutive
        // same-relation batches are rare) still coalesce well.  Per-relation
        // admission order is preserved.
        let coalesce_bound = self.effective_coalesce_bound();
        self.stats.coalesce_bound = coalesce_bound;
        // Under a latency target, a queued delta that has already burned
        // half its staleness budget stops growing: coalescing into it would
        // keep resetting the work it carries while its oldest event ages.
        let stale_cutoff = config.latency_target.map(|t| t / 2);
        let coalesced = match self.queue.iter_mut().rev().find(|q| q.relation == relation) {
            Some(q)
                if coalesce_bound > 0
                    && q.delta.len() + batch.len() <= coalesce_bound
                    // Strict `<` so a zero budget vetoes coalescing
                    // unconditionally, independent of clock resolution.
                    && stale_cutoff.is_none_or(|cut| q.admitted_at.elapsed() < cut) =>
            {
                // The merged-into delta's root is still open (it closes at
                // execution), so the coalesce lands inside its window.
                let span = self.telemetry.begin_span(q.root.context(), "coalesce");
                let before = q.delta.serialized_size();
                q.delta.merge(batch);
                self.queue_bytes = self.queue_bytes - before + q.delta.serialized_size();
                self.telemetry.finish_span(span);
                true
            }
            _ => false,
        };
        if coalesced {
            self.stats.batches_coalesced += 1;
            self.metrics.batches_coalesced.inc();
            self.telemetry.event(
                "batch.coalesced",
                vec![
                    ("relation", relation.into()),
                    ("tuples", batch.len().into()),
                    ("bound", coalesce_bound.into()),
                ],
            );
        } else {
            // Same canonicalization as the synchronous path, so a
            // non-coalesced pipelined run is bit-identical to it.  The
            // batch root opens here, not at execution, so queue dwell time
            // is part of the batch's wall-clock window.
            let root = self.telemetry.begin_batch_root();
            let admit_span = self.telemetry.begin_span(root.context(), "admit");
            let canonical = relabel(batch, &canonical_schema);
            self.telemetry.finish_span(admit_span);
            self.queue_bytes += canonical.serialized_size();
            self.queue.push_back(QueuedDelta {
                relation: relation.to_string(),
                delta: canonical,
                admitted_at: Instant::now(),
                root,
            });
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.queue_bytes);
        self.metrics.queue_depth.set(self.queue.len() as u64);
        self.metrics.queue_bytes.set(self.queue_bytes as u64);
        stats
    }

    /// Enforce the admission bounds after an [`Driver::admit`]: byte
    /// budget, latency target and count capacity, oldest first.  This is
    /// the fallible half of pipelined admission (it issues worker
    /// traffic); retrying it after a recovery is safe because every bound
    /// is re-checked from current queue state.
    ///
    /// The staleness budget is enforced *after* enqueue (the synchronous
    /// order was before); equivalent because the coalescing guard already
    /// vetoes merging into any delta past half its budget, so an overdue
    /// delta can only have been enqueued — and FIFO execution order is
    /// unchanged.
    fn drain_admission_bounds(&mut self) -> Result<(), WorkerDead> {
        let Some(config) = self.pipeline.clone() else {
            return Ok(());
        };
        // Backpressure, oldest first.  Byte bound: shed queued work until
        // the footprint fits (a single oversized delta executes
        // immediately, emptying the queue).
        while config.admit_bytes > 0 && self.queue_bytes > config.admit_bytes {
            self.telemetry.event(
                "backpressure.bytes",
                vec![
                    ("queue_bytes", self.queue_bytes.into()),
                    ("bound", config.admit_bytes.into()),
                ],
            );
            self.execute_queue_front()?;
            self.stats.executions_forced_by_bytes += 1;
        }
        // Latency target: any delta older than the staleness budget is
        // overdue — force it (and anything queued ahead of it already ran).
        self.enforce_latency_target()?;
        // Count capacity, as before.
        while self.queue.len() > config.admit_capacity {
            self.execute_queue_front()?;
        }
        self.metrics.queue_depth.set(self.queue.len() as u64);
        self.metrics.queue_bytes.set(self.queue_bytes as u64);
        Ok(())
    }

    /// Epoch-synchronous execution of one maintenance program over a batch
    /// (canonicalizes the batch's schema, then delegates).
    fn execute_program(
        &mut self,
        relation: &str,
        batch: &Relation,
    ) -> Result<BatchExecution, WorkerDead> {
        let Some(program) = self.programs.get(relation) else {
            return Ok(BatchExecution {
                input_tuples: batch.len(),
                ..Default::default()
            });
        };
        let root = self.telemetry.begin_batch_root();
        let admit_span = self.telemetry.begin_span(root.context(), "admit");
        let canonical = relabel(batch, &program.relation_schema);
        self.telemetry.finish_span(admit_span);
        self.execute_canonical(relation, canonical, false, Some(root))
    }

    /// Run one maintenance program over an owned, canonical-schema delta.
    ///
    /// `pipelined = false` is the epoch-synchronous schedule: every
    /// distributed block is barriered before the next starts and trailing
    /// scatters are drained, so the returned stats carry the batch's full
    /// measured wall-clock latency.  `pipelined = true` issues distributed
    /// blocks without collecting their completions (up to the in-flight
    /// window) and leaves trailing scatters un-barriered; completion is
    /// deferred to the next fetch, watermark commit or window bound.
    fn execute_canonical(
        &mut self,
        relation: &str,
        delta: Relation,
        pipelined: bool,
        root: Option<ActiveSpan>,
    ) -> Result<BatchExecution, WorkerDead> {
        let wall_start = Instant::now();
        let mut stats = BatchExecution {
            input_tuples: delta.len(),
            ..Default::default()
        };
        if !self.programs.contains_key(relation) {
            self.telemetry.finish_span(root);
            return Ok(stats);
        }
        // Replayed batches (recovery) arrive rootless: open a fresh root so
        // the replay gets its own tree rather than grafting onto the
        // interrupted one.
        let root = root.unwrap_or_else(|| self.telemetry.begin_batch_root());
        self.trace_scope = root.context();
        // Log *before* issuing any message: if a worker dies mid-batch,
        // recovery restores the last checkpoint and replays this delta to
        // completion (the log is in canonical schema, so replay re-enters
        // here directly).
        if self.fault.is_some() {
            self.replay_log.push((relation.to_string(), delta.clone()));
        }
        self.metrics.batches_executed.inc();
        self.metrics.batch_tuples.record(stats.input_tuples as u64);
        self.batch_max_instructions = 0;
        let inflight_blocks = self
            .pipeline
            .as_ref()
            .map(|c| c.inflight_blocks)
            .unwrap_or(0);

        let mut deltas = HashMap::new();
        deltas.insert(relation.to_string(), delta);
        let deltas = Arc::new(deltas);
        let delta_name = format!("Δ{relation}");

        let mut driver_counters = EvalCounters::default();
        for block_idx in 0..self.programs[relation].blocks.len() {
            let (mode, statements, needs_delta) = {
                let b = &self.programs[relation].blocks[block_idx];
                (b.mode, b.statements.clone(), b.needs_delta)
            };
            // Blocks that never read the batch (the usual case after the
            // compiler rewrote delta references into scattered temps) are
            // broadcast with a shared empty map, so byte-counting
            // transports don't ship the delta once per worker for nothing.
            let block_deltas = if needs_delta {
                deltas.clone()
            } else {
                self.empty_deltas.clone()
            };
            match mode {
                StmtMode::Local => {
                    for stmt in statements.iter() {
                        match &stmt.kind {
                            DistStmtKind::Compute(_) => {
                                self.driver.run_compute(stmt, &deltas, &mut driver_counters);
                            }
                            DistStmtKind::Transform { kind, source } => {
                                let bytes =
                                    self.run_transform(stmt, kind, source, &delta_name, &deltas)?;
                                stats.bytes_shuffled += bytes;
                            }
                        }
                    }
                }
                StmtMode::Distributed => {
                    if pipelined {
                        // Opportunistically settle completions that have
                        // already arrived, then enforce the in-flight
                        // window — blocking only when a worker's ledger is
                        // genuinely full.
                        for w in 0..self.workers {
                            self.settle_ready(w)?;
                            while self.pending_blocks[w].len() >= inflight_blocks.max(1) {
                                self.await_one_completion(w)?;
                            }
                        }
                        for w in 0..self.workers {
                            self.ship_applies(w)?;
                            let id = self.fresh_request_id();
                            self.send_to(
                                w,
                                Request::RunBlock {
                                    id,
                                    ctx: self.trace_scope,
                                    statements: statements.clone(),
                                    deltas: block_deltas.clone(),
                                },
                            )?;
                            self.pending_blocks[w].insert(id);
                        }
                    } else {
                        // One epoch: broadcast the block, barrier on the
                        // tagged completions.
                        for w in 0..self.workers {
                            self.ship_applies(w)?;
                            let id = self.fresh_request_id();
                            self.send_to(
                                w,
                                Request::RunBlock {
                                    id,
                                    ctx: self.trace_scope,
                                    statements: statements.clone(),
                                    deltas: block_deltas.clone(),
                                },
                            )?;
                            self.pending_blocks[w].insert(id);
                        }
                        self.drain_pending_blocks()?;
                        stats.max_worker_instructions = stats
                            .max_worker_instructions
                            .max(self.batch_max_instructions);
                        // The block barrier also drained any earlier applies.
                        self.applies_in_flight = false;
                    }
                }
            }
        }

        // A program ending in scatter/repart leaves shards buffered: ship
        // them now as the batch's trailing `ApplyMany` per worker.  The
        // synchronous schedule additionally barriers so the measured
        // latency covers shard installation; the pipelined schedule leaves
        // them in flight (command FIFO protects the next batch) and the
        // watermark commit drains them before any read.
        self.ship_all_applies()?;
        if !pipelined && self.applies_in_flight {
            self.barrier_applies()?;
        }

        let program = &self.programs[relation];
        stats.driver_instructions = driver_counters.instructions();
        stats.stages = program.stages;
        stats.jobs = program.jobs;
        stats.bytes_per_worker = stats.bytes_shuffled as f64 / self.workers as f64;
        // Measured, not modelled.  Synchronous mode: the batch's end-to-end
        // wall-clock.  Pipelined mode: the driver-side issue time only (the
        // stream's end-to-end wall-clock is folded into the totals at
        // `flush`).
        stats.wall_secs = wall_start.elapsed().as_secs_f64();
        stats.latency_secs = stats.wall_secs;
        // The root closes here even in pipelined mode (where trailing
        // applies are still in flight): the window is the driver's issue
        // span, and post-close stages (watermark commit, fan-out) record
        // under `trace_scope` as clipped children.
        self.telemetry.finish_span(Some(root));

        self.issued += 1;
        self.metrics
            .ledger_outstanding
            .set(self.pending_blocks.iter().map(|p| p.len() as u64).sum());
        self.telemetry.event(
            "batch.executed",
            vec![
                ("relation", relation.into()),
                ("tuples", stats.input_tuples.into()),
                ("pipelined", u64::from(pipelined).into()),
                ("wall_secs", stats.wall_secs.into()),
            ],
        );
        if pipelined {
            // Stream tuples were counted at admission; stream wall-clock is
            // folded in at `flush`.
            self.stats.batches_executed += 1;
            self.stats.tuples_executed += stats.input_tuples;
        } else {
            self.watermark = self.issued;
            self.totals.latency_secs += stats.latency_secs;
            self.totals.tuples += stats.input_tuples;
        }
        self.totals.batches += 1;
        self.totals.bytes_shuffled += stats.bytes_shuffled;
        self.totals.latencies.push(stats.latency_secs);
        // Checkpoint epoch: every `checkpoint_every` issued batches,
        // canonicalize the whole cluster and store a recovery cut.  Taken
        // *after* the batch's own accounting so a checkpointed batch never
        // rides the replay log past its own checkpoint.
        if self.fault.as_ref().is_some_and(|c| {
            c.checkpoint_every > 0 && self.issued.is_multiple_of(c.checkpoint_every)
        }) {
            self.take_checkpoint()?;
        }
        Ok(stats)
    }

    /// Execute a transformer statement; returns the bytes moved.
    fn run_transform(
        &mut self,
        stmt: &DistStatement,
        kind: &Transform,
        source: &str,
        delta_name: &str,
        deltas: &HashMap<String, Relation>,
    ) -> Result<usize, WorkerDead> {
        match kind {
            Transform::Scatter(pf) => {
                let src: Relation = if source == delta_name {
                    deltas.values().next().cloned().unwrap_or_default()
                } else {
                    self.driver.read(source)
                };
                let src = relabel(&src, &stmt.target_schema);
                self.scatter(pf, &src, stmt)
            }
            Transform::Repart(pf) => {
                let ctx = self.trace_scope;
                let span = self.telemetry.begin_span(ctx, "gather");
                let mut collected = Relation::new(stmt.target_schema.clone());
                for part in self.fetch_all(|id| Request::Fetch {
                    id,
                    ctx,
                    name: source.to_string(),
                })? {
                    collected.merge(&relabel(&part, &stmt.target_schema));
                }
                self.telemetry.finish_span(span);
                let moved = collected.serialized_size();
                self.scatter(pf, &collected, stmt)?;
                Ok(moved + collected.serialized_size())
            }
            Transform::Gather => {
                let ctx = self.trace_scope;
                let span = self.telemetry.begin_span(ctx, "gather");
                let mut collected = Relation::new(stmt.target_schema.clone());
                for part in self.fetch_all(|id| Request::Fetch {
                    id,
                    ctx,
                    name: source.to_string(),
                })? {
                    collected.merge(&relabel(&part, &stmt.target_schema));
                }
                self.telemetry.finish_span(span);
                let bytes = collected.serialized_size();
                self.driver.apply(stmt, collected);
                Ok(bytes)
            }
        }
    }

    /// Buffer per-worker shards of a driver-held relation for shipment.
    /// Empty shards are buffered too: a `SetTo` scatter must clear stale
    /// buffers on workers that receive no rows this batch.  Shards ride in
    /// the worker's next `ApplyMany` (shipped before its next command, or
    /// at batch end); with [`PipelineConfig::batch_scatters`] disabled each
    /// scatter statement ships immediately as its own message, reproducing
    /// the positional protocol's traffic.
    fn scatter(
        &mut self,
        pf: &PartitionFn,
        src: &Relation,
        stmt: &DistStatement,
    ) -> Result<usize, WorkerDead> {
        let span = self
            .telemetry
            .begin_span(self.trace_scope, "scatter.encode");
        let (shards, bytes) = partition_shards(pf, src, stmt, self.workers);
        self.telemetry.finish_span(span);
        let stmt = Arc::new(stmt.clone());
        for (w, shard) in shards.into_iter().enumerate() {
            self.pending_applies[w].push((stmt.clone(), shard));
        }
        if !self.batch_scatters() {
            self.ship_all_applies()?;
        }
        Ok(bytes)
    }

    /// Install (or clear) the fault-tolerance configuration.  Must be set
    /// before the first batch: checkpoints are cuts of the issue counter,
    /// and a config installed mid-stream would have no checkpoint covering
    /// the batches already issued.
    pub fn set_fault_config(&mut self, fault: Option<FaultConfig>) {
        debug_assert_eq!(
            self.issued, 0,
            "fault config must be installed before any batch is issued"
        );
        self.fault = fault;
        self.ckpt = None;
        self.replay_log.clear();
        self.recoveries = 0;
    }

    /// The active fault-tolerance configuration, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// Number of worker-death recoveries performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Take a recovery checkpoint: drain in-flight work to the watermark,
    /// canonicalize every node (the epoch barrier that makes a later
    /// restore bit-identical to the surviving nodes' state — see
    /// `Database::canonicalize`), and store a full cluster cut.
    ///
    /// [`RecoveryMode::Checkpoint`] ships each worker's state back in its
    /// `Checkpoint` reply; [`RecoveryMode::Rescatter`] keeps the round
    /// stats-only and instead gathers each distributed view's partitions
    /// over the read path (temps restore to empty — every program scatters
    /// into its exchange buffers before reading them, so a post-watermark
    /// cut never needs them).
    fn take_checkpoint(&mut self) -> Result<(), WorkerDead> {
        let ship = matches!(
            self.fault.as_ref().map(|c| c.mode),
            Some(RecoveryMode::Checkpoint)
        );
        self.commit_watermark()?;
        self.driver.canonicalize();
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.fresh_request_id();
            self.send_to(w, Request::Checkpoint { id, ship })?;
            ids.push(id);
        }
        let mut snaps = Vec::with_capacity(self.workers);
        for (w, id) in ids.into_iter().enumerate() {
            snaps.push(self.await_checkpoint(w, id)?);
        }
        if !ship {
            let mut views: Vec<String> = self
                .dplan
                .plan
                .views
                .iter()
                .map(|v| v.name.clone())
                .filter(|v| !matches!(self.dplan.location(v), LocTag::Local))
                .collect();
            views.sort();
            for v in &views {
                let parts = self.fetch_all(|id| Request::Snapshot {
                    id,
                    view: v.clone(),
                })?;
                for (w, part) in parts.into_iter().enumerate() {
                    snaps[w].views.push((v.clone(), part));
                }
            }
        }
        self.ckpt = Some(CheckpointState {
            issued: self.issued,
            driver: self.driver.snapshot_state(),
            workers: snaps,
        });
        self.replay_log.clear();
        self.metrics.recovery_checkpoints.inc();
        self.telemetry.event(
            "checkpoint.taken",
            vec![
                ("issued", self.issued.into()),
                ("ship", u64::from(ship).into()),
            ],
        );
        Ok(())
    }

    /// Recover from a worker death, or surface it as the typed error when
    /// recovery is disabled (`fault == None`) or the recovery budget is
    /// exhausted.  Loops because a recovery attempt can itself hit another
    /// dead worker (cascading failures): each new death consumes one more
    /// attempt from [`FaultConfig::max_recoveries`].
    fn recover(&mut self, dead: WorkerDead) -> Result<(), WorkerDead> {
        let mut cause = dead;
        loop {
            let Some(cfg) = &self.fault else {
                return Err(cause);
            };
            if self.recoveries >= cfg.max_recoveries {
                return Err(cause);
            }
            self.recoveries += 1;
            self.metrics.recovery_attempts.inc();
            self.metrics.worker_declared_dead.inc();
            self.telemetry.event(
                "worker.dead",
                vec![
                    ("worker", cause.index.into()),
                    ("reason", cause.reason.clone().into()),
                ],
            );
            match self.recover_once(cause.index) {
                Ok(()) => return Ok(()),
                Err(next) => cause = next,
            }
        }
    }

    /// One recovery attempt: respawn the dead worker, reset the driver's
    /// ledgers, restore *every* worker (and the driver node) to the last
    /// checkpoint cut — restoring only the respawned one would leave the
    /// survivors ahead of the cut — and replay the logged deltas.  With no
    /// checkpoint yet, the cut is the empty cluster and the log holds the
    /// whole stream since `set_fault_config`.
    fn recover_once(&mut self, dead_worker: usize) -> Result<(), WorkerDead> {
        self.transport.respawn(dead_worker)?;
        self.metrics.worker_respawned.inc();
        self.telemetry
            .event("worker.respawned", vec![("worker", dead_worker.into())]);

        // Outstanding ids and buffered shards belong to the abandoned
        // epoch: the restore wipes their effects, and replay re-issues
        // them under fresh ids.
        for w in 0..self.workers {
            self.pending_blocks[w].clear();
            self.inbox[w].clear();
            self.pending_applies[w].clear();
        }
        self.applies_in_flight = false;

        let (ckpt_issued, driver_snap, worker_snaps) = match &self.ckpt {
            Some(ckpt) => (ckpt.issued, ckpt.driver.clone(), ckpt.workers.clone()),
            None => (
                0,
                WorkerSnapshot::default(),
                vec![WorkerSnapshot::default(); self.workers],
            ),
        };
        self.driver.restore_state(&driver_snap);
        for (w, snap) in worker_snaps.into_iter().enumerate() {
            let id = self.fresh_request_id();
            self.send_to(
                w,
                Request::Restore {
                    id,
                    snapshot: Box::new(snap),
                },
            )?;
            // Drain whatever stale replies the abandoned epoch left on the
            // wire; command FIFO means the Restore's own Ack is the first
            // reply that post-dates the reset.
            loop {
                match self.transport.recv(w)? {
                    Reply::Ack { id: rid } if rid == id => break,
                    _ => {}
                }
            }
        }
        self.metrics
            .recovery_restored_workers
            .add(self.workers as u64);
        self.issued = ckpt_issued;
        self.watermark = ckpt_issued;

        let log = std::mem::take(&mut self.replay_log);
        self.metrics.recovery_replayed.add(log.len() as u64);
        self.telemetry.event(
            "recovery.replay",
            vec![
                ("worker", dead_worker.into()),
                ("from_issued", ckpt_issued.into()),
                ("batches", log.len().into()),
            ],
        );
        for (rel, delta) in log {
            // Epoch-synchronous replay: re-enters the log (and re-takes
            // checkpoints) exactly as the original schedule did, under a
            // fresh root span per replayed batch.
            self.execute_canonical(&rel, delta, false, None)?;
        }
        Ok(())
    }
}

/// Delta capture (the subscription layer's backend hook): enabling capture
/// broadcasts a `SetCapture` to every worker and arms the driver node's own
/// log; draining commits the watermark first, so a capture batch never
/// precedes its batches' watermark commit, then collects every node's
/// statement log over the `TakeCaptured` protocol round.  Part order
/// mirrors `view_contents` exactly (driver for `Local`, worker 0 for
/// `Replicated`, workers 0..N for distributed views), which is what makes
/// client-side replay bit-identical to a snapshot read.
impl<T: Transport> Driver<T> {
    /// Wait for the `Captured` reply tagged `id` from worker `w` (mirrors
    /// [`Driver::await_checkpoint`]).
    fn await_captured(
        &mut self,
        w: usize,
        id: u64,
    ) -> Result<Vec<(String, StmtOp, Relation)>, WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(pos) = self.inbox[w]
                .iter()
                .position(|r| matches!(r, Reply::Captured { id: rid, .. } if *rid == id))
            {
                let Reply::Captured { ops, .. } = self.inbox[w].swap_remove(pos) else {
                    unreachable!()
                };
                return Ok(ops);
            }
            self.recv_one(w)?;
        }
    }

    /// Arm (or re-arm) capture on every node for the current capture set,
    /// discarding any pending logs.
    fn broadcast_set_capture(&mut self) -> Result<(), WorkerDead> {
        let views = self.capture_views.clone();
        self.driver.set_capture(views.iter().cloned());
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.fresh_request_id();
            self.send_to(
                w,
                Request::SetCapture {
                    id,
                    views: views.clone(),
                },
            )?;
            ids.push(id);
        }
        for (w, id) in ids.into_iter().enumerate() {
            self.await_ack(w, id)?;
        }
        Ok(())
    }

    fn take_captured_inner(&mut self) -> Result<CaptureBatch, WorkerDead> {
        // Watermark consistency: every queued delta executes and every
        // in-flight apply settles before the logs are drained, so the
        // batch covers exactly the committed prefix.
        while !self.queue.is_empty() {
            self.execute_queue_front()?;
        }
        self.commit_watermark()?;
        let views = self.capture_views.clone();
        if self.capture_epoch != self.recoveries {
            // A recovery cycle replayed the stream since the last drain:
            // the logs hold replayed (duplicate) entries and a respawned
            // worker's log may be missing entirely.  Discard the logs,
            // re-arm capture, and hand subscribers a full-snapshot resync
            // (one `SetTo` per part) — no gaps, no duplicates.
            self.capture_epoch = self.recoveries;
            self.broadcast_set_capture()?;
            let mut assembled = Vec::with_capacity(views.len());
            for name in &views {
                let parts: Vec<Vec<(StmtOp, Relation)>> = match self.dplan.location(name) {
                    LocTag::Local => vec![vec![(StmtOp::SetTo, self.driver.snapshot(name))]],
                    LocTag::Replicated => {
                        let id = self.fresh_request_id();
                        self.send_to(
                            0,
                            Request::Snapshot {
                                id,
                                view: name.clone(),
                            },
                        )?;
                        vec![vec![(StmtOp::SetTo, self.await_rel(0, id)?)]]
                    }
                    _ => self
                        .fetch_all(|id| Request::Snapshot {
                            id,
                            view: name.clone(),
                        })?
                        .into_iter()
                        .map(|part| vec![(StmtOp::SetTo, part)])
                        .collect(),
                };
                assembled.push(CapturedView {
                    name: name.clone(),
                    parts,
                });
            }
            return Ok(CaptureBatch {
                watermark: self.watermark,
                resync: true,
                views: assembled,
            });
        }
        let driver_log = self.driver.take_captured();
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let id = self.fresh_request_id();
            self.send_to(w, Request::TakeCaptured { id })?;
            ids.push(id);
        }
        let mut worker_logs = Vec::with_capacity(self.workers);
        for (w, id) in ids.into_iter().enumerate() {
            worker_logs.push(self.await_captured(w, id)?);
        }
        let assembled = assemble_views(
            &views,
            |name| self.dplan.location(name),
            driver_log,
            worker_logs,
        );
        Ok(CaptureBatch {
            watermark: self.watermark,
            resync: false,
            views: assembled,
        })
    }

    /// Fallible [`DeltaCapture::take_captured`]: surfaces an unrecovered
    /// worker death instead of panicking.
    pub fn try_take_captured(&mut self) -> Result<CaptureBatch, WorkerDead> {
        loop {
            match self.take_captured_inner() {
                Ok(batch) => return Ok(batch),
                Err(dead) => self.recover(dead)?,
            }
        }
    }
}

impl<T: Transport> DeltaCapture for Driver<T> {
    fn enable_capture(&mut self, views: &[String]) {
        self.capture_views = views.to_vec();
        self.capture_epoch = self.recoveries;
        loop {
            match self.broadcast_set_capture() {
                Ok(()) => return,
                Err(dead) => {
                    if let Err(dead) = self.recover(dead) {
                        panic!("{dead} (recovery unavailable)");
                    }
                }
            }
        }
    }

    fn take_captured(&mut self) -> CaptureBatch {
        self.try_take_captured()
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }
}

impl<T: Transport> Backend for Driver<T> {
    fn backend_name(&self) -> &'static str {
        let names = self.transport.names();
        match &self.pipeline {
            None => names.sync,
            Some(c) if c.async_gather => names.pipelined,
            Some(_) => names.fifo,
        }
    }

    fn plan(&self) -> &DistributedPlan {
        Driver::plan(self)
    }

    fn apply_batch(&mut self, relation: &str, batch: &Relation) -> BatchExecution {
        Driver::apply_batch(self, relation, batch)
    }

    fn flush(&mut self) {
        Driver::flush(self);
    }

    fn view_contents(&mut self, name: &str) -> Relation {
        Driver::view_contents(self, name)
    }

    fn totals(&self) -> &ClusterTotals {
        &self.totals
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        if self.is_pipelined() {
            Some(self.stats.clone())
        } else {
            None
        }
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        Some(self.telemetry.clone())
    }

    fn trace_scope(&self) -> SpanContext {
        self.trace_scope
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

    /// Wait for the `Stats` reply tagged `id` from worker `w`, settling
    /// any block completions that arrive ahead of it (mirrors
    /// [`Driver::await_rel`]).
    fn await_stats(&mut self, w: usize, id: u64) -> Result<WorkerStatsSnapshot, WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(pos) = self.inbox[w]
                .iter()
                .position(|r| matches!(r, Reply::Stats { id: rid, .. } if *rid == id))
            {
                let Reply::Stats {
                    snapshot, spans, ..
                } = self.inbox[w].swap_remove(pos)
                else {
                    unreachable!()
                };
                // Worker spans ride the Stats round; stitch them into the
                // driver's trace store (and stage histograms) on arrival.
                self.telemetry.ingest_spans(spans);
                return Ok(snapshot);
            }
            self.recv_one(w)?;
        }
    }

    /// Gather every worker's counter snapshot over the protocol's `Stats`
    /// message, in worker order (tagged schedule: all requests issued
    /// first, replies awaited by id).
    fn fetch_worker_stats(&mut self) -> Result<Vec<WorkerStatsSnapshot>, WorkerDead> {
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.fresh_request_id();
            self.send_to(w, Request::Stats { id })?;
            ids.push(id);
        }
        let mut snaps = Vec::with_capacity(self.workers);
        for (w, id) in ids.into_iter().enumerate() {
            snaps.push(self.await_stats(w, id)?);
        }
        Ok(snaps)
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
    /// the [`FaultConfig`], surfacing [`WorkerDead`] when recovery is
    /// disabled or exhausted.
    pub fn try_telemetry_totals(&mut self) -> Result<TelemetryTotals, WorkerDead> {
        loop {
            match self.telemetry_totals_inner() {
                Ok(totals) => return Ok(totals),
                Err(dead) => self.recover(dead)?,
            }
        }
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

    /// Abandon every admitted-but-unissued batch *without executing it*,
    /// shut the worker threads down, and return the final pipeline stats
    /// (with [`PipelineStats::batches_abandoned`] counting the dropped
    /// queue).  This is the observable form of the `Drop` path; use
    /// [`ThreadedCluster::flush`] first if queued batches must be applied.
    pub fn close(mut self) -> PipelineStats {
        self.abandon_queue();
        self.shutdown_workers();
        self.stats.clone()
    }

    /// Drop queued deltas without executing them (no maintenance program
    /// runs, no worker messages are sent).
    fn abandon_queue(&mut self) {
        self.stats.batches_abandoned += self.queue.len();
        self.queue.clear();
        self.queue_bytes = 0;
    }

    /// Stop the workers via the transport.  Workers only need their
    /// command channels drained; any uncollected block replies are
    /// discarded with the reply channels.  Idempotent.
    fn shutdown_workers(&mut self) {
        self.transport.shutdown();
    }
}

impl<T: Transport> Drop for Driver<T> {
    fn drop(&mut self) {
        // Dropping without a `flush` abandons queued batches — they must
        // never execute from a destructor (a drop during unwinding must not
        // run maintenance programs or block on workers beyond joining).
        self.abandon_queue();
        // Workers may still hold finished spans from batches whose Stats
        // round never ran; drain them (best-effort — a dead worker just
        // loses its spans) so the exported trace file is complete.
        if Telemetry::trace_export_enabled() {
            let _ = self.fetch_worker_stats();
        }
        self.shutdown_workers();
        // After shutdown, so worker-teardown flight events make the flush.
        self.telemetry.flush_on_drop();
        self.telemetry.flush_trace_on_drop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_distributed::{
        compile_distributed, Cluster, ClusterConfig, OptLevel, PartitioningSpec,
    };
    use hotdog_ivm::compile_recursive;

    fn example_query() -> Expr {
        sum(
            ["B"],
            join_all([
                rel("R", ["OK", "B"]),
                rel("S", ["B", "CK"]),
                rel("T", ["CK", "D"]),
            ]),
        )
    }

    fn example_dplan(opt: OptLevel) -> DistributedPlan {
        let plan = compile_recursive("Q", &example_query());
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        compile_distributed(&plan, &spec, opt)
    }

    /// A plan whose top view stays *distributed* (a plain join, no final
    /// aggregate): its triggers end with a `Distributed` block rather than
    /// a gather, so block completions outlive the trigger that issued them
    /// — the shape that exercises the request-id ledger across batches.
    fn join_dplan(opt: OptLevel) -> DistributedPlan {
        let q = join_all([
            rel("R", ["OK", "B"]),
            rel("S", ["B", "CK"]),
            rel("T", ["CK", "D"]),
        ]);
        let plan = compile_recursive("J", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        compile_distributed(&plan, &spec, opt)
    }

    fn batches() -> Vec<(&'static str, Relation)> {
        vec![
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["OK", "B"]),
                    (0..40i64).map(|i| (tuple![i, i % 5], 1.0)),
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
                    (0..20i64).map(|i| (tuple![i, i * 10], 1.0)),
                ),
            ),
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["OK", "B"]),
                    vec![(tuple![1, 1], -1.0), (tuple![100, 2], 1.0)],
                ),
            ),
        ]
    }

    #[test]
    fn threaded_matches_simulator_at_every_opt_level() {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for workers in [1usize, 2, 5] {
                let dplan = example_dplan(opt);
                let mut sim = Cluster::new(dplan.clone(), ClusterConfig::with_workers(workers));
                let mut real = ThreadedCluster::new(dplan, workers);
                for (rel, batch) in batches() {
                    sim.apply_batch(rel, &batch);
                    real.apply_batch(rel, &batch);
                }
                assert_eq!(
                    real.query_result().sorted(),
                    sim.query_result().sorted(),
                    "threaded diverged from simulator at {opt:?} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn pipelined_matches_synchronous_everywhere() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            for workers in [1usize, 2, 5] {
                let mut sync = ThreadedCluster::new(example_dplan(opt), workers);
                let mut piped = ThreadedCluster::pipelined(
                    example_dplan(opt),
                    workers,
                    PipelineConfig::default(),
                );
                for (rel, batch) in batches() {
                    sync.apply_batch(rel, &batch);
                    piped.apply_batch(rel, &batch);
                }
                piped.flush();
                assert_eq!(
                    piped.query_result().checksum(),
                    sync.query_result().checksum(),
                    "pipelined diverged at {opt:?} with {workers} workers"
                );
                let view_names: Vec<String> = sync
                    .plan()
                    .plan
                    .views
                    .iter()
                    .map(|v| v.name.clone())
                    .collect();
                for v in view_names {
                    assert_eq!(
                        piped.view_contents(&v).checksum(),
                        sync.view_contents(&v).checksum(),
                        "view {v} diverged at {opt:?} with {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn coalescing_merges_consecutive_same_relation_batches() {
        let mut piped = ThreadedCluster::pipelined(
            example_dplan(OptLevel::O3),
            2,
            PipelineConfig {
                coalesce_tuples: 1_000,
                admit_capacity: 64,
                ..Default::default()
            },
        );
        // 16 single-tuple R batches then one S batch: the R's coalesce into
        // one queued delta, so only two program executions trigger.
        for i in 0..16i64 {
            piped.apply_batch(
                "R",
                &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![i, i % 5], 1.0)]),
            );
        }
        piped.apply_batch(
            "S",
            &Relation::from_pairs(Schema::new(["B", "CK"]), vec![(tuple![0, 0], 1.0)]),
        );
        piped.flush();
        assert_eq!(piped.stats.batches_admitted, 17);
        assert_eq!(piped.stats.batches_coalesced, 15);
        assert_eq!(piped.stats.batches_executed, 2);
        assert_eq!(piped.stats.tuples_admitted, 17);
        // Ring-summed delta carries all 16 R tuples in one trigger run.
        assert_eq!(piped.stats.tuples_executed, 17);
    }

    #[test]
    fn coalescing_ring_sum_cancels_opposing_deltas() {
        let mut piped = ThreadedCluster::pipelined(
            example_dplan(OptLevel::O3),
            2,
            PipelineConfig::with_coalesce(1_000),
        );
        piped.apply_batch(
            "R",
            &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![7, 1], 1.0)]),
        );
        piped.apply_batch(
            "R",
            &Relation::from_pairs(Schema::new(["OK", "B"]), vec![(tuple![7, 1], -1.0)]),
        );
        piped.flush();
        assert_eq!(piped.stats.batches_coalesced, 1);
        // The insert and the delete annihilate before ever triggering.
        assert_eq!(piped.stats.tuples_executed, 0);
        assert!(piped.query_result().is_empty());
    }

    #[test]
    fn watermark_exposes_consistent_prefix_without_flush() {
        let config = PipelineConfig {
            coalesce_tuples: 0, // keep every batch distinct
            admit_capacity: 1,  // force eager execution
            inflight_blocks: 2,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
        let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
        let all = batches();
        for (rel, batch) in &all {
            piped.apply_batch(rel, batch);
            sync.apply_batch(rel, batch);
        }
        // Without a flush the read still observes a consistent batch
        // boundary: `admit_capacity = 1` guarantees at least all but one
        // batch has been issued.
        assert!(piped.watermark() == 0); // not yet committed by any read
        let partial = piped.query_result();
        let committed = piped.watermark();
        assert!(
            committed >= (all.len() as u64 - 1),
            "eager execution should have issued all but the queued tail"
        );
        // Re-running the same prefix synchronously reproduces the read.
        let mut prefix = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
        for (rel, batch) in all.iter().take(committed as usize) {
            prefix.apply_batch(rel, batch);
        }
        assert_eq!(partial.checksum(), prefix.query_result().checksum());
        piped.flush();
        assert_eq!(piped.watermark(), all.len() as u64);
        assert_eq!(
            piped.query_result().checksum(),
            sync.query_result().checksum()
        );
    }

    #[test]
    fn coalesced_reads_observe_commuted_prefix() {
        // Coalescing merges a later same-relation batch into its queued
        // delta, commuting it past other relations' queued batches; a
        // pre-flush read must observe exactly that commuted boundary.
        let config = PipelineConfig {
            coalesce_tuples: 1_000,
            admit_capacity: 2,
            inflight_blocks: 2,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
        let all = batches(); // [R1, S1, T1, R2]
        let (r1, s1, t1, r2) = (&all[0].1, &all[1].1, &all[2].1, &all[3].1);
        piped.apply_batch("R", r1); // queue [R1]
        piped.apply_batch("S", s1); // queue [R1, S1]
        piped.apply_batch("R", r2); // merges into R1's entry, ahead of S1
        piped.apply_batch("T", t1); // queue exceeds capacity -> issue R1⊕R2
        assert_eq!(piped.stats.batches_coalesced, 1);
        let read = piped.query_result();
        assert_eq!(piped.watermark(), 1, "exactly the coalesced R delta issued");
        // The committed boundary is the commuted prefix [R1 ⊕ R2]: both R
        // batches visible (R2 admitted *after* S1), S1 and T1 not yet.
        let mut reference = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
        reference.apply_batch("R", &r1.union(r2));
        assert_eq!(read.checksum(), reference.query_result().checksum());
        let view_names: Vec<String> = reference
            .plan()
            .plan
            .views
            .iter()
            .map(|v| v.name.clone())
            .collect();
        for v in &view_names {
            assert_eq!(
                piped.view_contents(v).checksum(),
                reference.view_contents(v).checksum(),
                "view {v} is not at the commuted boundary"
            );
        }
        // After a flush the end state matches the admitted order exactly
        // (integer multiplicities, so coalescing is bit-exact here).
        piped.flush();
        let mut full = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
        for (rel, batch) in &all {
            full.apply_batch(rel, batch);
        }
        for v in &view_names {
            assert_eq!(
                piped.view_contents(v).checksum(),
                full.view_contents(v).checksum(),
                "flushed view {v} diverged"
            );
        }
    }

    #[test]
    fn tiny_inflight_window_still_correct() {
        for inflight in [1usize, 2] {
            let config = PipelineConfig {
                coalesce_tuples: 64,
                admit_capacity: 2,
                inflight_blocks: inflight,
                ..Default::default()
            };
            let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
            let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 4);
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
                sync.apply_batch(rel, &batch);
            }
            piped.flush();
            assert_eq!(
                piped.query_result().checksum(),
                sync.query_result().checksum(),
                "inflight window {inflight} diverged"
            );
        }
    }

    #[test]
    fn measured_stats_are_populated() {
        let dplan = example_dplan(OptLevel::O3);
        let mut cluster = ThreadedCluster::new(dplan, 3);
        let mut stages = 0;
        for (rel, batch) in batches() {
            let stats = cluster.apply_batch(rel, &batch);
            assert!(stats.latency_secs > 0.0, "latency must be measured");
            assert_eq!(stats.latency_secs, stats.wall_secs);
            stages += stats.stages;
        }
        assert!(stages > 0);
        assert!(cluster.totals.batches == batches().len());
        assert!(cluster.totals.bytes_shuffled > 0);
        assert!(cluster.totals.throughput() > 0.0);
    }

    #[test]
    fn pipelined_totals_report_stream_throughput() {
        let mut piped =
            ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, PipelineConfig::default());
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
        piped.flush();
        assert!(piped.totals.latency_secs > 0.0);
        assert!(piped.totals.throughput() > 0.0);
        assert_eq!(
            piped.totals.tuples,
            batches().iter().map(|(_, b)| b.len()).sum::<usize>()
        );
        // Flushing twice must not double-count stream time.
        let t = piped.totals.latency_secs;
        piped.flush();
        assert_eq!(piped.totals.latency_secs, t);
    }

    #[test]
    fn intermediate_view_contents_match_simulator() {
        let dplan = example_dplan(OptLevel::O3);
        let view_names: Vec<String> = dplan.plan.views.iter().map(|v| v.name.clone()).collect();
        let mut sim = Cluster::new(dplan.clone(), ClusterConfig::with_workers(4));
        let mut real = ThreadedCluster::new(dplan, 4);
        for (rel, batch) in batches() {
            sim.apply_batch(rel, &batch);
            real.apply_batch(rel, &batch);
        }
        for v in view_names {
            assert_eq!(
                real.view_contents(&v).sorted(),
                sim.view_contents(&v).sorted(),
                "view {v} diverged"
            );
        }
    }

    #[test]
    fn replicated_view_reads_return_one_copy() {
        // The Q3 shape: the customer view is probed by `CK` under the
        // order key, so the compiler places it on every worker.  A read
        // must return one replica (the single-node view), not W of them
        // summed — and the replica must have been maintained from the
        // replicated batch alone.
        use hotdog_distributed::LocTag;
        use hotdog_exec::{ExecMode, LocalEngine};
        let q = sum(
            ["OK"],
            join_all([
                rel("C", ["CK", "SEG"]),
                rel("O", ["OK", "CK"]),
                rel("L", ["OK", "P"]),
            ]),
        );
        let plan = compile_recursive("Q", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let replicas: Vec<String> = dplan
            .spec
            .views()
            .filter(|(_, tag)| **tag == LocTag::Replicated)
            .map(|(v, _)| v.clone())
            .collect();
        assert_eq!(replicas.len(), 1, "{}", dplan.pretty());

        let stream = [
            (
                "C",
                Relation::from_pairs(
                    Schema::new(["CK", "SEG"]),
                    (0..12i64).map(|i| (tuple![i, i % 3], 1.0)),
                ),
            ),
            (
                "O",
                Relation::from_pairs(
                    Schema::new(["OK", "CK"]),
                    (0..30i64).map(|i| (tuple![i, i % 12], 1.0)),
                ),
            ),
            (
                "L",
                Relation::from_pairs(
                    Schema::new(["OK", "P"]),
                    (0..60i64).map(|i| (tuple![i % 30, i], 1.0)),
                ),
            ),
            (
                "C",
                Relation::from_pairs(
                    Schema::new(["CK", "SEG"]),
                    vec![(tuple![3, 0], -1.0), (tuple![12, 1], 1.0)],
                ),
            ),
            (
                "O",
                Relation::from_pairs(Schema::new(["OK", "CK"]), vec![(tuple![30, 12], 1.0)]),
            ),
        ];
        let mut local = LocalEngine::new(
            plan,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        let mut real = ThreadedCluster::new(dplan, 3);
        for (rel, batch) in &stream {
            local.apply_batch(rel, batch);
            real.apply_batch(rel, batch);
        }
        assert_eq!(
            real.view_contents(&replicas[0]).sorted(),
            local.view_contents(&replicas[0]).sorted()
        );
        assert_eq!(real.query_result().sorted(), local.query_result().sorted());
        assert!(!real.query_result().is_empty());
    }

    #[test]
    fn unknown_relation_batches_are_ignored() {
        let dplan = example_dplan(OptLevel::O3);
        let mut cluster = ThreadedCluster::new(dplan, 2);
        let stats = cluster.apply_batch(
            "UNRELATED",
            &Relation::from_pairs(Schema::new(["X"]), vec![(tuple![1], 1.0)]),
        );
        assert_eq!(stats.stages, 0);
        assert!(cluster.query_result().is_empty());
    }

    #[test]
    fn adaptive_mode_matches_synchronous_state() {
        // The controller only re-times trigger boundaries; view state must
        // match the synchronous schedule exactly (integer multiplicities
        // here, so even coalesced runs are bit-exact).
        let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
        let mut adaptive =
            ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, PipelineConfig::adaptive());
        for (rel, batch) in batches() {
            sync.apply_batch(rel, &batch);
            adaptive.apply_batch(rel, &batch);
        }
        adaptive.flush();
        assert_eq!(
            adaptive.query_result().checksum(),
            sync.query_result().checksum(),
            "adaptive coalescing changed view state"
        );
        assert!(adaptive.stats.coalesce_bound > 0);
    }

    #[test]
    fn adaptive_controller_is_fed_by_the_stream() {
        // Enough triggers to close probe windows: tiny probe window, eager
        // execution so every admission triggers.
        let config = PipelineConfig {
            adaptive: Some(AdaptiveConfig {
                probe_triggers: 1,
                initial_tuples: 64,
                ..Default::default()
            }),
            admit_capacity: 0, // execute every admitted batch immediately
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
        for _ in 0..4 {
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
            }
        }
        piped.flush();
        assert!(
            piped.stats.bound_adjustments + piped.stats.bound_reversals > 0,
            "controller never moved: {:?}",
            piped.stats
        );
    }

    #[test]
    fn byte_bound_backpressures_the_admission_queue() {
        let admit_bytes = 600usize;
        let config = PipelineConfig {
            coalesce_tuples: 0, // keep batches distinct so the queue grows
            admit_capacity: 1_000,
            ..Default::default()
        }
        .with_admit_bytes(admit_bytes);
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
        let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
        for _ in 0..4 {
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
                sync.apply_batch(rel, &batch);
                assert!(
                    piped.queued_bytes() <= admit_bytes,
                    "queue footprint {} exceeds the byte bound",
                    piped.queued_bytes()
                );
            }
        }
        assert!(
            piped.stats.executions_forced_by_bytes > 0,
            "the byte bound never engaged: {:?}",
            piped.stats
        );
        piped.flush();
        assert_eq!(piped.queued_bytes(), 0);
        assert_eq!(
            piped.query_result().checksum(),
            sync.query_result().checksum(),
            "byte backpressure changed view state"
        );
    }

    #[test]
    fn latency_target_bounds_watermark_lag() {
        // A zero staleness budget makes every queued delta overdue at the
        // next admission: the queue can never hold more than the batch
        // currently being admitted, so reads are never more than one batch
        // stale — the latency end of the latency/throughput tradeoff.
        let config = PipelineConfig {
            coalesce_tuples: 1_000_000,
            admit_capacity: 1_000,
            ..Default::default()
        }
        .with_latency_target(Duration::ZERO);
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
            assert!(
                piped.queued_batches() <= 1,
                "latency target must keep the queue drained"
            );
        }
        assert!(
            piped.stats.executions_forced_by_latency > 0,
            "the latency target never engaged: {:?}",
            piped.stats
        );
        // Zero budget also vetoes coalescing into aged deltas: nothing may
        // ring-sum into a delta that is already overdue.
        assert_eq!(piped.stats.batches_coalesced, 0);
        piped.flush();

        // An unbounded budget must never force executions.
        let lax = PipelineConfig {
            coalesce_tuples: 1_000_000,
            admit_capacity: 1_000,
            ..Default::default()
        }
        .with_latency_target(Duration::from_secs(3_600));
        let mut relaxed = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, lax);
        for (rel, batch) in batches() {
            relaxed.apply_batch(rel, &batch);
        }
        assert_eq!(relaxed.stats.executions_forced_by_latency, 0);
        relaxed.flush();
    }

    #[test]
    fn reads_enforce_the_latency_target() {
        // A finite budget, then a sleep that guarantees anything still
        // queued is overdue: the next *read* must force it through — no
        // flush, no further admissions.  (A scheduler pause may legally
        // force some deltas during admission already, so only the
        // post-read state is asserted exactly.)
        let config = PipelineConfig {
            coalesce_tuples: 0, // keep every batch distinct
            admit_capacity: 1_000,
            ..Default::default()
        }
        .with_latency_target(Duration::from_millis(100));
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
        assert!(piped.queued_batches() <= batches().len());
        std::thread::sleep(Duration::from_millis(150));
        let read = piped.query_result();
        assert_eq!(
            piped.queued_batches(),
            0,
            "the read must flush overdue deltas"
        );
        // Every execution was latency-forced, whether the admission loop or
        // the read drove it.
        assert!(piped.stats.executions_forced_by_latency >= 1);
        assert_eq!(
            piped.stats.executions_forced_by_latency,
            piped.stats.batches_executed
        );
        let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 2);
        for (rel, batch) in batches() {
            sync.apply_batch(rel, &batch);
        }
        assert_eq!(read.checksum(), sync.query_result().checksum());
    }

    #[test]
    fn close_abandons_queued_batches_without_executing() {
        let config = PipelineConfig {
            coalesce_tuples: 0, // keep every admitted batch distinct
            admit_capacity: 1_000,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
        assert_eq!(piped.queued_batches(), batches().len());
        assert_eq!(piped.stats.batches_executed, 0);
        let final_stats = piped.close(); // must not hang, execute, or leak
        assert_eq!(final_stats.batches_abandoned, batches().len());
        assert_eq!(
            final_stats.batches_executed, 0,
            "close() must not execute queued deltas"
        );

        // Same invariant on the plain Drop path, with replies still in
        // flight: issued-but-uncollected block completions plus a queued
        // tail must shut down cleanly.
        let config = PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 2, // forces some eager (pipelined) executions
            inflight_blocks: 8,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, config);
        for _ in 0..3 {
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
            }
        }
        assert!(piped.queued_batches() > 0);
        drop(piped); // no hang, no panic, queued deltas never execute
    }

    #[test]
    fn fifo_compat_matches_tagged_bit_for_bit() {
        // The FIFO-compat schedule (drain the window before every fetch,
        // one scatter message per statement) and the tagged schedule run
        // the same trigger sequence over the same per-worker command
        // order, so their states must be bit-identical.
        for opt in [OptLevel::O0, OptLevel::O3] {
            let mut tagged = ThreadedCluster::pipelined(
                example_dplan(opt),
                3,
                PipelineConfig::with_coalesce(64),
            );
            let mut fifo = ThreadedCluster::pipelined(
                example_dplan(opt),
                3,
                PipelineConfig {
                    coalesce_tuples: 64,
                    ..PipelineConfig::fifo_compat()
                },
            );
            for (rel, batch) in batches() {
                tagged.apply_batch(rel, &batch);
                fifo.apply_batch(rel, &batch);
            }
            tagged.flush();
            fifo.flush();
            assert_eq!(
                tagged.query_result().checksum(),
                fifo.query_result().checksum(),
                "fifo-compat diverged from tagged at {opt:?}"
            );
            // The FIFO arm never overlaps a gather and never batches.
            assert_eq!(fifo.stats.gathers_overlapped, 0);
            assert_eq!(fifo.stats.scatter_messages_saved, 0);
        }
    }

    #[test]
    fn async_gather_overlaps_inflight_blocks() {
        // Eager per-batch execution with a roomy window: by the time batch
        // k's repart/gather fetches, blocks of earlier batches are still
        // pending, so the tagged schedule must record overlapped gathers.
        let config = PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 0,
            inflight_blocks: 8,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 2, config);
        for _ in 0..3 {
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
            }
        }
        piped.flush();
        assert!(
            piped.stats.gathers_overlapped > 0,
            "no gather ever overlapped in-flight blocks: {:?}",
            piped.stats
        );
    }

    #[test]
    fn scatter_batching_reduces_messages() {
        // O0 keeps transformer statements unfused, so consecutive scatters
        // buffer into one ApplyMany per worker and the saved-message
        // counter must engage.
        let mut piped =
            ThreadedCluster::pipelined(example_dplan(OptLevel::O0), 2, PipelineConfig::default());
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
        piped.flush();
        assert!(piped.stats.scatter_messages_sent > 0);
        assert!(
            piped.stats.scatter_messages_saved > 0,
            "batching saved no messages: {:?}",
            piped.stats
        );
    }

    #[test]
    fn flush_drains_reply_ledger_before_close() {
        // Eager pipelined execution with a wide window leaves block
        // completions unsettled in the request-id ledger; `flush` must
        // settle all of them (and barrier trailing scatters) so a
        // subsequent close/Drop abandons nothing and owes workers nothing.
        let config = PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 1,
            inflight_blocks: 16,
            ..Default::default()
        };
        let mut piped = ThreadedCluster::pipelined(join_dplan(OptLevel::O3), 4, config);
        for _ in 0..3 {
            for (rel, batch) in batches() {
                piped.apply_batch(rel, &batch);
            }
        }
        assert!(
            piped.outstanding_replies() > 0,
            "expected unsettled completions before the flush"
        );
        piped.flush();
        assert_eq!(
            piped.outstanding_replies(),
            0,
            "flush must drain the request-id ledger"
        );
        assert_eq!(piped.queued_batches(), 0);
        let final_stats = piped.close();
        assert_eq!(
            final_stats.batches_abandoned, 0,
            "a flushed pipeline abandons nothing at close"
        );
    }

    #[test]
    fn shuffled_replies_cannot_corrupt_the_watermark() {
        // Chaos arm of the tagged-reply protocol: the driver's inbox is
        // deterministically shuffled on every arrival, so a worker's
        // answer to batch k+1's block can be *consumed* before batch k's
        // gather fetch.  The ledger matches by request id, so watermarks,
        // pre-flush reads and final state must all be unaffected.
        for seed in [1u64, 0xC0FFEE, 977] {
            let config = PipelineConfig {
                coalesce_tuples: 0, // keep every batch a distinct trigger
                admit_capacity: 1,  // eager execution, gathers mid-stream
                inflight_blocks: 4,
                ..Default::default()
            }
            .with_shuffled_replies(seed);
            let mut piped = ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 3, config);
            let mut sync = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
            let all = batches();
            for (rel, batch) in &all {
                piped.apply_batch(rel, batch);
                sync.apply_batch(rel, batch);
            }
            // Pre-flush read: must still observe a consistent batch
            // boundary, reproducible by re-running the issued prefix.
            let partial = piped.query_result();
            let committed = piped.watermark();
            assert!(
                committed >= all.len() as u64 - 1,
                "eager execution should have issued all but the queued tail"
            );
            let mut prefix = ThreadedCluster::new(example_dplan(OptLevel::O3), 3);
            for (rel, batch) in all.iter().take(committed as usize) {
                prefix.apply_batch(rel, batch);
            }
            assert_eq!(
                partial.checksum(),
                prefix.query_result().checksum(),
                "shuffled replies corrupted the pre-flush watermark (seed {seed})"
            );
            piped.flush();
            assert_eq!(piped.watermark(), all.len() as u64);
            assert_eq!(piped.outstanding_replies(), 0);
            assert_eq!(
                piped.query_result().checksum(),
                sync.query_result().checksum(),
                "shuffled replies changed the final state (seed {seed})"
            );
        }
    }

    #[test]
    fn workers_shut_down_cleanly_on_drop() {
        let dplan = example_dplan(OptLevel::O3);
        let mut cluster = ThreadedCluster::new(dplan, 8);
        for (rel, batch) in batches() {
            cluster.apply_batch(rel, &batch);
        }
        drop(cluster); // must not hang or panic

        // Pipelined clusters with work still in flight must also shut down.
        let mut piped =
            ThreadedCluster::pipelined(example_dplan(OptLevel::O3), 4, PipelineConfig::default());
        for (rel, batch) in batches() {
            piped.apply_batch(rel, &batch);
        }
        drop(piped); // queued + in-flight work abandoned, no hang
    }
}
