//! The [`Driver`] and **the schedule** it runs: one trigger program per
//! update event, alternating local and distributed blocks (the paper's
//! driver program).  `execute_canonical` runs `Local` blocks on the driver
//! node, moves relations between driver and workers for transformer
//! statements (`run_transform`: scatter / repartition / gather) and
//! broadcasts every `Distributed` block.  The epoch-synchronous schedule
//! barriers after each block; the pipelined one defers completions to the
//! `ledger`.
//!
//! Invariant: reads first `commit_watermark`, so they observe every issued
//! batch completely and no batch partially — a prefix of the admitted
//! stream, or with coalescing a prefix of the commuted schedule in which
//! per-relation admission order is preserved.

use crate::admission::QueuedDelta;
use crate::ledger::ReplyLedger;
use crate::recovery::CheckpointState;
use crate::stats::DriverMetrics;
use crate::{
    install, BatchExecution, ChannelTransport, ClusterTotals, FaultConfig, PipelineConfig,
    PipelineStats, Reply, Request, Transport, WorkerDead,
};
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_distributed::{
    partition_shards, DistStatement, DistStmtKind, DistributedPlan, LocTag, PartitionFn, StmtMode,
    StmtRef, Transform, WorkerState,
};
use hotdog_exec::relabel;
use hotdog_telemetry::{ActiveSpan, SpanContext, Telemetry};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Distributed-block completions each worker may owe the pipelined
/// schedule before the driver waits for the oldest to settle.
const INFLIGHT_BLOCKS: usize = 4;

/// One driver + N workers executing a distributed plan, generic over the
/// [`Transport`] that reaches the workers.
///
/// [`ThreadedCluster`] (= `Driver<ChannelTransport>`) is the in-process
/// thread-per-worker backend; `hotdog-net`'s `TcpCluster` runs the *same*
/// driver over worker subprocesses joined by TCP sockets, and the
/// simulated [`Cluster`](crate::Cluster) (= `Driver<SimTransport>`) over
/// workers executed inline, so the backends can only differ in how bytes
/// move.
/// [`BatchExecution::latency_secs`] is the transport's modelled clock when
/// it has one ([`Transport::clock_secs`]) and measured wall-clock time
/// otherwise.  The crate docs say which module owns which fields.
pub struct Driver<T: Transport> {
    /// Number of workers.
    pub workers: usize,
    /// Shared so a batch can walk its program while the schedule mutates
    /// the driver.
    pub(crate) dplan: Arc<DistributedPlan>,
    /// The driver node's own state (driver-resident views).
    pub(crate) driver: WorkerState,
    pub(crate) transport: T,
    /// Request ids and the block completions each worker owes.
    pub(crate) ledger: ReplyLedger,
    /// Per worker: scattered shards buffered on the driver, shipped as one
    /// `ApplyMany` before the worker's next command (or at batch end).
    pub(crate) pending_applies: Vec<Vec<(StmtRef, Relation)>>,
    /// Whether `ApplyMany` messages have been shipped with nothing behind
    /// them that the driver waits for: no later `RunBlock` (whose owed
    /// completion every commit settles) and no reply round.  Such a
    /// trailing scatter must be barriered before worker state is read, or
    /// before a synchronous batch's wall clock stops.
    pub(crate) applies_in_flight: bool,
    /// `Some` iff this cluster runs the pipelined ingestion path.
    pub(crate) pipeline: Option<PipelineConfig>,
    /// Admitted-but-unissued coalesced delta batches.
    pub(crate) queue: VecDeque<QueuedDelta>,
    /// Serialized footprint of `queue` (incrementally maintained; the
    /// byte-bounded backpressure reads it on every admission).
    pub(crate) queue_bytes: usize,
    /// Batches whose execution has been fully issued to driver and workers.
    pub(crate) issued: u64,
    /// Batches guaranteed visible to reads (issued + drained + barriered).
    pub(crate) watermark: u64,
    /// First admission since the last `flush` (stream wall-clock origin).
    pub(crate) stream_start: Option<Instant>,
    /// Worker fault tolerance (`None` disables it: a worker death then
    /// surfaces as a typed [`WorkerDead`] error / panic).
    pub(crate) fault: Option<FaultConfig>,
    /// The last consistent cut (absent until the first checkpoint; an
    /// absent checkpoint restores to *empty* and replays everything).
    pub(crate) ckpt: Option<CheckpointState>,
    /// Preprocessed deltas issued since the last checkpoint, in issue
    /// order — what recovery replays.  Empty when `fault` is off.
    pub(crate) replay_log: Vec<(String, Relation)>,
    /// Recovery attempts so far (bounded by
    /// [`FaultConfig::max_recoveries`]).
    pub(crate) recoveries: usize,
    /// Views with delta capture enabled (see
    /// [`hotdog_distributed::capture`]); empty = capture off.
    pub(crate) capture_views: Vec<String>,
    /// `recoveries` as of the last capture drain.
    pub(crate) capture_epoch: usize,
    /// Accumulated totals (latencies measured, or modelled over a
    /// transport with a clock).
    pub totals: ClusterTotals,
    /// Shared metrics registry + span tracer (adopted from the
    /// transport when it keeps one, so wire- and scheduler-level metrics
    /// land together).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Cached metric handles for the driver hot paths.
    pub(crate) metrics: DriverMetrics,
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
    /// execution overlaps driver and worker work within a bounded
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
        let driver = WorkerState::with_programs(&dplan.plan, Arc::new(install(&dplan)));
        let telemetry = transport.telemetry().unwrap_or_else(Telemetry::shared);
        let metrics = DriverMetrics::register(&telemetry);
        Driver {
            workers,
            dplan: Arc::new(dplan),
            driver,
            transport,
            ledger: ReplyLedger::new(workers),
            pending_applies: (0..workers).map(|_| Vec::new()).collect(),
            applies_in_flight: false,
            pipeline,
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
            totals: ClusterTotals::default(),
            telemetry,
            metrics,
            trace_scope: SpanContext::NONE,
        }
    }

    /// The compiled distributed plan this cluster runs.
    pub fn plan(&self) -> &DistributedPlan {
        &self.dplan
    }

    /// The transport this cluster issues its commands through.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Whether this cluster runs the pipelined ingestion path.
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Number of batches guaranteed visible to reads: reads observe
    /// exactly this many *issued* batches (post-coalescing), a prefix of
    /// the admitted stream when coalescing is off and of its commuted
    /// schedule otherwise (see [`ThreadedCluster::view_contents`]).
    /// Advanced by reads and by `flush`.
    pub fn watermark(&self) -> u64 {
        self.watermark
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
                self.with_recovery(Self::drain_admission_bounds)?;
                Ok(stats)
            }
        }
    }

    /// Admit a pre-batched update stream in order, then [`Driver::flush`].
    pub fn apply_stream<S: AsRef<str>>(&mut self, batches: &[Vec<(S, Relation)>]) {
        for batch in batches {
            for (rel, delta) in batch {
                self.apply_batch(rel.as_ref(), delta);
            }
        }
        self.flush();
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
        self.with_recovery(Self::flush_inner)
    }

    pub(crate) fn flush_inner(&mut self) -> Result<(), WorkerDead> {
        self.drain_queue()?;
        self.commit_watermark()?;
        if let Some(start) = self.stream_start.take() {
            // Pipelined latency accounting is stream-scoped: the admitted
            // stream's wall-clock (first admission to flush), not a sum of
            // per-batch latencies.
            self.totals.latency_secs += start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Full contents of a view, merged across all nodes holding a piece.
    /// In pipelined mode this commits the watermark first, so the read
    /// observes a consistent batch boundary (see the module docs);
    /// admitted-but-queued batches require a [`ThreadedCluster::flush`] to
    /// become visible.
    pub fn view_contents(&mut self, name: &str) -> Relation {
        self.try_view_contents(name)
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Fallible [`ThreadedCluster::view_contents`]: recovers worker
    /// deaths per the [`FaultConfig`] (reads are idempotent, so the read
    /// is simply retried after recovery) and surfaces the typed error
    /// when recovery is disabled or exhausted.
    pub fn try_view_contents(&mut self, name: &str) -> Result<Relation, WorkerDead> {
        self.with_recovery(|d| d.view_contents_inner(name))
    }

    fn view_contents_inner(&mut self, name: &str) -> Result<Relation, WorkerDead> {
        self.commit_watermark()?;
        let mut out = Relation::new(self.dplan.schema_of(name).unwrap_or_default());
        for part in self.read_view_parts(name)? {
            out.merge(&part);
        }
        Ok(out)
    }

    /// The pieces of a committed view in merge order: the driver's copy of
    /// a `Local` view, worker 0's copy of a `Replicated` one (every worker
    /// holds an identical replica), else every worker's partition.
    pub(crate) fn read_view_parts(&mut self, name: &str) -> Result<Vec<Relation>, WorkerDead> {
        let snapshot = |id| Request::Snapshot {
            id,
            view: name.to_string(),
        };
        match self.dplan.location(name) {
            LocTag::Local => Ok(vec![self.driver.snapshot(name)]),
            LocTag::Replicated => {
                let id = self.ledger.fresh_id();
                self.send_to(0, snapshot(id))?;
                Ok(vec![self.await_reply(0, id, rel_reply)?])
            }
            _ => self.fetch_all(snapshot),
        }
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

    /// Abandon every admitted-but-unissued batch *without executing it*,
    /// shut the workers down, and return the final pipeline stats (with
    /// [`PipelineStats::batches_abandoned`] counting the dropped queue).
    /// This is the observable form of the `Drop` path; use
    /// [`ThreadedCluster::flush`] first if queued batches must be applied.
    /// On an epoch-synchronous driver the admission fields are zero.
    pub fn close(mut self) -> PipelineStats {
        self.abandon_queue();
        self.metrics.pipeline_stats() // `Drop` shuts the workers down
    }

    /// The pipelined-ingestion counters, read from the metric registry, or
    /// `None` in epoch-synchronous mode.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.is_pipelined().then(|| self.metrics.pipeline_stats())
    }

    /// Context of the most recently executed batch's root span: the parent
    /// for stages that run after execution, such as a subscription hub's
    /// fan-out.
    pub fn trace_scope(&self) -> SpanContext {
        self.trace_scope
    }

    /// Epoch-synchronous execution of one maintenance program over a batch
    /// (preprocesses the batch, then delegates).
    fn execute_program(
        &mut self,
        relation: &str,
        batch: &Relation,
    ) -> Result<BatchExecution, WorkerDead> {
        let Some(program) = self.dplan.program(relation) else {
            return Ok(BatchExecution {
                input_tuples: batch.len(),
                ..Default::default()
            });
        };
        // Counted at first issue: a recovery replays the batch uncounted.
        self.totals.tuples += batch.len();
        self.metrics.batches_executed.inc();
        self.metrics.batch_tuples.record(batch.len() as u64);
        let root = self.telemetry.begin_batch_root();
        let admit_span = self.telemetry.begin_span(root.context(), "admit");
        let delta = program.preprocess(batch);
        self.telemetry.finish_span(admit_span);
        self.execute_canonical(relation, delta, batch.len(), false, Some(root))
    }

    /// Run one maintenance program over an owned, preprocessed delta
    /// ([`TriggerProgram::preprocess`](hotdog_distributed::TriggerProgram::preprocess)).
    /// `input_tuples` is the size the stats report: the admitted batch's
    /// on the synchronous path, the delta's own for queued and replayed
    /// deltas (see [`PipelineStats::tuples_executed`]).  The batch and its
    /// input are counted (`totals`, `driver.batches.executed`,
    /// `driver.batch_tuples`) by its first-issue caller, not here, and its
    /// latency and shuffled bytes only by its first completed issue, so a
    /// recovery replay counts none of them again.
    ///
    /// `pipelined = false` is the epoch-synchronous schedule: every
    /// distributed block is barriered before the next starts and trailing
    /// scatters are drained, so the returned stats carry the batch's full
    /// measured wall-clock latency.  `pipelined = true` issues distributed
    /// blocks without collecting their completions (up to the in-flight
    /// window) and leaves trailing scatters un-barriered; completion is
    /// deferred to the next fetch, watermark commit or window bound.
    pub(crate) fn execute_canonical(
        &mut self,
        relation: &str,
        delta: Relation,
        input_tuples: usize,
        pipelined: bool,
        root: Option<ActiveSpan>,
    ) -> Result<BatchExecution, WorkerDead> {
        let wall_start = Instant::now();
        let clock_start = self.transport.clock_secs();
        let mut stats = BatchExecution {
            input_tuples,
            ..Default::default()
        };
        let dplan = Arc::clone(&self.dplan);
        let Some(p) = dplan.programs.iter().position(|pr| pr.relation == relation) else {
            self.telemetry.finish_span(root);
            return Ok(stats);
        };
        let program = &dplan.programs[p];
        // Replayed batches (recovery) arrive rootless: open a fresh root so
        // the replay gets its own tree rather than grafting onto the
        // interrupted one.
        let root = root.unwrap_or_else(|| self.telemetry.begin_batch_root());
        self.trace_scope = root.context();
        // Before any message is issued: a death mid-batch replays it.
        self.log_for_replay(relation, &delta);

        let mut driver_counters = EvalCounters::default();
        for (b, block) in program.blocks.iter().enumerate() {
            match block.mode {
                StmtMode::Local => {
                    for (s, stmt) in block.statements.iter().enumerate() {
                        match &stmt.kind {
                            DistStmtKind::Compute(_) => {
                                let at = (p as u32, b as u32, s as u32);
                                let batch = (relation, &delta);
                                (self.driver.run_statement(at, batch, &mut driver_counters))
                                    .expect("the driver installed every statement of its plan");
                            }
                            DistStmtKind::Transform { kind, source } => {
                                let at = (p as u32, b as u32, s as u32);
                                let bytes =
                                    self.run_transform(at, stmt, kind, source, (relation, &delta))?;
                                stats.bytes_shuffled += bytes;
                            }
                        }
                    }
                }
                StmtMode::Distributed => {
                    if pipelined {
                        // Enforce the in-flight window: replies arrive in
                        // send order, so waiting for the oldest owed
                        // completion blocks only when it has not arrived.
                        for w in 0..self.workers {
                            while self.ledger.pending(w) >= INFLIGHT_BLOCKS {
                                self.await_one_completion(w)?;
                            }
                        }
                    }
                    self.broadcast_block(p as u32, b as u32)?;
                    if !pipelined {
                        // One epoch: barrier on the tagged completions.
                        self.drain_pending_blocks()?;
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
        self.transport.flush_sends();
        if !pipelined && self.applies_in_flight {
            self.barrier_applies()?;
        }

        stats.stages = program.stages();
        // Synchronous mode: the batch's end-to-end wall-clock, or the
        // modelled clock's advance when the transport keeps one.  Pipelined
        // mode: the driver-side issue time only (the stream's end-to-end
        // wall-clock is folded into the totals at `flush`).
        let wall_secs = wall_start.elapsed().as_secs_f64();
        stats.latency_secs = match clock_start {
            Some(start) => self.transport.clock_secs().unwrap_or(start) - start,
            None => wall_secs,
        };
        // The root closes here even in pipelined mode (where trailing
        // applies are still in flight): the window is the driver's issue
        // span, and post-close stages (watermark commit, fan-out) record
        // under `trace_scope` as clipped children.
        self.telemetry.finish_span(Some(root));

        self.issued += 1;
        self.metrics
            .ledger_outstanding
            .set(self.ledger.pending_total() as u64);
        if !pipelined {
            self.watermark = self.issued;
        }
        // Counted when a batch first completes its issue: `latencies` holds
        // one entry per issue position reached, so a recovery replaying a
        // batch that already got one stays out of the totals.
        if self.issued as usize > self.totals.latencies.len() {
            if self.pipeline.is_none() {
                // Pipelined stream wall-clock is folded in at `flush` instead.
                self.totals.latency_secs += stats.latency_secs;
            }
            self.totals.bytes_shuffled += stats.bytes_shuffled;
            self.totals.latencies.push(stats.latency_secs);
        }
        // After the batch's own accounting, so a checkpointed batch never
        // rides the replay log past its own checkpoint.
        self.checkpoint_if_due()?;
        Ok(stats)
    }

    /// Run block `block` of program `program` on every worker (behind its
    /// buffered scatter shards) and enter its completions into the ledger.
    fn broadcast_block(&mut self, program: u32, block: u32) -> Result<(), WorkerDead> {
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.ledger.fresh_id();
            self.send_to(
                w,
                Request::RunBlock {
                    id,
                    ctx: self.trace_scope,
                    program,
                    block,
                },
            )?;
            self.ledger.expect_completion(w, id);
        }
        // Every worker's commands for the block are queued: send them.
        self.transport.flush_sends();
        // Each worker runs the block behind its applies, and the owed
        // completion is settled before any read: it covers them.
        self.applies_in_flight = false;
        Ok(())
    }

    /// Execute the transformer statement at `at`; returns the bytes moved.
    fn run_transform(
        &mut self,
        at: StmtRef,
        stmt: &DistStatement,
        kind: &Transform,
        source: &str,
        (relation, delta): (&str, &Relation),
    ) -> Result<usize, WorkerDead> {
        match kind {
            // `partition_shards` re-keys the source to the target schema
            // and builds every shard canonically: the batch is scattered by
            // reference, with no copy or relabel first.
            // The batch's scatter reads `Δ<relation>`.
            Transform::Scatter(pf) => Ok(if source.strip_prefix('Δ') == Some(relation) {
                self.scatter(pf, delta, at, stmt)
            } else {
                let view = self.driver.read(source);
                self.scatter(pf, &view, at, stmt)
            }),
            Transform::Repart(pf) => {
                let collected = self.gather(stmt, source)?;
                let moved = collected.serialized_size();
                self.scatter(pf, &collected, at, stmt);
                Ok(moved + collected.serialized_size())
            }
            Transform::Gather => {
                let collected = self.gather(stmt, source)?;
                let bytes = collected.serialized_size();
                self.driver.apply(stmt, collected);
                Ok(bytes)
            }
        }
    }

    /// Fetch `source` from every worker and merge the parts, in worker
    /// order, under the statement's target schema.
    fn gather(&mut self, stmt: &DistStatement, source: &str) -> Result<Relation, WorkerDead> {
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
        Ok(collected)
    }

    /// Fetch one relation from every worker, in worker order.  The requests
    /// are issued to *every* worker immediately and each reply is awaited
    /// by its request id; pending block completions settle into the ledger
    /// as their replies arrive instead of being drained up front, so
    /// workers flow from their in-flight blocks straight into the fetch
    /// with the request already queued.
    fn fetch_all(&mut self, make: impl Fn(u64) -> Request) -> Result<Vec<Relation>, WorkerDead> {
        if self.ledger.pending_total() > 0 {
            self.metrics.gathers_overlapped.inc();
        }
        let gather_start = Instant::now();
        let rels = self.round(make, rel_reply)?;
        let micros = gather_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics.gather_micros.record(micros);
        Ok(rels)
    }

    /// Buffer per-worker shards of a driver-held relation for shipment,
    /// each tagged with the position `at` of the scatter statement `stmt`
    /// that installs it; returns the bytes moved.  Empty shards are
    /// buffered too: a `SetTo` scatter must clear stale buffers on workers
    /// that receive no rows this batch.  Shards ride in the worker's next
    /// `ApplyMany` (shipped before its next command, or at batch end).
    fn scatter(
        &mut self,
        pf: &PartitionFn,
        src: &Relation,
        at: StmtRef,
        stmt: &DistStatement,
    ) -> usize {
        let span = self
            .telemetry
            .begin_span(self.trace_scope, "scatter.encode");
        let (shards, bytes) = partition_shards(pf, src, stmt, self.workers);
        self.telemetry.finish_span(span);
        for (w, shard) in shards.into_iter().enumerate() {
            self.pending_applies[w].push((at, shard));
        }
        bytes
    }

    /// Ship worker `w`'s buffered scatter shards as one `ApplyMany`
    /// message.  Must run before any other command is sent to `w`, so the
    /// worker installs the shards first (command channels are FIFO).
    pub(crate) fn ship_applies(&mut self, w: usize) -> Result<(), WorkerDead> {
        if self.pending_applies[w].is_empty() {
            return Ok(());
        }
        let applies = std::mem::take(&mut self.pending_applies[w]);
        self.metrics.scatter_shards.add(applies.len() as u64);
        let id = self.ledger.fresh_id();
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
        self.round(
            |id| Request::Barrier { id },
            |reply| matches!(reply, Reply::Ack { .. }).then_some(()),
        )?;
        Ok(())
    }

    /// Commit the watermark: after this, every issued batch is fully
    /// applied on every node and safe to read.  Ships any buffered
    /// scatters, settles the whole request-id ledger and barriers trailing
    /// applies.
    pub(crate) fn commit_watermark(&mut self) -> Result<(), WorkerDead> {
        // No-op commits (watermark already current, nothing buffered) are
        // spanless, so read-heavy workloads do not flood the trace with
        // empty "watermark.commit" entries.
        if self.watermark == self.issued
            && !self.applies_in_flight
            && self.pending_applies.iter().all(Vec::is_empty)
        {
            return Ok(());
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
}

/// Destructure the `Rel` a `Fetch`/`Snapshot` is answered with.
fn rel_reply(reply: Reply) -> Option<Relation> {
    match reply {
        Reply::Rel { rel, .. } => Some(rel),
        _ => None,
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
        // Workers only need their command channels drained; uncollected
        // block replies are discarded with the reply channels.
        self.transport.shutdown();
        self.telemetry.flush_trace_on_drop();
    }
}
