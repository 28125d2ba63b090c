//! Worker fault tolerance: the checkpoint cut (`ckpt`), the log of deltas
//! issued since (`replay_log`), and recovery.  A batch is logged *before*
//! its first message, so a death mid-batch replays it to completion; a
//! checkpoint follows the batch's own accounting, so a batch never rides
//! the log past its own cut; recovery restores *every* node to the cut and
//! replays on the epoch-synchronous schedule — which makes a faulted run
//! bit-identical to an unfaulted one under the same [`FaultConfig`].

use crate::{Driver, FaultConfig, Reply, Request, Transport, WorkerDead};
use hotdog_algebra::relation::Relation;
use hotdog_distributed::WorkerSnapshot;
use std::time::Instant;

/// One consistent cut: everything needed to roll the whole cluster —
/// driver included — back to `issued` batches.
pub(crate) struct CheckpointState {
    /// Value of `Driver::issued` at the cut.
    issued: u64,
    /// Driver-resident state at the cut (canonical).
    driver: WorkerSnapshot,
    /// Per-worker state at the cut: the full snapshots the workers
    /// shipped in their `Checkpoint` replies.
    workers: Vec<WorkerSnapshot>,
}

impl<T: Transport> Driver<T> {
    /// Install (or clear) the fault-tolerance configuration.  Must be set
    /// before the first batch: checkpoints are cuts of the issue counter,
    /// and a config installed mid-stream would have no checkpoint covering
    /// the batches already issued.
    pub fn set_fault_config(&mut self, fault: Option<FaultConfig>) {
        assert_eq!(
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

    /// Run `op`, recovering worker deaths per the [`FaultConfig`] and
    /// retrying (every caller's `op` is idempotent or re-checks its own
    /// progress); surfaces the typed error when recovery is disabled or
    /// exhausted.
    pub(crate) fn with_recovery<R>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<R, WorkerDead>,
    ) -> Result<R, WorkerDead> {
        loop {
            match op(self) {
                Ok(value) => return Ok(value),
                Err(dead) => self.recover(dead)?,
            }
        }
    }

    /// Log a delta about to be issued (no-op with fault tolerance off).
    /// The log holds preprocessed deltas, so replay re-enters
    /// `execute_canonical` directly.
    pub(crate) fn log_for_replay(&mut self, relation: &str, delta: &Relation) {
        if self.fault.is_some() {
            self.replay_log.push((relation.to_string(), delta.clone()));
        }
    }

    /// Checkpoint epoch, every `checkpoint_every` issued batches: drain
    /// in-flight work to the watermark, canonicalize every node (the epoch
    /// barrier that makes a later restore bit-identical to the surviving
    /// nodes' state — see `Database::canonicalize`), and store a full
    /// cluster cut.
    pub(crate) fn checkpoint_if_due(&mut self) -> Result<(), WorkerDead> {
        let due = self.fault.as_ref().is_some_and(|c| {
            c.checkpoint_every > 0 && self.issued.is_multiple_of(c.checkpoint_every)
        });
        if !due {
            return Ok(());
        }
        self.commit_watermark()?;
        self.driver.canonicalize();
        let workers = self.round(
            |id| Request::Checkpoint { id },
            |reply| match reply {
                Reply::Checkpoint { snapshot, .. } => Some(*snapshot),
                _ => None,
            },
        )?;
        self.ckpt = Some(CheckpointState {
            issued: self.issued,
            driver: self.driver.snapshot_state(),
            workers,
        });
        self.replay_log.clear();
        self.metrics.recovery_checkpoints.inc();
        Ok(())
    }

    /// Recover from a worker death, or surface it as the typed error when
    /// recovery is disabled (`fault == None`) or the recovery budget is
    /// exhausted.  Loops because a recovery attempt can itself hit another
    /// dead worker (cascading failures): each new death consumes one more
    /// attempt from [`FaultConfig::max_recoveries`].
    pub(crate) fn recover(&mut self, mut cause: WorkerDead) -> Result<(), WorkerDead> {
        loop {
            // Every death counts, also one that surfaces as the error.
            self.metrics.worker_declared_dead.inc();
            let Some(cfg) = &self.fault else {
                return Err(cause);
            };
            if self.recoveries >= cfg.max_recoveries {
                return Err(cause);
            }
            self.recoveries += 1;
            self.metrics.recovery_attempts.inc();
            let start = Instant::now();
            match self.recover_once(cause.index) {
                Ok(()) => {
                    let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    self.metrics.recovery_micros.record(micros);
                    return Ok(());
                }
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

        // Outstanding ids and buffered shards belong to the abandoned
        // epoch: the restore wipes their effects, and replay re-issues
        // them under fresh ids.
        self.ledger.reset();
        self.pending_applies.iter_mut().for_each(Vec::clear);
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
            let id = self.ledger.fresh_id();
            self.send_to(
                w,
                Request::Restore {
                    id,
                    snapshot: Box::new(snap),
                },
            )?;
            // Replies the abandoned epoch left on the wire are older than
            // the Restore and than anything owed, so the wait drops them.
            self.await_reply(w, id, |reply| {
                matches!(reply, Reply::Ack { .. }).then_some(())
            })?;
        }
        self.metrics
            .recovery_restored_workers
            .add(self.workers as u64);
        self.issued = ckpt_issued;
        self.watermark = ckpt_issued;

        let log = std::mem::take(&mut self.replay_log);
        self.metrics.recovery_replayed.add(log.len() as u64);
        for (rel, delta) in log {
            // Epoch-synchronous replay: re-enters the log (and re-takes
            // checkpoints) exactly as the original schedule did, under a
            // fresh root span per replayed batch.
            let tuples = delta.len();
            self.execute_canonical(&rel, delta, tuples, false, None)?;
        }
        Ok(())
    }
}
