//! Admission: the coalescing queue in front of the schedule.
//! `apply_batch` *admits*; an admitted batch is ring-summed into the
//! latest queued delta of the same relation (batched IVM triggers are
//! exact for any delta, so same-relation deltas commute past other
//! relations' batches — exact in real arithmetic, re-associated in float).
//! The count and byte bounds of
//! [`PipelineConfig`](crate::PipelineConfig) each drive execution of the
//! queue front.  A synchronous driver (no `PipelineConfig`) admits with
//! capacity 0, coalescing off and no byte bound, so every batch it admits
//! executes at once.
//!
//! Invariants: per-relation admission order is preserved and
//! `queue_bytes` is the exact serialized footprint of `queue`.

use crate::{Driver, Transport, WorkerDead};
use hotdog_algebra::relation::Relation;
use hotdog_telemetry::ActiveSpan;
use std::time::Instant;

/// One admitted-but-unissued coalesced delta in the admission queue.
pub(crate) struct QueuedDelta {
    relation: String,
    delta: Relation,
    /// This batch's root span, opened at admission so queue dwell time is
    /// inside the root window; coalesced admissions record their
    /// `coalesce` child under it, and execution closes it.
    root: ActiveSpan,
}

impl<T: Transport> Driver<T> {
    /// Admitted-but-unissued batches currently held in the admission queue
    /// (post-coalescing).
    pub fn queued_batches(&self) -> usize {
        self.queue.len()
    }

    /// Serialized footprint of the admission queue in bytes (what the
    /// `admit_bytes` backpressure bound is enforced against).
    pub fn queued_bytes(&self) -> usize {
        self.queue_bytes
    }

    /// Pop and execute the front of a non-empty queue.  A worker death
    /// mid-execution leaves the entry popped: it was logged before any
    /// message was issued, so recovery replays it to completion rather
    /// than re-queueing it.
    fn execute_queue_front(&mut self) -> Result<(), WorkerDead> {
        let entry = self.queue.pop_front().expect("the queue is not empty");
        self.queue_bytes -= entry.delta.serialized_size();
        // Counted at first issue: a recovery replays the delta uncounted.
        // Its admitted tuples were counted into the totals at admission.
        self.metrics.batches_executed.inc();
        self.metrics.batch_tuples.record(entry.delta.len() as u64);
        self.execute_canonical(&entry.relation, entry.delta, Some(entry.root))
    }

    /// Execute every queued delta, oldest first.
    pub(crate) fn drain_queue(&mut self) -> Result<(), WorkerDead> {
        while !self.queue.is_empty() {
            self.execute_queue_front()?;
        }
        Ok(())
    }

    /// Admission: coalesce into the queue tail or enqueue.
    /// Driver-only (infallible); [`Driver::drain_admission_bounds`] then
    /// drives execution while the queue exceeds the admission capacity or
    /// the byte bound — keeping the fallible worker traffic out of the
    /// enqueue step so an admission is never double-counted across a
    /// recovery retry.
    ///
    /// Every admitted batch is preprocessed first
    /// ([`TriggerProgram::preprocess`](hotdog_distributed::TriggerProgram::preprocess)),
    /// so queued deltas carry only the tuples the trigger's filter admits and
    /// the columns the trigger reads: coalescing is a plain ring-sum into
    /// the tail, and execution moves the delta straight into the trigger
    /// with no further copy.
    pub(crate) fn admit(&mut self, relation: &str, batch: &Relation) {
        if self.pipeline.is_some() {
            // A synchronous driver sums per-batch latencies instead.
            self.stream_start.get_or_insert_with(Instant::now);
        }
        self.metrics.batches_admitted.inc();
        self.metrics.tuples_admitted.add(batch.len() as u64);
        // Batches to relations the plan has no trigger for are no-ops; do
        // not let them split a coalescing run.
        let Some(program) = self.dplan.program(relation) else {
            return;
        };
        self.totals.tuples += batch.len();

        // Merge into the *latest* queued delta of the same relation (not
        // just the queue tail).  Batched IVM triggers are exact for any
        // delta against any current state, so same-relation deltas commute
        // past other relations' batches: the flushed state is identical in
        // real arithmetic, and interleaved streams (where consecutive
        // same-relation batches are rare) still coalesce well.  Per-relation
        // admission order is preserved.
        let coalesce_bound = self.pipeline.as_ref().map_or(0, |c| c.coalesce_tuples);
        let coalesced = match self.queue.iter_mut().rev().find(|q| q.relation == relation) {
            // The preprocessed batch is at most `batch.len()` tuples, so
            // the merged delta stays within the bound.
            Some(q) if coalesce_bound > 0 && q.delta.len() + batch.len() <= coalesce_bound => {
                // The merged-into delta's root is still open (it closes at
                // execution), so the coalesce lands inside its window.
                let span = self.telemetry.begin_span(q.root.context(), "coalesce");
                let before = q.delta.serialized_size();
                program.preprocess_into(batch, &mut q.delta);
                self.queue_bytes = self.queue_bytes - before + q.delta.serialized_size();
                self.telemetry.finish_span(span);
                true
            }
            _ => false,
        };
        if coalesced {
            self.metrics.batches_coalesced.inc();
        } else {
            // The batch root opens here, not at execution, so queue dwell
            // time is part of the batch's wall-clock window.
            let root = self.telemetry.begin_batch_root();
            let admit_span = self.telemetry.begin_span(root.context(), "admit");
            let delta = program.preprocess(batch);
            self.telemetry.finish_span(admit_span);
            self.queue_bytes += delta.serialized_size();
            self.queue.push_back(QueuedDelta {
                relation: relation.to_string(),
                delta,
                root,
            });
        }
        self.metrics.queue_depth.set(self.queue.len() as u64);
        self.metrics.queue_bytes.set(self.queue_bytes as u64);
    }

    /// Enforce the admission bounds after an [`Driver::admit`]: byte
    /// budget, then count capacity, oldest first.  This is the fallible
    /// half of admission (it issues worker traffic); retrying it after a
    /// recovery is safe because every bound is re-checked from current
    /// queue state.  On a synchronous driver (capacity 0) it executes the
    /// batch just admitted.
    pub(crate) fn drain_admission_bounds(&mut self) -> Result<(), WorkerDead> {
        let (admit_bytes, admit_capacity) =
            (self.pipeline.as_ref()).map_or((0, 0), |c| (c.admit_bytes, c.admit_capacity));
        // Backpressure, oldest first.  Byte bound: shed queued work until
        // the footprint fits (a single oversized delta executes
        // immediately, emptying the queue).
        while admit_bytes > 0 && self.queue_bytes > admit_bytes {
            self.execute_queue_front()?;
            self.metrics.batches_forced_by_bytes.inc();
        }
        // Count capacity.
        while self.queue.len() > admit_capacity {
            self.execute_queue_front()?;
        }
        self.metrics.queue_depth.set(self.queue.len() as u64);
        self.metrics.queue_bytes.set(self.queue_bytes as u64);
        Ok(())
    }

    /// Drop queued deltas without executing them (no maintenance program
    /// runs, no worker messages are sent).
    pub(crate) fn abandon_queue(&mut self) {
        self.metrics.batches_abandoned.add(self.queue.len() as u64);
        self.queue.clear();
        self.queue_bytes = 0;
    }
}
