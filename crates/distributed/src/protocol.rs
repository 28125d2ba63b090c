//! The driver↔worker message set shared by every real execution backend.
//!
//! The thread-per-worker runtime (`hotdog-runtime`) and the multi-process
//! TCP runtime (`hotdog-net`) speak the same protocol: FIFO command
//! channels carrying [`WorkerRequest`]s, answered by id-tagged
//! [`WorkerReply`]s.  Defining the messages here — next to
//! [`WorkerState`], which executes them — keeps the two transports
//! semantically identical by construction: both run
//! [`handle_request`] over the same per-node state machine, and only the
//! byte-level encoding (an in-process `mpsc` move vs. the `hotdog-net`
//! length-prefixed codec) differs.
//!
//! Statements never cross the wire, and compile once.  Every worker
//! starts with the plan's [`ProgramBlocks`] installed as [`Programs`],
//! each statement compiled — handed over through an `Arc` in process, or
//! compiled by a TCP worker from the query its `Init` frame names (the
//! worker refuses a plan digest it does not reproduce, or a statement
//! that does not compile) — and commands name statements by position in
//! them:
//! a `RunBlock` names a `(program, block)`, an `ApplyMany` shard the
//! `(program, block, statement)` ([`StmtRef`]) that installs it.  A
//! position the worker's programs do not hold is an [`UnknownStatement`]
//! error, never a panic.
//!
//! [`ProgramBlocks`]: crate::program::ProgramBlocks
//! [`Programs`]: crate::worker::Programs
//!
//! Two-layer contract of the **tagged-reply protocol**:
//!
//! * **Command order is per-channel FIFO** — an `ApplyMany` enqueued before
//!   a `RunBlock` is guaranteed to be installed before the block executes,
//!   and a `Fetch` enqueued after a `RunBlock` observes the block's writes.
//!   This is what keeps worker *state evolution* identical to the
//!   synchronous schedule.
//! * **Replies come back in command order, tagged** — every command that
//!   produces a reply carries an `id` the worker echoes back.  A worker
//!   handles one command at a time, so the driver reads its replies in the
//!   order it sent the commands and checks each id against its completion
//!   ledger: a gather of batch *k* queues behind the in-flight blocks and
//!   settles their completions as it reads past them to its own ids.

use crate::worker::{StmtRef, UnknownStatement, WorkerSnapshot, WorkerState, WorkerStatsSnapshot};
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_ivm::StmtOp;
use hotdog_telemetry::trace::{SpanContext, SpanRecord};

/// Commands the driver sends to a worker (thread or process).
///
/// The batch-path commands (`RunBlock`/`ApplyMany`/`Fetch`) carry a
/// wire-propagated [`SpanContext`] — `(trace_id, parent_span)` of the
/// batch they belong to — under which the worker opens its own spans.
/// The finished [`SpanRecord`]s ship back piggybacked on the next tagged
/// `Stats` reply, so one batch yields one stitched span tree whether the
/// transport is an in-process channel or TCP.
pub enum WorkerRequest {
    /// Execute block `block` of program `program` over this worker's
    /// shard and report the interpreter work performed.
    RunBlock {
        id: u64,
        ctx: SpanContext,
        program: u32,
        block: u32,
    },
    /// Install a batch of scattered shards into their statements' targets,
    /// in statement order.  One `ApplyMany` per worker per batch replaces
    /// the per-statement `Apply` messages of the positional protocol
    /// (produces no reply; a `Barrier` or any later tagged reply proves
    /// delivery via command FIFO).
    ApplyMany {
        /// Ids are uniform across the protocol; only replies are matched
        /// against the ledger, so this one is never awaited.
        id: u64,
        ctx: SpanContext,
        applies: Vec<(StmtRef, Relation)>,
    },
    /// Send back an exchange buffer (or this worker's view partition).
    Fetch {
        id: u64,
        ctx: SpanContext,
        name: String,
    },
    /// Send back this worker's partition of a materialized view.
    Snapshot { id: u64, view: String },
    /// Acknowledge that everything enqueued so far has been processed
    /// (drains trailing `ApplyMany`s so measured batch latency includes
    /// them).
    Barrier { id: u64 },
    /// Report this node's cumulative work counters and view-partition
    /// cardinalities (the telemetry gather; command FIFO means the
    /// snapshot reflects every previously enqueued command).
    Stats { id: u64 },
    /// Liveness probe: answered immediately with a `Pong` echoing the id.
    /// Heartbeats are a *transport* concern — the TCP transport injects
    /// Pings below the driver's accounting chokepoint and consumes the
    /// Pongs itself — but the message rides the shared protocol so every
    /// backend's worker loop answers it identically.
    Ping { id: u64 },
    /// Checkpoint epoch: canonicalize this node's state (the epoch barrier
    /// that makes restored and surviving nodes bit-identical) and reply
    /// with a `Checkpoint` carrying the node's [`WorkerSnapshot`] (view
    /// partitions and work counters), which recovery sends back in a
    /// `Restore`.
    Checkpoint { id: u64 },
    /// Reset this node to a previously checkpointed state (or to empty,
    /// for a respawned worker with no checkpoint yet); answered with an
    /// `Ack`.  Command FIFO means every stale in-flight command lands
    /// before the `Restore`, and its effects are wiped by it.
    Restore {
        id: u64,
        snapshot: Box<WorkerSnapshot>,
    },
    /// Enable statement capture for the named views on this node (replacing
    /// any previous capture set and discarding its log); answered with an
    /// `Ack`.  An empty list disables capture.  The subscription layer's
    /// delta-capture switch (see [`WorkerState::set_capture`]).
    SetCapture { id: u64, views: Vec<String> },
    /// Drain this node's capture log; answered with a `Captured` carrying
    /// the `(view, op, relation)` entries in exact application order.
    /// Command FIFO means the log covers every previously enqueued
    /// `RunBlock`/`ApplyMany`, which is what makes a post-commit drain
    /// watermark-consistent.
    TakeCaptured { id: u64 },
    /// Exit the worker loop.
    Shutdown,
}

/// Worker responses, each echoing the request id it answers
/// (`RunBlock` → `Ran`, `Fetch`/`Snapshot` → `Rel`, `Barrier` → `Ack`,
/// `Stats` → `Stats`).
pub enum WorkerReply {
    Ran {
        id: u64,
        instructions: u64,
    },
    Rel {
        id: u64,
        rel: Relation,
    },
    Ack {
        id: u64,
    },
    Stats {
        id: u64,
        snapshot: WorkerStatsSnapshot,
        /// This node's finished spans since the previous `Stats` round,
        /// drained for the driver to stitch into its trace trees.  Rides
        /// *next to* the snapshot, not inside it: the snapshot is part of
        /// the deterministic `worker_stats()` equality the oracle
        /// compares, while span durations are wall-clock by definition.
        spans: Vec<SpanRecord>,
    },
    Pong {
        id: u64,
    },
    Checkpoint {
        id: u64,
        snapshot: Box<WorkerSnapshot>,
    },
    Captured {
        id: u64,
        ops: Vec<(String, StmtOp, Relation)>,
    },
}

/// Execute one request against a worker's state — the single statement
/// interpreter every transport's event loop delegates to, so the thread
/// and TCP workers cannot diverge in semantics.
///
/// Returns the reply to send back, or `None` for fire-and-forget commands
/// (`ApplyMany`).  [`WorkerRequest::Shutdown`] is a transport-level
/// concern (the event loop must stop reading); callers match it before
/// delegating here, and passing it anyway is a no-op returning `None`.
/// A command naming a position outside the worker's
/// [`ProgramBlocks`](crate::program::ProgramBlocks) fails with
/// [`UnknownStatement`]; the worker is then unusable and its event loop
/// should end.
pub fn handle_request(
    state: &mut WorkerState,
    request: WorkerRequest,
) -> Result<Option<WorkerReply>, UnknownStatement> {
    Ok(match request {
        WorkerRequest::RunBlock {
            id,
            ctx,
            program,
            block,
        } => {
            let span = state.tracer.begin(ctx, "worker.run_block");
            state.stats.blocks_run += 1;
            let mut counters = EvalCounters::default();
            state.run_block(program, block, &mut counters)?;
            state.tracer.finish(span);
            Some(WorkerReply::Ran {
                id,
                instructions: counters.instructions(),
            })
        }
        WorkerRequest::ApplyMany { ctx, applies, .. } => {
            let span = state.tracer.begin(ctx, "worker.apply");
            state.apply_all(applies)?;
            state.tracer.finish(span);
            None
        }
        WorkerRequest::Fetch { id, ctx, name } => {
            let span = state.tracer.begin(ctx, "worker.fetch");
            let rel = state.read(&name);
            state.tracer.finish(span);
            Some(WorkerReply::Rel { id, rel })
        }
        WorkerRequest::Snapshot { id, view } => Some(WorkerReply::Rel {
            id,
            rel: state.snapshot(&view),
        }),
        WorkerRequest::Barrier { id } => Some(WorkerReply::Ack { id }),
        WorkerRequest::Stats { id } => Some(WorkerReply::Stats {
            id,
            snapshot: state.stats_snapshot(),
            spans: state.tracer.take(),
        }),
        WorkerRequest::Ping { id } => Some(WorkerReply::Pong { id }),
        WorkerRequest::Checkpoint { id } => {
            state.canonicalize();
            Some(WorkerReply::Checkpoint {
                id,
                snapshot: Box::new(state.snapshot_state()),
            })
        }
        WorkerRequest::Restore { id, snapshot } => {
            state.restore_state(&snapshot);
            Some(WorkerReply::Ack { id })
        }
        WorkerRequest::SetCapture { id, views } => {
            state.set_capture(views);
            Some(WorkerReply::Ack { id })
        }
        WorkerRequest::TakeCaptured { id } => Some(WorkerReply::Captured {
            id,
            ops: state.take_captured(),
        }),
        WorkerRequest::Shutdown => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DistStatement, DistStmtKind, StmtMode};
    use crate::worker::Programs;
    use hotdog_algebra::expr::view;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_ivm::{compile_recursive, StmtOp};
    use std::sync::Arc;

    fn buf_stmt(op: StmtOp) -> DistStatement {
        DistStatement {
            target: "buf".into(),
            target_schema: Schema::new(["B"]),
            op,
            kind: DistStmtKind::Compute(view("Q", ["B"])),
            mode: StmtMode::Local,
        }
    }

    /// A worker whose one program is one block: an `AddTo` then a `SetTo`
    /// of the same exchange buffer.
    fn state() -> WorkerState {
        let plan = compile_recursive(
            "Q",
            &hotdog_algebra::expr::sum(
                ["B"],
                hotdog_algebra::expr::join(
                    hotdog_algebra::expr::rel("R", ["A", "B"]),
                    hotdog_algebra::expr::rel("S", ["B", "C"]),
                ),
            ),
        );
        let programs = vec![vec![vec![buf_stmt(StmtOp::AddTo), buf_stmt(StmtOp::SetTo)]]];
        WorkerState::with_programs(&plan, Arc::new(Programs::install(programs).unwrap()))
    }

    #[test]
    fn replies_echo_request_ids() {
        let mut st = state();
        match handle_request(
            &mut st,
            WorkerRequest::Snapshot {
                id: 42,
                view: "Q".into(),
            },
        ) {
            Ok(Some(WorkerReply::Rel { id, .. })) => assert_eq!(id, 42),
            _ => panic!("snapshot must answer with Rel"),
        }
        match handle_request(&mut st, WorkerRequest::Barrier { id: 7 }) {
            Ok(Some(WorkerReply::Ack { id })) => assert_eq!(id, 7),
            _ => panic!("barrier must answer with Ack"),
        }
    }

    #[test]
    fn apply_many_is_fire_and_forget_and_applies_in_order() {
        let mut st = state();
        let a = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![1], 1.0)]);
        let b = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![2], 5.0)]);
        let reply = handle_request(
            &mut st,
            WorkerRequest::ApplyMany {
                id: 1,
                ctx: SpanContext::NONE,
                applies: vec![((0, 0, 0), a), ((0, 0, 1), b.clone())],
            },
        );
        assert!(matches!(reply, Ok(None)));
        // The later SetTo overwrote the earlier AddTo, as statement order
        // demands.
        assert!(st.temps["buf"].approx_eq(&b));
    }

    #[test]
    fn positions_outside_the_programs_are_errors() {
        let mut st = state();
        let run = |program, block| WorkerRequest::RunBlock {
            id: 1,
            ctx: SpanContext::NONE,
            program,
            block,
        };
        assert!(matches!(
            handle_request(&mut st, run(0, 0)),
            Ok(Some(WorkerReply::Ran { id: 1, .. }))
        ));
        for (program, block) in [(1, 0), (0, 1), (u32::MAX, u32::MAX)] {
            let err = handle_request(&mut st, run(program, block)).err();
            assert_eq!(
                err,
                Some(UnknownStatement {
                    program,
                    block,
                    statement: None
                })
            );
        }
        let shard = Relation::new(Schema::new(["B"]));
        for at in [(0, 0, 2), (0, 1, 0), (1, 0, 0)] {
            let err = handle_request(
                &mut st,
                WorkerRequest::ApplyMany {
                    id: 2,
                    ctx: SpanContext::NONE,
                    applies: vec![(at, shard.clone())],
                },
            )
            .err();
            assert_eq!(
                err.map(|e| (e.program, e.block, e.statement)),
                Some((at.0, at.1, Some(at.2)))
            );
        }
    }
}
