//! # hotdog-distributed
//!
//! Distributed incremental view maintenance (Section 4 of the paper):
//!
//! * [`partition`] — location tags (`Local`, `Dist(P)`, `Random`,
//!   `Replicated`), partitioning functions and the per-view partitioning
//!   specification (including the paper's key-based heuristic);
//! * [`program`] — the compiler that turns a local maintenance plan into a
//!   distributed program: location annotation, replicated view placement,
//!   transformer insertion (`Scatter`/`Repart`/`Gather`), intra-statement
//!   optimization, CSE/DCE and the block-fusion algorithm, staged behind
//!   [`program::OptLevel`] (O0–O3, matching Figure 13);
//! * [`protocol`] — the driver↔worker message set (FIFO commands,
//!   id-tagged replies) and the per-node request interpreter shared by the
//!   thread-channel transport (`hotdog-runtime`) and the TCP transport
//!   (`hotdog-net`);
//! * [`worker`] — backend-agnostic per-node state ([`worker::WorkerState`]):
//!   one node's view partitions, exchange buffers and the statement
//!   execution/application rules shared by every execution backend;
//! * [`capture`] — the per-node capture log's batch format and the
//!   client-side [`ViewAccumulator`] that replays it.
//!
//! This crate defines no backend interface.  Every backend — the simulated
//! cluster included — is `hotdog-runtime`'s one transport-generic
//! `Driver<T>` running these programs over [`worker::WorkerState`]s:
//! `Cluster` = `Driver<SimTransport>` executes the workers inline and
//! models latency (per-stage synchronization, shuffle bandwidth,
//! stragglers); the threaded and TCP backends measure it.

#![forbid(unsafe_code)]

pub mod capture;
pub mod partition;
pub mod program;
pub mod protocol;
pub mod worker;

pub use capture::{assemble_views, CaptureBatch, CapturedView, ViewAccumulator};
pub use partition::{partition_shards, LocTag, PartitionFn, PartitioningSpec};
pub use program::{
    compile_distributed, Block, DistStatement, DistStmtKind, DistributedPlan, OptLevel,
    ProgramBlocks, StmtMode, Transform, TriggerProgram, WholeViewMoves,
};
pub use protocol::{handle_request, WorkerReply, WorkerRequest};
pub use worker::{
    Programs, StmtRef, Temps, UnknownStatement, WorkerSnapshot, WorkerState, WorkerStats,
    WorkerStatsSnapshot,
};
