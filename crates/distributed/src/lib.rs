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
//! * [`cluster`] — the simulated synchronous driver/worker cluster that
//!   executes the distributed programs over real partitioned state and
//!   models latency (per-stage synchronization, shuffle bandwidth,
//!   stragglers).  The real thread-per-worker backend lives in the
//!   `hotdog-runtime` crate and runs the same programs over the same
//!   [`worker::WorkerState`] machinery;
//! * [`backend`] — the [`Backend`] trait shared by every execution backend
//!   (simulated, synchronous-threaded, pipelined), so benches and
//!   differential tests are written once.

#![forbid(unsafe_code)]

pub mod backend;
pub mod capture;
pub mod cluster;
pub mod partition;
pub mod program;
pub mod protocol;
pub mod worker;

pub use backend::{Backend, PipelineStats};
pub use capture::{assemble_views, CaptureBatch, CapturedView, DeltaCapture, ViewAccumulator};
pub use cluster::{partition_shards, BatchExecution, Cluster, ClusterConfig, ClusterTotals};
pub use partition::{LocTag, PartitionFn, PartitioningSpec};
pub use program::{
    compile_distributed, Block, DistStatement, DistStmtKind, DistributedPlan, OptLevel, StmtMode,
    Transform, TriggerProgram, WholeViewMoves,
};
pub use protocol::{handle_request, WorkerReply, WorkerRequest};
pub use worker::{
    NodeCatalog, Temps, WorkerSnapshot, WorkerState, WorkerStats, WorkerStatsSnapshot,
};
