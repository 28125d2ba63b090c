//! # hotdog-net
//!
//! A real socket transport for the distributed IVM runtime: the same
//! driver, the same FIFO-command/tagged-reply protocol, with worker
//! *processes* joined by TCP instead of worker threads joined by `mpsc`
//! channels.
//!
//! Three pieces:
//!
//! * [`codec`] — a hand-rolled, length-prefixed binary encoding (no
//!   serde; the build image is offline) for the full driver↔worker
//!   message set: values, tuples, relations, expressions, the `Init`
//!   that names the query and how the driver compiled it (never a
//!   statement), commands that name statements by index, and the
//!   `Ran`/`Rel`/`Ack` replies.
//!   Floats travel as raw IEEE-754 bits and relations as sorted pair
//!   lists, so decoded state is **bit-identical** — in content and in map
//!   layout — to what an in-process backend holds.
//! * [`worker`] — the worker event loop over one TCP stream (what the
//!   `hotdog-worker` binary runs): `Hello` handshake, `Init` — from which
//!   the worker compiles its own programs ([`compile_init`]), refusing a
//!   plan digest its compile does not reproduce, so a worker must be the
//!   same build as its driver — then
//!   [`handle_request`](hotdog_distributed::protocol::handle_request) per
//!   frame — the exact interpreter the threaded runtime's workers use.
//! * [`cluster`] — [`TcpTransport`] and [`TcpCluster`]: the driver binds
//!   a listener (loopback by default, any host:port for multi-host),
//!   spawns worker subprocesses (or in-process socket threads, or waits
//!   for external workers), and runs the transport-generic
//!   [`Driver`](hotdog_runtime::Driver) over the connections — sharing
//!   the admission queue, delta coalescing, request-id ledger and
//!   backpressure with `ThreadedCluster` rather than forking them.
//!   Construction is the respawn of every slot: one bring-up routine
//!   (`TcpTransport::bring_up`) starts all slots at construction and one
//!   slot on respawn.
//!
//! The package's one binary, `hotdog-worker` (`src/bin/hotdog-worker.rs`),
//! is [`run_worker`] behind `--connect <host:port> --index <n>`.
//!
//! The differential oracle (`tests/pipeline_differential.rs`) pins
//! `TcpCluster` bit-for-bit against the simulated cluster across the
//! TPC-H/TPC-DS catalog, making TCP the third independently-scheduled
//! backend under the oracle.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod codec;
pub mod faults;
pub mod frame;
pub mod worker;

pub use cluster::{TcpCluster, TcpConfig, TcpTransport, WorkerSpawn};
pub use codec::{decode_from_slice, encode_to_vec, DecodeError, Reader, Wire};
pub use faults::{FaultKind, FaultPlan, FaultState, KillSpec, Phase};
pub use frame::{encode_frame, read_frame, recv_msg, send_msg, write_frame, MAX_FRAME};
pub use worker::{compile_init, run_worker, serve};
