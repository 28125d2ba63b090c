//! # hotdog-runtime
//!
//! The driver that executes compiled [`DistributedPlan`]s: one [`Driver`]
//! runs each trigger's schedule against N workers reached through a
//! [`Transport`].  Workers interpret statements through the same
//! [`WorkerState`] and batches are routed by the same
//! [`partition_shards`](hotdog_distributed::partition_shards), so every
//! transport holds identical view contents and only the *time* differs.
//! [`ThreadedCluster`] runs the workers on threads and measures wall-clock
//! time; the simulated [`Cluster`] runs them inline on the caller's thread
//! and models time (each latency in [`ClusterTotals::latencies`] is its
//! virtual clock's advance).  Every driver runs one schedule: a batch is admitted, the
//! admission bounds drive execution of the queue front, and distributed
//! blocks overlap inside a bounded in-flight window.
//! [`ThreadedCluster::pipelined`] admits into a coalescing queue;
//! [`ThreadedCluster::new`] is the synchronous runtime, the same schedule
//! with a queue of capacity 0 and no coalescing, so each batch executes
//! at once and commits the watermark before `apply_batch` returns.
//! "Life of a batch" in `docs/ARCHITECTURE.md` walks the whole path.
//!
//! `Driver<T>` is the one backend type: code that must run on every
//! backend (benches, differential tests, `hotdog-serve`'s hub) is generic
//! over `T: Transport` and takes a `&mut Driver<T>`.
//!
//! ## Module map
//!
//! [`Driver`] is one struct; each module is an `impl` block over the state
//! it owns and keeps one invariant.
//!
//! * `lib` — [`Transport`], [`ChannelTransport`]: the worker threads
//!   (parked at shutdown, reused by the process's next cluster).
//!   Per-worker FIFO command order; a dead worker is a typed
//!   [`WorkerDead`], never a panic or a silent stall.
//! * `cluster` — [`SimTransport`] and the simulated [`Cluster`]: the
//!   workers run inline, a seeded virtual clock each message advances.
//! * `config` — [`PipelineConfig`], [`FaultConfig`], [`ClusterConfig`]:
//!   pure data.
//! * `driver` — the plan, the driver-resident views, buffered scatter
//!   shards, `issued` / `watermark`; **the schedule** (`execute_canonical`,
//!   `run_transform`, `scatter`, `commit_watermark`).  A read observes
//!   every issued batch completely and no batch partially.
//! * `ledger` — request ids and, per worker, a FIFO of owed `RunBlock`
//!   ids.  It relies on replies arriving in send order: each is checked
//!   against the oldest owed block and the awaited id, never looked up;
//!   `await_reply` is the only wait for a tagged reply, `round` the only
//!   send-all/await-all loop.
//! * `admission` — the coalescing queue and its count and byte bounds.
//!   Per-relation admission order is preserved; the queue's byte
//!   footprint is exact.
//! * `recovery` — the checkpoint cut and the replay log.  A batch is
//!   logged before its first message, so restore + replay reproduces the
//!   unfaulted run bit for bit.
//! * `capture` — the captured view set and its recovery epoch.  A capture
//!   batch never precedes its batches' watermark commit.
//! * `stats` — [`ClusterTotals`], the cached metric
//!   handles and [`PipelineStats`], which is read from them: every
//!   driver-side count is incremented once, in the registry.  A batch is
//!   counted once: its input and `driver.batches.executed` when it is
//!   first issued, its latency and shuffled bytes when an issue of it
//!   first completes; a recovery replay re-executes it uncounted.
//!   `driver.*` counters depend on the admission sequence and the
//!   schedule only, so they agree across transports.  Worker counts stay
//!   on the worker and reach the registry through one `Stats` round
//!   (`metrics_snapshot`, `worker_stats`).

#![forbid(unsafe_code)]

mod admission;
mod capture;
mod cluster;
mod config;
mod driver;
mod ledger;
mod recovery;
mod stats;
#[cfg(test)]
mod tests;

pub use cluster::{Cluster, SimTransport};
pub use config::{ClusterConfig, FaultConfig, PipelineConfig};
pub use driver::{Driver, ThreadedCluster};
pub use stats::{ClusterTotals, PipelineStats};

use hotdog_distributed::protocol::{
    handle_request, WorkerReply as Reply, WorkerRequest as Request,
};
use hotdog_distributed::{DistributedPlan, Programs, WorkerState};
use hotdog_telemetry::Telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

/// `dplan`'s programs, each statement compiled once, for the nodes of one
/// in-process cluster to share.
fn install(dplan: &DistributedPlan) -> Programs {
    Programs::install(dplan.program_blocks())
        .unwrap_or_else(|e| panic!("a compiled plan's statement does not compile: {e}"))
}

/// How a [`Driver`] reaches its workers: an in-process `mpsc` channel pair
/// per worker thread ([`ChannelTransport`]), a TCP stream per worker
/// subprocess (`hotdog-net`'s `TcpTransport`), or a direct call into
/// workers held on the driver's own thread ([`SimTransport`]).
///
/// The transport only moves [`WorkerRequest`]/[`WorkerReply`] messages; all
/// scheduling — the admission queue, delta coalescing, the request-id
/// ledger, backpressure — lives in the transport-generic
/// [`Driver`], so every backend shares one pipeline implementation and
/// can only differ in how bytes move.
///
/// Contract (what the driver's ledger accounting relies on):
///
/// * [`Transport::send`] preserves per-worker FIFO command order; it may
///   hold commands back until [`Transport::flush_sends`] or the next
///   [`Transport::recv`];
/// * [`Transport::recv`] blocks until one more reply from worker `w`
///   arrives, in arrival order.  A worker answers its commands one at a
///   time, so its replies arrive in the order the commands were sent:
///   the ledger takes them in that order and only *checks* their ids;
/// * a dead worker is a **typed error**, never a panic and never a
///   silent stall: `send`/`recv` surface [`WorkerDead`] and
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
    /// Block for the next reply from worker `w`.  A transport that holds
    /// sent commands back ([`Transport::flush_sends`]) delivers every one
    /// of them before it waits.
    fn recv(&mut self, w: usize) -> Result<Reply, WorkerDead>;
    /// The driver has stopped issuing for now: deliver every command sent
    /// so far, so pipelined workers start on them without waiting for the
    /// next `recv`.  For a transport that buffers its sends (TCP writes
    /// each worker's queued frames in one socket write); the default, for
    /// one that delivers at `send`, does nothing.  A worker whose delivery
    /// fails is reported by its next `send` or `recv`.
    fn flush_sends(&mut self) {}
    /// Replace a dead worker `w` with a fresh, empty one (new process or
    /// thread, re-handshaken, plan and programs re-shipped).  The default
    /// refuses: transports that cannot respawn report the worker as still
    /// dead, and the driver surfaces the typed error instead of
    /// recovering.
    fn respawn(&mut self, w: usize) -> Result<(), WorkerDead> {
        Err(WorkerDead {
            index: w,
            reason: "transport cannot respawn workers".to_string(),
        })
    }
    /// Stop all workers (idempotent).
    fn shutdown(&mut self);
    /// The transport's own [`Telemetry`] instance, if it keeps one (the
    /// TCP transport counts frames, bytes and codec time).  The driver
    /// *adopts* it, so wire-level and scheduler-level metrics land in one
    /// registry; `None` (the default) makes the driver create a fresh
    /// instance.
    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        None
    }
    /// Modelled seconds elapsed, for a transport that models time rather
    /// than taking it ([`SimTransport`]).  The driver reports the clock's
    /// advance across a batch as its latency; `None` (the default) makes it
    /// report measured wall-clock time instead.
    fn clock_secs(&self) -> Option<f64> {
        None
    }
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

fn worker_loop(mut state: WorkerState, rx: Receiver<Request>, tx: Sender<Reply>) {
    while let Ok(msg) = rx.recv() {
        if matches!(msg, Request::Shutdown) {
            break;
        }
        match handle_request(&mut state, msg) {
            Ok(Some(reply)) => {
                let _ = tx.send(reply);
            }
            Ok(None) => {}
            // The driver sees the hung-up channel as `WorkerDead`.
            Err(_) => break,
        }
    }
}

/// What one cluster hands a worker thread: its state and channel ends.
type Job = (WorkerState, Receiver<Request>, Sender<Reply>);

/// A worker thread, which outlives the cluster it served:
/// [`Transport::shutdown`] parks it in [`IDLE_WORKERS`] and the next
/// [`ChannelTransport::spawn`] in the process takes it from there.  The
/// allocator keeps what a thread frees with that thread, so a worker that
/// exited would leave its views' memory to whichever thread starts next —
/// idle there, beside the copy the next worker grows — and peak memory
/// would depend on the order threads happen to start in.
struct WorkerThread {
    jobs: Sender<Job>,
    /// One message per finished job, sent once its state is dropped.
    done: Receiver<()>,
}

static IDLE_WORKERS: Mutex<Vec<WorkerThread>> = Mutex::new(Vec::new());

impl WorkerThread {
    /// A parked thread, or a new one when none is idle.
    fn take() -> Self {
        let parked = IDLE_WORKERS.lock().expect("worker pool poisoned").pop();
        parked.unwrap_or_else(|| {
            static SPAWNED: AtomicUsize = AtomicUsize::new(0);
            let (jobs, job_rx) = channel::<Job>();
            let (done_tx, done) = channel();
            thread::Builder::new()
                .name(format!(
                    "hotdog-worker-{}",
                    SPAWNED.fetch_add(1, Ordering::Relaxed)
                ))
                .spawn(move || {
                    for (state, rx, tx) in job_rx {
                        worker_loop(state, rx, tx);
                        if done_tx.send(()).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn worker thread");
            WorkerThread { jobs, done }
        })
    }
}

/// The in-process transport: one OS thread per worker, joined by a pair of
/// `mpsc` channels playing the role of the cluster fabric.  A thread serves
/// one cluster at a time; [`Transport::shutdown`] parks it, and the next
/// cluster started in the process reuses it.
pub struct ChannelTransport {
    requests: Vec<Sender<Request>>,
    replies: Vec<Receiver<Reply>>,
    threads: Vec<WorkerThread>,
}

impl ChannelTransport {
    /// Put `workers` worker threads to work, each owning an empty
    /// [`WorkerState`] for the plan and sharing one copy of its programs.
    pub fn spawn(dplan: &DistributedPlan, workers: usize) -> Self {
        assert!(workers > 0);
        let programs = Arc::new(install(dplan));
        let mut requests = Vec::with_capacity(workers);
        let mut replies = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let mut state = WorkerState::with_programs(&dplan.plan, programs.clone());
            state.set_trace_track(i as u32 + 1);
            let (req_tx, req_rx) = channel();
            let (rep_tx, rep_rx) = channel();
            let thread = WorkerThread::take();
            thread
                .jobs
                .send((state, req_rx, rep_tx))
                .expect("parked worker thread is alive");
            requests.push(req_tx);
            replies.push(rep_rx);
            threads.push(thread);
        }
        ChannelTransport {
            requests,
            replies,
            threads,
        }
    }

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

    fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        for tx in &self.requests {
            let _ = tx.send(Request::Shutdown);
        }
        // Each thread reports once its `WorkerState` is dropped.  Worker
        // 0's thread is parked last, so the next cluster makes it worker 0
        // again; a thread that panicked is gone and is not parked.
        for thread in self.threads.drain(..).rev() {
            if thread.done.recv().is_ok() {
                IDLE_WORKERS
                    .lock()
                    .expect("worker pool poisoned")
                    .push(thread);
            }
        }
    }
}
