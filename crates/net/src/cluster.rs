//! The driver side of the socket transport: [`TcpTransport`] (a
//! [`Transport`] over per-worker TCP streams) and [`TcpCluster`] (the
//! multi-process execution backend).
//!
//! Topology: the **driver listens**, workers connect.  [`TcpCluster`]
//! binds a listener (loopback by default, any host:port via
//! [`TcpConfig::bind_addr`] for real multi-host deployments), spawns one
//! `hotdog-worker` subprocess per worker slot — or waits for externally
//! started workers ([`WorkerSpawn::External`]) — and handshakes each
//! connection: the worker sends `Hello{index}` (connections race, so the
//! slot travels in-band), the driver answers with `Init`, and from then on
//! the connection carries the same FIFO-command/tagged-reply protocol as
//! the in-process channel transport.
//!
//! No frame carries a statement.  `Init` ships the query, its strategy,
//! the final partitioning spec, the opt level and a digest of the compiled
//! plan; each worker compiles the same programs from it (the compiler is
//! deterministic) and refuses to start on a digest mismatch, so a worker
//! — an external one above all — must be the same build as its driver.
//! `RunBlock` / `ApplyMany` name blocks and statements by index into the
//! programs, so every command is encoded fresh per send, with nothing
//! cached: a `RunBlock` is 34 bytes of payload whatever its block holds.
//!
//! Commands leave in bursts.  [`Transport::send`] encodes each frame
//! straight into its connection's outgoing buffer; the buffer reaches the
//! socket in one `write_all` at a *flush point*: when the driver stops
//! issuing ([`Transport::flush_sends`], after a block's `ApplyMany` and
//! `RunBlock` are queued for every worker and at the end of a batch's
//! issue), before any [`Transport::recv`] waits, before a heartbeat
//! `Ping`, a fault kill and `Shutdown`.  Buffering sets how many writes
//! the frames take, never the frames or their order: a Q3 round at two
//! workers is six socket writes, one per worker per block.
//!
//! Construction is the respawn of every slot: one bring-up routine
//! (`TcpTransport::bring_up` — launch, accept, handshake, `Init` and
//! reply pump) runs for `0..workers` at construction and for `[w]` when
//! [`Transport::respawn`] replaces a dead worker, so every construction
//! exercises the code recovery depends on.
//!
//! Everything above the socket — the admission queue, delta coalescing,
//! the request-id ledger, async gathers, `ApplyMany` scatter batching,
//! backpressure, watermarks — is the transport-generic [`Driver`] of
//! `hotdog-runtime`, *shared* with `ThreadedCluster`, so the two backends
//! can only differ in how bytes move.  The differential oracle holds
//! `TcpCluster` bit-for-bit against the simulated cluster.

use crate::codec::{decode_from_slice, Init, ToDriver, ToWorker};
use crate::faults::{FaultPlan, FaultState, KillSpec, Phase};
use crate::frame::{encode_frame, read_frame, recv_msg};
use hotdog_distributed::protocol::{WorkerReply, WorkerRequest};
use hotdog_distributed::DistributedPlan;
use hotdog_runtime::{Driver, PipelineConfig, PipelineStats, Transport, WorkerDead};
use hotdog_telemetry::{Counter, Histogram, Telemetry};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How worker endpoints come into existence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerSpawn {
    /// Spawn one worker subprocess per slot on this machine (the
    /// default): [`TcpConfig::worker_bin`] run as
    /// `<worker_bin> --connect <addr> --index <i>`.  Without a
    /// `worker_bin` construction fails with `InvalidInput`.
    Subprocess,
    /// Run each worker's event loop on an in-process thread that
    /// connects through a real loopback socket: the full wire path
    /// (framing, codec, kernel TCP) without process isolation.  Select
    /// it with [`TcpConfig::with_spawn`] where spawning is unavailable.
    Thread,
    /// Spawn nothing: wait for `workers` externally started
    /// `hotdog-worker --connect <addr> --index <i>` processes (possibly
    /// on other hosts) to connect to [`TcpConfig::bind_addr`].  Each
    /// compiles its programs from the query `Init` names, so it must be
    /// the same build as the driver: a worker whose compile gives another
    /// plan digest refuses the `Init` and closes the connection.
    External,
}

/// Configuration of a [`TcpCluster`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Number of worker slots.
    pub workers: usize,
    /// Address the driver listens on.  The default `127.0.0.1:0` picks a
    /// free loopback port; bind a routable address (e.g. `0.0.0.0:7654`)
    /// to accept workers from other hosts ([`WorkerSpawn::External`]).
    pub bind_addr: String,
    /// How worker endpoints are started.
    pub spawn: WorkerSpawn,
    /// The executable [`WorkerSpawn::Subprocess`] runs as
    /// `<worker_bin> --connect <addr> --index <i>` — `hotdog-worker`, or
    /// any binary that answers those arguments with
    /// [`run_worker`](crate::run_worker) (the benches and the repo
    /// benchmark pass their own `current_exe()`; tests pass the
    /// `CARGO_BIN_EXE_*` path cargo built for them).  Required in
    /// subprocess mode: nothing is probed or read from the environment.
    pub worker_bin: Option<PathBuf>,
    /// How long to wait for all workers to connect and handshake.
    pub accept_timeout: Duration,
    /// How long a worker may stay silent while a reply is awaited before
    /// the transport probes it with a `Ping` (and starts counting missed
    /// heartbeats).  `Duration::ZERO` disables failure detection: `recv`
    /// blocks forever, as the pre-heartbeat transport did.
    ///
    /// Workers run a single-threaded event loop, so a worker deep in one
    /// long block answers no pings until it finishes — size the budget
    /// (`heartbeat_interval * heartbeat_misses`) above the longest block
    /// you expect, not above the network round-trip.
    pub heartbeat_interval: Duration,
    /// Consecutive silent intervals after the first probe before the
    /// worker is declared dead.
    pub heartbeat_misses: u32,
    /// Deterministic fault schedule evaluated at the transport's send
    /// chokepoint (see [`crate::faults`]).  `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            workers: 4,
            bind_addr: "127.0.0.1:0".to_string(),
            spawn: WorkerSpawn::Subprocess,
            worker_bin: None,
            accept_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_secs(2),
            heartbeat_misses: 5,
            faults: None,
        }
    }
}

impl TcpConfig {
    pub fn with_workers(workers: usize) -> Self {
        TcpConfig {
            workers,
            ..Default::default()
        }
    }

    /// Builder-style spawn mode.
    pub fn with_spawn(mut self, spawn: WorkerSpawn) -> Self {
        self.spawn = spawn;
        self
    }

    /// Builder-style failure-detection knobs (interval `ZERO` disables).
    pub fn with_heartbeat(mut self, interval: Duration, misses: u32) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_misses = misses;
        self
    }

    /// Builder-style fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// The binary subprocess workers run, or the typed error for a config
/// that names none.
fn worker_binary(config: &TcpConfig) -> io::Result<&PathBuf> {
    config.worker_bin.as_ref().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "WorkerSpawn::Subprocess needs TcpConfig::worker_bin (the executable to run as \
             `--connect <addr> --index <n>`); set it, or pick WorkerSpawn::Thread / External",
        )
    })
}

/// Cached handles into the transport's metric registry: the wire-level
/// `net.*` counters.  These measure how bytes move, so they are
/// *excluded* from the deterministic cross-backend contract (see
/// `MetricsSnapshot::deterministic`) — the threaded backend has no wire
/// and records none of them.
#[derive(Clone)]
struct NetMetrics {
    frames_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    frames_received: Arc<Counter>,
    bytes_received: Arc<Counter>,
    rejected_connections: Arc<Counter>,
    /// Silent heartbeat intervals observed.  Registered under the
    /// `worker.*` prefix but wall-clock valued, so it is excluded from
    /// the deterministic cross-backend snapshot by name (see
    /// `MetricsSnapshot::deterministic`).
    heartbeat_missed: Arc<Counter>,
    /// Kill specs fired by the fault-injection schedule.
    fault_injected: Arc<Counter>,
    /// Socket writes of a connection's command buffer, one per flush
    /// that found it non-empty (the `Init` handshake is not counted, as in
    /// `net.frames.sent`).
    writes: Arc<Counter>,
    write_micros: Arc<Histogram>,
    encode_micros: Arc<Histogram>,
    decode_micros: Arc<Histogram>,
}

impl NetMetrics {
    fn register(t: &Telemetry) -> Self {
        NetMetrics {
            frames_sent: t.counter("net.frames.sent"),
            bytes_sent: t.counter("net.bytes.sent"),
            frames_received: t.counter("net.frames.received"),
            bytes_received: t.counter("net.bytes.received"),
            rejected_connections: t.counter("net.rejected_connections"),
            heartbeat_missed: t.counter("worker.heartbeat_missed"),
            fault_injected: t.counter("fault.injected"),
            writes: t.counter("net.writes"),
            write_micros: t.histogram("net.write_micros"),
            encode_micros: t.histogram("net.encode_micros"),
            decode_micros: t.histogram("net.decode_micros"),
        }
    }
}

/// One connected worker endpoint, driver side.
struct WorkerConn {
    /// Command stream.  Written only by [`TcpTransport::flush_conn`], one
    /// `write_all` of `out` per flush point; `TCP_NODELAY` sends each burst
    /// at once instead of holding it for the previous one's ACK.
    stream: TcpStream,
    /// Command frames queued since the last flush point, in send order.
    out: Vec<u8>,
    /// Replies pumped off the socket by a dedicated reader thread —
    /// giving `recv` a timeout (the heartbeat probe) instead of
    /// partial-frame parsing on a socket read deadline.
    inbox: Receiver<PumpedReply>,
    reader: Option<JoinHandle<()>>,
    /// Subprocess handle (subprocess mode only).
    child: Option<Child>,
    /// In-process serve thread (thread mode only).
    serve_thread: Option<JoinHandle<()>>,
    /// Pongs observed by the reader thread (heartbeat answers are
    /// transport-private: counted here, never surfaced to the driver).
    pongs: Arc<AtomicU64>,
    /// Declared dead (heartbeat timeout, closed connection or injected
    /// fault).  Every subsequent operation fast-fails with the typed
    /// error until [`Transport::respawn`] replaces the connection.
    dead: bool,
}

/// One item of a connection's reply pump: a reply, or — as the pump's
/// last word — the protocol error that ended it, which becomes the
/// worker's [`WorkerDead::reason`].
type PumpedReply = Result<WorkerReply, String>;

/// What [`TcpTransport::launch`] started for one slot: a subprocess, an
/// in-process serve thread, or (external worker) neither.
type Launched = (Option<Child>, Option<JoinHandle<()>>);

/// A handshaken connection: the command stream and the buffered reader
/// its reply pump will own.
type Accepted = (TcpStream, BufReader<TcpStream>);

/// A running reply pump: its thread, the inbox it fills and its pong count.
type Pump = (JoinHandle<()>, Receiver<PumpedReply>, Arc<AtomicU64>);

/// [`Transport`] implementation over per-worker TCP connections.
pub struct TcpTransport {
    conns: Vec<WorkerConn>,
    shut: bool,
    /// Retained so dead workers can be respawned: replacements connect
    /// to the same address the original cluster handshook on.
    listener: TcpListener,
    config: TcpConfig,
    /// The encoded `Init` frame, length prefix included (the query, how it
    /// was compiled and the plan's digest), kept for replays to respawned
    /// workers (encode once, ship per (re)connection).
    init: Vec<u8>,
    faults: FaultState,
    ping_seq: u64,
    /// The transport's telemetry sink.  The generic `Driver` *adopts* it
    /// (via [`Transport::telemetry`]) so wire counters and scheduler
    /// counters land in one registry.
    telemetry: Arc<Telemetry>,
    metrics: NetMetrics,
}

/// Request ids for transport-injected `Ping`s live in their own half of
/// the id space so they can never collide with the driver's ledger ids
/// (the driver allocates from 0 upward and consumes no `Pong`s anyway —
/// the reader thread filters them — but disjoint id spaces make the
/// invariant structural).
const PING_ID_BASE: u64 = 1 << 63;

impl TcpTransport {
    /// Bind, then bring every slot up: construction is the respawn of
    /// every slot (the one bring-up routine, `bring_up`).
    pub fn connect(dplan: &DistributedPlan, config: &TcpConfig) -> io::Result<Self> {
        assert!(config.workers > 0);
        let listener = TcpListener::bind(&config.bind_addr)?;
        listener.set_nonblocking(true)?;
        let telemetry = Telemetry::shared();
        let mut init = Vec::new();
        encode_frame(&mut init, &ToWorker::Init(Init::of(dplan)))?;
        let mut transport = TcpTransport {
            conns: Vec::new(),
            shut: false,
            listener,
            config: config.clone(),
            init,
            faults: FaultState::new(config.faults.clone().unwrap_or_default()),
            ping_seq: 0,
            metrics: NetMetrics::register(&telemetry),
            telemetry,
        };
        let slots: Vec<usize> = (0..config.workers).collect();
        transport.conns = transport.bring_up(&slots)?;
        Ok(transport)
    }

    /// The one bring-up routine, run by construction for every slot and
    /// by [`Transport::respawn`] for one: [`launch`](Self::launch) each
    /// slot's endpoint, [`accept`](Self::accept) until each has
    /// handshaken, [`start`](Self::start) them.  Any failure kills and
    /// reaps every process it launched and joins every thread it started
    /// before the error returns, whichever the caller.
    fn bring_up(&self, slots: &[usize]) -> io::Result<Vec<WorkerConn>> {
        let mut launched = Vec::with_capacity(slots.len());
        let conns = self.try_bring_up(slots, &mut launched);
        if conns.is_err() {
            // Every stream accepted so far closed on the way out, so
            // thread-mode workers have seen EOF and their joins return.
            for (child, serve_thread) in launched {
                stop_child(child, Duration::ZERO);
                join(serve_thread);
            }
        }
        conns
    }

    fn try_bring_up(
        &self,
        slots: &[usize],
        launched: &mut Vec<Launched>,
    ) -> io::Result<Vec<WorkerConn>> {
        let addr = self.listener.local_addr()?.to_string();
        for &w in slots {
            launched.push(self.launch(w, &addr)?);
        }
        let accepted = self.accept(slots, launched)?;
        self.start(slots, accepted, launched)
    }

    /// Start slot `w`'s endpoint per the spawn mode: a `worker_bin`
    /// subprocess, an in-process serve thread, or — external — nothing
    /// (the accept-timeout error names the command to run).
    fn launch(&self, w: usize, addr: &str) -> io::Result<Launched> {
        match self.config.spawn {
            WorkerSpawn::Subprocess => {
                let bin = worker_binary(&self.config)?;
                let child = Command::new(bin)
                    .arg("--connect")
                    .arg(addr)
                    .arg("--index")
                    .arg(w.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| {
                        io::Error::new(e.kind(), format!("spawning {}: {e}", bin.display()))
                    })?;
                Ok((Some(child), None))
            }
            WorkerSpawn::Thread => {
                let addr = addr.to_string();
                let handle = thread::Builder::new()
                    .name(format!("hotdog-tcp-worker-{w}"))
                    .spawn(move || {
                        let _ = crate::worker::run_worker(&addr, w as u32);
                    })?;
                Ok((None, Some(handle)))
            }
            WorkerSpawn::External => Ok((None, None)),
        }
    }

    /// Accept until every slot in `slots` has handshaken, under one
    /// `accept_timeout` deadline.  A launched child that exits first fails
    /// bring-up at once rather than at the deadline.  Any other peer — no
    /// or garbage `Hello`, an index that is not an open slot, a stall — is
    /// rejected, counted and dropped, not fatal: on a routable bind a port
    /// scanner must not take bring-up down while the real workers connect.
    fn accept(&self, slots: &[usize], launched: &mut [Launched]) -> io::Result<Vec<Accepted>> {
        let deadline = Instant::now() + self.config.accept_timeout;
        let mut accepted: Vec<Option<Accepted>> = slots.iter().map(|_| None).collect();
        while accepted.iter().any(Option::is_none) {
            for (&w, (child, _)) in slots.iter().zip(launched.iter_mut()) {
                if let Some(c) = child {
                    if let Some(status) = c.try_wait()? {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            format!("worker {w} exited before connecting: {status}"),
                        ));
                    }
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let open = |i: usize| {
                        let k = slots.iter().position(|&w| w == i)?;
                        accepted[k].is_none().then_some(k)
                    };
                    match handshake(stream, |i| open(i).is_some(), deadline) {
                        Ok((i, stream, reader)) => {
                            let k = open(i).expect("handshake admits open slots only");
                            accepted[k] = Some((stream, reader));
                        }
                        Err(_) => self.metrics.rejected_connections.inc(),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let missing: Vec<usize> = slots
                            .iter()
                            .zip(&accepted)
                            .filter_map(|(&w, a)| a.is_none().then_some(w))
                            .collect();
                        let mut msg = format!(
                            "worker(s) {missing:?} did not connect within {:?}",
                            self.config.accept_timeout
                        );
                        if self.config.spawn == WorkerSpawn::External {
                            let addr = self.listener.local_addr()?;
                            for w in &missing {
                                msg.push_str(&format!(
                                    "; start `hotdog-worker --connect {addr} --index {w}`"
                                ));
                            }
                        }
                        return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
                    }
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(accepted.into_iter().flatten().collect())
    }

    /// Ship the retained `Init` to every accepted connection, then start
    /// each one's reply pump.  All sends come first: until the pumps run,
    /// a failure just drops the streams, which closes them.  A pump that
    /// cannot be spawned shuts every stream, which ends the pumps already
    /// running (and fells thread-mode workers), and joins those pumps
    /// before the error returns; `bring_up` reaps the launched endpoints.
    fn start(
        &self,
        slots: &[usize],
        mut accepted: Vec<Accepted>,
        launched: &mut Vec<Launched>,
    ) -> io::Result<Vec<WorkerConn>> {
        for (stream, _) in &mut accepted {
            stream.write_all(&self.init)?;
        }
        let mut spawned = Vec::with_capacity(slots.len());
        for (&w, (stream, reader)) in slots.iter().zip(accepted) {
            match self.spawn_reader(w, reader) {
                Ok(pump) => spawned.push((stream, pump)),
                Err(e) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    for (stream, (handle, ..)) in spawned {
                        let _ = stream.shutdown(Shutdown::Both);
                        join(Some(handle));
                    }
                    return Err(e);
                }
            }
        }
        let conns = spawned.into_iter().zip(launched.drain(..));
        Ok(conns
            .map(
                |((stream, (handle, inbox, pongs)), (child, serve_thread))| WorkerConn {
                    stream,
                    out: Vec::new(),
                    inbox,
                    reader: Some(handle),
                    child,
                    serve_thread,
                    pongs,
                    dead: false,
                },
            )
            .collect())
    }

    /// Spawn the reply-pump thread for one connection.  EOF (or our own
    /// shutdown) closes the inbox by dropping the sender; the driver sees
    /// a disconnected channel and reports the typed [`WorkerDead`] if it
    /// still expected replies.  A protocol error (an undecodable frame, a
    /// second `Hello`) is pumped as the last item, so the driver's
    /// [`WorkerDead`] carries it.  `Pong`s are counted into `pongs` and
    /// dropped — heartbeat answers never reach the driver's accounting.
    /// Failing to spawn the thread is an I/O error, not a panic.
    fn spawn_reader(&self, i: usize, mut reader: BufReader<TcpStream>) -> io::Result<Pump> {
        let (tx, rx) = channel();
        let pongs = Arc::new(AtomicU64::new(0));
        let m = self.metrics.clone();
        let p = pongs.clone();
        let handle = thread::Builder::new()
            .name(format!("hotdog-tcp-reader-{i}"))
            .spawn(move || loop {
                let Ok(payload) = read_frame(&mut reader) else {
                    return;
                };
                m.frames_received.inc();
                m.bytes_received.add(payload.len() as u64 + 4);
                let decode_start = Instant::now();
                let msg = decode_from_slice::<ToDriver>(&payload);
                m.decode_micros.record_duration(decode_start.elapsed());
                match msg {
                    Ok(ToDriver::Reply(WorkerReply::Pong { .. })) => {
                        p.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(ToDriver::Reply(rep)) => {
                        if tx.send(Ok(rep)).is_err() {
                            return; // driver gone
                        }
                    }
                    Ok(ToDriver::Hello { .. }) => {
                        let _ = tx.send(Err("unexpected Hello after handshake".into()));
                        return;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(format!("bad frame: {e}")));
                        return;
                    }
                }
            })?;
        Ok((handle, rx, pongs))
    }

    /// The one per-slot teardown, shared by fencing a dead slot, clearing
    /// one before respawn, and shutdown: drop the unwritten command
    /// frames, stop the child (killed once `grace` runs out), shut the
    /// stream, join the reply pump and the serve thread (both end with the
    /// socket).  Idempotent.
    fn teardown(&mut self, w: usize, grace: Duration) {
        let conn = &mut self.conns[w];
        conn.out.clear();
        stop_child(conn.child.take(), grace);
        let _ = conn.stream.shutdown(Shutdown::Both);
        join(conn.reader.take());
        join(conn.serve_thread.take());
    }

    /// Mark worker `w` dead and fence it off (see [`Self::teardown`]), so
    /// a worker that was merely slow cannot come back and race its
    /// replacement.  Returns the typed error every subsequent operation on
    /// the slot fast-fails with.
    fn declare_dead(&mut self, w: usize, reason: &str) -> WorkerDead {
        if !self.conns[w].dead {
            self.conns[w].dead = true;
            self.teardown(w, Duration::ZERO);
        }
        WorkerDead {
            index: w,
            reason: reason.to_string(),
        }
    }

    /// Fire one kill spec: SIGKILL the subprocess (no cleanup, the
    /// crash-model fault) and sever the stream (which also fells
    /// thread-mode workers, whose event loop dies with its socket).
    fn inject_kill(&mut self, spec: &KillSpec) {
        self.metrics.fault_injected.inc();
        self.declare_dead(spec.worker, &format!("fault injected: {spec}"));
    }

    /// Append one command frame to worker `w`'s outgoing buffer.  Only a
    /// payload over `MAX_FRAME` fails, and it leaves the buffer as it was.
    fn queue(&mut self, w: usize, request: WorkerRequest) -> io::Result<()> {
        let out = &mut self.conns[w].out;
        let before = out.len();
        let encode_start = Instant::now();
        encode_frame(out, &ToWorker::Request(request))?;
        self.metrics
            .encode_micros
            .record_duration(encode_start.elapsed());
        self.metrics.frames_sent.inc();
        self.metrics.bytes_sent.add((out.len() - before) as u64);
        Ok(())
    }

    /// The flush point of one connection: write its buffered frames in one
    /// `write_all`.  A failed write declares the slot dead.
    fn flush_conn(&mut self, w: usize) -> Result<(), WorkerDead> {
        let conn = &mut self.conns[w];
        if conn.out.is_empty() {
            return Ok(());
        }
        let write_start = Instant::now();
        let written = conn.stream.write_all(&conn.out);
        conn.out.clear();
        self.metrics.writes.inc();
        self.metrics
            .write_micros
            .record_duration(write_start.elapsed());
        written.map_err(|e| self.declare_dead(w, &format!("send failed: {e}")))
    }

    /// Probe worker `w` with a transport-private `Ping`, written behind
    /// the connection's buffered frames (bypasses fault counting: ping
    /// traffic is wall-clock scheduled, so letting kill specs fire on it
    /// would break the deterministic-kill-point contract).
    fn send_ping(&mut self, w: usize) -> Result<(), WorkerDead> {
        self.ping_seq += 1;
        let ping = WorkerRequest::Ping {
            id: PING_ID_BASE | self.ping_seq,
        };
        self.queue(w, ping)
            .map_err(|e| self.declare_dead(w, &format!("send failed: {e}")))?;
        self.flush_conn(w)
    }
}

impl Transport for TcpTransport {
    fn workers(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, w: usize, request: WorkerRequest) -> Result<(), WorkerDead> {
        if self.conns[w].dead {
            return Err(self.declare_dead(w, "previously declared dead"));
        }
        // The fault schedule counts at this chokepoint: a `before` kill
        // fells the worker in place of the send (the message is never
        // written), an `after` kill lets the send land first.  Either way
        // the connection's earlier frames reach the socket before the
        // kill, so the kill point is the same protocol moment.
        let fired = self.faults.on_send(w, &request);
        if let Some(spec) = &fired {
            if spec.phase == Phase::Before {
                self.flush_conn(w)?;
                self.inject_kill(spec);
                return Err(WorkerDead {
                    index: w,
                    reason: format!("fault injected: {spec}"),
                });
            }
        }
        if let Err(e) = self.queue(w, request) {
            return Err(self.declare_dead(w, &format!("send failed: {e}")));
        }
        if let Some(spec) = &fired {
            // `after`: the command reached the socket; the crash is
            // detected at the next interaction with the slot.
            self.flush_conn(w)?;
            self.inject_kill(spec);
        }
        Ok(())
    }

    /// Write every connection's buffered frames, one `write_all` each.  A
    /// connection whose write fails is declared dead; its next `send` or
    /// `recv` reports it.
    fn flush_sends(&mut self) {
        for w in 0..self.conns.len() {
            let _ = self.flush_conn(w);
        }
    }

    fn recv(&mut self, w: usize) -> Result<WorkerReply, WorkerDead> {
        if self.conns[w].dead {
            return Err(self.declare_dead(w, "previously declared dead"));
        }
        // No wait may be for a command still in memory: every connection's
        // buffer goes out first, this one's with its own error.
        self.flush_conn(w)?;
        self.flush_sends();
        let interval = self.config.heartbeat_interval;
        if interval.is_zero() {
            return match self.conns[w].inbox.recv() {
                Ok(Ok(rep)) => Ok(rep),
                Ok(Err(reason)) => Err(self.declare_dead(w, &reason)),
                Err(_) => Err(self.declare_dead(w, "connection closed")),
            };
        }
        // Failure detection below the driver's accounting chokepoint: a
        // silent interval probes the worker with a `Ping`; the reader
        // thread counts `Pong`s out-of-band.  A silent interval *after* a
        // probe with no pong progress is a missed heartbeat; any reply or
        // pong resets the count (the worker is slow, not gone).
        let mut misses: u32 = 0;
        let mut pinged = false;
        let mut pongs_at_probe = 0u64;
        loop {
            match self.conns[w].inbox.recv_timeout(interval) {
                Ok(Ok(rep)) => return Ok(rep),
                Ok(Err(reason)) => return Err(self.declare_dead(w, &reason)),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(self.declare_dead(w, "connection closed"))
                }
                Err(RecvTimeoutError::Timeout) => {
                    let pongs = self.conns[w].pongs.load(Ordering::Relaxed);
                    if pinged && pongs == pongs_at_probe {
                        misses += 1;
                        self.metrics.heartbeat_missed.inc();
                        if misses >= self.config.heartbeat_misses.max(1) {
                            return Err(self.declare_dead(
                                w,
                                &format!(
                                    "heartbeat timeout ({misses} probes unanswered over {:?})",
                                    interval * misses
                                ),
                            ));
                        }
                    } else if pinged {
                        misses = 0; // pong progress: alive but busy
                    }
                    pongs_at_probe = pongs;
                    pinged = true;
                    if self.send_ping(w).is_err() {
                        return Err(self.declare_dead(w, "connection closed (ping failed)"));
                    }
                }
            }
        }
    }

    /// Replace slot `w`'s endpoint: tear the old one down, then run the
    /// bring-up routine for `[w]`.  On success the slot is live again with
    /// empty worker state (the driver follows with a `Restore`); on
    /// failure it stays fenced.
    fn respawn(&mut self, w: usize) -> Result<(), WorkerDead> {
        self.conns[w].dead = true;
        self.teardown(w, Duration::ZERO);
        let mut conns = self.bring_up(&[w]).map_err(|e| WorkerDead {
            index: w,
            reason: format!("respawn failed: {e}"),
        })?;
        self.conns[w] = conns.pop().expect("one slot brought up");
        Ok(())
    }

    fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        for w in 0..self.conns.len() {
            // Best effort: a worker that already died must not fail the
            // others' shutdown.  `Shutdown` goes out behind the frames
            // still buffered, in the same write.
            if self.queue(w, WorkerRequest::Shutdown).is_ok() {
                let _ = self.flush_conn(w);
            }
        }
        // Give each worker a moment to exit cleanly before it is killed.
        const KILL_GRACE: Duration = Duration::from_secs(10);
        for w in 0..self.conns.len() {
            self.teardown(w, KILL_GRACE);
        }
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        Some(self.telemetry.clone())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handshake one accepted connection: read its `Hello` — within what is
/// left of the bring-up `deadline`, so one stalled peer cannot push
/// bring-up past `accept_timeout` — and admit it only for a slot `is_open`
/// accepts.  Any failure rejects just this connection.
fn handshake(
    stream: TcpStream,
    is_open: impl Fn(usize) -> bool,
    deadline: Instant,
) -> io::Result<(usize, TcpStream, BufReader<TcpStream>)> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    // `set_read_timeout` refuses a zero duration.
    let left = deadline.saturating_duration_since(Instant::now());
    stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let index = match recv_msg::<ToDriver>(&mut reader)? {
        ToDriver::Hello { index } => index as usize,
        ToDriver::Reply(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "protocol error: reply before Hello",
            ))
        }
    };
    stream.set_read_timeout(None)?;
    if !is_open(index) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad or duplicate worker index {index}"),
        ));
    }
    Ok((index, stream, reader))
}

/// Stop a launched subprocess: give it `grace` to exit on its own, then
/// kill and reap it.
fn stop_child(child: Option<Child>, grace: Duration) {
    let Some(mut child) = child else {
        return;
    };
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if !matches!(child.try_wait(), Ok(None)) {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

fn join(handle: Option<JoinHandle<()>>) {
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

/// The multi-process TCP execution backend: the transport-generic
/// [`Driver`] over [`TcpTransport`].
///
/// Same public surface as `ThreadedCluster` (via `Deref`), same
/// FIFO-command/tagged-reply contract including fully async gathers and
/// `ApplyMany` scatter batching — only the bytes move through the kernel
/// instead of an `mpsc` channel.  Construction is fallible (sockets,
/// subprocesses), hence `io::Result`.  Code written over
/// `&mut Driver<T>` takes a `&mut TcpCluster` by deref.
pub struct TcpCluster {
    inner: Driver<TcpTransport>,
}

impl TcpCluster {
    /// Epoch-synchronous TCP cluster (one batch in the system at a time).
    pub fn new(dplan: DistributedPlan, config: &TcpConfig) -> io::Result<Self> {
        let transport = TcpTransport::connect(&dplan, config)?;
        Ok(TcpCluster {
            inner: Driver::with_transport(dplan, transport, None),
        })
    }

    /// Pipelined TCP cluster: admission queue, delta coalescing, bounded
    /// in-flight window — the same pipeline as the threaded backend,
    /// over sockets.
    pub fn pipelined(
        dplan: DistributedPlan,
        config: &TcpConfig,
        pipeline: PipelineConfig,
    ) -> io::Result<Self> {
        let transport = TcpTransport::connect(&dplan, config)?;
        Ok(TcpCluster {
            inner: Driver::with_transport(dplan, transport, Some(pipeline)),
        })
    }

    /// Abandon queued batches, stop the workers and return the final
    /// pipeline stats (see `Driver::close`).
    pub fn close(self) -> PipelineStats {
        self.inner.close()
    }
}

impl Deref for TcpCluster {
    type Target = Driver<TcpTransport>;
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl DerefMut for TcpCluster {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_distributed::{compile_distributed, OptLevel, PartitioningSpec};
    use hotdog_ivm::compile_recursive;

    /// Bytes queued on every connection but not yet written.
    fn buffered(tcp: &TcpCluster) -> usize {
        tcp.transport().conns.iter().map(|c| c.out.len()).sum()
    }

    #[test]
    fn pipelined_issue_leaves_no_command_in_memory() {
        let q = hotdog_workload::query("Q3").expect("catalog query");
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        // Heartbeats off: no `Ping` write may flush a buffer behind the
        // driver's back.
        let config = TcpConfig::with_workers(2)
            .with_spawn(WorkerSpawn::Thread)
            .with_heartbeat(Duration::ZERO, 0);
        let pipeline = PipelineConfig {
            coalesce_tuples: 0,
            admit_capacity: 1,
            ..Default::default()
        };
        let mut tcp = TcpCluster::pipelined(dplan, &config, pipeline).expect("tcp cluster");
        let frames = |tcp: &TcpCluster| tcp.telemetry().counter("net.frames.sent").get();
        let mut issues = 0;
        let mut issued_in_flight = 0;
        for round in hotdog_workload::generate_tpch(7, 600).batches(100) {
            for (rel, batch) in &round {
                let before = frames(&tcp);
                tcp.apply_batch(rel, batch);
                if frames(&tcp) > before {
                    issues += 1;
                    // Written at the flush point, not left for a later
                    // wait: workers start on the block while it is owed.
                    assert_eq!(buffered(&tcp), 0, "{rel} batch left frames buffered");
                    if tcp.outstanding_replies() > 0 {
                        issued_in_flight += 1;
                    }
                }
            }
        }
        assert!(issues > 0, "no batch issued a block");
        assert!(
            issued_in_flight > 0,
            "no block was still owed after its issue"
        );
        tcp.flush();
        assert_eq!(buffered(&tcp), 0, "flush left frames buffered");
        assert_eq!(tcp.outstanding_replies(), 0);
    }
}
