//! The worker side of the socket transport: one [`WorkerState`] event
//! loop over a TCP stream.
//!
//! This is the function the `hotdog-worker` binary runs; it is also
//! spawnable on an in-process thread ([`TcpConfig::spawn`]'s
//! `WorkerSpawn::Thread` mode), which exercises the identical wire path
//! without a subprocess.  The worker compiles its own programs from the
//! query its `Init` names ([`compile_init`]) — the calls the in-process
//! backends make — so it must be the same build as the driver, which the
//! `Init` digest enforces.  All request semantics live in
//! [`hotdog_distributed::protocol::handle_request`], shared with the
//! thread-channel runtime — the loop here only moves frames.
//!
//! [`TcpConfig::spawn`]: crate::cluster::TcpConfig

use crate::codec::{Init, ToDriver, ToWorker};
use crate::frame::{recv_msg, send_msg};
use hotdog_distributed::protocol::{handle_request, WorkerRequest};
use hotdog_distributed::{compile_distributed, DistributedPlan, PartitioningSpec};
use hotdog_distributed::{Programs, WorkerState};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Connect to a driver at `addr`, introduce ourselves as worker slot
/// `index`, and serve requests until `Shutdown` (or the driver closes
/// the connection).
pub fn run_worker(addr: &str, index: u32) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    serve(stream, index)
}

fn protocol_error(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol error: {msg}"))
}

/// Compile `init`'s query as the driver did — [`hotdog_ivm::compile`],
/// then [`compile_distributed`] under the driver's final placement — and
/// check the result against the driver's digest.  A mismatch (a worker
/// built from other sources than its driver) is `InvalidData` naming both
/// digests.
pub fn compile_init(init: &Init) -> io::Result<DistributedPlan> {
    let plan = hotdog_ivm::compile(&init.query_name, &init.query, init.strategy);
    let mut spec = PartitioningSpec::new();
    for (view, tag) in &init.spec {
        spec.set(view, tag.clone());
    }
    let dplan = compile_distributed(&plan, &spec, init.opt);
    let digest = dplan.digest();
    if digest != init.digest {
        return Err(protocol_error(format_args!(
            "Init digest {:016x}, but this worker compiles `{}` to {digest:016x}",
            init.digest, init.query_name
        )));
    }
    Ok(dplan)
}

/// Serve one driver connection: `Hello` handshake, `Init` (compiled here,
/// see [`compile_init`]), then the FIFO request loop.  An `Init` whose
/// digest differs or one of whose statements does not compile, or a
/// command naming a block or statement the programs do not hold, ends the
/// loop with `InvalidData`; the driver sees the closed connection as
/// `WorkerDead`.
pub fn serve(stream: TcpStream, index: u32) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    send_msg(&mut writer, &ToDriver::Hello { index })?;
    writer.flush()?;

    let mut state = match recv_msg::<ToWorker>(&mut reader)? {
        ToWorker::Init(init) => {
            let dplan = compile_init(&init)?;
            let programs = Programs::install(dplan.program_blocks()).map_err(protocol_error)?;
            WorkerState::with_programs(&dplan.plan, Arc::new(programs))
        }
        ToWorker::Request(_) => return Err(protocol_error("request before Init")),
    };
    // Same track numbering as the thread-channel transport (driver is
    // track 0), so a trace stitched over TCP is structurally identical.
    state.set_trace_track(index + 1);

    loop {
        let msg = match recv_msg::<ToWorker>(&mut reader) {
            Ok(m) => m,
            // The driver dropping the connection between frames is a
            // clean shutdown (its Drop path may lose the race with an
            // explicit Shutdown frame).
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            ToWorker::Init(_) => return Err(protocol_error("duplicate Init")),
            ToWorker::Request(WorkerRequest::Shutdown) => return Ok(()),
            ToWorker::Request(req) => {
                let reply = handle_request(&mut state, req).map_err(protocol_error)?;
                if let Some(reply) = reply {
                    send_msg(&mut writer, &ToDriver::Reply(reply))?;
                    // One flush per reply: the driver may be blocked on
                    // exactly this frame.
                    writer.flush()?;
                }
            }
        }
    }
}
