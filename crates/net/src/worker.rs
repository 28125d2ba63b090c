//! The worker side of the socket transport: one [`WorkerState`] event
//! loop over a TCP stream.
//!
//! This is the function the `hotdog-worker` binary runs; it is also
//! spawnable on an in-process thread ([`TcpConfig::spawn`]'s
//! `WorkerSpawn::Thread` mode), which exercises the identical wire path
//! without a subprocess.  All request semantics live in
//! [`hotdog_distributed::protocol::handle_request`], shared with the
//! thread-channel runtime — the loop here only moves frames.
//!
//! [`TcpConfig::spawn`]: crate::cluster::TcpConfig

use crate::codec::{ToDriver, ToWorker};
use crate::frame::{recv_msg, send_msg};
use hotdog_distributed::protocol::{handle_request, WorkerRequest};
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

/// Serve one driver connection: `Hello` handshake, `Init` plan and
/// programs, then the FIFO request loop.  An `Init` holding a statement
/// that does not compile, or a command naming a block or statement the
/// `Init` did not contain, ends the loop with `InvalidData`; the driver
/// sees the closed connection as `WorkerDead`.
pub fn serve(stream: TcpStream, index: u32) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    send_msg(&mut writer, &ToDriver::Hello { index })?;
    writer.flush()?;

    let mut state = match recv_msg::<ToWorker>(&mut reader)? {
        ToWorker::Init { plan, programs } => {
            let programs = Programs::install(programs).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("protocol error: {e}"))
            })?;
            WorkerState::with_programs(&plan, Arc::new(programs))
        }
        ToWorker::Request(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "protocol error: request before Init",
            ))
        }
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
            ToWorker::Init { .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "protocol error: duplicate Init",
                ))
            }
            ToWorker::Request(WorkerRequest::Shutdown) => return Ok(()),
            ToWorker::Request(req) => {
                let reply = handle_request(&mut state, req).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("protocol error: {e}"))
                })?;
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
