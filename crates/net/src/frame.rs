//! Length-prefixed framing over a byte stream.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload: len bytes        |
//! +----------------+---------------------------+
//! ```
//!
//! where the payload is a [`Wire`]-encoded message.  Frames longer than
//! [`MAX_FRAME`] are rejected before any allocation — a corrupt or
//! hostile length prefix must not OOM the process — and a payload that
//! fails to decode (bad tag, truncation, trailing bytes) surfaces as an
//! `InvalidData` I/O error, killing the connection loudly.

use crate::codec::{decode_from_slice, encode_to_vec, Wire};
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (256 MiB — far above any real
/// message; a `u32` length beyond it is treated as stream corruption).
pub const MAX_FRAME: usize = 256 << 20;

/// Write one frame (length prefix + payload).
///
/// Enforced on the send side too: an oversized payload errors *here*,
/// with a message naming the limit — otherwise it would be shipped, and
/// the peer's `read_frame` would misdiagnose a working cluster as stream
/// corruption (and beyond 4 GiB the `u32` prefix would silently truncate
/// and desynchronize the stream).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "refusing to send frame of {} bytes (MAX_FRAME is {MAX_FRAME}); \
                 a relation this large must be split before shipping",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload.  `Err(UnexpectedEof)` with an empty message
/// means the peer closed cleanly between frames; any other error is a
/// protocol or transport failure.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Encode and send one message as a frame.
pub fn send_msg<M: Wire>(w: &mut impl Write, msg: &M) -> io::Result<()> {
    write_frame(w, &encode_to_vec(msg))
}

/// Send an already-encoded payload (for broadcasts: encode once, frame
/// per peer).
pub fn send_payload(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(w, payload)
}

/// Receive and decode one message.
pub fn recv_msg<M: Wire>(r: &mut impl Read) -> io::Result<M> {
    let payload = read_frame(r)?;
    decode_from_slice(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}
