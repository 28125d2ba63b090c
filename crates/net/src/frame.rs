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

use crate::codec::{decode_from_slice, Wire};
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (256 MiB — far above any real
/// message; a `u32` length beyond it is treated as stream corruption).
pub const MAX_FRAME: usize = 256 << 20;

/// Append one frame to `out`: a length prefix, then the payload `body`
/// writes straight after it.  The one `MAX_FRAME` check of the send side:
/// an oversized payload errors *here*, with a message naming the limit,
/// and leaves `out` as it was — otherwise it would be shipped, and the
/// peer's `read_frame` would misdiagnose a working cluster as stream
/// corruption (and beyond 4 GiB the `u32` prefix would silently truncate
/// and desynchronize the stream).
fn append_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "refusing to send frame of {len} bytes (MAX_FRAME is {MAX_FRAME}); \
                 a relation this large must be split before shipping"
            ),
        ));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Encode `msg` as one frame (length prefix + [`Wire`] payload) at the end
/// of `out`, with no intermediate buffer.  A payload over [`MAX_FRAME`] is
/// refused and `out` left as it was.
pub fn encode_frame<M: Wire>(out: &mut Vec<u8>, msg: &M) -> io::Result<()> {
    append_frame(out, |out| msg.encode(out))
}

/// Write one frame (length prefix + already-encoded payload) in one
/// `write_all`.  A payload over [`MAX_FRAME`] is refused.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    append_frame(&mut frame, |out| out.extend_from_slice(payload))?;
    w.write_all(&frame)
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

/// Encode and send one message as a frame, in one `write_all`.
pub fn send_msg<M: Wire>(w: &mut impl Write, msg: &M) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, msg)?;
    w.write_all(&frame)
}

/// Receive and decode one message.
pub fn recv_msg<M: Wire>(r: &mut impl Read) -> io::Result<M> {
    let payload = read_frame(r)?;
    decode_from_slice(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_to_vec, ToWorker};
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_distributed::protocol::WorkerRequest;
    use hotdog_telemetry::trace::SpanContext;

    /// The reference frame: the length prefix, then `encode_to_vec(msg)`.
    fn prefixed_payload(msg: &ToWorker) -> Vec<u8> {
        let payload = encode_to_vec(msg);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn encode_frame_writes_the_prefixed_payload_byte_for_byte() {
        let ctx = SpanContext {
            trace: 7,
            parent: 0xBEEF,
        };
        let shard = |k: i64| {
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                (0..5i64).map(|i| (tuple![k, i], 0.5 + i as f64)),
            )
        };
        let messages = [
            ToWorker::Request(WorkerRequest::RunBlock {
                id: 41,
                ctx,
                program: 2,
                block: 1,
            }),
            ToWorker::Request(WorkerRequest::ApplyMany {
                id: 42,
                ctx,
                applies: vec![((0, 0, 1), shard(1)), ((0, 0, 2), shard(2))],
            }),
            ToWorker::Request(WorkerRequest::Shutdown),
        ];
        // Frames append: one buffer holds the three back to back, exactly
        // as three separate writes would have left them on the stream.
        let mut buffer = Vec::new();
        let mut want = Vec::new();
        for msg in &messages {
            let mut alone = Vec::new();
            encode_frame(&mut alone, msg).unwrap();
            assert_eq!(alone, prefixed_payload(msg));
            encode_frame(&mut buffer, msg).unwrap();
            want.extend(prefixed_payload(msg));
        }
        assert_eq!(buffer, want);
        let mut sent = Vec::new();
        send_msg(&mut sent, &messages[1]).unwrap();
        assert_eq!(sent, prefixed_payload(&messages[1]));
    }
}
