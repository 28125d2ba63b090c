//! The TCP subscription protocol: `Subscribe`/`Unsubscribe`/`ViewDelta`
//! frames over `hotdog-net`'s bit-preserving codec.
//!
//! The wire format reuses the length-prefixed framing and the [`Wire`]
//! encoding of the driver↔worker protocol (floats as raw IEEE-754 bits,
//! relations in canonical sorted order), so a delta decoded by a remote
//! client replays to the **bit-identical** view a local subscriber
//! reconstructs.
//!
//! One request/response conversation per client frame:
//!
//! | client → server | server → client |
//! |---|---|
//! | `Subscribe { shape, binding }` | `SubAck { id, schema, error }`, then `Delta` (initial resync) |
//! | `Unsubscribe { id }` | `Ack { ok }` |
//! | `Publish { relation, batch }` | `Ack { ok: true }` |
//! | `Pump` | `Delta`* then `PumpDone { watermark, deltas }` |
//! | `Close` | (connection ends) |

use crate::{ParamFilter, QueryShape, SubscriptionHub, ViewDelta};
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::value::Value;
use hotdog_distributed::DistributedPlan;
use hotdog_ivm::StmtOp;
use hotdog_net::{recv_msg, send_msg, DecodeError, Reader, Wire};
use hotdog_runtime::{Driver, Transport};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

/// Client → server subscription-protocol messages.
#[derive(Debug)]
pub enum ClientMsg {
    /// Register a standing query: a server-side shape name plus this
    /// subscriber's parameter binding (`None` = the whole view).
    Subscribe {
        shape: String,
        binding: Option<(String, Value)>,
    },
    Unsubscribe {
        id: u64,
    },
    /// Admit one update batch to the shared base relations (the demo/e2e
    /// ingestion path; production ingestion normally rides its own pipe).
    Publish {
        relation: String,
        batch: Relation,
    },
    /// Commit and fan out: the server pushes every pending delta.
    Pump,
    Close,
}

/// Server → client subscription-protocol messages.
#[derive(Debug)]
pub enum ServerMsg {
    SubAck {
        id: u64,
        schema: Schema,
        error: Option<String>,
    },
    Ack {
        ok: bool,
    },
    Delta(ViewDelta),
    PumpDone {
        deltas: u32,
    },
}

impl Wire for ViewDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.subscription.encode(out);
        self.view.encode(out);
        self.watermark.encode(out);
        self.resync.encode(out);
        self.parts.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ViewDelta {
            subscription: u64::decode(r)?,
            view: String::decode(r)?,
            watermark: u64::decode(r)?,
            resync: bool::decode(r)?,
            parts: Vec::<Vec<(StmtOp, Relation)>>::decode(r)?,
        })
    }
}

impl Wire for ClientMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientMsg::Subscribe { shape, binding } => {
                out.push(0);
                shape.encode(out);
                binding.encode(out);
            }
            ClientMsg::Unsubscribe { id } => {
                out.push(1);
                id.encode(out);
            }
            ClientMsg::Publish { relation, batch } => {
                out.push(2);
                relation.encode(out);
                batch.encode(out);
            }
            ClientMsg::Pump => out.push(3),
            ClientMsg::Close => out.push(4),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(ClientMsg::Subscribe {
                shape: String::decode(r)?,
                binding: Option::decode(r)?,
            }),
            1 => Ok(ClientMsg::Unsubscribe {
                id: u64::decode(r)?,
            }),
            2 => Ok(ClientMsg::Publish {
                relation: String::decode(r)?,
                batch: Relation::decode(r)?,
            }),
            3 => Ok(ClientMsg::Pump),
            4 => Ok(ClientMsg::Close),
            tag => Err(DecodeError::BadTag {
                what: "ClientMsg",
                tag,
            }),
        }
    }
}

impl Wire for ServerMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerMsg::SubAck { id, schema, error } => {
                out.push(0);
                id.encode(out);
                schema.encode(out);
                error.encode(out);
            }
            ServerMsg::Ack { ok } => {
                out.push(1);
                ok.encode(out);
            }
            ServerMsg::Delta(delta) => {
                out.push(2);
                delta.encode(out);
            }
            ServerMsg::PumpDone { deltas } => {
                out.push(3);
                deltas.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(ServerMsg::SubAck {
                id: u64::decode(r)?,
                schema: Schema::decode(r)?,
                error: Option::decode(r)?,
            }),
            1 => Ok(ServerMsg::Ack {
                ok: bool::decode(r)?,
            }),
            2 => Ok(ServerMsg::Delta(ViewDelta::decode(r)?)),
            3 => Ok(ServerMsg::PumpDone {
                deltas: u32::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "ServerMsg",
                tag,
            }),
        }
    }
}

/// Serve the subscription protocol to one connected client until it sends
/// `Close` (or hangs up).  `shapes` is the server's registered shape
/// catalog; clients subscribe by shape name and bind parameters.
pub fn serve_connection<T, F>(
    stream: TcpStream,
    hub: &mut SubscriptionHub<T, F>,
    shapes: &[QueryShape],
) -> io::Result<()>
where
    T: Transport,
    F: FnMut(&QueryShape, DistributedPlan) -> Driver<T>,
{
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let msg: ClientMsg = match recv_msg(&mut reader) {
            Ok(msg) => msg,
            // Clean hangup between frames ends the session.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            ClientMsg::Subscribe { shape, binding } => {
                match shapes.iter().find(|s| s.name == shape) {
                    Some(s) => {
                        let filter = match binding {
                            Some((col, val)) => ParamFilter::equals(col, val),
                            None => ParamFilter::all(),
                        };
                        let (id, initial) = hub.subscribe(s, filter);
                        let schema = hub.schema_of(id).cloned().unwrap_or_default();
                        send_msg(
                            &mut writer,
                            &ServerMsg::SubAck {
                                id,
                                schema,
                                error: None,
                            },
                        )?;
                        send_msg(&mut writer, &ServerMsg::Delta(initial))?;
                    }
                    None => send_msg(
                        &mut writer,
                        &ServerMsg::SubAck {
                            id: 0,
                            schema: Schema::empty(),
                            error: Some(format!("unknown shape {shape:?}")),
                        },
                    )?,
                }
            }
            ClientMsg::Unsubscribe { id } => {
                let ok = hub.unsubscribe(id);
                send_msg(&mut writer, &ServerMsg::Ack { ok })?;
            }
            ClientMsg::Publish { relation, batch } => {
                hub.apply_batch(&relation, &batch);
                send_msg(&mut writer, &ServerMsg::Ack { ok: true })?;
            }
            ClientMsg::Pump => {
                let deltas = hub.pump();
                let n = deltas.len() as u32;
                for delta in deltas {
                    send_msg(&mut writer, &ServerMsg::Delta(delta))?;
                }
                send_msg(&mut writer, &ServerMsg::PumpDone { deltas: n })?;
            }
            ClientMsg::Close => {
                writer.flush()?;
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

/// Accept clients on `listener` one at a time, serving each to completion
/// (the single-tenant demo server; a production front-end would multiplex).
pub fn serve_subscriptions<T, F>(
    listener: TcpListener,
    hub: &mut SubscriptionHub<T, F>,
    shapes: &[QueryShape],
    max_clients: usize,
) -> io::Result<()>
where
    T: Transport,
    F: FnMut(&QueryShape, DistributedPlan) -> Driver<T>,
{
    for _ in 0..max_clients {
        let (stream, _addr) = listener.accept()?;
        serve_connection(stream, hub, shapes)?;
    }
    Ok(())
}

/// A blocking subscription client: one TCP connection speaking the
/// request/response conversation above.
pub struct SubscribeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl SubscribeClient {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(SubscribeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        send_msg(&mut self.writer, msg)?;
        self.writer.flush()
    }

    /// Register a standing query; returns the subscription id, the view
    /// schema, and the initial resync delta.
    pub fn subscribe(
        &mut self,
        shape: &str,
        binding: Option<(String, Value)>,
    ) -> io::Result<(u64, Schema, ViewDelta)> {
        self.send(&ClientMsg::Subscribe {
            shape: shape.to_string(),
            binding,
        })?;
        match recv_msg(&mut self.reader)? {
            ServerMsg::SubAck {
                error: Some(err), ..
            } => Err(io::Error::new(io::ErrorKind::InvalidInput, err)),
            ServerMsg::SubAck { id, schema, .. } => match recv_msg(&mut self.reader)? {
                ServerMsg::Delta(initial) => Ok((id, schema, initial)),
                other => Err(unexpected(&other)),
            },
            other => Err(unexpected(&other)),
        }
    }

    pub fn unsubscribe(&mut self, id: u64) -> io::Result<bool> {
        self.send(&ClientMsg::Unsubscribe { id })?;
        match recv_msg(&mut self.reader)? {
            ServerMsg::Ack { ok } => Ok(ok),
            other => Err(unexpected(&other)),
        }
    }

    /// Admit one update batch to the server's base relations.
    pub fn publish(&mut self, relation: &str, batch: &Relation) -> io::Result<()> {
        self.send(&ClientMsg::Publish {
            relation: relation.to_string(),
            batch: batch.clone(),
        })?;
        match recv_msg(&mut self.reader)? {
            ServerMsg::Ack { ok: true } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to commit and push; returns every delta it fanned
    /// out (across all of this connection's subscriptions).
    pub fn pump(&mut self) -> io::Result<Vec<ViewDelta>> {
        self.send(&ClientMsg::Pump)?;
        let mut deltas = Vec::new();
        loop {
            match recv_msg(&mut self.reader)? {
                ServerMsg::Delta(d) => deltas.push(d),
                ServerMsg::PumpDone { deltas: n } => {
                    debug_assert_eq!(n as usize, deltas.len());
                    return Ok(deltas);
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    pub fn close(mut self) -> io::Result<()> {
        self.send(&ClientMsg::Close)
    }
}

fn unexpected(msg: &ServerMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected server message: {msg:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_net::{decode_from_slice, encode_to_vec};

    #[test]
    fn subscription_messages_round_trip() {
        let delta = ViewDelta {
            subscription: 7,
            view: "Q".into(),
            watermark: 3,
            resync: true,
            parts: vec![
                vec![(
                    StmtOp::SetTo,
                    Relation::from_pairs(
                        Schema::new(["B"]),
                        vec![(hotdog_algebra::tuple![1], 2.5)],
                    ),
                )],
                vec![],
            ],
        };
        let bytes = encode_to_vec(&ServerMsg::Delta(delta.clone()));
        let decoded: ServerMsg = decode_from_slice(&bytes).unwrap();
        let ServerMsg::Delta(d) = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(d.subscription, delta.subscription);
        assert_eq!(d.view, delta.view);
        assert_eq!(d.watermark, delta.watermark);
        assert_eq!(d.resync, delta.resync);
        assert_eq!(d.parts.len(), 2);
        assert_eq!(d.parts[0][0].1.checksum(), delta.parts[0][0].1.checksum());

        let sub = ClientMsg::Subscribe {
            shape: "Q6".into(),
            binding: Some(("B".into(), Value::from(3i64))),
        };
        let bytes = encode_to_vec(&sub);
        let decoded: ClientMsg = decode_from_slice(&bytes).unwrap();
        match decoded {
            ClientMsg::Subscribe { shape, binding } => {
                assert_eq!(shape, "Q6");
                assert_eq!(binding, Some(("B".into(), Value::from(3i64))));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
