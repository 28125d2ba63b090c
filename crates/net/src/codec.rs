//! Hand-rolled, length-prefixed binary codec for the driver↔worker
//! message set.
//!
//! No serde: the build image is offline (mirroring `hotdog-bench::json`),
//! so every type on the wire implements [`Wire`] by hand.  The encoding is
//! deliberately boring — little-endian fixed-width integers, one tag byte
//! per enum variant, `u32` length prefixes for strings and sequences — and
//! makes two promises the differential oracle depends on:
//!
//! * **Bit-preserving floats.**  Multiplicities and `Double` values travel
//!   as raw IEEE-754 bits (`f64::to_bits`), never through a decimal
//!   round-trip, so NaN payloads, negative zero and every last ulp survive
//!   the wire and [`ViewChecksum`]s computed on either side agree.
//! * **Canonical relation layout.**  A [`Relation`] is encoded as its
//!   *sorted* pair list and decoded by replaying exactly that insertion
//!   order into an empty map — i.e. decoding yields
//!   [`Relation::canonical`] of the encoded relation.  Since every
//!   in-process backend builds relations in that layout at the same
//!   exchange points (batch preprocessing, `partition_shards`, `relabel`
//!   of gathered partials), a decoded relation is
//!   bit-identical — in content *and* iteration order, hence in every
//!   downstream float accumulation — to the object an in-process worker
//!   would have received.
//!
//! Decoding is paranoid: unknown tags, non-UTF-8 strings, truncated
//! buffers and trailing garbage are all [`DecodeError`]s, never panics —
//! a corrupt frame must kill the connection loudly, not the process
//! silently.
//!
//! [`ViewChecksum`]: hotdog_algebra::relation::ViewChecksum

use hotdog_algebra::expr::{CmpOp, Expr, RelKind, RelRef, ValExpr};
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_distributed::protocol::{WorkerReply, WorkerRequest};
use hotdog_distributed::{
    DistributedPlan, LocTag, OptLevel, PartitionFn, WorkerSnapshot, WorkerStats,
    WorkerStatsSnapshot,
};
use hotdog_ivm::{StmtOp, Strategy};
use hotdog_telemetry::trace::{SpanContext, SpanRecord, STAGES};
use std::fmt;

/// Decoding failure: the buffer does not contain a well-formed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag { what: &'static str, tag: u8 },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// The message decoded fully but bytes were left over.
    TrailingBytes(usize),
    /// Query expressions nest deeper than [`MAX_NESTING`].
    TooDeep,
    /// A span record named no stage of the [`STAGES`] catalog.
    UnknownStage,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of frame"),
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadBool(b) => write!(f, "bad boolean byte {b:#x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::TooDeep => write!(f, "expressions nest deeper than {MAX_NESTING}"),
            DecodeError::UnknownStage => write!(f, "span names no known stage"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Deepest nesting of `Expr` and `ValExpr` levels, counted together, that
/// a frame may carry.  Decoding recurses once per level, so the bound is
/// what keeps a hostile frame from overflowing the decoding thread's
/// stack; the deepest catalog query nests 13 levels.
pub const MAX_NESTING: usize = 128;

/// Cursor over a received frame's payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Expression levels being decoded (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Decode one level of a recursive expression, failing past
    /// [`MAX_NESTING`] levels.
    fn nested<T>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if self.depth == MAX_NESTING {
            return Err(DecodeError::TooDeep);
        }
        self.depth += 1;
        let decoded = decode(self);
        self.depth -= 1;
        decoded
    }
}

/// A type with a hand-rolled binary wire format.
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encode a message into a fresh payload buffer.
pub fn encode_to_vec<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decode a message from a full payload buffer, rejecting trailing bytes.
pub fn decode_from_slice<M: Wire>(buf: &[u8]) -> Result<M, DecodeError> {
    let mut r = Reader::new(buf);
    let msg = M::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u16::from_le_bytes(r.take(2)?.try_into().unwrap()))
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().unwrap()))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(i64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

/// Floats travel as raw bits — the exact-bit promise of the codec.
impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::decode(r)? as usize;
        // A corrupt length must not pre-allocate gigabytes: every element
        // costs at least one byte, so `remaining()` bounds a sane capacity.
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

impl Wire for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Long(v) => {
                out.push(0);
                v.encode(out);
            }
            Value::Double(v) => {
                out.push(1);
                v.encode(out);
            }
            Value::Str(s) => {
                out.push(2);
                (s.len() as u32).encode(out);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(3);
                b.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Value::Long(i64::decode(r)?)),
            1 => Ok(Value::Double(f64::decode(r)?)),
            2 => {
                let len = u32::decode(r)? as usize;
                let bytes = r.take(len)?;
                let s = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
                Ok(Value::str(s))
            }
            3 => Ok(Value::Bool(bool::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Value", tag }),
        }
    }
}

impl Wire for Tuple {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.arity() as u16).encode(out);
        for v in &self.0 {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let arity = u16::decode(r)? as usize;
        let mut vals = Vec::with_capacity(arity.min(r.remaining()));
        for _ in 0..arity {
            vals.push(Value::decode(r)?);
        }
        Ok(Tuple::from(vals))
    }
}

impl Wire for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for c in self.iter() {
            (c.len() as u32).encode(out);
            out.extend_from_slice(c.as_bytes());
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let cols: Vec<String> = {
            let len = u32::decode(r)? as usize;
            let mut v = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                v.push(String::decode(r)?);
            }
            v
        };
        Ok(Schema::new(cols))
    }
}

/// Encoded **column-contiguous** in sorted row order: after the schema and
/// the row count come all of column 0's values, then column 1's, …, then
/// the raw `f64` multiplicity bits, one contiguous run per column — the
/// shuffle buffer is written as column slices, with no per-row framing
/// (arity lives in the schema).  Decoding rebuilds the rows in that sorted
/// order and replays them into an empty map, so `decode(encode(r))` is
/// exactly [`Relation::canonical`] of `r` — content-equal bit-for-bit, and
/// layout-equal to what every in-process backend holds after its own
/// canonicalization.
impl Wire for Relation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema().encode(out);
        (self.len() as u32).encode(out);
        let rows = self.sorted_refs();
        for j in 0..self.schema().len() {
            for (t, _) in &rows {
                t.get(j).encode(out);
            }
        }
        for (_, m) in &rows {
            m.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let schema = Schema::decode(r)?;
        let len = u32::decode(r)? as usize;
        let arity = schema.len();
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let mut col = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                col.push(Value::decode(r)?);
            }
            cols.push(col);
        }
        let mut rel = Relation::new(schema);
        for i in 0..len {
            let t = Tuple(cols.iter_mut().map(|c| take_value(c, i)).collect());
            let m = f64::decode(r)?;
            rel.add(t, m);
        }
        Ok(rel)
    }
}

/// Move column `c`'s row-`i` value out without cloning (the slot is never
/// read again — rows are rebuilt in ascending `i`).
fn take_value(c: &mut [Value], i: usize) -> Value {
    std::mem::replace(&mut c[i], Value::Long(0))
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

impl Wire for CmpOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(CmpOp::Eq),
            1 => Ok(CmpOp::Ne),
            2 => Ok(CmpOp::Lt),
            3 => Ok(CmpOp::Le),
            4 => Ok(CmpOp::Gt),
            5 => Ok(CmpOp::Ge),
            tag => Err(DecodeError::BadTag { what: "CmpOp", tag }),
        }
    }
}

impl Wire for ValExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ValExpr::Var(v) => {
                out.push(0);
                v.encode(out);
            }
            ValExpr::Lit(v) => {
                out.push(1);
                v.encode(out);
            }
            ValExpr::Add(a, b) => {
                out.push(2);
                a.encode(out);
                b.encode(out);
            }
            ValExpr::Sub(a, b) => {
                out.push(3);
                a.encode(out);
                b.encode(out);
            }
            ValExpr::Mul(a, b) => {
                out.push(4);
                a.encode(out);
                b.encode(out);
            }
            ValExpr::Div(a, b) => {
                out.push(5);
                a.encode(out);
                b.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pair = |r: &mut Reader<'_>| -> Result<(Box<ValExpr>, Box<ValExpr>), DecodeError> {
            Ok((Box::new(ValExpr::decode(r)?), Box::new(ValExpr::decode(r)?)))
        };
        r.nested(|r| match r.u8()? {
            0 => Ok(ValExpr::Var(String::decode(r)?)),
            1 => Ok(ValExpr::Lit(Value::decode(r)?)),
            2 => pair(r).map(|(a, b)| ValExpr::Add(a, b)),
            3 => pair(r).map(|(a, b)| ValExpr::Sub(a, b)),
            4 => pair(r).map(|(a, b)| ValExpr::Mul(a, b)),
            5 => pair(r).map(|(a, b)| ValExpr::Div(a, b)),
            tag => Err(DecodeError::BadTag {
                what: "ValExpr",
                tag,
            }),
        })
    }
}

impl Wire for RelKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RelKind::Base => 0,
            RelKind::View => 1,
            RelKind::Delta => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(RelKind::Base),
            1 => Ok(RelKind::View),
            2 => Ok(RelKind::Delta),
            tag => Err(DecodeError::BadTag {
                what: "RelKind",
                tag,
            }),
        }
    }
}

impl Wire for RelRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.kind.encode(out);
        self.cols.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RelRef {
            name: String::decode(r)?,
            kind: RelKind::decode(r)?,
            cols: Vec::decode(r)?,
        })
    }
}

impl Wire for Expr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Rel(r) => {
                out.push(0);
                r.encode(out);
            }
            Expr::Union(l, r) => {
                out.push(1);
                l.encode(out);
                r.encode(out);
            }
            Expr::Join(l, r) => {
                out.push(2);
                l.encode(out);
                r.encode(out);
            }
            Expr::Sum { group_by, body } => {
                out.push(3);
                group_by.encode(out);
                body.encode(out);
            }
            Expr::Const(c) => {
                out.push(4);
                c.encode(out);
            }
            Expr::Val(v) => {
                out.push(5);
                v.encode(out);
            }
            Expr::Cmp { op, lhs, rhs } => {
                out.push(6);
                op.encode(out);
                lhs.encode(out);
                rhs.encode(out);
            }
            Expr::AssignVal { var, value } => {
                out.push(7);
                var.encode(out);
                value.encode(out);
            }
            Expr::AssignQuery { var, query } => {
                out.push(8);
                var.encode(out);
                query.encode(out);
            }
            Expr::Exists(q) => {
                out.push(9);
                q.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.nested(|r| match r.u8()? {
            0 => Ok(Expr::Rel(RelRef::decode(r)?)),
            1 => Ok(Expr::Union(
                Box::new(Expr::decode(r)?),
                Box::new(Expr::decode(r)?),
            )),
            2 => Ok(Expr::Join(
                Box::new(Expr::decode(r)?),
                Box::new(Expr::decode(r)?),
            )),
            3 => Ok(Expr::Sum {
                group_by: Schema::decode(r)?,
                body: Box::new(Expr::decode(r)?),
            }),
            4 => Ok(Expr::Const(f64::decode(r)?)),
            5 => Ok(Expr::Val(ValExpr::decode(r)?)),
            6 => Ok(Expr::Cmp {
                op: CmpOp::decode(r)?,
                lhs: ValExpr::decode(r)?,
                rhs: ValExpr::decode(r)?,
            }),
            7 => Ok(Expr::AssignVal {
                var: String::decode(r)?,
                value: ValExpr::decode(r)?,
            }),
            8 => Ok(Expr::AssignQuery {
                var: String::decode(r)?,
                query: Box::new(Expr::decode(r)?),
            }),
            9 => Ok(Expr::Exists(Box::new(Expr::decode(r)?))),
            tag => Err(DecodeError::BadTag { what: "Expr", tag }),
        })
    }
}

// ---------------------------------------------------------------------------
// Statement ops, placement and compile settings
// ---------------------------------------------------------------------------

impl Wire for StmtOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            StmtOp::AddTo => 0,
            StmtOp::SetTo => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(StmtOp::AddTo),
            1 => Ok(StmtOp::SetTo),
            tag => Err(DecodeError::BadTag {
                what: "StmtOp",
                tag,
            }),
        }
    }
}

impl Wire for PartitionFn {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PartitionFn::ByColumns(cols) => {
                out.push(0);
                cols.encode(out);
            }
            PartitionFn::Replicate => out.push(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(PartitionFn::ByColumns(Vec::decode(r)?)),
            1 => Ok(PartitionFn::Replicate),
            tag => Err(DecodeError::BadTag {
                what: "PartitionFn",
                tag,
            }),
        }
    }
}

impl Wire for Strategy {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Strategy::Reevaluation => 0,
            Strategy::ClassicalIvm => 1,
            Strategy::RecursiveIvm => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Strategy::Reevaluation),
            1 => Ok(Strategy::ClassicalIvm),
            2 => Ok(Strategy::RecursiveIvm),
            tag => Err(DecodeError::BadTag {
                what: "Strategy",
                tag,
            }),
        }
    }
}

impl Wire for LocTag {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LocTag::Local => out.push(0),
            LocTag::Dist(pf) => {
                out.push(1);
                pf.encode(out);
            }
            LocTag::Random => out.push(2),
            LocTag::Replicated => out.push(3),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(LocTag::Local),
            1 => Ok(LocTag::Dist(PartitionFn::decode(r)?)),
            2 => Ok(LocTag::Random),
            3 => Ok(LocTag::Replicated),
            tag => Err(DecodeError::BadTag {
                what: "LocTag",
                tag,
            }),
        }
    }
}

impl Wire for OptLevel {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(OptLevel::O0),
            1 => Ok(OptLevel::O1),
            2 => Ok(OptLevel::O2),
            3 => Ok(OptLevel::O3),
            tag => Err(DecodeError::BadTag {
                what: "OptLevel",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// The wire-propagated trace header: 16 fixed bytes, `(trace, parent)` —
/// `(0, 0)` when the carrying command is outside any batch trace.
impl Wire for SpanContext {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trace.encode(out);
        self.parent.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SpanContext {
            trace: u64::decode(r)?,
            parent: u64::decode(r)?,
        })
    }
}

/// Finished spans piggybacked on the `Stats` reply.  Durations ride as
/// plain micros off the sending process's epoch; the driver only compares
/// the structural fields across transports, never the clocks.  The name
/// travels as a string and decodes, without allocating, to its entry in
/// the [`STAGES`] catalog; any other name is [`DecodeError::UnknownStage`].
impl Wire for SpanRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trace.encode(out);
        self.id.encode(out);
        self.parent.encode(out);
        self.track.encode(out);
        self.start_micros.encode(out);
        self.end_micros.encode(out);
        (self.name.len() as u32).encode(out);
        out.extend_from_slice(self.name.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SpanRecord {
            trace: u64::decode(r)?,
            id: u64::decode(r)?,
            parent: u64::decode(r)?,
            track: u32::decode(r)?,
            start_micros: u64::decode(r)?,
            end_micros: u64::decode(r)?,
            name: {
                let len = u32::decode(r)? as usize;
                let bytes = r.take(len)?;
                (STAGES.iter().map(|&(stage, _)| stage))
                    .find(|stage| stage.as_bytes() == bytes)
                    .ok_or(DecodeError::UnknownStage)?
            },
        })
    }
}

impl Wire for WorkerStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.blocks_run.encode(out);
        self.statements.encode(out);
        self.instructions.encode(out);
        self.tuples_applied.encode(out);
        self.tuples_touched.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerStats {
            blocks_run: u64::decode(r)?,
            statements: u64::decode(r)?,
            instructions: u64::decode(r)?,
            tuples_applied: u64::decode(r)?,
            tuples_touched: u64::decode(r)?,
        })
    }
}

impl Wire for WorkerStatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.stats.encode(out);
        self.cardinalities.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerStatsSnapshot {
            stats: WorkerStats::decode(r)?,
            cardinalities: Vec::decode(r)?,
        })
    }
}

impl Wire for WorkerSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.views.encode(out);
        self.stats.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerSnapshot {
            views: Vec::decode(r)?,
            stats: WorkerStats::decode(r)?,
        })
    }
}

/// One tag byte per variant.  Statements never travel in a request — the
/// worker compiled them from `Init` — so `RunBlock` is a fixed 33 bytes,
/// `[0x00][id: 8B][trace: 8B][parent: 8B][program: 4B][block: 4B]`, and
/// each `ApplyMany` shard is its `(program, block, statement)` position
/// (three `u32`s) followed by the relation.
impl Wire for WorkerRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerRequest::RunBlock {
                id,
                ctx,
                program,
                block,
            } => {
                out.push(0);
                id.encode(out);
                ctx.encode(out);
                program.encode(out);
                block.encode(out);
            }
            WorkerRequest::ApplyMany { id, ctx, applies } => {
                out.push(1);
                id.encode(out);
                ctx.encode(out);
                applies.encode(out);
            }
            WorkerRequest::Fetch { id, ctx, name } => {
                out.push(2);
                id.encode(out);
                ctx.encode(out);
                name.encode(out);
            }
            WorkerRequest::Snapshot { id, view } => {
                out.push(3);
                id.encode(out);
                view.encode(out);
            }
            WorkerRequest::Barrier { id } => {
                out.push(4);
                id.encode(out);
            }
            WorkerRequest::Shutdown => out.push(5),
            WorkerRequest::Stats { id } => {
                out.push(6);
                id.encode(out);
            }
            WorkerRequest::Ping { id } => {
                out.push(7);
                id.encode(out);
            }
            WorkerRequest::Checkpoint { id } => {
                out.push(8);
                id.encode(out);
            }
            WorkerRequest::Restore { id, snapshot } => {
                out.push(9);
                id.encode(out);
                snapshot.encode(out);
            }
            WorkerRequest::SetCapture { id, views } => {
                out.push(10);
                id.encode(out);
                views.encode(out);
            }
            WorkerRequest::TakeCaptured { id } => {
                out.push(11);
                id.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(WorkerRequest::RunBlock {
                id: u64::decode(r)?,
                ctx: SpanContext::decode(r)?,
                program: u32::decode(r)?,
                block: u32::decode(r)?,
            }),
            1 => Ok(WorkerRequest::ApplyMany {
                id: u64::decode(r)?,
                ctx: SpanContext::decode(r)?,
                applies: Vec::decode(r)?,
            }),
            2 => Ok(WorkerRequest::Fetch {
                id: u64::decode(r)?,
                ctx: SpanContext::decode(r)?,
                name: String::decode(r)?,
            }),
            3 => Ok(WorkerRequest::Snapshot {
                id: u64::decode(r)?,
                view: String::decode(r)?,
            }),
            4 => Ok(WorkerRequest::Barrier {
                id: u64::decode(r)?,
            }),
            5 => Ok(WorkerRequest::Shutdown),
            6 => Ok(WorkerRequest::Stats {
                id: u64::decode(r)?,
            }),
            7 => Ok(WorkerRequest::Ping {
                id: u64::decode(r)?,
            }),
            8 => Ok(WorkerRequest::Checkpoint {
                id: u64::decode(r)?,
            }),
            9 => Ok(WorkerRequest::Restore {
                id: u64::decode(r)?,
                snapshot: Box::new(WorkerSnapshot::decode(r)?),
            }),
            10 => Ok(WorkerRequest::SetCapture {
                id: u64::decode(r)?,
                views: Vec::decode(r)?,
            }),
            11 => Ok(WorkerRequest::TakeCaptured {
                id: u64::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "WorkerRequest",
                tag,
            }),
        }
    }
}

impl Wire for WorkerReply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerReply::Ran { id, instructions } => {
                out.push(0);
                id.encode(out);
                instructions.encode(out);
            }
            WorkerReply::Rel { id, rel } => {
                out.push(1);
                id.encode(out);
                rel.encode(out);
            }
            WorkerReply::Ack { id } => {
                out.push(2);
                id.encode(out);
            }
            WorkerReply::Stats {
                id,
                snapshot,
                spans,
                spans_dropped,
            } => {
                out.push(3);
                id.encode(out);
                snapshot.encode(out);
                spans.encode(out);
                spans_dropped.encode(out);
            }
            WorkerReply::Pong { id } => {
                out.push(4);
                id.encode(out);
            }
            WorkerReply::Checkpoint { id, snapshot } => {
                out.push(5);
                id.encode(out);
                snapshot.encode(out);
            }
            WorkerReply::Captured { id, ops } => {
                out.push(6);
                id.encode(out);
                ops.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(WorkerReply::Ran {
                id: u64::decode(r)?,
                instructions: u64::decode(r)?,
            }),
            1 => Ok(WorkerReply::Rel {
                id: u64::decode(r)?,
                rel: Relation::decode(r)?,
            }),
            2 => Ok(WorkerReply::Ack {
                id: u64::decode(r)?,
            }),
            3 => Ok(WorkerReply::Stats {
                id: u64::decode(r)?,
                snapshot: WorkerStatsSnapshot::decode(r)?,
                spans: Vec::decode(r)?,
                spans_dropped: u64::decode(r)?,
            }),
            4 => Ok(WorkerReply::Pong {
                id: u64::decode(r)?,
            }),
            5 => Ok(WorkerReply::Checkpoint {
                id: u64::decode(r)?,
                snapshot: Box::new(WorkerSnapshot::decode(r)?),
            }),
            6 => Ok(WorkerReply::Captured {
                id: u64::decode(r)?,
                ops: Vec::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "WorkerReply",
                tag,
            }),
        }
    }
}

/// What a worker builds its programs from: the query and how the driver
/// compiled it, plus a digest of the result.  The worker runs the same
/// deterministic compiler ([`compile_init`]) and refuses to start unless
/// its own plan has the same [`DistributedPlan::digest`].
///
/// [`compile_init`]: crate::worker::compile_init
pub struct Init {
    pub query_name: String,
    /// The query: the top view's definition under every strategy.
    pub query: Expr,
    pub strategy: Strategy,
    /// The driver's *final* placement (after `compile_distributed`'s
    /// placement pass), sorted by view name.
    pub spec: Vec<(String, LocTag)>,
    pub opt: OptLevel,
    pub digest: u64,
}

impl Init {
    /// The `Init` a driver running `dplan` sends.
    pub fn of(dplan: &DistributedPlan) -> Self {
        let mut spec: Vec<(String, LocTag)> = dplan
            .spec
            .views()
            .map(|(view, tag)| (view.clone(), tag.clone()))
            .collect();
        spec.sort_by(|a, b| a.0.cmp(&b.0));
        Init {
            query_name: dplan.plan.query_name.clone(),
            query: dplan.plan.top().definition.clone(),
            strategy: dplan.plan.strategy,
            spec,
            opt: dplan.opt,
            digest: dplan.digest(),
        }
    }
}

impl Wire for Init {
    fn encode(&self, out: &mut Vec<u8>) {
        self.query_name.encode(out);
        self.query.encode(out);
        self.strategy.encode(out);
        self.spec.encode(out);
        self.opt.encode(out);
        self.digest.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Init {
            query_name: String::decode(r)?,
            query: Expr::decode(r)?,
            strategy: Strategy::decode(r)?,
            spec: Vec::decode(r)?,
            opt: OptLevel::decode(r)?,
            digest: u64::decode(r)?,
        })
    }
}

/// Driver → worker frames: the `Init` handshake, then a stream of protocol
/// requests.
pub enum ToWorker {
    /// First frame after the connection is slotted.  No statement ever
    /// crosses the wire: the worker compiles its programs from the query,
    /// and later commands name statements by position in them.
    Init(Init),
    Request(WorkerRequest),
}

impl Wire for ToWorker {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ToWorker::Init(init) => {
                out.push(0x40);
                init.encode(out);
            }
            ToWorker::Request(req) => {
                out.push(0x41);
                req.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0x40 => Ok(ToWorker::Init(Init::decode(r)?)),
            0x41 => Ok(ToWorker::Request(WorkerRequest::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "ToWorker",
                tag,
            }),
        }
    }
}

/// Worker → driver frames: the `Hello` handshake naming the worker's
/// slot, then a stream of protocol replies.
pub enum ToDriver {
    /// First frame a worker sends after connecting: which worker slot it
    /// was started as (`--index`), so the driver can map the accepted
    /// connection — connections race, arrival order is meaningless.
    Hello {
        index: u32,
    },
    Reply(WorkerReply),
}

impl Wire for ToDriver {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ToDriver::Hello { index } => {
                out.push(0x80);
                index.encode(out);
            }
            ToDriver::Reply(rep) => {
                out.push(0x81);
                rep.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0x80 => Ok(ToDriver::Hello {
                index: u32::decode(r)?,
            }),
            0x81 => Ok(ToDriver::Reply(WorkerReply::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "ToDriver",
                tag,
            }),
        }
    }
}
