//! The flight recorder: a bounded in-memory ring of structured events.
//!
//! Instrumented code records *what the system decided* (batch admitted /
//! coalesced / executed, backpressure engaged, worker spawned / killed) as
//! typed key-value events.  The ring keeps the last
//! [`FlightRecorder::capacity`] events and counts what it dropped, so a
//! long run costs bounded memory and a post-mortem still sees the recent
//! history — the black-box model, not the log-file model.
//!
//! Two escape hatches, both environment-driven:
//!
//! * `HOTDOG_LOG=1` mirrors every event to stderr as it happens (the
//!   structured replacement for the ad-hoc `eprintln!`s the net crate
//!   used to carry);
//! * `HOTDOG_TELEMETRY=<path>` makes [`crate::Telemetry`] flush the ring
//!   as JSON lines to `<path>` (appending) when the owning cluster is
//!   dropped.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity (events kept).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded event: a monotone sequence number, microseconds since the
/// recorder was created, an event kind and its fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub micros: u64,
    pub kind: &'static str,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Render as one JSON object (the flight-recorder JSONL line format).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_us\":{},\"event\":\"{}\"",
            self.seq,
            self.micros,
            escape(self.kind)
        );
        for (k, v) in &self.fields {
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(out, ",\"{}\":{n}", escape(k));
                }
                FieldValue::I64(n) => {
                    let _ = write!(out, ",\"{}\":{n}", escape(k));
                }
                FieldValue::F64(x) => {
                    if x.is_finite() {
                        let _ = write!(out, ",\"{}\":{x}", escape(k));
                    } else {
                        let _ = write!(out, ",\"{}\":\"{x}\"", escape(k));
                    }
                }
                FieldValue::Str(s) => {
                    let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(s));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Ring {
    events: VecDeque<Event>,
    seq: u64,
}

/// Bounded in-memory event recorder (see the module docs).
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    dropped: AtomicU64,
    mirror: bool,
    origin: Instant,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Recorder keeping the last `capacity` events; the stderr mirror is
    /// taken from `HOTDOG_LOG` (`1` enables it).
    pub fn with_capacity(capacity: usize) -> Self {
        let mirror = std::env::var("HOTDOG_LOG").is_ok_and(|v| v == "1");
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(1024)),
                seq: 0,
            }),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            mirror,
            origin: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event (dropping the oldest at capacity).
    pub fn record(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let micros = self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        ring.seq += 1;
        let event = Event {
            seq: ring.seq,
            micros,
            kind,
            fields,
        };
        if self.mirror {
            eprintln!("hotdog: {}", event.to_json());
        }
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.events.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("flight recorder poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events of one kind currently held, oldest first.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// How many events were evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Render the held events as JSON lines.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts_it() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record("tick", vec![("i", i.into())]);
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 3); // 1 and 2 evicted
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.events_of("tick").len(), 3);
        assert_eq!(fr.events_of("other").len(), 0);
    }

    #[test]
    fn jsonl_escapes_and_types_fields() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record(
            "kill",
            vec![
                ("worker", 3u64.into()),
                ("reason", "say \"why\"\n".into()),
                ("delta", (-2i64).into()),
                ("ratio", 0.5f64.into()),
            ],
        );
        let line = fr.events()[0].to_json();
        assert!(line.starts_with("{\"seq\":1,"));
        assert!(line.contains("\"event\":\"kill\""));
        assert!(line.contains("\"worker\":3"));
        assert!(line.contains("\"reason\":\"say \\\"why\\\"\\n\""));
        assert!(line.contains("\"delta\":-2"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.ends_with('}'));
    }
}
