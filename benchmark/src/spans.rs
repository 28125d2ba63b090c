//! The benchmark's own spans: one record around every public call it makes
//! into the system (`apply_batch`, `flush`, `query_result`, `publish`,
//! `pump`, client-side delta apply), parented under the round that issued
//! it.  Kept in memory during the traced lap and written out afterwards.
//!
//! These are deliberately *outside* the program: spans inside the system
//! are the program's own tracer (`Driver::trace_spans`), read separately.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Parent id of a top-level span.
pub const ROOT: u32 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Index of the measured round the span belongs to.
    pub round: u32,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn micros(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// In-memory span store.  A disabled recorder still times the call (the
/// lap needs round latencies either way) but keeps nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_micros() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].  Returns the id
    /// children name as their parent (`ROOT` when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, round: usize) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.micros(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            round: round as u32,
            start_us: now,
            end_us: now,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let now = self.micros(Instant::now());
        self.spans[id as usize - 1].end_us = now;
    }

    /// Run `f` under a span and return its result with the elapsed time.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        round: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, round);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.close(id);
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.micros() as f64 / 1e3)
            .collect()
    }

    /// Per-round sum (ms) of the spans called `name` — a round makes up to
    /// eight `apply_batch`/`publish` calls, one per relation.
    pub fn per_round_ms(&self, name: &str) -> Vec<f64> {
        let mut by_round: std::collections::BTreeMap<u32, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_default() += s.micros() as f64 / 1e3;
        }
        by_round.into_values().collect()
    }

    /// Self time of a span: its duration minus what its children cover.
    pub fn self_micros(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize - 1];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(Span::micros)
            .sum();
        span.micros().saturating_sub(children)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_us\":{},\"end_us\":{}}}",
                s.id, s.parent, s.name, s.round, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_parented_and_self_time_excludes_them() {
        let mut rec = Recorder::new(true);
        let round = rec.open("round", ROOT, 3);
        let ((), inner) = rec.timed("apply_batch", round, 3, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        rec.close(round);
        assert!(inner >= Duration::from_millis(2));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].round), (round, 3));
        assert!(spans[0].micros() >= spans[1].micros());
        assert_eq!(
            rec.self_micros(round),
            spans[0].micros() - spans[1].micros()
        );
        assert_eq!(rec.per_round_ms("apply_batch").len(), 1);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("round", ROOT, 0);
        let (v, d) = rec.timed("flush", id, 0, || 41 + 1);
        rec.close(id);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        assert!(rec.spans().is_empty());
    }
}
