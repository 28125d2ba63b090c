//! Per-batch distributed tracing: span trees with wire-propagated context.
//!
//! Every admitted batch opens a **root span** carrying a trace id
//! derived from the admission sequence (a per-tracer counter — never
//! wall-clock randomness), with child spans for admission, coalescing,
//! scatter encode, per-worker trigger execution, gather, watermark commit
//! and subscription fan-out.  Trace context crosses the wire as a compact
//! [`SpanContext`] `(trace_id, parent_span)` header on
//! `RunBlock`/`ApplyMany`/`Fetch` protocol messages; workers open their
//! spans under it and ship the finished [`SpanRecord`]s back piggybacked
//! on the tagged `Stats` round, so one batch yields one stitched tree
//! whether the backend is simulated, threaded or TCP.
//!
//! Two disjoint determinism domains, mirroring the metrics registry's
//! counter/histogram split:
//!
//! * The **structure slice** ([`structure`]) — `(trace, id, parent, name,
//!   track)` per span — is a pure function of the admission sequence and
//!   the shared driver schedule, and must be bit-identical threaded vs
//!   TCP (the `trace_oracle` arm asserts it).  Driver spans number from a
//!   per-tracer counter on track 0; worker spans number from a per-node
//!   counter namespaced by `(track << 32)`, so ids cannot collide across
//!   tracks and each node's FIFO command stream yields the same ids on
//!   every transport.
//! * The **durations** (`start_micros`/`end_micros`, measured against a
//!   process-wide monotonic epoch) are wall-clock by definition: they feed
//!   the `trace.*` histograms, the [`critical_path`] analyzer and the
//!   Chrome trace export, and are excluded from the deterministic slice.

use crate::flight::escape_json;
use crate::metrics::Registry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable naming the Chrome trace-event JSON export path.
/// When set, dropping the owning cluster writes one complete trace file
/// (thread-per-worker track layout, loadable in Perfetto / `chrome://tracing`).
pub const TRACE_ENV: &str = "HOTDOG_TRACE";

/// Spans held per tracer before older records are dropped (a runaway-
/// stream backstop; the drop count is reported, never silent).
pub const MAX_SPANS: usize = 1 << 20;

/// Microseconds since the process-wide trace epoch (the first call).
/// Span timestamps share one epoch so tracks from every node of an
/// in-process cluster align on a single timeline.
pub fn micros_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now()
        .duration_since(epoch)
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// Wire-propagated trace context: which trace a command belongs to and
/// which span to parent the receiver's spans under.  `(0, 0)` means "not
/// traced" (trace ids start at 1), encoded/decoded like any other field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanContext {
    pub trace: u64,
    pub parent: u64,
}

impl SpanContext {
    /// The absent context.
    pub const NONE: SpanContext = SpanContext {
        trace: 0,
        parent: 0,
    };

    /// Whether this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One finished span, as stored in a tracer or shipped in a `Stats` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The batch's trace id (1-based admission sequence of the tracer).
    pub trace: u64,
    /// This span's id, unique within the tree (see module docs).
    pub id: u64,
    /// Parent span id (`0` for the root).
    pub parent: u64,
    /// Stage name (`"batch"`, `"admit"`, `"worker.run_block"`, …).
    pub name: String,
    /// Display track: `0` for the driver, `w + 1` for worker `w`.
    pub track: u32,
    /// Start, microseconds since the process trace epoch.
    pub start_micros: u64,
    /// End, microseconds since the process trace epoch.
    pub end_micros: u64,
}

impl SpanRecord {
    /// Wall-clock duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }
}

/// The deterministic slice of one span: everything except the durations.
/// Ordered so sorted slices from two backends compare positionally.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanStructure {
    pub trace: u64,
    pub track: u32,
    pub id: u64,
    pub parent: u64,
    pub name: String,
}

/// Project spans onto their deterministic structure slice, sorted — the
/// value the `trace_oracle` differential arm compares across transports.
pub fn structure(spans: &[SpanRecord]) -> Vec<SpanStructure> {
    let mut out: Vec<SpanStructure> = spans
        .iter()
        .map(|s| SpanStructure {
            trace: s.trace,
            track: s.track,
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
        })
        .collect();
    out.sort();
    out
}

/// An open span: begun but not yet recorded.  Plain data (no lock held),
/// so a pipelined driver can park a batch's root span in its admission
/// queue until execution completes.
#[derive(Clone, Debug)]
pub struct ActiveSpan {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub track: u32,
    pub start_micros: u64,
}

impl ActiveSpan {
    /// The context a child span (local or remote) opens under.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace: self.trace,
            parent: self.id,
        }
    }
}

/// The driver-side span store: finished records plus the trace/span id
/// counters.  One per [`Telemetry`](crate::Telemetry) handle; worker nodes
/// use the lock-free [`WorkerTracer`] instead and piggyback their records
/// here over the `Stats` protocol round.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

#[derive(Debug, Default)]
struct TracerInner {
    spans: Vec<SpanRecord>,
    next_trace: u64,
    next_span: u64,
    dropped: u64,
}

impl Tracer {
    /// Allocate the next trace id (1-based, the admission sequence).
    pub fn new_trace(&self) -> u64 {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        inner.next_trace += 1;
        inner.next_trace
    }

    /// Open a span on `track` under `ctx`; `None` when the context carries
    /// no trace (nothing is recorded, callers stay branch-free).
    pub fn begin(&self, ctx: SpanContext, name: &'static str, track: u32) -> Option<ActiveSpan> {
        if ctx.is_none() {
            return None;
        }
        let id = {
            let mut inner = self.inner.lock().expect("tracer poisoned");
            inner.next_span += 1;
            inner.next_span
        };
        Some(ActiveSpan {
            trace: ctx.trace,
            id,
            parent: ctx.parent,
            name,
            track,
            start_micros: micros_now(),
        })
    }

    /// Open a fresh root span for a new batch trace on track 0.
    pub fn begin_root(&self, name: &'static str) -> ActiveSpan {
        let trace = self.new_trace();
        self.begin(SpanContext { trace, parent: 0 }, name, 0)
            .expect("fresh trace id is never 0")
    }

    /// Close an open span, storing its record; returns the record.
    pub fn finish(&self, span: ActiveSpan) -> SpanRecord {
        let rec = SpanRecord {
            trace: span.trace,
            id: span.id,
            parent: span.parent,
            name: span.name.to_string(),
            track: span.track,
            start_micros: span.start_micros,
            end_micros: micros_now(),
        };
        self.record(rec.clone());
        rec
    }

    /// Store one finished record (bounded; see [`MAX_SPANS`]).
    pub fn record(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        inner.spans.push(rec);
    }

    /// Store a batch of finished records (worker piggyback ingest).
    pub fn record_all(&self, recs: impl IntoIterator<Item = SpanRecord>) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        for rec in recs {
            if inner.spans.len() >= MAX_SPANS {
                inner.dropped += 1;
                continue;
            }
            inner.spans.push(rec);
        }
    }

    /// Every span recorded so far (cloned out; recording continues).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("tracer poisoned").spans.clone()
    }

    /// Number of spans dropped at the [`MAX_SPANS`] bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("tracer poisoned").dropped
    }

    /// The highest trace id allocated so far.
    pub fn latest_trace(&self) -> u64 {
        self.inner.lock().expect("tracer poisoned").next_trace
    }
}

/// A worker node's span buffer: no lock (each node is single-threaded),
/// ids namespaced by `(track << 32) | seq` so records stitched into the
/// driver's tree cannot collide with driver span ids or with other
/// workers'.  Drained by the `Stats` protocol round; cleared (buffer only,
/// never the id counter — replayed batches must not reuse ids) on
/// `Restore`.
#[derive(Debug, Default)]
pub struct WorkerTracer {
    spans: Vec<SpanRecord>,
    next: u64,
    track: u32,
}

impl WorkerTracer {
    /// Set this node's display track (`w + 1` for worker `w`).
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Open a span under a wire context; `None` when untraced.
    pub fn begin(&mut self, ctx: SpanContext, name: &'static str) -> Option<ActiveSpan> {
        if ctx.is_none() {
            return None;
        }
        self.next += 1;
        Some(ActiveSpan {
            trace: ctx.trace,
            id: ((self.track as u64) << 32) | self.next,
            parent: ctx.parent,
            name,
            track: self.track,
            start_micros: micros_now(),
        })
    }

    /// Close an open span (no-op for `None`, the untraced case).
    pub fn finish(&mut self, span: Option<ActiveSpan>) {
        let Some(span) = span else { return };
        if self.spans.len() >= MAX_SPANS {
            return;
        }
        self.spans.push(SpanRecord {
            trace: span.trace,
            id: span.id,
            parent: span.parent,
            name: span.name.to_string(),
            track: span.track,
            start_micros: span.start_micros,
            end_micros: micros_now(),
        });
    }

    /// Drain the buffered records (the `Stats` piggyback payload).
    pub fn take(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }

    /// Discard buffered records without resetting the id counter (the
    /// `Restore` path: replayed batches allocate fresh ids).
    pub fn clear_buffer(&mut self) {
        self.spans.clear();
    }
}

/// Histogram name a finished span's duration folds into, `None` for stage
/// names outside the catalog.  All under the `trace.` prefix, which the
/// deterministic snapshot slice excludes (histograms are latency-valued).
pub fn stage_histogram_name(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "batch" => "trace.batch_micros",
        "admit" => "trace.admit_micros",
        "coalesce" => "trace.coalesce_micros",
        "scatter.encode" => "trace.scatter_encode_micros",
        "gather" => "trace.gather_micros",
        "watermark.commit" => "trace.watermark_commit_micros",
        "fanout.split" => "trace.fanout_split_micros",
        "worker.run_block" => "trace.worker_run_block_micros",
        "worker.apply" => "trace.worker_apply_micros",
        "worker.fetch" => "trace.worker_fetch_micros",
        _ => return None,
    })
}

/// Fold a span's duration into its stage histogram (no-op for stages
/// outside the catalog).
pub fn fold_span_histogram(registry: &Registry, rec: &SpanRecord) {
    if let Some(name) = stage_histogram_name(&rec.name) {
        registry.histogram(name).record(rec.duration_micros());
    }
}

/// Wall-clock attribution of one trace: total root duration and the
/// per-stage breakdown of its critical path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// The analyzed trace.
    pub trace: u64,
    /// Root span wall-clock, microseconds.
    pub total_micros: u64,
    /// `(stage name, attributed micros)`, largest first.  Sums to
    /// `total_micros`: every instant of the root window is attributed to
    /// exactly one named span on the longest dependency chain.
    pub stages: Vec<(String, u64)>,
}

impl CriticalPath {
    /// Fraction of the root wall-clock attributed to stages other than the
    /// root itself (i.e. explained by named children).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_micros == 0 {
            return 1.0;
        }
        let named: u64 = self.stages.iter().map(|(_, micros)| micros).sum();
        named as f64 / self.total_micros as f64
    }
}

/// Walk one trace's span tree backwards from the root's end, attributing
/// every instant of the root window to the longest dependency chain
/// through it: at each cursor position, descend into the child ending
/// latest before the cursor (the stage the batch was actually waiting on);
/// gaps no child covers are the parent's own time.  Driver stall vs
/// slowest-worker trigger vs wire encode vs fan-out split fall out as the
/// per-stage sums.  Returns one [`CriticalPath`] per call; `None` when the
/// trace has no root span.
pub fn critical_path(spans: &[SpanRecord], trace: u64) -> Option<CriticalPath> {
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
    let root = in_trace.iter().find(|s| s.parent == 0)?;
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &in_trace {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut attributed: HashMap<&str, u64> = HashMap::new();
    attribute(root, &children, &mut attributed, 0, 0, u64::MAX);
    let mut stages: Vec<(String, u64)> = attributed
        .into_iter()
        .map(|(name, micros)| (name.to_string(), micros))
        .collect();
    // Largest first; name-tiebreak keeps the report deterministic.
    stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Some(CriticalPath {
        trace,
        total_micros: root.duration_micros(),
        stages,
    })
}

/// Recursion guard for pathological parent cycles (impossible from our
/// instrumentation, cheap to hold against corrupt ingested records).
const MAX_CHAIN_DEPTH: usize = 64;

fn attribute<'a>(
    span: &'a SpanRecord,
    children: &HashMap<u64, Vec<&'a SpanRecord>>,
    out: &mut HashMap<&'a str, u64>,
    depth: usize,
    clip_start: u64,
    clip_end: u64,
) {
    // This invocation owns the window [start, end] of the timeline; the
    // clip bounds keep overlapping siblings from being counted twice.
    let start = span.start_micros.max(clip_start);
    let mut cursor = span.end_micros.min(clip_end);
    if cursor <= start {
        return;
    }
    if depth < MAX_CHAIN_DEPTH {
        // Children sorted by end, latest first: the backward walk picks the
        // stage whose completion gated the parent at each point in time.
        let mut kids: Vec<&&SpanRecord> = children
            .get(&span.id)
            .map_or_else(Vec::new, |ks| ks.iter().collect());
        kids.sort_by(|a, b| b.end_micros.cmp(&a.end_micros).then(b.id.cmp(&a.id)));
        for child in kids {
            let child_end = child.end_micros.min(cursor);
            let child_start = child.start_micros.max(start);
            if child_end <= child_start {
                continue;
            }
            // The gap after this child (and before the previously walked
            // one) is the parent's own time: nothing else was running.
            if cursor > child_end {
                *out.entry(&span.name).or_default() += cursor - child_end;
            }
            attribute(child, children, out, depth + 1, child_start, child_end);
            cursor = child_start;
            if cursor <= start {
                break;
            }
        }
    }
    if cursor > start {
        *out.entry(&span.name).or_default() += cursor - start;
    }
}

/// Render spans as a complete Chrome trace-event JSON document ("X"
/// duration events plus "M" thread-name metadata; Perfetto and
/// `chrome://tracing` load it directly).  Tracks map to `tid`s: the driver
/// on track 0, worker `w` on track `w + 1` — the thread-per-worker
/// layout.  Only complete events are emitted, so the file can never hold
/// an unclosed span.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        let name = if track == 0 {
            "driver".to_string()
        } else {
            format!("worker{}", track - 1)
        };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{track},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"hotdog\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            escape_json(&s.name),
            s.start_micros,
            s.duration_micros(),
            s.track,
            s.trace,
            s.id,
            s.parent
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        trace: u64,
        id: u64,
        parent: u64,
        name: &str,
        track: u32,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name: name.to_string(),
            track,
            start_micros: start,
            end_micros: end,
        }
    }

    #[test]
    fn trace_and_span_ids_are_sequential() {
        let t = Tracer::default();
        let root = t.begin_root("batch");
        assert_eq!((root.trace, root.id, root.parent), (1, 1, 0));
        let child = t.begin(root.context(), "admit", 0).unwrap();
        assert_eq!((child.trace, child.id, child.parent), (1, 2, 1));
        assert!(t.begin(SpanContext::NONE, "x", 0).is_none());
        t.finish(child);
        t.finish(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.latest_trace(), 1);
    }

    #[test]
    fn worker_ids_are_namespaced_by_track() {
        let mut w = WorkerTracer::default();
        w.set_track(3);
        let ctx = SpanContext {
            trace: 7,
            parent: 1,
        };
        let s = w.begin(ctx, "worker.run_block").unwrap();
        assert_eq!(s.id, (3u64 << 32) | 1);
        assert_eq!(s.track, 3);
        w.finish(Some(s));
        assert!(w.begin(SpanContext::NONE, "worker.run_block").is_none());
        let drained = w.take();
        assert_eq!(drained.len(), 1);
        assert!(w.take().is_empty());
    }

    #[test]
    fn structure_slice_ignores_durations() {
        let a = vec![
            rec(1, 1, 0, "batch", 0, 0, 100),
            rec(1, 2, 1, "gather", 0, 10, 90),
        ];
        let b = vec![
            rec(1, 2, 1, "gather", 0, 55, 77),
            rec(1, 1, 0, "batch", 0, 3, 999),
        ];
        assert_eq!(structure(&a), structure(&b));
    }

    #[test]
    fn critical_path_attributes_the_full_root_window() {
        // root [0, 100]; workers [10, 40] and [10, 70]; gather [70, 95].
        let spans = vec![
            rec(1, 1, 0, "batch", 0, 0, 100),
            rec(1, (1 << 32) | 1, 1, "worker.run_block", 1, 10, 40),
            rec(1, (2 << 32) | 1, 1, "worker.run_block", 2, 10, 70),
            rec(1, 2, 1, "gather", 0, 70, 95),
        ];
        let cp = critical_path(&spans, 1).expect("root exists");
        assert_eq!(cp.total_micros, 100);
        let sum: u64 = cp.stages.iter().map(|(_, m)| m).sum();
        assert_eq!(sum, 100, "every instant attributed: {:?}", cp.stages);
        let get = |n: &str| cp.stages.iter().find(|(k, _)| k == n).map(|(_, m)| *m);
        // Backward walk: [95,100] batch, [70,95] gather, [10,70] the slow
        // worker (the chain the batch actually waited on), [0,10] batch.
        assert_eq!(get("gather"), Some(25));
        assert_eq!(get("worker.run_block"), Some(60));
        assert_eq!(get("batch"), Some(15));
        assert!((cp.attributed_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_without_root_is_none() {
        assert_eq!(critical_path(&[], 1), None);
        let spans = vec![rec(2, 5, 4, "gather", 0, 0, 10)];
        assert_eq!(critical_path(&spans, 2), None);
    }

    #[test]
    fn chrome_export_is_complete_events_only() {
        let spans = vec![
            rec(1, 1, 0, "batch", 0, 0, 100),
            rec(1, (1 << 32) | 1, 1, "worker.run_block", 1, 10, 40),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(!json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"worker0\""));
        assert!(json.contains("\"name\":\"driver\""));
        // Balanced and self-contained: ends with the closing of traceEvents.
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn stage_histograms_fold_known_names_only() {
        let reg = Registry::default();
        fold_span_histogram(&reg, &rec(1, 1, 0, "batch", 0, 0, 50));
        fold_span_histogram(&reg, &rec(1, 2, 1, "not.a.stage", 0, 0, 50));
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["trace.batch_micros"].count, 1);
        assert_eq!(snap.histograms.len(), 1);
    }
}
