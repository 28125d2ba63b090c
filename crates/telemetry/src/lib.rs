//! # hotdog-telemetry
//!
//! The observability substrate of the distributed runtime: a lock-cheap
//! [metrics registry](metrics) (counters, gauges, fixed log2-bucket
//! histograms — no external deps, matching the vendored-offline policy)
//! plus a bounded in-memory [flight recorder](flight) of structured
//! events, bundled as one [`Telemetry`] handle that driver, transport and
//! benches share through an `Arc`.
//!
//! Two read paths:
//!
//! * **[`MetricsSnapshot`]** — frozen maps with derived equality.  Its
//!   [`MetricsSnapshot::deterministic`] subset (`driver.*` / `worker.*`
//!   counters) must be bit-identical across the threaded and TCP
//!   backends; the workspace telemetry oracle asserts it.
//! * **`SIGUSR1` / drop dumps** — [`Telemetry::install_signal_dump`]
//!   arms a flag-only signal handler; instrumented code polls
//!   [`Telemetry::poll_dump`] at safe points and prints
//!   [`Telemetry::dump_text`] to stderr.  With `HOTDOG_TELEMETRY=<path>`
//!   set, dropping the owning cluster appends the flight ring as JSON
//!   lines (plus one final `metrics.snapshot` line) to `<path>`.
//!
//! `HOTDOG_LOG=1` additionally mirrors every flight event to stderr as
//! it happens.

#![deny(unsafe_code)]

pub mod flight;
pub mod metrics;
pub mod signal;
pub mod trace;

pub use flight::{Event, FieldValue, FlightRecorder};
pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    chrome_trace_json, critical_path, structure as trace_structure, ActiveSpan, CriticalPath,
    SpanContext, SpanRecord, SpanStructure, Tracer, WorkerTracer, TRACE_ENV,
};

use std::io::Write as _;
use std::sync::Arc;

/// Environment variable naming the JSONL flush path for drop-time dumps.
pub const TELEMETRY_ENV: &str = "HOTDOG_TELEMETRY";

/// One shared telemetry handle: a [`Registry`] plus a [`FlightRecorder`].
///
/// The driver creates one per cluster (or adopts the transport's, so the
/// wire-level and scheduler-level metrics land in the same registry) and
/// shares it via `Arc` with reader threads and callers.
#[derive(Default)]
pub struct Telemetry {
    registry: Registry,
    flight: FlightRecorder,
    tracer: Tracer,
}

impl Telemetry {
    /// Fresh telemetry with the default flight-ring capacity.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Fresh telemetry behind an `Arc`, ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Telemetry::new())
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The span tracer (driver-side span store; see [`trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Open the root span of a new batch trace (track 0).
    pub fn begin_batch_root(&self) -> ActiveSpan {
        self.tracer.begin_root("batch")
    }

    /// Open a driver-side span (track 0) under `ctx`; `None` when the
    /// context carries no trace.
    pub fn begin_span(&self, ctx: SpanContext, name: &'static str) -> Option<ActiveSpan> {
        self.tracer.begin(ctx, name, 0)
    }

    /// Close a driver-side span, folding its duration into the matching
    /// `trace.*` stage histogram.  No-op for `None` (the untraced case).
    pub fn finish_span(&self, span: Option<ActiveSpan>) {
        if let Some(span) = span {
            let rec = self.tracer.finish(span);
            trace::fold_span_histogram(&self.registry, &rec);
        }
    }

    /// Ingest worker-reported span records (the `Stats` piggyback),
    /// folding each duration into its `trace.*` stage histogram.
    pub fn ingest_spans(&self, spans: Vec<SpanRecord>) {
        for rec in &spans {
            trace::fold_span_histogram(&self.registry, rec);
        }
        self.tracer.record_all(spans);
    }

    /// Every span recorded so far (driver plus ingested worker records).
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.tracer.spans()
    }

    /// Get or register a counter (see [`Registry::counter`]).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Get or register a gauge (see [`Registry::gauge`]).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Get or register a histogram (see [`Registry::histogram`]).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Record one flight event.
    pub fn event(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.flight.record(kind, fields);
    }

    /// Freeze the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Arm the `SIGUSR1` handler for this process (idempotent).  Pair
    /// with [`Telemetry::poll_dump`] at safe points.
    pub fn install_signal_dump(&self) {
        signal::install();
    }

    /// If a `SIGUSR1` arrived since the last poll, print the
    /// human-readable dump to stderr.  One relaxed atomic read when idle.
    pub fn poll_dump(&self) {
        if signal::take_pending() {
            eprintln!("{}", self.dump_text());
        }
    }

    /// Human-readable dump: every metric, then the most recent flight
    /// events.
    pub fn dump_text(&self) -> String {
        let mut out = String::from("== hotdog telemetry ==\n");
        out.push_str(&self.snapshot().render_text());
        let events = self.flight.events();
        out.push_str(&format!(
            "-- flight recorder: {} event(s) held, {} dropped --\n",
            events.len(),
            self.flight.dropped()
        ));
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Append the flight ring as JSON lines (plus one final
    /// `metrics.snapshot` line carrying every counter) to `path`.
    pub fn flush_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(self.flight.render_jsonl().as_bytes())?;
        let snap = self.snapshot();
        let mut line = String::from("{\"event\":\"metrics.snapshot\"");
        for (k, v) in &snap.counters {
            line.push_str(&format!(",\"{k}\":{v}"));
        }
        line.push_str("}\n");
        file.write_all(line.as_bytes())
    }

    /// Drop-time hook: flush to `HOTDOG_TELEMETRY`'s path when set.
    /// Best-effort — a broken path must not panic a destructor — but
    /// never silent: a failed flush records one `telemetry.flush_failed`
    /// flight event and mirrors it to stderr, so an unwritable path shows
    /// up instead of vanishing with the process.
    pub fn flush_on_drop(&self) {
        if let Ok(path) = std::env::var(TELEMETRY_ENV) {
            if !path.is_empty() {
                if let Err(err) = self.flush_jsonl(&path) {
                    self.flight.record(
                        "telemetry.flush_failed",
                        vec![
                            ("path", path.as_str().into()),
                            ("error", err.to_string().into()),
                        ],
                    );
                    if let Some(event) = self.flight.events_of("telemetry.flush_failed").last() {
                        eprintln!("hotdog: {}", event.to_json());
                    }
                }
            }
        }
    }

    /// Whether `HOTDOG_TRACE` names a trace export path.
    pub fn trace_export_enabled() -> bool {
        std::env::var(TRACE_ENV).is_ok_and(|p| !p.is_empty())
    }

    /// Write every recorded span as one complete Chrome trace-event JSON
    /// document to `path` (overwriting: one complete file per run).
    pub fn flush_trace(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, chrome_trace_json(&self.tracer.spans()))
    }

    /// Drop-time hook: export the trace to `HOTDOG_TRACE`'s path when
    /// set.  Same failure contract as [`Telemetry::flush_on_drop`].
    pub fn flush_trace_on_drop(&self) {
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                if let Err(err) = self.flush_trace(&path) {
                    self.flight.record(
                        "telemetry.trace_flush_failed",
                        vec![
                            ("path", path.as_str().into()),
                            ("error", err.to_string().into()),
                        ],
                    );
                    if let Some(event) =
                        self.flight.events_of("telemetry.trace_flush_failed").last()
                    {
                        eprintln!("hotdog: {}", event.to_json());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_text_carries_metrics_and_events() {
        let t = Telemetry::new();
        t.counter("driver.requests.total").add(3);
        t.event("batch.admitted", vec![("relation", "R".into())]);
        let dump = t.dump_text();
        assert!(dump.contains("driver.requests.total = 3"));
        assert!(dump.contains("\"event\":\"batch.admitted\""));
        assert!(dump.contains("1 event(s) held, 0 dropped"));
    }

    #[test]
    fn jsonl_flush_appends_snapshot_line() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "hotdog-telemetry-test-{}.jsonl",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new();
        t.counter("net.frames_sent").add(2);
        t.event("worker.spawned", vec![("worker", 0u64.into())]);
        t.flush_jsonl(&path_str).expect("flush");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"worker.spawned\""));
        assert!(lines[1].contains("\"event\":\"metrics.snapshot\""));
        assert!(lines[1].contains("\"net.frames_sent\":2"));
    }

    #[test]
    fn signal_poll_is_quiet_without_a_signal() {
        let t = Telemetry::new();
        t.install_signal_dump();
        t.poll_dump(); // must not print or panic
        assert!(!signal::take_pending());
    }
}
