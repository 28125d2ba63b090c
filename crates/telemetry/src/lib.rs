//! # hotdog-telemetry
//!
//! The observability substrate of the distributed runtime: a lock-cheap
//! [metrics registry](metrics) (counters, gauges, fixed log2-bucket
//! histograms — no external deps, matching the vendored-offline policy)
//! plus a per-batch [span tracer](trace), bundled as one [`Telemetry`]
//! handle that driver, transport and benches share through an `Arc`.
//!
//! Two read paths:
//!
//! * **[`MetricsSnapshot`]** — frozen maps with derived equality.  Its
//!   [`MetricsSnapshot::deterministic`] subset (`driver.*` / `worker.*`
//!   counters) must be bit-identical across the threaded and TCP
//!   backends; the workspace telemetry oracle asserts it.
//!   [`MetricsSnapshot::render_text`] prints it one metric per line.
//! * **The trace** — every recorded [`SpanRecord`].  With
//!   `HOTDOG_TRACE=<path>` set, dropping the owning cluster writes it as
//!   one Chrome trace-event JSON file to `<path>`.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    chrome_trace_json, critical_path, structure as trace_structure, ActiveSpan, CriticalPath,
    SpanContext, SpanRecord, SpanStructure, Tracer, WorkerTracer, TRACE_ENV,
};

use std::sync::Arc;

/// One shared telemetry handle: a [`Registry`] plus a [`Tracer`].
///
/// The driver creates one per cluster (or adopts the transport's, so the
/// wire-level and scheduler-level metrics land in the same registry) and
/// shares it via `Arc` with reader threads and callers.
#[derive(Default)]
pub struct Telemetry {
    registry: Registry,
    tracer: Tracer,
}

impl Telemetry {
    /// Fresh, empty telemetry.
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

    /// Freeze the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
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
    /// set.  Best-effort — a broken path must not panic a destructor — but
    /// never silent: a failed export prints one line naming the path and
    /// the error to stderr, so an unwritable path shows up instead of
    /// vanishing with the process.
    pub fn flush_trace_on_drop(&self) {
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                if let Err(err) = self.flush_trace(&path) {
                    eprintln!("hotdog: trace flush to {path} failed: {err}");
                }
            }
        }
    }
}
