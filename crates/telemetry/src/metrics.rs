//! The metrics registry: named counters, gauges and log-scale histograms
//! backed by plain atomics.
//!
//! Instrumented code registers a metric **once** (an `Arc` handle out of
//! the registry's mutex) and then updates it with one relaxed atomic op
//! per event — the hot path never takes a lock.  [`MetricsSnapshot`]
//! freezes the whole registry into ordinary maps with derived equality,
//! which is what the differential telemetry oracle compares across
//! backends.
//!
//! Histograms use **fixed log2 buckets**: bucket 0 holds exact zeros and
//! bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, so 65 buckets cover
//! the full `u64` range with no configuration and snapshots from
//! different processes are always mergeable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a recorded value: `0` for an exact zero, otherwise
/// `64 - leading_zeros` (the position of the highest set bit, 1-based),
/// so bucket `i >= 1` covers `[2^(i-1), 2^i)` and `u64::MAX` lands in
/// bucket 64.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket (`0` for bucket 0, else `2^(i-1)`).
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, ledger size).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Set the current value, tracking the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever `set`.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` values with the fixed log2 bucket layout
/// described in the module docs, plus exact count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (the convention every `_micros`
    /// histogram in the catalog follows).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freeze into a snapshot (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

/// Frozen histogram state: exact count/sum/min/max plus the non-empty
/// `(bucket_index, count)` pairs in index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Integer mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log2 bucket
    /// boundaries: walk the cumulative bucket counts to the bucket holding
    /// the rank-`ceil(q * count)` value and report that bucket's inclusive
    /// upper edge (`2^i - 1`), clamped into the exact `[min, max]` range —
    /// so the estimate is within one power of two of the true value, never
    /// outside the observed range, and exact for single-bucket histograms.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let upper = if *i as usize >= HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << *i) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The `(p50, p95, p99)` quantile estimates (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// The named-metric registry.  Registration takes a lock; updates through
/// the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// Get or register the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name).or_default().clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name).or_default().clone()
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        map.entry(name).or_default().clone()
    }

    /// Current value of a counter, `0` if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self.counters.lock().expect("registry poisoned");
        map.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Freeze every registered metric.  Gauges snapshot their high-water
    /// mark alongside the current value (as `<name>.high_water`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        for (k, v) in self.gauges.lock().expect("registry poisoned").iter() {
            gauges.insert(k.to_string(), v.get());
            gauges.insert(format!("{k}.high_water"), v.high_water());
        }
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen view of a whole registry, with derived equality — the value
/// the telemetry differential oracle compares across backends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a counter to an absolute value (used to merge worker-reported
    /// totals into a driver snapshot).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Counters under the deterministic prefixes whose values are
    /// nevertheless wall-clock dependent, excluded from
    /// [`MetricsSnapshot::deterministic`] by name:
    /// `worker.heartbeat_missed` counts silent heartbeat intervals, a pure
    /// function of timing, not of the admission sequence.
    const TIMING_DEPENDENT: &'static [&'static str] = &["worker.heartbeat_missed"];

    /// The subset of this snapshot that must be **bit-identical across
    /// transports**: the `driver.*` and `worker.*` counters, which depend
    /// only on the admission sequence and the shared driver schedule —
    /// never on wall-clock time or on how bytes move.  Gauges (sampled
    /// occupancy), `net.*` counters (transport-specific by definition),
    /// histograms (latency-valued) and the `TIMING_DEPENDENT` denylist
    /// (wall-clock-valued counters under the deterministic prefixes,
    /// e.g. `worker.heartbeat_missed`) are excluded.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| {
                    (k.starts_with("driver.") || k.starts_with("worker."))
                        && !Self::TIMING_DEPENDENT.contains(&k.as_str())
                })
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Human-readable dump (one metric per line, sorted).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, h) in &self.histograms {
            let (p50, p95, p99) = h.percentiles();
            let _ = writeln!(
                out,
                "{k}: count={} sum={} min={} max={} mean={} p50~{p50} p95~{p95} p99~{p99}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
            for (i, n) in &h.buckets {
                let _ = writeln!(out, "  >= {:>20} : {n}", bucket_floor(*i as usize));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_zero_is_its_own_bucket() {
        assert_eq!(bucket_index(0), 0);
        let h = Histogram::default();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 1)]);
        assert_eq!((snap.min, snap.max, snap.sum, snap.count), (0, 0, 0, 1));
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket i >= 1 covers [2^(i-1), 2^i): each boundary value starts
        // a new bucket and its predecessor closes the previous one.
        assert_eq!(bucket_index(1), 1);
        for bit in 1..64 {
            let boundary = 1u64 << bit;
            assert_eq!(bucket_index(boundary), bit + 1, "2^{bit}");
            assert_eq!(bucket_index(boundary - 1), bit, "2^{bit} - 1");
            assert_eq!(bucket_floor(bit + 1), boundary);
        }
    }

    #[test]
    fn bucket_u64_max_lands_in_the_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(64, 2)]);
        assert_eq!(snap.max, u64::MAX);
        // Sum wraps modulo 2^64 by construction (relaxed fetch_add); the
        // exact per-bucket counts and min/max stay faithful.
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn quantiles_track_log2_bucket_edges() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty histogram");
        // 90 values in [8, 16) and 10 in [1024, 2048): p50 sits in the
        // low bucket, p99 in the high one; estimates clamp to [min, max].
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let snap = h.snapshot();
        let (p50, p95, p99) = snap.percentiles();
        assert_eq!(p50, 15, "upper edge of [8, 16)");
        assert_eq!(p95, 1500, "upper edge 2047 clamped to max");
        assert_eq!(p99, 1500);
        assert!(snap.quantile(0.0) >= snap.min);
        assert_eq!(snap.quantile(1.0), 1500);
        // A single-bucket histogram is exact.
        let one = Histogram::default();
        one.record(0);
        one.record(0);
        assert_eq!(one.snapshot().percentiles(), (0, 0, 0));
    }

    #[test]
    fn render_text_prints_percentiles() {
        let reg = Registry::default();
        reg.histogram("driver.gather_micros").record(10);
        let text = reg.snapshot().render_text();
        assert!(text.contains("p50~10 p95~10 p99~10"), "{text}");
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let reg = Registry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter_value("x"), 3);
        assert_eq!(reg.counter_value("never-registered"), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn snapshot_equality_is_structural() {
        let a = Registry::default();
        let b = Registry::default();
        a.counter("driver.requests.total").add(5);
        b.counter("driver.requests.total").add(5);
        a.histogram("driver.gather_micros").record(10);
        b.histogram("driver.gather_micros").record(10);
        assert_eq!(a.snapshot(), b.snapshot());
        b.counter("driver.requests.total").inc();
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn deterministic_subset_drops_transport_specific_metrics() {
        let reg = Registry::default();
        reg.counter("driver.requests.total").add(1);
        reg.counter("worker.instructions").add(9);
        reg.counter("net.bytes_sent").add(1234);
        reg.gauge("driver.queue.depth").set(3);
        reg.histogram("driver.gather_micros").record(17);
        let det = reg.snapshot().deterministic();
        assert_eq!(det.counter("driver.requests.total"), 1);
        assert_eq!(det.counter("worker.instructions"), 9);
        assert!(!det.counters.contains_key("net.bytes_sent"));
        assert!(det.gauges.is_empty() && det.histograms.is_empty());
    }
}
