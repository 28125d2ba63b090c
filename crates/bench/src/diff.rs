//! Bench-trend regression gate: compare two `BENCH_runtime.json` artifacts
//! and flag tracked metrics that regressed beyond a tolerance.
//!
//! Used by the `bench_diff` binary, which CI runs against a fresh smoke-mode
//! artifact to hold the runtime's wins instead of just measuring them.
//! Two metric classes with separate tolerances:
//!
//! * **ratio metrics** — machine-independent numbers computed on one host
//!   within one run (`pipeline_stream[*].speedup`,
//!   `adaptive_stream[*].adaptive_vs_best_static`,
//!   `net_overhead[*].tcp_vs_threaded`, `columnar[*].columnar_vs_row`,
//!   `fanout[*].shared_vs_per_subscriber`).
//!   These are the tight gate: a drop means the *relative* win shrank.
//! * **throughput metrics** — absolute tuples/sec
//!   (`fig9_weak_scaling.rows[*].throughput_tps`, same for fig10).  These
//!   move with the host, so their tolerance is loose by default; they catch
//!   order-of-magnitude cliffs, not percent-level noise.
//!
//! Rows present in the baseline but missing from the candidate are reported
//! as *missing*, not failed — smoke mode may legitimately run fewer points
//! (and modelled rows don't change machine-to-machine anyway).

use crate::json::JsonValue;

/// Allowed fractional drop per metric class (`0.25` = a candidate may be up
/// to 25% below the baseline before the gate trips).
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// For machine-independent ratio metrics (speedups).
    pub ratio: f64,
    /// For absolute throughput metrics (host-dependent).
    pub throughput: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            ratio: 0.25,
            throughput: 0.5,
        }
    }
}

/// One tracked metric compared across the two artifacts.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Human-readable metric identity, e.g.
    /// `pipeline_stream[Q3 x1].speedup`.
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    /// Fractional drop (`(baseline - candidate) / baseline`; negative =
    /// improvement).
    pub drop: f64,
    /// Allowed drop for this metric's class.
    pub tolerance: f64,
}

impl MetricDelta {
    pub fn regressed(&self) -> bool {
        self.drop > self.tolerance
    }
}

/// Result of diffing two artifacts.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every tracked metric found in both artifacts.
    pub compared: Vec<MetricDelta>,
    /// Tracked metrics present in the baseline but absent from the
    /// candidate (warned, not failed — unless a whole ratio section
    /// vanishes, see [`DiffReport::ratio_gate_lost`]).
    pub missing: Vec<String>,
    /// Some ratio *section* (the machine-independent tight gate —
    /// `pipeline_stream`, `adaptive_stream`) has rows in the baseline but
    /// matched *no* candidate row at all.  Individual missing rows are
    /// tolerated; a whole section evaporating (dropped by a bench change,
    /// or its comparison keys drifting) must not leave the deterministic
    /// modelled rows keeping CI green, so callers treat this as a failure.
    pub ratio_gate_lost: bool,
    /// Tracked-but-non-gating metrics: the per-run telemetry counters
    /// (`telemetry_*` row fields).  Reported for trend visibility — a
    /// message-count or instruction-count shift is worth seeing in the CI
    /// log — but never fails the gate: counts legitimately move with any
    /// intentional protocol or plan change.
    pub tracked: Vec<MetricDelta>,
}

impl DiffReport {
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.compared.iter().filter(|d| d.regressed()).collect()
    }
}

/// Identity of one `rows[]` entry in the fig9/fig10 sections.
fn row_key(row: &JsonValue) -> String {
    let s = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap_or("?");
    let n = |k: &str| {
        row.get(k)
            .and_then(|v| v.as_f64())
            .map(|v| format!("{v}"))
            .unwrap_or_else(|| "?".into())
    };
    format!(
        "{} {} x{} b{}",
        s("query"),
        s("backend"),
        n("workers"),
        n("batch_tuples")
    )
}

/// Identity of one `pipeline_stream` / `adaptive_stream` comparison entry.
fn cmp_key(entry: &JsonValue) -> String {
    let query = entry.get("query").and_then(|v| v.as_str()).unwrap_or("?");
    let workers = entry
        .get("workers")
        .and_then(|v| v.as_f64())
        .map(|v| format!("{v}"))
        .unwrap_or_else(|| "?".into());
    format!("{query} x{workers}")
}

/// Collect `(key, value)` for one metric field over an array of entries.
fn metric_rows<'a>(
    artifact: &'a JsonValue,
    section: &str,
    rows_field: Option<&str>,
    metric: &str,
    key_of: fn(&JsonValue) -> String,
) -> Vec<(String, f64)> {
    let Some(mut node) = artifact.get(section) else {
        return Vec::new();
    };
    if let Some(field) = rows_field {
        match node.get(field) {
            Some(inner) => node = inner,
            None => return Vec::new(),
        }
    }
    node.as_array()
        .into_iter()
        .flatten()
        .filter_map(|row| {
            let v = row.get(metric)?.as_f64()?;
            Some((key_of(row), v))
        })
        .collect()
}

/// Compare one metric across both artifacts, appending deltas and missing
/// keys to the report.
fn diff_metric(
    report: &mut DiffReport,
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
    label: &str,
    tolerance: f64,
) {
    for (key, base) in baseline {
        let Some((_, cand)) = candidate.iter().find(|(k, _)| k == key) else {
            report.missing.push(format!("{label}[{key}]"));
            continue;
        };
        let drop = if *base != 0.0 {
            (base - cand) / base.abs()
        } else if *cand >= 0.0 {
            0.0
        } else {
            1.0
        };
        report.compared.push(MetricDelta {
            metric: format!("{label}[{key}]"),
            baseline: *base,
            candidate: *cand,
            drop,
            tolerance,
        });
    }
}

/// The tracked machine-independent ratio metrics: `(section, field)`.
/// Shared by the per-PR gate ([`diff_artifacts`]), and by the
/// `bench_history` tool that appends one flattened line per main-branch
/// run to the committed `BENCH_HISTORY.jsonl`.
pub const RATIO_SECTIONS: [(&str, &str); 5] = [
    ("pipeline_stream", "speedup"),
    ("adaptive_stream", "adaptive_vs_best_static"),
    ("net_overhead", "tcp_vs_threaded"),
    ("columnar", "columnar_vs_row"),
    ("fanout", "shared_vs_per_subscriber"),
];

/// Per-run telemetry counters tracked across artifacts *without* gating
/// (see [`DiffReport::tracked`]): deterministic message/work counts plus
/// the wire byte counters, on the sections whose rows carry them.
pub const TRACKED_TELEMETRY_FIELDS: [&str; 4] = [
    "telemetry_messages_sent",
    "telemetry_instructions",
    "telemetry_net_bytes_sent",
    "telemetry_tuples_applied",
];

/// Where the telemetry counters actually live in the artifact: the
/// measured runs nested inside the comparison sections (`(section,
/// run_field)`).  The fig9/fig10 `rows` are modelled by default and
/// carry no telemetry; the head-to-head comparisons always run on a
/// real backend, so their embedded [`DistRun`](crate::DistRun) objects
/// are the durable cross-PR record of message/byte/instruction counts.
pub const TRACKED_TELEMETRY_RUNS: [(&str, &str); 6] = [
    ("pipeline_stream", "sync"),
    ("pipeline_stream", "pipelined"),
    ("net_overhead", "threaded"),
    ("net_overhead", "tcp"),
    ("columnar", "row"),
    ("columnar", "columnar"),
];

/// Collect `(key, value)` for one telemetry field over the nested run
/// objects of a comparison section.
fn nested_run_rows(
    artifact: &JsonValue,
    section: &str,
    run_field: &str,
    metric: &str,
) -> Vec<(String, f64)> {
    artifact
        .get(section)
        .and_then(|v| v.as_array())
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let v = entry.get(run_field)?.get(metric)?.as_f64()?;
            Some((cmp_key(entry), v))
        })
        .collect()
}

/// Flatten every tracked ratio metric of an artifact into
/// `("section.field[key]", value)` rows — the per-run record shape of the
/// committed bench history.
pub fn ratio_metrics(artifact: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (section, metric) in RATIO_SECTIONS {
        for (key, v) in metric_rows(artifact, section, None, metric, cmp_key) {
            out.push((format!("{section}.{metric}[{key}]"), v));
        }
    }
    out
}

/// Diff every tracked metric of two parsed `BENCH_runtime.json` artifacts.
pub fn diff_artifacts(
    baseline: &JsonValue,
    candidate: &JsonValue,
    tolerances: Tolerances,
) -> DiffReport {
    let mut report = DiffReport::default();
    // Machine-independent ratios: the tight gate, enforced per section.
    for (section, metric) in RATIO_SECTIONS {
        let base_rows = metric_rows(baseline, section, None, metric, cmp_key);
        let compared_before = report.compared.len();
        diff_metric(
            &mut report,
            &base_rows,
            &metric_rows(candidate, section, None, metric, cmp_key),
            &format!("{section}.{metric}"),
            tolerances.ratio,
        );
        if !base_rows.is_empty() && report.compared.len() == compared_before {
            report.ratio_gate_lost = true;
        }
    }
    // Absolute throughput: host-dependent, loose gate.
    for section in ["fig9_weak_scaling", "fig10_strong_scaling"] {
        diff_metric(
            &mut report,
            &metric_rows(baseline, section, Some("rows"), "throughput_tps", row_key),
            &metric_rows(candidate, section, Some("rows"), "throughput_tps", row_key),
            &format!("{section}.throughput_tps"),
            tolerances.throughput,
        );
    }
    // Telemetry counters: tracked for visibility, never gating.  Collected
    // into a scratch report so their comparisons and missing keys stay out
    // of the gated lists.
    let mut scratch = DiffReport::default();
    for section in ["fig9_weak_scaling", "fig10_strong_scaling"] {
        for field in TRACKED_TELEMETRY_FIELDS {
            diff_metric(
                &mut scratch,
                &metric_rows(baseline, section, Some("rows"), field, row_key),
                &metric_rows(candidate, section, Some("rows"), field, row_key),
                &format!("{section}.{field}"),
                f64::INFINITY,
            );
        }
    }
    for (section, run) in TRACKED_TELEMETRY_RUNS {
        for field in TRACKED_TELEMETRY_FIELDS {
            diff_metric(
                &mut scratch,
                &nested_run_rows(baseline, section, run, field),
                &nested_run_rows(candidate, section, run, field),
                &format!("{section}.{run}.{field}"),
                f64::INFINITY,
            );
        }
    }
    report.tracked = scratch.compared;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(speedup: f64, adaptive: f64, tps: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{
              "pipeline_stream": [
                {{"query": "Q3", "workers": 1, "speedup": {speedup}}}
              ],
              "adaptive_stream": [
                {{"query": "Q3", "workers": 1, "adaptive_vs_best_static": {adaptive}}}
              ],
              "fig9_weak_scaling": {{"rows": [
                {{"query": "Q6", "backend": "modelled", "workers": 2,
                  "batch_tuples": 4000, "throughput_tps": {tps}}}
              ]}}
            }}"#
        ))
        .expect("test artifact must parse")
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(1.5, 1.02, 60000.0);
        let report = diff_artifacts(&a, &a, Tolerances::default());
        assert_eq!(report.compared.len(), 3);
        assert!(report.regressions().is_empty());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn ratio_regression_beyond_tolerance_trips() {
        let base = artifact(2.0, 1.0, 60000.0);
        // 40% speedup drop vs 25% tolerance: trips.  Throughput halved vs
        // 50% tolerance: does not trip (boundary is strict).
        let cand = artifact(1.2, 1.0, 30000.0);
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.starts_with("pipeline_stream.speedup"));
        assert!((regs[0].drop - 0.4).abs() < 1e-12);
    }

    #[test]
    fn throughput_cliff_trips_the_loose_gate() {
        let base = artifact(1.5, 1.0, 60000.0);
        let cand = artifact(1.5, 1.0, 6000.0);
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].metric.starts_with("fig9_weak_scaling"));
    }

    #[test]
    fn improvements_never_trip() {
        let base = artifact(1.5, 0.9, 60000.0);
        let cand = artifact(3.0, 1.8, 120000.0);
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        assert!(report.regressions().is_empty());
        assert!(report.compared.iter().all(|d| d.drop < 0.0));
    }

    #[test]
    fn missing_candidate_rows_warn_but_do_not_fail() {
        let base = artifact(1.5, 1.0, 60000.0);
        let cand = JsonValue::parse(r#"{"pipeline_stream": []}"#).unwrap();
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        assert!(report.regressions().is_empty());
        assert_eq!(report.missing.len(), 3);
    }

    #[test]
    fn losing_every_ratio_metric_is_flagged() {
        let base = artifact(1.5, 1.0, 60000.0);
        // Candidate keeps the (deterministic) modelled rows but its stream
        // comparisons ran under different keys — e.g. a drifted worker
        // count — so no ratio metric matches.
        let cand = JsonValue::parse(
            r#"{
              "pipeline_stream": [
                {"query": "Q3", "workers": 4, "speedup": 1.5}
              ],
              "fig9_weak_scaling": {"rows": [
                {"query": "Q6", "backend": "modelled", "workers": 2,
                  "batch_tuples": 4000, "throughput_tps": 60000.0}
              ]}
            }"#,
        )
        .unwrap();
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        assert!(report.ratio_gate_lost, "lost ratio gate must be flagged");
        // The gate is per section: pipeline_stream matching does not excuse
        // adaptive_stream (the acceptance metric) going entirely missing.
        let cand2 = JsonValue::parse(
            r#"{"pipeline_stream": [{"query": "Q3", "workers": 1, "speedup": 1.4}]}"#,
        )
        .unwrap();
        let report2 = diff_artifacts(&base, &cand2, Tolerances::default());
        assert!(report2.ratio_gate_lost, "per-section loss must be flagged");
        // One matching row per ratio section clears the flag, even with
        // other (throughput) rows missing.
        let cand3 = JsonValue::parse(
            r#"{
              "pipeline_stream": [{"query": "Q3", "workers": 1, "speedup": 1.4}],
              "adaptive_stream": [
                {"query": "Q3", "workers": 1, "adaptive_vs_best_static": 1.0}
              ]
            }"#,
        )
        .unwrap();
        let report3 = diff_artifacts(&base, &cand3, Tolerances::default());
        assert!(!report3.ratio_gate_lost);
        assert!(!report3.missing.is_empty());
    }

    #[test]
    fn telemetry_counters_are_tracked_but_never_gate() {
        let with_telemetry = |msgs: u64, instr: u64| {
            JsonValue::parse(&format!(
                r#"{{
                  "pipeline_stream": [
                    {{"query": "Q3", "workers": 1, "speedup": 1.5,
                      "sync": {{"telemetry_messages_sent": {msgs},
                               "telemetry_instructions": {instr}}},
                      "pipelined": {{"telemetry_messages_sent": {msgs}}}}}
                  ],
                  "fig9_weak_scaling": {{"rows": [
                    {{"query": "Q6", "backend": "threaded", "workers": 2,
                      "batch_tuples": 4000, "throughput_tps": 60000.0,
                      "telemetry_messages_sent": {msgs},
                      "telemetry_instructions": {instr},
                      "telemetry_net_bytes_sent": 0,
                      "telemetry_tuples_applied": 777}}
                  ]}}
                }}"#
            ))
            .unwrap()
        };
        let base = with_telemetry(1000, 500_000);
        // A 10x message-count jump and an instruction collapse are both
        // reported in the tracked list — and neither trips the gate.
        let cand = with_telemetry(10_000, 50);
        let report = diff_artifacts(&base, &cand, Tolerances::default());
        assert!(report.regressions().is_empty());
        // 4 flat fig9 row fields + 3 nested comparison-run fields.
        assert_eq!(report.tracked.len(), 7);
        assert!(report.tracked.iter().all(|d| !d.regressed()));
        assert!(report.tracked.iter().any(|d| d
            .metric
            .starts_with("fig9_weak_scaling.telemetry_messages_sent")));
        assert!(report.tracked.iter().any(|d| d
            .metric
            .starts_with("pipeline_stream.sync.telemetry_instructions")));
        // Candidates without the new fields stay silent (old artifacts):
        // nothing compared, nothing missing from the *gated* lists.
        let old = JsonValue::parse(
            r#"{"pipeline_stream": [{"query": "Q3", "workers": 1, "speedup": 1.5}]}"#,
        )
        .unwrap();
        let report = diff_artifacts(&base, &old, Tolerances::default());
        assert!(report.tracked.is_empty());
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn custom_tolerances_apply() {
        let base = artifact(2.0, 1.0, 60000.0);
        let cand = artifact(1.9, 1.0, 50000.0);
        let strict = Tolerances {
            ratio: 0.01,
            throughput: 0.01,
        };
        let report = diff_artifacts(&base, &cand, strict);
        assert_eq!(report.regressions().len(), 2);
    }
}
