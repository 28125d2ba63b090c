//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a unit test holds the
//! two together so a metric cannot be printed under a name the contract
//! does not know.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; identical on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_tps", "tuples/s"),
    m("latency_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("shuffle_bytes_per_tuple", "B"),
];

/// Single-layer numbers from the traced run (layer = crate).
pub const PER_LAYER: &[MetricDef] = &[
    m("workload.generate_s", "s"),
    m("harness.lap_spread", "frac"),
    m("harness.trace_overhead_frac", "frac"),
    m("ivm.compile_ms", "ms"),
    m("ivm.statements", "count"),
    m("distributed.compile_ms", "ms"),
    m("distributed.partition_ns_per_tuple", "ns"),
    m("distributed.partition_skew", "ratio"),
    m("distributed.blocks_per_round", "count"),
    m("distributed.stages", "count"),
    m("distributed.sim_single_thread_tps", "tuples/s"),
    m("algebra.relation_add_ns", "ns"),
    m("algebra.canonical_ns_per_tuple", "ns"),
    m("storage.pool_update_ns", "ns"),
    m("storage.pool_slice_ns", "ns"),
    m("storage.columnar_build_ns_per_row", "ns"),
    m("exec.trigger_ns_per_tuple", "ns"),
    m("exec.trigger_us_per_round", "us"),
    m("exec.vector_compile_us", "us"),
    m("exec.vector_coverage", "frac"),
    m("exec.instructions_per_tuple", "count"),
    m("runtime.cluster_start_ms", "ms"),
    m("runtime.driver_cpu_frac", "frac"),
    m("runtime.worker_cpu_frac", "frac"),
    m("runtime.round_p95_ms", "ms"),
    m("runtime.round_p99_ms", "ms"),
    m("runtime.admit_us", "us"),
    m("runtime.read_ms_p50", "ms"),
    m("runtime.flush_ms", "ms"),
    m("runtime.coalesce_ratio", "frac"),
    m("runtime.tuples_executed_frac", "frac"),
    m("runtime.max_queue_depth", "count"),
    m("runtime.scatter_msgs_per_round", "count"),
    m("runtime.gathers_overlapped", "count"),
    m("runtime.stage.admit_frac", "frac"),
    m("runtime.stage.coalesce_frac", "frac"),
    m("runtime.stage.scatter_encode_frac", "frac"),
    m("runtime.stage.gather_frac", "frac"),
    m("runtime.stage.commit_frac", "frac"),
    m("runtime.stage.worker_run_block_frac", "frac"),
    m("runtime.stage.worker_apply_frac", "frac"),
    m("runtime.stage.worker_fetch_frac", "frac"),
    m("runtime.critical_path_attributed_frac", "frac"),
    m("net.cluster_start_ms", "ms"),
    m("net.encode_ns_per_tuple", "ns"),
    m("net.decode_ns_per_tuple", "ns"),
    m("net.wire_bytes_per_tuple", "B"),
    m("net.bulk_encode_ns_per_tuple", "ns"),
    m("net.bulk_decode_ns_per_tuple", "ns"),
    m("net.bulk_wire_bytes_per_tuple", "B"),
    m("net.frame_rtt_us", "us"),
    m("net.frames_per_round", "count"),
    m("net.bytes_per_round", "B"),
    m("net.broadcast_cache_hit_frac", "frac"),
    m("net.worker_cpu_frac", "frac"),
    m("serve.subscribe_us", "us"),
    m("serve.publish_ms_p50", "ms"),
    m("serve.pump_ms_p50", "ms"),
    m("serve.split_ns_per_subscriber", "ns"),
    m("serve.client_apply_us", "us"),
    m("serve.deltas_per_round", "count"),
    m("serve.push_bytes_per_round", "B"),
    m("telemetry.snapshot_ms", "ms"),
    m("telemetry.spans_per_round", "count"),
    m("telemetry.spans_dropped", "count"),
    m("process.cpu_s_per_mtuple", "s"),
    m("process.vol_ctx_switches_per_round", "count"),
];

/// Values gathered for one run, keyed by catalogue name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names set that `catalogue` does not list (a typo or a stale name).
    fn unknown(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .keys()
            .filter(|k| !catalogue.iter().any(|d| d.name == **k))
            .copied()
            .collect()
    }
}

fn json_number(v: f64) -> String {
    // Not finite has no JSON form; an empty float sum is -0.0.
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Outcome of one run, printed as the final line of standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

impl Outcome {
    /// One line per metric, by name with its unit.  A per-layer metric whose
    /// layer the workload does not exercise reads 0.
    pub fn render_table(&self, catalogue: &[MetricDef]) -> String {
        let unknown = self.values.unknown(catalogue);
        assert!(
            unknown.is_empty(),
            "metrics outside the catalogue: {unknown:?}"
        );
        catalogue
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).unwrap_or(0.0);
                format!("{:<44} {:>18} {}\n", d.name, json_number(v), d.unit)
            })
            .collect()
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn render_json(&self, catalogue: &[MetricDef]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(d
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` must list exactly this catalogue, in this order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str, until: &str| -> String {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let to = text[from..].find(until).map_or(text.len(), |i| from + i);
            text[from..to].to_string()
        };
        let listed = |body: &str| -> Vec<(String, String)> {
            body.split("\"name\"")
                .skip(1)
                .map(|chunk| {
                    let quoted: Vec<&str> = chunk.split('"').collect();
                    let unit_at = quoted.iter().position(|s| *s == "unit").expect("unit");
                    (quoted[1].to_string(), quoted[unit_at + 2].to_string())
                })
                .collect()
        };
        let pairs = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(
            listed(&section("end_to_end", "\"per_layer\"")),
            pairs(END_TO_END)
        );
        assert_eq!(listed(&section("per_layer", "\u{0}")), pairs(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 1.25);
        values.set("throughput_tps", f64::NAN);
        let out = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            values,
        };
        let line = out.render_json(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_tps\": {\"value\": 0, \"unit\": \"tuples/s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "outside the catalogue")]
    fn unknown_metric_names_are_refused() {
        let mut values = Values::default();
        values.set("made.up", 1.0);
        let out = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values,
        };
        out.render_table(END_TO_END);
    }
}
