//! Figure 9: weak scalability of distributed IVM — every worker processes a
//! fixed batch partition, the worker count grows.
//!
//! By default the simulated cluster reports *modelled* latency; with
//! `--real` the experiment runs on the `hotdog-runtime` thread-per-worker
//! backend (measured wall-clock), and with `--pipeline` (optionally
//! `--coalesce=N`) on its pipelined ingestion path.  Every run also
//! appends a `fig9_weak_scaling` section to `BENCH_runtime.json`
//! (machine-readable throughput and latency percentiles), plus a
//! `pipeline_stream` section comparing the epoch-synchronous and
//! pipelined+coalescing paths head-to-head on a many-small-batch stream —
//! the number tracked across PRs for the runtime's streaming throughput.

use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let backend = BackendKind::from_args();
    let per_worker: usize = std::env::var("HOTDOG_PER_WORKER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let workers_axis: &[usize] = match backend {
        BackendKind::Simulated => &[2, 4, 8, 16, 32, 64],
        _ => &[1, 2, 4, 8],
    };
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for id in ["Q6", "Q17", "Q3", "Q7"] {
        let q = query(id).unwrap();
        for &workers in workers_axis {
            let batch = per_worker * workers;
            let stream = stream_for(&q, batch * 2, 9);
            let run = run_distributed_on(&q, &stream, workers, batch, OptLevel::O3, backend);
            rows.push(vec![
                id.into(),
                workers.to_string(),
                (per_worker * workers).to_string(),
                f(run.median_latency_secs * 1e3),
                f(run.throughput / 1e3),
                f(run.mb_shuffled_per_worker),
            ]);
            runs.push(run);
        }
    }
    print_table(
        &format!(
            "Figure 9 — weak scaling ({per_worker} tuples/worker/batch, {})",
            backend.label()
        ),
        &[
            "query",
            "workers",
            "batch",
            backend.latency_column(),
            "throughput (Ktup/s)",
            "MB shuffled/worker",
        ],
        &rows,
    );
    emit_bench_json("fig9_weak_scaling", &runs);

    // Streaming head-to-head (the acceptance number for the pipelined
    // runtime): 64 small batches through the epoch-synchronous path vs. the
    // pipelined path coalescing up to 64 batches into one trigger.
    let tuples_per_batch: usize = std::env::var("HOTDOG_STREAM_BATCH")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    // Worker count of the measured stream comparisons.  Overridable so CI's
    // bench_diff gate can pin it to the committed baseline's value (the
    // comparison keys include the worker count; the tracked numbers are
    // per-host ratios, not absolute throughput).
    let workers = std::env::var("HOTDOG_STREAM_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| num_cpus_capped(4));
    let mut cmp_rows = Vec::new();
    let mut cmp_json = Vec::new();
    for id in ["Q3", "Q6"] {
        let q = query(id).unwrap();
        let cmp =
            compare_stream_throughput(&q, workers, 64, tuples_per_batch, 64 * tuples_per_batch);
        cmp_rows.push(vec![
            id.into(),
            workers.to_string(),
            format!("64 x {tuples_per_batch}"),
            f(cmp.sync.throughput / 1e3),
            f(cmp.pipelined.throughput / 1e3),
            format!("{:.2}x", cmp.speedup()),
            cmp.pipelined
                .coalesce
                .as_ref()
                .map(|c| format!("{} -> {}", c.batches_admitted, c.batches_executed))
                .unwrap_or_default(),
        ]);
        cmp_json.push(cmp.to_json());
    }
    print_table(
        "Pipelined stream throughput (epoch-synchronous vs pipelined+coalescing)",
        &[
            "query",
            "workers",
            "stream",
            "sync (Ktup/s)",
            "pipelined (Ktup/s)",
            "speedup",
            "triggers",
        ],
        &cmp_rows,
    );
    let path = json::bench_json_path();
    let _ = json::update_bench_json(&path, "pipeline_stream", &json::jarray(cmp_json));

    // Net-overhead head-to-head (the acceptance number for the socket
    // transport): the same 64-small-batch stream through the
    // epoch-synchronous threaded backend and through the multi-process
    // TCP backend — same driver, same schedule, real sockets instead of
    // channels.  The ratio is what the wire costs; the ROADMAP's
    // network-path optimizations are held against it.
    let mut net_rows = Vec::new();
    let mut net_json = Vec::new();
    for id in ["Q3", "Q6"] {
        let q = query(id).unwrap();
        let cmp = compare_net_overhead(&q, workers, 64, tuples_per_batch);
        net_rows.push(vec![
            id.into(),
            workers.to_string(),
            format!("64 x {tuples_per_batch}"),
            f(cmp.threaded.throughput / 1e3),
            f(cmp.tcp.throughput / 1e3),
            format!("{:.2}x", cmp.tcp_vs_threaded()),
        ]);
        net_json.push(cmp.to_json());
    }
    print_table(
        "Net overhead (threaded channels vs multi-process TCP, epoch-synchronous)",
        &[
            "query",
            "workers",
            "stream",
            "threaded (Ktup/s)",
            "tcp (Ktup/s)",
            "tcp/threaded",
        ],
        &net_rows,
    );
    let _ = json::update_bench_json(&path, "net_overhead", &json::jarray(net_json));

    // Columnar-vs-row interpreter head-to-head (the acceptance number for
    // the vectorized trigger path): the same stream through a single
    // threaded worker with the `HOTDOG_COLUMNAR` knob off and on.  One
    // worker so trigger execution dominates; both arms are bit-identical
    // in output, so the ratio is pure interpreter speed.
    let mut col_rows = Vec::new();
    let mut col_json = Vec::new();
    for id in ["Q3", "Q6"] {
        let q = query(id).unwrap();
        let cmp = compare_columnar(&q, 1, 16, 32 * tuples_per_batch);
        col_rows.push(vec![
            id.into(),
            "1".into(),
            format!("16 x {}", 32 * tuples_per_batch),
            f(cmp.row.throughput / 1e3),
            f(cmp.columnar.throughput / 1e3),
            format!("{:.2}x", cmp.columnar_vs_row()),
        ]);
        col_json.push(cmp.to_json());
    }
    print_table(
        "Columnar trigger execution (row interpreter vs vectorized, 1 worker)",
        &[
            "query",
            "workers",
            "stream",
            "row (Ktup/s)",
            "columnar (Ktup/s)",
            "columnar/row",
        ],
        &col_rows,
    );
    let _ = json::update_bench_json(&path, "columnar", &json::jarray(col_json));

    // Static-vs-adaptive coalescing on a stream whose batch-size
    // distribution shifts mid-run (the adaptive controller's acceptance
    // number: `adaptive_vs_best_static`).  Phase sizes scale with
    // HOTDOG_STREAM_SCALE so CI smoke mode stays fast.
    let scale: usize = std::env::var("HOTDOG_STREAM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let phases: Vec<(usize, usize)> = vec![(192 * scale, 2), (24 * scale, 48), (3 * scale, 512)];
    let mut ad_rows = Vec::new();
    let mut ad_json = Vec::new();
    for id in ["Q3", "Q6"] {
        let q = query(id).unwrap();
        let cmp = compare_adaptive_stream(&q, workers, &phases, 64);
        let (best_label, best_tps) = {
            let (l, t) = cmp.best_static();
            (l.to_string(), t)
        };
        for (label, run) in &cmp.runs {
            ad_rows.push(vec![
                id.into(),
                label.clone(),
                f(run.throughput / 1e3),
                run.coalesce
                    .as_ref()
                    .map(|c| format!("{} -> {}", c.batches_admitted, c.batches_executed))
                    .unwrap_or_default(),
                run.coalesce
                    .as_ref()
                    .map(|c| c.coalesce_bound.to_string())
                    .unwrap_or_default(),
            ]);
        }
        ad_rows.push(vec![
            id.into(),
            format!("best static: {best_label}"),
            f(best_tps / 1e3),
            format!("adaptive/best = {:.2}", cmp.adaptive_vs_best_static()),
            String::new(),
        ]);
        ad_json.push(cmp.to_json());
    }
    print_table(
        "Adaptive coalescing on a shifting-batch-size stream (static {1, 64, inf} vs adaptive)",
        &[
            "query",
            "config",
            "throughput (Ktup/s)",
            "triggers",
            "final bound",
        ],
        &ad_rows,
    );
    let _ = json::update_bench_json(&path, "adaptive_stream", &json::jarray(ad_json));
}
