//! Figure 9: weak scalability of distributed IVM — every worker processes a
//! fixed batch partition, the worker count grows.
//!
//! By default the simulated cluster reports *modelled* latency; with
//! `--real` the experiment runs on the `hotdog-runtime` thread-per-worker
//! backend (measured wall-clock), with `--pipeline` (optionally
//! `--coalesce=N`) on its pipelined ingestion path, and with `--tcp` on the
//! multi-process socket backend (this binary re-runs itself as the
//! workers).  A second table compares the
//! synchronous and pipelined+coalescing paths head-to-head on a
//! many-small-batch stream.
//! `--per-worker=N`, `--stream-batch=N` and `--stream-workers=N` size the
//! two tables.

use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let args = Args::parse();
    let backend = args.backend;
    let per_worker = args.per_worker;
    let workers_axis: &[usize] = match backend {
        BackendKind::Simulated => &[2, 4, 8, 16, 32, 64],
        _ => &[1, 2, 4, 8],
    };
    let mut rows = Vec::new();
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

    // Streaming head-to-head (the acceptance number for the pipelined
    // runtime): 64 small batches through the synchronous path vs. the
    // pipelined path coalescing up to 64 batches into one trigger.
    let tuples_per_batch = args.stream_batch;
    let workers = args.stream_workers;
    let mut cmp_rows = Vec::new();
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
    }
    print_table(
        "Pipelined stream throughput (synchronous vs pipelined+coalescing)",
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
}
