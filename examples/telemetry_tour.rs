//! Tour of the observability layer: run a pipelined threaded cluster over
//! a TPC-H stream, then read what the telemetry records —
//!
//! 1. the metrics registry (`metrics_snapshot()`), whose deterministic
//!    slice is bit-identical on every backend, with each worker's own
//!    counters and view cardinalities beside it (`worker_stats()`),
//! 2. the per-batch trace, written as Chrome trace-event JSON to
//!    `HOTDOG_TRACE=path` when the driver drops.
//!
//! Run with:
//!
//! ```text
//! HOTDOG_TRACE=/tmp/tour.json \
//!     cargo run --release --example telemetry_tour [query] [tuples]
//! ```

use hotdog::prelude::*;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "Q3".to_string());
    let tuples: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    let cq = query(&id).expect("unknown query id");
    let stream = generate_tpch(7, tuples);
    let plan = compile_recursive(cq.id, &cq.expr);
    let spec = PartitioningSpec::heuristic(&plan, &cq.partition_keys);
    let dplan = compile_distributed(&plan, &spec, OptLevel::O3);

    let config = PipelineConfig {
        coalesce_tuples: 2048,
        admit_capacity: 4,
        ..Default::default()
    };
    let mut cluster = ThreadedCluster::pipelined(dplan, 2, config);
    for batch in stream.batches(500) {
        for (rel, delta) in batch {
            cluster.apply_batch(rel, &delta);
        }
    }
    cluster.flush();
    println!("result checksum: {:?}\n", cluster.query_result().checksum());

    // Surface 1: the registry, worker counters summed in.  Its
    // deterministic slice is bit-identical on the TCP backend for the
    // same stream.
    let snapshot = cluster.metrics_snapshot();
    println!("deterministic cross-backend counters:");
    println!("{}", snapshot.deterministic().render_text());
    for (w, snap) in cluster.worker_stats().iter().enumerate() {
        let held: u64 = snap.cardinalities.iter().map(|(_, n)| n).sum();
        println!(
            "worker {w}: {} blocks, {} instructions, {held} tuples held",
            snap.stats.blocks_run, snap.stats.instructions
        );
    }
    println!("\nthe whole registry:\n{}", snapshot.render_text());

    // Surface 2: on drop, HOTDOG_TRACE=path writes every batch's span
    // tree (open it in Perfetto or chrome://tracing).
    match std::env::var(hotdog::telemetry::TRACE_ENV) {
        Ok(path) if !path.is_empty() => println!("trace will be written to {path} on exit"),
        _ => println!("set HOTDOG_TRACE=<path> to write the trace on exit"),
    }
}
