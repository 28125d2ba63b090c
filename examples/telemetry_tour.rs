//! Tour of the observability layer: run a pipelined threaded cluster over
//! a TPC-H stream, then read what the telemetry records —
//!
//! 1. the deterministic cross-backend totals (`telemetry_totals`),
//! 2. the full metrics registry (`metrics_snapshot().render_text()`),
//! 3. the per-batch trace, written as Chrome trace-event JSON to
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

    // Surface 1: the deterministic totals — bit-identical on the TCP
    // backend for the same stream.
    let totals = cluster.telemetry_totals();
    println!("deterministic cross-backend totals:");
    println!("  messages sent     {:>12}", totals.messages_sent);
    println!("  replies received  {:>12}", totals.replies_received);
    println!("  blocks run        {:>12}", totals.blocks_run);
    println!("  statements        {:>12}", totals.statements);
    println!("  instructions      {:>12}", totals.instructions);
    println!("  tuples applied    {:>12}", totals.tuples_applied);
    for (w, snap) in totals.per_worker.iter().enumerate() {
        let held: u64 = snap.cardinalities.iter().map(|(_, n)| n).sum();
        println!(
            "  worker {w}: {} blocks, {} instructions, {held} tuples held",
            snap.stats.blocks_run, snap.stats.instructions
        );
    }

    // Surface 2: the full registry, worker counters folded in.
    println!("\n{}", cluster.metrics_snapshot().render_text());

    // Surface 3: on drop, HOTDOG_TRACE=path writes every batch's span
    // tree (open it in Perfetto or chrome://tracing).
    match std::env::var(hotdog::telemetry::TRACE_ENV) {
        Ok(path) if !path.is_empty() => println!("trace will be written to {path} on exit"),
        _ => println!("set HOTDOG_TRACE=<path> to write the trace on exit"),
    }
}
