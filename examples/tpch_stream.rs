//! Maintain TPC-H-style continuous queries over a synthetic update stream,
//! comparing the maintenance strategies and batch sizes of the paper's
//! local experiments (Section 6.1) at laptop scale — then the same stream
//! through the recommended production configuration: the pipelined
//! threaded backend with delta coalescing and the tagged-reply protocol.
//!
//! All arms run the vectorized columnar trigger interpreter (results are
//! bit-identical to the row interpreter's, see the README's "Columnar
//! execution" section).
//!
//! Run with: `cargo run --release --example tpch_stream [tuples]`

use hotdog::prelude::*;
use std::time::Instant;

fn main() {
    let tuples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let stream = generate_tpch(42, tuples);
    println!("generated TPC-H stream with {} tuples\n", stream.len());

    let query_ids = ["Q1", "Q3", "Q6", "Q17"];
    let batch_size = 1_000;

    // Local engine: the paper's strategy/mode matrix.  Recursive IVM with
    // batched execution (the last arm) is the configuration everything
    // distributed builds on.
    println!(
        "{:<6} {:<22} {:>12} {:>14} {:>10}",
        "query", "strategy/mode", "tuples/s", "time", "result size"
    );
    for id in query_ids {
        let cq = query(id).expect("query in catalog");
        for (label, strategy, mode) in [
            (
                "reeval",
                Strategy::Reevaluation,
                ExecMode::Batched {
                    preaggregate: false,
                },
            ),
            (
                "classical ivm",
                Strategy::ClassicalIvm,
                ExecMode::Batched {
                    preaggregate: false,
                },
            ),
            (
                "rivm single-tuple",
                Strategy::RecursiveIvm,
                ExecMode::SingleTuple,
            ),
            (
                "rivm batched",
                Strategy::RecursiveIvm,
                ExecMode::Batched { preaggregate: true },
            ),
        ] {
            let plan = compile(cq.id, &cq.expr, strategy);
            let mut engine = LocalEngine::new(plan, mode);
            let start = Instant::now();
            for batch in stream.batches(batch_size) {
                for (rel, delta) in batch {
                    engine.apply_batch(rel, &delta);
                }
            }
            let elapsed = start.elapsed();
            println!(
                "{:<6} {:<22} {:>12.0} {:>14?} {:>10}",
                id,
                label,
                stream.len() as f64 / elapsed.as_secs_f64(),
                elapsed,
                engine.query_result().len()
            );
        }
        println!();
    }

    // The recommended distributed configuration: recursive IVM compiled for
    // the cluster, streamed through the pipelined driver with **delta
    // coalescing** (up to 4096 tuples per trigger) over the **tagged-reply
    // protocol** (async gathers + batched scatters).  The stream is
    // admitted in small batches — coalescing, not the caller, decides the
    // trigger granularity.  Swap `ThreadedCluster` for `TcpCluster` to run
    // the identical driver over sockets.
    let workers = 4;
    let admit_size = 64;
    println!(
        "{:<6} {:<30} {:>12} {:>14} {:>20}",
        "query", "distributed (recommended)", "tuples/s", "time", "admitted -> triggers"
    );
    for id in query_ids {
        let cq = query(id).expect("query in catalog");
        let mplan = compile_recursive(cq.id, &cq.expr);
        let spec = PartitioningSpec::heuristic(&mplan, &cq.partition_keys);
        let dplan = compile_distributed(&mplan, &spec, OptLevel::O3);
        let mut cluster = ThreadedCluster::pipelined(dplan, workers, PipelineConfig::default());
        let start = Instant::now();
        cluster.apply_stream(&stream.batches(admit_size));
        let elapsed = start.elapsed();
        let stats = cluster.pipeline_stats().expect("pipelined backend");
        println!(
            "{:<6} {:<30} {:>12.0} {:>14?} {:>20}",
            id,
            format!("pipeline x{workers}"),
            stream.len() as f64 / elapsed.as_secs_f64(),
            elapsed,
            format!("{} -> {}", stats.batches_admitted, stats.batches_executed)
        );
    }
}
