//! Compile a TPC-H query for distributed execution, print the generated
//! distributed program (scatter/repartition/gather structure and fused
//! statement blocks, cf. Figure 5), then run it on every execution backend:
//! the simulated cluster (modelled latency, arbitrary worker counts), the
//! real `hotdog-runtime` thread-per-worker backend (measured wall-clock
//! latency, workers bounded by your cores), and the pipelined runtime with
//! delta coalescing streaming many small batches (measured stream
//! throughput plus coalescing statistics).
//!
//! Run with: `cargo run --release --example distributed_scaling [query] [tuples]`

use hotdog::prelude::*;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "Q3".to_string());
    let tuples: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    let cq = query(&id).expect("unknown query id");
    let stream = generate_tpch(7, tuples);

    let plan = compile_recursive(cq.id, &cq.expr);
    let spec = PartitioningSpec::heuristic(&plan, &cq.partition_keys);
    let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
    let (jobs, stages) = dplan.complexity();
    println!("{}", dplan.pretty());
    println!("jobs: {jobs}, stages: {stages}\n");

    println!("simulated cluster (modelled time):");
    println!(
        "{:>8} {:>16} {:>18} {:>16}",
        "workers", "median latency", "throughput (t/s)", "MB shuffled"
    );
    for workers in [2usize, 4, 8, 16, 32] {
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(workers));
        for batch in stream.batches(5_000) {
            for (rel, delta) in batch {
                cluster.apply_batch(rel, &delta);
            }
        }
        println!(
            "{:>8} {:>14.1}ms {:>18.0} {:>16.2}",
            workers,
            cluster.totals.median_latency() * 1e3,
            cluster.totals.throughput(),
            cluster.totals.bytes_shuffled as f64 / 1e6,
        );
    }

    println!("\nthreaded runtime (measured wall-clock):");
    println!(
        "{:>8} {:>16} {:>18} {:>10}",
        "workers", "median latency", "throughput (t/s)", "speedup"
    );
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let mut cluster = ThreadedCluster::new(dplan, workers);
        for batch in stream.batches(5_000) {
            for (rel, delta) in batch {
                cluster.apply_batch(rel, &delta);
            }
        }
        let total = cluster.totals.latency_secs;
        let speedup = *baseline.get_or_insert(total) / total;
        println!(
            "{:>8} {:>14.1}ms {:>18.0} {:>9.2}x",
            workers,
            cluster.totals.median_latency() * 1e3,
            cluster.totals.throughput(),
            speedup,
        );
    }

    // The pipelined ingestion path shines on streams of *small* batches:
    // the admission queue ring-sums consecutive same-relation batches into
    // few large triggers and overlaps driver and worker work.
    let small_batch = 64usize;
    println!("\npipelined runtime (measured, {small_batch}-tuple batches, coalescing):");
    println!(
        "{:>8} {:>18} {:>10} {:>22} {:>10}",
        "workers", "throughput (t/s)", "vs sync", "triggers (adm->exec)", "queue max"
    );
    for workers in [1usize, 2, 4] {
        let batches = stream.batches(small_batch);
        let mut sync =
            ThreadedCluster::new(compile_distributed(&plan, &spec, OptLevel::O3), workers);
        sync.apply_stream(&batches);
        let mut piped = ThreadedCluster::pipelined(
            compile_distributed(&plan, &spec, OptLevel::O3),
            workers,
            PipelineConfig::with_coalesce(64 * small_batch),
        );
        piped.apply_stream(&batches);
        // Coalescing ring-sums k batches into one trigger: exact in real
        // arithmetic, so only float re-association separates the results.
        assert!(
            piped
                .query_result()
                .approx_eq_eps(&sync.query_result(), 1e-9),
            "pipelined result must match the synchronous backend"
        );
        let speedup = piped.totals.throughput() / sync.totals.throughput().max(1e-12);
        let stats = piped.pipeline_stats().expect("pipelined backend");
        println!(
            "{:>8} {:>18.0} {:>9.2}x {:>22} {:>10}",
            workers,
            piped.totals.throughput(),
            speedup,
            format!("{} -> {}", stats.batches_admitted, stats.batches_executed),
            stats.max_queue_depth,
        );
    }
}
