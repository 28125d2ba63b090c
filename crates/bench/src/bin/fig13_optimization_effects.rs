//! Figure 13: effect of the distributed-compilation optimizations (O0 naive,
//! O1 simplifications, O2 block fusion, O3 CSE/DCE) on TPC-H Q3 latency.

use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let batch = Args::parse().strong_batch.unwrap_or(8_000);
    let q = query("Q3").unwrap();
    let stream = stream_for(&q, batch * 2, 12);
    let mut rows = Vec::new();
    for workers in [2usize, 4, 8, 16, 32] {
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let run = run_distributed(&q, &stream, workers, batch, opt);
            rows.push(vec![
                workers.to_string(),
                opt.label().to_string(),
                f(run.median_latency_secs * 1e3),
                run.stages.to_string(),
                f(run.mb_shuffled_per_worker),
            ]);
        }
    }
    print_table(
        &format!("Figure 13 — optimization effects on Q3 ({batch}-tuple batches, modelled)"),
        &[
            "workers",
            "opt level",
            "median latency (ms)",
            "stages",
            "MB shuffled/worker",
        ],
        &rows,
    );
}
