//! Figure 12: normalized throughput of the TPC-DS queries for different
//! batch sizes, single-tuple execution as the baseline.

use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let tuples = Args::parse().tuples;
    let batch_sizes = [1usize, 10, 100, 1_000, 10_000];
    let mut rows = Vec::new();
    for q in tpcds_queries() {
        let stream = stream_for(&q, tuples, 17);
        let baseline = single_tuple_baseline(&q, &stream);
        let mut row = vec![q.id.to_string(), f(baseline.throughput)];
        for bs in batch_sizes {
            let run = run_local(
                &q,
                &stream,
                Strategy::RecursiveIvm,
                ExecMode::Batched { preaggregate: true },
                bs,
            );
            row.push(f(run.throughput / baseline.throughput));
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 12 — TPC-DS normalized batched throughput ({tuples} tuples)"),
        &[
            "query",
            "single t/s",
            "bs=1",
            "bs=10",
            "bs=100",
            "bs=1k",
            "bs=10k",
        ],
        &rows,
    );
}
