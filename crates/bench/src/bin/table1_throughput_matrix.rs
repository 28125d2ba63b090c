//! Table 1: throughput of re-evaluation, classical IVM and recursive IVM for
//! the TPC-H and TPC-DS catalogs across batch sizes (tuples per second).

use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    // The full matrix is expensive; default to a reduced stream and the
    // batch sizes that show the trend.  Scale up with `--tuples=N`.
    let tuples = (Args::parse().tuples / 3).max(5_000);
    let batch_sizes = [1usize, 100, 10_000];
    let mut rows = Vec::new();
    for q in all_queries() {
        let stream = stream_for(&q, tuples, 13);
        let mut row = vec![q.id.to_string()];
        for strategy in [
            Strategy::Reevaluation,
            Strategy::ClassicalIvm,
            Strategy::RecursiveIvm,
        ] {
            for bs in batch_sizes {
                let run = run_local(
                    &q,
                    &stream,
                    strategy,
                    ExecMode::Batched { preaggregate: true },
                    bs,
                );
                row.push(f(run.throughput));
            }
        }
        let single = single_tuple_baseline(&q, &stream);
        row.push(f(single.throughput));
        rows.push(row);
    }
    print_table(
        &format!("Table 1 — throughput in tuples/sec ({tuples} tuples per query)"),
        &[
            "query",
            "reeval b=1",
            "reeval b=100",
            "reeval b=10k",
            "ivm b=1",
            "ivm b=100",
            "ivm b=10k",
            "rivm b=1",
            "rivm b=100",
            "rivm b=10k",
            "rivm single",
        ],
        &rows,
    );
}
