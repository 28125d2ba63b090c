//! Figure 8: TPC-H Q17 view refresh rate for re-evaluation, classical IVM
//! (the PostgreSQL stand-ins run on the same interpreter) and recursive IVM,
//! across batch sizes.

use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let tuples = (Args::parse().tuples / 3).max(3_000);
    let q = query("Q17").unwrap();
    let stream = stream_for(&q, tuples, 8);
    let batch_sizes = [1usize, 10, 100, 1_000, 10_000];

    let mut rows = Vec::new();
    let single = single_tuple_baseline(&q, &stream);
    rows.push(vec![
        "RIVM single-tuple".into(),
        "-".into(),
        f(single.throughput),
    ]);
    for (label, strategy) in [
        ("Re-eval", Strategy::Reevaluation),
        ("IVM (classical)", Strategy::ClassicalIvm),
        ("RIVM (recursive)", Strategy::RecursiveIvm),
    ] {
        for bs in batch_sizes {
            let run = run_local(
                &q,
                &stream,
                strategy,
                ExecMode::Batched { preaggregate: true },
                bs,
            );
            rows.push(vec![label.into(), bs.to_string(), f(run.throughput)]);
        }
    }
    print_table(
        &format!("Figure 8 — Q17 view refresh rate (tuples/sec, {tuples} tuples)"),
        &["strategy", "batch size", "throughput"],
        &rows,
    );
}
