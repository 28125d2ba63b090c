//! Table 2: cache-locality proxy for TPC-H Q3 across batch sizes.  Hardware
//! counters are replaced by engine counters: interpreter "instructions" and
//! index/pool probes (a proxy for last-level-cache references).

use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let tuples = Args::parse().tuples;
    let q = query("Q3").unwrap();
    let stream = stream_for(&q, tuples, 3);
    let mut rows = Vec::new();

    let single = single_tuple_baseline(&q, &stream);
    rows.push(vec![
        "single".into(),
        single.instructions.to_string(),
        single.probes.to_string(),
        f(single.throughput),
    ]);
    for bs in [1usize, 10, 100, 1_000, 10_000] {
        let run = run_local(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched { preaggregate: true },
            bs,
        );
        rows.push(vec![
            format!("batch {bs}"),
            run.instructions.to_string(),
            run.probes.to_string(),
            f(run.throughput),
        ]);
    }
    print_table(
        &format!("Table 2 — Q3 work counters vs batch size ({tuples} tuples)"),
        &[
            "config",
            "instructions (proxy)",
            "index probes (LLC-ref proxy)",
            "tuples/s",
        ],
        &rows,
    );
}
