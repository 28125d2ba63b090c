//! Quickstart: define a query in the algebra, compile it into a recursive
//! incremental view maintenance plan, keep its result fresh while batches
//! of updates stream in — first on the local engine, then on the
//! recommended production configuration: the pipelined threaded backend
//! with delta coalescing and the tagged-reply protocol.
//!
//! Run with: `cargo run --release --example quickstart`

use hotdog::prelude::*;

fn main() {
    // SELECT B, COUNT(*) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY B
    // (the running example of the paper, Example 2.1).
    let query = sum(
        ["B"],
        join_all([
            rel("R", ["A", "B"]),
            rel("S", ["B", "C"]),
            rel("T", ["C", "D"]),
        ]),
    );

    // Compile with recursive incremental view maintenance and print the
    // generated auxiliary views and triggers (Example 2.2).
    let plan = compile("Q", &query, Strategy::RecursiveIvm);
    println!("{}", plan.pretty());

    // Trigger statements execute through the vectorized columnar
    // interpreter (bit-identical to the row interpreter, just faster on
    // batches); see the README's "Columnar execution" section.

    // Execute locally: batches of insertions (positive multiplicity) and
    // deletions (negative multiplicity) keep the result fresh.
    let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });

    let r_batch = Relation::from_pairs(
        Schema::new(["A", "B"]),
        (0..1000i64).map(|i| {
            (
                Tuple::from_values([Value::Long(i), Value::Long(i % 10)]),
                1.0,
            )
        }),
    );
    let s_batch = Relation::from_pairs(
        Schema::new(["B", "C"]),
        (0..100i64).map(|i| {
            (
                Tuple::from_values([Value::Long(i % 10), Value::Long(i)]),
                1.0,
            )
        }),
    );
    let t_batch = Relation::from_pairs(
        Schema::new(["C", "D"]),
        (0..100i64).map(|i| {
            (
                Tuple::from_values([Value::Long(i), Value::Long(i * 7)]),
                1.0,
            )
        }),
    );

    let stats_r = engine.apply_batch("R", &r_batch);
    println!(
        "applied ΔR: {} tuples in {:?} ({} statements)",
        stats_r.input_tuples, stats_r.elapsed, stats_r.statements_executed
    );
    engine.apply_batch("S", &s_batch);
    engine.apply_batch("T", &t_batch);

    println!("\nquery result (first 5 groups):");
    for (tuple, count) in engine.query_result().sorted().into_iter().take(5) {
        println!("  B = {tuple} -> {count}");
    }

    // Deletions are just negative multiplicities.
    let deletion = Relation::from_pairs(
        Schema::new(["A", "B"]),
        vec![(Tuple::from_values([Value::Long(0), Value::Long(0)]), -1.0)],
    );
    engine.apply_batch("R", &deletion);
    println!("\nafter deleting R(0, 0):");
    for (tuple, count) in engine.query_result().sorted().into_iter().take(5) {
        println!("  B = {tuple} -> {count}");
    }

    println!(
        "\ntotals: {} batches, {} tuples, {:.0} tuples/sec",
        engine.totals.batches,
        engine.totals.tuples,
        engine.totals.throughput()
    );

    // ------------------------------------------------------------------
    // The same query, distributed — the recommended configuration.
    //
    // `PipelineConfig::default()` turns on the admission queue with delta
    // coalescing (up to `coalesce_tuples` = 4096 tuples per trigger), fully
    // async gathers and batched scatters over the tagged-reply protocol.
    // Swap `ThreadedCluster` for `TcpCluster` and the identical driver runs
    // over sockets.
    // ------------------------------------------------------------------
    let mplan = compile_recursive("Q", &query);
    let spec = PartitioningSpec::heuristic(&mplan, &["B"]);
    let dplan = compile_distributed(&mplan, &spec, OptLevel::O3);
    let mut cluster = ThreadedCluster::pipelined(dplan, 4, PipelineConfig::default());

    // Stream the same updates as many small batches: coalescing ring-sums
    // them into a few trigger executions instead of one per batch.
    for chunk in r_batch.sorted().chunks(50) {
        let delta = Relation::from_pairs(Schema::new(["A", "B"]), chunk.iter().cloned());
        cluster.apply_batch("R", &delta);
    }
    cluster.apply_batch("S", &s_batch);
    cluster.apply_batch("T", &t_batch);
    cluster.flush();

    println!("\ndistributed (4 workers, pipelined), first 5 groups:");
    for (tuple, count) in cluster.query_result().sorted().into_iter().take(5) {
        println!("  B = {tuple} -> {count}");
    }
    if let Some(stats) = cluster.pipeline_stats() {
        println!(
            "pipeline: {} admitted -> {} triggers, {} gathers overlapped, {} scatter messages saved",
            stats.batches_admitted,
            stats.batches_executed,
            stats.gathers_overlapped,
            stats.scatter_messages_saved
        );
    }
}
