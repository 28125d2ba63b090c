//! Table 3: view-maintenance complexity of the TPC-H queries in the
//! distributed runtime — jobs and stages needed to process one batch, plus
//! the whole-view moves left in the O3 programs (views broadcast from the
//! driver + views re-hashed by another column; communication that grows
//! with the database rather than with the batch), how many of the batches'
//! columns the preprocessed triggers ship, how many triggers weigh their
//! batch by a value term and how many filter it by a static condition
//! before shipping it.

use hotdog::ivm::BatchPrep;
use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let mut rows = Vec::new();
    for q in tpch_queries() {
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let (jobs, stages) = dplan.complexity();
        let shipped: usize = dplan.programs.iter().map(|p| p.prep.kept().len()).sum();
        let arity: usize = dplan
            .programs
            .iter()
            .map(|p| p.prep.batch_schema().len())
            .sum();
        let count =
            |has: fn(&BatchPrep) -> bool| dplan.programs.iter().filter(|p| has(&p.prep)).count();
        let weighed = count(|prep| !prep.weight().is_empty());
        let filtered = count(|prep| !prep.filter().is_empty());
        rows.push(vec![
            q.id.to_string(),
            jobs.to_string(),
            stages.to_string(),
            plan.views.len().to_string(),
            plan.statement_count().to_string(),
            dplan.whole_view_moves().total().to_string(),
            format!("{shipped}/{arity}"),
            format!("{weighed}/{}", dplan.programs.len()),
            format!("{filtered}/{}", dplan.programs.len()),
        ]);
    }
    print_table(
        "Table 3 — jobs / stages per update batch (plus plan size)",
        &[
            "query",
            "jobs",
            "stages",
            "views",
            "statements",
            "whole-view moves",
            "Δ cols shipped",
            "Δ weights",
            "Δ filters",
        ],
        &rows,
    );
}
