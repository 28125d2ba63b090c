//! The local execution engine: runs compiled maintenance triggers against
//! the view database, in single-tuple or batched mode (Section 3.3), with
//! optional batch pre-aggregation, and meters the work performed.

use crate::database::{execute, Database};
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_ivm::{MaintenancePlan, Trigger};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How update batches are processed (the trade-off studied in Section 3.3
/// and Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Re-invoke the trigger once per input tuple (specialized single-tuple
    /// processing — no batch materialization, no extra loops).
    SingleTuple,
    /// Process the whole batch in one trigger invocation.
    Batched {
        /// Pre-aggregate the batch onto the columns the trigger actually
        /// uses ([`Trigger::kept_delta_positions`], the preprocessing every
        /// distributed backend runs) before running the maintenance
        /// statements.
        preaggregate: bool,
    },
}

impl ExecMode {
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::SingleTuple => "single-tuple",
            ExecMode::Batched { preaggregate: true } => "batched+preagg",
            ExecMode::Batched {
                preaggregate: false,
            } => "batched",
        }
    }
}

/// Per-batch execution statistics.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Tuples in the incoming batch.
    pub input_tuples: usize,
    /// Tuples actually fed to the trigger (after pre-aggregation).
    pub processed_tuples: usize,
    /// Maintenance statements executed.
    pub statements_executed: usize,
    /// Evaluator operation counters for this batch.
    pub eval: EvalCounters,
    /// Wall-clock time spent in trigger execution.
    pub elapsed: Duration,
}

/// Accumulated totals over the lifetime of an engine.
#[derive(Clone, Debug, Default)]
pub struct EngineTotals {
    pub batches: usize,
    pub tuples: usize,
    pub statements: usize,
    pub eval: EvalCounters,
    pub elapsed: Duration,
}

impl EngineTotals {
    fn absorb(&mut self, s: &BatchStats) {
        self.batches += 1;
        self.tuples += s.input_tuples;
        self.statements += s.statements_executed;
        self.eval.add(&s.eval);
        self.elapsed += s.elapsed;
    }

    /// Throughput in tuples per second over the accumulated execution time.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.tuples as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// A trigger prepared for execution.
#[derive(Debug)]
struct ExecTrigger {
    /// The batch positions the trigger reads: with pre-aggregation
    /// [`Trigger::kept_delta_positions`] (and `trigger` narrowed to them),
    /// else all of them.
    kept: Vec<usize>,
    trigger: Trigger,
}

/// The local view-maintenance engine for one compiled plan.
pub struct LocalEngine {
    plan: MaintenancePlan,
    mode: ExecMode,
    db: Database,
    triggers: HashMap<String, ExecTrigger>,
    /// Accumulated execution totals.
    pub totals: EngineTotals,
}

impl LocalEngine {
    /// Build an engine (empty views) for a plan and execution mode.
    pub fn new(plan: MaintenancePlan, mode: ExecMode) -> Self {
        let db = Database::for_plan(&plan);
        let preagg = matches!(mode, ExecMode::Batched { preaggregate: true });
        let triggers = plan
            .triggers
            .iter()
            .map(|t| {
                let kept = if preagg {
                    t.kept_delta_positions()
                } else {
                    (0..t.relation_schema.len()).collect()
                };
                let trigger = t.narrowed(&kept);
                (t.relation.clone(), ExecTrigger { kept, trigger })
            })
            .collect();
        LocalEngine {
            plan,
            mode,
            db,
            triggers,
            totals: EngineTotals::default(),
        }
    }

    /// The compiled plan this engine executes.
    pub fn plan(&self) -> &MaintenancePlan {
        &self.plan
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Read access to the underlying view database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Current contents of the top-level query view.
    pub fn query_result(&self) -> Relation {
        self.db.snapshot(&self.plan.top_view)
    }

    /// Current contents of any materialized view.
    pub fn view_contents(&self, view: &str) -> Relation {
        self.db.snapshot(view)
    }

    /// Apply one batch of updates to a base relation and return statistics.
    ///
    /// The batch is a generalized multiset relation: positive multiplicities
    /// are insertions, negative ones deletions.
    pub fn apply_batch(&mut self, relation: &str, batch: &Relation) -> BatchStats {
        let start = Instant::now();
        let mut stats = BatchStats {
            input_tuples: batch.len(),
            ..Default::default()
        };
        let Some(ExecTrigger { kept, trigger }) = self.triggers.get(relation) else {
            return stats; // relation not referenced by this query
        };
        // Batches produced by the stream generators carry the table's
        // canonical column names; the compiled trigger uses the query's
        // variable names.  Project positionally onto the kept columns,
        // which without pre-aggregation is a relabel.
        let schema = &trigger.relation_schema;
        let delta = batch.project_canonical(kept, schema.clone());
        match self.mode {
            ExecMode::SingleTuple => {
                for (t, m) in delta.iter() {
                    let single = Relation::from_pairs(schema.clone(), [(t.clone(), m)]);
                    run_trigger(&mut self.db, relation, trigger, single, &mut stats);
                    stats.processed_tuples += 1;
                }
            }
            ExecMode::Batched { .. } => {
                stats.processed_tuples = delta.len();
                run_trigger(&mut self.db, relation, trigger, delta, &mut stats);
            }
        }
        stats.elapsed = start.elapsed();
        self.totals.absorb(&stats);
        stats
    }
}

/// Run one trigger's statements, in order, over `delta` against `db`.
fn run_trigger(
    db: &mut Database,
    relation: &str,
    trigger: &Trigger,
    delta: Relation,
    stats: &mut BatchStats,
) {
    let deltas = HashMap::from([(relation.to_string(), delta)]);
    let no_temps = HashMap::new();
    for stmt in &trigger.statements {
        let executed = execute(&stmt.expr, db, &no_temps, &deltas);
        stats.eval.add(&executed.counters);
        db.apply(&stmt.target, stmt.op, &executed.result);
        stats.statements_executed += 1;
    }
}

/// Re-key a relation under a different (same-arity) schema, keeping tuples
/// positionally.  The result is always in wire-canonical layout
/// ([`Relation::canonical`]): the distributed backends relabel the partials
/// they gather, an exchange boundary where layouts must be a pure function
/// of content so the socket transport can reproduce them from a byte
/// stream.
pub fn relabel(rel: &Relation, schema: &Schema) -> Relation {
    assert_eq!(
        rel.schema().len(),
        schema.len(),
        "relabel arity mismatch: {:?} vs {:?}",
        rel.schema(),
        schema
    );
    // Always rebuild in wire-canonical (sorted) order — even when the
    // schema already matches.  A gathered partial is merged on the driver
    // in its iteration order, and the canonical layout is what makes a
    // partial decoded from the socket transport bit-identical — in
    // iteration order, hence in every downstream float accumulation — to
    // its in-process counterpart (see [`Relation::canonical`]).  Scatters
    // need no relabel: `partition_shards` re-keys and canonicalizes itself.
    Relation::from_pairs(schema.clone(), rel.sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::eval::{evaluate, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;
    use hotdog_ivm::{compile, Strategy};

    /// Example 2.1 query.
    fn three_way_join() -> Expr {
        sum(
            ["B"],
            join_all([
                rel("R", ["A", "B"]),
                rel("S", ["B", "C"]),
                rel("T", ["C", "D"]),
            ]),
        )
    }

    /// Correlated nested aggregate (Q17-like shape).
    fn nested_query() -> Expr {
        let nested = sum_total(join(rel("S", ["B", "C2"]), val_var("C2")));
        sum_total(join_all([
            rel("R", ["A", "B"]),
            assign_query("X", nested),
            cmp_vars("A", CmpOp::Lt, "X"),
        ]))
    }

    /// Distinct projection with predicate (Example 3.2).
    fn distinct_query() -> Expr {
        exists(sum(
            ["A"],
            join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3)),
        ))
    }

    fn batches() -> Vec<(&'static str, Relation)> {
        vec![
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["A", "B"]),
                    vec![
                        (tuple![1, 10], 1.0),
                        (tuple![2, 20], 1.0),
                        (tuple![7, 10], 1.0),
                    ],
                ),
            ),
            (
                "S",
                Relation::from_pairs(
                    Schema::new(["B", "C"]),
                    vec![(tuple![10, 100], 1.0), (tuple![20, 200], 1.0)],
                ),
            ),
            (
                "T",
                Relation::from_pairs(
                    Schema::new(["C", "D"]),
                    vec![(tuple![100, 5], 1.0), (tuple![200, 6], 2.0)],
                ),
            ),
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["A", "B"]),
                    vec![(tuple![3, 20], 1.0), (tuple![1, 10], -1.0)],
                ),
            ),
            (
                "S",
                Relation::from_pairs(
                    Schema::new(["B", "C"]),
                    vec![(tuple![10, 101], 1.0), (tuple![20, 200], -1.0)],
                ),
            ),
        ]
    }

    /// Reference result: evaluate the query from scratch over the
    /// accumulated base relations.
    fn reference_result(query: &Expr, applied: &[(&str, Relation)]) -> Relation {
        let mut acc: HashMap<String, Relation> = HashMap::new();
        for (r, b) in applied {
            acc.entry(r.to_string())
                .and_modify(|cur| cur.merge(b))
                .or_insert_with(|| b.clone());
        }
        let mut cat = MapCatalog::new();
        for (name, rel) in acc {
            cat.insert(name, RelKind::Base, rel);
        }
        // Relations never touched stay absent (= empty), which matches the
        // streaming setting.
        evaluate(query, &cat)
    }

    fn check_engine(query: Expr, strategy: Strategy, mode: ExecMode) {
        let plan = compile("Q", &query, strategy);
        let mut engine = LocalEngine::new(plan, mode);
        let mut applied: Vec<(&str, Relation)> = Vec::new();
        for (rel, batch) in batches() {
            engine.apply_batch(rel, &batch);
            applied.push((rel, batch));
            let expected = reference_result(&query, &applied);
            let got = engine.query_result();
            assert!(
                got.approx_eq(&expected),
                "strategy {strategy:?} mode {mode:?} diverged after {} batches\nexpected {expected:?}\ngot {got:?}\nplan:\n{}",
                applied.len(),
                engine.plan().pretty()
            );
        }
        assert!(engine.totals.batches > 0);
        assert!(engine.totals.tuples > 0);
    }

    #[test]
    fn recursive_batched_matches_reference_three_way_join() {
        check_engine(
            three_way_join(),
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn recursive_batched_preagg_matches_reference_three_way_join() {
        check_engine(
            three_way_join(),
            Strategy::RecursiveIvm,
            ExecMode::Batched { preaggregate: true },
        );
    }

    #[test]
    fn recursive_single_tuple_matches_reference_three_way_join() {
        check_engine(
            three_way_join(),
            Strategy::RecursiveIvm,
            ExecMode::SingleTuple,
        );
    }

    #[test]
    fn classical_ivm_matches_reference_three_way_join() {
        check_engine(
            three_way_join(),
            Strategy::ClassicalIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn reevaluation_matches_reference_three_way_join() {
        check_engine(
            three_way_join(),
            Strategy::Reevaluation,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn recursive_batched_matches_reference_nested_query() {
        check_engine(
            nested_query(),
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn recursive_single_tuple_matches_reference_nested_query() {
        check_engine(
            nested_query(),
            Strategy::RecursiveIvm,
            ExecMode::SingleTuple,
        );
    }

    #[test]
    fn classical_ivm_matches_reference_nested_query() {
        check_engine(
            nested_query(),
            Strategy::ClassicalIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn recursive_batched_matches_reference_distinct_query() {
        check_engine(
            distinct_query(),
            Strategy::RecursiveIvm,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
    }

    #[test]
    fn recursive_preagg_matches_reference_distinct_query() {
        check_engine(
            distinct_query(),
            Strategy::RecursiveIvm,
            ExecMode::Batched { preaggregate: true },
        );
    }

    #[test]
    fn preaggregation_reduces_processed_tuples() {
        // Query that only uses column B of R: pre-aggregation collapses the
        // batch onto distinct B values.
        let q = sum(["B"], rel("R", ["A", "B"]));
        let plan = compile("Q", &q, Strategy::RecursiveIvm);
        let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });
        let batch = Relation::from_pairs(
            Schema::new(["A", "B"]),
            (0..100i64).map(|i| (tuple![i, i % 4], 1.0)),
        );
        let stats = engine.apply_batch("R", &batch);
        assert_eq!(stats.input_tuples, 100);
        assert_eq!(stats.processed_tuples, 4);
        assert_eq!(engine.query_result().get(&tuple![0]), 25.0);
    }

    #[test]
    fn unknown_relation_batches_are_ignored() {
        let plan = compile("Q", &three_way_join(), Strategy::RecursiveIvm);
        let mut engine = LocalEngine::new(plan, ExecMode::SingleTuple);
        let stats = engine.apply_batch(
            "UNRELATED",
            &Relation::from_pairs(Schema::new(["X"]), vec![(tuple![1], 1.0)]),
        );
        assert_eq!(stats.statements_executed, 0);
        assert!(engine.query_result().is_empty());
    }

    #[test]
    fn counters_accumulate_across_batches() {
        let plan = compile("Q", &three_way_join(), Strategy::RecursiveIvm);
        let mut engine = LocalEngine::new(
            plan,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        for (rel, batch) in batches() {
            engine.apply_batch(rel, &batch);
        }
        assert_eq!(engine.totals.batches, 5);
        assert!(engine.totals.eval.instructions() > 0);
        assert!(engine.totals.throughput() > 0.0);
        assert!(engine.database().counters().probes() > 0);
    }
}
