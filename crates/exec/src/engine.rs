//! The local execution engine: runs compiled maintenance triggers against
//! the view database, in single-tuple or batched mode (Section 3.3), with
//! optional batch pre-aggregation, and meters the work performed.

use crate::database::{execute, Database};
use crate::vectorized::VectorPlan;
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_ivm::{BatchPrep, MaintenancePlan, Trigger};
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
        /// Preprocess the batch as every distributed backend does
        /// ([`Trigger::preprocessing`]) before running the maintenance
        /// statements: filter it by the trigger's static conditions and
        /// pre-aggregate it onto the columns the trigger actually uses.
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
    /// With pre-aggregation [`Trigger::preprocessing`] (and `trigger`
    /// rewritten to read its result), else [`BatchPrep::identity`].
    prep: BatchPrep,
    trigger: Trigger,
    /// Each statement of `trigger`, compiled once.
    plans: Vec<VectorPlan>,
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
    /// Build an engine (empty views) for a plan and execution mode,
    /// compiling every trigger statement once.
    ///
    /// # Panics
    ///
    /// When a statement reads a variable that is not bound on every path
    /// to it ([`VectorPlan::new`]); the IVM compiler emits none.
    pub fn new(plan: MaintenancePlan, mode: ExecMode) -> Self {
        let db = Database::for_plan(&plan);
        let preagg = matches!(mode, ExecMode::Batched { preaggregate: true });
        let triggers = plan
            .triggers
            .iter()
            .map(|t| {
                let (prep, trigger) = if preagg {
                    t.preprocessing()
                } else {
                    (BatchPrep::identity(&t.relation_schema), t.clone())
                };
                let plans = (trigger.statements.iter())
                    .map(|s| VectorPlan::new(&s.expr).unwrap_or_else(|e| panic!("{e}")))
                    .collect();
                let exec = ExecTrigger {
                    prep,
                    trigger,
                    plans,
                };
                (t.relation.clone(), exec)
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
        let Some(exec) = self.triggers.get(relation) else {
            return stats; // relation not referenced by this query
        };
        // Batches produced by the stream generators carry the table's
        // canonical column names; the compiled trigger uses the query's
        // variable names.  Preprocessing projects positionally, which
        // without pre-aggregation is a relabel.
        let schema = &exec.trigger.relation_schema;
        let delta = exec.prep.apply(batch);
        match self.mode {
            ExecMode::SingleTuple => {
                for (t, m) in delta.iter() {
                    let single = Relation::from_pairs(schema.clone(), [(t.clone(), m)]);
                    run_trigger(&mut self.db, relation, exec, single, &mut stats);
                    stats.processed_tuples += 1;
                }
            }
            ExecMode::Batched { .. } => {
                stats.processed_tuples = delta.len();
                run_trigger(&mut self.db, relation, exec, delta, &mut stats);
            }
        }
        stats.elapsed = start.elapsed();
        self.totals.absorb(&stats);
        stats
    }
}

/// Run one trigger's statements, in order, over `delta` against `db`.  A
/// statement whose target is no view fills a temp that the statements
/// after it read; the temps live for this one batch.
fn run_trigger(
    db: &mut Database,
    relation: &str,
    exec: &ExecTrigger,
    delta: Relation,
    stats: &mut BatchStats,
) {
    let mut temps = HashMap::new();
    for (stmt, plan) in exec.trigger.statements.iter().zip(&exec.plans) {
        let executed = execute(plan, db, &temps, Some((relation, &delta)));
        stats.eval.add(&executed.counters);
        if db.pool(&stmt.target).is_some() {
            db.apply(&stmt.target, stmt.op, executed.result);
        } else {
            temps.insert(stmt.target.clone(), executed.result);
        }
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
    use crate::database::StatementCatalog;
    use hotdog_algebra::eval::{evaluate, EvalCounters, Evaluator, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;
    use hotdog_algebra::tuple::Tuple;
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

    /// The statements of `trigger` over `batch` and `db` on the row
    /// `Evaluator`, each reading through the catalog `execute` reads
    /// through, with the results applied to `db` as the engine applies
    /// them; the summed counters.
    fn evaluate_trigger(db: &mut Database, trigger: &Trigger, batch: &Relation) -> EvalCounters {
        let delta = BatchPrep::identity(&trigger.relation_schema).apply(batch);
        let mut temps = HashMap::new();
        let mut total = EvalCounters::default();
        for stmt in &trigger.statements {
            let result = {
                let catalog = StatementCatalog::new(db, &temps, Some((&trigger.relation, &delta)));
                let mut ev = Evaluator::new(&catalog);
                let result = ev.eval(&stmt.expr);
                ev.counters.tuples_touched = catalog.index.tuples_touched();
                total.add(&ev.counters);
                result
            };
            if db.pool(&stmt.target).is_some() {
                db.apply(&stmt.target, stmt.op, result);
            } else {
                temps.insert(stmt.target.clone(), result);
            }
        }
        total
    }

    /// Plans compiled once bind the batch and the temps anew on every
    /// call: consecutive, different batches through the installed plans
    /// equal a fresh `Evaluator` per statement, counters included.  The
    /// nested query's `ΔS` trigger computes a per-batch temp.
    #[test]
    fn installed_plans_rebind_batch_and_temps_on_every_call() {
        for query in [nested_query(), three_way_join()] {
            let plan = compile("Q", &query, Strategy::RecursiveIvm);
            let mode = ExecMode::Batched {
                preaggregate: false,
            };
            let mut engine = LocalEngine::new(plan.clone(), mode);
            let mut reference = Database::for_plan(&plan);
            let mut temps_seen = false;
            for (relation, batch) in batches() {
                let Some(trigger) = plan.triggers.iter().find(|t| t.relation == relation) else {
                    continue;
                };
                temps_seen |= (trigger.statements.iter()).any(|s| plan.view(&s.target).is_none());
                let want = evaluate_trigger(&mut reference, trigger, &batch);
                let got = engine.apply_batch(relation, &batch);
                assert_eq!(got.eval, want, "{relation}");
                assert!(want.instructions() > 0, "{relation}");
                for v in &plan.views {
                    let bits = |r: Relation| -> Vec<(Tuple, u64)> {
                        r.sorted()
                            .into_iter()
                            .map(|(t, m)| (t, m.to_bits()))
                            .collect()
                    };
                    let (got, want) = (engine.view_contents(&v.name), reference.snapshot(&v.name));
                    assert_eq!(bits(got), bits(want), "{relation}: view {}", v.name);
                }
            }
            assert_eq!(temps_seen, query == nested_query());
        }
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
