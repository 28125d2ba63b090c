//! The simulated synchronous cluster (the Spark substitute of the paper's
//! distributed experiments).
//!
//! A [`Cluster`] holds one driver node and `N` worker nodes.  Distributed
//! views are hash-partitioned over the workers, local views live on the
//! driver.  Every statement of a compiled [`DistributedPlan`] is *actually
//! executed* against the partitioned state (no result is faked); only the
//! *time* is modelled: per-stage synchronization overhead that grows with
//! the number of workers, shuffle time proportional to the bytes moved, a
//! seeded straggler factor, and compute time proportional to the measured
//! interpreter work of the slowest worker.

use crate::partition::{LocTag, PartitionFn};
use crate::program::{
    DistStatement, DistStmtKind, DistributedPlan, StmtMode, Transform, TriggerProgram,
};
use crate::worker::WorkerState;
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::relation::Relation;
use hotdog_exec::relabel;
use hotdog_telemetry::{SpanContext, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Cluster and cost-model configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Aggregate network bandwidth per worker link, bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed overhead of launching one distributed stage (task serialization
    /// and shipping), in seconds.
    pub stage_overhead_secs: f64,
    /// Additional synchronization cost per worker per stage, in seconds
    /// (scheduling, task dispatch and completion handling on the driver).
    pub sync_per_worker_secs: f64,
    /// Modelled cost of one interpreter "instruction", in seconds.
    pub secs_per_instruction: f64,
    /// Maximum multiplicative straggler slowdown of a stage (a uniformly
    /// drawn factor in `[1, 1 + straggler]` is applied to each stage).
    pub straggler: f64,
    /// RNG seed for the straggler model.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            bandwidth_bytes_per_sec: 1.0e9,
            stage_overhead_secs: 0.020,
            sync_per_worker_secs: 0.000_35,
            secs_per_instruction: 2.0e-9,
            straggler: 0.5,
            seed: 0xD15C0,
        }
    }
}

impl ClusterConfig {
    pub fn with_workers(workers: usize) -> Self {
        ClusterConfig {
            workers,
            ..Default::default()
        }
    }
}

/// Statistics of processing one batch on the cluster.
#[derive(Clone, Debug, Default)]
pub struct BatchExecution {
    pub input_tuples: usize,
    /// Modelled end-to-end latency of the batch (seconds).
    pub latency_secs: f64,
    /// Total bytes moved over the network.
    pub bytes_shuffled: usize,
    /// Bytes moved per worker (average).
    pub bytes_per_worker: f64,
    /// Distributed stages executed.
    pub stages: usize,
    /// Jobs launched.
    pub jobs: usize,
    /// Interpreter work of the slowest worker (instruction count).
    pub max_worker_instructions: u64,
    /// Interpreter work performed on the driver.
    pub driver_instructions: u64,
    /// Real wall-clock time spent simulating the batch.
    pub wall_secs: f64,
}

/// Accumulated totals over a cluster's lifetime.
#[derive(Clone, Debug, Default)]
pub struct ClusterTotals {
    pub batches: usize,
    pub tuples: usize,
    pub latency_secs: f64,
    pub bytes_shuffled: usize,
    pub latencies: Vec<f64>,
}

impl ClusterTotals {
    /// Modelled throughput (tuples per modelled second).
    pub fn throughput(&self) -> f64 {
        if self.latency_secs == 0.0 {
            0.0
        } else {
            self.tuples as f64 / self.latency_secs
        }
    }

    /// Median batch latency in seconds.
    pub fn median_latency(&self) -> f64 {
        self.latency_percentile(0.50)
    }

    /// Batch latency percentile in seconds (`p` in `[0, 1]`, nearest-rank).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((v.len() as f64 * p) as usize).min(v.len() - 1);
        v[idx]
    }
}

/// The simulated cluster running one distributed plan.
pub struct Cluster {
    pub config: ClusterConfig,
    pub(crate) dplan: DistributedPlan,
    pub(crate) driver: WorkerState,
    pub(crate) workers: Vec<WorkerState>,
    rng: StdRng,
    pub totals: ClusterTotals,
    /// Views with delta capture enabled (see `crate::capture`).
    pub(crate) capture_views: Vec<String>,
    /// Span store: the simulated cluster executes every node inline, so
    /// per-worker trigger spans are recorded driver-side on the worker's
    /// display track instead of crossing a wire.
    telemetry: Arc<Telemetry>,
    /// Context of the most recently executed batch's root span — what
    /// post-execution stages (watermark reads, subscription fan-out)
    /// parent their spans under.
    trace_scope: SpanContext,
}

impl Cluster {
    /// Create a cluster with empty views.
    pub fn new(dplan: DistributedPlan, config: ClusterConfig) -> Self {
        assert!(config.workers > 0);
        let driver = WorkerState::for_plan(&dplan.plan);
        let workers = (0..config.workers)
            .map(|_| WorkerState::for_plan(&dplan.plan))
            .collect::<Vec<_>>();
        let rng = StdRng::seed_from_u64(config.seed);
        Cluster {
            config,
            dplan,
            driver,
            workers,
            rng,
            totals: ClusterTotals::default(),
            capture_views: Vec::new(),
            telemetry: Telemetry::shared(),
            trace_scope: SpanContext::NONE,
        }
    }

    /// The compiled distributed plan this cluster runs.
    pub fn plan(&self) -> &DistributedPlan {
        &self.dplan
    }

    /// This cluster's telemetry handle (metrics, flight ring, tracer).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Context of the most recently executed batch's root span.
    pub fn trace_scope(&self) -> SpanContext {
        self.trace_scope
    }

    /// Full contents of a view, merged across all nodes that hold a piece of
    /// it (used for result extraction and for checking equivalence with the
    /// local engine).
    pub fn view_contents(&self, name: &str) -> Relation {
        let schema = self.dplan.schema_of(name).unwrap_or_default();
        let mut out = Relation::new(schema);
        match self.dplan.location(name) {
            LocTag::Local => out.merge(&self.driver.snapshot(name)),
            LocTag::Replicated => {
                // Every worker holds an identical copy; read one.
                if let Some(w) = self.workers.first() {
                    out.merge(&w.snapshot(name));
                }
            }
            _ => {
                for w in &self.workers {
                    out.merge(&w.snapshot(name));
                }
            }
        }
        out
    }

    /// Current contents of the top-level query view.
    pub fn query_result(&self) -> Relation {
        self.view_contents(&self.dplan.plan.top_view)
    }

    /// Process one batch of updates to `relation`, returning the modelled
    /// execution statistics.
    pub fn apply_batch(&mut self, relation: &str, batch: &Relation) -> BatchExecution {
        let wall_start = Instant::now();
        let mut stats = BatchExecution {
            input_tuples: batch.len(),
            ..Default::default()
        };
        let program = match self.dplan.program(relation) {
            Some(p) => p.clone(),
            None => return stats,
        };
        // One stitched span tree per batch, same as the real backends: a
        // root span on track 0 with the trigger stages as children.
        let root = self.telemetry.begin_batch_root();
        self.trace_scope = root.context();

        let delta = program.preprocess(batch);
        let mut deltas = HashMap::new();
        deltas.insert(relation.to_string(), delta);
        let delta_name = format!("Δ{relation}");

        let mut latency = 0.0f64;
        self.run_program(&program, &delta_name, &deltas, &mut stats, &mut latency);
        self.telemetry.finish_span(Some(root));

        stats.latency_secs = latency;
        stats.stages = program.stages();
        stats.jobs = program.jobs();
        stats.bytes_per_worker = stats.bytes_shuffled as f64 / self.config.workers as f64;
        stats.wall_secs = wall_start.elapsed().as_secs_f64();

        self.totals.batches += 1;
        self.totals.tuples += stats.input_tuples;
        self.totals.latency_secs += stats.latency_secs;
        self.totals.bytes_shuffled += stats.bytes_shuffled;
        self.totals.latencies.push(stats.latency_secs);
        stats
    }

    fn run_program(
        &mut self,
        program: &TriggerProgram,
        delta_name: &str,
        deltas: &HashMap<String, Relation>,
        stats: &mut BatchExecution,
        latency: &mut f64,
    ) {
        for block in &program.blocks {
            match block.mode {
                StmtMode::Local => {
                    let mut counters = EvalCounters::default();
                    for stmt in &block.statements {
                        self.run_local_statement(
                            stmt,
                            delta_name,
                            deltas,
                            stats,
                            &mut counters,
                            latency,
                        );
                    }
                    stats.driver_instructions += counters.instructions();
                    *latency += counters.instructions() as f64 * self.config.secs_per_instruction;
                }
                StmtMode::Distributed => {
                    // One parallel stage: every worker runs the block over
                    // its partitions.
                    let mut max_instr = 0u64;
                    for w in 0..self.config.workers {
                        let span = self.telemetry.begin_span_on(
                            self.trace_scope,
                            "worker.run_block",
                            w as u32 + 1,
                        );
                        let mut counters = EvalCounters::default();
                        for stmt in &block.statements {
                            self.workers[w].run_compute(stmt, deltas, &mut counters);
                        }
                        self.telemetry.finish_span(span);
                        max_instr = max_instr.max(counters.instructions());
                    }
                    stats.max_worker_instructions = stats.max_worker_instructions.max(max_instr);
                    let straggler = 1.0 + self.rng.gen_range(0.0..self.config.straggler);
                    *latency += self.config.stage_overhead_secs
                        + self.config.sync_per_worker_secs * self.config.workers as f64
                        + max_instr as f64 * self.config.secs_per_instruction * straggler;
                }
            }
        }
    }

    fn run_local_statement(
        &mut self,
        stmt: &DistStatement,
        delta_name: &str,
        deltas: &HashMap<String, Relation>,
        stats: &mut BatchExecution,
        counters: &mut EvalCounters,
        latency: &mut f64,
    ) {
        match &stmt.kind {
            DistStmtKind::Compute(_) => {
                self.driver.run_compute(stmt, deltas, counters);
            }
            DistStmtKind::Transform { kind, source } => {
                let bytes = self.run_transform(stmt, kind, source, delta_name, deltas);
                stats.bytes_shuffled += bytes;
                // Shuffle time: data moves in parallel across worker links.
                let per_link = bytes as f64 / self.config.workers as f64;
                *latency += per_link / self.config.bandwidth_bytes_per_sec
                    + self.config.stage_overhead_secs * 0.25;
            }
        }
    }

    /// Execute a transformer statement; returns the number of bytes moved.
    fn run_transform(
        &mut self,
        stmt: &DistStatement,
        kind: &Transform,
        source: &str,
        delta_name: &str,
        deltas: &HashMap<String, Relation>,
    ) -> usize {
        match kind {
            Transform::Scatter(pf) => {
                // Driver-resident source: the batch, a local view or a local temp.
                let src: Relation = if source == delta_name {
                    deltas.values().next().cloned().unwrap_or_default()
                } else {
                    self.driver.read(source)
                };
                let src = relabel(&src, &stmt.target_schema);
                self.scatter(pf, &src, stmt)
            }
            Transform::Repart(pf) => {
                // Collect from all workers, then redistribute.
                let span = self.telemetry.begin_span(self.trace_scope, "gather");
                let mut collected = Relation::new(stmt.target_schema.clone());
                for w in 0..self.config.workers {
                    collected.merge(&relabel(&self.workers[w].read(source), &stmt.target_schema));
                }
                self.telemetry.finish_span(span);
                let moved = collected.serialized_size();
                self.scatter(pf, &collected, stmt);
                moved + collected.serialized_size()
            }
            Transform::Gather => {
                let span = self.telemetry.begin_span(self.trace_scope, "gather");
                let mut collected = Relation::new(stmt.target_schema.clone());
                for w in 0..self.config.workers {
                    collected.merge(&relabel(&self.workers[w].read(source), &stmt.target_schema));
                }
                let bytes = collected.serialized_size();
                self.driver.apply(stmt, collected);
                self.telemetry.finish_span(span);
                bytes
            }
        }
    }

    /// Route rows of a driver-held relation to the workers under the given
    /// partition function, writing them into each worker's copy of the
    /// target.  Returns the bytes moved.
    fn scatter(&mut self, pf: &PartitionFn, src: &Relation, stmt: &DistStatement) -> usize {
        let span = self
            .telemetry
            .begin_span(self.trace_scope, "scatter.encode");
        let (shards, bytes) = partition_shards(pf, src, stmt, self.config.workers);
        self.telemetry.finish_span(span);
        for (w, shard) in shards.into_iter().enumerate() {
            // Scatter targets are exchange buffers refreshed per batch.
            self.workers[w].apply(stmt, shard);
        }
        bytes
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // `HOTDOG_TRACE=path`: one complete Chrome trace file per run.
        self.telemetry.flush_trace_on_drop();
    }
}

/// Split a driver-held relation into per-worker shards under a partition
/// function; returns the shards and the bytes that cross the network.
/// Shared by the simulated, threaded and TCP backends so routing (and the
/// byte accounting of the cost model) cannot diverge.
///
/// Shards are returned in wire-canonical layout
/// ([`Relation::canonical`]): a shard's map layout must be a pure
/// function of its content — not of the routing iteration that built it —
/// so that a shard decoded from the socket transport is bit-identical to
/// the shard an in-process backend hands its worker.
pub fn partition_shards(
    pf: &PartitionFn,
    src: &Relation,
    stmt: &DistStatement,
    workers: usize,
) -> (Vec<Relation>, usize) {
    let schema = stmt.target_schema.clone();
    let mut shards: Vec<Relation> = (0..workers)
        .map(|_| Relation::new(schema.clone()))
        .collect();
    let mut bytes = 0usize;
    for (t, m) in src.iter() {
        for w in pf.route(&schema, t, workers) {
            shards[w].add(t.clone(), m);
            bytes += t.values_size() + 8;
        }
    }
    let shards = shards.into_iter().map(|s| s.canonical()).collect();
    (shards, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitioningSpec;
    use crate::program::{compile_distributed, OptLevel};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_exec::{ExecMode, LocalEngine};
    use hotdog_ivm::compile_recursive;

    fn example_query() -> Expr {
        sum(
            ["B"],
            join_all([
                rel("R", ["OK", "B"]),
                rel("S", ["B", "CK"]),
                rel("T", ["CK", "D"]),
            ]),
        )
    }

    fn batches() -> Vec<(&'static str, Relation)> {
        vec![
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["OK", "B"]),
                    (0..40i64).map(|i| (tuple![i, i % 5], 1.0)),
                ),
            ),
            (
                "S",
                Relation::from_pairs(
                    Schema::new(["B", "CK"]),
                    (0..20i64).map(|i| (tuple![i % 5, i], 1.0)),
                ),
            ),
            (
                "T",
                Relation::from_pairs(
                    Schema::new(["CK", "D"]),
                    (0..20i64).map(|i| (tuple![i, i * 10], 1.0)),
                ),
            ),
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["OK", "B"]),
                    vec![(tuple![1, 1], -1.0), (tuple![100, 2], 1.0)],
                ),
            ),
        ]
    }

    fn run_cluster(opt: OptLevel, workers: usize) -> (Relation, ClusterTotals) {
        let plan = compile_recursive("Q", &example_query());
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        let dplan = compile_distributed(&plan, &spec, opt);
        let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(workers));
        for (rel, batch) in batches() {
            cluster.apply_batch(rel, &batch);
        }
        (cluster.query_result(), cluster.totals.clone())
    }

    fn local_reference() -> Relation {
        let plan = compile_recursive("Q", &example_query());
        let mut engine = LocalEngine::new(
            plan,
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        for (rel, batch) in batches() {
            engine.apply_batch(rel, &batch);
        }
        engine.query_result()
    }

    #[test]
    fn cluster_matches_local_engine_at_every_opt_level() {
        let expected = local_reference();
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for workers in [1, 3, 8] {
                let (got, _) = run_cluster(opt, workers);
                assert!(
                    got.approx_eq(&expected),
                    "cluster diverged at {opt:?} with {workers} workers:\nexpected {expected:?}\ngot {got:?}"
                );
            }
        }
    }

    #[test]
    fn caller_replicated_views_match_local_engine() {
        // Two placements the heuristic never picks for this plan.  M4
        // replicated: its `+=` over the partitioned M5 becomes a partial
        // whose delta is replicated.  M5 replicated: `M4 += ΔR * M5` has no
        // partitioned input left and ΔR lacks M4's key, so the batch is
        // spread and the result re-partitioned.  Either way a read of the
        // replica returns one copy, not the sum of the workers' copies.
        let plan = compile_recursive("Q", &example_query());
        let mut engine = LocalEngine::new(
            plan.clone(),
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        for (rel, batch) in batches() {
            engine.apply_batch(rel, &batch);
        }
        for replica in ["M4", "M5"] {
            let mut spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
            spec.set(replica, LocTag::Replicated);
            for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                for workers in [1, 3] {
                    let dplan = compile_distributed(&plan, &spec, opt);
                    let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(workers));
                    for (rel, batch) in batches() {
                        cluster.apply_batch(rel, &batch);
                    }
                    for view in ["Q", replica] {
                        assert!(
                            cluster
                                .view_contents(view)
                                .approx_eq(&engine.view_contents(view)),
                            "{view} diverged with {replica} replicated at {opt:?}, {workers} workers"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_batch_total_read_under_a_key_sees_the_whole_batch() {
        // The Q11 shape: rows of R whose value exceeds a share of R's total.
        // `ON UPDATE R` runs under `PK`, but the total's delta reference
        // binds `PK2` there, so it must read the batch on every worker.
        let total = sum_total(join(rel("R", ["PK2", "A2"]), val_var("A2")));
        let q = sum(
            ["PK"],
            join_all([
                rel("R", ["PK", "A"]),
                assign_query("TV", total),
                cmp(
                    ValExpr::Mul(Box::new(ValExpr::var("A")), Box::new(ValExpr::lit(8))),
                    CmpOp::Gt,
                    ValExpr::var("TV"),
                ),
            ]),
        );
        let plan = compile_recursive("Q", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["PK"]);
        let batches = [
            (0..30i64)
                .map(|i| (tuple![i % 9, i], 1.0))
                .collect::<Vec<_>>(),
            vec![(tuple![2, 20], -1.0), (tuple![4, 90], 1.0)],
        ];
        let mut engine = LocalEngine::new(
            plan.clone(),
            ExecMode::Batched {
                preaggregate: false,
            },
        );
        for b in &batches {
            engine.apply_batch(
                "R",
                &Relation::from_pairs(Schema::new(["PK", "A"]), b.clone()),
            );
        }
        for opt in [OptLevel::O0, OptLevel::O3] {
            let dplan = compile_distributed(&plan, &spec, opt);
            let scatters: Vec<String> = dplan.programs[0]
                .statements()
                .filter_map(|s| match &s.kind {
                    DistStmtKind::Transform {
                        kind: Transform::Scatter(pf),
                        source,
                    } if source == "ΔR" => Some(pf.to_string()),
                    _ => None,
                })
                .collect();
            assert!(scatters.contains(&"[*]".to_string()), "{}", dplan.pretty());
            for workers in [1, 3] {
                let mut cluster = Cluster::new(dplan.clone(), ClusterConfig::with_workers(workers));
                for b in &batches {
                    cluster.apply_batch(
                        "R",
                        &Relation::from_pairs(Schema::new(["PK", "A"]), b.clone()),
                    );
                }
                assert!(
                    cluster.query_result().approx_eq(&engine.query_result()),
                    "{opt:?}, {workers} workers: {:?} vs {:?}",
                    cluster.query_result(),
                    engine.query_result()
                );
            }
        }
    }

    #[test]
    fn latency_model_produces_positive_latencies_and_shuffle_bytes() {
        let (_, totals) = run_cluster(OptLevel::O3, 4);
        assert!(totals.latency_secs > 0.0);
        assert!(totals.bytes_shuffled > 0);
        assert!(totals.median_latency() > 0.0);
        assert!(totals.throughput() > 0.0);
    }

    #[test]
    fn more_workers_increase_sync_overhead_for_tiny_batches() {
        // With tiny batches the latency is dominated by synchronization, so
        // adding workers must not make it cheaper (weak-scaling left edge of
        // Figure 9a).
        let (_, small) = run_cluster(OptLevel::O3, 2);
        let (_, big) = run_cluster(OptLevel::O3, 64);
        assert!(
            big.median_latency() > small.median_latency(),
            "sync overhead should grow with workers: {} vs {}",
            big.median_latency(),
            small.median_latency()
        );
    }

    #[test]
    fn optimization_reduces_modelled_latency() {
        let (_, naive) = run_cluster(OptLevel::O0, 4);
        let (_, opt) = run_cluster(OptLevel::O3, 4);
        assert!(
            opt.latency_secs <= naive.latency_secs * 1.05,
            "O3 {} should not exceed O0 {}",
            opt.latency_secs,
            naive.latency_secs
        );
    }

    #[test]
    fn nested_aggregate_query_is_correct_on_cluster() {
        // Q17-style query distributed by the correlated key.
        let nested = sum_total(join(rel("S", ["PK", "C2"]), val_var("C2")));
        let q = sum_total(join_all([
            rel("R", ["PK", "A"]),
            assign_query("X", nested),
            cmp_vars("A", CmpOp::Lt, "X"),
        ]));
        let plan = compile_recursive("Q17ish", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["PK"]);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        let mut cluster = Cluster::new(dplan, ClusterConfig::with_workers(5));

        let plan2 = compile_recursive("Q17ish", &q);
        let mut engine = LocalEngine::new(
            plan2,
            ExecMode::Batched {
                preaggregate: false,
            },
        );

        let data = vec![
            (
                "R",
                Relation::from_pairs(
                    Schema::new(["PK", "A"]),
                    (0..30i64).map(|i| (tuple![i % 7, i], 1.0)),
                ),
            ),
            (
                "S",
                Relation::from_pairs(
                    Schema::new(["PK", "C2"]),
                    (0..40i64).map(|i| (tuple![i % 7, i], 1.0)),
                ),
            ),
            (
                "R",
                Relation::from_pairs(Schema::new(["PK", "A"]), vec![(tuple![2, 3], -1.0)]),
            ),
        ];
        for (r, b) in data {
            cluster.apply_batch(r, &b);
            engine.apply_batch(r, &b);
        }
        assert!(
            cluster.query_result().approx_eq(&engine.query_result()),
            "cluster {:?} vs local {:?}",
            cluster.query_result(),
            engine.query_result()
        );
    }
}
