//! The simulated cluster: the one [`Driver`] over [`SimTransport`], a
//! transport that holds every worker's [`WorkerState`] and runs each
//! request inline on the caller's thread.  Statements execute for real
//! against partitioned state; only time is modelled, by a seeded virtual
//! clock the driver reads through [`Transport::clock_secs`].

use crate::{
    install, ClusterConfig, Driver, Reply, Request, Transport, TransportNames, WorkerDead,
};
use hotdog_distributed::{handle_request, DistributedPlan, WorkerState};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// The simulated cluster: the [`Driver`] over [`SimTransport`], which runs
/// every worker inline on the caller's thread and models time.
pub type Cluster = Driver<SimTransport>;

impl Cluster {
    /// `config.workers` simulated workers with empty view partitions, in
    /// epoch-synchronous mode; batch latencies follow `config`'s cost
    /// model.
    pub fn new(dplan: DistributedPlan, config: ClusterConfig) -> Self {
        let transport = SimTransport::new(&dplan, config);
        Driver::with_transport(dplan, transport, None)
    }
}

/// The single-threaded transport of the simulated [`Cluster`]: it owns
/// every worker's [`WorkerState`], runs each request inline in `send` and
/// queues the reply.  Nothing runs in parallel, so time is *modelled*: a
/// seeded virtual clock that each message advances under the
/// [`ClusterConfig`] cost model.
///
/// * The `RunBlock`s of one broadcast (workers 0 to W−1) are one stage:
///   `stage_overhead + sync_per_worker × W + max instructions ×
///   secs_per_instruction × (1 + U[0, straggler))`, one seeded draw each.
/// * An `ApplyMany` costs its shards' bytes, a `Fetch` its reply's, over
///   W links that run in parallel: bytes ÷ (W × bandwidth).
///
/// Driver-local compute never crosses the transport and costs nothing.
pub struct SimTransport {
    nodes: Vec<WorkerState>,
    replies: Vec<VecDeque<Reply>>,
    config: ClusterConfig,
    rng: StdRng,
    /// Modelled seconds elapsed.
    clock: f64,
    /// Slowest worker's interpreter work in the broadcast under way.
    stage_instructions: u64,
}

impl SimTransport {
    /// `config.workers` empty workers for the plan, clock at zero.
    pub(crate) fn new(dplan: &DistributedPlan, config: ClusterConfig) -> Self {
        assert!(config.workers > 0);
        let programs = Arc::new(install(dplan));
        let nodes = (0..config.workers)
            .map(|i| {
                let mut state = WorkerState::with_programs(&dplan.plan, programs.clone());
                state.set_trace_track(i as u32 + 1);
                state
            })
            .collect();
        SimTransport {
            nodes,
            replies: (0..config.workers).map(|_| VecDeque::new()).collect(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            clock: 0.0,
            stage_instructions: 0,
        }
    }

    fn transfer_secs(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.config.workers as f64 * self.config.bandwidth_bytes_per_sec)
    }
}

impl Transport for SimTransport {
    fn workers(&self) -> usize {
        self.nodes.len()
    }

    fn send(&mut self, w: usize, request: Request) -> Result<(), WorkerDead> {
        let fetch = matches!(request, Request::Fetch { .. });
        if let Request::ApplyMany { applies, .. } = &request {
            let bytes = applies.iter().map(|(_, s)| s.serialized_size()).sum();
            self.clock += self.transfer_secs(bytes);
        }
        let reply = handle_request(&mut self.nodes[w], request).map_err(|e| WorkerDead {
            index: w,
            reason: e.to_string(),
        })?;
        let Some(reply) = reply else {
            return Ok(());
        };
        match &reply {
            Reply::Ran { instructions, .. } => {
                self.stage_instructions = self.stage_instructions.max(*instructions);
                if w + 1 == self.nodes.len() {
                    let c = &self.config;
                    let straggler = 1.0 + self.rng.gen_range(0.0..c.straggler);
                    self.clock += c.stage_overhead_secs
                        + c.sync_per_worker_secs * c.workers as f64
                        + self.stage_instructions as f64 * c.secs_per_instruction * straggler;
                    self.stage_instructions = 0;
                }
            }
            Reply::Rel { rel, .. } if fetch => {
                self.clock += self.transfer_secs(rel.serialized_size())
            }
            _ => {}
        }
        self.replies[w].push_back(reply);
        Ok(())
    }

    fn recv(&mut self, w: usize) -> Result<Reply, WorkerDead> {
        self.replies[w].pop_front().ok_or_else(|| WorkerDead {
            index: w,
            reason: "simulated worker owes no reply".to_string(),
        })
    }

    /// The workers are dropped with the transport.
    fn shutdown(&mut self) {}

    fn names(&self) -> TransportNames {
        TransportNames {
            sync: "simulated",
            pipelined: "simulated-pipelined",
        }
    }

    fn clock_secs(&self) -> Option<f64> {
        Some(self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{batches, example_dplan, example_query};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_distributed::{
        compile_distributed, ClusterTotals, DistStmtKind, LocTag, OptLevel, PartitioningSpec,
        Transform,
    };
    use hotdog_exec::{ExecMode, LocalEngine};
    use hotdog_ivm::compile_recursive;

    fn run_cluster(opt: OptLevel, workers: usize) -> (Relation, ClusterTotals) {
        run_cluster_with(opt, ClusterConfig::with_workers(workers))
    }

    fn run_cluster_with(opt: OptLevel, config: ClusterConfig) -> (Relation, ClusterTotals) {
        let mut cluster = Cluster::new(example_dplan(opt), config);
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
    fn modelled_latency_is_a_function_of_the_seed() {
        let config = ClusterConfig::with_workers(3);
        let (_, first) = run_cluster_with(OptLevel::O3, config.clone());
        let (_, again) = run_cluster_with(OptLevel::O3, config.clone());
        let bits = |t: &ClusterTotals| t.latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&again), "same seed, same latencies");
        let reseeded = ClusterConfig {
            seed: config.seed + 1,
            ..config
        };
        let (_, other) = run_cluster_with(OptLevel::O3, reseeded);
        assert_ne!(
            bits(&first),
            bits(&other),
            "the straggler draw follows the seed"
        );
        assert_eq!(first.bytes_shuffled, other.bytes_shuffled);
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
