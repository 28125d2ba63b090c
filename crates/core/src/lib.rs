//! # hotdog — Distributed Incremental View Maintenance with Batch Updates
//!
//! Rust reproduction of the SIGMOD 2016 paper *"How to Win a Hot Dog Eating
//! Contest: Distributed Incremental View Maintenance with Batch Updates"*
//! (Nikolic, Dashti, Koch — the DBToaster batched/distributed extension).
//!
//! This facade crate re-exports the full pipeline:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | data model & algebra | [`algebra`] | values, tuples, rings, relations, the AGCA-style [`algebra::Expr`] and a reference evaluator |
//! | storage | [`storage`] | multi-indexed record pools, columnar batches |
//! | maintenance compilers | [`ivm`] | delta rules, domain extraction, recursive / classical / re-evaluation plans |
//! | local runtime | [`exec`] | the trigger interpreter (single-tuple & batched modes) |
//! | distributed compiler | [`distributed`] | location tags, transformers, block fusion, the worker protocol and per-node state |
//! | runtime | [`runtime`] | the transport-generic driver: the simulated cluster (`Cluster` = `Driver<SimTransport>`, modelled time) and the thread-per-worker backend (`ThreadedCluster`) |
//! | socket transport | [`net`] | length-prefixed binary codec and the multi-process TCP backend (`TcpCluster`) |
//! | subscriptions | [`serve`] | multi-tenant standing-query hub: shared-plan fan-out, pushed [`serve::ViewDelta`]s, TCP subscribe protocol |
//! | telemetry | [`telemetry`] | dependency-free metrics registry and the per-batch span tracer shared by every backend |
//! | workloads | [`workload`] | TPC-H / TPC-DS style generators, streams and the query catalog |
//!
//! ## Quickstart
//!
//! ```
//! use hotdog::prelude::*;
//!
//! // COUNT(*) per B over R(A,B) ⋈ S(B,C), maintained incrementally.
//! let query = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
//! let plan = compile("counts", &query, Strategy::RecursiveIvm);
//! let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });
//!
//! let batch = Relation::from_pairs(
//!     Schema::new(["A", "B"]),
//!     vec![(Tuple::from_values([Value::Long(1), Value::Long(10)]), 1.0)],
//! );
//! engine.apply_batch("R", &batch);
//! assert!(engine.query_result().is_empty()); // no S tuples yet
//! ```

#![forbid(unsafe_code)]

pub use hotdog_algebra as algebra;
pub use hotdog_distributed as distributed;
pub use hotdog_exec as exec;
pub use hotdog_ivm as ivm;
pub use hotdog_net as net;
pub use hotdog_runtime as runtime;
pub use hotdog_serve as serve;
pub use hotdog_storage as storage;
pub use hotdog_telemetry as telemetry;
pub use hotdog_workload as workload;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use hotdog_algebra::{
        assign_query, assign_val, cmp, cmp_lit, cmp_vars, delta_rel, evaluate, exists, join,
        join_all, neg, rel, sum, sum_total, union, val, val_var, view, CmpOp, Env, Evaluator, Expr,
        MapCatalog, Mult, RelKind, Relation, Schema, Tuple, ValExpr, Value, ViewChecksum,
    };
    pub use hotdog_distributed::{
        compile_distributed, CaptureBatch, CapturedView, DistributedPlan, LocTag, OptLevel,
        PartitionFn, PartitioningSpec, ViewAccumulator, WorkerSnapshot, WorkerState, WorkerStats,
        WorkerStatsSnapshot,
    };
    pub use hotdog_exec::{BatchStats, Database, ExecMode, LocalEngine};
    pub use hotdog_ivm::{
        compile, compile_classical, compile_recursive, compile_reevaluation, delta, extract_domain,
        MaintenancePlan, Strategy,
    };
    pub use hotdog_net::{
        FaultKind, FaultPlan, KillSpec, Phase, TcpCluster, TcpConfig, WorkerSpawn,
    };
    pub use hotdog_runtime::{
        ChannelTransport, Cluster, ClusterConfig, Driver, FaultConfig, PipelineConfig,
        PipelineStats, ThreadedCluster, Transport, WorkerDead,
    };

    /// The old name of [`Driver`], kept so code written against the
    /// removed backend trait — `Backend::pipeline_stats(&driver)` in the
    /// repo benchmark — still compiles.  A type alias rather than a
    /// re-export, so diagnostics keep naming `Driver<T>`.
    pub type Backend<T> = Driver<T>;
    pub use hotdog_serve::{
        ParamFilter, QueryShape, SubscribeClient, SubscriberView, SubscriptionHub, SubscriptionId,
        ViewDelta,
    };
    pub use hotdog_storage::{ColumnarBatch, RecordPool};
    pub use hotdog_telemetry::{
        chrome_trace_json, critical_path, trace_structure, CriticalPath, MetricsSnapshot, Registry,
        SpanContext, SpanRecord, SpanStructure, Telemetry,
    };
    pub use hotdog_workload::{
        all_queries, generate_tpcds, generate_tpch, query, tpcds_queries, tpch_queries,
        CatalogQuery, UpdateStream,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let q = sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 0)));
        let plan = compile("q", &q, Strategy::RecursiveIvm);
        let mut engine = LocalEngine::new(plan, ExecMode::SingleTuple);
        let batch = Relation::from_pairs(
            Schema::new(["A", "B"]),
            vec![(Tuple::from_values([Value::Long(1), Value::Long(2)]), 1.0)],
        );
        engine.apply_batch("R", &batch);
        assert_eq!(engine.query_result().scalar_value(), 1.0);
    }
}
