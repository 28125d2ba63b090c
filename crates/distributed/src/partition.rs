//! Location tags and partitioning information (Section 4.2).
//!
//! Every materialized view is either *local* (stored on the driver),
//! *distributed* (hash-partitioned over the workers by a set of key
//! columns), or *randomly distributed* (spread over the workers with no
//! known key — the tag produced by partial aggregation).  Update batches
//! (delta relations) enter the system at the driver and are therefore
//! local until explicitly scattered.

use crate::program::DistStatement;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_ivm::MaintenancePlan;
use std::collections::HashMap;
use std::fmt;

/// A partitioning function: hash of the named key columns modulo the number
/// of workers, or replication to every worker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionFn {
    /// Hash-partition by the values of these columns (resolved by name
    /// against the relation's schema).
    ByColumns(Vec<String>),
    /// Replicate to all workers (used to broadcast small pre-aggregated
    /// deltas that must join with differently-partitioned state).
    Replicate,
}

impl PartitionFn {
    pub fn by(cols: impl IntoIterator<Item = impl Into<String>>) -> Self {
        PartitionFn::ByColumns(cols.into_iter().map(Into::into).collect())
    }

    /// Worker(s) that should receive a tuple under this partitioning.
    pub fn route(&self, schema: &Schema, tuple: &Tuple, workers: usize) -> Vec<usize> {
        match self {
            PartitionFn::Replicate => (0..workers).collect(),
            PartitionFn::ByColumns(cols) => {
                let mut h: i64 = 1469598103934665603u64 as i64;
                for c in cols {
                    let v = schema
                        .position(c)
                        .map(|i| tuple.get(i).as_i64())
                        .unwrap_or(0);
                    h ^= v;
                    h = h.wrapping_mul(1099511628211);
                }
                vec![(h.unsigned_abs() as usize) % workers]
            }
        }
    }

    pub fn columns(&self) -> &[String] {
        match self {
            PartitionFn::ByColumns(c) => c,
            PartitionFn::Replicate => &[],
        }
    }
}

impl fmt::Display for PartitionFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionFn::ByColumns(c) => write!(f, "[{}]", c.join(", ")),
            PartitionFn::Replicate => write!(f, "[*]"),
        }
    }
}

/// Split a driver-held relation into per-worker shards under a partition
/// function; returns the shards and the bytes that cross the network.
/// Shared by every backend, so routing and byte accounting cannot
/// diverge.
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

/// Location tag of a relation or (sub)expression result.
#[derive(Clone, PartialEq, Debug)]
pub enum LocTag {
    /// Stored/evaluated on the driver.
    Local,
    /// Partitioned over the workers by the given function.
    Dist(PartitionFn),
    /// Spread over the workers with no exploitable partitioning key.
    Random,
    /// Fully replicated on every worker (broadcast state).
    Replicated,
}

impl LocTag {
    pub fn is_distributed(&self) -> bool {
        !matches!(self, LocTag::Local)
    }
}

impl fmt::Display for LocTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocTag::Local => write!(f, "Local"),
            LocTag::Dist(p) => write!(f, "Dist{p}"),
            LocTag::Random => write!(f, "Random"),
            LocTag::Replicated => write!(f, "Replicated"),
        }
    }
}

/// The partitioning specification of a maintenance plan: a location tag per
/// materialized view.
#[derive(Clone, Debug, Default)]
pub struct PartitioningSpec {
    tags: HashMap<String, LocTag>,
}

impl PartitioningSpec {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, view: impl Into<String>, tag: LocTag) {
        self.tags.insert(view.into(), tag);
    }

    /// Tag of a view (defaults to `Local` for unknown names, which is the
    /// right behaviour for the driver-resident delta buffers).
    pub fn tag(&self, view: &str) -> LocTag {
        self.tags.get(view).cloned().unwrap_or(LocTag::Local)
    }

    pub fn views(&self) -> impl Iterator<Item = (&String, &LocTag)> {
        self.tags.iter()
    }

    /// The paper's partitioning heuristic (Section 6.2): partition each
    /// materialized view on the highest-cardinality base-table key column
    /// appearing in its schema; views without any such key (typically small
    /// top-level aggregates) stay on the driver.
    ///
    /// `ranked_keys` lists candidate key columns in decreasing cardinality
    /// order, using the variable names of the query (e.g. `["OK", "CK"]`).
    pub fn heuristic(plan: &MaintenancePlan, ranked_keys: &[&str]) -> Self {
        let mut spec = PartitioningSpec::new();
        for v in &plan.views {
            let chosen = ranked_keys.iter().find(|k| v.schema.contains(k));
            match chosen {
                Some(k) => spec.set(&v.name, LocTag::Dist(PartitionFn::by([*k]))),
                None => spec.set(&v.name, LocTag::Local),
            }
        }
        spec
    }

    /// Number of distributed views in the spec.
    pub fn distributed_count(&self) -> usize {
        self.tags.values().filter(|t| t.is_distributed()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;
    use hotdog_ivm::compile_recursive;

    #[test]
    fn route_is_deterministic_and_in_range() {
        let schema = Schema::new(["a", "b"]);
        let p = PartitionFn::by(["b"]);
        for i in 0..50i64 {
            let t = tuple![i, i % 7];
            let w = p.route(&schema, &t, 10);
            assert_eq!(w, p.route(&schema, &t, 10));
            assert_eq!(w.len(), 1);
            assert!(w[0] < 10);
        }
        // Same key column value -> same worker.
        assert_eq!(
            p.route(&schema, &tuple![1, 3], 10),
            p.route(&schema, &tuple![2, 3], 10)
        );
    }

    #[test]
    fn replicate_routes_to_all_workers() {
        let schema = Schema::new(["a"]);
        assert_eq!(
            PartitionFn::Replicate.route(&schema, &tuple![1], 4),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn heuristic_partitions_views_with_keys_and_keeps_aggregates_local() {
        let q = sum(
            ["B"],
            join_all([
                rel("R", ["OK", "B"]),
                rel("S", ["B", "C"]),
                rel("T", ["C", "D"]),
            ]),
        );
        let plan = compile_recursive("Q", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "C"]);
        // The top view Q(B) has no key column -> local.
        assert_eq!(spec.tag("Q"), LocTag::Local);
        // At least one auxiliary view contains OK or C and is distributed.
        assert!(spec.distributed_count() >= 1);
        // Unknown names default to local.
        assert_eq!(spec.tag("NOPE"), LocTag::Local);
    }

    #[test]
    fn partitions_spread_keys_across_workers() {
        let schema = Schema::new(["k"]);
        let p = PartitionFn::by(["k"]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200i64 {
            seen.insert(p.route(&schema, &tuple![i], 8)[0]);
        }
        assert!(seen.len() >= 6, "keys badly skewed: {seen:?}");
    }
}
