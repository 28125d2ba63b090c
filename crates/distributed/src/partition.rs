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

    /// The hash key's positions in `schema` (`None` for a column it lacks,
    /// which hashes as 0), or `None` for replication.
    fn key_positions(&self, schema: &Schema) -> Option<Vec<Option<usize>>> {
        match self {
            PartitionFn::Replicate => None,
            PartitionFn::ByColumns(cols) => Some(cols.iter().map(|c| schema.position(c)).collect()),
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

/// The worker owning `tuple` under a hash partitioning resolved to `keys`
/// ([`PartitionFn::key_positions`]): FNV-style over the key values'
/// integer views, modulo the worker count.
fn owner(keys: &[Option<usize>], tuple: &Tuple, workers: usize) -> usize {
    let mut h: i64 = 1469598103934665603u64 as i64;
    for k in keys {
        h ^= k.map_or(0, |i| tuple.get(i).as_i64());
        h = h.wrapping_mul(1099511628211);
    }
    (h.unsigned_abs() as usize) % workers
}

/// Split a driver-held relation into per-worker shards under a partition
/// function; returns the shards and the bytes that cross the network.
/// Shared by every backend, so routing and byte accounting cannot
/// diverge.
///
/// Tuples are re-keyed positionally to `stmt.target_schema` (so `src` needs
/// no `relabel` first, only the same arity) and are routed in sorted order:
/// each shard is built from empty by appending its tuples in sorted order,
/// which is exactly the wire-canonical layout ([`Relation::canonical`]).
/// A shard's map layout must be a pure function of its content — not of
/// `src`'s layout or the routing iteration that built it — so that a shard
/// decoded from the socket transport is bit-identical to the shard an
/// in-process backend hands its worker.
pub fn partition_shards(
    pf: &PartitionFn,
    src: &Relation,
    stmt: &DistStatement,
    workers: usize,
) -> (Vec<Relation>, usize) {
    let schema = &stmt.target_schema;
    assert_eq!(
        src.schema().len(),
        schema.len(),
        "scatter arity mismatch: {:?} vs {:?}",
        src.schema(),
        schema
    );
    let mut shards: Vec<Relation> = (0..workers)
        .map(|_| Relation::new(schema.clone()))
        .collect();
    let keys = pf.key_positions(schema);
    let copies = if keys.is_some() { 1 } else { workers };
    let mut bytes = 0usize;
    for (t, m) in src.sorted_refs() {
        match &keys {
            Some(keys) => shards[owner(keys, t, workers)].add(t.clone(), m),
            None => shards.iter_mut().for_each(|s| s.add(t.clone(), m)),
        }
        bytes += (t.values_size() + 8) * copies;
    }
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
        let keys = PartitionFn::by(["b"])
            .key_positions(&Schema::new(["a", "b"]))
            .expect("hash partitioning");
        assert_eq!(keys, [Some(1)]);
        for i in 0..50i64 {
            let t = tuple![i, i % 7];
            let w = owner(&keys, &t, 10);
            assert_eq!(w, owner(&keys, &t, 10));
            assert!(w < 10);
        }
        // Same key column value -> same worker.
        assert_eq!(
            owner(&keys, &tuple![1, 3], 10),
            owner(&keys, &tuple![2, 3], 10)
        );
    }

    #[test]
    fn replicate_routes_to_all_workers() {
        let src = Relation::from_pairs(Schema::new(["a"]), [(tuple![1], 2.0)]);
        let stmt = scatter_stmt(Schema::new(["a"]));
        let (shards, bytes) = partition_shards(&PartitionFn::Replicate, &src, &stmt, 4);
        assert_eq!(shards.len(), 4);
        assert!(shards
            .iter()
            .all(|s| s.len() == 1 && s.get(&tuple![1]) == 2.0));
        assert_eq!(bytes, 4 * src.serialized_size());
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

    fn scatter_stmt(schema: Schema) -> DistStatement {
        DistStatement {
            target: "S".into(),
            target_schema: schema,
            op: hotdog_ivm::StmtOp::SetTo,
            kind: crate::program::DistStmtKind::Transform {
                kind: crate::program::Transform::Scatter(PartitionFn::Replicate),
                source: "ΔR".into(),
            },
            mode: crate::program::StmtMode::Local,
        }
    }

    /// (tuple, multiplicity bits) in iteration order: layout and content.
    fn layout(r: &Relation) -> Vec<(Tuple, u64)> {
        r.iter().map(|(t, m)| (t.clone(), m.to_bits())).collect()
    }

    #[test]
    fn shards_are_canonical_by_construction() {
        // A coalesced source: scrambled inserts, merges and cancellations,
        // so its layout is not the canonical one.
        let mut coalesced = Relation::new(Schema::new(["a", "b"]));
        for i in 0..400i64 {
            let k = (i * 7919) % 263;
            coalesced.add(tuple![k, i % 11], 0.25 + (i % 5) as f64);
            if i % 3 == 0 {
                coalesced.add(tuple![k, i % 11], -0.25 - (i % 5) as f64);
            }
        }
        let sources = [coalesced.canonical(), coalesced];
        let stmt = scatter_stmt(Schema::new(["k", "v"]));
        for pf in [PartitionFn::by(["k"]), PartitionFn::Replicate] {
            for workers in [1, 2, 4] {
                for src in &sources {
                    let (shards, bytes) = partition_shards(&pf, src, &stmt, workers);
                    let copies = if pf == PartitionFn::Replicate {
                        workers
                    } else {
                        1
                    };
                    assert_eq!(bytes, src.serialized_size() * copies);
                    let total: usize = shards.iter().map(Relation::len).sum();
                    assert_eq!(total, src.len() * copies);
                    for shard in &shards {
                        assert_eq!(shard.schema(), &stmt.target_schema);
                        assert_eq!(
                            layout(shard),
                            layout(&shard.canonical()),
                            "{pf} W={workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn routing_table_is_pinned() {
        // Key -> worker for a one-column hash partitioning.  Moving a key
        // changes every shard's content and the shuffle byte counts.
        let keys = [0i64, 1, 2, 3, 4, 5, 6, 7, 42, 1000, -5, 123456789];
        let pinned: [(usize, [usize; 12]); 3] = [
            (2, [1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0]),
            (4, [1, 2, 3, 0, 1, 2, 3, 0, 3, 1, 0, 2]),
            (8, [1, 6, 3, 0, 5, 2, 7, 4, 3, 1, 0, 2]),
        ];
        let src = Relation::from_pairs(Schema::new(["k"]), keys.iter().map(|&k| (tuple![k], 1.0)));
        let stmt = scatter_stmt(Schema::new(["k"]));
        for (workers, owners) in pinned {
            let (shards, _) = partition_shards(&PartitionFn::by(["k"]), &src, &stmt, workers);
            for (k, w) in keys.iter().zip(owners) {
                assert_eq!(shards[w].get(&tuple![*k]), 1.0, "key {k} at W={workers}");
            }
        }
    }

    #[test]
    fn partitions_spread_keys_across_workers() {
        let keys = PartitionFn::by(["k"])
            .key_positions(&Schema::new(["k"]))
            .expect("hash partitioning");
        let mut seen = std::collections::HashSet::new();
        for i in 0..200i64 {
            seen.insert(owner(&keys, &tuple![i], 8));
        }
        assert!(seen.len() >= 6, "keys badly skewed: {seen:?}");
    }
}
