//! The view database: one record pool per materialized view, with the
//! secondary indexes chosen by the plan's access-pattern analysis, plus the
//! [`Catalog`] implementation that lets the algebra evaluator run trigger
//! statements directly against the pools and the current update batch.

use crate::slice_index::{SliceIndex, Stored};
use hotdog_algebra::eval::Catalog;
use hotdog_algebra::expr::RelKind;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_ivm::MaintenancePlan;
use hotdog_storage::{PoolCounters, RecordPool};
use std::collections::HashMap;

/// Storage for all materialized views of one maintenance plan.
#[derive(Clone, Debug, Default)]
pub struct Database {
    pools: HashMap<String, RecordPool>,
    schemas: HashMap<String, Schema>,
}

impl Database {
    /// Create the pools (and their secondary indexes) required by a plan.
    pub fn for_plan(plan: &MaintenancePlan) -> Self {
        let mut db = Database::default();
        for v in &plan.views {
            db.pools
                .insert(v.name.clone(), RecordPool::new(v.schema.len()));
            db.schemas.insert(v.name.clone(), v.schema.clone());
        }
        for spec in plan.index_requirements() {
            if let Some(pool) = db.pools.get_mut(&spec.view) {
                pool.add_secondary_index(spec.positions.clone());
            }
        }
        db
    }

    /// Access a view's pool.
    pub fn pool(&self, view: &str) -> Option<&RecordPool> {
        self.pools.get(view)
    }

    /// Mutable access to a view's pool.
    pub fn pool_mut(&mut self, view: &str) -> Option<&mut RecordPool> {
        self.pools.get_mut(view)
    }

    /// Schema of a view.
    pub fn schema(&self, view: &str) -> Option<&Schema> {
        self.schemas.get(view)
    }

    /// Names of all views.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.pools.keys().map(|s| s.as_str())
    }

    /// Snapshot a view's contents as a [`Relation`].
    pub fn snapshot(&self, view: &str) -> Relation {
        let schema = self.schemas.get(view).cloned().unwrap_or_default();
        let mut rel = Relation::new(schema);
        if let Some(pool) = self.pools.get(view) {
            pool.foreach(&mut |t, m| rel.add(t.clone(), m));
        }
        rel
    }

    /// Replace a view's contents wholesale (the `:=` statement operation and
    /// the shuffle path of the distributed runtime).
    pub fn replace(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            pool.clear();
            for (t, m) in contents.iter() {
                pool.update(t.clone(), m);
            }
        }
    }

    /// Rebuild a view's pool **from scratch** with the given contents: a
    /// fresh slab (no free-list history, no inherited capacity) populated in
    /// `contents`' iteration order, with the same secondary indexes.
    ///
    /// This is the restore/canonicalization primitive of the fault-tolerant
    /// runtime.  [`Database::replace`] deliberately recycles the existing
    /// slab (its `clear` refills the free list, so re-inserts fill slots
    /// top-down), which makes the resulting slot order — and therefore scan
    /// order, and therefore float accumulation in later batches — a function
    /// of the pool's entire history.  `rebuild` makes it a pure function of
    /// `contents`: feeding it the same canonical relation always produces
    /// bit-identical scan order, no matter what the pool held before.
    pub fn rebuild(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            let mut fresh =
                RecordPool::with_secondary_indexes(pool.arity(), &pool.secondary_index_specs());
            for (t, m) in contents.iter() {
                fresh.update(t.clone(), m);
            }
            *pool = fresh;
        }
    }

    /// Rebuild every pool in canonical (sorted-content) layout: the
    /// epoch barrier of the fault-tolerant runtime.  After `canonicalize`,
    /// each pool's slot order is a pure function of its *contents*, so a
    /// node restored from a canonical snapshot and a node that simply kept
    /// running agree bit-for-bit on all subsequent scan-order-dependent
    /// float arithmetic.
    pub fn canonicalize(&mut self) {
        let views: Vec<String> = self.pools.keys().cloned().collect();
        for v in views {
            let canon = self.snapshot(&v).canonical();
            self.rebuild(&v, &canon);
        }
    }

    /// Merge a relation into a view (`+=`).
    pub fn merge(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            for (t, m) in contents.iter() {
                pool.update(t.clone(), m);
            }
        }
    }

    /// Total live records across all views.
    pub fn total_records(&self) -> usize {
        self.pools.values().map(RecordPool::len).sum()
    }

    /// Approximate total payload bytes across all views.
    pub fn total_bytes(&self) -> usize {
        self.pools.values().map(RecordPool::payload_bytes).sum()
    }

    /// Aggregate storage-operation counters across all pools.
    pub fn counters(&self) -> PoolCounters {
        let mut c = PoolCounters::default();
        for p in self.pools.values() {
            c.add(&p.counters());
        }
        c
    }

    /// Reset per-pool counters.
    pub fn reset_counters(&self) {
        for p in self.pools.values() {
            p.reset_counters();
        }
    }
}

/// Catalog adapter: resolves `View` references against the database pools
/// and `Delta` references against the current batch.  Built once per
/// statement: its [`SliceIndex`] indexes the batch for that statement only.
pub struct ExecCatalog<'a> {
    db: &'a Database,
    deltas: &'a HashMap<String, Relation>,
    index: SliceIndex<'a>,
}

impl<'a> ExecCatalog<'a> {
    pub fn new(db: &'a Database, deltas: &'a HashMap<String, Relation>) -> Self {
        ExecCatalog {
            db,
            deltas,
            index: SliceIndex::default(),
        }
    }

    /// Tuples touched by this catalog's scans and slices so far.
    pub fn tuples_touched(&self) -> u64 {
        self.index.tuples_touched()
    }

    fn resolve(&self, name: &str, kind: RelKind) -> Option<Stored<'a>> {
        match kind {
            RelKind::Delta => self.deltas.get(name).map(Stored::Relation),
            _ => self.db.pool(name).map(Stored::Pool),
        }
    }
}

impl<'a> Catalog for ExecCatalog<'a> {
    fn scan(&self, name: &str, kind: RelKind, f: &mut dyn FnMut(&Tuple, Mult)) {
        if let Some(stored) = self.resolve(name, kind) {
            self.index.scan(stored, f);
        }
    }

    fn lookup(&self, name: &str, kind: RelKind, key: &Tuple) -> Mult {
        self.resolve(name, kind).map_or(0.0, |s| s.get(key))
    }

    fn slice(
        &self,
        name: &str,
        kind: RelKind,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&Tuple, Mult),
    ) {
        if let Some(stored) = self.resolve(name, kind) {
            self.index.slice(stored, positions, key_vals, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;
    use hotdog_ivm::compile_recursive;

    fn sample_plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(
                ["B"],
                join_all([
                    rel("R", ["A", "B"]),
                    rel("S", ["B", "C"]),
                    rel("T", ["C", "D"]),
                ]),
            ),
        )
    }

    #[test]
    fn database_creates_pool_per_view() {
        let plan = sample_plan();
        let db = Database::for_plan(&plan);
        assert_eq!(db.view_names().count(), plan.views.len());
        assert!(db.pool("Q").is_some());
    }

    #[test]
    fn database_creates_required_secondary_indexes() {
        let plan = sample_plan();
        let db = Database::for_plan(&plan);
        for spec in plan.index_requirements() {
            assert!(
                db.pool(&spec.view)
                    .unwrap()
                    .has_secondary_index(&spec.positions),
                "missing index {:?} on {}",
                spec.positions,
                spec.view
            );
        }
    }

    #[test]
    fn snapshot_merge_replace_round_trip() {
        let plan = sample_plan();
        let mut db = Database::for_plan(&plan);
        let rel =
            Relation::from_pairs(Schema::new(["B"]), vec![(tuple![1], 2.0), (tuple![2], 3.0)]);
        db.merge("Q", &rel);
        assert!(db.snapshot("Q").approx_eq(&rel));
        let rel2 = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![9], 1.0)]);
        db.replace("Q", &rel2);
        assert!(db.snapshot("Q").approx_eq(&rel2));
        assert_eq!(db.total_records(), 1);
    }

    #[test]
    fn exec_catalog_routes_delta_and_view_kinds() {
        let plan = sample_plan();
        let mut db = Database::for_plan(&plan);
        db.merge(
            "Q",
            &Relation::from_pairs(Schema::new(["B"]), vec![(tuple![5], 7.0)]),
        );
        let mut deltas = HashMap::new();
        deltas.insert(
            "R".to_string(),
            Relation::from_pairs(Schema::new(["A", "B"]), vec![(tuple![1, 5], 1.0)]),
        );
        let cat = ExecCatalog::new(&db, &deltas);
        assert_eq!(cat.lookup("Q", RelKind::View, &tuple![5]), 7.0);
        assert_eq!(cat.lookup("R", RelKind::Delta, &tuple![1, 5]), 1.0);
        let mut n = 0;
        cat.scan("R", RelKind::Delta, &mut |_, _| n += 1);
        assert_eq!(n, 1);
    }
}
