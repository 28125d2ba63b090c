//! The view database: one record pool per materialized view, with the
//! secondary indexes chosen by the plan's access-pattern analysis, plus
//! [`execute`], the one statement executor, which runs a compiled trigger
//! statement directly against the pools, a node's exchange buffers and the
//! current update batch.

use crate::slice_index::{SliceIndex, Stored};
use crate::vectorized::{Source, VectorPlan};
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::expr::RelKind;
use hotdog_algebra::hash::DetMap;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_ivm::{IndexSpec, MaintenancePlan, StmtOp};
use hotdog_storage::{PoolCounters, RecordPool};
use std::collections::HashMap;

/// Storage for all materialized views of one maintenance plan.
#[derive(Clone, Debug, Default)]
pub struct Database {
    pools: DetMap<String, RecordPool>,
    schemas: DetMap<String, Schema>,
}

impl Database {
    /// Create the pools (and their secondary indexes) required by a plan's
    /// own triggers.
    pub fn for_plan(plan: &MaintenancePlan) -> Self {
        Database::with_indexes(plan, plan.index_requirements())
    }

    /// Create a pool for every view of `plan`, with the secondary indexes
    /// `indexes` (see [`MaintenancePlan::index_requirements_of`]).
    pub fn with_indexes(plan: &MaintenancePlan, indexes: Vec<IndexSpec>) -> Self {
        let mut db = Database::default();
        for v in &plan.views {
            db.pools
                .insert(v.name.clone(), RecordPool::new(v.schema.len()));
            db.schemas.insert(v.name.clone(), v.schema.clone());
        }
        for spec in indexes {
            if let Some(pool) = db.pools.get_mut(&spec.view) {
                pool.add_secondary_index(spec.positions);
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
            pool.foreach(&mut |t, m| rel.add(Tuple::from(t), m));
        }
        rel
    }

    /// Replace a view's contents wholesale (the `:=` statement operation and
    /// the shuffle path of the distributed runtime), moving the tuples into
    /// the pool in `contents`' iteration order.
    pub fn replace(&mut self, view: &str, contents: Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            pool.clear();
            for (t, m) in contents {
                pool.update(t, m);
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
    pub fn rebuild(&mut self, view: &str, contents: Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            let mut fresh =
                RecordPool::with_secondary_indexes(pool.arity(), &pool.secondary_index_specs());
            for (t, m) in contents {
                fresh.update(t, m);
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
            self.rebuild(&v, canon);
        }
    }

    /// Apply a statement's result to a view: `+=` merges, `:=` replaces.
    pub fn apply(&mut self, view: &str, op: StmtOp, result: Relation) {
        match op {
            StmtOp::AddTo => self.merge(view, result),
            StmtOp::SetTo => self.replace(view, result),
        }
    }

    /// Merge a relation into a view (`+=`), moving its tuples into the
    /// pool in its iteration order.
    pub fn merge(&mut self, view: &str, contents: Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            for (t, m) in contents {
                pool.update(t, m);
            }
        }
    }

    /// Total live records across all views.
    pub fn total_records(&self) -> usize {
        self.pools.values().map(RecordPool::len).sum()
    }

    /// Heap bytes held by every view's pool (see
    /// [`RecordPool::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.pools.values().map(RecordPool::heap_bytes).sum()
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

/// One trigger statement's result and the work it took (see [`execute`]).
#[derive(Debug)]
pub struct Executed {
    /// The statement's result relation.
    pub result: Relation,
    /// Evaluator operation counts, `tuples_touched` included.
    pub counters: EvalCounters,
}

/// Run one compiled trigger statement against a node's state: the one
/// statement executor of the local engine and of every distributed node.
/// The statement was compiled once, where it was installed.
///
/// Before the first row, each relation the plan reads is bound once: a
/// `Delta` reference to `batch` when it names the batch's relation (else
/// to nothing), any other reference to a temp of that
/// name (an exchange buffer, or a batch-only term its trigger computed
/// earlier in the batch), or else to the view's pool.  The columnar
/// interpreter then reads through that binding; its results and counters
/// are bit-identical to the row `Evaluator`'s.
pub fn execute(
    plan: &VectorPlan,
    db: &Database,
    temps: &HashMap<String, Relation>,
    batch: Option<(&str, &Relation)>,
) -> Executed {
    let catalog = StatementCatalog::new(db, temps, batch);
    let bound = Bound {
        rels: (plan.relations())
            .map(|(name, kind)| catalog.resolve(name, kind))
            .collect(),
        index: &catalog.index,
    };
    let mut counters = EvalCounters::default();
    let result = plan.run(&bound, &mut counters);
    counters.tuples_touched = catalog.index.tuples_touched();
    Executed { result, counters }
}

/// A plan's relations, each bound to what one [`execute`] call resolved it
/// to (`None`: nothing holds it, so it is empty).
struct Bound<'c, 'a> {
    rels: Vec<Option<Stored<'a>>>,
    index: &'c SliceIndex<'a>,
}

impl Source for Bound<'_, '_> {
    fn scan(&self, rel: usize, f: &mut dyn FnMut(&[Value], Mult)) {
        if let Some(stored) = self.rels[rel] {
            self.index.scan(stored, f);
        }
    }

    fn lookup(&self, rel: usize, key: &[Value]) -> Mult {
        self.rels[rel].map_or(0.0, |s| s.get(key))
    }

    fn slice(
        &self,
        rel: usize,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    ) {
        if let Some(stored) = self.rels[rel] {
            self.index.slice(stored, positions, key_vals, f);
        }
    }
}

/// The relations one [`execute`] call reads, by name.  Its [`SliceIndex`]
/// indexes the batch and temps for that call only.  As a `Catalog`, it is
/// what the row `Evaluator` reads in the tests that hold `execute` to it.
pub(crate) struct StatementCatalog<'a> {
    db: &'a Database,
    temps: &'a HashMap<String, Relation>,
    /// The trigger's relation and its batch, if the statement has one.
    batch: Option<(&'a str, &'a Relation)>,
    pub(crate) index: SliceIndex<'a>,
}

impl<'a> StatementCatalog<'a> {
    pub(crate) fn new(
        db: &'a Database,
        temps: &'a HashMap<String, Relation>,
        batch: Option<(&'a str, &'a Relation)>,
    ) -> Self {
        StatementCatalog {
            db,
            temps,
            batch,
            index: SliceIndex::default(),
        }
    }

    fn resolve(&self, name: &str, kind: RelKind) -> Option<Stored<'a>> {
        match kind {
            RelKind::Delta => (self.batch)
                .filter(|&(relation, _)| relation == name)
                .map(|(_, rel)| Stored::Relation(rel)),
            _ => match self.temps.get(name) {
                Some(rel) => Some(Stored::Relation(rel)),
                None => self.db.pool(name).map(Stored::Pool),
            },
        }
    }
}

#[cfg(test)]
impl hotdog_algebra::eval::Catalog for StatementCatalog<'_> {
    fn scan(&self, name: &str, kind: RelKind, f: &mut dyn FnMut(&[Value], Mult)) {
        if let Some(stored) = self.resolve(name, kind) {
            self.index.scan(stored, f);
        }
    }

    fn lookup(&self, name: &str, kind: RelKind, key: &[Value]) -> Mult {
        self.resolve(name, kind).map_or(0.0, |s| s.get(key))
    }

    fn slice(
        &self,
        name: &str,
        kind: RelKind,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    ) {
        if let Some(stored) = self.resolve(name, kind) {
            self.index.slice(stored, positions, key_vals, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::eval::{Catalog, Evaluator};
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
        db.merge("Q", rel.clone());
        assert!(db.snapshot("Q").approx_eq(&rel));
        let rel2 = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![9], 1.0)]);
        db.replace("Q", rel2.clone());
        assert!(db.snapshot("Q").approx_eq(&rel2));
        assert_eq!(db.total_records(), 1);
    }

    #[test]
    fn exec_catalog_routes_delta_and_view_kinds() {
        let plan = sample_plan();
        let mut db = Database::for_plan(&plan);
        db.merge(
            "Q",
            Relation::from_pairs(Schema::new(["B"]), vec![(tuple![5], 7.0)]),
        );
        let delta = Relation::from_pairs(Schema::new(["A", "B"]), vec![(tuple![1, 5], 1.0)]);
        let batch = Some(("R", &delta));
        let no_temps = HashMap::new();
        let cat = StatementCatalog::new(&db, &no_temps, batch);
        assert_eq!(cat.lookup("Q", RelKind::View, &tuple![5].0), 7.0);
        assert_eq!(cat.lookup("R", RelKind::Delta, &tuple![1, 5].0), 1.0);
        let mut n = 0;
        cat.scan("R", RelKind::Delta, &mut |_, _| n += 1);
        assert_eq!(n, 1);

        // A temp shadows the view pool of its name; `Delta` never reads a
        // temp, even one named like the batch.
        let temps = HashMap::from([
            (
                "Q".to_string(),
                Relation::from_pairs(Schema::new(["B"]), vec![(tuple![6], 4.0)]),
            ),
            (
                "R".to_string(),
                Relation::from_pairs(Schema::new(["A", "B"]), vec![(tuple![2, 5], 3.0)]),
            ),
        ]);
        let cat = StatementCatalog::new(&db, &temps, batch);
        assert_eq!(cat.lookup("Q", RelKind::View, &tuple![6].0), 4.0);
        assert_eq!(cat.lookup("Q", RelKind::View, &tuple![5].0), 0.0);
        assert_eq!(cat.lookup("R", RelKind::Delta, &tuple![2, 5].0), 0.0);
        let mut rows = Vec::new();
        cat.slice("R", RelKind::Delta, &[1], &[Value::Long(5)], &mut |t, m| {
            rows.push((Tuple::from(t), m))
        });
        assert_eq!(rows, vec![(tuple![1, 5], 1.0)]);

        // A name nothing holds is empty.
        let mut n = 0;
        cat.scan("NOPE", RelKind::View, &mut |_, _| n += 1);
        cat.scan("S", RelKind::Delta, &mut |_, _| n += 1);
        cat.slice(
            "NOPE",
            RelKind::View,
            &[0],
            &[Value::Long(5)],
            &mut |_, _| n += 1,
        );
        assert_eq!(n, 0);
        assert_eq!(cat.lookup("NOPE", RelKind::View, &tuple![5].0), 0.0);

        // Through `execute`: a left-deep join and a nested aggregate both
        // report the row interpreter's results and counters.
        let left_deep = sum(["B"], join(delta_rel("R", ["A", "B"]), view("Q", ["B"])));
        let nested = sum_total(join(
            delta_rel("R", ["A", "B"]),
            assign_query("X", sum_total(view("Q", ["B"]))),
        ));
        for expr in [left_deep, nested] {
            let plan = VectorPlan::new(&expr).unwrap();
            let executed = execute(&plan, &db, &no_temps, batch);
            let cat = StatementCatalog::new(&db, &no_temps, batch);
            let mut ev = Evaluator::new(&cat);
            let want = ev.eval(&expr);
            ev.counters.tuples_touched = cat.index.tuples_touched();
            assert_eq!(executed.counters, ev.counters, "{expr:?}");
            assert_eq!(executed.result.checksum(), want.checksum(), "{expr:?}");
            assert!(!want.is_empty(), "{expr:?}");
        }
    }
}
