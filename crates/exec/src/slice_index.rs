//! Per-statement hash indexes over the in-memory relations a statement
//! slices: the update batch (`Delta` references) and a node's exchange
//! buffers (temps).
//!
//! Record pools keep secondary hash indexes across batches, but deltas and
//! temps are plain [`Relation`]s rebuilt every batch.  Answering each slice
//! of one by scanning and filtering makes a statement that probes the batch
//! once per batch tuple (Q18's nested aggregate on `OK`) cost O(|Δ|²).
//! [`SliceIndex`] instead, the first time a relation is sliced on a given
//! set of positions, collects its rows in one pass over [`Relation::iter`]
//! and chains their positions in a [`HashIndex`] (the record pools' index
//! type) by the rows' values there; it answers that probe and every later
//! one in O(matches), with no key copied.
//!
//! Each key's chain lists its rows in the relation's iteration order (only
//! a 64-bit hash collision shares a chain between keys, and a probe
//! confirms every member then), so a probe emits exactly what the
//! scan-and-filter default of
//! [`Catalog::slice`](hotdog_algebra::eval::Catalog::slice) emits, in the
//! same order: emission order, float accumulation order and every
//! [`EvalCounters`](hotdog_algebra::eval::EvalCounters) field the
//! interpreters set stay unchanged.
//!
//! Each [`execute`](crate::execute) call owns one `SliceIndex`.  A
//! statement reads its inputs and writes its result only after evaluation,
//! so no indexed relation changes while its index lives, and nothing needs
//! invalidating.  No index outlives its call, so a plan compiled once
//! indexes each call's batch and temps afresh.

use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
#[cfg(test)]
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_storage::index::{agrees, hash_at, hash_values, same_at};
use hotdog_storage::{HashIndex, RecordPool};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What a relation reference resolves to in an execution catalog.
#[derive(Clone, Copy)]
pub(crate) enum Stored<'a> {
    /// An in-memory relation: the update batch or an exchange buffer.
    Relation(&'a Relation),
    /// A materialized view's record pool.
    Pool(&'a RecordPool),
}

impl Stored<'_> {
    /// Multiplicity of an exact key (0 when absent).
    pub fn get(&self, key: &[Value]) -> Mult {
        match self {
            Stored::Relation(rel) => rel.get(key),
            Stored::Pool(pool) => pool.get(key),
        }
    }
}

/// A built index: a relation's rows in iteration order, chained by their
/// values at `positions`.
struct Built<'a> {
    rel: &'a Relation,
    positions: Vec<usize>,
    rows: Vec<(&'a [Value], Mult)>,
    index: HashIndex,
}

/// One catalog's scan and slice path: relation slices are answered from
/// hash indexes built on first use, and every tuple a scan, slice or index
/// build touches is counted (see `EvalCounters::tuples_touched`).
#[derive(Default)]
pub(crate) struct SliceIndex<'a> {
    /// Every index built so far; a statement slices only a few distinct
    /// (relation, positions) pairs, so a list suffices.
    built: RefCell<Vec<Rc<Built<'a>>>>,
    touched: Cell<u64>,
}

impl<'a> SliceIndex<'a> {
    /// Iterate over every tuple of `stored`.
    pub fn scan(&self, stored: Stored<'a>, f: &mut dyn FnMut(&[Value], Mult)) {
        match stored {
            Stored::Relation(rel) => {
                for (t, m) in rel.iter() {
                    f(&t.0, m);
                }
                self.touch(rel.len());
            }
            Stored::Pool(pool) => {
                pool.foreach(f);
                self.touch(pool.len());
            }
        }
    }

    /// Iterate over the tuples of `stored` whose columns at `positions`
    /// equal `key_vals`, in `stored`'s iteration order.
    pub fn slice(
        &self,
        stored: Stored<'a>,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    ) {
        let touched = match stored {
            Stored::Relation(rel) => {
                let built = self.built(rel, positions);
                let is_key = |i: u32| agrees(positions, built.rows[i as usize].0, key_vals);
                let mut len = 0;
                for i in built.index.find(hash_values(key_vals.iter()), is_key) {
                    let (t, m) = built.rows[i as usize];
                    f(t, m);
                    len += 1;
                }
                len
            }
            Stored::Pool(pool) => pool.slice(positions, key_vals, f),
        };
        self.touch(touched);
    }

    /// Tuples touched so far by this index's scans, slices and builds.
    pub fn tuples_touched(&self) -> u64 {
        self.touched.get()
    }

    fn touch(&self, n: usize) {
        self.touched.set(self.touched.get() + n as u64);
    }

    /// The index of `rel` on `positions`, built by one pass over `rel` on
    /// first use.  Shared out by `Rc` so no borrow of the cache is held
    /// while a probe's callback runs.
    fn built(&self, rel: &'a Relation, positions: &[usize]) -> Rc<Built<'a>> {
        let mut built = self.built.borrow_mut();
        if let Some(b) =
            (built.iter()).find(|b| std::ptr::eq(b.rel, rel) && b.positions == positions)
        {
            return Rc::clone(b);
        }
        let rows: Vec<(&[Value], Mult)> = rel.iter().map(|(t, m)| (&t.0[..], m)).collect();
        let mut index = HashIndex::default();
        for (i, &(t, _)) in rows.iter().enumerate() {
            let same = |x: u32| same_at(positions, rows[x as usize].0, t);
            index.insert(hash_at(positions, t), i as u32, same);
        }
        self.touch(rel.len());
        let b = Rc::new(Built {
            rel,
            positions: positions.to_vec(),
            rows,
            index,
        });
        built.push(Rc::clone(&b));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::eval::{Catalog, MapCatalog};
    use hotdog_algebra::expr::RelKind;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;

    type Rows = Vec<(Tuple, Mult)>;

    fn via_index<'a>(
        index: &SliceIndex<'a>,
        rel: &'a Relation,
        positions: &[usize],
        key: &[Value],
    ) -> Rows {
        let mut rows = Vec::new();
        index.slice(Stored::Relation(rel), positions, key, &mut |t, m| {
            rows.push((Tuple::from(t), m))
        });
        rows
    }

    fn via_scan(catalog: &MapCatalog, positions: &[usize], key: &[Value]) -> Rows {
        let mut rows = Vec::new();
        catalog.slice("R", RelKind::Delta, positions, key, &mut |t, m| {
            rows.push((Tuple::from(t), m))
        });
        rows
    }

    /// A batch with repeated keys on every column but the last, and some
    /// tuples that deletions cancelled to zero.
    fn batch() -> Relation {
        let mut rel = Relation::new(Schema::new(["A", "B", "C"]));
        for i in 0..40i64 {
            rel.add(tuple![i % 5, i % 3, i], if i % 2 == 0 { 1.0 } else { -2.5 });
        }
        for i in (0..40i64).step_by(7) {
            rel.add(tuple![i % 5, i % 3, i], if i % 2 == 0 { -1.0 } else { 2.5 });
        }
        rel
    }

    #[test]
    fn indexed_slices_emit_exactly_what_scan_and_filter_emits() {
        let rel = batch();
        assert_eq!(rel.len(), 40 - 6, "six tuples cancel to zero");
        let mut reference = MapCatalog::new();
        reference.insert("R", RelKind::Delta, rel.clone());
        let index = SliceIndex::default();
        let mut scanned = 0;
        index.scan(Stored::Relation(&rel), &mut |_, _| scanned += 1);
        assert_eq!(scanned, rel.len());
        let mut matches = 0;
        // Two position sets on the same relation, each probed on every key
        // it holds and on keys it does not (A = 5, 6 and B = 3 never occur).
        for (positions, keys) in [
            (
                vec![0],
                (0..7i64).map(|a| vec![Value::Long(a)]).collect::<Vec<_>>(),
            ),
            (
                vec![1, 0],
                (0..4i64)
                    .flat_map(|b| (0..7i64).map(move |a| vec![Value::Long(b), Value::Long(a)]))
                    .collect(),
            ),
        ] {
            for key in &keys {
                let want = via_scan(&reference, &positions, key);
                let got = via_index(&index, &rel, &positions, key);
                assert_eq!(got, want, "positions {positions:?}, key {key:?}");
                matches += got.len();
            }
        }
        // Probe again after both indexes exist: same answer, no rebuild.
        for key in [[Value::Long(2)], [Value::Long(9)]] {
            assert_eq!(
                via_index(&index, &rel, &[0], &key),
                via_scan(&reference, &[0], &key)
            );
            matches += via_scan(&reference, &[0], &key).len();
        }
        // One pass for the scan and one per built index, plus exactly the
        // matches after that.
        assert_eq!(index.tuples_touched(), (3 * rel.len() + matches) as u64);
    }

    #[test]
    fn equal_positions_on_different_relations_get_separate_indexes() {
        let delta = batch();
        let temp = Relation::from_pairs(
            Schema::new(["A", "B", "C"]),
            vec![(tuple![1, 0, 100], 4.0), (tuple![1, 2, 101], 0.5)],
        );
        let mut reference = MapCatalog::new();
        reference.insert("R", RelKind::Delta, delta.clone());
        let index = SliceIndex::default();
        let key = [Value::Long(1)];
        assert_eq!(
            via_index(&index, &delta, &[0], &key),
            via_scan(&reference, &[0], &key)
        );
        let from_temp = via_index(&index, &temp, &[0], &key);
        assert_eq!(
            from_temp,
            temp.iter().map(|(t, m)| (t.clone(), m)).collect::<Rows>()
        );
    }
}
