//! Per-statement hash indexes over the in-memory relations a statement
//! slices: the update batch (`Delta` references) and a node's exchange
//! buffers (temps).
//!
//! Record pools keep secondary hash indexes across batches, but deltas and
//! temps are plain [`Relation`]s rebuilt every batch.  Answering each slice
//! of one by scanning and filtering makes a statement that probes the batch
//! once per batch tuple (Q18's nested aggregate on `OK`) cost O(|Δ|²).
//! [`SliceIndex`] instead builds `key values → [(tuple, mult)]` the first
//! time a relation is sliced on a given set of positions, in one pass over
//! [`Relation::iter`], and answers that probe and every later one from the
//! index in O(matches).
//!
//! Each bucket lists its tuples in the relation's iteration order, so a
//! probe emits exactly what the scan-and-filter default of
//! [`Catalog::slice`](hotdog_algebra::eval::Catalog::slice) emits, in the
//! same order: emission order, float accumulation order and every
//! [`EvalCounters`](hotdog_algebra::eval::EvalCounters) field the
//! interpreters set stay unchanged.
//!
//! A catalog owns one `SliceIndex` and is built once per statement.  A
//! statement reads its inputs and writes its result only after evaluation,
//! so no indexed relation changes while its index lives, and nothing needs
//! invalidating.  No index outlives its statement.

use hotdog_algebra::hash::DetMap;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_storage::RecordPool;
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
    pub fn get(&self, key: &Tuple) -> Mult {
        match self {
            Stored::Relation(rel) => rel.get(key),
            Stored::Pool(pool) => pool.get(key),
        }
    }
}

/// Tuples of one relation grouped by their values at some positions.
type Buckets<'a> = DetMap<Tuple, Vec<(&'a Tuple, Mult)>>;

/// A built index: the relation, the positions it groups by, its buckets.
type Built<'a> = (&'a Relation, Vec<usize>, Rc<Buckets<'a>>);

/// One catalog's scan and slice path: relation slices are answered from
/// hash indexes built on first use, and every tuple a scan, slice or index
/// build touches is counted (see `EvalCounters::tuples_touched`).
#[derive(Default)]
pub(crate) struct SliceIndex<'a> {
    /// Every index built so far; a statement slices only a few distinct
    /// (relation, positions) pairs, so a list suffices.
    built: RefCell<Vec<Built<'a>>>,
    touched: Cell<u64>,
}

impl<'a> SliceIndex<'a> {
    /// Iterate over every tuple of `stored`.
    pub fn scan(&self, stored: Stored<'a>, f: &mut dyn FnMut(&Tuple, Mult)) {
        match stored {
            Stored::Relation(rel) => {
                for (t, m) in rel.iter() {
                    f(t, m);
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
        f: &mut dyn FnMut(&Tuple, Mult),
    ) {
        let touched = match stored {
            Stored::Relation(rel) => {
                let buckets = self.buckets(rel, positions);
                let rows = buckets.get(key_vals).map_or(&[][..], Vec::as_slice);
                for &(t, m) in rows {
                    f(t, m);
                }
                rows.len()
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
    fn buckets(&self, rel: &'a Relation, positions: &[usize]) -> Rc<Buckets<'a>> {
        let mut built = self.built.borrow_mut();
        if let Some((_, _, buckets)) = built
            .iter()
            .find(|(r, p, _)| std::ptr::eq(*r, rel) && p == positions)
        {
            return Rc::clone(buckets);
        }
        let mut buckets = Buckets::default();
        for (t, m) in rel.iter() {
            buckets
                .entry(t.project(positions))
                .or_default()
                .push((t, m));
        }
        self.touch(rel.len());
        let buckets = Rc::new(buckets);
        built.push((rel, positions.to_vec(), Rc::clone(&buckets)));
        buckets
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
            rows.push((t.clone(), m))
        });
        rows
    }

    fn via_scan(catalog: &MapCatalog, positions: &[usize], key: &[Value]) -> Rows {
        let mut rows = Vec::new();
        catalog.slice("R", RelKind::Delta, positions, key, &mut |t, m| {
            rows.push((t.clone(), m))
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
