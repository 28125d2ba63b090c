//! Record pools: the multi-indexed in-memory structure the paper uses for
//! dynamic materialized views (Section 5.2, Figure 6).
//!
//! A record pool stores fixed-format records (key tuple + aggregate value)
//! in a slab that recycles free slots, with
//!
//! * a **unique hash index** over the full key supporting `get`, `update`,
//!   `insert` and `delete`, and
//! * any number of **non-unique hash indexes** over column subsets supporting
//!   `slice` (iterate all records matching a partial key).
//!
//! Which secondary indexes exist is decided at compile time by the access
//! pattern analysis in `hotdog-ivm` (case (3) of Section 5.1: relational
//! terms with some-but-not-all columns bound become `slice` operations).

use hotdog_algebra::hash::DetMap;
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use std::cell::Cell;
use std::collections::hash_map::Entry;

/// A record: the key tuple plus its multiplicity (aggregate value).
#[derive(Clone, Debug)]
struct Record {
    key: Tuple,
    value: Mult,
}

/// A non-unique hash index over a projection of the key columns.
#[derive(Clone, Debug, Default)]
struct SecondaryIndex {
    /// Positions (within the key tuple) this index is built on.
    positions: Vec<usize>,
    /// Projected key -> slots of matching records.
    buckets: DetMap<Tuple, Vec<usize>>,
}

impl SecondaryIndex {
    fn project(&self, key: &Tuple) -> Tuple {
        key.project(&self.positions)
    }

    fn insert(&mut self, key: &Tuple, slot: usize) {
        self.buckets
            .entry(self.project(key))
            .or_default()
            .push(slot);
    }

    fn remove(&mut self, key: &Tuple, slot: usize) {
        let pk = self.project(key);
        if let Some(v) = self.buckets.get_mut(&pk) {
            if let Some(pos) = v.iter().position(|&s| s == slot) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                self.buckets.remove(&pk);
            }
        }
    }
}

/// Operation counters for a pool; these stand in for the hardware counters
/// of the paper's cache-locality experiment (Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub lookups: u64,
    pub slices: u64,
    pub scans: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub slots_touched: u64,
}

impl PoolCounters {
    pub fn add(&mut self, o: &PoolCounters) {
        self.lookups += o.lookups;
        self.slices += o.slices;
        self.scans += o.scans;
        self.inserts += o.inserts;
        self.updates += o.updates;
        self.deletes += o.deletes;
        self.slots_touched += o.slots_touched;
    }

    /// Total index probe count — a proxy for last-level-cache references.
    pub fn probes(&self) -> u64 {
        self.lookups + self.slices + self.inserts + self.updates + self.deletes
    }
}

/// A multi-indexed record pool storing one materialized view.
#[derive(Clone, Debug, Default)]
pub struct RecordPool {
    arity: usize,
    slots: Vec<Option<Record>>,
    free: Vec<usize>,
    primary: DetMap<Tuple, usize>,
    secondary: Vec<SecondaryIndex>,
    counters: Cell<PoolCounters>,
}

impl RecordPool {
    /// Create an empty pool for records of the given arity.
    pub fn new(arity: usize) -> Self {
        RecordPool {
            arity,
            ..Default::default()
        }
    }

    /// Create a pool and declare the secondary (non-unique) indexes it should
    /// maintain, each given as the key-column positions it covers.
    pub fn with_secondary_indexes(arity: usize, indexes: &[Vec<usize>]) -> Self {
        let mut pool = RecordPool::new(arity);
        for positions in indexes {
            pool.add_secondary_index(positions.clone());
        }
        pool
    }

    /// Add a non-unique index over the given key positions.  Existing records
    /// are indexed immediately.
    pub fn add_secondary_index(&mut self, positions: Vec<usize>) {
        // Avoid duplicate indexes over the same positions.
        if self.secondary.iter().any(|ix| ix.positions == positions) {
            return;
        }
        let mut ix = SecondaryIndex {
            positions,
            buckets: DetMap::default(),
        };
        for (slot, rec) in self.slots.iter().enumerate() {
            if let Some(rec) = rec {
                ix.insert(&rec.key, slot);
            }
        }
        self.secondary.push(ix);
    }

    /// Positions covered by each secondary index (for introspection/tests).
    pub fn secondary_index_specs(&self) -> Vec<Vec<usize>> {
        self.secondary
            .iter()
            .map(|ix| ix.positions.clone())
            .collect()
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }

    /// Capacity of the underlying slab (live + free slots).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn bump(&self, f: impl FnOnce(&mut PoolCounters)) {
        let mut c = self.counters.get();
        f(&mut c);
        self.counters.set(c);
    }

    /// Snapshot of the operation counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters.get()
    }

    /// Reset the operation counters.
    pub fn reset_counters(&self) {
        self.counters.set(PoolCounters::default());
    }

    /// Multiplicity stored for `key` (0 when absent).
    pub fn get(&self, key: &Tuple) -> Mult {
        self.bump(|c| {
            c.lookups += 1;
            c.slots_touched += 1;
        });
        self.primary
            .get(key)
            .and_then(|&slot| self.slots[slot].as_ref())
            .map(|r| r.value)
            .unwrap_or(0.0)
    }

    /// Whether a record for `key` exists.
    pub fn contains(&self, key: &Tuple) -> bool {
        self.primary.contains_key(key)
    }

    /// Add `delta` to the multiplicity of `key`, inserting a fresh record or
    /// deleting one whose multiplicity reaches zero.  This is the `+=` of the
    /// maintenance triggers.
    pub fn update(&mut self, key: Tuple, delta: Mult) {
        debug_assert_eq!(key.arity(), self.arity, "key arity mismatch");
        if delta == 0.0 {
            return;
        }
        self.bump(|c| c.updates += 1);
        // One hash: the entry serves the lookup and the insert or removal.
        match self.primary.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                let rec = self.slots[slot].as_mut().expect("dangling primary entry");
                rec.value += delta;
                if rec.value.abs() < MULT_EPSILON {
                    e.remove();
                    self.release(slot);
                }
            }
            Entry::Vacant(e) => {
                let key = e.key().clone();
                let slot = self.free.pop().unwrap_or(self.slots.len());
                e.insert(slot);
                self.fill(slot, key, delta);
            }
        }
    }

    /// Set the multiplicity of `key` to exactly `value` (the `:=` of local
    /// delta views), removing the record when the value is zero.
    pub fn set(&mut self, key: Tuple, value: Mult) {
        if value.abs() < MULT_EPSILON {
            self.delete(&key);
        } else if let Some(&slot) = self.primary.get(&key) {
            self.bump(|c| c.updates += 1);
            self.slots[slot]
                .as_mut()
                .expect("dangling primary entry")
                .value = value;
        } else {
            self.insert(key, value);
        }
    }

    fn insert(&mut self, key: Tuple, value: Mult) {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        self.primary.insert(key.clone(), slot);
        self.fill(slot, key, value);
    }

    /// Store a new record in `slot` (a popped free slot, or one past the
    /// end of the slab) and index it; the primary entry is the caller's.
    fn fill(&mut self, slot: usize, key: Tuple, value: Mult) {
        self.bump(|c| {
            c.inserts += 1;
            c.slots_touched += 1;
        });
        for ix in &mut self.secondary {
            ix.insert(&key, slot);
        }
        let rec = Some(Record { key, value });
        if slot == self.slots.len() {
            self.slots.push(rec);
        } else {
            self.slots[slot] = rec;
        }
    }

    /// Remove the record for `key` (no-op when absent).
    pub fn delete(&mut self, key: &Tuple) {
        if let Some(slot) = self.primary.remove(key) {
            self.release(slot);
        }
    }

    /// Unindex and free the record in `slot`, whose primary entry is
    /// already gone.
    fn release(&mut self, slot: usize) {
        self.bump(|c| {
            c.deletes += 1;
            c.slots_touched += 1;
        });
        let rec = self.slots[slot]
            .take()
            .expect("released slot holds a record");
        for ix in &mut self.secondary {
            ix.remove(&rec.key, slot);
        }
        self.free.push(slot);
    }

    /// Remove every record but keep allocated capacity and indexes.
    pub fn clear(&mut self) {
        self.primary.clear();
        for ix in &mut self.secondary {
            ix.buckets.clear();
        }
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            *s = None;
            self.free.push(i);
        }
    }

    /// Iterate over all live records.
    pub fn foreach(&self, f: &mut dyn FnMut(&Tuple, Mult)) {
        self.bump(|c| {
            c.scans += 1;
            c.slots_touched += self.primary.len() as u64;
        });
        for rec in self.slots.iter().flatten() {
            f(&rec.key, rec.value);
        }
    }

    /// Iterate over records whose key columns at `positions` equal
    /// `key_vals`, and return how many records were touched.  Uses a
    /// matching secondary index when available (touching the bucket) and
    /// falls back to a filtered scan otherwise (touching every record).
    pub fn slice(
        &self,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&Tuple, Mult),
    ) -> usize {
        if let Some(ix) = self.secondary.iter().find(|ix| ix.positions == positions) {
            let slots = ix.buckets.get(key_vals).map_or(&[][..], Vec::as_slice);
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += slots.len() as u64;
            });
            for &slot in slots {
                if let Some(rec) = &self.slots[slot] {
                    f(&rec.key, rec.value);
                }
            }
            slots.len()
        } else {
            // Unindexed slice: filtered scan.
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += self.primary.len() as u64;
            });
            for rec in self.slots.iter().flatten() {
                if positions
                    .iter()
                    .zip(key_vals)
                    .all(|(&p, v)| rec.key.get(p) == v)
                {
                    f(&rec.key, rec.value);
                }
            }
            self.primary.len()
        }
    }

    /// Whether a secondary index over exactly these positions exists.
    pub fn has_secondary_index(&self, positions: &[usize]) -> bool {
        self.secondary.iter().any(|ix| ix.positions == positions)
    }

    /// Deterministically ordered contents (tests, debugging, result output).
    pub fn sorted(&self) -> Vec<(Tuple, Mult)> {
        let mut v: Vec<(Tuple, Mult)> = self
            .slots
            .iter()
            .flatten()
            .map(|r| (r.key.clone(), r.value))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Total approximate memory footprint in bytes of the live records.
    pub fn payload_bytes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|r| r.key.serialized_size() + 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::tuple;

    #[test]
    fn update_inserts_accumulates_and_deletes() {
        let mut p = RecordPool::new(2);
        p.update(tuple![1, 2], 1.0);
        p.update(tuple![1, 2], 2.0);
        assert_eq!(p.get(&tuple![1, 2]), 3.0);
        assert_eq!(p.len(), 1);
        p.update(tuple![1, 2], -3.0);
        assert_eq!(p.len(), 0);
        assert_eq!(p.get(&tuple![1, 2]), 0.0);
    }

    #[test]
    fn free_slots_are_recycled() {
        let mut p = RecordPool::new(1);
        p.update(tuple![1], 1.0);
        p.update(tuple![2], 1.0);
        p.delete(&tuple![1]);
        let cap = p.capacity();
        p.update(tuple![3], 1.0);
        assert_eq!(p.capacity(), cap, "deleted slot should be reused");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn secondary_index_slices() {
        let mut p = RecordPool::with_secondary_indexes(2, &[vec![1]]);
        p.update(tuple![1, 10], 1.0);
        p.update(tuple![2, 10], 2.0);
        p.update(tuple![3, 20], 3.0);
        let mut seen = Vec::new();
        p.slice(&[1], &[Value::Long(10)], &mut |t, m| {
            seen.push((t.clone(), m));
        });
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1 + seen[1].1, 3.0);
        // slice through the index must not scan all slots
        assert!(p.counters().slots_touched < 10);
    }

    #[test]
    fn unindexed_slice_falls_back_to_scan() {
        let mut p = RecordPool::new(2);
        p.update(tuple![1, 10], 1.0);
        p.update(tuple![2, 20], 1.0);
        let mut count = 0;
        let touched = p.slice(&[0], &[Value::Long(2)], &mut |_, _| count += 1);
        assert_eq!(count, 1);
        assert_eq!(touched, 2, "a filtered scan touches every record");
    }

    #[test]
    fn slice_probe_finds_the_bucket_a_tuple_key_finds() {
        let mut p = RecordPool::with_secondary_indexes(3, &[vec![2, 0]]);
        for i in 0..30i64 {
            p.update(tuple![i % 4, i, i % 3], 1.0);
        }
        let ix = &p.secondary[0];
        for a in 0..5i64 {
            for c in 0..4i64 {
                let key_vals = [Value::Long(c), Value::Long(a)];
                let by_tuple = ix.buckets.get(&Tuple(key_vals.to_vec()));
                let by_slice = ix.buckets.get(&key_vals[..]);
                assert_eq!(by_tuple, by_slice, "key ({c}, {a})");
                assert_eq!(by_tuple.is_some(), a < 4 && c < 3);
            }
        }
        // Cross-variant numeric keys hash alike either way too.
        let as_double = [Value::Double(1.0), Value::Long(1)];
        assert_eq!(
            ix.buckets.get(&as_double[..]),
            ix.buckets.get(&tuple![1, 1])
        );
        assert!(ix.buckets.contains_key(&as_double[..]));
    }

    #[test]
    fn secondary_index_stays_consistent_under_deletes() {
        let mut p = RecordPool::with_secondary_indexes(2, &[vec![1]]);
        for i in 0..100i64 {
            p.update(tuple![i, i % 5], 1.0);
        }
        for i in (0..100i64).step_by(2) {
            p.update(tuple![i, i % 5], -1.0);
        }
        let mut count = 0;
        p.slice(&[1], &[Value::Long(3)], &mut |_, _| count += 1);
        // keys with i % 5 == 3 and i odd: 3, 13, 23, ..., 93 -> 10
        assert_eq!(count, 10);
        assert_eq!(p.len(), 50);
    }

    #[test]
    fn set_overwrites_value() {
        let mut p = RecordPool::new(1);
        p.set(tuple![1], 5.0);
        p.set(tuple![1], 2.0);
        assert_eq!(p.get(&tuple![1]), 2.0);
        p.set(tuple![1], 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn foreach_visits_all_live_records() {
        let mut p = RecordPool::new(1);
        for i in 0..10i64 {
            p.update(tuple![i], 1.0);
        }
        p.delete(&tuple![4]);
        let mut n = 0;
        p.foreach(&mut |_, _| n += 1);
        assert_eq!(n, 9);
    }

    #[test]
    fn adding_index_indexes_existing_records() {
        let mut p = RecordPool::new(2);
        p.update(tuple![1, 7], 1.0);
        p.update(tuple![2, 7], 1.0);
        p.add_secondary_index(vec![1]);
        assert!(p.has_secondary_index(&[1]));
        let mut n = 0;
        p.slice(&[1], &[Value::Long(7)], &mut |_, _| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn duplicate_index_specs_are_ignored() {
        let mut p = RecordPool::new(2);
        p.add_secondary_index(vec![0]);
        p.add_secondary_index(vec![0]);
        assert_eq!(p.secondary_index_specs().len(), 1);
    }

    #[test]
    fn counters_track_operations() {
        let mut p = RecordPool::new(1);
        p.update(tuple![1], 1.0);
        p.get(&tuple![1]);
        p.foreach(&mut |_, _| {});
        let c = p.counters();
        assert_eq!(c.inserts, 1);
        assert_eq!(c.lookups, 1);
        assert_eq!(c.scans, 1);
        assert!(c.probes() >= 2);
        p.reset_counters();
        assert_eq!(p.counters(), PoolCounters::default());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut p = RecordPool::new(1);
        for i in 0..16i64 {
            p.update(tuple![i], 1.0);
        }
        let cap = p.capacity();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.capacity(), cap);
        p.update(tuple![1], 1.0);
        assert_eq!(p.len(), 1);
    }
}
