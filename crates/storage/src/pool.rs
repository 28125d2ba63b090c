//! Record pools: the multi-indexed in-memory structure the paper uses for
//! dynamic materialized views (Section 5.2, Figure 6).
//!
//! A record pool stores fixed-format records (key columns + aggregate
//! value) in one value slab that recycles free slots: slot `s`'s key is
//! `values[s·arity .. (s+1)·arity]` and its multiplicity `mults[s]`, so a
//! record is no allocation of its own.  Each record's key lives in exactly
//! one place, its slot; the pool's hash indexes hold slot ids, keyed by a
//! 64-bit hash of the indexed columns, and never own, clone or re-hash a
//! key:
//!
//! * the **unique index** covers the full key and supports `get`,
//!   `update`, `set` and `delete`;
//! * any number of **non-unique indexes** over column subsets support
//!   `slice` (iterate all records matching a partial key).
//!
//! Every index is a [`HashIndex`]: a table from a hash to the first and
//! last slot of a chain linked through a per-slot array, so a chain
//! allocates nothing (a unique index's chains hold one record each and
//! never link unless two keys' hashes collide).  A probe hashes its key
//! once and confirms the hit against the chain's head's stored key, or
//! against every member once a collision has mixed two keys in a chain, so
//! colliding keys still get exact answers.
//!
//! Which secondary indexes exist is decided at compile time by the access
//! pattern analysis in `hotdog-ivm` (case (3) of Section 5.1: relational
//! terms with some-but-not-all columns bound become `slice` operations).
//!
//! # Order contract
//!
//! Scan and slice order feed floating-point accumulation downstream, so
//! they are part of the pool's behaviour (the crate's order-model property
//! test pins every rule):
//!
//! * `foreach` and an unindexed `slice` visit live records in slot order;
//! * a new record takes the most recently freed slot, else one past the
//!   end; `clear` frees every slot so that the highest is reused first;
//! * an indexed `slice` visits its key's records in vector order: an
//!   insert appends to them, a removal swap-removes from them (the key's
//!   last record takes the removed one's place);
//! * a record keeps the key it was first inserted with (`Long(1)` and
//!   `Double(1.0)` are one key), and goes when the magnitude of its
//!   multiplicity drops below [`MULT_EPSILON`].

#[cfg(test)]
pub(crate) use crate::index::HASH_MASK;
use crate::index::{agrees, hash_at, hash_values, same_at, HashIndex};
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use std::cell::Cell;
use std::mem::size_of;

/// The multiplicity of a free slot.  No record holds it: a record goes
/// once its magnitude drops below [`MULT_EPSILON`].
const FREE: Mult = 0.0;

/// What a free slot's key columns hold, so that no value (and no string a
/// value shares) outlives its record.
const VACANT: Value = Value::Long(0);

/// A key's hash in the unique index, which covers every column in order
/// (a key of the wrong arity hashes too, and is found nowhere).
fn key_hash(key: &[Value]) -> u64 {
    hash_values(key.iter())
}

/// Every record of a pool: slot `s` holds the key
/// `values[s·arity .. (s+1)·arity]` and the multiplicity `mults[s]`, which
/// is [`FREE`] when the slot is.
#[derive(Clone, Debug, Default)]
struct Slab {
    arity: usize,
    values: Vec<Value>,
    mults: Vec<Mult>,
}

impl Slab {
    /// Number of slots, live and free.
    fn slots(&self) -> usize {
        self.mults.len()
    }

    fn key(&self, slot: u32) -> &[Value] {
        let start = slot as usize * self.arity;
        &self.values[start..start + self.arity]
    }

    /// Live slots with their keys and multiplicities, in slot order.
    fn live(&self) -> impl Iterator<Item = (u32, &[Value], Mult)> {
        (self.mults.iter().enumerate())
            .filter(|&(_, &m)| m != FREE)
            .map(|(slot, &m)| (slot as u32, self.key(slot as u32), m))
    }

    /// Store `key` and `value` in `slot`, a free slot or one past the end,
    /// moving the key's values in.  A key of another arity would shift
    /// every later slot, so it panics.
    fn put(&mut self, slot: u32, key: Tuple, value: Mult) {
        assert_eq!(key.arity(), self.arity, "key arity mismatch");
        let key = key.0.into_vec();
        if slot as usize == self.slots() {
            self.values.extend(key);
            self.mults.push(value);
        } else {
            let start = slot as usize * self.arity;
            for (col, v) in self.values[start..start + self.arity].iter_mut().zip(key) {
                *col = v;
            }
            self.mults[slot as usize] = value;
        }
    }

    /// Free `slot`, dropping its key's values.
    fn vacate(&mut self, slot: u32) {
        let start = slot as usize * self.arity;
        self.values[start..start + self.arity].fill(VACANT);
        self.mults[slot as usize] = FREE;
    }
}

/// A non-unique index over the key columns at `positions`.
#[derive(Clone, Debug, Default)]
struct Secondary {
    positions: Vec<usize>,
    index: HashIndex,
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
    slab: Slab,
    /// Free slots, reused last-in first-out.
    free: Vec<u32>,
    /// The unique index, over every key column.
    primary: HashIndex,
    secondary: Vec<Secondary>,
    counters: Cell<PoolCounters>,
}

impl RecordPool {
    /// Create an empty pool for records of the given arity.
    pub fn new(arity: usize) -> Self {
        RecordPool {
            slab: Slab {
                arity,
                ..Default::default()
            },
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
    /// are indexed immediately, in slot order.
    pub fn add_secondary_index(&mut self, positions: Vec<usize>) {
        // Avoid duplicate indexes over the same positions.
        if self.has_secondary_index(&positions) {
            return;
        }
        let mut index = HashIndex::default();
        for (slot, key, _) in self.slab.live() {
            let same = |s| same_at(&positions, self.slab.key(s), key);
            index.insert(hash_at(&positions, key), slot, same);
        }
        self.secondary.push(Secondary { positions, index });
    }

    /// Positions covered by each secondary index (for introspection/tests).
    pub fn secondary_index_specs(&self) -> Vec<Vec<usize>> {
        self.secondary
            .iter()
            .map(|ix| ix.positions.clone())
            .collect()
    }

    pub fn arity(&self) -> usize {
        self.slab.arity
    }

    /// Number of live records: every slot not on the free list.
    pub fn len(&self) -> usize {
        self.slab.slots() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of the underlying slab (live + free slots).
    pub fn capacity(&self) -> usize {
        self.slab.slots()
    }

    /// Heap bytes the pool holds, computed from the lengths and capacities
    /// of its slab, free list and indexes (hash tables by std's layout).
    /// Strings are counted by their 16-byte `Value`, not their text, which
    /// other tuples may share.
    pub fn heap_bytes(&self) -> usize {
        self.slab.values.capacity() * size_of::<Value>()
            + self.slab.mults.capacity() * size_of::<Mult>()
            + self.free.capacity() * size_of::<u32>()
            + self.primary.heap_bytes()
            + self.secondary.capacity() * size_of::<Secondary>()
            + (self.secondary.iter())
                .map(|ix| ix.positions.capacity() * size_of::<usize>() + ix.index.heap_bytes())
                .sum::<usize>()
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

    /// Slot of the record keyed `key`, whose hash is `h`.
    fn find(&self, h: u64, key: &[Value]) -> Option<u32> {
        self.primary.find(h, |s| self.slab.key(s) == key).next()
    }

    /// Multiplicity stored for `key` (0 when absent).
    pub fn get(&self, key: &[Value]) -> Mult {
        self.bump(|c| {
            c.lookups += 1;
            c.slots_touched += 1;
        });
        self.find(key_hash(key), key)
            .map_or(0.0, |slot| self.slab.mults[slot as usize])
    }

    /// Whether a record for `key` exists.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.find(key_hash(key), key).is_some()
    }

    /// Add `delta` to the multiplicity of `key`, inserting a fresh record or
    /// deleting one whose multiplicity reaches zero.  This is the `+=` of the
    /// maintenance triggers.
    pub fn update(&mut self, key: Tuple, delta: Mult) {
        if delta == 0.0 {
            return;
        }
        self.bump(|c| c.updates += 1);
        let h = key_hash(&key.0);
        match self.find(h, &key.0) {
            Some(slot) => {
                let value = &mut self.slab.mults[slot as usize];
                *value += delta;
                if value.abs() < MULT_EPSILON {
                    self.remove(h, slot);
                }
            }
            None => self.insert(h, key, delta),
        }
    }

    /// Set the multiplicity of `key` to exactly `value` (the `:=` of local
    /// delta views), removing the record when the value is zero.
    pub fn set(&mut self, key: Tuple, value: Mult) {
        let h = key_hash(&key.0);
        let zero = value.abs() < MULT_EPSILON;
        match self.find(h, &key.0) {
            Some(slot) if zero => self.remove(h, slot),
            Some(slot) => {
                self.bump(|c| c.updates += 1);
                self.slab.mults[slot as usize] = value;
            }
            None if zero => {}
            None => self.insert(h, key, value),
        }
    }

    /// Store a new record, whose key hashes to `h`, in the most recently
    /// freed slot (else one past the end of the slab) and index it.
    fn insert(&mut self, h: u64, key: Tuple, value: Mult) {
        self.bump(|c| {
            c.inserts += 1;
            c.slots_touched += 1;
        });
        let slot = self.free.pop().unwrap_or(self.slab.slots() as u32);
        self.slab.put(slot, key, value);
        let (slab, key) = (&self.slab, self.slab.key(slot));
        self.primary.insert(h, slot, |s| slab.key(s) == key);
        for Secondary { positions, index } in &mut self.secondary {
            let same = |s| same_at(positions, slab.key(s), key);
            index.insert(hash_at(positions, key), slot, same);
        }
    }

    /// Remove the record for `key` (no-op when absent).
    pub fn delete(&mut self, key: &[Value]) {
        let h = key_hash(key);
        if let Some(slot) = self.find(h, key) {
            self.remove(h, slot);
        }
    }

    /// Unindex and free the record in `slot`, whose key hashes to `h`.
    fn remove(&mut self, h: u64, slot: u32) {
        self.bump(|c| {
            c.deletes += 1;
            c.slots_touched += 1;
        });
        let (slab, key) = (&self.slab, self.slab.key(slot));
        self.primary.remove(h, slot, |s| slab.key(s) == key);
        for Secondary { positions, index } in &mut self.secondary {
            let same = |s| same_at(positions, slab.key(s), key);
            index.remove(hash_at(positions, key), slot, same);
        }
        self.slab.vacate(slot);
        self.free.push(slot);
    }

    /// Remove every record but keep allocated capacity and indexes.
    pub fn clear(&mut self) {
        self.primary.clear();
        for ix in &mut self.secondary {
            ix.index.clear();
        }
        self.free.clear();
        self.free.extend(0..self.slab.slots() as u32);
        self.slab.values.fill(VACANT);
        self.slab.mults.fill(FREE);
    }

    /// Iterate over all live records.
    pub fn foreach(&self, f: &mut dyn FnMut(&[Value], Mult)) {
        self.bump(|c| {
            c.scans += 1;
            c.slots_touched += self.len() as u64;
        });
        for (_, key, m) in self.slab.live() {
            f(key, m);
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
        f: &mut dyn FnMut(&[Value], Mult),
    ) -> usize {
        if let Some(ix) = self.secondary.iter().find(|ix| ix.positions == positions) {
            let is_key = |s| agrees(positions, self.slab.key(s), key_vals);
            let mut len = 0;
            for slot in ix.index.find(hash_values(key_vals.iter()), is_key) {
                f(self.slab.key(slot), self.slab.mults[slot as usize]);
                len += 1;
            }
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += len as u64;
            });
            len
        } else {
            // Unindexed slice: filtered scan.
            let len = self.len();
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += len as u64;
            });
            for (_, key, m) in self.slab.live() {
                if positions.iter().zip(key_vals).all(|(&p, v)| &key[p] == v) {
                    f(key, m);
                }
            }
            len
        }
    }

    /// Whether a secondary index over exactly these positions exists.
    pub fn has_secondary_index(&self, positions: &[usize]) -> bool {
        self.secondary.iter().any(|ix| ix.positions == positions)
    }

    /// Deterministically ordered contents (tests, debugging, result output).
    pub fn sorted(&self) -> Vec<(Tuple, Mult)> {
        let mut v: Vec<(Tuple, Mult)> = (self.slab.live())
            .map(|(_, key, m)| (Tuple::from(key), m))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::table_bytes;
    use hotdog_algebra::tuple;

    /// A slot is its key's values and one multiplicity in the slab:
    /// 16·arity + 8 bytes, with no allocation or header of its own.
    #[test]
    fn a_slot_is_16_bytes_per_column_plus_8() {
        for arity in 0..5 {
            let mut p = RecordPool::new(arity);
            for i in 0..50i64 {
                p.update(
                    Tuple((0..arity as i64).map(|c| Value::Long(i + c)).collect()),
                    1.0,
                );
            }
            let slab =
                p.slab.values.len() * size_of::<Value>() + p.slab.mults.len() * size_of::<Mult>();
            assert_eq!(slab, p.capacity() * (16 * arity + 8), "arity {arity}");
        }
    }

    /// The unique index is a table of 16-byte entries (a hash and a chain's
    /// two ends) and nothing else: for N keys, a pool's heap bytes are its
    /// slab plus the table std builds for N such entries.
    #[test]
    fn the_unique_index_holds_16_bytes_per_table_entry() {
        for n in [1u32, 7, 8, 100, 1000] {
            let mut p = RecordPool::new(1);
            let mut table = hotdog_algebra::hash::DetMap::<u64, (u32, u32)>::default();
            for i in 0..n {
                p.update(tuple![i64::from(i)], 1.0);
                table.insert(i.into(), (i, i));
            }
            let slab = p.slab.values.capacity() * 16 + p.slab.mults.capacity() * 8;
            assert_eq!(p.heap_bytes(), slab + table_bytes(&table), "{n} keys");
        }
    }

    /// A freed slot holds no clone of its key: after `delete`, `set(…, 0.0)`
    /// and `clear`, the only reference to a key's string is the caller's.
    #[test]
    fn a_freed_slot_drops_its_key() {
        let s = std::sync::Arc::new("x".to_string());
        let key = || Tuple::from(vec![Value::Long(1), Value::Str(s.clone())]);
        let mut p = RecordPool::with_secondary_indexes(2, &[vec![1]]);
        p.update(key(), 1.0);
        assert_eq!(std::sync::Arc::strong_count(&s), 2);
        p.delete(&key().0);
        assert_eq!(std::sync::Arc::strong_count(&s), 1, "delete");
        p.update(key(), 1.0);
        p.set(key(), 0.0);
        assert_eq!(std::sync::Arc::strong_count(&s), 1, "set to 0");
        p.update(key(), 1.0);
        p.update(tuple![2, "y"], 1.0);
        p.clear();
        assert_eq!(std::sync::Arc::strong_count(&s), 1, "clear");
        assert!(p.is_empty());
    }

    #[test]
    fn update_inserts_accumulates_and_deletes() {
        let mut p = RecordPool::new(2);
        p.update(tuple![1, 2], 1.0);
        p.update(tuple![1, 2], 2.0);
        assert_eq!(p.get(&tuple![1, 2].0), 3.0);
        assert_eq!(p.len(), 1);
        p.update(tuple![1, 2], -3.0);
        assert_eq!(p.len(), 0);
        assert_eq!(p.get(&tuple![1, 2].0), 0.0);
    }

    #[test]
    fn free_slots_are_recycled() {
        let mut p = RecordPool::new(1);
        p.update(tuple![1], 1.0);
        p.update(tuple![2], 1.0);
        p.delete(&tuple![1].0);
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
            seen.push((Tuple::from(t), m));
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
    fn cross_variant_probes_find_the_same_records() {
        let mut p = RecordPool::with_secondary_indexes(3, &[vec![2, 0]]);
        for i in 0..30i64 {
            p.update(tuple![i % 4, i, i % 3], 1.0);
        }
        let slice = |key_vals: &[Value]| {
            let mut rows = Vec::new();
            let touched = p.slice(&[2, 0], key_vals, &mut |t, m| {
                rows.push((Tuple::from(t), m))
            });
            (rows, touched)
        };
        for a in 0..5i64 {
            for c in 0..4i64 {
                let (rows, touched) = slice(&[Value::Long(c), Value::Long(a)]);
                assert_eq!(rows.len(), touched);
                assert_eq!(rows.is_empty(), a >= 4 || c >= 3, "key ({c}, {a})");
            }
        }
        // A `Double` probe emits the records a `Long` probe of equal value
        // emits, in the same order.
        let by_long = slice(&[Value::Long(1), Value::Long(1)]);
        assert!(!by_long.0.is_empty());
        assert_eq!(slice(&[Value::Double(1.0), Value::Long(1)]), by_long);
        assert_eq!(slice(&[Value::Double(1.0), Value::Double(1.0)]), by_long);
        assert_eq!(p.get(&tuple![1.0, 1, 1.0].0), p.get(&tuple![1, 1, 1].0));
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
    fn a_key_of_the_wrong_arity_is_found_nowhere() {
        let mut p = RecordPool::new(2);
        p.update(tuple![1, 2], 1.0);
        assert_eq!(p.get(&tuple![1].0), 0.0);
        assert!(!p.contains(&tuple![1, 2, 3].0));
        p.delete(&tuple![1].0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn set_overwrites_value() {
        let mut p = RecordPool::new(1);
        p.set(tuple![1], 5.0);
        p.set(tuple![1], 2.0);
        assert_eq!(p.get(&tuple![1].0), 2.0);
        p.set(tuple![1], 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn foreach_visits_all_live_records() {
        let mut p = RecordPool::new(1);
        for i in 0..10i64 {
            p.update(tuple![i], 1.0);
        }
        p.delete(&tuple![4].0);
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
        p.get(&tuple![1].0);
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
