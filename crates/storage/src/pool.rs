//! Record pools: the multi-indexed in-memory structure the paper uses for
//! dynamic materialized views (Section 5.2, Figure 6).
//!
//! A record pool stores fixed-format records (key tuple + aggregate value)
//! in a slab that recycles free slots.  Each record's key lives in exactly
//! one place, its slot; the pool's hash indexes hold slot ids, keyed by a
//! 64-bit [`FoldHasher`] hash of the indexed columns, and never own, clone
//! or re-hash a key:
//!
//! * the **unique index** covers the full key and supports `get`,
//!   `update`, `set` and `delete`;
//! * any number of **non-unique indexes** over column subsets support
//!   `slice` (iterate all records matching a partial key).
//!
//! An index maps a hash to a bucket: the first and last slot of a list
//! linked through a per-slot array of the index, so a bucket allocates
//! nothing (a unique index's buckets hold one record each and never link).
//! A probe hashes its key once and confirms the hit against the first
//! member's stored key; buckets whose hashes collide are chained, so
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
//! * an indexed `slice` visits its bucket in order: an insert appends to
//!   the bucket, a removal swap-removes from it;
//! * a record keeps the key it was first inserted with (`Long(1)` and
//!   `Double(1.0)` are one key), and goes when the magnitude of its
//!   multiplicity drops below [`MULT_EPSILON`].

use hotdog_algebra::hash::{DetMap, FoldHasher};
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// No slot or bucket: the end of a bucket chain, or no predecessor.
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Bits of every index hash that are kept: tests narrow it to force
    /// 64-bit hash collisions.
    pub(crate) static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// An index hash: of a key's indexed columns, or of a probe's values.
fn hash_values<'v>(values: impl ExactSizeIterator<Item = &'v Value>) -> u64 {
    let mut h = FoldHasher::default();
    h.write_usize(values.len());
    for v in values {
        v.hash(&mut h);
    }
    #[cfg(test)]
    return h.finish() & HASH_MASK.with(Cell::get);
    #[cfg(not(test))]
    h.finish()
}

/// A key's hash in the unique index, which covers every column in order
/// (a key of the wrong arity hashes too, and is found nowhere).
fn key_hash(key: &[Value]) -> u64 {
    hash_values(key.iter())
}

/// A record: the key tuple plus its multiplicity (aggregate value).
#[derive(Clone, Debug)]
struct Record {
    key: Tuple,
    value: Mult,
}

/// The record an index points at.
fn record(slots: &[Option<Record>], slot: u32) -> &Record {
    slots[slot as usize]
        .as_ref()
        .expect("an indexed slot holds a record")
}

/// The records that agree on an index's columns: `len` slots from `first`
/// to `last`, linked through the index's `links`.  Bucket order is kept as
/// one vector would keep it: an insert appends, a removal swap-removes
/// (the last member takes the removed one's place).  Only members other
/// than the last are linked.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    first: u32,
    last: u32,
    len: u32,
    /// Next bucket (in the index's `overflow`) with the same hash.
    next: u32,
}

impl Bucket {
    fn new(slot: u32, next: u32) -> Self {
        Bucket {
            first: slot,
            last: slot,
            len: 1,
            next,
        }
    }

    fn push(&mut self, links: &mut Vec<u32>, slot: u32) {
        // Every member of a bucket of two or more has a link entry.
        let need = self.last.max(slot) as usize + 1;
        if links.len() < need {
            links.resize(need, NIL);
        }
        links[self.last as usize] = slot;
        self.last = slot;
        self.len += 1;
    }

    /// Swap-remove `slot`: `None` when it is not a member, else whether the
    /// bucket is now empty.
    fn remove(&mut self, links: &mut [u32], slot: u32) -> Option<bool> {
        // One walk finds the member before `slot` and the one before `last`.
        let (mut before_slot, mut prev, mut cur) = (None, NIL, self.first);
        while cur != self.last {
            if cur == slot {
                before_slot = Some(prev);
            }
            (prev, cur) = (cur, links[cur as usize]);
        }
        if slot == self.last {
            if prev == NIL {
                return Some(true);
            }
            self.last = prev;
        } else {
            let before_slot = before_slot?;
            let last = self.last;
            if links[slot as usize] != last {
                links[last as usize] = links[slot as usize];
                self.last = prev;
            }
            match before_slot {
                NIL => self.first = last,
                before => links[before as usize] = last,
            }
        }
        self.len -= 1;
        Some(false)
    }
}

/// A hash index over the key columns at `positions`: the pool's unique
/// index covers every column, a secondary index some.
#[derive(Clone, Debug, Default)]
struct Index {
    positions: Vec<usize>,
    /// Hash -> the first bucket with that hash.
    buckets: DetMap<u64, Bucket>,
    /// Buckets whose hash a bucket in `buckets` already has, chained from
    /// it (64-bit collisions only).
    overflow: Vec<Bucket>,
    /// Ids of emptied overflow buckets, reused last-in first-out.
    free: Vec<u32>,
    /// Per slot: the next member of its record's bucket.
    links: Vec<u32>,
}

impl Index {
    fn over(positions: Vec<usize>) -> Self {
        Index {
            positions,
            ..Default::default()
        }
    }

    fn hash(&self, key: &Tuple) -> u64 {
        hash_values(self.positions.iter().map(|&p| key.get(p)))
    }

    /// The bucket of the records whose indexed columns equal `key_vals`,
    /// whose hash is `h`.
    fn find(&self, slots: &[Option<Record>], h: u64, key_vals: &[Value]) -> Option<&Bucket> {
        if key_vals.len() != self.positions.len() {
            return None;
        }
        let matches = |b: &Bucket| {
            let member = &record(slots, b.first).key;
            (self.positions.iter().zip(key_vals)).all(|(&p, v)| member.get(p) == v)
        };
        let mut bucket = self.buckets.get(&h)?;
        while !matches(bucket) {
            if bucket.next == NIL {
                return None;
            }
            bucket = &self.overflow[bucket.next as usize];
        }
        Some(bucket)
    }

    /// The slots of `bucket`'s members, in bucket order.
    fn members<'a>(&'a self, bucket: &Bucket) -> impl Iterator<Item = u32> + 'a {
        let mut slot = bucket.first;
        (0..bucket.len).map(move |i| {
            if i > 0 {
                slot = self.links[slot as usize];
            }
            slot
        })
    }

    /// Append `slot`, whose record has key `key` (hash `h`), to its bucket.
    fn insert(&mut self, slots: &[Option<Record>], h: u64, key: &Tuple, slot: u32) {
        let same = |b: &Bucket| {
            let member = &record(slots, b.first).key;
            self.positions.iter().all(|&p| member.get(p) == key.get(p))
        };
        let head = match self.buckets.entry(h) {
            Entry::Vacant(e) => {
                e.insert(Bucket::new(slot, NIL));
                return;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        if same(head) {
            head.push(&mut self.links, slot);
            return;
        }
        let mut id = head.next;
        while id != NIL {
            let bucket = &mut self.overflow[id as usize];
            if same(bucket) {
                bucket.push(&mut self.links, slot);
                return;
            }
            id = bucket.next;
        }
        let bucket = Bucket::new(slot, head.next);
        head.next = match self.free.pop() {
            Some(id) => {
                self.overflow[id as usize] = bucket;
                id
            }
            None => {
                self.overflow.push(bucket);
                (self.overflow.len() - 1) as u32
            }
        };
    }

    /// Swap-remove `slot`, whose record's hash here is `h`, from its
    /// bucket, and free the bucket if that empties it.
    fn remove(&mut self, h: u64, slot: u32) {
        let Entry::Occupied(mut e) = self.buckets.entry(h) else {
            unreachable!("an indexed record's hash has a bucket");
        };
        let head = e.get_mut();
        match head.remove(&mut self.links, slot) {
            Some(false) => {}
            // The first bucket emptied: its overflow successor takes its
            // place, or the hash goes.
            Some(true) if head.next == NIL => drop(e.remove()),
            Some(true) => {
                let id = head.next;
                *head = self.overflow[id as usize];
                self.free.push(id);
            }
            None => {
                let (mut prev, mut id) = (NIL, head.next);
                loop {
                    let bucket = &mut self.overflow[id as usize];
                    match bucket.remove(&mut self.links, slot) {
                        Some(false) => return,
                        Some(true) => {
                            let next = bucket.next;
                            match prev {
                                NIL => head.next = next,
                                prev => self.overflow[prev as usize].next = next,
                            }
                            self.free.push(id);
                            return;
                        }
                        None => (prev, id) = (id, bucket.next),
                    }
                }
            }
        }
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.overflow.clear();
        self.free.clear();
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
    /// Free slots, reused last-in first-out.
    free: Vec<u32>,
    /// The unique index, over every key column.
    primary: Index,
    secondary: Vec<Index>,
    counters: Cell<PoolCounters>,
}

impl RecordPool {
    /// Create an empty pool for records of the given arity.
    pub fn new(arity: usize) -> Self {
        RecordPool {
            arity,
            primary: Index::over((0..arity).collect()),
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
        let mut ix = Index::over(positions);
        for (slot, rec) in self.slots.iter().enumerate() {
            if let Some(rec) = rec {
                ix.insert(&self.slots, ix.hash(&rec.key), &rec.key, slot as u32);
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

    /// Number of live records: every slot not on the free list.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Slot of the record keyed `key`, whose hash is `h`.
    fn find(&self, h: u64, key: &[Value]) -> Option<u32> {
        let bucket = self.primary.find(&self.slots, h, key)?;
        Some(bucket.first)
    }

    fn value_mut(&mut self, slot: u32) -> &mut Mult {
        let rec = self.slots[slot as usize].as_mut();
        &mut rec.expect("an indexed slot holds a record").value
    }

    /// Multiplicity stored for `key` (0 when absent).
    pub fn get(&self, key: &[Value]) -> Mult {
        self.bump(|c| {
            c.lookups += 1;
            c.slots_touched += 1;
        });
        self.find(key_hash(key), key)
            .map_or(0.0, |slot| record(&self.slots, slot).value)
    }

    /// Whether a record for `key` exists.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.find(key_hash(key), key).is_some()
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
        let h = key_hash(&key.0);
        match self.find(h, &key.0) {
            Some(slot) => {
                let value = self.value_mut(slot);
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
                *self.value_mut(slot) = value;
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
        let slot = self.free.pop().unwrap_or(self.slots.len() as u32);
        self.primary.insert(&self.slots, h, &key, slot);
        for ix in &mut self.secondary {
            ix.insert(&self.slots, ix.hash(&key), &key, slot);
        }
        let rec = Some(Record { key, value });
        if slot as usize == self.slots.len() {
            self.slots.push(rec);
        } else {
            self.slots[slot as usize] = rec;
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
        let rec = self.slots[slot as usize]
            .take()
            .expect("a removed slot holds a record");
        self.primary.remove(h, slot);
        for ix in &mut self.secondary {
            ix.remove(ix.hash(&rec.key), slot);
        }
        self.free.push(slot);
    }

    /// Remove every record but keep allocated capacity and indexes.
    pub fn clear(&mut self) {
        self.primary.clear();
        for ix in &mut self.secondary {
            ix.clear();
        }
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.slots.iter_mut().for_each(|s| *s = None);
    }

    /// Iterate over all live records.
    pub fn foreach(&self, f: &mut dyn FnMut(&Tuple, Mult)) {
        self.bump(|c| {
            c.scans += 1;
            c.slots_touched += self.len() as u64;
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
            let bucket = ix.find(&self.slots, hash_values(key_vals.iter()), key_vals);
            let len = bucket.map_or(0, |b| b.len as usize);
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += len as u64;
            });
            for slot in bucket.into_iter().flat_map(|b| ix.members(b)) {
                let rec = record(&self.slots, slot);
                f(&rec.key, rec.value);
            }
            len
        } else {
            // Unindexed slice: filtered scan.
            let len = self.len();
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += len as u64;
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
            len
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::tuple;

    /// A slot is a 16-byte key header and an 8-byte multiplicity; a free
    /// slot costs no more (the boxed slice's pointer is never null).
    #[test]
    fn a_slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Option<Record>>(), 24);
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
    fn cross_variant_probes_find_the_same_records() {
        let mut p = RecordPool::with_secondary_indexes(3, &[vec![2, 0]]);
        for i in 0..30i64 {
            p.update(tuple![i % 4, i, i % 3], 1.0);
        }
        let slice = |key_vals: &[Value]| {
            let mut rows = Vec::new();
            let touched = p.slice(&[2, 0], key_vals, &mut |t, m| rows.push((t.clone(), m)));
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
