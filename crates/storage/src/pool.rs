//! Record pools: the multi-indexed in-memory structure the paper uses for
//! dynamic materialized views (Section 5.2, Figure 6).
//!
//! A record pool stores fixed-format records (key columns + aggregate
//! value) in one value slab that recycles free slots: slot `s`'s key is
//! `values[s·arity .. (s+1)·arity]` and its multiplicity `mults[s]`, so a
//! record is no allocation of its own.  Each record's key lives in exactly
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
use std::mem::size_of;

/// No slot or bucket: the end of a bucket chain, or no predecessor.
const NIL: u32 = u32::MAX;

/// The multiplicity of a free slot.  No record holds it: a record goes
/// once its magnitude drops below [`MULT_EPSILON`].
const FREE: Mult = 0.0;

/// What a free slot's key columns hold, so that no value (and no string a
/// value shares) outlives its record.
const VACANT: Value = Value::Long(0);

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

/// Heap bytes of a hash table, from its capacity by std's (hashbrown's)
/// layout: a power-of-two number of buckets filled to at most 7/8 (to all
/// but one below 8 buckets), each an entry and a control byte, plus one
/// 16-byte group of trailing control bytes.
fn table_bytes<K, V>(map: &DetMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => return 0,
        cap if cap < 8 => cap + 1,
        cap => cap / 7 * 8,
    };
    buckets * (size_of::<(K, V)>() + 1) + 16
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

    fn hash(&self, key: &[Value]) -> u64 {
        hash_values(self.positions.iter().map(|&p| &key[p]))
    }

    /// The bucket of the records whose indexed columns equal `key_vals`,
    /// whose hash is `h`.
    fn find(&self, slab: &Slab, h: u64, key_vals: &[Value]) -> Option<&Bucket> {
        if key_vals.len() != self.positions.len() {
            return None;
        }
        let matches = |b: &Bucket| {
            let member = slab.key(b.first);
            (self.positions.iter().zip(key_vals)).all(|(&p, v)| &member[p] == v)
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

    /// Append `slot`, whose record has key `key` (hash `h`) and is not yet
    /// indexed here, to its bucket.
    fn insert(&mut self, slab: &Slab, h: u64, key: &[Value], slot: u32) {
        let same = |b: &Bucket| {
            let member = slab.key(b.first);
            self.positions.iter().all(|&p| member[p] == key[p])
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

    /// Heap bytes this index holds (see [`RecordPool::heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        self.positions.capacity() * size_of::<usize>()
            + table_bytes(&self.buckets)
            + self.overflow.capacity() * size_of::<Bucket>()
            + (self.free.capacity() + self.links.capacity()) * size_of::<u32>()
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
    slab: Slab,
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
            slab: Slab {
                arity,
                ..Default::default()
            },
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
        for (slot, key, _) in self.slab.live() {
            ix.insert(&self.slab, ix.hash(key), key, slot);
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
            + self.secondary.capacity() * size_of::<Index>()
            + self.secondary.iter().map(Index::heap_bytes).sum::<usize>()
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
        let bucket = self.primary.find(&self.slab, h, key)?;
        Some(bucket.first)
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
        let key = self.slab.key(slot);
        self.primary.insert(&self.slab, h, key, slot);
        for ix in &mut self.secondary {
            ix.insert(&self.slab, ix.hash(key), key, slot);
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
        self.primary.remove(h, slot);
        let key = self.slab.key(slot);
        for ix in &mut self.secondary {
            ix.remove(ix.hash(key), slot);
        }
        self.slab.vacate(slot);
        self.free.push(slot);
    }

    /// Remove every record but keep allocated capacity and indexes.
    pub fn clear(&mut self) {
        self.primary.clear();
        for ix in &mut self.secondary {
            ix.clear();
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
            let bucket = ix.find(&self.slab, hash_values(key_vals.iter()), key_vals);
            let len = bucket.map_or(0, |b| b.len as usize);
            self.bump(|c| {
                c.slices += 1;
                c.slots_touched += len as u64;
            });
            for slot in bucket.into_iter().flat_map(|b| ix.members(b)) {
                f(self.slab.key(slot), self.slab.mults[slot as usize]);
            }
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
