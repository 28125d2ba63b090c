//! The record pool's order contract, pinned by a model.
//!
//! Random `update` / `set` / `delete` / `clear` / `add_secondary_index`
//! sequences, over keys of arity 0 to 4 whose columns are `Long`, `Double`
//! or `Str`, run against a [`RecordPool`] and against [`Model`], a
//! linear-scan statement of the rules every scan order downstream depends
//! on:
//!
//! * records live in slots; `foreach` and an unindexed `slice` visit the
//!   live slots in slot order;
//! * a new record takes the most recently freed slot, else one past the
//!   end; `clear` frees every slot so that the highest is reused first;
//! * an indexed `slice` visits its bucket, the key's records, in order:
//!   an insert appends to the bucket, a removal swap-removes from it (the
//!   pool keeps buckets as [`HashIndex`](crate::HashIndex) chains, which
//!   only a hash collision shares between keys);
//! * a record keeps the key it was first inserted with, and `Long(1)` and
//!   `Double(1.0)` are one key;
//! * a record goes when its multiplicity's magnitude drops below
//!   [`MULT_EPSILON`].
//!
//! After every operation the two must agree exactly on `foreach` order,
//! every indexed and unindexed `slice` order, `get`, `len`, `capacity` and
//! [`PoolCounters`].

use crate::pool::{PoolCounters, RecordPool, HASH_MASK};
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use proptest::prelude::*;

type Rows = Vec<(Tuple, Mult)>;
type Index = (Vec<usize>, Vec<(Vec<Value>, Vec<usize>)>);

#[derive(Default)]
struct Model {
    slots: Vec<Option<(Tuple, Mult)>>,
    free: Vec<usize>,
    /// Per index: its positions and its (projected key, bucket) list.
    indexes: Vec<Index>,
    counters: PoolCounters,
}

fn project(key: &Tuple, positions: &[usize]) -> Vec<Value> {
    positions.iter().map(|&p| key.get(p).clone()).collect()
}

impl Model {
    fn find(&self, key: &Tuple) -> Option<usize> {
        (self.slots.iter()).position(|s| s.as_ref().is_some_and(|(k, _)| k == key))
    }

    fn live(&self) -> impl Iterator<Item = &(Tuple, Mult)> {
        self.slots.iter().flatten()
    }

    fn insert(&mut self, key: Tuple, m: Mult) {
        self.counters.inserts += 1;
        self.counters.slots_touched += 1;
        let slot = self.free.pop().unwrap_or(self.slots.len());
        for (positions, buckets) in &mut self.indexes {
            let pk = project(&key, positions);
            match buckets.iter_mut().find(|(k, _)| *k == pk) {
                Some((_, bucket)) => bucket.push(slot),
                None => buckets.push((pk, vec![slot])),
            }
        }
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[slot] = Some((key, m));
    }

    fn remove(&mut self, slot: usize) {
        self.counters.deletes += 1;
        self.counters.slots_touched += 1;
        let (key, _) = self.slots[slot].take().expect("live slot");
        for (positions, buckets) in &mut self.indexes {
            let pk = project(&key, positions);
            let b = buckets.iter().position(|(k, _)| *k == pk).expect("bucket");
            let bucket = &mut buckets[b].1;
            let at = bucket.iter().position(|&s| s == slot).expect("member");
            bucket.swap_remove(at);
            if bucket.is_empty() {
                buckets.remove(b);
            }
        }
        self.free.push(slot);
    }

    fn update(&mut self, key: Tuple, delta: Mult) {
        if delta == 0.0 {
            return;
        }
        self.counters.updates += 1;
        match self.find(&key) {
            Some(slot) => {
                let value = &mut self.slots[slot].as_mut().expect("live slot").1;
                *value += delta;
                if value.abs() < MULT_EPSILON {
                    self.remove(slot);
                }
            }
            None => self.insert(key, delta),
        }
    }

    fn set(&mut self, key: Tuple, value: Mult) {
        match self.find(&key) {
            Some(slot) if value.abs() < MULT_EPSILON => self.remove(slot),
            None if value.abs() < MULT_EPSILON => {}
            Some(slot) => {
                self.counters.updates += 1;
                self.slots[slot].as_mut().expect("live slot").1 = value;
            }
            None => self.insert(key, value),
        }
    }

    fn delete(&mut self, key: &Tuple) {
        if let Some(slot) = self.find(key) {
            self.remove(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.free = (0..self.slots.len()).collect();
        self.indexes.iter_mut().for_each(|(_, b)| b.clear());
    }

    fn add_index(&mut self, positions: &[usize]) {
        if self.indexes.iter().any(|(p, _)| p == positions) {
            return;
        }
        let mut buckets: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for (slot, rec) in self.slots.iter().enumerate() {
            if let Some((key, _)) = rec {
                let pk = project(key, positions);
                match buckets.iter_mut().find(|(k, _)| *k == pk) {
                    Some((_, bucket)) => bucket.push(slot),
                    None => buckets.push((pk, vec![slot])),
                }
            }
        }
        self.indexes.push((positions.to_vec(), buckets));
    }

    fn get(&mut self, key: &Tuple) -> Mult {
        self.counters.lookups += 1;
        self.counters.slots_touched += 1;
        self.find(key)
            .map_or(0.0, |s| self.slots[s].as_ref().expect("live").1)
    }

    fn foreach(&mut self) -> Rows {
        self.counters.scans += 1;
        self.counters.slots_touched += self.live().count() as u64;
        self.live().cloned().collect()
    }

    fn slice(&mut self, positions: &[usize], key_vals: &[Value]) -> (Rows, usize) {
        self.counters.slices += 1;
        let (rows, touched) = match self.indexes.iter().find(|(p, _)| p == positions) {
            Some((_, buckets)) => {
                let bucket = buckets.iter().find(|(k, _)| k[..] == *key_vals);
                let slots = bucket.map_or(&[][..], |(_, b)| b.as_slice());
                let rows = slots.iter().map(|&s| self.slots[s].clone().expect("live"));
                (rows.collect(), slots.len())
            }
            None => {
                let matches =
                    |k: &Tuple| positions.iter().zip(key_vals).all(|(&p, v)| k.get(p) == v);
                let rows = self.live().filter(|(k, _)| matches(k)).cloned().collect();
                (rows, self.live().count())
            }
        };
        self.counters.slots_touched += touched as u64;
        (rows, touched)
    }
}

/// Rows with each value's variant and each multiplicity's bits spelled out:
/// `Long(1)` and `Double(1.0)` compare equal as values, but a record must
/// keep the variant it was inserted with.
fn exact(rows: &[(Tuple, Mult)]) -> Vec<(String, u64)> {
    (rows.iter())
        .map(|(t, m)| (format!("{:?}", t.0), m.to_bits()))
        .collect()
}

/// The two secondary indexes a pool of this arity may get.
fn index_specs(arity: usize) -> [Vec<usize>; 2] {
    match arity {
        0 => [vec![], vec![]],
        1 => [vec![0], vec![]],
        2 => [vec![1], vec![1, 0]],
        3 => [vec![2, 0], vec![1]],
        _ => [vec![1, 3], vec![0, 2]],
    }
}

/// Multiplicities that cancel exactly, zero, and one below `MULT_EPSILON`.
const MULTS: [Mult; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.0, 1e-10];

/// Column values drawn from `0..3`; base-3 digit `i` of `kinds` makes
/// column `i` a `Long`, a `Double` or a `Str` of the value's digits.
fn key_of(arity: usize, cols: (i64, i64, i64, i64), kinds: usize) -> Tuple {
    let (a, b, c, d) = cols;
    let value = |i: usize, v: i64| match kinds / 3usize.pow(i as u32) % 3 {
        0 => Value::Long(v),
        1 => Value::Double(v as f64),
        _ => Value::str(v.to_string()),
    };
    Tuple(
        [a, b, c, d]
            .iter()
            .take(arity)
            .enumerate()
            .map(|(i, &v)| value(i, v))
            .collect(),
    )
}

/// Every probe key over `len` columns, all-`Long`, all-`Double` and
/// all-`Str`.
fn probe_keys(len: usize) -> Vec<Vec<Value>> {
    let mut keys: Vec<Vec<i64>> = vec![vec![]];
    for _ in 0..len {
        keys = keys
            .iter()
            .flat_map(|k| (0..3).map(move |v| [&k[..], &[v]].concat()))
            .collect();
    }
    let long = keys
        .iter()
        .map(|k| k.iter().map(|&v| Value::Long(v)).collect());
    let double = keys
        .iter()
        .map(|k| k.iter().map(|&v| Value::Double(v as f64)).collect());
    let string = keys
        .iter()
        .map(|k| k.iter().map(|&v| Value::str(v.to_string())).collect());
    long.chain(double).chain(string).collect()
}

type Op = ((usize, usize, usize), (i64, i64, i64, i64));

fn check(pool: &RecordPool, model: &mut Model, arity: usize, probe: &Tuple) -> Result<(), String> {
    let mut rows = Vec::new();
    pool.foreach(&mut |t, m| rows.push((Tuple::from(t), m)));
    prop_assert_eq!(exact(&rows), exact(&model.foreach()));
    let [a, b] = index_specs(arity);
    for positions in [a, b, (0..arity.min(1)).collect(), (0..arity).collect()] {
        for key_vals in probe_keys(positions.len()) {
            let mut rows = Vec::new();
            let touched = pool.slice(&positions, &key_vals, &mut |t, m| {
                rows.push((Tuple::from(t), m))
            });
            let (want, want_touched) = model.slice(&positions, &key_vals);
            prop_assert_eq!(exact(&rows), exact(&want));
            prop_assert_eq!(touched, want_touched);
        }
    }
    let live: Vec<Tuple> = model.live().map(|(t, _)| t.clone()).collect();
    for key in live.iter().chain([probe]) {
        let doubled = Tuple(key.0.iter().map(|v| Value::Double(v.as_f64())).collect());
        for key in [key, &doubled] {
            prop_assert_eq!(pool.get(&key.0).to_bits(), model.get(key).to_bits());
            prop_assert_eq!(pool.contains(&key.0), model.find(key).is_some());
        }
    }
    prop_assert_eq!(pool.len(), model.live().count());
    prop_assert_eq!(pool.capacity(), model.slots.len());
    prop_assert_eq!(pool.counters(), model.counters);
    Ok(())
}

/// Run `ops` on a fresh pool and model of `arity`, checking after each.
fn run(arity: usize, ops: &[Op]) -> Result<(), String> {
    let mut pool = RecordPool::new(arity);
    let mut model = Model::default();
    let specs = index_specs(arity);
    for &((kind, kinds, mult), cols) in ops {
        let key = key_of(arity, cols, kinds);
        let m = MULTS[mult];
        match kind {
            0..=10 => {
                pool.update(key.clone(), m);
                model.update(key.clone(), m);
            }
            11..=13 => {
                pool.set(key.clone(), m);
                model.set(key.clone(), m);
            }
            14..=16 => {
                pool.delete(&key.0);
                model.delete(&key);
            }
            17 | 18 => {
                pool.add_secondary_index(specs[kind - 17].clone());
                model.add_index(&specs[kind - 17]);
            }
            _ => {
                pool.clear();
                model.clear();
            }
        }
        check(&pool, &mut model, arity, &key)?;
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        (0usize..20, 0usize..81, 0usize..MULTS.len()),
        (0i64..3, 0i64..3, 0i64..3, 0i64..3),
    );
    prop::collection::vec(op, 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool follows the model's order rules exactly.
    #[test]
    fn pool_follows_the_order_model(arity in 0usize..5, ops in ops()) {
        run(arity, &ops)?;
    }

    /// ... also when index hashes collide: with the hash cut to its low
    /// `bits` bits, keys share primary chains and projections share
    /// bucket chains, and every probe must still confirm its hit.
    #[test]
    fn pool_follows_the_order_model_under_hash_collisions(
        bits in 0usize..3,
        arity in 0usize..5,
        ops in ops(),
    ) {
        HASH_MASK.with(|mask| mask.set((1u64 << bits) - 1));
        let outcome = run(arity, &ops);
        HASH_MASK.with(|mask| mask.set(u64::MAX));
        outcome?;
    }
}
