//! The one hash index of the workspace: a table from a 64-bit hash of some
//! columns to the chain of members that hash there.
//!
//! A member is a `u32` id whose meaning its user gives: a record pool's
//! slot (its unique and its secondary indexes), or a position in the list
//! of a relation's rows (`hotdog-exec`'s per-call slice index).  The index
//! never holds a key: whenever it must tell keys apart it asks its caller,
//! through a closure over member ids, whether a member has the key at
//! hand.
//!
//! A chain lists every member whose hash is `h`, in the order one vector
//! per key would keep them: an insert appends, a removal swap-removes (the
//! last member with the removed one's key takes its place).  The table
//! holds each chain's first and last member, 16 bytes an entry; the links
//! between members live in one per-member array, grown only for members
//! that share a chain.
//!
//! Only a 64-bit hash collision puts two keys in one chain.  The index
//! notes the first insert that does so (`mixed`, reset by `clear`).  Until
//! then a probe confirms its hit against the chain's head alone, one key
//! comparison, and every member of a confirmed chain matches; after, a
//! probe confirms each member and a removal looks for the last member with
//! the removed key, so each key's members keep their vector order under
//! collisions too.

use hotdog_algebra::hash::{DetMap, FoldHasher};
use hotdog_algebra::value::Value;
#[cfg(test)]
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::iter::successors;
use std::mem::size_of;

/// No member: the predecessor of a chain's first member.
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Bits of every index hash that are kept: tests narrow it to force
    /// 64-bit hash collisions.
    pub(crate) static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// An index hash: of a key's indexed columns, or of a probe's values.
pub fn hash_values<'v>(values: impl ExactSizeIterator<Item = &'v Value>) -> u64 {
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

/// The index hash of `key`'s columns at `positions`: equal to
/// [`hash_values`] of a probe for those columns' values.
pub fn hash_at(positions: &[usize], key: &[Value]) -> u64 {
    hash_values(positions.iter().map(|&p| &key[p]))
}

/// Whether `key`'s columns at `positions` equal `key_vals`.
pub fn agrees(positions: &[usize], key: &[Value], key_vals: &[Value]) -> bool {
    positions.len() == key_vals.len() && positions.iter().zip(key_vals).all(|(&p, v)| &key[p] == v)
}

/// Whether keys `a` and `b` agree on their columns at `positions`.
pub fn same_at(positions: &[usize], a: &[Value], b: &[Value]) -> bool {
    positions.iter().all(|&p| a[p] == b[p])
}

/// Heap bytes of a hash table, from its capacity by std's (hashbrown's)
/// layout: a power-of-two number of buckets filled to at most 7/8 (to all
/// but one below 8 buckets), each an entry and a control byte, plus one
/// 16-byte group of trailing control bytes.
pub(crate) fn table_bytes<K, V>(map: &DetMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => return 0,
        cap if cap < 8 => cap + 1,
        cap => cap / 7 * 8,
    };
    buckets * (size_of::<(K, V)>() + 1) + 16
}

/// The members from `first` to `last` of one chain, in order.
fn chain(next: &[u32], first: u32, last: u32) -> impl Iterator<Item = u32> + '_ {
    successors(Some(first), move |&m| (m != last).then(|| next[m as usize]))
}

/// A hash index: hash -> chain of member ids (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct HashIndex {
    /// Hash -> the first and last member of its chain.
    chains: DetMap<u64, (u32, u32)>,
    /// Per member: the next member of its chain.  Every member of a chain
    /// of two or more has an entry; the last one's is stale.
    next: Vec<u32>,
    /// Whether some insert since the last `clear` put two keys in one chain.
    mixed: bool,
}

impl HashIndex {
    /// The members with hash `h` that have the probed key, in chain order;
    /// `is_key(m)` says whether member `m` has it.
    pub fn find<'a>(
        &'a self,
        h: u64,
        is_key: impl Fn(u32) -> bool + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let mixed = self.mixed;
        let hit = (self.chains.get(&h).copied()).filter(|&(first, _)| mixed || is_key(first));
        (hit.into_iter())
            .flat_map(|(first, last)| chain(&self.next, first, last))
            .filter(move |&m| !mixed || is_key(m))
    }

    /// Append member `m`, whose hash is `h` and which is not yet indexed
    /// here, to its chain; `same_key(x)` says whether member `x` has `m`'s
    /// key (asked of the chain's head only).
    pub fn insert(&mut self, h: u64, m: u32, same_key: impl Fn(u32) -> bool) {
        match self.chains.entry(h) {
            Entry::Vacant(e) => {
                e.insert((m, m));
            }
            Entry::Occupied(mut e) => {
                let (first, last) = e.get_mut();
                if !self.mixed && !same_key(*first) {
                    self.mixed = true;
                }
                let need = (*last).max(m) as usize + 1;
                if self.next.len() < need {
                    self.next.resize(need, NIL);
                }
                self.next[*last as usize] = m;
                *last = m;
            }
        }
    }

    /// Swap-remove member `m`, whose hash is `h`, from its chain: the last
    /// member with `m`'s key takes its place.  `same_key(x)` says whether
    /// member `x` has `m`'s key (asked only once the index is mixed).
    pub fn remove(&mut self, h: u64, m: u32, same_key: impl Fn(u32) -> bool) {
        let Entry::Occupied(mut e) = self.chains.entry(h) else {
            unreachable!("an indexed member's hash has a chain");
        };
        let (first, last) = e.get_mut();
        if *first == *last {
            e.remove();
            return;
        }
        // One walk finds `m`'s predecessor, and the last member with `m`'s
        // key (`tail`) with its predecessor.
        let (mut prev, mut before_m, mut tail, mut before_tail) = (NIL, NIL, NIL, NIL);
        for x in chain(&self.next, *first, *last) {
            if x == m {
                before_m = prev;
            }
            let is_tail = if self.mixed {
                x == m || (tail != NIL && same_key(x))
            } else {
                x == *last
            };
            if is_tail {
                (tail, before_tail) = (x, prev);
            }
            prev = x;
        }
        let next = &mut self.next;
        if tail == m || next[m as usize] == tail {
            // Unlink `m`; what followed it, `tail` or nothing, moves up.
            if m == *last {
                *last = before_m;
                return;
            }
            let after = next[m as usize];
            match before_m {
                NIL => *first = after,
                before => next[before as usize] = after,
            }
        } else {
            // Unlink `tail`, then put it where `m` was.
            if tail == *last {
                *last = before_tail;
            } else {
                next[before_tail as usize] = next[tail as usize];
            }
            next[tail as usize] = next[m as usize];
            match before_m {
                NIL => *first = tail,
                before => next[before as usize] = tail,
            }
        }
    }

    /// Drop every member, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.mixed = false;
    }

    /// Heap bytes the index holds: its table (by std's layout) and links.
    pub fn heap_bytes(&self) -> usize {
        table_bytes(&self.chains) + self.next.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The insert-only use (a relation's rows, indexed once per call) under
    /// forced collisions: each key's rows come back in insertion order, and
    /// a probe yields only its key's rows, also from a mixed chain.
    #[test]
    fn insert_only_chains_keep_each_keys_rows_in_order_under_collisions() {
        for bits in 0..3 {
            HASH_MASK.with(|mask| mask.set((1u64 << bits) - 1));
            let rows: Vec<[Value; 2]> = (0..60i64)
                .map(|i| [Value::Long(i % 7), Value::Long(i)])
                .collect();
            let mut index = HashIndex::default();
            for (i, row) in rows.iter().enumerate() {
                let same = |x: u32| same_at(&[0], &rows[x as usize], row);
                index.insert(hash_at(&[0], row), i as u32, same);
            }
            assert!(index.mixed, "{bits} bits: 7 keys share at most 4 hashes");
            for k in 0..9i64 {
                let key_vals = [Value::Long(k)];
                let is_key = |x: u32| agrees(&[0], &rows[x as usize], &key_vals);
                let got: Vec<u32> = index.find(hash_values(key_vals.iter()), is_key).collect();
                let want: Vec<u32> = (0..60u32).filter(|&i| i as i64 % 7 == k).collect();
                assert_eq!(got, want, "{bits} bits, key {k}");
            }
            HASH_MASK.with(|mask| mask.set(u64::MAX));
        }
    }
}
