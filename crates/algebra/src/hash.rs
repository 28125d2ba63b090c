//! Deterministic hashing for the data path.
//!
//! `std::collections::HashMap` seeds every instance with a fresh random
//! `RandomState`, so two maps holding the same entries iterate in different
//! orders — across instances, processes and runs.  Iteration order feeds
//! floating-point accumulation (joins, group-bys, scatters), so with random
//! seeds the low-order bits of aggregate multiplicities are not reproducible
//! even between two runs of the *same* backend.
//!
//! [`DetMap`]/[`DetSet`] hash with [`FoldHasher`], a fixed-seed
//! folded-multiply hasher.  With every container on the data path hashed
//! deterministically, iteration order becomes a pure function of the
//! insertion history — and since all execution backends (local engine,
//! simulated cluster, threaded runtime, pipelined runtime) perform identical
//! per-node statement sequences over identically-ordered inputs, they
//! perform *bit-identical* float arithmetic.  That is what lets the
//! equivalence suites assert exact equality on float workloads instead of
//! epsilon comparisons.
//!
//! The hasher is part of that determinism contract: changing it changes
//! every relation's iteration order, hence the last bits of float results
//! (a known-answer test pins it).  A fixed seed gives no protection against
//! keys crafted to collide, which the data path — hashing the program's own
//! tuples — does not need; on its short tuple keys it is cheaper than the
//! SipHash-1-3 of `DefaultHasher`, which needs several rounds per word.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fixed-key build-hasher: every hasher it builds produces the same hash for
/// the same input, within and across processes.
pub type DetState = BuildHasherDefault<FoldHasher>;

/// A `HashMap` with deterministic iteration order (given an insertion
/// history).
pub type DetMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with deterministic iteration order (given an insertion
/// history).
pub type DetSet<T> = HashSet<T, DetState>;

/// Initial state (the fractional digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier (the fractional digits of the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// XOR of the two halves of the full 128-bit product: every input bit
/// reaches the low bits hashbrown picks buckets with.  That matters because
/// `Value::Long` hashes the `f64` bits of an integer, whose low bits are
/// zero — a multiply-rotate hasher would crowd integer keys into a few
/// buckets.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128).wrapping_mul(b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The data path's hasher: one folded multiply per 8-byte word.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    state: u64,
}

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher { state: SEED }
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            // The top byte is always padding: tag it with the tail length.
            self.write_u64(u64::from_le_bytes(buf) ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = fold(self.state ^ x, K);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, K)
    }
}

/// 64-bit FNV-1a, the digest primitive of [`Relation::checksum`]
/// (order-sensitive, so callers must feed it canonically ordered bytes).
///
/// [`Relation::checksum`]: crate::relation::Relation::checksum
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, ViewChecksum};
    use crate::schema::Schema;
    use crate::tuple;
    use std::hash::BuildHasher;

    #[test]
    fn det_map_iteration_is_reproducible_across_instances() {
        let build = |order: &[i64]| {
            let mut m: DetMap<i64, i64> = DetMap::default();
            for &k in order {
                m.insert(k, k);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        // Same insertion history => same iteration order, every time.
        assert_eq!(
            build(&[3, 1, 4, 1, 5, 9, 2, 6]),
            build(&[3, 1, 4, 1, 5, 9, 2, 6])
        );
    }

    #[test]
    fn det_state_known_answer() {
        // Pinned: the hasher fixes every relation's iteration order, so a
        // change to it must be deliberate (and will move float results in
        // their last bits).
        assert_eq!(
            DetState::default().hash_one(tuple![1, 2]),
            15_615_100_593_251_831_815
        );
        // Every variant's hash reads the value, never its representation.
        assert_eq!(
            DetState::default().hash_one(tuple!["ab", 2.5, -7]),
            4_530_222_478_916_315_806
        );
        let mixed = Relation::from_pairs(
            Schema::new(["a", "b", "c"]),
            [
                (tuple!["ab", 2.5, -7], 1.5),
                (tuple![3, "x", -0.0], -2.0),
                (tuple![true, -1e300, "é"], 0.25),
                (tuple![-9_007_199_254_740_993i64, 1, 1.0], 3.0),
            ],
        );
        assert_eq!(
            mixed.checksum(),
            ViewChecksum {
                tuples: 4,
                digest: 6_809_863_798_270_995_868
            }
        );
    }

    #[test]
    fn consecutive_long_keys_spread_over_low_bits() {
        // `Value::Long` hashes f64 bits with zero low bits; the fold must
        // still spread consecutive integers over hashbrown's low-bit
        // buckets.  Uniform random hashing fills about 2 590 of 4 096.
        let state = DetState::default();
        let buckets: DetSet<u64> = (0..4096i64)
            .map(|i| state.hash_one(tuple![i]) & 0xfff)
            .collect();
        assert!(buckets.len() >= 2400, "{} buckets", buckets.len());
    }

    #[test]
    fn byte_tails_are_length_tagged() {
        let h = |b: &[u8]| {
            let mut s = FoldHasher::default();
            s.write(b);
            s.finish()
        };
        assert_ne!(h(&[1]), h(&[1, 0]));
        assert_ne!(h(&[0; 8]), h(&[]));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv1a::default();
        a.write(&[1, 2]);
        let mut b = Fnv1a::default();
        b.write(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
