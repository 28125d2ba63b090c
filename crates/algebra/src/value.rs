//! Scalar values stored inside tuples of generalized multiset relations.
//!
//! The paper's data model (Section 3.1 and Appendix A) keeps *aggregates* in
//! tuple multiplicities, while the tuple itself carries plain SQL scalars:
//! integers, floating point numbers, strings and dates.  `Value` is that
//! scalar type.  Doubles are wrapped so that `Value` can implement `Eq`,
//! `Ord` and `Hash` (required for hash-index keys); NaNs are normalized to a
//! single bit pattern.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value appearing in a tuple (the key part of a generalized
/// multiset relation record).
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer; also used for surrogate keys and dates
    /// (encoded as `yyyymmdd`).
    Long(i64),
    /// 64-bit IEEE float.  Compared and hashed by normalized bit pattern.
    Double(f64),
    /// UTF-8 string, shared and never interned.  `Arc` keeps cloning cheap
    /// (tuples are copied into record pools, shuffle buffers and columnar
    /// batches constantly), and `Arc<String>` is one word where `Arc<str>`
    /// is two, which keeps `Value` at 16 bytes.  Hashing, comparison and the
    /// codec read only the string's content.
    Str(Arc<String>),
    /// Boolean flag (e.g. precomputed predicate results).
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(s.as_ref().to_owned()))
    }

    /// Numeric view of the value used by arithmetic value terms.
    ///
    /// Strings have no numeric interpretation and evaluate to 0, mirroring
    /// the paper's treatment of value terms as functions over *bound numeric
    /// variables* only.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Long(v) => *v as f64,
            Value::Double(v) => *v,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Str(_) => 0.0,
        }
    }

    /// Integer view (truncating); used by partitioning functions.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Long(v) => *v,
            Value::Double(v) => *v as i64,
            Value::Bool(b) => *b as i64,
            Value::Str(s) => {
                // Stable, cheap string hash so string keys can partition too.
                let mut h: i64 = 1469598103934665603u64 as i64;
                for b in s.as_bytes() {
                    h ^= *b as i64;
                    h = h.wrapping_mul(1099511628211);
                }
                h
            }
        }
    }

    /// Approximate serialized size in bytes; used by the distributed runtime
    /// to account for shuffled data volume.
    pub fn serialized_size(&self) -> usize {
        match self {
            Value::Long(_) => 8,
            Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
        }
    }

    fn normalized_double_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else if v == 0.0 {
            0u64 // collapse -0.0 and +0.0
        } else {
            v.to_bits()
        }
    }

    /// Map a double to a `u64` whose integer order is a *total* order
    /// over doubles: `-inf < … < -0 = +0 < … < +inf < NaN` (all NaNs
    /// normalized to one pattern).  The standard trick: flip all bits of
    /// negative values, set the sign bit of non-negative ones.  Raw IEEE
    /// bits alone are NOT order-preserving (the sign bit makes negative
    /// values huge), which used to leave `Ord` cyclic around NaN —
    /// `sort` panics on such comparators, and relation
    /// canonicalization sorts every exchanged relation.
    fn total_order_key(v: f64) -> u64 {
        let bits = Self::normalized_double_bits(v);
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1u64 << 63)
        }
    }

    /// Exact order of an integer against a double: by real value, with NaN
    /// above every number (as in `total_order_key`).  Rounding `a` to `f64`
    /// instead would make `Long(2^53 + 1)` and `Long(2^53)` both equal
    /// `Double(2^53)` while unequal to each other: neither `Eq` nor `Ord`
    /// would be transitive, and a relation mixing such keys would depend on
    /// its insertion order.
    fn cmp_long_double(a: i64, b: f64) -> Ordering {
        // 2^63: the doubles in `[-2^63, 2^63)` are exactly those whose
        // integral part fits an `i64`.
        const LIMIT: f64 = 9_223_372_036_854_775_808.0;
        if b.is_nan() || b >= LIMIT {
            return Ordering::Less;
        }
        if b < -LIMIT {
            return Ordering::Greater;
        }
        let whole = b.trunc();
        a.cmp(&(whole as i64))
            .then_with(|| whole.partial_cmp(&b).expect("not NaN"))
    }

    /// Total order over values of *any* variant: variants are ordered by a
    /// discriminant rank first, then by value.  This gives `Value` a lawful
    /// `Ord`, which index structures and deterministic test output rely on.
    fn rank(&self) -> u8 {
        match self {
            Value::Long(_) => 0,
            Value::Double(_) => 1,
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => {
                Self::normalized_double_bits(*a) == Self::normalized_double_bits(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Cross-variant numeric equality: Long(3) == Double(3.0).  The
            // workload generators mix integer and double columns, and join
            // keys must match across them.  Exact, so that it is transitive.
            (Value::Long(a), Value::Double(b)) | (Value::Double(b), Value::Long(a)) => {
                Self::cmp_long_double(*a, *b) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Long(a), Value::Long(b)) => a.cmp(b),
            // Numeric comparisons go through the total-order key, so NaN
            // sits consistently above every number (Long or Double) and
            // the comparator is lawful for `sort` — required by relation
            // canonicalization, which sorts every exchanged relation.
            (Value::Double(a), Value::Double(b)) => {
                Self::total_order_key(*a).cmp(&Self::total_order_key(*b))
            }
            (Value::Long(a), Value::Double(b)) => Self::cmp_long_double(*a, *b),
            (Value::Double(a), Value::Long(b)) => Self::cmp_long_double(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Longs and equal-valued Doubles must hash identically because
            // they compare equal (see PartialEq above).
            Value::Long(v) => Self::normalized_double_bits(*v as f64).hash(state),
            Value::Double(v) => Self::normalized_double_bits(*v).hash(state),
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Long(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::DetState;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use std::hash::BuildHasher;

    /// Hashed with the data path's own hasher: the equalities below are
    /// what its maps rely on.
    fn hash_of(v: &Value) -> u64 {
        DetState::default().hash_one(v)
    }

    #[test]
    fn long_and_double_numeric_equality() {
        assert_eq!(Value::Long(3), Value::Double(3.0));
        assert_ne!(Value::Long(3), Value::Double(3.5));
        assert_eq!(hash_of(&Value::Long(3)), hash_of(&Value::Double(3.0)));
    }

    /// Around ±2^53 not every `i64` is a double, so comparing through a
    /// rounded `Long` would give `Long(2^53 + 1) == Double(2^53) ==
    /// Long(2^53)` with the two `Long`s unequal, and a relation mixing such
    /// keys would depend on the order of its inserts.
    #[test]
    fn long_double_comparison_is_exact_and_transitive_near_2_pow_53() {
        const P: i64 = 1 << 53;
        let longs: Vec<Value> = [P, -P]
            .iter()
            .flat_map(|&base| (-64..=64).map(move |d| Value::Long(base + d)))
            .collect();
        let doubles: Vec<Value> = longs.iter().map(|v| Value::Double(v.as_f64())).collect();
        let mut vals: Vec<Value> = longs.iter().chain(&doubles).cloned().collect();
        for a in &vals {
            for b in &vals {
                assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
                }
            }
        }
        // Transitive: sorted, every pair compares as the runs of equal
        // neighbours say it must.
        vals.sort();
        let mut run = vec![0usize; vals.len()];
        for i in 1..vals.len() {
            run[i] = run[i - 1] + usize::from(vals[i - 1] < vals[i]);
        }
        for i in 0..vals.len() {
            for j in i + 1..vals.len() {
                let want = if run[i] == run[j] {
                    Ordering::Equal
                } else {
                    Ordering::Less
                };
                assert_eq!(
                    vals[i].cmp(&vals[j]),
                    want,
                    "{:?} vs {:?}",
                    vals[i],
                    vals[j]
                );
            }
        }
        assert!(Value::Long(i64::MAX) < Value::Double(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Long(i64::MIN),
            Value::Double(-9_223_372_036_854_775_808.0)
        );
        assert!(Value::Long(i64::MIN) > Value::Double(f64::NEG_INFINITY));
        assert!(Value::Long(3) > Value::Double(2.5) && Value::Long(-3) < Value::Double(-2.5));

        // Same adds, two insertion orders (each `Long` before the doubles,
        // so both keep the same representative): the same relation.
        let add = |order: &mut dyn Iterator<Item = (usize, &Value)>| {
            let mut rel = Relation::new(Schema::new(["k"]));
            for (i, v) in order {
                rel.add(Tuple::from(vec![v.clone()]), 1.0 + i as f64);
            }
            rel.checksum()
        };
        let n = longs.len();
        let forward = add(&mut longs.iter().chain(&doubles).enumerate());
        let reverse = add(&mut (longs.iter().enumerate().rev())
            .chain(doubles.iter().enumerate().rev().map(|(i, v)| (n + i, v))));
        assert_eq!(forward, reverse);
    }

    #[test]
    fn negative_zero_collapses() {
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
        assert_eq!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
    }

    #[test]
    fn nan_is_self_equal_for_hashing() {
        assert_eq!(
            hash_of(&Value::Double(f64::NAN)),
            hash_of(&Value::Double(f64::NAN))
        );
    }

    #[test]
    fn ordering_is_lawful_around_nan_and_negatives() {
        // The old bit-fallback comparator had a cycle:
        // -1.0 < 1e308 < NaN < -1.0 (negative bits compare huge).  The
        // total-order key must place NaN above everything numeric and
        // keep the comparator transitive — `sort` panics on unlawful
        // comparators since Rust 1.81.
        let mut vals = [
            Value::Double(f64::NAN),
            Value::Double(-1.0),
            Value::Double(1e308),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(f64::INFINITY),
            Value::Double(-0.0),
            Value::Long(-5),
            Value::Double(f64::NAN),
        ];
        vals.sort(); // must not panic
        assert_eq!(vals.first(), Some(&Value::Double(f64::NEG_INFINITY)));
        // NaN is the numeric maximum (both copies at the end).
        assert!(matches!(vals[vals.len() - 1], Value::Double(v) if v.is_nan()));
        assert!(matches!(vals[vals.len() - 2], Value::Double(v) if v.is_nan()));
        // Long vs Double NaN is consistent with Double vs Double NaN.
        assert!(Value::Long(i64::MAX) < Value::Double(f64::NAN));
        assert!(Value::Double(-1.0) < Value::Double(f64::NAN));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut vals = vec![
            Value::str("b"),
            Value::Long(2),
            Value::Double(1.5),
            Value::Bool(true),
            Value::str("a"),
            Value::Long(-1),
        ];
        vals.sort();
        // Must not panic and must be deterministic.
        let again = {
            let mut v = vals.clone();
            v.sort();
            v
        };
        assert_eq!(vals, again);
    }

    #[test]
    fn string_values_display_quoted() {
        assert_eq!(Value::str("abc").to_string(), "'abc'");
        assert_eq!(Value::Long(7).to_string(), "7");
    }

    #[test]
    fn serialized_sizes() {
        assert_eq!(Value::Long(1).serialized_size(), 8);
        assert_eq!(Value::str("abcd").serialized_size(), 8);
        assert_eq!(Value::Bool(true).serialized_size(), 1);
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Long(4).as_f64(), 4.0);
        assert_eq!(Value::Bool(true).as_f64(), 1.0);
        assert_eq!(Value::str("x").as_f64(), 0.0);
    }

    #[test]
    fn as_i64_is_stable_for_strings() {
        assert_eq!(Value::str("abc").as_i64(), Value::str("abc").as_i64());
        assert_ne!(Value::str("abc").as_i64(), Value::str("abd").as_i64());
    }
}
