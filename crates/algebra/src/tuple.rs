//! Tuples: ordered sequences of [`Value`]s forming the keys of generalized
//! multiset relations.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;

/// An immutable-by-convention row of scalar values.
///
/// Tuples are the keys of generalized multiset relations: each distinct tuple
/// maps to a non-zero multiplicity.  A tuple never grows once built, so it
/// is a boxed slice: a 16-byte header (pointer and length, no capacity
/// word) over exactly `arity` values, with no slack.  Build one from a
/// `Vec` whose capacity equals its length (`vec![…]`, `collect` over an
/// exact-size iterator, `Vec::with_capacity(arity)`), so that boxing it
/// does not reallocate.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple(pub Box<[Value]>);

impl Tuple {
    /// The empty tuple — the key of 0-ary (scalar) views such as a top-level
    /// `COUNT(*)` aggregate.
    pub fn empty() -> Self {
        Tuple(Box::default())
    }

    /// Build a tuple from anything convertible to values.
    pub fn from_values(vals: impl IntoIterator<Item = Value>) -> Self {
        Tuple(vals.into_iter().collect())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Project onto the given column positions (in the given order).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Access a column.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Sum of the values' encoded payload bytes, with no per-tuple framing.
    /// This is a tuple's contribution to the column-contiguous relation
    /// wire format, where arity lives in the schema, not in each row.
    pub fn values_size(&self) -> usize {
        self.0.iter().map(Value::serialized_size).sum()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Lets a map keyed by [`Tuple`] be probed with a borrowed `&[Value]`,
/// with no allocation per probe.  Sound because the derived `Hash`, `Eq`
/// and `Ord` of `Tuple` are its boxed slice's, which are the slice's own.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vals: Vec<Value>) -> Self {
        Tuple(vals.into_boxed_slice())
    }
}

/// Copy a borrowed key (a record pool's slot, a scan's row) into a tuple.
impl From<&[Value]> for Tuple {
    fn from(vals: &[Value]) -> Self {
        Tuple(vals.into())
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple(iter.into_iter().map(Into::into).collect())
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, 2.5, "x"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::from(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record pools and relation maps hold a `Tuple` per record, and each
    /// holds its `Value`s inline: a word more in either is a third more.
    #[test]
    fn values_and_tuples_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Tuple>(), 16);
    }

    #[test]
    fn empty_tuple_has_zero_arity() {
        assert_eq!(Tuple::empty().arity(), 0);
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn projection_reorders_columns() {
        let t = tuple![1, 2, 3];
        assert_eq!(t.project(&[2, 0]), tuple![3, 1]);
    }

    #[test]
    fn concat_appends() {
        let t = tuple![1, "a"].concat(&tuple![2.0]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(2), &Value::Double(2.0));
    }

    #[test]
    fn display_formats_angle_brackets() {
        assert_eq!(tuple![1, "x"].to_string(), "<1, 'x'>");
    }

    #[test]
    fn values_size_sums_fields() {
        assert_eq!(tuple![1i64, 2i64].values_size(), 16);
    }

    #[test]
    fn from_iterator_builds_tuple() {
        let t: Tuple = vec![1i64, 2, 3].into_iter().collect();
        assert_eq!(t.arity(), 3);
    }
}
