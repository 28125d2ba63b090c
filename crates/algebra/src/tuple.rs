//! Tuples: ordered sequences of [`Value`]s forming the keys of generalized
//! multiset relations.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;

/// An immutable-by-convention row of scalar values.
///
/// Tuples are the keys of generalized multiset relations: each distinct tuple
/// maps to a non-zero multiplicity.  Tuples are small (TPC-H style views keep
/// at most a handful of columns after projection) so a plain `Vec` is used.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// The empty tuple — the key of 0-ary (scalar) views such as a top-level
    /// `COUNT(*)` aggregate.
    pub fn empty() -> Self {
        Tuple(Vec::new())
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
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
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

    /// Approximate serialized size in bytes of a *standalone* tuple (for
    /// shuffle accounting): the values plus the u16 arity prefix the
    /// standalone wire encoding carries.
    pub fn serialized_size(&self) -> usize {
        self.values_size() + 2
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
/// with no allocation per probe.  Sound because the derived `Hash` and `Eq`
/// of `Tuple` are its `Vec`'s, which hash and compare exactly as the slice.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
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
        $crate::tuple::Tuple(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn serialized_size_sums_fields() {
        assert_eq!(tuple![1i64, 2i64].serialized_size(), 18);
    }

    #[test]
    fn from_iterator_builds_tuple() {
        let t: Tuple = vec![1i64, 2, 3].into_iter().collect();
        assert_eq!(t.arity(), 3);
    }
}
