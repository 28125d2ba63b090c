//! Column-oriented batches and vectorized selection kernels (Section 5.2.2).
//!
//! Input update batches and shuffle buffers are kept in a columnar layout:
//! filtering on simple static predicates touches only the referenced columns
//! (better locality), and serialization for the network writes contiguous
//! per-column arrays.  The batched trigger path first *filters* the batch on
//! the query's static conditions, then *pre-aggregates* it onto the columns
//! actually used by the maintenance code (Section 3.3, "Preprocessing
//! batches"), and only then runs the maintenance statements.
//!
//! The free functions at the bottom ([`compact_column`], [`compact_mults`],
//! [`gather_column`]) are the *kernels* of the vectorized trigger
//! interpreter (`hotdog-exec`'s `vectorized` module): a filter predicate is
//! evaluated once over a column slice into a keep-mask and every live column
//! is compacted through it in one pass; a join probe produces a gather index
//! (which input row each output row fans out from) and every live column is
//! gathered through it in one pass.  One dispatch per operator per batch,
//! instead of one environment walk per tuple.

use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;

/// A batch of updates in columnar layout: one `Vec<Value>` per column plus a
/// multiplicity column (positive = insert, negative = delete).
///
/// ```
/// use hotdog_algebra::schema::Schema;
/// use hotdog_algebra::tuple::Tuple;
/// use hotdog_algebra::value::Value;
/// use hotdog_storage::columnar::ColumnarBatch;
///
/// let batch = ColumnarBatch::from_rows(
///     Schema::new(["a", "b"]),
///     vec![
///         (Tuple::from(vec![Value::Long(1), Value::Long(10)]), 1.0),
///         (Tuple::from(vec![Value::Long(2), Value::Long(10)]), -1.0),
///     ],
/// );
/// assert_eq!(batch.len(), 2);
/// // Columns are contiguous: predicates touch only the referenced column.
/// assert_eq!(batch.column("b").unwrap(), &[Value::Long(10), Value::Long(10)]);
/// let kept = batch.filter_column("a", |v| v == &Value::Long(1));
/// assert_eq!(kept.len(), 1);
/// assert_eq!(kept.multiplicities(), &[1.0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ColumnarBatch {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    mults: Vec<Mult>,
}

impl ColumnarBatch {
    /// Empty batch over a schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        ColumnarBatch {
            schema,
            columns,
            mults: Vec::new(),
        }
    }

    /// Build from row-oriented (tuple, multiplicity) pairs.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = (Tuple, Mult)>) -> Self {
        let mut batch = ColumnarBatch::new(schema);
        for (t, m) in rows {
            batch.push(&t, m);
        }
        batch
    }

    /// Convert a [`Relation`] into a columnar batch.
    pub fn from_relation(rel: &Relation) -> Self {
        ColumnarBatch::from_rows(
            rel.schema().clone(),
            rel.iter().map(|(t, m)| (t.clone(), m)),
        )
    }

    /// Append one row.
    pub fn push(&mut self, tuple: &Tuple, mult: Mult) {
        debug_assert_eq!(tuple.arity(), self.schema.len());
        for (col, v) in self.columns.iter_mut().zip(tuple.0.iter()) {
            col.push(v.clone());
        }
        self.mults.push(mult);
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// Row accessor (materializes a tuple).
    pub fn row(&self, i: usize) -> (Tuple, Mult) {
        (
            Tuple(self.columns.iter().map(|c| c[i].clone()).collect()),
            self.mults[i],
        )
    }

    /// Iterate rows as (tuple, multiplicity).
    pub fn rows(&self) -> impl Iterator<Item = (Tuple, Mult)> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Column accessor by name.
    pub fn column(&self, name: &str) -> Option<&[Value]> {
        self.schema
            .position(name)
            .map(|i| self.columns[i].as_slice())
    }

    /// Multiplicity column.
    pub fn multiplicities(&self) -> &[Mult] {
        &self.mults
    }

    /// Keep only rows satisfying `pred`, which receives the values of the
    /// named column.  Operating column-at-a-time mirrors the generated
    /// columnar filtering code of the paper.
    pub fn filter_column(&self, name: &str, pred: impl Fn(&Value) -> bool) -> ColumnarBatch {
        let idx = self
            .schema
            .position(name)
            .unwrap_or_else(|| panic!("column {name} not in batch schema"));
        let keep: Vec<bool> = self.columns[idx].iter().map(pred).collect();
        self.retain_rows(&keep)
    }

    fn retain_rows(&self, keep: &[bool]) -> ColumnarBatch {
        let mut out = ColumnarBatch::new(self.schema.clone());
        for (ci, col) in self.columns.iter().enumerate() {
            out.columns[ci] = col
                .iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(v, _)| v.clone())
                .collect();
        }
        out.mults = self
            .mults
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(m, _)| *m)
            .collect();
        out
    }

    /// Project onto a subset of columns and sum multiplicities of equal
    /// projected rows — the batch pre-aggregation of Section 3.3.  Returns a
    /// (typically much smaller) row-oriented relation, in wire-canonical
    /// layout: two calls on the same batch iterate identically.
    pub fn pre_aggregate(&self, columns: &Schema) -> Relation {
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .position(c)
                    .unwrap_or_else(|| panic!("column {c} not in batch schema"))
            })
            .collect();
        self.to_relation()
            .project_canonical(&positions, columns.clone())
    }

    /// Convert back to a row-oriented relation (merging duplicate rows).
    pub fn to_relation(&self) -> Relation {
        Relation::from_pairs(self.schema.clone(), self.rows())
    }

    /// Approximate wire size in bytes of the columnar encoding.
    pub fn serialized_size(&self) -> usize {
        let data: usize = self
            .columns
            .iter()
            .map(|c| c.iter().map(Value::serialized_size).sum::<usize>())
            .sum();
        data + self.mults.len() * 8 + self.schema.len() * 16
    }

    /// Split the batch into `n` chunks of near-equal row counts (used to
    /// spread a batch over workers).
    pub fn split(&self, n: usize) -> Vec<ColumnarBatch> {
        assert!(n > 0);
        let mut out: Vec<ColumnarBatch> = (0..n)
            .map(|_| ColumnarBatch::new(self.schema.clone()))
            .collect();
        for i in 0..self.len() {
            let (t, m) = self.row(i);
            out[i % n].push(&t, m);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Vectorized selection kernels
// ---------------------------------------------------------------------------

/// Keep the values of `src` whose position is `true` in `keep`, in order —
/// the column-at-a-time half of a vectorized filter.  The predicate is
/// evaluated once into a mask, then every live column is compacted through
/// the same mask in one tight pass.
///
/// ```
/// use hotdog_algebra::value::Value;
/// use hotdog_storage::columnar::compact_column;
///
/// let col = vec![Value::Long(1), Value::Long(2), Value::Long(3)];
/// let keep = [true, false, true];
/// assert_eq!(
///     compact_column(&col, &keep),
///     vec![Value::Long(1), Value::Long(3)]
/// );
/// ```
pub fn compact_column(src: &[Value], keep: &[bool]) -> Vec<Value> {
    debug_assert_eq!(src.len(), keep.len());
    src.iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(v, _)| v.clone())
        .collect()
}

/// [`compact_column`] for the multiplicity column (plain `f64`s).
///
/// ```
/// use hotdog_storage::columnar::compact_mults;
///
/// assert_eq!(compact_mults(&[1.0, -2.0, 3.0], &[true, false, true]), vec![1.0, 3.0]);
/// ```
pub fn compact_mults(src: &[Mult], keep: &[bool]) -> Vec<Mult> {
    debug_assert_eq!(src.len(), keep.len());
    src.iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(m, _)| *m)
        .collect()
}

/// Gather `src[idx[j]]` for each output row `j` — the column-at-a-time half
/// of a join probe's fan-out.  The probe loop records, per output row, which
/// input row it fans out from; every previously bound column is then gathered
/// through that index vector in one pass instead of being re-materialized
/// tuple by tuple.
///
/// ```
/// use hotdog_algebra::value::Value;
/// use hotdog_storage::columnar::gather_column;
///
/// let col = vec![Value::Long(10), Value::Long(20)];
/// // Row 0 matched twice, row 1 once.
/// assert_eq!(
///     gather_column(&col, &[0, 0, 1]),
///     vec![Value::Long(10), Value::Long(10), Value::Long(20)]
/// );
/// ```
pub fn gather_column(src: &[Value], idx: &[u32]) -> Vec<Value> {
    idx.iter().map(|&i| src[i as usize].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::tuple;

    fn sample() -> ColumnarBatch {
        ColumnarBatch::from_rows(
            Schema::new(["a", "b"]),
            vec![
                (tuple![1, 10], 1.0),
                (tuple![2, 10], 1.0),
                (tuple![3, 20], -1.0),
                (tuple![1, 10], 2.0),
            ],
        )
    }

    #[test]
    fn push_and_row_round_trip() {
        let b = sample();
        assert_eq!(b.len(), 4);
        assert_eq!(b.row(2), (tuple![3, 20], -1.0));
    }

    #[test]
    fn filter_column_keeps_matching_rows() {
        let b = sample().filter_column("b", |v| v == &Value::Long(10));
        assert_eq!(b.len(), 3);
        assert!(b.rows().all(|(t, _)| t.get(1) == &Value::Long(10)));
    }

    #[test]
    fn pre_aggregate_merges_duplicates() {
        let r = sample().pre_aggregate(&Schema::new(["b"]));
        assert_eq!(r.get(&tuple![10]), 4.0);
        assert_eq!(r.get(&tuple![20]), -1.0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn pre_aggregate_can_cancel_out() {
        let b = ColumnarBatch::from_rows(
            Schema::new(["a"]),
            vec![(tuple![1], 1.0), (tuple![1], -1.0)],
        );
        assert!(b.pre_aggregate(&Schema::new(["a"])).is_empty());
    }

    #[test]
    fn pre_aggregate_iterates_identically_across_calls() {
        let b = ColumnarBatch::from_rows(
            Schema::new(["a", "b"]),
            (0..2000i64).map(|i| (tuple![i, i % 500], 1.0 + (i % 3) as f64)),
        );
        let seq = || {
            b.pre_aggregate(&Schema::new(["b"]))
                .iter()
                .map(|(t, m)| (t.clone(), m.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = seq();
        assert_eq!(first.len(), 500);
        assert_eq!(first, seq());
    }

    #[test]
    fn to_relation_merges_rows() {
        let r = sample().to_relation();
        assert_eq!(r.get(&tuple![1, 10]), 3.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn split_partitions_all_rows() {
        let parts = sample().split(3);
        assert_eq!(parts.iter().map(ColumnarBatch::len).sum::<usize>(), 4);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn serialized_size_positive() {
        assert!(sample().serialized_size() > 0);
        assert!(ColumnarBatch::new(Schema::new(["a"])).serialized_size() > 0);
    }

    #[test]
    fn column_accessor_by_name() {
        let b = sample();
        assert_eq!(b.column("a").unwrap().len(), 4);
        assert!(b.column("zzz").is_none());
    }
}
