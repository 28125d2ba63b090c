//! # hotdog-storage
//!
//! Specialized data structures for materialized views and update batches
//! (Section 5.2 of the paper):
//!
//! * [`pool::RecordPool`] — the multi-indexed record pool used for dynamic
//!   materialized views: every key stored once in one value slab with an
//!   arity stride (a record is no allocation of its own), a unique index
//!   over the full key and non-unique indexes for `slice` access patterns.
//!   Its scan and slice order (slot order, LIFO slot reuse, vector order
//!   per key) is part of its contract, pinned by an order-model property
//!   test;
//! * [`index::HashIndex`] — the one hash index: a table from a 64-bit hash
//!   to a chain of member ids (16 bytes an entry), behind every index of a
//!   record pool and `hotdog-exec`'s per-call slice index over a batch or
//!   an exchange buffer;
//! * [`columnar::ColumnarBatch`] — column-oriented update batches supporting
//!   static-predicate filtering and batch pre-aggregation.
//!
//! The [`columnar`] module also exports the **vectorized kernels**
//! ([`columnar::compact_column`], [`columnar::compact_mults`],
//! [`columnar::gather_column`]) that the columnar trigger interpreter
//! (`hotdog_exec::vectorized`) applies to whole column slices —
//! one dispatch per operator per batch instead of one per tuple.  They are
//! plain functions over `&[Value]` so both the batch admission path and
//! the trigger executor share one implementation.
//!
//! Everything here is layout, not policy: which index a plan probes, or
//! whether a statement runs row-at-a-time or vectorized, is decided in
//! `hotdog-exec`; this crate guarantees the two access paths observe the
//! same bytes in the same order.

#![forbid(unsafe_code)]

pub mod columnar;
pub mod index;
#[cfg(test)]
mod order_model;
pub mod pool;

pub use columnar::ColumnarBatch;
pub use index::HashIndex;
pub use pool::{PoolCounters, RecordPool};

#[cfg(test)]
mod proptests {
    use crate::pool::RecordPool;
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple::Tuple;
    use hotdog_algebra::value::Value;
    use proptest::prelude::*;

    /// Arbitrary update sequences over a small key domain.
    fn ops_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
        prop::collection::vec((0i64..20, 0i64..5, -3.0f64..3.0), 0..200)
    }

    proptest! {
        /// A record pool must behave exactly like the reference hash-map
        /// relation under an arbitrary sequence of `update` operations.
        #[test]
        fn pool_matches_reference_relation(ops in ops_strategy()) {
            let mut pool = RecordPool::with_secondary_indexes(2, &[vec![1]]);
            let mut reference = Relation::new(Schema::new(["a", "b"]));
            for (a, b, m) in ops {
                let t = Tuple::from(vec![Value::Long(a), Value::Long(b)]);
                pool.update(t.clone(), m);
                reference.add(t, m);
            }
            prop_assert_eq!(pool.len(), reference.len());
            for (t, m) in reference.iter() {
                prop_assert!((pool.get(&t.0) - m).abs() < 1e-6);
            }
            // Slices through the secondary index agree with a filtered scan
            // of the reference.
            for b in 0i64..5 {
                let mut got = 0.0;
                pool.slice(&[1], &[Value::Long(b)], &mut |_, m| got += m);
                let want: f64 = reference
                    .iter()
                    .filter(|(t, _)| t.get(1) == &Value::Long(b))
                    .map(|(_, m)| m)
                    .sum();
                prop_assert!((got - want).abs() < 1e-6);
            }
        }

        /// Columnar pre-aggregation preserves per-group totals.
        #[test]
        fn pre_aggregation_preserves_group_totals(
            rows in prop::collection::vec((0i64..10, 0i64..10, -2.0f64..2.0), 0..100)
        ) {
            use crate::columnar::ColumnarBatch;
            let schema = Schema::new(["a", "b"]);
            let batch = ColumnarBatch::from_rows(
                schema,
                rows.iter().map(|(a, b, m)| {
                    (Tuple::from(vec![Value::Long(*a), Value::Long(*b)]), *m)
                }),
            );
            let agg = batch.pre_aggregate(&Schema::new(["b"]));
            for b in 0i64..10 {
                let want: f64 = rows.iter().filter(|(_, rb, _)| *rb == b).map(|(_, _, m)| m).sum();
                let got = agg.get(&Tuple::from(vec![Value::Long(b)]));
                prop_assert!((got - want).abs() < 1e-6);
            }
        }
    }
}
