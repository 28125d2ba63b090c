//! Generalized multiset relations: finite maps from tuples to multiplicities.
//!
//! This is the reference, hash-map-backed representation used by the
//! from-scratch evaluator, by tests, and as the exchange format between the
//! driver and the workers of the simulated cluster.  The execution engine
//! stores materialized views in the specialized record pools of
//! `hotdog-storage` instead.

use crate::hash::{DetMap, Fnv1a};
use crate::ring::{Mult, MULT_EPSILON};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::hash::Hash;

/// A generalized multiset relation: unique tuples with non-zero multiplicity.
///
/// The backing map uses the fixed-seed folded-multiply hasher of
/// [`crate::hash`]: iteration order is a deterministic function of the
/// insertion history, which makes the floating-point accumulation it feeds
/// (joins, group-bys, scatters) reproducible across backends and runs.
/// Relations that cross an exchange point are built *canonically* — from
/// empty, by inserting in sorted tuple order ([`Relation::canonical`],
/// [`Relation::project_canonical`]) — so their layout is a pure function of
/// content; the sort runs over references ([`Relation::sorted_refs`]), once
/// per relation.
#[derive(Clone, Default)]
pub struct Relation {
    schema: Schema,
    data: DetMap<Tuple, Mult>,
    /// Incrementally maintained serialized footprint (see
    /// [`Relation::serialized_size`]): the sum of every resident tuple's
    /// value bytes plus its 8-byte multiplicity.  Kept in lock-step by
    /// [`Relation::add`] so size queries are O(1) — the pipelined runtime
    /// reads it on every admission for byte-bounded backpressure.
    bytes: usize,
}

impl Relation {
    /// Empty relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            data: DetMap::default(),
            bytes: 0,
        }
    }

    /// Build from (tuple, multiplicity) pairs, merging duplicates.
    pub fn from_pairs(schema: Schema, pairs: impl IntoIterator<Item = (Tuple, Mult)>) -> Self {
        let mut rel = Relation::new(schema);
        for (t, m) in pairs {
            rel.add(t, m);
        }
        rel
    }

    /// A scalar (0-ary) relation holding a single aggregate value.
    pub fn scalar(value: Mult) -> Self {
        let mut rel = Relation::new(Schema::empty());
        rel.add(Tuple::empty(), value);
        rel
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples with non-zero multiplicity.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Multiplicity of a tuple (0 if absent); `tuple` is a `&Tuple` or,
    /// to probe without building one, a `&[Value]`.
    pub fn get<K: Hash + Eq + ?Sized>(&self, tuple: &K) -> Mult
    where
        Tuple: Borrow<K>,
    {
        self.data.get(tuple).copied().unwrap_or(0.0)
    }

    /// Add `mult` to the multiplicity of `tuple`, removing the entry if the
    /// result is (numerically) zero.
    pub fn add(&mut self, tuple: Tuple, mult: Mult) {
        if mult == 0.0 {
            return;
        }
        let tuple_bytes = tuple.values_size() + 8;
        use std::collections::hash_map::Entry;
        match self.data.entry(tuple) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += mult;
                if e.get().abs() < MULT_EPSILON {
                    e.remove();
                    self.bytes -= tuple_bytes;
                }
            }
            Entry::Vacant(v) => {
                v.insert(mult);
                self.bytes += tuple_bytes;
            }
        }
    }

    /// Merge another relation into this one (bag union `+=`).
    pub fn merge(&mut self, other: &Relation) {
        for (t, m) in other.iter() {
            self.add(t.clone(), m);
        }
    }

    /// Bag union producing a new relation.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Negate all multiplicities.
    pub fn negate(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            data: self.data.iter().map(|(t, m)| (t.clone(), -m)).collect(),
            bytes: self.bytes,
        }
    }

    /// Multiplicity-preserving projection (the `Sum` operator): group by the
    /// given columns and sum multiplicities.
    pub fn project_sum(&self, group_by: &Schema) -> Relation {
        let positions: Vec<usize> = group_by
            .iter()
            .map(|c| {
                self.schema
                    .position(c)
                    .unwrap_or_else(|| panic!("column {c} not in schema {:?}", self.schema))
            })
            .collect();
        self.project_sum_at(&positions, group_by.clone())
    }

    /// [`Relation::project_sum`] onto the columns at `positions`, named by
    /// `schema` (positional, so the result may rename the columns).
    pub fn project_sum_at(&self, positions: &[usize], schema: Schema) -> Relation {
        let mut out = Relation::new(schema);
        for (t, m) in &self.data {
            out.add(t.project(positions), *m);
        }
        out
    }

    /// `project_sum_at(positions, schema).canonical()` in one pass, with one
    /// hash per result tuple: project, stable-sort by projected tuple, sum
    /// each run of equal tuples under [`Relation::add`]'s rules (zero
    /// multiplicities are skipped, a sum that cancels to zero drops the
    /// tuple, and a later reappearance starts afresh), and insert the sums
    /// in sorted order.  The stable sort keeps this relation's iteration
    /// order inside each run, so every sum is accumulated in the same order
    /// as `project_sum_at`'s and the result is bit-identical to it, in
    /// content and in layout.
    pub fn project_canonical(&self, positions: &[usize], schema: Schema) -> Relation {
        self.project_canonical_weighted(positions, schema, |_, m| m)
    }

    /// [`Relation::project_canonical`] with each tuple's multiplicity first
    /// mapped by `weigh`, in the same pass: a tuple `weigh` maps to 0 is
    /// dropped, so a selection and a weighing precede the projection with
    /// no intermediate relation.
    pub fn project_canonical_weighted(
        &self,
        positions: &[usize],
        schema: Schema,
        weigh: impl Fn(&Tuple, Mult) -> Mult,
    ) -> Relation {
        let mut rows: Vec<(Tuple, Mult)> = self
            .iter()
            .map(|(t, m)| (t, weigh(t, m)))
            .filter(|&(_, m)| m != 0.0)
            .map(|(t, m)| (t.project(positions), m))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Relation::new(schema);
        let mut live: Option<(Tuple, Mult)> = None;
        for (t, m) in rows {
            match &mut live {
                Some((key, sum)) if *key == t => {
                    *sum += m;
                    if sum.abs() < MULT_EPSILON {
                        live = None;
                    }
                }
                _ => {
                    if let Some((key, sum)) = live.replace((t, m)) {
                        out.add(key, sum);
                    }
                }
            }
        }
        if let Some((key, sum)) = live {
            out.add(key, sum);
        }
        out
    }

    /// Iterate over (tuple, multiplicity) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, Mult)> {
        self.data.iter().map(|(t, m)| (t, *m))
    }

    /// Contents by reference, in sorted tuple order: the one sort that
    /// [`Relation::sorted`], [`Relation::canonical`], [`Relation::checksum`],
    /// the wire encoding and `partition_shards` are built on.  Tuples are
    /// unique, so the order is a pure function of content.
    pub fn sorted_refs(&self) -> Vec<(&Tuple, Mult)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Deterministically ordered contents, for stable test assertions and
    /// printing.
    pub fn sorted(&self) -> Vec<(Tuple, Mult)> {
        self.sorted_refs()
            .into_iter()
            .map(|(t, m)| (t.clone(), m))
            .collect()
    }

    /// The single aggregate value of a scalar relation (0 if empty).
    pub fn scalar_value(&self) -> Mult {
        self.get(&Tuple::empty())
    }

    /// Total serialized size in bytes (tuple values + 8-byte
    /// multiplicities); used for shuffle accounting in the distributed
    /// runtime and for the pipelined runtime's byte-bounded admission
    /// queue.  Maintained incrementally by [`Relation::add`], so this is
    /// O(1) — cheap enough to read on every admission.
    ///
    /// Relation to the real wire codec (`hotdog-net`): the
    /// column-contiguous relation encoding carries arity once in the
    /// schema (no per-row framing) and spends one tag byte per value plus
    /// a per-relation header (encoded schema + 4-byte tuple count), so an
    /// encoded relation is exactly
    /// `serialized_size() + Σ tuple arity + header` bytes — the O(1)
    /// accounting undercounts the wire by one byte per value plus the
    /// fixed header, and never overcounts.  A reconciliation test in
    /// `hotdog-net` pins this bound against the actual encoder.
    pub fn serialized_size(&self) -> usize {
        self.bytes
    }

    /// Rebuild this relation by inserting its (tuple, multiplicity) pairs
    /// in **sorted tuple order** into an empty map — the *wire-canonical
    /// layout*.
    ///
    /// Iteration order of the backing map is a deterministic function of
    /// the insertion history (see [`crate::hash`]), so two relations with
    /// equal contents can still iterate differently if they were built
    /// differently — e.g. an in-process relation versus the same relation
    /// decoded from a byte stream.  Rebuilding from the sorted pair list
    /// collapses both to the *same* insertion history (pure inserts, sorted
    /// order, from empty), making the layout a pure function of content.
    /// Every execution backend builds relations canonically at its exchange
    /// points (batch preprocessing via [`Relation::project_canonical_weighted`],
    /// `partition_shards`, gathers via `relabel`), which is what lets a real
    /// socket transport — whose decoder can only replay the pair list — be
    /// held bit-for-bit against the in-process backends.
    pub fn canonical(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for (t, m) in self.sorted_refs() {
            out.add(t.clone(), m);
        }
        out
    }

    /// Order-canonical, bit-exact digest of the relation's contents.
    ///
    /// Tuples are folded in sorted key order — never in map iteration order —
    /// so two relations holding bit-identical (tuple, multiplicity) pairs
    /// produce the same checksum no matter how their backing maps happen to
    /// be laid out.  Multiplicities enter via their raw IEEE-754 bits, which
    /// is what lets the equivalence suites assert *bit-for-bit* equality on
    /// floating-point workloads (deterministic hashing makes the backends'
    /// arithmetic identical; the sorted fold makes the comparison
    /// representation-independent).
    pub fn checksum(&self) -> ViewChecksum {
        let mut digest = Fnv1a::default();
        for (t, m) in self.sorted_refs() {
            for v in &t.0 {
                match v {
                    Value::Long(x) => {
                        digest.write(&[0]);
                        digest.write_u64(*x as u64);
                    }
                    Value::Double(x) => {
                        digest.write(&[1]);
                        digest.write_u64(x.to_bits());
                    }
                    Value::Str(s) => {
                        digest.write(&[2]);
                        digest.write_u64(s.len() as u64);
                        digest.write(s.as_bytes());
                    }
                    Value::Bool(b) => digest.write(&[3, *b as u8]),
                }
            }
            digest.write(&[0xFF]);
            digest.write_u64(m.to_bits());
        }
        ViewChecksum {
            tuples: self.data.len(),
            digest: digest.finish(),
        }
    }

    /// Two relations are equivalent if they contain the same tuples with
    /// multiplicities equal up to a small tolerance.
    pub fn approx_eq(&self, other: &Relation) -> bool {
        self.approx_eq_eps(other, 1e-6)
    }

    /// Like [`Relation::approx_eq`] but with an explicit absolute/relative
    /// tolerance (useful for large floating-point aggregates).
    pub fn approx_eq_eps(&self, other: &Relation, eps: f64) -> bool {
        let close = |a: f64, b: f64| {
            let diff = (a - b).abs();
            diff <= eps || diff <= eps * a.abs().max(b.abs())
        };
        for (t, m) in &self.data {
            if !close(*m, other.get(t)) {
                return false;
            }
        }
        for (t, m) in &other.data {
            if !close(*m, self.get(t)) {
                return false;
            }
        }
        true
    }
}

/// Bit-exact digest of one view's contents (see [`Relation::checksum`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewChecksum {
    /// Number of tuples with non-zero multiplicity.
    pub tuples: usize,
    /// FNV-1a digest over the sorted (tuple, multiplicity-bits) sequence.
    pub digest: u64,
}

impl fmt::Display for ViewChecksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tuples, digest {:016x}", self.tuples, self.digest)
    }
}

/// Contents by value, in [`Relation::iter`] order: a consumer moves the
/// tuples instead of cloning them.
impl IntoIterator for Relation {
    type Item = (Tuple, Mult);
    type IntoIter = std::collections::hash_map::IntoIter<Tuple, Mult>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{:?} {{", self.schema)?;
        for (t, m) in self.sorted_refs() {
            writeln!(f, "  {t} -> {m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn add_merges_and_removes_zeros() {
        let mut r = Relation::new(Schema::new(["a"]));
        r.add(tuple![1], 2.0);
        r.add(tuple![1], 3.0);
        assert_eq!(r.get(&tuple![1]), 5.0);
        r.add(tuple![1], -5.0);
        assert!(r.is_empty());
        // A rounding residue below `MULT_EPSILON` counts as zero; a small
        // multiplicity above it does not.
        r.add(tuple![2], 0.1 + 0.2);
        r.add(tuple![2], -0.3);
        r.add(tuple![3], 1e-3);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&tuple![3]), 1e-3);
    }

    #[test]
    fn union_and_negate_cancel() {
        let r = Relation::from_pairs(
            Schema::new(["a"]),
            vec![(tuple![1], 2.0), (tuple![2], -1.0)],
        );
        let z = r.union(&r.negate());
        assert!(z.is_empty());
    }

    #[test]
    fn project_sum_groups() {
        let r = Relation::from_pairs(
            Schema::new(["a", "b"]),
            vec![
                (tuple![1, 10], 2.0),
                (tuple![1, 20], 3.0),
                (tuple![2, 10], 4.0),
            ],
        );
        let p = r.project_sum(&Schema::new(["a"]));
        assert_eq!(p.get(&tuple![1]), 5.0);
        assert_eq!(p.get(&tuple![2]), 4.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn scalar_relation_round_trips() {
        let s = Relation::scalar(42.0);
        assert_eq!(s.scalar_value(), 42.0);
        assert_eq!(Relation::new(Schema::empty()).scalar_value(), 0.0);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Relation::from_pairs(Schema::new(["a"]), vec![(tuple![1], 1.0)]);
        let b = Relation::from_pairs(Schema::new(["a"]), vec![(tuple![1], 1.0 + 1e-9)]);
        assert!(a.approx_eq(&b));
        let c = Relation::from_pairs(Schema::new(["a"]), vec![(tuple![1], 1.1)]);
        assert!(!a.approx_eq(&c));
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = Relation::from_pairs(
            Schema::new(["a"]),
            vec![(tuple![3], 1.0), (tuple![1], 1.0), (tuple![2], 1.0)],
        );
        let keys: Vec<i64> = r
            .sorted()
            .iter()
            .map(|(t, _)| match t.get(0) {
                crate::value::Value::Long(v) => *v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn checksum_is_order_canonical_and_value_sensitive() {
        let a = Relation::from_pairs(
            Schema::new(["a"]),
            vec![(tuple![1], 1.0), (tuple![2], 2.0), (tuple![3], 3.0)],
        );
        let b = Relation::from_pairs(
            Schema::new(["a"]),
            vec![(tuple![3], 3.0), (tuple![1], 1.0), (tuple![2], 2.0)],
        );
        assert_eq!(a.checksum(), b.checksum());
        let c = Relation::from_pairs(
            Schema::new(["a"]),
            vec![(tuple![1], 1.0 + 1e-12), (tuple![2], 2.0), (tuple![3], 3.0)],
        );
        assert_ne!(a.checksum(), c.checksum(), "checksum must catch ulp drift");
        assert_eq!(a.checksum().tuples, 3);
    }

    #[test]
    fn consuming_iteration_follows_iter_order() {
        let mut r = Relation::new(Schema::new(["a", "b"]));
        for i in 0..64i64 {
            r.add(tuple![i % 13, i], 0.5 + i as f64);
        }
        // Removals leave tombstones in the backing table; the consuming
        // iterator must walk them exactly as `iter` does.
        for i in (0..64i64).step_by(3) {
            r.add(tuple![i % 13, i], -0.5 - i as f64);
        }
        r.add(tuple![99, 99], 1.0);
        let by_ref: Vec<(Tuple, u64)> = r.iter().map(|(t, m)| (t.clone(), m.to_bits())).collect();
        let by_value: Vec<(Tuple, u64)> = r.into_iter().map(|(t, m)| (t, m.to_bits())).collect();
        assert_eq!(by_value.len(), 64 - 22 + 1);
        assert_eq!(by_value, by_ref);
    }

    #[test]
    fn iteration_order_is_deterministic_across_instances() {
        let build = || {
            let mut r = Relation::new(Schema::new(["a"]));
            for i in [7i64, 3, 9, 1, 5, 2, 8] {
                r.add(tuple![i], 1.0);
            }
            r.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>()
        };
        assert_eq!(
            build(),
            build(),
            "fixed-seed hasher must fix iteration order"
        );
    }

    /// (tuple, multiplicity bits) in iteration order: layout and content.
    fn layout(r: &Relation) -> Vec<(Tuple, u64)> {
        r.iter().map(|(t, m)| (t.clone(), m.to_bits())).collect()
    }

    #[test]
    fn sorted_refs_agrees_with_sorted() {
        let r = Relation::from_pairs(
            Schema::new(["a", "b"]),
            (0..200i64).map(|i| (tuple![(i * 37) % 101, i], 0.5 + i as f64)),
        );
        let by_ref: Vec<(Tuple, Mult)> = r
            .sorted_refs()
            .into_iter()
            .map(|(t, m)| (t.clone(), m))
            .collect();
        assert_eq!(by_ref, r.sorted());
    }

    #[test]
    fn project_canonical_is_project_sum_then_canonical() {
        // Repeated keys whose float sums depend on accumulation order, plus
        // key 100, whose run cancels to zero and then reappears, and key
        // 101, whose run cancels for good.  A run is summed in `src`'s
        // iteration order, which depends on the keys only: build once to
        // learn key 100's order, then again with its multiplicities laid
        // out along it.
        let build = |k100: &dyn Fn(&Tuple) -> Mult| {
            let mut src = Relation::new(Schema::new(["k", "x", "y"]));
            for i in 0..300i64 {
                src.add(tuple![i % 17, i, i % 5], 0.1 * (i % 7) as f64 - 0.25);
            }
            for x in 1..=3 {
                let t = tuple![100, x, 0];
                let m = k100(&t);
                src.add(t, m);
            }
            src.add(tuple![101, 1, 0], 2.0);
            src.add(tuple![101, 2, 0], -2.0);
            src
        };
        let order: Vec<Tuple> = build(&|_| 1.0)
            .iter()
            .filter(|(t, _)| *t.get(0) == Value::Long(100))
            .map(|(t, _)| t.clone())
            .collect();
        let src = build(&|t| [1.5, -1.5, 0.7][order.iter().position(|o| o == t).unwrap()]);
        for positions in [vec![0], vec![2, 0], vec![1, 0, 2], vec![]] {
            let names: Vec<String> = (0..positions.len()).map(|i| format!("c{i}")).collect();
            let out = Schema::new(names);
            let want = src.project_sum_at(&positions, out.clone()).canonical();
            let got = src.project_canonical(&positions, out);
            assert_eq!(layout(&got), layout(&want), "positions {positions:?}");
            assert_eq!(got.serialized_size(), want.serialized_size());
        }
        let by_key = src.project_canonical(&[0], Schema::new(["k"]));
        assert_eq!(by_key.get(&tuple![100]), 0.7);
        assert_eq!(by_key.get(&tuple![101]), 0.0);
        assert!(!by_key.iter().any(|(t, _)| *t == tuple![101]));

        // A selection and a weighing in the same pass equal doing them
        // first.
        let weigh = |t: &Tuple, m: Mult| match t.get(2) {
            Value::Long(3) => 0.0,
            x => m * x.as_f64(),
        };
        let weighed = Relation::from_pairs(
            src.schema().clone(),
            src.iter().map(|(t, m)| (t.clone(), weigh(t, m))),
        );
        let want = weighed.project_canonical(&[0, 1], Schema::new(["k", "x"]));
        let got = src.project_canonical_weighted(&[0, 1], Schema::new(["k", "x"]), weigh);
        assert_eq!(layout(&got), layout(&want));
        assert!(got.len() < src.len());
    }

    #[test]
    fn serialized_size_counts_bytes() {
        let r = Relation::from_pairs(Schema::new(["a"]), vec![(tuple![1i64], 1.0)]);
        // One i64 value (8) + the 8-byte multiplicity; arity is carried by
        // the schema, not per row.
        assert_eq!(r.serialized_size(), 8 + 8);
    }

    #[test]
    fn serialized_size_tracks_mutation_incrementally() {
        // The O(1) counter must agree with a full recount through inserts,
        // multiplicity updates, cancellation and merges.
        let recount =
            |r: &Relation| -> usize { r.iter().map(|(t, _)| t.values_size() + 8).sum::<usize>() };
        let mut r = Relation::new(Schema::new(["a", "b"]));
        assert_eq!(r.serialized_size(), 0);
        r.add(tuple![1, 2], 1.0);
        r.add(tuple![3, 4], 2.0);
        assert_eq!(r.serialized_size(), recount(&r));
        // Multiplicity update on a resident tuple: size unchanged.
        let before = r.serialized_size();
        r.add(tuple![1, 2], 5.0);
        assert_eq!(r.serialized_size(), before);
        // Cancellation removes the entry and its bytes.
        r.add(tuple![3, 4], -2.0);
        assert_eq!(r.serialized_size(), recount(&r));
        // merge / union / negate preserve the invariant.
        let other = Relation::from_pairs(
            Schema::new(["a", "b"]),
            vec![(tuple![1, 2], -6.0), (tuple![9, 9], 1.0)],
        );
        r.merge(&other);
        assert_eq!(r.serialized_size(), recount(&r));
        assert_eq!(r.negate().serialized_size(), r.serialized_size());
        let u = r.union(&other);
        assert_eq!(u.serialized_size(), recount(&u));
    }
}
