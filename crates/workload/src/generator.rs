//! Seeded synthetic data generators for the TPC-H-shaped and TPC-DS-shaped
//! workloads, and the streaming wrapper that interleaves insertions to the
//! base relations in round-robin fashion (Section 6, "Query and Data
//! Workload").

use crate::schema::{TableDef, TPCDS_TABLES, TPCH_TABLES};
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One update event of the stream: a tuple with a multiplicity delta
/// (`+1.0` insertion, `-1.0` deletion).
#[derive(Clone, Debug)]
pub struct StreamEvent {
    pub relation: &'static str,
    pub tuple: Tuple,
    pub mult: Mult,
}

/// A finite stream of insertions, pre-interleaved across base relations.
#[derive(Clone, Debug, Default)]
pub struct UpdateStream {
    pub events: Vec<StreamEvent>,
    schemas: HashMap<&'static str, hotdog_algebra::schema::Schema>,
}

impl UpdateStream {
    /// Number of tuples in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schema of a streamed relation.
    pub fn schema(&self, relation: &str) -> Option<&hotdog_algebra::schema::Schema> {
        self.schemas.get(relation)
    }

    /// Group one chunk of consecutive events per relation (a trigger
    /// handles updates to one relation at a time), preserving first-seen
    /// relation order.
    fn group_chunk(&self, chunk: &[StreamEvent]) -> Vec<(&'static str, Relation)> {
        let mut per_rel: Vec<(&'static str, Relation)> = Vec::new();
        for ev in chunk {
            match per_rel.iter_mut().find(|(r, _)| *r == ev.relation) {
                Some((_, rel)) => rel.add(ev.tuple.clone(), ev.mult),
                None => {
                    let mut rel = Relation::new(self.schemas[ev.relation].clone());
                    rel.add(ev.tuple.clone(), ev.mult);
                    per_rel.push((ev.relation, rel));
                }
            }
        }
        per_rel
    }

    /// Chunk the stream into batches of `batch_size` consecutive events,
    /// each grouped per relation (a trigger handles updates to one
    /// relation at a time).
    pub fn batches(&self, batch_size: usize) -> Vec<Vec<(&'static str, Relation)>> {
        assert!(batch_size > 0);
        self.events
            .chunks(batch_size)
            .map(|chunk| self.group_chunk(chunk))
            .collect()
    }

    /// Accumulate the whole stream into per-relation relations (the final
    /// database state, used as ground truth by tests).
    pub fn accumulate(&self) -> HashMap<&'static str, Relation> {
        let mut acc: HashMap<&'static str, Relation> = HashMap::new();
        for ev in &self.events {
            acc.entry(ev.relation)
                .or_insert_with(|| Relation::new(self.schemas[ev.relation].clone()))
                .add(ev.tuple.clone(), ev.mult);
        }
        acc
    }

    /// Turn an insert-only stream into a mixed insert/delete stream:
    /// approximately `fraction` of the events are followed (at a random
    /// later position) by a deletion of the inserted tuple.  Each inserted
    /// tuple is deleted at most once, and a deletion is always placed
    /// *after* its insertion, so relations never go net-negative.  The
    /// result is seeded and deterministic.
    pub fn with_deletions(mut self, seed: u64, fraction: f64) -> UpdateStream {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE1E7E);
        let n = self.events.len();
        let mut out: Vec<StreamEvent> = Vec::with_capacity(n * 2);
        // For every insertion position, decide up front whether (and how far
        // after its insertion) it is deleted; deletions due at position i
        // are emitted right after the i-th surviving original event.
        let mut due: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            if rng.gen_range(0.0..1.0) < fraction {
                let at = rng.gen_range(i..n);
                due.entry(at).or_default().push(i);
            }
        }
        for (i, ev) in self.events.iter().enumerate() {
            out.push(ev.clone());
            if let Some(victims) = due.get(&i) {
                for &v in victims {
                    let insert = &self.events[v];
                    out.push(StreamEvent {
                        relation: insert.relation,
                        tuple: insert.tuple.clone(),
                        mult: -insert.mult,
                    });
                }
            }
        }
        self.events = out;
        self
    }
}

/// Proportionally interleave per-table rows into one stream: at every step
/// the table that is most "behind" (fraction emitted) contributes its next
/// row, approximating the round-robin interleaving of the paper while
/// respecting the very different table cardinalities.
fn interleave(tables: Vec<(&'static TableDef, Vec<Tuple>)>) -> UpdateStream {
    let mut schemas = HashMap::new();
    for (t, _) in &tables {
        schemas.insert(t.name, t.schema());
    }
    let total: usize = tables.iter().map(|(_, rows)| rows.len()).sum();
    let mut cursors = vec![0usize; tables.len()];
    let mut events = Vec::with_capacity(total);
    for _ in 0..total {
        // Pick the table with the lowest emitted fraction that still has rows.
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, rows)) in tables.iter().enumerate() {
            if cursors[i] >= rows.len() {
                continue;
            }
            let frac = cursors[i] as f64 / rows.len() as f64;
            if best.map(|(_, bf)| frac < bf).unwrap_or(true) {
                best = Some((i, frac));
            }
        }
        let (i, _) = best.expect("total count mismatch");
        events.push(StreamEvent {
            relation: tables[i].0.name,
            tuple: tables[i].1[cursors[i]].clone(),
            mult: 1.0,
        });
        cursors[i] += 1;
    }
    UpdateStream { events, schemas }
}

fn date(rng: &mut StdRng, from_year: i64, to_year: i64) -> i64 {
    let y = rng.gen_range(from_year..=to_year);
    let m = rng.gen_range(1..=12i64);
    let d = rng.gen_range(1..=28i64);
    y * 10_000 + m * 100 + d
}

/// Generate a TPC-H-shaped stream with approximately `total_tuples` events.
///
/// Table cardinalities follow the TPC-H ratios (LINEITEM : ORDERS :
/// PARTSUPP : PART : CUSTOMER : SUPPLIER ≈ 6,000,000 : 1,500,000 : 800,000 :
/// 200,000 : 150,000 : 10,000 per scale factor), with the tiny NATION and
/// REGION dimensions fixed at 25 and 5 rows.
pub fn generate_tpch(seed: u64, total_tuples: usize) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(seed);
    // Ratios per scale factor.
    let unit = (total_tuples as f64 / 8_660_030.0).max(1e-9);
    let n_lineitem = ((6_000_000.0 * unit) as usize).max(8);
    let n_orders = ((1_500_000.0 * unit) as usize).max(4);
    let n_partsupp = ((800_000.0 * unit) as usize).max(4);
    let n_part = ((200_000.0 * unit) as usize).max(3);
    let n_customer = ((150_000.0 * unit) as usize).max(3);
    let n_supplier = ((10_000.0 * unit) as usize).max(2);
    let n_nation = 25usize;
    let n_region = 5usize;

    let lng = Value::Long;
    let dbl = Value::Double;

    let mut lineitem = Vec::with_capacity(n_lineitem);
    for _ in 0..n_lineitem {
        let qty = rng.gen_range(1..=50i64);
        let price = qty as f64 * rng.gen_range(900.0..10_000.0);
        lineitem.push(Tuple::from(vec![
            lng(rng.gen_range(1..=n_orders as i64)),      // l_orderkey
            lng(rng.gen_range(1..=n_part as i64)),        // l_partkey
            lng(rng.gen_range(1..=n_supplier as i64)),    // l_suppkey
            lng(qty),                                     // l_quantity
            dbl((price * 100.0).round() / 100.0),         // l_extendedprice
            dbl(rng.gen_range(0..=10i64) as f64 / 100.0), // l_discount
            lng(date(&mut rng, 1992, 1998)),              // l_shipdate
            lng(rng.gen_range(0..3i64)),                  // l_returnflag
            lng(rng.gen_range(0..2i64)),                  // l_linestatus
            lng(rng.gen_range(0..7i64)),                  // l_shipmode
        ]));
    }

    let mut orders = Vec::with_capacity(n_orders);
    for k in 1..=n_orders as i64 {
        orders.push(Tuple::from(vec![
            lng(k),                                    // o_orderkey
            lng(rng.gen_range(1..=n_customer as i64)), // o_custkey
            lng(rng.gen_range(0..3i64)),               // o_orderstatus
            dbl(rng.gen_range(1_000.0..500_000.0)),    // o_totalprice
            lng(date(&mut rng, 1992, 1998)),           // o_orderdate
            lng(rng.gen_range(0..5i64)),               // o_orderpriority
            lng(0),                                    // o_shippriority
        ]));
    }

    let mut customer = Vec::with_capacity(n_customer);
    for k in 1..=n_customer as i64 {
        customer.push(Tuple::from(vec![
            lng(k),                       // c_custkey
            lng(rng.gen_range(0..25i64)), // c_nationkey
            lng(rng.gen_range(0..5i64)),  // c_mktsegment
            dbl(rng.gen_range(-999.0..10_000.0)),
        ]));
    }

    let mut supplier = Vec::with_capacity(n_supplier);
    for k in 1..=n_supplier as i64 {
        supplier.push(Tuple::from(vec![
            lng(k),
            lng(rng.gen_range(0..25i64)),
            dbl(rng.gen_range(-999.0..10_000.0)),
        ]));
    }

    let mut part = Vec::with_capacity(n_part);
    for k in 1..=n_part as i64 {
        part.push(Tuple::from(vec![
            lng(k),                        // p_partkey
            lng(rng.gen_range(0..25i64)),  // p_brand
            lng(rng.gen_range(0..150i64)), // p_type
            lng(rng.gen_range(1..=50i64)), // p_size
            lng(rng.gen_range(0..40i64)),  // p_container
            dbl(rng.gen_range(900.0..2_000.0)),
        ]));
    }

    let mut partsupp = Vec::with_capacity(n_partsupp);
    for _ in 0..n_partsupp {
        partsupp.push(Tuple::from(vec![
            lng(rng.gen_range(1..=n_part as i64)),
            lng(rng.gen_range(1..=n_supplier as i64)),
            lng(rng.gen_range(1..=9_999i64)),
            dbl(rng.gen_range(1.0..1_000.0)),
        ]));
    }

    let nation: Vec<Tuple> = (0..n_nation as i64)
        .map(|k| Tuple::from(vec![lng(k), lng(k % n_region as i64)]))
        .collect();
    let region: Vec<Tuple> = (0..n_region as i64)
        .map(|k| Tuple::from(vec![lng(k)]))
        .collect();

    interleave(vec![
        (&TPCH_TABLES[0], lineitem),
        (&TPCH_TABLES[1], orders),
        (&TPCH_TABLES[2], customer),
        (&TPCH_TABLES[3], supplier),
        (&TPCH_TABLES[4], part),
        (&TPCH_TABLES[5], partsupp),
        (&TPCH_TABLES[6], nation),
        (&TPCH_TABLES[7], region),
    ])
}

/// Generate a TPC-DS-shaped stream with approximately `total_tuples` events.
pub fn generate_tpcds(seed: u64, total_tuples: usize) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = (total_tuples as f64 / 3_405_000.0).max(1e-9);
    let n_sales = ((2_880_000.0 * unit) as usize).max(8);
    let n_item = ((18_000.0 * unit) as usize).max(4);
    let n_customer = ((100_000.0 * unit) as usize).max(4);
    let n_demo = ((192_000.0 * unit) as usize).max(4);
    let n_hdemo = ((7_200.0 * unit) as usize).max(2);
    let n_store = ((200.0 * unit) as usize).max(2);
    let n_date = ((7_000.0 * unit) as usize).max(4);

    let lng = Value::Long;
    let dbl = Value::Double;

    let mut sales = Vec::with_capacity(n_sales);
    for t in 0..n_sales as i64 {
        let qty = rng.gen_range(1..=100i64);
        let price = rng.gen_range(1.0..300.0);
        sales.push(Tuple::from(vec![
            lng(rng.gen_range(1..=n_item as i64)),
            lng(rng.gen_range(1..=n_customer as i64)),
            lng(rng.gen_range(1..=n_demo as i64)),
            lng(rng.gen_range(1..=n_store as i64)),
            lng(rng.gen_range(1..=n_date as i64)),
            lng(qty),
            dbl(price),
            dbl(price * qty as f64),
            lng(rng.gen_range(1..=n_hdemo as i64)),
            lng(t),
        ]));
    }
    let mut date_dim = Vec::with_capacity(n_date);
    for k in 1..=n_date as i64 {
        date_dim.push(Tuple::from(vec![
            lng(k),
            lng(1998 + (k % 7)), // d_year
            lng(1 + (k % 12)),   // d_moy
            lng(1 + (k % 28)),   // d_dom
            lng(k % 7),          // d_dow
        ]));
    }
    let mut item = Vec::with_capacity(n_item);
    for k in 1..=n_item as i64 {
        item.push(Tuple::from(vec![
            lng(k),
            lng(rng.gen_range(0..1_000i64)), // i_brand_id
            lng(rng.gen_range(0..10i64)),    // i_category_id
            lng(rng.gen_range(0..1_000i64)), // i_manufact_id
            lng(rng.gen_range(0..100i64)),   // i_manager_id
        ]));
    }
    let store: Vec<Tuple> = (1..=n_store as i64)
        .map(|k| Tuple::from(vec![lng(k), lng(k % 30), lng(k % 50)]))
        .collect();
    let mut customer = Vec::with_capacity(n_customer);
    for k in 1..=n_customer as i64 {
        customer.push(Tuple::from(vec![
            lng(k),
            lng(rng.gen_range(1..=n_demo as i64)),
            lng(rng.gen_range(1..=50_000i64)),
        ]));
    }
    let demographics: Vec<Tuple> = (1..=n_demo as i64)
        .map(|k| Tuple::from(vec![lng(k), lng(k % 2), lng(k % 5), lng(k % 7)]))
        .collect();
    let hdemo: Vec<Tuple> = (1..=n_hdemo as i64)
        .map(|k| Tuple::from(vec![lng(k), lng(k % 10), lng(k % 5)]))
        .collect();

    interleave(vec![
        (&TPCDS_TABLES[0], sales),
        (&TPCDS_TABLES[1], date_dim),
        (&TPCDS_TABLES[2], item),
        (&TPCDS_TABLES[3], store),
        (&TPCDS_TABLES[4], customer),
        (&TPCDS_TABLES[5], demographics),
        (&TPCDS_TABLES[6], hdemo),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpch_stream_is_deterministic_and_sized() {
        let a = generate_tpch(42, 2_000);
        let b = generate_tpch(42, 2_000);
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 1_900 && a.len() <= 2_200, "len = {}", a.len());
        assert_eq!(a.events[0].tuple, b.events[0].tuple);
        let c = generate_tpch(43, 2_000);
        assert_ne!(
            a.events.iter().map(|e| e.tuple.clone()).collect::<Vec<_>>(),
            c.events.iter().map(|e| e.tuple.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tpch_cardinality_ratios_roughly_hold() {
        let s = generate_tpch(7, 10_000);
        let acc = s.accumulate();
        let li = acc["LINEITEM"].len() as f64;
        let ord = acc["ORDERS"].len() as f64;
        assert!(li / ord > 2.5 && li / ord < 6.0, "ratio {}", li / ord);
        assert!(acc.contains_key("NATION"));
        assert_eq!(acc["REGION"].len(), 5);
    }

    #[test]
    fn interleaving_spreads_relations_through_the_stream() {
        let s = generate_tpch(1, 5_000);
        // The first 10% of the stream must already contain lineitem, orders
        // and customer events (round-robin, not table-by-table).
        let head = &s.events[..s.len() / 10];
        for rel in ["LINEITEM", "ORDERS", "CUSTOMER"] {
            assert!(
                head.iter().any(|e| e.relation == rel),
                "{rel} missing from stream head"
            );
        }
    }

    #[test]
    fn batches_partition_the_stream() {
        let s = generate_tpch(1, 1_000);
        let batches = s.batches(100);
        let total: usize = batches
            .iter()
            .flat_map(|b| b.iter().map(|(_, r)| r.len()))
            .sum();
        // Tuples are unique with multiplicity 1, so counts add up (duplicates
        // inside one batch would merge, but generated tuples are distinct
        // with very high probability for small streams).
        assert!(
            total <= s.len() && total as f64 >= s.len() as f64 * 0.95,
            "total = {total}, stream = {}",
            s.len()
        );
        assert_eq!(batches.len(), s.len().div_ceil(100));
    }

    #[test]
    fn accumulate_matches_event_count() {
        let s = generate_tpcds(5, 2_000);
        let acc = s.accumulate();
        let total: usize = acc.values().map(|r| r.len()).sum();
        assert!(total <= s.len());
        assert!(total as f64 >= s.len() as f64 * 0.95);
    }

    #[test]
    fn with_deletions_mixes_and_nets_out() {
        let base = generate_tpch(9, 2_000);
        let base_len = base.len();
        let mixed = base.with_deletions(9, 0.3);
        let deletions = mixed.events.iter().filter(|e| e.mult < 0.0).count();
        assert!(mixed.len() > base_len, "deletions must add events");
        assert_eq!(mixed.len(), base_len + deletions);
        // Roughly the requested fraction of insertions get deleted.
        let frac = deletions as f64 / base_len as f64;
        assert!((0.2..0.4).contains(&frac), "fraction = {frac}");
        // Every deletion cancels an insertion: the accumulated state is the
        // base state minus the deleted tuples, and nothing goes negative.
        for rel in mixed.accumulate().values() {
            for (_, m) in rel.iter() {
                assert!(m > 0.0, "net-negative multiplicity in mixed stream");
            }
        }
        // Determinism.
        let again = generate_tpch(9, 2_000).with_deletions(9, 0.3);
        assert_eq!(again.len(), mixed.len());
        assert_eq!(
            again.events[again.len() - 1].tuple,
            mixed.events[mixed.len() - 1].tuple
        );
    }

    #[test]
    fn tpcds_stream_has_all_tables() {
        let s = generate_tpcds(5, 3_000);
        let acc = s.accumulate();
        for t in TPCDS_TABLES {
            assert!(acc.contains_key(t.name), "{} missing", t.name);
        }
    }

    #[test]
    fn generated_tuples_match_table_arity() {
        let s = generate_tpch(3, 1_000);
        for ev in &s.events {
            let def = crate::schema::table(ev.relation).unwrap();
            assert_eq!(
                ev.tuple.arity(),
                def.arity(),
                "arity mismatch for {}",
                ev.relation
            );
        }
    }
}
