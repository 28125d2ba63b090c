//! Batch narrowing (Section 3.3): which columns of its update batch each
//! trigger keeps, and whether the narrowed batch still maintains every view
//! exactly.
//!
//! * `every_catalog_trigger_keeps_these_columns` pins the `Δ keeps k/n`
//!   part of [`BatchPrep::describe`](hotdog::ivm::BatchPrep::describe) for
//!   all 99 catalog triggers and prints it;
//! * `every_guard_leaf_sits_inside_its_guard` pins the shape the guard rule
//!   of `Trigger::kept_delta_positions` relies on, under every strategy and
//!   every distributed lowering;
//! * `a_domain_guard_never_cancels` is the value-term regression of domain
//!   extraction;
//! * `narrowed_triggers_survive_adversarial_batches` streams updates that
//!   cancel only after projection, or change a kept column, through every
//!   trigger that drops columns beyond its filter's.
//!
//! `cargo test --release --test batch_narrowing -- --nocapture` prints the
//! kept columns of every trigger.

use hotdog::distributed::{DistStmtKind, DistributedPlan};
use hotdog::prelude::*;

/// `(query, relation, kept columns)` for every trigger of every catalog
/// query's recursive plan.
#[rustfmt::skip]
const KEPT: [(&str, &str, &str); 99] = [
    ("Q1", "LINEITEM", "Δ keeps 2/10: l_returnflag, l_linestatus"),
    ("Q2", "NATION", "Δ keeps 2/2: NK, RK"),
    ("Q2", "PART", "Δ keeps 6/6: PK, p_brand, p_type, p_size, p_container, p_retailprice"),
    ("Q2", "PARTSUPP", "Δ keeps 4/4: PK, SK, ps_availqty, ps_supplycost"),
    ("Q2", "REGION", "Δ keeps 1/1: RK"),
    ("Q2", "SUPPLIER", "Δ keeps 2/3: SK, NK"),
    ("Q3", "CUSTOMER", "Δ keeps 1/4: CK"),
    ("Q3", "LINEITEM", "Δ keeps 1/10: OK"),
    ("Q3", "ORDERS", "Δ keeps 4/7: OK, CK, o_orderdate, o_shippriority"),
    ("Q4", "LINEITEM", "Δ keeps 2/10: OK, l_shipdate4"),
    ("Q4", "ORDERS", "Δ keeps 2/7: OK, o_orderpriority"),
    ("Q5", "CUSTOMER", "Δ keeps 2/4: CK, NK"),
    ("Q5", "LINEITEM", "Δ keeps 2/10: OK, SK"),
    ("Q5", "NATION", "Δ keeps 2/2: NK, RK"),
    ("Q5", "ORDERS", "Δ keeps 2/7: OK, CK"),
    ("Q5", "REGION", "Δ keeps 1/1: RK"),
    ("Q5", "SUPPLIER", "Δ keeps 2/3: SK, NK"),
    ("Q6", "LINEITEM", "Δ keeps 0/10"),
    ("Q7", "CUSTOMER", "Δ keeps 2/4: CK, NK2"),
    ("Q7", "LINEITEM", "Δ keeps 2/10: OK, SK"),
    ("Q7", "ORDERS", "Δ keeps 2/7: OK, CK"),
    ("Q7", "SUPPLIER", "Δ keeps 2/3: SK, NK1"),
    ("Q8", "CUSTOMER", "Δ keeps 2/4: CK, NKC"),
    ("Q8", "LINEITEM", "Δ keeps 3/10: OK, PK, SK"),
    ("Q8", "NATION", "Δ keeps 1/2: NKC"),
    ("Q8", "ORDERS", "Δ keeps 2/7: OK, CK"),
    ("Q8", "PART", "Δ keeps 1/6: PK"),
    ("Q8", "SUPPLIER", "Δ keeps 2/3: SK, NK"),
    ("Q9", "LINEITEM", "Δ keeps 6/10: OK, PK, SK, l_quantity, l_extendedprice, l_discount"),
    ("Q9", "ORDERS", "Δ keeps 1/7: OK"),
    ("Q9", "PART", "Δ keeps 1/6: PK"),
    ("Q9", "PARTSUPP", "Δ keeps 3/4: PK, SK, ps_supplycost"),
    ("Q9", "SUPPLIER", "Δ keeps 2/3: SK, NK"),
    ("Q10", "CUSTOMER", "Δ keeps 2/4: CK, NK"),
    ("Q10", "LINEITEM", "Δ keeps 1/10: OK"),
    ("Q10", "ORDERS", "Δ keeps 2/7: OK, CK"),
    ("Q11", "PARTSUPP", "Δ keeps 3/4: PK, ps_availqty, ps_supplycost"),
    ("Q12", "LINEITEM", "Δ keeps 2/10: OK, l_shipmode"),
    ("Q12", "ORDERS", "Δ keeps 1/7: OK"),
    ("Q13", "CUSTOMER", "Δ keeps 1/4: CK"),
    ("Q13", "ORDERS", "Δ keeps 2/7: CK, op13"),
    ("Q14", "LINEITEM", "Δ keeps 1/10: PK"),
    ("Q14", "PART", "Δ keeps 1/6: PK"),
    ("Q15", "LINEITEM", "Δ keeps 4/10: SK, l_extendedprice, l_discount, sd15"),
    ("Q15", "SUPPLIER", "Δ keeps 1/3: SK"),
    ("Q16", "PART", "Δ keeps 3/6: PK, p_brand, p_size"),
    ("Q16", "PARTSUPP", "Δ keeps 2/4: PK, SK"),
    ("Q16", "SUPPLIER", "Δ keeps 2/3: SK, bal16"),
    ("Q17", "LINEITEM", "Δ keeps 3/10: PK, l_quantity, l_extendedprice"),
    ("Q17", "PART", "Δ keeps 1/6: PK"),
    ("Q18", "CUSTOMER", "Δ keeps 1/4: CK"),
    ("Q18", "LINEITEM", "Δ keeps 2/10: OK, l_quantity"),
    ("Q18", "ORDERS", "Δ keeps 2/7: OK, CK"),
    ("Q19", "LINEITEM", "Δ keeps 4/10: PK, l_quantity, l_extendedprice, l_discount"),
    ("Q19", "PART", "Δ keeps 3/6: PK, p_brand, p_size"),
    ("Q20", "LINEITEM", "Δ keeps 4/10: PK, SK, qty20, sd20"),
    ("Q20", "PART", "Δ keeps 1/6: PK"),
    ("Q20", "PARTSUPP", "Δ keeps 3/4: PK, SK, ps_availqty"),
    ("Q20", "SUPPLIER", "Δ keeps 1/3: SK"),
    ("Q21", "LINEITEM", "Δ keeps 3/10: OK, SK, l_returnflag"),
    ("Q21", "ORDERS", "Δ keeps 1/7: OK"),
    ("Q21", "SUPPLIER", "Δ keeps 1/3: SK"),
    ("Q22", "CUSTOMER", "Δ keeps 3/4: CK, c_mktsegment, c_acctbal"),
    ("Q22", "ORDERS", "Δ keeps 1/7: CK"),
    ("DS3", "DATE_DIM", "Δ keeps 2/5: DK, d_year"),
    ("DS3", "ITEM", "Δ keeps 2/5: IK, i_brand_id"),
    ("DS3", "STORE_SALES", "Δ keeps 2/10: IK, DK"),
    ("DS7", "CUSTOMER_DEMOGRAPHICS", "Δ keeps 1/4: CDK"),
    ("DS7", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS7", "ITEM", "Δ keeps 1/5: IK"),
    ("DS7", "STORE_SALES", "Δ keeps 3/10: IK, CDK, DK"),
    ("DS19", "CUSTOMER_DS", "Δ keeps 1/3: CK"),
    ("DS19", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS19", "ITEM", "Δ keeps 2/5: IK, i_brand_id"),
    ("DS19", "STORE", "Δ keeps 1/3: STK"),
    ("DS19", "STORE_SALES", "Δ keeps 4/10: IK, CK, STK, DK"),
    ("DS27", "CUSTOMER_DEMOGRAPHICS", "Δ keeps 1/4: CDK"),
    ("DS27", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS27", "ITEM", "Δ keeps 1/5: IK"),
    ("DS27", "STORE", "Δ keeps 2/3: STK, st_state"),
    ("DS27", "STORE_SALES", "Δ keeps 4/10: IK, CDK, STK, DK"),
    ("DS34", "HOUSEHOLD_DEMOGRAPHICS", "Δ keeps 1/3: HDK"),
    ("DS34", "STORE_SALES", "Δ keeps 3/10: CK, HDK, TN"),
    ("DS42", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS42", "ITEM", "Δ keeps 2/5: IK, i_category_id"),
    ("DS42", "STORE_SALES", "Δ keeps 2/10: IK, DK"),
    ("DS43", "DATE_DIM", "Δ keeps 2/5: DK, d_dow"),
    ("DS43", "STORE", "Δ keeps 1/3: STK"),
    ("DS43", "STORE_SALES", "Δ keeps 2/10: STK, DK"),
    ("DS52", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS52", "ITEM", "Δ keeps 2/5: IK, i_brand_id"),
    ("DS52", "STORE_SALES", "Δ keeps 2/10: IK, DK"),
    ("DS55", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS55", "ITEM", "Δ keeps 2/5: IK, i_brand_id"),
    ("DS55", "STORE_SALES", "Δ keeps 2/10: IK, DK"),
    ("DS68", "DATE_DIM", "Δ keeps 1/5: DK"),
    ("DS68", "HOUSEHOLD_DEMOGRAPHICS", "Δ keeps 1/3: HDK"),
    ("DS68", "STORE", "Δ keeps 1/3: STK"),
    ("DS68", "STORE_SALES", "Δ keeps 5/10: CK, STK, DK, HDK, TN"),
];

#[test]
fn every_catalog_trigger_keeps_these_columns() {
    let mut got = Vec::new();
    for q in all_queries() {
        for t in compile_recursive(q.id, &q.expr).triggers {
            let described = t.preprocessing().0.describe();
            let keeps = described.split("; Δ ").next().unwrap().to_string();
            println!("{:<5} {:<22} {keeps}", q.id, t.relation);
            got.push((q.id, t.relation, keeps));
        }
    }
    let want: Vec<(&str, String, String)> = KEPT
        .iter()
        .map(|&(q, r, k)| (q, r.to_string(), k.to_string()))
        .collect();
    assert_eq!(got, want);
}

/// Every bare `Exists` over an `is_batch` relation in `e` whose nearest
/// enclosing `Exists` is not a domain guard's own `Exists(Sum_[…](…))`,
/// pushed onto `found`.  `guard` says whether the nearest `Exists` around
/// `e` is such a guard (`None`: no `Exists` encloses `e`).
fn misplaced_guard_leaves(
    e: &Expr,
    guard: Option<bool>,
    is_batch: &dyn Fn(&str, RelKind) -> bool,
    found: &mut Vec<String>,
) {
    match e {
        Expr::Exists(q) => {
            if let Expr::Rel(r) = &**q {
                if is_batch(&r.name, r.kind) && guard != Some(true) {
                    found.push(e.to_string());
                }
            }
            let is_guard = matches!(&**q, Expr::Sum { .. });
            misplaced_guard_leaves(q, Some(is_guard), is_batch, found);
        }
        _ => e
            .children()
            .into_iter()
            .for_each(|c| misplaced_guard_leaves(c, guard, is_batch, found)),
    }
}

/// Every bare `Exists(Δ…)` of every compiled catalog trigger — under all
/// three strategies, before and after batch preprocessing, and in the
/// distributed lowerings at O0–O3, where the batch is read through the
/// temps the driver scatters it into — sits directly inside a domain
/// guard's `Exists(Sum_[…](…))`.  `Trigger::kept_delta_positions` lets
/// exactly such a leaf pin no column by itself.
#[test]
fn every_guard_leaf_sits_inside_its_guard() {
    let mut found = Vec::new();
    let mut leaves = 0usize;
    let mut count = |e: &Expr| {
        e.visit(&mut |x| {
            if let Expr::Exists(q) = x {
                leaves += matches!(&**q, Expr::Rel(r) if r.kind == RelKind::Delta) as usize;
            }
        })
    };
    for q in all_queries() {
        for strategy in [
            Strategy::RecursiveIvm,
            Strategy::ClassicalIvm,
            Strategy::Reevaluation,
        ] {
            let plan = compile(q.id, &q.expr, strategy);
            for t in &plan.triggers {
                let is_batch = |name: &str, kind| kind == RelKind::Delta && name == t.relation;
                for trigger in [t.clone(), t.preprocessing().1] {
                    for s in &trigger.statements {
                        count(&s.expr);
                        let before = found.len();
                        misplaced_guard_leaves(&s.expr, None, &is_batch, &mut found);
                        for f in &mut found[before..] {
                            *f = format!("{} {strategy:?} ON {}: {f} in {s}", q.id, t.relation);
                        }
                    }
                }
            }
        }
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let dp = compile_distributed(&plan, &spec, opt);
            check_lowering(q.id, opt, &dp, &mut found);
        }
    }
    assert!(leaves > 0, "no guard leaf in the catalog");
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// [`every_guard_leaf_sits_inside_its_guard`] for one distributed plan: a
/// batch is `Δrelation` or a transformer's copy of one.
fn check_lowering(id: &str, opt: OptLevel, dp: &DistributedPlan, found: &mut Vec<String>) {
    for program in &dp.programs {
        let mut batches = vec![format!("Δ{}", program.relation)];
        for s in program.statements() {
            match &s.kind {
                DistStmtKind::Transform { source, .. } => {
                    if batches.contains(source) {
                        batches.push(s.target.clone());
                    }
                }
                DistStmtKind::Compute(e) => {
                    let is_batch = |name: &str, kind| {
                        (kind == RelKind::Delta && name == program.relation)
                            || batches.iter().any(|b| b == name)
                    };
                    let before = found.len();
                    misplaced_guard_leaves(e, None, &is_batch, found);
                    for f in &mut found[before..] {
                        *f = format!("{id} {opt:?} ON {}: {f} in {s}", program.relation);
                    }
                }
            }
        }
    }
}

fn longs(rows: &[(&[i64], f64)], schema: &[&str]) -> Relation {
    Relation::from_pairs(
        Schema::new(schema.iter().copied()),
        rows.iter()
            .map(|(t, m)| (Tuple::from_values(t.iter().map(|&v| Value::Long(v))), *m)),
    )
}

/// A domain guard is a filter, never a weight.  In
/// `Sum_[A](R(A) * (X := Sum_[](S(A,B) * T(A) * [B])) * (X > 0))`, a guard
/// that summed the batch's `B` values would read 0 for a batch whose `B`s
/// cancel (`+S(1,3)`, `−S(1,−3)`) although `X` moves from −3 to 3.  The
/// nested aggregate's delta for `ΔT` reads `S` through a view that folds
/// `[B]` into its multiplicity, so `S`'s own batch maintains a folded view
/// beside the guard: it must keep its `B` values and get no weight.
#[test]
fn a_domain_guard_never_cancels() {
    let nested = sum_total(join_all([
        rel("S", ["A", "B"]),
        rel("T", ["A"]),
        val_var("B"),
    ]));
    let query = sum(
        ["A"],
        join_all([
            rel("R", ["A"]),
            assign_query("X", nested),
            cmp_lit("X", CmpOp::Gt, 0),
        ]),
    );
    let batches = [
        ("R", longs(&[(&[1], 1.0)], &["A"])),
        ("T", longs(&[(&[1], 1.0)], &["A"])),
        ("S", longs(&[(&[1, -3], 1.0)], &["A", "B"])),
        ("S", longs(&[(&[1, 3], 1.0), (&[1, -3], -1.0)], &["A", "B"])),
    ];
    let mut catalog = MapCatalog::new();
    catalog.insert("R", RelKind::Base, batches[0].1.clone());
    catalog.insert("T", RelKind::Base, batches[1].1.clone());
    catalog.insert("S", RelKind::Base, batches[2].1.union(&batches[3].1));
    let reference = evaluate(&query, &catalog);
    assert_eq!(
        reference.sorted(),
        [(Tuple::from_values([Value::Long(1)]), 1.0)]
    );

    let plan = compile_recursive("guard", &query);
    let folded: Vec<_> = (plan.views.iter())
        .filter(|v| {
            let over_s = v.definition.relations().iter().all(|r| r.name == "S");
            over_s && v.definition.to_string().contains("[B]")
        })
        .collect();
    assert!(
        !folded.is_empty(),
        "no folded view of S:\n{}",
        plan.pretty()
    );
    for v in folded {
        assert_eq!(v.schema.columns(), ["A"], "{}", plan.pretty());
    }
    let s_prep = plan.trigger("S").unwrap().preprocessing().0;
    assert_eq!(s_prep.describe(), "Δ keeps 2/2: A, B");

    for strategy in [
        Strategy::RecursiveIvm,
        Strategy::ClassicalIvm,
        Strategy::Reevaluation,
    ] {
        let plan = compile("guard", &query, strategy);
        let mut engine = LocalEngine::new(plan, ExecMode::Batched { preaggregate: true });
        for (relation, batch) in &batches {
            engine.apply_batch(relation, batch);
        }
        assert!(
            engine.query_result().approx_eq(&reference),
            "{strategy:?}: {:?}",
            engine.query_result()
        );
    }
    let spec = PartitioningSpec::heuristic(&plan, &["A"]);
    let mut cluster = Cluster::new(
        compile_distributed(&plan, &spec, OptLevel::O3),
        ClusterConfig::with_workers(2),
    );
    for (relation, batch) in &batches {
        cluster.apply_batch(relation, batch);
    }
    assert!(
        cluster.query_result().approx_eq(&reference),
        "cluster: {:?}",
        cluster.query_result()
    );
}

/// Every trigger whose batch projection drops a column its filter does not
/// read, through a domain guard or a second `Union` branch.
const NARROWED: [(&str, &str); 13] = [
    ("Q4", "LINEITEM"),
    ("Q11", "PARTSUPP"),
    ("Q13", "ORDERS"),
    ("Q15", "LINEITEM"),
    ("Q16", "SUPPLIER"),
    ("Q17", "LINEITEM"),
    ("Q18", "LINEITEM"),
    ("Q19", "LINEITEM"),
    ("Q19", "PART"),
    ("Q20", "LINEITEM"),
    ("Q21", "LINEITEM"),
    ("Q22", "ORDERS"),
    ("DS34", "STORE_SALES"),
];

/// `t` with position `i` set to another value of that column: `pool`'s
/// when there is one and it differs, else ten times larger, plus one.
fn changed_at(t: &Tuple, i: usize, pool: Option<&Tuple>) -> Tuple {
    let mut out = t.clone();
    out.0[i] = match (pool.map(|p| p.get(i)), t.get(i)) {
        (Some(v), old) if v != old => v.clone(),
        (_, Value::Long(x)) => Value::Long(x * 10 + 1),
        (_, Value::Double(x)) => Value::Double(x * 10.0 + 1.0),
        (_, other) => panic!("no other value for {other:?}"),
    };
    out
}

/// `batches` with, in every batch that updates `relation`, updates of
/// tuples already in the database, each a `−1`/`+1` pair: three that change
/// one dead position (the pair cancels once projected onto `kept`), and per
/// kept position two that change it — to another value of the column, and
/// by an order of magnitude, enough to carry a nested aggregate across its
/// threshold.
fn with_adversarial_pairs(
    batches: Vec<Vec<(&'static str, Relation)>>,
    relation: &str,
    kept: &[usize],
    schema: &Schema,
) -> Vec<Vec<(&'static str, Relation)>> {
    let dead: Vec<usize> = (0..schema.len()).filter(|i| !kept.contains(i)).collect();
    let mut db = Relation::new(schema.clone());
    let mut n = 0usize;
    batches
        .into_iter()
        .enumerate()
        .map(|(b, mut batch)| {
            if let Some((_, delta)) = batch.iter_mut().find(|(r, _)| *r == relation) {
                let live: Vec<Tuple> = db
                    .sorted()
                    .into_iter()
                    .filter(|(_, m)| *m > 0.0)
                    .map(|(t, _)| t)
                    .collect();
                let dead_changes = (0..3).map(|j| (dead[(b + j) % dead.len()], true));
                let kept_changes = kept.iter().flat_map(|&i| [(i, true), (i, false)]);
                let mut pairs = Relation::new(schema.clone());
                for (position, from_pool) in dead_changes.chain(kept_changes) {
                    if live.is_empty() {
                        break;
                    }
                    n += 1;
                    let old = &live[n * 7 % live.len()];
                    if pairs.get(old) != 0.0 {
                        continue;
                    }
                    let pool = from_pool.then(|| &live[n * 13 % live.len()]);
                    pairs.add(old.clone(), -1.0);
                    pairs.add(changed_at(old, position, pool), 1.0);
                }
                delta.merge(&pairs);
                db.merge(delta);
            }
            batch
        })
        .collect()
}

/// The narrowed triggers over batches built to catch a projection that is
/// too narrow.  Every view the pre-aggregating `LocalEngine` maintains must
/// match `evaluate(definition)` over the accumulated stream, and the
/// simulated cluster at O0 and O3 must match the engine view for view — bit
/// for bit on one worker, and within `1e-9` relative on three, whose
/// partial sums associate float additions differently (Q11's top view
/// differs from the engine's in the last bit).
#[test]
fn narrowed_triggers_survive_adversarial_batches() {
    for (i, &(id, relation)) in NARROWED.iter().enumerate() {
        let q = query(id).unwrap();
        let plan = compile_recursive(q.id, &q.expr);
        let trigger = plan.trigger(relation).unwrap();
        let prep = trigger.preprocessing().0;
        assert!(
            prep.kept().len() < trigger.relation_schema.len(),
            "{id} ON {relation}: {}",
            prep.describe()
        );
        let seed = 0x6A4D + i as u64;
        let stream = match q.workload {
            hotdog::workload::Workload::TpcH => generate_tpch(seed, 300),
            hotdog::workload::Workload::TpcDs => generate_tpcds(seed, 300),
        }
        .with_deletions(seed, 0.25);
        let batches = with_adversarial_pairs(
            stream.batches(30),
            relation,
            prep.kept(),
            &trigger.relation_schema,
        );

        let mut catalog = MapCatalog::new();
        for batch in &batches {
            for (name, delta) in batch {
                match catalog.get_relation_mut(name, RelKind::Base) {
                    Some(acc) => acc.merge(delta),
                    None => catalog.insert(*name, RelKind::Base, delta.clone()),
                }
            }
        }
        let mut engine = LocalEngine::new(plan.clone(), ExecMode::Batched { preaggregate: true });
        for batch in &batches {
            for (name, delta) in batch {
                engine.apply_batch(name, delta);
            }
        }
        let local: Vec<Relation> = plan
            .views
            .iter()
            .map(|v| engine.view_contents(&v.name))
            .collect();
        for (v, got) in plan.views.iter().zip(&local) {
            let want = evaluate(&v.definition, &catalog);
            assert!(
                got.approx_eq_eps(&want, 1e-6),
                "{id} ON {relation}: engine's {} diverged from its definition\nwant {want:?}\ngot {got:?}",
                v.name
            );
        }

        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        for opt in [OptLevel::O0, OptLevel::O3] {
            for workers in [1, 3] {
                let mut cluster = Cluster::new(
                    compile_distributed(&plan, &spec, opt),
                    ClusterConfig::with_workers(workers),
                );
                cluster.apply_stream(&batches);
                for (v, want) in plan.views.iter().zip(&local) {
                    let got = cluster.view_contents(&v.name);
                    let same = match workers {
                        1 => got.checksum() == want.checksum(),
                        _ => got.approx_eq_eps(want, 1e-9),
                    };
                    assert!(
                        same,
                        "{id} ON {relation} {opt:?} x{workers}: cluster's {} != engine's\nengine {want:?}\ncluster {got:?}",
                        v.name
                    );
                }
            }
        }
    }
}
