//! Vectorized (columnar) trigger interpretation.
//!
//! The reference [`Evaluator`](hotdog_algebra::eval::Evaluator) walks a
//! trigger statement once **per tuple**: it allocates nothing per binding,
//! but every join level replays its left side's bindings for each left
//! row, every variable reference is a linear reverse scan with string
//! compares, and every projection resolves column names again.  For
//! batched IVM (the paper's Section 3.3 / 5.2.2 regime) that per-tuple
//! interpretive overhead dominates the actual storage work.
//!
//! This module compiles the statement shape the recursive IVM compiler
//! actually emits — an optional `Sum`/`Exists` head over a **left-deep join
//! chain** whose leftmost term is a full relation scan — into a
//! [`VectorPlan`]: variable names are resolved to column *slots* once, and
//! execution proceeds one operator at a time over whole column slices
//! ([`ColumnarBatch`]-style `Vec<Value>` columns), using the kernels of
//! `hotdog_storage::columnar` (`compact_column` for filters,
//! `gather_column` for probe fan-out).  Hash-join probes go through the
//! [`Catalog`], whose hash indexes *are* the join's build side: a view
//! probe reads the `hotdog-storage` record pool's secondary index, and a
//! delta or temp probe reads the hash index the [`execute`](crate::execute)
//! catalog builds once per statement, so each probe costs O(matches).
//!
//! # Bit-for-bit parity
//!
//! The vectorized path is held to the reference interpreter **exactly**, not
//! approximately: same emission order, same floating-point operation order,
//! same [`EvalCounters`] — so the three-backend differential oracle and the
//! deterministic telemetry contract hold whichever interpreter runs a
//! statement.
//! Concretely:
//!
//! * rows flow in scan order, probes fan out depth-first exactly like the
//!   tuple-at-a-time nested-loop order;
//! * multiplicities accumulate in chain order (`(m1 * m2) * m3 …`), and
//!   `Sum` groups are accumulated in emission order into a hash map, then
//!   epsilon-filtered and sorted — byte-identical to
//!   `Evaluator::aggregate`/`emit_groups`;
//! * every counter increment of the reference path (`scans`, `lookups`,
//!   `slices`, `tuples_visited`, `emissions`) is reproduced at the same
//!   logical point.
//!
//! Statements outside the supported shape (unions, nested aggregates,
//! `AssignQuery`, correlated subqueries, repeated unbound columns in one
//! relation reference) fall back to the reference interpreter — [`compile`]
//! simply returns `None`.
//!
//! # No knob
//!
//! The fast path is simply on: there is no option, environment variable or
//! config field that selects an interpreter.  The row `Evaluator` remains
//! as the fallback for shapes [`compile`] refuses and as the reference the
//! `columnar_vs_row_differential` oracle compares against (it reaches the
//! row path for *every* statement through a hidden test hook).
//!
//! # Example
//!
//! Both interpreters produce the same relation for a supported shape —
//! here a grouped count over a join, evaluated against a hand-built
//! catalog:
//!
//! ```
//! use hotdog_algebra::eval::{EvalCounters, Evaluator};
//! use hotdog_algebra::expr::{join, rel, sum, RelKind};
//! use hotdog_algebra::{MapCatalog, Relation, Schema, Tuple, Value};
//! use hotdog_exec::vectorized::eval_vectorized;
//!
//! let mut catalog = MapCatalog::new();
//! let mut r = Relation::new(Schema::new(["A", "B"]));
//! r.add(Tuple(vec![Value::Long(1), Value::Long(10)]), 1.0);
//! r.add(Tuple(vec![Value::Long(2), Value::Long(10)]), 1.0);
//! let mut s = Relation::new(Schema::new(["B", "C"]));
//! s.add(Tuple(vec![Value::Long(10), Value::Long(7)]), 1.0);
//! catalog.insert("R", RelKind::Base, r);
//! catalog.insert("S", RelKind::Base, s);
//!
//! let q = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
//! let mut counters = EvalCounters::default();
//! let fast = eval_vectorized(&q, &catalog, &mut counters).expect("supported shape");
//!
//! let mut reference = Evaluator::new(&catalog);
//! let slow = reference.eval(&q);
//! assert_eq!(fast.checksum(), slow.checksum()); // bit-identical
//! assert_eq!(counters, reference.counters); // same work accounting
//! ```
//!
//! [`ColumnarBatch`]: hotdog_storage::columnar::ColumnarBatch

use hotdog_algebra::eval::{Catalog, EvalCounters};
use hotdog_algebra::expr::{CmpOp, Expr, RelKind, ValExpr};
use hotdog_algebra::hash::DetMap;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_storage::columnar::{compact_column, compact_mults, gather_column};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the differential oracle's test hook to send every statement to
/// the row interpreter.
static ROW_ONLY: AtomicBool = AtomicBool::new(false);

/// Test hook for the `columnar_vs_row_differential` oracle: `false` makes
/// [`eval_vectorized`] decline every statement process-wide, so the row
/// interpreter runs shapes the vectorizer would otherwise take.  Both
/// interpreters produce bit-identical results, so flipping mid-run changes
/// performance, never semantics.  Not configuration: nothing in the system
/// calls it.
#[doc(hidden)]
pub fn set_columnar(enabled: bool) {
    ROW_ONLY.store(!enabled, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// A [`ValExpr`] with variable names resolved to frame slots.
enum ValProg {
    Slot(usize),
    Lit(Value),
    Add(Box<ValProg>, Box<ValProg>),
    Sub(Box<ValProg>, Box<ValProg>),
    Mul(Box<ValProg>, Box<ValProg>),
    Div(Box<ValProg>, Box<ValProg>),
}

impl ValProg {
    /// Resolve every variable to a slot; `None` if any is unbound at this
    /// point in the chain (the reference path would panic — bail to it so
    /// behavior, including the panic message, is unchanged).
    fn compile(v: &ValExpr, slots: &HashMap<String, usize>) -> Option<ValProg> {
        Some(match v {
            ValExpr::Var(name) => ValProg::Slot(*slots.get(name)?),
            ValExpr::Lit(v) => ValProg::Lit(v.clone()),
            ValExpr::Add(a, b) => ValProg::Add(
                Box::new(Self::compile(a, slots)?),
                Box::new(Self::compile(b, slots)?),
            ),
            ValExpr::Sub(a, b) => ValProg::Sub(
                Box::new(Self::compile(a, slots)?),
                Box::new(Self::compile(b, slots)?),
            ),
            ValExpr::Mul(a, b) => ValProg::Mul(
                Box::new(Self::compile(a, slots)?),
                Box::new(Self::compile(b, slots)?),
            ),
            ValExpr::Div(a, b) => ValProg::Div(
                Box::new(Self::compile(a, slots)?),
                Box::new(Self::compile(b, slots)?),
            ),
        })
    }

    /// Evaluate for row `i` — the same operation tree, in the same order,
    /// as `ValExpr::eval`, with slot loads instead of string lookups.
    fn eval(&self, cols: &[Vec<Value>], i: usize) -> Value {
        match self {
            ValProg::Slot(s) => cols[*s][i].clone(),
            ValProg::Lit(v) => v.clone(),
            ValProg::Add(a, b) => {
                Value::Double(a.eval(cols, i).as_f64() + b.eval(cols, i).as_f64())
            }
            ValProg::Sub(a, b) => {
                Value::Double(a.eval(cols, i).as_f64() - b.eval(cols, i).as_f64())
            }
            ValProg::Mul(a, b) => {
                Value::Double(a.eval(cols, i).as_f64() * b.eval(cols, i).as_f64())
            }
            ValProg::Div(a, b) => {
                let d = b.eval(cols, i).as_f64();
                Value::Double(if d == 0.0 {
                    0.0
                } else {
                    a.eval(cols, i).as_f64() / d
                })
            }
        }
    }
}

/// One vectorized operator of the join chain, applied to the whole frame at
/// once (one dispatch per operator per batch).
enum Step {
    /// `Cmp` term: evaluate the predicate over the frame into a keep-mask,
    /// compact every live column through it.  `emissions += kept`.
    Filter {
        op: CmpOp,
        lhs: ValProg,
        rhs: ValProg,
    },
    /// `Const` term: scale every multiplicity.  `emissions += rows`.
    ConstWeight(f64),
    /// `Val` term: per-row value becomes a multiplicity factor.
    /// `emissions += rows`.
    ValWeight(ValProg),
    /// `AssignVal` binding a fresh variable: compute a new column.
    Assign { slot: usize, value: ValProg },
    /// `AssignVal` over an already-bound variable: equality filter.
    AssignCheck { slot: usize, value: ValProg },
    /// Relation term with every column bound: per-row point lookup through
    /// the catalog (the record pool's primary index).
    Lookup {
        name: String,
        kind: RelKind,
        key_slots: Vec<usize>,
    },
    /// Relation term with some (or no) columns bound: per-row slice through
    /// the catalog (the record pool's secondary hash index — the hash join's
    /// build side) fanning out into fresh columns; previously bound columns
    /// are gathered through the fan-out index.
    Probe {
        name: String,
        kind: RelKind,
        /// `(position in the reference, frame slot)` of bound columns.
        bound: Vec<(usize, usize)>,
        /// `(position in the reference, frame slot)` of newly bound columns.
        unbound: Vec<(usize, usize)>,
    },
}

/// Aggregation head of the statement.
enum AggKind {
    /// Plain chain: project each surviving row onto the output schema.
    None { out_slots: Vec<usize> },
    /// `Sum_[group_by](chain)`.
    Sum { key_slots: Vec<usize> },
    /// `Exists(chain)`: group by the chain's full schema, emit 1.0 each.
    Exists { key_slots: Vec<usize> },
    /// `Exists(Sum_[group_by](chain))`: the inner `Sum` emits sorted groups,
    /// the outer `Exists` re-groups them (a no-op on already-distinct keys)
    /// and emits 1.0 each — but counts both rounds of emissions, exactly
    /// like the nested reference evaluation.
    ExistsSum { key_slots: Vec<usize> },
}

/// A trigger statement compiled for columnar execution: the leftmost full
/// scan, the chain of vectorized operators, and the aggregation head.
pub struct VectorPlan {
    schema: Schema,
    source_name: String,
    source_kind: RelKind,
    /// Frame slot of each source column, in reference order.
    source_slots: Vec<usize>,
    steps: Vec<Step>,
    agg: AggKind,
    n_slots: usize,
}

/// Compile `expr` (a statement right-hand side, evaluated from an empty
/// environment) into a [`VectorPlan`], or `None` when the shape is
/// unsupported and the reference interpreter must run instead.
pub fn compile(expr: &Expr) -> Option<VectorPlan> {
    // Peel the aggregation head.
    let (head, chain): (u8, &Expr) = match expr {
        Expr::Sum { body, .. } => (1, body),
        Expr::Exists(q) => match &**q {
            Expr::Sum { body, .. } => (3, body),
            other => (2, other),
        },
        other => (0, other),
    };

    // Flatten the left spine of the join chain.  Only the *left* spine: a
    // right-nested join multiplies its own subtree first (`m1 * (m2 * m3)`),
    // which a flat chain cannot reproduce bit-for-bit.
    let mut terms: Vec<&Expr> = Vec::new();
    let mut cur = chain;
    loop {
        match cur {
            Expr::Join(l, r) => {
                if matches!(**r, Expr::Join(..)) {
                    return None;
                }
                terms.push(r);
                cur = l;
            }
            leftmost => {
                terms.push(leftmost);
                break;
            }
        }
    }
    terms.reverse();

    // The leftmost term must be a relation reference with all-distinct
    // columns (it runs as one full scan binding every column).
    let mut slots: HashMap<String, usize> = HashMap::new();
    let mut n_slots = 0usize;
    let mut alloc = |name: &str, slots: &mut HashMap<String, usize>| {
        let s = n_slots;
        slots.insert(name.to_string(), s);
        n_slots += 1;
        s
    };
    let (source_name, source_kind, source_slots) = match terms[0] {
        Expr::Rel(r) => {
            let mut ss = Vec::with_capacity(r.cols.len());
            for c in &r.cols {
                if slots.contains_key(c) {
                    return None; // repeated column in the source reference
                }
                ss.push(alloc(c, &mut slots));
            }
            (r.name.clone(), r.kind, ss)
        }
        _ => return None,
    };

    let mut steps = Vec::with_capacity(terms.len() - 1);
    for term in &terms[1..] {
        match term {
            Expr::Cmp { op, lhs, rhs } => steps.push(Step::Filter {
                op: *op,
                lhs: ValProg::compile(lhs, &slots)?,
                rhs: ValProg::compile(rhs, &slots)?,
            }),
            Expr::Const(c) => steps.push(Step::ConstWeight(*c)),
            Expr::Val(v) => steps.push(Step::ValWeight(ValProg::compile(v, &slots)?)),
            Expr::AssignVal { var, value } => {
                let value = ValProg::compile(value, &slots)?;
                match slots.get(var) {
                    Some(&slot) => steps.push(Step::AssignCheck { slot, value }),
                    None => {
                        let slot = alloc(var, &mut slots);
                        steps.push(Step::Assign { slot, value });
                    }
                }
            }
            Expr::Rel(r) => {
                let mut bound: Vec<(usize, usize)> = Vec::new();
                let mut unbound: Vec<(usize, usize)> = Vec::new();
                for (i, c) in r.cols.iter().enumerate() {
                    match slots.get(c) {
                        Some(&slot) => {
                            // A column repeated within this same reference
                            // is bound *during* its own iteration and needs
                            // the reference path's post-emit equality
                            // filter; bail.
                            if unbound.iter().any(|&(_, s)| s == slot) {
                                return None;
                            }
                            bound.push((i, slot));
                        }
                        None => {
                            let slot = alloc(c, &mut slots);
                            unbound.push((i, slot));
                        }
                    }
                }
                if !r.cols.is_empty() && bound.len() == r.cols.len() {
                    steps.push(Step::Lookup {
                        name: r.name.clone(),
                        kind: r.kind,
                        key_slots: bound.into_iter().map(|(_, s)| s).collect(),
                    });
                } else {
                    steps.push(Step::Probe {
                        name: r.name.clone(),
                        kind: r.kind,
                        bound,
                        unbound,
                    });
                }
            }
            _ => return None, // Union / Sum / Exists / AssignQuery inside the chain
        }
    }

    // Resolve the head's key columns (or the output projection) to slots.
    let schema = expr.schema();
    let resolve =
        |s: &Schema| -> Option<Vec<usize>> { s.iter().map(|c| slots.get(c).copied()).collect() };
    let agg = match head {
        0 => AggKind::None {
            out_slots: resolve(&schema)?,
        },
        1 => AggKind::Sum {
            key_slots: resolve(&schema)?,
        },
        2 => AggKind::Exists {
            key_slots: resolve(&chain.schema())?,
        },
        _ => AggKind::ExistsSum {
            key_slots: resolve(&schema)?,
        },
    };

    Some(VectorPlan {
        schema,
        source_name,
        source_kind,
        source_slots,
        steps,
        agg,
        n_slots,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl VectorPlan {
    /// Execute the plan against a catalog, producing the same [`Relation`]
    /// (same contents, same insertion order, bit-identical multiplicities)
    /// and the same counter increments as
    /// `Evaluator::new(catalog).eval(expr)`.
    pub fn execute(&self, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Relation {
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); self.n_slots];
        let mut mults: Vec<Mult> = Vec::new();
        // Slots bound so far, in binding order — the columns that must be
        // compacted or gathered when the frame's row set changes.
        let mut live: Vec<usize> = Vec::new();

        // Leftmost term: one full scan materializing every column.
        counters.scans += 1;
        {
            let mut visited = 0u64;
            let slots = &self.source_slots;
            let mut row = |t: &Tuple, m: Mult| {
                visited += 1;
                for (j, &slot) in slots.iter().enumerate() {
                    cols[slot].push(t.get(j).clone());
                }
                mults.push(m);
            };
            catalog.scan(&self.source_name, self.source_kind, &mut row);
            counters.tuples_visited += visited;
        }
        live.extend(self.source_slots.iter().copied());

        for step in &self.steps {
            let n = mults.len();
            match step {
                Step::Filter { op, lhs, rhs } => {
                    let keep: Vec<bool> = (0..n)
                        .map(|i| op.eval(&lhs.eval(&cols, i), &rhs.eval(&cols, i)))
                        .collect();
                    counters.emissions += keep.iter().filter(|&&k| k).count() as u64;
                    for &slot in &live {
                        cols[slot] = compact_column(&cols[slot], &keep);
                    }
                    mults = compact_mults(&mults, &keep);
                }
                Step::ConstWeight(c) => {
                    counters.emissions += n as u64;
                    for m in &mut mults {
                        *m *= c;
                    }
                }
                Step::ValWeight(prog) => {
                    counters.emissions += n as u64;
                    for (i, m) in mults.iter_mut().enumerate() {
                        *m *= prog.eval(&cols, i).as_f64();
                    }
                }
                Step::Assign { slot, value } => {
                    cols[*slot] = (0..n).map(|i| value.eval(&cols, i)).collect();
                    live.push(*slot);
                }
                Step::AssignCheck { slot, value } => {
                    let keep: Vec<bool> = (0..n)
                        .map(|i| cols[*slot][i] == value.eval(&cols, i))
                        .collect();
                    for &s in &live {
                        cols[s] = compact_column(&cols[s], &keep);
                    }
                    mults = compact_mults(&mults, &keep);
                }
                Step::Lookup {
                    name,
                    kind,
                    key_slots,
                } => {
                    counters.lookups += n as u64;
                    let mut keep = vec![false; n];
                    for i in 0..n {
                        let key = Tuple(key_slots.iter().map(|&s| cols[s][i].clone()).collect());
                        let m = catalog.lookup(name, *kind, &key);
                        if m != 0.0 {
                            counters.tuples_visited += 1;
                            keep[i] = true;
                            mults[i] *= m;
                        }
                    }
                    for &slot in &live {
                        cols[slot] = compact_column(&cols[slot], &keep);
                    }
                    mults = compact_mults(&mults, &keep);
                }
                Step::Probe {
                    name,
                    kind,
                    bound,
                    unbound,
                } => {
                    let positions: Vec<usize> = bound.iter().map(|&(p, _)| p).collect();
                    let mut src_idx: Vec<u32> = Vec::new();
                    let mut new_cols: Vec<Vec<Value>> = vec![Vec::new(); unbound.len()];
                    let mut new_mults: Vec<Mult> = Vec::new();
                    if bound.is_empty() {
                        // Unconstrained mid-chain reference: the reference
                        // path re-scans per driving row; the relation is
                        // immutable within the statement, so materialize the
                        // scan once and replay it — identical emission order
                        // and `tuples_visited`, one real scan.
                        let mut scanned: Option<Vec<(Tuple, Mult)>> = None;
                        for (i, &m_left) in mults.iter().enumerate() {
                            counters.scans += 1;
                            let rows = scanned.get_or_insert_with(|| {
                                let mut rows = Vec::new();
                                catalog.scan(name, *kind, &mut |t, m| {
                                    rows.push((t.clone(), m));
                                });
                                rows
                            });
                            counters.tuples_visited += rows.len() as u64;
                            for (t, m) in rows.iter() {
                                src_idx.push(i as u32);
                                for (j, &(p, _)) in unbound.iter().enumerate() {
                                    new_cols[j].push(t.get(p).clone());
                                }
                                new_mults.push(m_left * m);
                            }
                        }
                    } else {
                        for i in 0..n {
                            counters.slices += 1;
                            let key_vals: Vec<Value> =
                                bound.iter().map(|&(_, s)| cols[s][i].clone()).collect();
                            let mut visited = 0u64;
                            let m_left = mults[i];
                            catalog.slice(name, *kind, &positions, &key_vals, &mut |t, m| {
                                visited += 1;
                                src_idx.push(i as u32);
                                for (j, &(p, _)) in unbound.iter().enumerate() {
                                    new_cols[j].push(t.get(p).clone());
                                }
                                new_mults.push(m_left * m);
                            });
                            counters.tuples_visited += visited;
                        }
                    }
                    for &slot in &live {
                        cols[slot] = gather_column(&cols[slot], &src_idx);
                    }
                    for (j, &(_, slot)) in unbound.iter().enumerate() {
                        cols[slot] = std::mem::take(&mut new_cols[j]);
                        live.push(slot);
                    }
                    mults = new_mults;
                }
            }
        }

        // Aggregation head / final projection.
        let key_of = |key_slots: &[usize], i: usize| -> Tuple {
            Tuple(key_slots.iter().map(|&s| cols[s][i].clone()).collect())
        };
        let mut rel = Relation::new(self.schema.clone());
        match &self.agg {
            AggKind::None { out_slots } => {
                for (i, &m) in mults.iter().enumerate() {
                    rel.add(key_of(out_slots, i), m);
                }
            }
            AggKind::Sum { key_slots }
            | AggKind::Exists { key_slots }
            | AggKind::ExistsSum { key_slots } => {
                let mut groups: DetMap<Tuple, Mult> = DetMap::default();
                for (i, &m) in mults.iter().enumerate() {
                    *groups.entry(key_of(key_slots, i)).or_insert(0.0) += m;
                }
                let mut v: Vec<(Tuple, Mult)> = groups
                    .into_iter()
                    .filter(|(_, m)| m.abs() >= MULT_EPSILON)
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                counters.emissions += v.len() as u64;
                match &self.agg {
                    AggKind::Sum { .. } => {
                        for (k, m) in v {
                            rel.add(k, m);
                        }
                    }
                    AggKind::Exists { .. } => {
                        for (k, _) in v {
                            rel.add(k, 1.0);
                        }
                    }
                    AggKind::ExistsSum { .. } => {
                        // The inner Sum's sorted emissions feed the outer
                        // Exists aggregation; keys are already distinct and
                        // epsilon-clean, so the outer round re-emits each
                        // group — and counts a second round of emissions.
                        counters.emissions += v.len() as u64;
                        for (k, _) in v {
                            rel.add(k, 1.0);
                        }
                    }
                    AggKind::None { .. } => unreachable!(),
                }
            }
        }
        rel
    }
}

/// The executor's fast path: compile and execute `expr` on the
/// columnar fast path if its shape is supported, accumulating counter
/// increments into `counters`.  Returns `None` when the caller must run the
/// reference interpreter.
pub fn eval_vectorized(
    expr: &Expr,
    catalog: &dyn Catalog,
    counters: &mut EvalCounters,
) -> Option<Relation> {
    if ROW_ONLY.load(Ordering::Relaxed) {
        return None;
    }
    let plan = compile(expr)?;
    Some(plan.execute(catalog, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::eval::{Evaluator, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;

    fn catalog() -> MapCatalog {
        let mut cat = MapCatalog::new();
        cat.insert(
            "R",
            RelKind::Delta,
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                vec![
                    (tuple![1, 10], 1.0),
                    (tuple![2, 10], -1.0),
                    (tuple![3, 20], 2.5),
                    (tuple![4, 30], 1.0),
                ],
            ),
        );
        cat.insert(
            "S",
            RelKind::Base,
            Relation::from_pairs(
                Schema::new(["B", "C"]),
                vec![
                    (tuple![10, 100], 1.0),
                    (tuple![10, 101], 0.5),
                    (tuple![20, 200], 3.0),
                ],
            ),
        );
        cat.insert(
            "T",
            RelKind::View,
            Relation::from_pairs(Schema::new(["C"]), vec![(tuple![100], 2.0)]),
        );
        cat
    }

    /// Both interpreters must agree on result bytes *and* counters.
    fn check(q: Expr) {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let want = ev.eval(&q);
        let plan = compile(&q).unwrap_or_else(|| panic!("expected {q:?} to compile"));
        let mut counters = EvalCounters::default();
        let got = plan.execute(&cat, &mut counters);
        assert_eq!(
            want.checksum(),
            got.checksum(),
            "results diverge for {q:?}: want {want:?} got {got:?}"
        );
        assert_eq!(ev.counters, counters, "counters diverge for {q:?}");
        // Insertion order must match too: compare the raw iteration order.
        let a: Vec<_> = want.iter().map(|(t, m)| (t.clone(), m)).collect();
        let b: Vec<_> = got.iter().map(|(t, m)| (t.clone(), m)).collect();
        assert_eq!(a, b, "iteration order diverges for {q:?}");
    }

    #[test]
    fn scan_only() {
        check(delta_rel("R", ["A", "B"]));
    }

    #[test]
    fn sum_over_scan() {
        check(sum(["B"], delta_rel("R", ["A", "B"])));
    }

    #[test]
    fn join_probe_through_slice() {
        check(sum(
            ["C"],
            join(delta_rel("R", ["A", "B"]), rel("S", ["B", "C"])),
        ));
    }

    #[test]
    fn plain_join_emission_order() {
        check(join(delta_rel("R", ["A", "B"]), rel("S", ["B", "C"])));
    }

    #[test]
    fn lookup_when_all_bound() {
        check(sum_total(join_all([
            delta_rel("R", ["A", "B"]),
            rel("S", ["B", "C"]),
            view("T", ["C"]),
        ])));
    }

    #[test]
    fn filters_weights_and_assignments() {
        check(sum_total(join_all([
            delta_rel("R", ["A", "B"]),
            cmp_lit("B", CmpOp::Lt, 25),
            val_var("A"),
            assign_val("K", ValExpr::lit(10)),
            cmp_vars("B", CmpOp::Eq, "K"),
        ])));
    }

    #[test]
    fn exists_head() {
        check(exists(sum(
            ["B"],
            join(delta_rel("R", ["A", "B"]), cmp_lit("A", CmpOp::Gt, 1)),
        )));
    }

    #[test]
    fn cartesian_mid_chain_scan() {
        check(sum_total(join(
            delta_rel("R", ["A", "B"]),
            view("T", ["C"]),
        )));
    }

    #[test]
    fn unsupported_shapes_bail() {
        assert!(compile(&union(rel("R", ["A"]), rel("S", ["A"]))).is_none());
        assert!(compile(&rel("R", ["A", "A"])).is_none());
        assert!(compile(&sum_total(join(
            rel("R", ["A", "B"]),
            assign_query("X", sum_total(rel("S", ["B", "C"])))
        )))
        .is_none());
        // Right-nested join: multiplication associativity differs.
        assert!(compile(&Expr::Join(
            Box::new(rel("R", ["A"])),
            Box::new(join(rel("S", ["A"]), rel("T", ["A"])))
        ))
        .is_none());
    }

    #[test]
    fn negative_and_cancelling_multiplicities() {
        // Deletions (negative mults) flow through weights and groups.
        check(sum(
            ["B"],
            join_all([delta_rel("R", ["A", "B"]), Expr::Const(-1.0)]),
        ));
    }
}
