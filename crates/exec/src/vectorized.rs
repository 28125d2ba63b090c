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
//! This module compiles the statement shapes the recursive IVM compiler
//! emits into a [`VectorPlan`]: variable names are resolved to column
//! *slots* once, and execution proceeds one operator at a time over whole
//! column slices ([`ColumnarBatch`]-style `Vec<Value>` columns), using the
//! kernels of `hotdog_storage::columnar` (`compact_column` for filters,
//! `gather_column` for fan-out).  Hash-join probes go through the
//! [`Catalog`], whose hash indexes *are* the join's build side: a view
//! probe reads the `hotdog-storage` record pool's secondary index, and a
//! delta or temp probe reads the hash index the [`execute`](crate::execute)
//! catalog builds once per statement, so each probe costs O(matches).
//!
//! # Supported shapes
//!
//! An optional `Sum`, `Exists` or `Exists(Sum)` head over a **left-deep
//! join chain**.  The chain's leftmost term is its source:
//!
//! * a relation reference with distinct columns — one full scan;
//! * a `Sum` or `Exists` — compiled as a plan of its own, whose sorted
//!   groups become the rows (so `Exists(R)` scans, drops rows with
//!   |m| < ε, sorts by tuple and weighs each row 1.0);
//! * a `Union` of chains — each branch runs in order into one frame over
//!   the columns every branch binds, then the shared tail runs.
//!
//! Every later term is one step over the whole frame: a comparison
//! (filter), a constant or value term (weight), `v := value`, a relation
//! reference (point lookup when every column is bound, else a probe that
//! fans out), `v := R1(keys) + R2(keys) …` over fully bound references, or
//! a `Union` whose branches are row-local chains of constants, comparisons
//! and such `:=` lookups (each row fans out into one row per branch that
//! keeps it, in branch order).
//!
//! A column is carried only while a later step or the head reads it: a
//! slot leaves the frame after its last reader, and a source column nothing
//! reads is never materialized.
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
//! * rows flow in scan order, probes and unions fan out depth-first exactly
//!   like the tuple-at-a-time nested-loop order;
//! * multiplicities accumulate in chain order (`(m1 * m2) * m3 …`; a union
//!   branch's own product multiplies into its row's), and `Sum` groups are
//!   accumulated in emission order into a hash map, then epsilon-filtered
//!   and sorted — byte-identical to `Evaluator::aggregate`/`emit_groups`;
//! * `v := R1(keys) + …` adds the lookups that hit in term order from
//!   `0.0 +`, and a total below ε binds 0.0, the `Evaluator`'s rule for a
//!   scalar aggregate over no rows;
//! * every counter increment of the reference path (`scans`, `lookups`,
//!   `slices`, `tuples_visited`, `emissions`) is reproduced at the same
//!   logical point.
//!
//! Statements outside these shapes fall back to the reference interpreter —
//! [`compile`] simply returns `None`: nested `Sum`/`Exists` inside a chain,
//! `:=` over anything but fully bound references, a `Union` branch that
//! probes or scans, union branches that bind different variables, a
//! right-nested join, and repeated unbound columns in one relation
//! reference.
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
use hotdog_algebra::expr::{CmpOp, Expr, RelKind, RelRef, ValExpr};
use hotdog_algebra::hash::DetMap;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_storage::columnar::{compact_column, compact_mults, gather_column};
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
    fn compile(v: &ValExpr, slots: &Bound<'_>) -> Option<ValProg> {
        let bin = |a: &ValExpr, b: &ValExpr| -> Option<(Box<ValProg>, Box<ValProg>)> {
            Some((
                Box::new(Self::compile(a, slots)?),
                Box::new(Self::compile(b, slots)?),
            ))
        };
        Some(match v {
            ValExpr::Var(name) => ValProg::Slot(slots.get(name)?),
            ValExpr::Lit(v) => ValProg::Lit(v.clone()),
            ValExpr::Add(a, b) => bin(a, b).map(|(a, b)| ValProg::Add(a, b))?,
            ValExpr::Sub(a, b) => bin(a, b).map(|(a, b)| ValProg::Sub(a, b))?,
            ValExpr::Mul(a, b) => bin(a, b).map(|(a, b)| ValProg::Mul(a, b))?,
            ValExpr::Div(a, b) => bin(a, b).map(|(a, b)| ValProg::Div(a, b))?,
        })
    }

    /// Evaluate for row `i` of the frame.
    fn eval(&self, cols: &[Vec<Value>], i: usize) -> Value {
        self.eval_by(&|s| cols[s][i].clone())
    }

    /// Evaluate with `load` reading the slots — the same operation tree, in
    /// the same order, as `ValExpr::eval`, with slot loads instead of string
    /// lookups.
    fn eval_by<F: Fn(usize) -> Value>(&self, load: &F) -> Value {
        match self {
            ValProg::Slot(s) => load(*s),
            ValProg::Lit(v) => v.clone(),
            ValProg::Add(a, b) => {
                Value::Double(a.eval_by(load).as_f64() + b.eval_by(load).as_f64())
            }
            ValProg::Sub(a, b) => {
                Value::Double(a.eval_by(load).as_f64() - b.eval_by(load).as_f64())
            }
            ValProg::Mul(a, b) => {
                Value::Double(a.eval_by(load).as_f64() * b.eval_by(load).as_f64())
            }
            ValProg::Div(a, b) => {
                let d = b.eval_by(load).as_f64();
                Value::Double(if d == 0.0 {
                    0.0
                } else {
                    a.eval_by(load).as_f64() / d
                })
            }
        }
    }

    /// Push every slot this program reads.
    fn reads(&self, out: &mut Vec<usize>) {
        match self {
            ValProg::Slot(s) => out.push(*s),
            ValProg::Lit(_) => {}
            ValProg::Add(a, b) | ValProg::Sub(a, b) | ValProg::Mul(a, b) | ValProg::Div(a, b) => {
                a.reads(out);
                b.reads(out);
            }
        }
    }
}

/// A relation reference whose columns are all bound: a point lookup.
struct LookupRef {
    name: String,
    kind: RelKind,
    key_slots: Vec<usize>,
}

impl LookupRef {
    /// The multiplicity of the key `load` reads, counted like the
    /// `Evaluator`'s point lookup (`tuples_visited` on a hit).
    fn probe<F: Fn(usize) -> Value>(
        &self,
        load: &F,
        key: &mut Tuple,
        catalog: &dyn Catalog,
        counters: &mut EvalCounters,
    ) -> Mult {
        key.0.clear();
        key.0.extend(self.key_slots.iter().map(|&s| load(s)));
        counters.lookups += 1;
        let m = catalog.lookup(&self.name, self.kind, key);
        if m != 0.0 {
            counters.tuples_visited += 1;
        }
        m
    }
}

/// One term of a row-local union branch, evaluated row by row in branch
/// order, exactly as the `Evaluator` streams the branch.
enum RowOp {
    /// `Const` term: a weight.  `emissions += 1`.
    Const(f64),
    /// `Cmp` term: keeps the row when it holds.  `emissions += 1` then.
    Cmp {
        op: CmpOp,
        lhs: ValProg,
        rhs: ValProg,
    },
    /// `v := R1(keys) + R2(keys) …` over fully bound references: the
    /// lookups that hit, added in term order from `0.0 +`; a total below ε
    /// binds 0.0.  Over an already bound `v`, an equality check.
    AssignSum {
        slot: usize,
        terms: Vec<LookupRef>,
        check: bool,
    },
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
    Lookup(LookupRef),
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
    /// A `Union` of row-local branches, or a lone `:=` term as one branch
    /// of one term: each row fans out, through the same gather as a probe,
    /// into one row per branch that keeps it, in branch order, weighted by
    /// its own multiplicity times the branch's product.
    Branches {
        branches: Vec<Vec<RowOp>>,
        /// Slots every branch binds.
        fresh: Vec<usize>,
    },
}

impl Step {
    /// Push the slots this step binds.
    fn binds(&self, out: &mut Vec<usize>) {
        match self {
            Step::Assign { slot, .. } => out.push(*slot),
            Step::Probe { unbound, .. } => out.extend(unbound.iter().map(|&(_, s)| s)),
            Step::Branches { fresh, .. } => out.extend(fresh),
            _ => {}
        }
    }

    /// Push the slots this step reads.  A union branch's reads of its own
    /// bindings are pushed too; nothing binds those slots earlier, so
    /// marking them live before the step changes nothing.
    fn reads(&self, out: &mut Vec<usize>) {
        match self {
            Step::Filter { lhs, rhs, .. } => {
                lhs.reads(out);
                rhs.reads(out);
            }
            Step::ConstWeight(_) => {}
            Step::ValWeight(v) | Step::Assign { value: v, .. } => v.reads(out),
            Step::AssignCheck { slot, value } => {
                out.push(*slot);
                value.reads(out);
            }
            Step::Lookup(l) => out.extend(&l.key_slots),
            Step::Probe { bound, .. } => out.extend(bound.iter().map(|&(_, s)| s)),
            Step::Branches { branches, .. } => {
                for op in branches.iter().flatten() {
                    match op {
                        RowOp::Const(_) => {}
                        RowOp::Cmp { lhs, rhs, .. } => {
                            lhs.reads(out);
                            rhs.reads(out);
                        }
                        RowOp::AssignSum { slot, terms, check } => {
                            terms.iter().for_each(|t| out.extend(&t.key_slots));
                            if *check {
                                out.push(*slot);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The leftmost term of a chain.
enum Source {
    /// A relation reference: one full scan.
    Scan {
        name: String,
        kind: RelKind,
        /// `(position in the reference, frame slot)` of the columns read.
        cols: Vec<(usize, usize)>,
    },
    /// A `Sum` or `Exists`, run as a plan of its own: its groups, in the
    /// sorted order it emits them, with their multiplicities.
    Nested {
        plan: Box<VectorPlan>,
        /// `(column of the nested result, frame slot)` of the columns read.
        cols: Vec<(usize, usize)>,
    },
    /// A `Union` of chains, run in branch order into one frame.
    Union {
        branches: Vec<Chain>,
        /// Slots every branch binds that the tail reads.
        out: Vec<usize>,
    },
}

/// A join chain: its source, its steps, and which slots each step leaves
/// live.
struct Chain {
    source: Source,
    steps: Vec<Step>,
    /// `live[i][s]`: slot `s` is read after step `i`.
    live: Vec<Vec<bool>>,
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

impl AggKind {
    fn slots(&self) -> &[usize] {
        match self {
            AggKind::None { out_slots: s }
            | AggKind::Sum { key_slots: s }
            | AggKind::Exists { key_slots: s }
            | AggKind::ExistsSum { key_slots: s } => s,
        }
    }
}

/// A trigger statement compiled for columnar execution: the join chain and
/// the aggregation head.
pub struct VectorPlan {
    schema: Schema,
    chain: Chain,
    agg: AggKind,
    n_slots: usize,
}

/// The variables bound at a point of a chain, with their slots (a
/// statement binds a few dozen at most, so a list beats a hash map).
#[derive(Clone, Default)]
struct Bound<'e>(Vec<(&'e str, usize)>);

impl<'e> Bound<'e> {
    fn get(&self, name: &str) -> Option<usize> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }

    fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn insert(&mut self, name: &'e str, slot: usize) {
        if !self.contains(name) {
            self.0.push((name, slot));
        }
    }
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
    let mut slots = Slots::default();
    let (mut compiled, bound) = slots.chain(chain)?;

    // Resolve the head's key columns (or the output projection) to slots.
    let schema = expr.schema();
    let resolve = |s: &Schema| -> Option<Vec<usize>> { s.iter().map(|c| bound.get(c)).collect() };
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
    let n_slots = slots.names.len();
    let mut read = vec![false; n_slots];
    agg.slots().iter().for_each(|&s| read[s] = true);
    prune(&mut compiled, read);
    Some(VectorPlan {
        schema,
        chain: compiled,
        agg,
        n_slots,
    })
}

/// Slot allocation for one plan: each variable name gets one slot, shared
/// by every union branch that binds it.
#[derive(Default)]
struct Slots<'e> {
    /// The variable of each slot.
    names: Vec<&'e str>,
}

impl<'e> Slots<'e> {
    /// Bind `name` in `bound` to its slot.
    fn bind(&mut self, name: &'e str, bound: &mut Bound<'e>) -> usize {
        let slot = match self.names.iter().position(|&n| n == name) {
            Some(s) => s,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        bound.insert(name, slot);
        slot
    }

    /// Compile a join chain evaluated from an empty environment, and the
    /// variables it binds.
    fn chain(&mut self, expr: &'e Expr) -> Option<(Chain, Bound<'e>)> {
        let terms = left_spine(expr)?;
        let mut bound = Bound::default();
        let source = match terms[0] {
            Expr::Rel(r) => self.scan(r, &mut bound)?,
            Expr::Sum { .. } | Expr::Exists(_) => {
                // The nested result's columns are the term's schema.
                let cols = terms[0]
                    .column_names()
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (i, self.bind(c, &mut bound)))
                    .collect();
                let plan = Box::new(compile(terms[0])?);
                Source::Nested { plan, cols }
            }
            Expr::Union(..) => {
                let mut branches = Vec::new();
                let mut common: Option<Bound<'e>> = None;
                for branch in union_branches(terms[0]) {
                    let (chain, b) = self.chain(branch)?;
                    branches.push(chain);
                    common = Some(match common {
                        None => b,
                        Some(mut c) => {
                            c.0.retain(|(k, _)| b.contains(k));
                            c
                        }
                    });
                }
                bound = common?;
                let mut out: Vec<usize> = bound.0.iter().map(|&(_, s)| s).collect();
                out.sort_unstable();
                Source::Union { branches, out }
            }
            _ => return None,
        };
        let steps = terms[1..]
            .iter()
            .map(|term| self.step(term, &mut bound))
            .collect::<Option<Vec<Step>>>()?;
        let chain = Chain {
            source,
            steps,
            live: Vec::new(),
        };
        Some((chain, bound))
    }

    /// A source reference: one scan binding every column, which must be
    /// distinct.
    fn scan(&mut self, r: &'e RelRef, bound: &mut Bound<'e>) -> Option<Source> {
        let mut cols = Vec::with_capacity(r.cols.len());
        for (i, c) in r.cols.iter().enumerate() {
            if bound.contains(c) {
                return None; // repeated column in the source reference
            }
            cols.push((i, self.bind(c, bound)));
        }
        Some(Source::Scan {
            name: r.name.clone(),
            kind: r.kind,
            cols,
        })
    }

    /// One term after the source.
    fn step(&mut self, term: &'e Expr, bound: &mut Bound<'e>) -> Option<Step> {
        Some(match term {
            Expr::Cmp { op, lhs, rhs } => Step::Filter {
                op: *op,
                lhs: ValProg::compile(lhs, bound)?,
                rhs: ValProg::compile(rhs, bound)?,
            },
            Expr::Const(c) => Step::ConstWeight(*c),
            Expr::Val(v) => Step::ValWeight(ValProg::compile(v, bound)?),
            Expr::AssignVal { var, value } => {
                let value = ValProg::compile(value, bound)?;
                match bound.get(var) {
                    Some(slot) => Step::AssignCheck { slot, value },
                    None => Step::Assign {
                        slot: self.bind(var, bound),
                        value,
                    },
                }
            }
            Expr::Rel(r) => {
                let mut bound_cols: Vec<(usize, usize)> = Vec::new();
                let mut unbound: Vec<(usize, usize)> = Vec::new();
                for (i, c) in r.cols.iter().enumerate() {
                    match bound.get(c) {
                        Some(slot) => {
                            // A column repeated within this same reference
                            // is bound *during* its own iteration and needs
                            // the reference path's post-emit equality
                            // filter; bail.
                            if unbound.iter().any(|&(_, s)| s == slot) {
                                return None;
                            }
                            bound_cols.push((i, slot));
                        }
                        None => unbound.push((i, self.bind(c, bound))),
                    }
                }
                if !r.cols.is_empty() && unbound.is_empty() {
                    Step::Lookup(lookup_ref(r, bound)?)
                } else {
                    Step::Probe {
                        name: r.name.clone(),
                        kind: r.kind,
                        bound: bound_cols,
                        unbound,
                    }
                }
            }
            Expr::AssignQuery { .. } | Expr::Union(..) => {
                let mut branches = Vec::new();
                let mut fresh: Option<Vec<usize>> = None;
                for branch in union_branches(term) {
                    let mut inner = bound.clone();
                    let ops = left_spine(branch)?
                        .into_iter()
                        .map(|t| self.row_op(t, &mut inner))
                        .collect::<Option<Vec<RowOp>>>()?;
                    let mut new: Vec<usize> =
                        inner.0[bound.0.len()..].iter().map(|&(_, s)| s).collect();
                    new.sort_unstable();
                    if fresh.get_or_insert_with(|| new.clone()) != &new {
                        return None; // branches bind different variables
                    }
                    branches.push(ops);
                }
                let fresh = fresh?;
                for &slot in &fresh {
                    bound.insert(self.names[slot], slot);
                }
                Step::Branches { branches, fresh }
            }
            _ => return None, // Sum / Exists inside the chain
        })
    }

    /// One term of a row-local union branch.
    fn row_op(&mut self, term: &'e Expr, bound: &mut Bound<'e>) -> Option<RowOp> {
        Some(match term {
            Expr::Const(c) => RowOp::Const(*c),
            Expr::Cmp { op, lhs, rhs } => RowOp::Cmp {
                op: *op,
                lhs: ValProg::compile(lhs, bound)?,
                rhs: ValProg::compile(rhs, bound)?,
            },
            Expr::AssignQuery { var, query } => {
                let terms = union_branches(query)
                    .into_iter()
                    .map(|t| match t {
                        Expr::Rel(r) if !r.cols.is_empty() => lookup_ref(r, bound),
                        _ => None,
                    })
                    .collect::<Option<Vec<LookupRef>>>()?;
                let (slot, check) = match bound.get(var) {
                    Some(slot) => (slot, true),
                    None => (self.bind(var, bound), false),
                };
                RowOp::AssignSum { slot, terms, check }
            }
            _ => return None,
        })
    }
}

/// `r` as a point lookup, if every column is bound.
fn lookup_ref(r: &RelRef, bound: &Bound<'_>) -> Option<LookupRef> {
    Some(LookupRef {
        name: r.name.clone(),
        kind: r.kind,
        key_slots: r.cols.iter().map(|c| bound.get(c)).collect::<Option<_>>()?,
    })
}

/// The terms of a join chain's left spine, leftmost first, or `None` for
/// a right-nested join: it multiplies its own subtree first
/// (`m1 * (m2 * m3)`), which a flat chain cannot reproduce bit-for-bit.
fn left_spine(expr: &Expr) -> Option<Vec<&Expr>> {
    let mut terms = Vec::new();
    let mut cur = expr;
    while let Expr::Join(l, r) = cur {
        if matches!(**r, Expr::Join(..)) {
            return None;
        }
        terms.push(&**r);
        cur = l;
    }
    terms.push(cur);
    terms.reverse();
    Some(terms)
}

/// The branches of a union tree in evaluation order (one for a non-union).
fn union_branches(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Union(l, r) => {
            let mut out = union_branches(l);
            out.extend(union_branches(r));
            out
        }
        other => vec![other],
    }
}

/// Record, for `chain` whose consumer reads the slots `read`, which slots
/// each step leaves live, and trim each source to the columns read.
fn prune(chain: &mut Chain, read: Vec<bool>) {
    let mut live = read;
    let mut slots = Vec::new();
    chain.live = chain
        .steps
        .iter()
        .rev()
        .map(|step| {
            let after = live.clone();
            slots.clear();
            step.binds(&mut slots);
            slots.iter().for_each(|&s| live[s] = false);
            slots.clear();
            step.reads(&mut slots);
            slots.iter().for_each(|&s| live[s] = true);
            after
        })
        .collect();
    chain.live.reverse();
    match &mut chain.source {
        Source::Scan { cols, .. } | Source::Nested { cols, .. } => {
            cols.retain(|&(_, s)| live[s]);
        }
        Source::Union { branches, out } => {
            out.retain(|&s| live[s]);
            let mut read = vec![false; live.len()];
            out.iter().for_each(|&s| read[s] = true);
            for branch in branches {
                prune(branch, read.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The rows of a chain so far: one column per slot (empty unless live) and
/// one multiplicity per row.
struct Frame {
    cols: Vec<Vec<Value>>,
    mults: Vec<Mult>,
    /// Slots materialized, in binding order.
    live: Vec<usize>,
}

impl Frame {
    fn new(n_slots: usize) -> Self {
        Frame {
            cols: vec![Vec::new(); n_slots],
            mults: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Drop the columns no later step reads.
    fn prune(&mut self, live: &[bool]) {
        let cols = &mut self.cols;
        self.live.retain(|&s| {
            if !live[s] {
                cols[s] = Vec::new();
            }
            live[s]
        });
    }

    /// Keep the rows `keep` marks, carrying the columns still live.
    fn retain(&mut self, keep: &[bool], live: &[bool]) {
        self.prune(live);
        for &s in &self.live {
            self.cols[s] = compact_column(&self.cols[s], keep);
        }
        self.mults = compact_mults(&self.mults, keep);
    }

    /// Replace the rows by one per `src_idx` entry, weighted by `mults`,
    /// gathering the columns still live.
    fn fan_out(&mut self, src_idx: &[u32], mults: Vec<Mult>, live: &[bool]) {
        self.prune(live);
        for &s in &self.live {
            self.cols[s] = gather_column(&self.cols[s], src_idx);
        }
        self.mults = mults;
    }

    fn bind(&mut self, slot: usize, col: Vec<Value>) {
        self.cols[slot] = col;
        self.live.push(slot);
    }
}

impl VectorPlan {
    /// Execute the plan against a catalog, producing the same [`Relation`]
    /// (same contents, same insertion order, bit-identical multiplicities)
    /// and the same counter increments as
    /// `Evaluator::new(catalog).eval(expr)`.
    pub fn execute(&self, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Relation {
        let mut rel = Relation::new(self.schema.clone());
        for (t, m) in self.emit(catalog, counters) {
            rel.add(t, m);
        }
        rel
    }

    /// The rows the statement emits, in the order the `Evaluator` emits
    /// them.
    fn emit(&self, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Vec<(Tuple, Mult)> {
        let Frame { cols, mults, .. } = self.chain.run(self.n_slots, catalog, counters);

        // Aggregation head / final projection.
        let key_of = |key_slots: &[usize], i: usize| -> Tuple {
            Tuple(key_slots.iter().map(|&s| cols[s][i].clone()).collect())
        };
        match &self.agg {
            AggKind::None { out_slots } => mults
                .iter()
                .enumerate()
                .map(|(i, &m)| (key_of(out_slots, i), m))
                .collect(),
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
                if !matches!(self.agg, AggKind::Sum { .. }) {
                    // `Exists` emits each group with 1.0.  Under `ExistsSum`
                    // the inner Sum's sorted groups feed the outer Exists,
                    // which re-emits each (the keys are distinct and
                    // epsilon-clean) — and counts a second round of
                    // emissions.
                    if matches!(self.agg, AggKind::ExistsSum { .. }) {
                        counters.emissions += v.len() as u64;
                    }
                    v.iter_mut().for_each(|(_, m)| *m = 1.0);
                }
                v
            }
        }
    }
}

impl Chain {
    fn run(&self, n_slots: usize, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Frame {
        let mut f = self.source.run(n_slots, catalog, counters);
        for (step, live) in self.steps.iter().zip(&self.live) {
            step.run(&mut f, live, catalog, counters);
        }
        f
    }
}

impl Source {
    fn run(&self, n_slots: usize, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Frame {
        let mut f = Frame::new(n_slots);
        match self {
            Source::Scan { name, kind, cols } => {
                counters.scans += 1;
                let mut visited = 0u64;
                catalog.scan(name, *kind, &mut |t, m| {
                    visited += 1;
                    for &(p, slot) in cols {
                        f.cols[slot].push(t.get(p).clone());
                    }
                    f.mults.push(m);
                });
                counters.tuples_visited += visited;
                f.live = cols.iter().map(|&(_, s)| s).collect();
            }
            Source::Nested { plan, cols } => {
                for (t, m) in plan.emit(catalog, counters) {
                    for &(p, slot) in cols {
                        f.cols[slot].push(t.get(p).clone());
                    }
                    f.mults.push(m);
                }
                f.live = cols.iter().map(|&(_, s)| s).collect();
            }
            Source::Union { branches, out } => {
                for branch in branches {
                    let mut b = branch.run(n_slots, catalog, counters);
                    for &s in out {
                        f.cols[s].append(&mut b.cols[s]);
                    }
                    f.mults.append(&mut b.mults);
                }
                f.live = out.clone();
            }
        }
        f
    }
}

impl Step {
    /// Apply this step to the frame; `live` marks the slots read after it.
    fn run(
        &self,
        f: &mut Frame,
        live: &[bool],
        catalog: &dyn Catalog,
        counters: &mut EvalCounters,
    ) {
        let n = f.mults.len();
        match self {
            Step::Filter { op, lhs, rhs } => {
                let keep: Vec<bool> = (0..n)
                    .map(|i| op.eval(&lhs.eval(&f.cols, i), &rhs.eval(&f.cols, i)))
                    .collect();
                counters.emissions += keep.iter().filter(|&&k| k).count() as u64;
                f.retain(&keep, live);
            }
            Step::ConstWeight(c) => {
                counters.emissions += n as u64;
                for m in &mut f.mults {
                    *m *= c;
                }
                f.prune(live);
            }
            Step::ValWeight(prog) => {
                counters.emissions += n as u64;
                for i in 0..n {
                    f.mults[i] *= prog.eval(&f.cols, i).as_f64();
                }
                f.prune(live);
            }
            Step::Assign { slot, value } => {
                let col = live[*slot].then(|| (0..n).map(|i| value.eval(&f.cols, i)).collect());
                f.prune(live);
                if let Some(col) = col {
                    f.bind(*slot, col);
                }
            }
            Step::AssignCheck { slot, value } => {
                let keep: Vec<bool> = (0..n)
                    .map(|i| f.cols[*slot][i] == value.eval(&f.cols, i))
                    .collect();
                f.retain(&keep, live);
            }
            Step::Lookup(l) => {
                let mut keep = vec![false; n];
                let mut key = Tuple(Vec::with_capacity(l.key_slots.len()));
                for (i, k) in keep.iter_mut().enumerate() {
                    let m = l.probe(&|s| f.cols[s][i].clone(), &mut key, catalog, counters);
                    if m != 0.0 {
                        *k = true;
                        f.mults[i] *= m;
                    }
                }
                f.retain(&keep, live);
            }
            Step::Probe {
                name,
                kind,
                bound,
                unbound,
            } => {
                let positions: Vec<usize> = bound.iter().map(|&(p, _)| p).collect();
                let fresh: Vec<(usize, usize)> =
                    unbound.iter().copied().filter(|&(_, s)| live[s]).collect();
                let mut src_idx: Vec<u32> = Vec::new();
                let mut new_cols: Vec<Vec<Value>> = vec![Vec::new(); fresh.len()];
                let mut new_mults: Vec<Mult> = Vec::new();
                let mut emit = |i: usize, m: Mult, t: &Tuple| {
                    src_idx.push(i as u32);
                    for (j, &(p, _)) in fresh.iter().enumerate() {
                        new_cols[j].push(t.get(p).clone());
                    }
                    new_mults.push(m);
                };
                if bound.is_empty() {
                    // Unconstrained mid-chain reference: the reference
                    // path re-scans per driving row; the relation is
                    // immutable within the statement, so materialize the
                    // scan once and replay it — identical emission order
                    // and `tuples_visited`, one real scan.
                    let mut scanned: Option<Vec<(Tuple, Mult)>> = None;
                    for (i, &m_left) in f.mults.iter().enumerate() {
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
                            emit(i, m_left * m, t);
                        }
                    }
                } else {
                    let mut key_vals: Vec<Value> = Vec::with_capacity(bound.len());
                    for (i, &m_left) in f.mults.iter().enumerate() {
                        counters.slices += 1;
                        key_vals.clear();
                        key_vals.extend(bound.iter().map(|&(_, s)| f.cols[s][i].clone()));
                        let mut visited = 0u64;
                        catalog.slice(name, *kind, &positions, &key_vals, &mut |t, m| {
                            visited += 1;
                            emit(i, m_left * m, t);
                        });
                        counters.tuples_visited += visited;
                    }
                }
                f.fan_out(&src_idx, new_mults, live);
                for ((_, slot), col) in fresh.into_iter().zip(new_cols) {
                    f.bind(slot, col);
                }
            }
            Step::Branches { branches, fresh } => {
                let kept: Vec<usize> = fresh.iter().copied().filter(|&s| live[s]).collect();
                let mut is_fresh = vec![false; f.cols.len()];
                fresh.iter().for_each(|&s| is_fresh[s] = true);
                let mut scratch: Vec<Value> = vec![Value::Long(0); f.cols.len()];
                let mut key = Tuple(Vec::new());
                let mut src_idx: Vec<u32> = Vec::new();
                let mut new_cols: Vec<Vec<Value>> = vec![Vec::new(); kept.len()];
                let mut new_mults: Vec<Mult> = Vec::new();
                for i in 0..n {
                    for ops in branches {
                        let row = BranchRow {
                            cols: &f.cols,
                            i,
                            is_fresh: &is_fresh,
                        };
                        let Some(m) = row.run(ops, &mut scratch, &mut key, catalog, counters)
                        else {
                            continue;
                        };
                        src_idx.push(i as u32);
                        for (col, &s) in new_cols.iter_mut().zip(&kept) {
                            col.push(scratch[s].clone());
                        }
                        new_mults.push(f.mults[i] * m);
                    }
                }
                f.fan_out(&src_idx, new_mults, live);
                for (slot, col) in kept.into_iter().zip(new_cols) {
                    f.bind(slot, col);
                }
            }
        }
    }
}

/// One row of the frame as a union branch sees it: the slots its branch
/// binds read the branch's scratch row, every other slot the frame.
struct BranchRow<'a> {
    cols: &'a [Vec<Value>],
    i: usize,
    is_fresh: &'a [bool],
}

impl BranchRow<'_> {
    /// Run one branch on this row: its product of multiplicities, or
    /// `None` when a term drops the row.  The product starts from the
    /// first term's multiplicity, as the `Evaluator`'s join does.
    fn run(
        &self,
        ops: &[RowOp],
        scratch: &mut [Value],
        key: &mut Tuple,
        catalog: &dyn Catalog,
        counters: &mut EvalCounters,
    ) -> Option<Mult> {
        let mut product: Option<Mult> = None;
        for op in ops {
            let load = |s: usize| {
                if self.is_fresh[s] {
                    scratch[s].clone()
                } else {
                    self.cols[s][self.i].clone()
                }
            };
            let m = match op {
                RowOp::Const(c) => {
                    counters.emissions += 1;
                    *c
                }
                RowOp::Cmp { op, lhs, rhs } => {
                    if !op.eval(&lhs.eval_by(&load), &rhs.eval_by(&load)) {
                        return None;
                    }
                    counters.emissions += 1;
                    1.0
                }
                RowOp::AssignSum { slot, terms, check } => {
                    let mut total: Option<Mult> = None;
                    for t in terms {
                        let m = t.probe(&load, key, catalog, counters);
                        if m != 0.0 {
                            total = Some(total.map_or(0.0 + m, |acc| acc + m));
                        }
                    }
                    let total = total.filter(|t| t.abs() >= MULT_EPSILON).unwrap_or(0.0);
                    self.assign(*slot, Value::Double(total), *check, scratch)?;
                    1.0
                }
            };
            product = Some(product.map_or(m, |p| p * m));
        }
        product
    }

    /// Bind `v` to `slot`, or check it against the slot's binding.
    fn assign(&self, slot: usize, v: Value, check: bool, scratch: &mut [Value]) -> Option<()> {
        if !check {
            scratch[slot] = v;
            return Some(());
        }
        let bound = if self.is_fresh[slot] {
            &scratch[slot]
        } else {
            &self.cols[slot][self.i]
        };
        (*bound == v).then_some(())
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
        // Two driving rows on key 10 whose multiplicities, weighted by
        // `V + W` and by `-V`, add up to different bits when the second
        // union branch runs after the first over all rows.
        cat.insert(
            "U",
            RelKind::Delta,
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                vec![
                    (tuple![1, 10], 0.1),
                    (tuple![2, 10], 0.1),
                    (tuple![3, 20], 1.0),
                ],
            ),
        );
        // `V + W` on key 20 cancels to 5.6e-17, below ε.
        cat.insert(
            "V",
            RelKind::View,
            Relation::from_pairs(
                Schema::new(["B"]),
                vec![(tuple![10], 0.1), (tuple![20], 0.1 + 0.2)],
            ),
        );
        cat.insert(
            "W",
            RelKind::View,
            Relation::from_pairs(
                Schema::new(["B"]),
                vec![(tuple![10], 0.7), (tuple![20], -0.3)],
            ),
        );
        // Negative rows, and one below ε, out of tuple order.
        cat.insert(
            "E",
            RelKind::Delta,
            Relation::from_pairs(
                Schema::new(["A", "B"]),
                vec![
                    (tuple![3, 20], 2.5),
                    (tuple![1, 10], -1.0),
                    (tuple![2, 10], 1e-12),
                    (tuple![5, 30], -0.5),
                ],
            ),
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
        assert!(compile(&rel("R", ["A", "A"])).is_none());
        // A union branch that probes instead of looking up.
        assert!(compile(&join(
            delta_rel("R", ["A", "B"]),
            union(rel("S", ["B", "C"]), view("T", ["B"]))
        ))
        .is_none());
        // Union branches binding different variables.
        assert!(compile(&sum_total(join(
            delta_rel("R", ["A", "B"]),
            union(
                assign_val("X", ValExpr::lit(1)),
                assign_val("Y", ValExpr::lit(2))
            )
        )))
        .is_none());
        // An aggregate inside the chain.
        assert!(compile(&sum_total(join(
            delta_rel("R", ["A", "B"]),
            sum(["B"], rel("S", ["B", "C"]))
        )))
        .is_none());
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

    /// `X := V(B)`: a hit binds the multiplicity, a miss (key 30) binds 0.0.
    #[test]
    fn assign_lookup_hits_and_misses() {
        check(sum(
            ["B", "X"],
            join(
                delta_rel("R", ["A", "B"]),
                assign_query("X", view("V", ["B"])),
            ),
        ));
    }

    /// Over an already bound variable, `X := V(B)` keeps the rows whose
    /// lookup equals it — misses included, where it is 0.0.
    #[test]
    fn assign_lookup_over_a_bound_variable_is_a_check() {
        for x in [0.1, 0.0] {
            check(sum(
                ["B"],
                join_all([
                    delta_rel("R", ["A", "B"]),
                    assign_val("X", ValExpr::lit(x)),
                    assign_query("X", view("V", ["B"])),
                ]),
            ));
        }
    }

    /// `X := V(B) + W(B)` adds the hits in term order from `0.0 +`; on key
    /// 20 they cancel below ε and bind 0.0.
    #[test]
    fn assign_lookup_sum_cancelling_below_epsilon_binds_zero() {
        check(sum(
            ["B", "X"],
            join(
                delta_rel("U", ["A", "B"]),
                assign_query("X", union(view("V", ["B"]), view("W", ["B"]))),
            ),
        ));
    }

    /// The nested-aggregate delta's shape, `((X := V + W) − (X := V)) * [X]`:
    /// each row fans out into both branches before the next row, so the
    /// two rows on key 10 add up in the `Evaluator`'s order.
    #[test]
    fn union_in_chain_fans_out_row_by_row() {
        let diff = union(
            assign_query("X", union(view("V", ["B"]), view("W", ["B"]))),
            join(assign_query("X", view("V", ["B"])), Expr::Const(-1.0)),
        );
        check(sum(
            ["B"],
            join_all([delta_rel("U", ["A", "B"]), diff, val_var("X")]),
        ));
        // A comparison may drop a row from one branch only, and read what
        // its own branch bound.
        let branches = union(
            join(
                assign_query("X", view("V", ["B"])),
                cmp_lit("X", CmpOp::Gt, 0.05),
            ),
            join(
                cmp_lit("A", CmpOp::Gt, 1),
                assign_query("X", view("W", ["B"])),
            ),
        );
        check(sum(
            ["B", "X"],
            join_all([delta_rel("U", ["A", "B"]), branches, view("T", ["C"])]),
        ));
    }

    /// A union head over three chains with different sources: the batch,
    /// a base relation, and a nested aggregate.
    #[test]
    fn union_head_over_three_sources() {
        let head = union(
            union(
                delta_rel("R", ["A", "B"]),
                join(rel("S", ["B", "C"]), Expr::Const(2.0)),
            ),
            sum(["B"], join(rel("S", ["B", "C"]), view("T", ["C"]))),
        );
        check(sum(["B"], join(head, val_var("B"))));
        check(join(
            union(delta_rel("U", ["A", "B"]), delta_rel("R", ["A", "B"])),
            view("V", ["B"]),
        ));
    }

    /// `Exists(E)` leftmost: negative rows count, the row below ε does
    /// not, and rows come out sorted.
    #[test]
    fn exists_source_drops_cancelled_rows_and_sorts() {
        check(join(exists(delta_rel("E", ["A", "B"])), val_var("A")));
        check(sum(
            ["B"],
            join(exists(delta_rel("E", ["A", "B"])), view("V", ["B"])),
        ));
    }

    /// A column only the first step reads leaves the frame after it; a
    /// source column nothing reads is never materialized.
    #[test]
    fn columns_leave_the_frame_after_their_last_reader() {
        let q = sum(
            ["C"],
            join_all([
                delta_rel("R", ["A", "B"]),
                cmp_lit("A", CmpOp::Gt, 1),
                rel("S", ["B", "C"]),
            ]),
        );
        check(q.clone());
        let plan = compile(&q).unwrap();
        let (a, b) = (0, 1);
        assert!(plan.chain.live[0][b] && !plan.chain.live[0][a]);
        let plan = compile(&sum(["B"], delta_rel("R", ["A", "B"]))).unwrap();
        let Source::Scan { cols, .. } = &plan.chain.source else {
            panic!("a scan source");
        };
        assert_eq!(cols, &[(1, b)]);
    }
}
