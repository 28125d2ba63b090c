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
//! This module compiles a trigger statement into a [`VectorPlan`], once,
//! where the statement is installed ([`VectorPlan::new`]): variable names
//! are resolved to column *slots*, and relation references to numbers
//! into the plan's relation list.  Execution proceeds one operator at a
//! time over whole column slices ([`ColumnarBatch`]-style `Vec<Value>`
//! columns), using the kernels of `hotdog_storage::columnar`
//! (`compact_column` for filters, `gather_column` for fan-out).
//! [`execute`](crate::execute) binds each numbered relation to the batch,
//! a temp or a view's record pool once, before the first row, so no row
//! resolves a name; [`VectorPlan::execute`] reads a [`Catalog`] by name
//! instead (the row `Evaluator`'s catalogs, and the tests) through the
//! same interpreter.  Hash-join probes read hash indexes that *are* the
//! join's build side: a view probe reads the `hotdog-storage` record
//! pool's secondary index, and a delta or temp probe reads the hash index
//! `execute` builds once per call, so each probe costs O(matches).
//!
//! # Shapes: terms over frames
//!
//! The statement is a *term* run over a frame of one row with no columns.
//! A term's body — one left-deep join chain per `Union` branch — runs over
//! every row of a frame at once: each row starts one sub-row weighted 1.0
//! that reads the row's bound columns, and every filter and fan-out carries
//! each sub-row's source row.  The term's head then folds the sub-rows back
//! into their source rows, as `Evaluator::aggregate` and `emit_groups` do
//! for one binding at a time:
//!
//! * `Sum_[keys]` groups a source row's sub-rows by the keys the body binds
//!   (keys the source row binds are constant within it), drops totals
//!   below ε, sorts, and emits one row per group; `Exists` weighs each
//!   group 1.0.  Grouping runs in place: key columns are hashed (as
//!   `Tuple` hashes) and compared straight from the frame through an
//!   open-addressed table of row ids, the sort compares key columns in
//!   place, and each surviving group builds one key tuple, from its first
//!   row.  A head over one nested `Sum`/`Exists` with the same keys (a
//!   domain guard) skips the regroup: its body already emits one sorted
//!   group per key;
//! * `v := query` binds `v` to each group's total (0.0 when no group
//!   survives and the source row binds every column of the query), or,
//!   over an already bound `v`, keeps the groups whose total equals it; a
//!   scalar `:=` writes its totals straight into its column;
//! * a `Union` or a right-nested join emits every sub-row.
//!
//! A chain's leftmost relation over the statement's frame is one scan.
//! Every other term is one step over the whole frame: a comparison
//! (filter), a constant or value term (weight), `v := value`, a relation
//! (point lookup when every column is bound, else a probe that fans out; a
//! repeated column binds at its first position and filters at the others),
//! or a nested term, whose rows fan out their source rows.  A column is
//! carried only until its last reader.  [`VectorPlan::new`] refuses, with
//! [`Unsupported`], only a term that reads a variable not bound on every
//! path to it (the reference path panics) or binds one some paths bound
//! (it branches per row), so a statement is refused where it is
//! installed, never on the data path.
//!
//! # Bit-for-bit parity
//!
//! The result is held to the reference interpreter **exactly**: same
//! emission order, same floating-point operation order, same
//! [`EvalCounters`].  Rows flow in scan order and fan out depth-first like
//! the nested-loop order: a source row's sub-rows stay contiguous, and a
//! union merges its branches by source row, branch order within one.
//! Multiplicities accumulate in chain order (`(m1 * m2) * m3 …`); a nested
//! term's sub-rows start at 1.0, which is exact, so a folded row weighs
//! `m_outer * m_term`, the join's order.  Groups accumulate in emission
//! order from `0.0 +`, then are ε-filtered and sorted; a scalar head is
//! one running sum per source row.  Every counter increments at the
//! reference path's logical point: `Sum` and `Exists` count one emission
//! per group, `:=` none.  A group keeps the first key emitted into it
//! (`Long(1)` before `Double(1.0)`), as the reference path's group map
//! does; distinct groups never compare equal, so the sort has one result.
//!
//! # No knob
//!
//! This is the one interpreter on the data path; no option, environment
//! variable or config field selects another.  The row `Evaluator` remains
//! as `evaluate()`'s re-evaluation oracle and as the reference the tests
//! compare this module against, statement by statement.
//!
//! # Example
//!
//! Both interpreters produce the same relation — here a grouped count over
//! a join, evaluated against a hand-built catalog:
//!
//! ```
//! use hotdog_algebra::eval::{EvalCounters, Evaluator};
//! use hotdog_algebra::expr::{join, rel, sum, RelKind};
//! use hotdog_algebra::{MapCatalog, Relation, Schema, Tuple, Value};
//! use hotdog_exec::vectorized::eval_vectorized;
//!
//! let mut catalog = MapCatalog::new();
//! let mut r = Relation::new(Schema::new(["A", "B"]));
//! r.add(Tuple::from(vec![Value::Long(1), Value::Long(10)]), 1.0);
//! r.add(Tuple::from(vec![Value::Long(2), Value::Long(10)]), 1.0);
//! let mut s = Relation::new(Schema::new(["B", "C"]));
//! s.add(Tuple::from(vec![Value::Long(10), Value::Long(7)]), 1.0);
//! catalog.insert("R", RelKind::Base, r);
//! catalog.insert("S", RelKind::Base, s);
//!
//! let q = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
//! let mut counters = EvalCounters::default();
//! let fast = eval_vectorized(&q, &catalog, &mut counters).expect("every variable bound");
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
use hotdog_algebra::hash::DetState;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::{Mult, MULT_EPSILON};
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_storage::columnar::{compact_column, compact_mults, gather_column};
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;

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
    /// point in the chain (the reference path would panic).
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

    /// Evaluate for row `i` of the frame — the same operation tree, in the
    /// same order, as `ValExpr::eval`, with slot loads instead of string
    /// lookups.
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

/// One vectorized operator of a join chain, applied to the whole frame at
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
    /// Relation term with every column bound: per-row point lookup (the
    /// record pool's primary index).
    Lookup { rel: usize, key_slots: Vec<usize> },
    /// Relation term with some (or no) columns bound: per-row slice (the
    /// record pool's secondary hash index — the hash join's build side)
    /// fanning out into fresh columns; previously bound columns are
    /// gathered through the fan-out index.
    Probe {
        rel: usize,
        /// `(position in the reference, frame slot)` of bound columns.
        bound: Vec<(usize, usize)>,
        /// `(position in the reference, frame slot)` of newly bound columns.
        unbound: Vec<(usize, usize)>,
        /// `(position, earlier position)` of each repeated unbound column:
        /// a tuple whose values there differ is visited but not emitted.
        repeats: Vec<(usize, usize)>,
    },
    /// A nested term over the whole frame: each row fans out into the rows
    /// the term folds back into it, weighted `m_row * m_term`.
    Nested(Box<Term>),
}

impl Step {
    /// Push the slots this step binds.
    fn binds(&self, out: &mut Vec<usize>) {
        match self {
            Step::Assign { slot, .. } => out.push(*slot),
            Step::Probe { unbound, .. } => out.extend(unbound.iter().map(|&(_, s)| s)),
            Step::Nested(t) => out.extend(&t.binds),
            _ => {}
        }
    }

    /// Push the slots this step reads (a nested term's after its
    /// [`Term::prune`]).
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
            Step::Lookup { key_slots, .. } => out.extend(key_slots),
            Step::Probe { bound, .. } => out.extend(bound.iter().map(|&(_, s)| s)),
            Step::Nested(t) => {
                out.extend(&t.inputs);
                out.extend(t.checked());
            }
        }
    }
}

/// The leftmost relation reference of a chain over the statement's
/// one-row frame: one full scan.
struct Scan {
    rel: usize,
    /// `(position in the reference, frame slot)` of the columns read.
    cols: Vec<(usize, usize)>,
    /// `(position, earlier position)` of each repeated column.
    repeats: Vec<(usize, usize)>,
}

/// A join chain: its scan, if it starts with one, its steps, and which
/// slots each step leaves live.
struct Chain {
    scan: Option<Scan>,
    steps: Vec<Step>,
    /// `live[i][s]`: slot `s` is read after step `i`.
    live: Vec<Vec<bool>>,
}

/// How a term folds its sub-rows back into their source rows.
enum Head {
    /// A `Union` or a join chain: every sub-row is a row.
    Rows,
    /// `Sum_[keys]`: one row per group, weighted by its total.
    Sum,
    /// `Exists(q)`: one row per group, weighted 1.0.
    Exists,
    /// `var := query`: one row per group, binding `var` to its total (or,
    /// when `check`, keeping the groups whose total equals `var`).
    Assign { var: usize, check: bool },
}

/// A term run over every row of a frame at once: one chain per `Union`
/// branch, and the head that folds their rows back into their source rows.
struct Term {
    branches: Vec<Chain>,
    head: Head,
    /// The group columns the head binds, in key order (empty for
    /// [`Head::Rows`] and for a scalar head).
    keys: Vec<usize>,
    /// The slots the term binds in the frame; after [`Term::prune`], only
    /// those read later.
    binds: Vec<usize>,
    /// The frame's slots the branches read (set by [`Term::prune`]).
    inputs: Vec<usize>,
    /// A `Sum` or `Exists` head over one nested `Sum` or `Exists` with the
    /// same keys (a domain guard, `Exists(Sum_[k](…))`): the body already
    /// emits one group per key, sorted and at least ε, weighted exactly
    /// `1.0 × m`, so the fold has nothing to regroup.
    presorted: bool,
}

/// A trigger statement compiled for columnar execution.
pub struct VectorPlan {
    schema: Schema,
    /// The statement, as a term over a one-row frame.
    term: Term,
    /// The slot of each result column.
    out: Vec<usize>,
    n_slots: usize,
    /// The relations the statement reads, each once; steps name them by
    /// position, and an execution binds each before the first row.
    rels: Vec<(String, RelKind)>,
}

impl std::fmt::Debug for VectorPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorPlan")
            .field("schema", &self.schema)
            .field("rels", &self.rels)
            .finish_non_exhaustive()
    }
}

/// A statement the interpreter cannot run: one of its terms reads a
/// variable that is not bound on every path to it (where the row
/// `Evaluator` panics) or binds one that only some paths bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// The statement, printed.
    pub statement: String,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a variable is unbound on some path of {}",
            self.statement
        )
    }
}

impl std::error::Error for Unsupported {}

/// The variables bound at a point of a chain, with their slots (a
/// statement binds a few dozen at most, so a list beats a hash map).  A
/// variable some union branches bound and others did not has no slot.
#[derive(Clone, Default)]
struct Bound<'e>(Vec<(&'e str, Option<usize>)>);

impl<'e> Bound<'e> {
    /// The slot of a variable bound on every path.
    fn get(&self, name: &str) -> Option<usize> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|&(_, s)| s)
    }

    /// Whether some path bound `name`.
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// The bindings after a union of two branches that started from the
    /// same bindings: a variable one branch bound and the other did not
    /// loses its slot.
    fn meet(mut self, other: &Bound<'e>) -> Bound<'e> {
        for (name, slot) in &mut self.0 {
            if other.get(name).is_none() {
                *slot = None;
            }
        }
        for &(name, _) in &other.0 {
            if !self.has(name) {
                self.0.push((name, None));
            }
        }
        self
    }
}

/// Compile `expr` (a statement right-hand side, evaluated from an empty
/// environment) into a [`VectorPlan`], or `None` when a term reads a
/// variable that is not bound on every path to it.
pub fn compile(expr: &Expr) -> Option<VectorPlan> {
    VectorPlan::new(expr).ok()
}

impl VectorPlan {
    /// Compile `expr` (a statement right-hand side, evaluated from an empty
    /// environment): once, where its statement is installed.
    pub fn new(expr: &Expr) -> Result<VectorPlan, Unsupported> {
        let unsupported = || Unsupported {
            statement: expr.to_string(),
        };
        let mut slots = Slots::default();
        let (mut term, bound) = slots
            .term(expr, &Bound::default(), true)
            .ok_or_else(unsupported)?;
        let schema = expr.schema();
        let out: Vec<usize> = (schema.iter().map(|c| bound.get(c)))
            .collect::<Option<_>>()
            .ok_or_else(unsupported)?;
        let n_slots = slots.names.len();
        let mut read = vec![false; n_slots];
        out.iter().for_each(|&s| read[s] = true);
        term.prune(&read);
        Ok(VectorPlan {
            schema,
            term,
            out,
            n_slots,
            rels: slots.rels,
        })
    }

    /// The relations the statement reads, each once, by the number its
    /// steps read it under.
    pub fn relations(&self) -> impl Iterator<Item = (&str, RelKind)> {
        self.rels.iter().map(|(name, kind)| (name.as_str(), *kind))
    }
}

/// Slot allocation for one plan: each variable name gets one slot, shared
/// by every term that binds it, and each relation one number.
#[derive(Default)]
struct Slots<'e> {
    /// The variable of each slot.
    names: Vec<&'e str>,
    /// The relations read, by number.
    rels: Vec<(String, RelKind)>,
}

impl<'e> Slots<'e> {
    /// Bind `name` in `bound` to its slot; `None` if some path bound it.
    fn bind(&mut self, name: &'e str, bound: &mut Bound<'e>) -> Option<usize> {
        if bound.has(name) {
            return None;
        }
        let slot = match self.names.iter().position(|&n| n == name) {
            Some(s) => s,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        bound.0.push((name, Some(slot)));
        Some(slot)
    }

    /// The number of the relation `r` reads.
    fn rel(&mut self, r: &RelRef) -> usize {
        let at = self
            .rels
            .iter()
            .position(|(n, k)| *n == r.name && *k == r.kind);
        at.unwrap_or_else(|| {
            self.rels.push((r.name.clone(), r.kind));
            self.rels.len() - 1
        })
    }

    /// Compile the term `expr` run under `outer`'s bindings, and the
    /// bindings after it.  `unit`: it runs over the statement's frame.
    fn term(&mut self, expr: &'e Expr, outer: &Bound<'e>, unit: bool) -> Option<(Term, Bound<'e>)> {
        let (body, names) = match expr {
            Expr::Sum { group_by, body } => (&**body, Some(group_by.iter().collect())),
            Expr::Exists(q) => (&**q, Some(q.column_names())),
            Expr::AssignQuery { query, .. } => (&**query, Some(query.column_names())),
            other => (other, None),
        };
        let mut branches = Vec::new();
        let mut after: Option<Bound<'e>> = None;
        for branch in union_branches(body) {
            let (chain, b) = self.chain(branch, outer.clone(), unit)?;
            branches.push(chain);
            after = Some(match after {
                None => b,
                Some(a) => a.meet(&b),
            });
        }
        let after = after.expect("a union has a branch");
        let term = |head, keys: Vec<usize>, binds| {
            let presorted = matches!(head, Head::Sum | Head::Exists)
                && matches!(&branches[..], [Chain { scan: None, steps, .. }]
                    if matches!(&steps[..], [Step::Nested(inner)]
                        if matches!(inner.head, Head::Sum | Head::Exists) && inner.keys == keys));
            Term {
                branches,
                head,
                keys,
                binds,
                inputs: Vec::new(),
                presorted,
            }
        };
        let Some(names) = names else {
            let binds: Vec<usize> = after.0[outer.0.len()..]
                .iter()
                .filter_map(|&(_, s)| s)
                .collect();
            return Some((term(Head::Rows, Vec::new(), binds), after));
        };
        // Key columns the source row binds are constant within it: the
        // reference path's `bind_key` checks them, and they always match.
        let mut bound = outer.clone();
        let mut keys = Vec::new();
        for name in names {
            if outer.get(name).is_some() {
                continue;
            }
            let slot = after.get(name)?;
            if !keys.contains(&slot) {
                keys.push(slot);
                bound.0.push((name, Some(slot)));
            }
        }
        let mut binds = keys.clone();
        let head = match expr {
            Expr::Sum { .. } => Head::Sum,
            Expr::Exists(_) => Head::Exists,
            Expr::AssignQuery { var, .. } => match bound.get(var) {
                Some(var) => Head::Assign { var, check: true },
                None => {
                    let var = self.bind(var, &mut bound)?;
                    binds.push(var);
                    Head::Assign { var, check: false }
                }
            },
            _ => unreachable!("a term with names has a head"),
        };
        Some((term(head, keys, binds), bound))
    }

    /// Compile a join chain run under `bound`, and the bindings after it.
    fn chain(
        &mut self,
        expr: &'e Expr,
        mut bound: Bound<'e>,
        unit: bool,
    ) -> Option<(Chain, Bound<'e>)> {
        let terms = left_spine(expr);
        let scan = match terms[0] {
            Expr::Rel(r) if unit => {
                let [_, cols, repeats] = self.columns(r, &mut bound)?;
                Some(Scan {
                    rel: self.rel(r),
                    cols,
                    repeats,
                })
            }
            _ => None,
        };
        let first = usize::from(scan.is_some());
        let steps = terms[first..]
            .iter()
            .enumerate()
            .map(|(i, term)| self.step(term, &mut bound, unit && first + i == 0))
            .collect::<Option<Vec<Step>>>()?;
        let chain = Chain {
            scan,
            steps,
            live: Vec::new(),
        };
        Some((chain, bound))
    }

    /// Split a relation reference's columns into `(position, slot)` of the
    /// bound ones, the ones it binds (each at its first position), and
    /// `(position, earlier position)` of the repeats.
    fn columns(
        &mut self,
        r: &'e RelRef,
        bound: &mut Bound<'e>,
    ) -> Option<[Vec<(usize, usize)>; 3]> {
        let (mut bound_cols, mut unbound, mut repeats) = (Vec::new(), Vec::new(), Vec::new());
        for (i, c) in r.cols.iter().enumerate() {
            match bound.get(c) {
                Some(slot) => match unbound.iter().find(|&&(_, s)| s == slot) {
                    Some(&(p, _)) => repeats.push((i, p)),
                    None => bound_cols.push((i, slot)),
                },
                None => unbound.push((i, self.bind(c, bound)?)),
            }
        }
        Some([bound_cols, unbound, repeats])
    }

    /// One term of a chain after its scan; `unit`: the frame is the
    /// statement's.
    fn step(&mut self, term: &'e Expr, bound: &mut Bound<'e>, unit: bool) -> Option<Step> {
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
                        slot: self.bind(var, bound)?,
                        value,
                    },
                }
            }
            Expr::Rel(r) => {
                let [bound_cols, unbound, repeats] = self.columns(r, bound)?;
                if !r.cols.is_empty() && unbound.is_empty() {
                    Step::Lookup {
                        rel: self.rel(r),
                        key_slots: bound_cols.iter().map(|&(_, s)| s).collect(),
                    }
                } else {
                    Step::Probe {
                        rel: self.rel(r),
                        bound: bound_cols,
                        unbound,
                        repeats,
                    }
                }
            }
            Expr::Sum { .. }
            | Expr::Exists(_)
            | Expr::AssignQuery { .. }
            | Expr::Union(..)
            | Expr::Join(..) => {
                let (term, after) = self.term(term, bound, unit)?;
                *bound = after;
                Step::Nested(Box::new(term))
            }
        })
    }
}

/// The terms of a join chain's left spine, leftmost first.  A right-nested
/// join is one term: it multiplies its own subtree first
/// (`m1 * (m2 * m3)`), which it does as a nested term.
fn left_spine(expr: &Expr) -> Vec<&Expr> {
    let mut terms = Vec::new();
    let mut cur = expr;
    while let Expr::Join(l, r) = cur {
        terms.push(&**r);
        cur = l;
    }
    terms.push(cur);
    terms.reverse();
    terms
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

impl Chain {
    /// Record, for this chain whose consumer reads the slots `read`, which
    /// slots each step leaves live, and trim the scan to the columns read.
    /// Returns the slots the chain reads from its input frame.
    fn prune(&mut self, read: Vec<bool>) -> Vec<bool> {
        let mut live = read;
        let mut slots = Vec::new();
        let mut lives = Vec::with_capacity(self.steps.len());
        for step in self.steps.iter_mut().rev() {
            if let Step::Nested(t) = step {
                t.prune(&live);
            }
            lives.push(live.clone());
            slots.clear();
            step.binds(&mut slots);
            slots.iter().for_each(|&s| live[s] = false);
            slots.clear();
            step.reads(&mut slots);
            slots.iter().for_each(|&s| live[s] = true);
        }
        lives.reverse();
        self.live = lives;
        if let Some(scan) = &mut self.scan {
            scan.cols.retain(|&(_, s)| live[s]);
            scan.cols.iter().for_each(|&(_, s)| live[s] = false);
        }
        live
    }
}

impl Term {
    /// Record, for this term whose consumer reads the slots `read`, what
    /// each branch carries, which slots of the frame it reads, and which
    /// of its bindings the consumer reads.
    fn prune(&mut self, read: &[bool]) {
        self.binds.retain(|&s| read[s]);
        let mut merged = vec![false; read.len()];
        self.merged().iter().for_each(|&s| merged[s] = true);
        let mut inputs = vec![false; read.len()];
        for chain in &mut self.branches {
            for (s, live) in chain.prune(merged.clone()).into_iter().enumerate() {
                inputs[s] |= live;
            }
        }
        self.inputs = (0..inputs.len()).filter(|&s| inputs[s]).collect();
    }

    /// The slots the head reads from the branches' rows (after
    /// [`Term::prune`]).
    fn merged(&self) -> &[usize] {
        match self.head {
            Head::Rows => &self.binds,
            _ => &self.keys,
        }
    }

    /// The frame slot a `:=` over an already bound variable compares with,
    /// unless the variable is one of the term's own keys.
    fn checked(&self) -> Option<usize> {
        match self.head {
            Head::Assign { var, check: true } if !self.keys.contains(&var) => Some(var),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// What a plan's relation references read, by the number
/// [`VectorPlan::relations`] gives each: the relations one execution bound
/// them to before its first row ([`execute`](crate::execute)), or a
/// [`Catalog`] by name (the `Evaluator` oracle's catalogs, and the tests).
pub(crate) trait Source {
    /// Iterate over every tuple of relation `rel`.
    fn scan(&self, rel: usize, f: &mut dyn FnMut(&[Value], Mult));
    /// Multiplicity of an exact key of relation `rel` (0 when absent).
    fn lookup(&self, rel: usize, key: &[Value]) -> Mult;
    /// Iterate over the tuples of relation `rel` whose columns at
    /// `positions` equal `key_vals`, in the relation's iteration order.
    fn slice(
        &self,
        rel: usize,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    );
}

/// A [`Catalog`] read by the names of a plan's relations.
struct ByName<'a> {
    catalog: &'a dyn Catalog,
    rels: &'a [(String, RelKind)],
}

impl Source for ByName<'_> {
    fn scan(&self, rel: usize, f: &mut dyn FnMut(&[Value], Mult)) {
        let (name, kind) = &self.rels[rel];
        self.catalog.scan(name, *kind, f);
    }

    fn lookup(&self, rel: usize, key: &[Value]) -> Mult {
        let (name, kind) = &self.rels[rel];
        self.catalog.lookup(name, *kind, key)
    }

    fn slice(
        &self,
        rel: usize,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&[Value], Mult),
    ) {
        let (name, kind) = &self.rels[rel];
        self.catalog.slice(name, *kind, positions, key_vals, f);
    }
}

/// The rows of a chain so far: one column per slot (empty unless live), one
/// multiplicity per row, and the row of the chain's input frame each row
/// came from.
#[derive(Clone)]
struct Frame {
    cols: Vec<Vec<Value>>,
    mults: Vec<Mult>,
    src: Vec<u32>,
    /// Slots materialized, in binding order.
    live: Vec<usize>,
}

impl Frame {
    fn new(n_slots: usize) -> Self {
        Frame {
            cols: vec![Vec::new(); n_slots],
            mults: Vec::new(),
            src: Vec::new(),
            live: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.mults.len()
    }

    /// The frame a nested term starts from: one row per row of this frame,
    /// weighted 1.0 and sourced from it, carrying the columns `inputs`.
    fn sub(&self, inputs: &[usize]) -> Frame {
        let n = self.len();
        let mut sub = Frame::new(self.cols.len());
        sub.mults = vec![1.0; n];
        sub.src = (0..n as u32).collect();
        for &s in inputs {
            sub.bind(s, self.cols[s].clone());
        }
        sub
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
        self.src = self
            .src
            .iter()
            .zip(keep)
            .filter_map(|(&s, &k)| k.then_some(s))
            .collect();
    }

    /// Replace the rows by one per `src_idx` entry, weighted by `mults`,
    /// gathering the columns still live (nothing moves when every row fans
    /// out into exactly itself).
    fn fan_out(&mut self, src_idx: &[u32], mults: Vec<Mult>, live: &[bool]) {
        self.prune(live);
        let same_rows = src_idx.len() == self.len()
            && src_idx.iter().enumerate().all(|(i, &s)| s as usize == i);
        if !same_rows {
            for &s in &self.live {
                self.cols[s] = gather_column(&self.cols[s], src_idx);
            }
            self.src = src_idx.iter().map(|&i| self.src[i as usize]).collect();
        }
        self.mults = mults;
    }

    fn bind(&mut self, slot: usize, col: Vec<Value>) {
        self.cols[slot] = col;
        self.live.push(slot);
    }
}

/// A folded row's group key: the rows it reads its key columns from, and
/// the first row of its group there (`None` for a scalar head).
type KeyRow<'r> = Option<(&'r Frame, usize)>;

impl VectorPlan {
    /// Execute the plan against a catalog, producing the same [`Relation`]
    /// (same contents, same insertion order, bit-identical multiplicities)
    /// and the same counter increments as
    /// `Evaluator::new(catalog).eval(expr)`.
    pub fn execute(&self, catalog: &dyn Catalog, counters: &mut EvalCounters) -> Relation {
        let rels = &self.rels;
        self.run(&ByName { catalog, rels }, counters)
    }

    /// Execute the plan against `source`, as [`VectorPlan::execute`].
    pub(crate) fn run(&self, source: &dyn Source, counters: &mut EvalCounters) -> Relation {
        let mut unit = Frame::new(self.n_slots);
        unit.mults.push(1.0);
        unit.src.push(0);
        let outs = self.term.branch_rows(&unit, source, counters);
        let mut rel = Relation::new(self.schema.clone());
        if !matches!(self.term.head, Head::Rows) {
            // A head binds its keys, then its variable: the schema's order.
            let keys = &self.term.keys;
            self.term
                .fold(outs, 1, &unit, counters, &mut |_, key, v, m| {
                    let mut t = Vec::with_capacity(self.schema.len());
                    if let Some((rows, row)) = key {
                        t.extend(keys.iter().map(|&s| rows.cols[s][row].clone()));
                    }
                    t.extend(v);
                    rel.add(Tuple::from(t), m);
                });
            return rel;
        }
        let rows = merge(outs, 1, &self.out);
        for (i, &m) in rows.mults.iter().enumerate() {
            rel.add(
                Tuple(self.out.iter().map(|&s| rows.cols[s][i].clone()).collect()),
                m,
            );
        }
        rel
    }
}

impl Term {
    /// Run the term over every row of `f`: its rows, each with the row of
    /// `f` it came from, the columns it binds and its own multiplicity.
    fn run(&self, f: &Frame, source: &dyn Source, counters: &mut EvalCounters) -> Frame {
        let outs = self.branch_rows(f, source, counters);
        if matches!(self.head, Head::Rows) {
            return merge(outs, f.len(), &self.binds);
        }
        let mut out = Frame::new(f.cols.len());
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); f.cols.len()];
        let kept: Vec<usize> = (self.keys.iter().copied())
            .filter(|s| self.binds.contains(s))
            .collect();
        let var = match self.head {
            Head::Assign { var, check: false } if self.binds.contains(&var) => Some(var),
            _ => None,
        };
        self.fold(outs, f.len(), f, counters, &mut |src, key, v, m| {
            if let Some((rows, row)) = key {
                for &s in &kept {
                    cols[s].push(rows.cols[s][row].clone());
                }
            }
            if let (Some(var), Some(v)) = (var, v) {
                cols[var].push(v);
            }
            out.src.push(src);
            out.mults.push(m);
        });
        for &s in &self.binds {
            out.bind(s, std::mem::take(&mut cols[s]));
        }
        out
    }

    /// Each branch's rows over every row of `f`.
    fn branch_rows(
        &self,
        f: &Frame,
        source: &dyn Source,
        counters: &mut EvalCounters,
    ) -> Vec<Frame> {
        let sub = f.sub(&self.inputs);
        let (last, rest) = self.branches.split_last().expect("a term has a branch");
        let mut outs: Vec<Frame> = rest
            .iter()
            .map(|chain| chain.run(sub.clone(), source, counters))
            .collect();
        outs.push(last.run(sub, source, counters));
        outs
    }

    /// A scalar head's total per source row of the `n` the branches ran
    /// over, `None` where no sub-row survived.  One running sum per source
    /// row, no map and no sort; adding the branches one after another adds
    /// each row's sub-rows in merged order.
    fn scalar_totals(outs: &[Frame], n: usize) -> Vec<Option<Mult>> {
        let mut totals: Vec<Option<Mult>> = vec![None; n];
        for o in outs {
            for (&s, &m) in o.src.iter().zip(&o.mults) {
                let t = &mut totals[s as usize];
                *t = Some(t.map_or(0.0 + m, |acc| acc + m));
            }
        }
        totals
    }

    /// Fold the branches' rows back into the `n` source rows of `outer`
    /// under the head's rule, emitting each folded row in order: its source
    /// row, its key, the value its `:=` binds, and its multiplicity.
    fn fold(
        &self,
        outs: Vec<Frame>,
        n: usize,
        outer: &Frame,
        counters: &mut EvalCounters,
        emit: &mut impl FnMut(u32, KeyRow<'_>, Option<Value>, Mult),
    ) {
        if self.keys.is_empty() {
            for (src, total) in (0..).zip(Self::scalar_totals(&outs, n)) {
                match total.filter(|t| t.abs() >= MULT_EPSILON) {
                    Some(t) => self.emit_group(src, None, t, outer, counters, emit),
                    // A scalar aggregate over no rows is 0.
                    None if matches!(self.head, Head::Assign { .. }) => {
                        self.emit_group(src, None, 0.0, outer, counters, emit)
                    }
                    None => {}
                }
            }
            return;
        }
        let rows = merge(outs, n, &self.keys);
        if self.presorted {
            for (i, (&src, &m)) in rows.src.iter().zip(&rows.mults).enumerate() {
                let total = 0.0 + m;
                if total.abs() >= MULT_EPSILON {
                    self.emit_group(src, Some((&rows, i)), total, outer, counters, emit);
                }
            }
            return;
        }
        let mut groups = Groups::default();
        let mut start = 0;
        for src in 0..n as u32 {
            let end = start + rows.src[start..].iter().take_while(|&&s| s == src).count();
            groups.build(&rows, &self.keys, start..end);
            for (first, total) in groups.sorted() {
                self.emit_group(src, Some((&rows, first)), total, outer, counters, emit);
            }
            start = end;
        }
    }

    /// Emit one group of source row `src` under the head's rule.
    fn emit_group(
        &self,
        src: u32,
        key: KeyRow<'_>,
        m: Mult,
        outer: &Frame,
        counters: &mut EvalCounters,
        emit: &mut impl FnMut(u32, KeyRow<'_>, Option<Value>, Mult),
    ) {
        match self.head {
            Head::Rows => unreachable!("a union emits its rows unfolded"),
            Head::Sum => {
                counters.emissions += 1;
                emit(src, key, None, m);
            }
            Head::Exists => {
                counters.emissions += 1;
                emit(src, key, None, 1.0);
            }
            Head::Assign { check: false, .. } => emit(src, key, Some(Value::Double(m)), 1.0),
            Head::Assign { var, check: true } => {
                let bound = match key {
                    Some((rows, row)) if self.keys.contains(&var) => &rows.cols[var][row],
                    _ => &outer.cols[var][src as usize],
                };
                if *bound == Value::Double(m) {
                    emit(src, key, None, 1.0);
                }
            }
        }
    }
}

/// Scratch for grouping the sub-rows of one source row by the key columns,
/// in place — `Evaluator::aggregate` without a key tuple per row — reused
/// across the source rows of one fold.
#[derive(Default)]
struct Groups {
    /// Open-addressed table over the groups: a group's index + 1, 0 free.
    table: Vec<u32>,
    /// Each group's key hash, first row and running total, in the order
    /// the groups were first emitted.
    hashes: Vec<u64>,
    first: Vec<usize>,
    totals: Vec<Mult>,
    /// The groups at least ε, sorted by key.
    order: Vec<usize>,
}

impl Groups {
    /// Group the sub-rows `range` of `rows` by the columns `keys`: totals
    /// summed in emission order from `0.0 +`, each group keyed by its
    /// first row, those below ε dropped, the rest sorted by key.
    fn build(&mut self, rows: &Frame, keys: &[usize], range: Range<usize>) {
        self.hashes.clear();
        self.first.clear();
        self.totals.clear();
        self.order.clear();
        let cols = &rows.cols;
        if range.len() == 1 {
            self.first.push(range.start);
            self.totals.push(0.0 + rows.mults[range.start]);
        } else if !range.is_empty() {
            let mask = (2 * range.len()).next_power_of_two() - 1;
            self.table.clear();
            self.table.resize(mask + 1, 0);
            for i in range {
                // `Tuple`'s `Hash`, fed from the columns.
                let mut hasher = DetState::default().build_hasher();
                hasher.write_usize(keys.len());
                keys.iter().for_each(|&s| cols[s][i].hash(&mut hasher));
                let h = hasher.finish();
                let mut at = h as usize & mask;
                loop {
                    match self.table[at] {
                        0 => {
                            self.hashes.push(h);
                            self.first.push(i);
                            self.totals.push(0.0 + rows.mults[i]);
                            self.table[at] = self.first.len() as u32;
                            break;
                        }
                        g => {
                            let g = g as usize - 1;
                            let first = self.first[g];
                            if self.hashes[g] == h
                                && keys.iter().all(|&s| cols[s][first] == cols[s][i])
                            {
                                self.totals[g] += rows.mults[i];
                                break;
                            }
                        }
                    }
                    at = (at + 1) & mask;
                }
            }
        }
        let totals = &self.totals;
        (self.order).extend((0..totals.len()).filter(|&g| totals[g].abs() >= MULT_EPSILON));
        // Distinct groups never compare equal (`Value`'s order agrees with
        // its equality), so any sort yields the one sorted order.
        let first = &self.first;
        self.order.sort_unstable_by(|&a, &b| {
            let (a, b) = (first[a], first[b]);
            (keys.iter().map(|&s| cols[s][a].cmp(&cols[s][b])))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }

    /// Each surviving group's first row and total, in key order.
    fn sorted(&self) -> impl Iterator<Item = (usize, Mult)> + '_ {
        self.order.iter().map(|&g| (self.first[g], self.totals[g]))
    }
}

/// Merge the rows of a union's branches over `n` source rows by source
/// row, in branch order within each, carrying the columns `cols` — the
/// order in which the reference path streams a union under each row.
fn merge(mut outs: Vec<Frame>, n: usize, cols: &[usize]) -> Frame {
    if n == 1 || outs.len() == 1 {
        // One source row or one branch: the rows one after another.
        let mut outs = outs.into_iter();
        let mut f = outs.next().expect("a union has a branch");
        for mut o in outs {
            for &s in cols {
                f.cols[s].append(&mut o.cols[s]);
            }
            f.mults.append(&mut o.mults);
            f.src.append(&mut o.src);
        }
        return f;
    }
    let mut f = Frame::new(outs[0].cols.len());
    let mut order: Vec<usize> = Vec::new();
    let mut at = vec![0usize; outs.len()];
    for src in 0..n as u32 {
        for (k, o) in outs.iter().enumerate() {
            while o.src.get(at[k]) == Some(&src) {
                order.push(k);
                f.src.push(src);
                f.mults.push(o.mults[at[k]]);
                at[k] += 1;
            }
        }
    }
    for &s in cols {
        let mut its: Vec<_> = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.cols[s]).into_iter())
            .collect();
        let col = order
            .iter()
            .map(|&k| its[k].next().expect("a value per row"));
        f.bind(s, col.collect());
    }
    f
}

impl Chain {
    fn run(&self, mut f: Frame, source: &dyn Source, counters: &mut EvalCounters) -> Frame {
        if let Some(scan) = &self.scan {
            scan.run(&mut f, source, counters);
        }
        for (step, live) in self.steps.iter().zip(&self.live) {
            step.run(&mut f, live, source, counters);
        }
        f
    }
}

impl Scan {
    /// Replace the one row of the statement's frame by the scanned rows
    /// (1.0 × m is m, so the scan skips the product).
    fn run(&self, f: &mut Frame, source: &dyn Source, counters: &mut EvalCounters) {
        f.mults.clear();
        f.src.clear();
        counters.scans += 1;
        let mut visited = 0u64;
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); self.cols.len()];
        source.scan(self.rel, &mut |t, m| {
            visited += 1;
            if self.repeats.iter().all(|&(p, q)| t[p] == t[q]) {
                for (col, &(p, _)) in cols.iter_mut().zip(&self.cols) {
                    col.push(t[p].clone());
                }
                f.mults.push(m);
                f.src.push(0);
            }
        });
        counters.tuples_visited += visited;
        f.live.clear();
        for (col, &(_, slot)) in cols.into_iter().zip(&self.cols) {
            f.bind(slot, col);
        }
    }
}

impl Step {
    /// Apply this step to the frame; `live` marks the slots read after it.
    fn run(&self, f: &mut Frame, live: &[bool], source: &dyn Source, counters: &mut EvalCounters) {
        let n = f.len();
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
            Step::Lookup { rel, key_slots } => {
                let mut keep = vec![false; n];
                let mut key = Vec::with_capacity(key_slots.len());
                for (i, k) in keep.iter_mut().enumerate() {
                    key.clear();
                    key.extend(key_slots.iter().map(|&s| f.cols[s][i].clone()));
                    counters.lookups += 1;
                    let m = source.lookup(*rel, &key);
                    if m != 0.0 {
                        counters.tuples_visited += 1;
                        *k = true;
                        f.mults[i] *= m;
                    }
                }
                f.retain(&keep, live);
            }
            Step::Probe {
                rel,
                bound,
                unbound,
                repeats,
            } => {
                let positions: Vec<usize> = bound.iter().map(|&(p, _)| p).collect();
                let fresh: Vec<(usize, usize)> =
                    unbound.iter().copied().filter(|&(_, s)| live[s]).collect();
                let mut src_idx: Vec<u32> = Vec::new();
                let mut new_cols: Vec<Vec<Value>> = vec![Vec::new(); fresh.len()];
                let mut new_mults: Vec<Mult> = Vec::new();
                let mut emit = |i: usize, m: Mult, t: &[Value]| {
                    if !repeats.iter().all(|&(p, q)| t[p] == t[q]) {
                        return;
                    }
                    src_idx.push(i as u32);
                    for (j, &(p, _)) in fresh.iter().enumerate() {
                        new_cols[j].push(t[p].clone());
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
                            source.scan(*rel, &mut |t, m| rows.push((Tuple::from(t), m)));
                            rows
                        });
                        counters.tuples_visited += rows.len() as u64;
                        for (t, m) in rows.iter() {
                            emit(i, m_left * m, &t.0);
                        }
                    }
                } else {
                    let mut key_vals: Vec<Value> = Vec::with_capacity(bound.len());
                    for (i, &m_left) in f.mults.iter().enumerate() {
                        counters.slices += 1;
                        key_vals.clear();
                        key_vals.extend(bound.iter().map(|&(_, s)| f.cols[s][i].clone()));
                        let mut visited = 0u64;
                        source.slice(*rel, &positions, &key_vals, &mut |t, m| {
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
            Step::Nested(t) => match t.head {
                // A scalar `:=` binds every row to its total: the column,
                // with no fold and no fan-out (each row's weight is × 1.0).
                Head::Assign { var, check: false } if t.keys.is_empty() => {
                    let outs = t.branch_rows(f, source, counters);
                    let totals = Term::scalar_totals(&outs, n);
                    f.prune(live);
                    if t.binds.contains(&var) {
                        let total = |t: Option<Mult>| t.filter(|t| t.abs() >= MULT_EPSILON);
                        let col = totals
                            .into_iter()
                            .map(|t| Value::Double(total(t).unwrap_or(0.0)));
                        f.bind(var, col.collect());
                    }
                }
                _ => {
                    let mut rows = t.run(f, source, counters);
                    let mults = (rows.src.iter().zip(&rows.mults))
                        .map(|(&i, &m)| f.mults[i as usize] * m)
                        .collect();
                    f.fan_out(&rows.src, mults, live);
                    for &s in &t.binds {
                        f.bind(s, std::mem::take(&mut rows.cols[s]));
                    }
                }
            },
        }
    }
}

/// Compile and execute `expr` on the columnar path, accumulating counter
/// increments into `counters`; `None` when [`compile`] refuses it (a term
/// reads a variable not bound on every path to it).
pub fn eval_vectorized(
    expr: &Expr,
    catalog: &dyn Catalog,
    counters: &mut EvalCounters,
) -> Option<Relation> {
    Some(compile(expr)?.execute(catalog, counters))
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
        // Rows with equal and with different columns.
        cat.insert(
            "P",
            RelKind::Base,
            Relation::from_pairs(
                Schema::new(["X", "Y"]),
                vec![
                    (tuple![10, 10], 2.0),
                    (tuple![10, 20], 1.0),
                    (tuple![20, 20], 0.5),
                ],
            ),
        );
        // A value equal to its multiplicity, and one not.
        cat.insert(
            "K",
            RelKind::View,
            Relation::from_pairs(
                Schema::new(["X"]),
                vec![(tuple![2.0], 2.0), (tuple![3.0], 1.0)],
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
        check_in(&catalog(), q);
    }

    /// [`check`] against `cat`.
    fn check_in(cat: &MapCatalog, q: Expr) {
        let mut ev = Evaluator::new(cat);
        let want = ev.eval(&q);
        let plan = compile(&q).unwrap_or_else(|| panic!("expected {q:?} to compile"));
        let mut counters = EvalCounters::default();
        let got = plan.execute(cat, &mut counters);
        assert_eq!(
            want.checksum(),
            got.checksum(),
            "results diverge for {q:?}: want {want:?} got {got:?}"
        );
        assert_eq!(ev.counters, counters, "counters diverge for {q:?}");
        // Insertion order must match too, down to each key's variant and
        // each multiplicity's bits: compare the raw iteration order.
        let rows = |r: &Relation| -> Vec<(String, u64)> {
            r.iter()
                .map(|(t, m)| (format!("{t:?}"), m.to_bits()))
                .collect()
        };
        assert_eq!(
            rows(&want),
            rows(&got),
            "iteration order diverges for {q:?}"
        );
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

    /// Shapes with a term that reads a variable not bound on every path to
    /// it, where the reference path panics, or binds one that some paths
    /// bound, where it binds on some rows and checks on others.
    #[test]
    fn unsupported_shapes_bail() {
        // A union branch leaves `C` unbound, and the result projects it.
        assert!(compile(&join(
            delta_rel("R", ["A", "B"]),
            union(rel("S", ["B", "C"]), view("T", ["B"]))
        ))
        .is_none());
        // A later comparison reads `X`, which one branch did not bind.
        assert!(compile(&sum_total(join_all([
            delta_rel("R", ["A", "B"]),
            union(assign_val("X", ValExpr::lit(1)), Expr::Const(2.0)),
            cmp_lit("X", CmpOp::Gt, 0),
        ])))
        .is_none());
        // A group-by column the body never binds.
        assert!(compile(&sum(["Z"], delta_rel("R", ["A", "B"]))).is_none());
        // `X := 5` after a union that bound `X` in one branch.
        assert!(compile(&sum_total(join_all([
            delta_rel("R", ["A", "B"]),
            union(assign_val("X", ValExpr::lit(1)), Expr::Const(2.0)),
            assign_val("X", ValExpr::lit(5)),
        ])))
        .is_none());
    }

    /// A nested aggregate inside the chain, grouped by a column the outer
    /// chain binds: the step checks `B` rather than binding it.
    #[test]
    fn aggregate_inside_a_chain() {
        check(sum_total(join(
            delta_rel("R", ["A", "B"]),
            sum(["B"], rel("S", ["B", "C"])),
        )));
        check(sum(
            ["A"],
            join_all([
                delta_rel("R", ["A", "B"]),
                sum(["B"], join(rel("S", ["B", "C"]), val_var("C"))),
                val_var("A"),
            ]),
        ));
    }

    /// `X := Sum_[](…)` over the whole of `S`, and correlated on `B`.
    #[test]
    fn assign_over_a_sum() {
        check(sum_total(join(
            delta_rel("R", ["A", "B"]),
            assign_query("X", sum_total(rel("S", ["B", "C"]))),
        )));
        check(sum(
            ["A", "X"],
            join(
                delta_rel("R", ["A", "B"]),
                assign_query("X", sum_total(join(rel("S", ["B", "C"]), val_var("C")))),
            ),
        ));
    }

    /// A correlated `:=` over an empty slice binds 0.0: `S` has no row on
    /// `B` = 30.
    #[test]
    fn correlated_assign_over_an_empty_slice_binds_zero() {
        check(sum(
            ["A", "X"],
            join_all([
                delta_rel("R", ["A", "B"]),
                assign_query(
                    "X",
                    sum_total(join(rel("S", ["B", "C"]), cmp_lit("C", CmpOp::Gt, 100))),
                ),
                cmp_lit("X", CmpOp::Ge, 0),
            ]),
        ));
    }

    /// A grouped nested `Sum` emits two groups for the rows on `B` = 10.
    #[test]
    fn grouped_nested_sum_with_two_groups_per_row() {
        check(sum(
            ["A", "C"],
            join_all([
                delta_rel("R", ["A", "B"]),
                sum(["C"], rel("S", ["B", "C"])),
                val_var("C"),
            ]),
        ));
    }

    /// `Exists(Sum)` inside a chain counts emissions at both levels.
    #[test]
    fn exists_over_a_sum_inside_a_chain() {
        check(sum(
            ["A"],
            join(
                delta_rel("E", ["A", "B"]),
                exists(sum(["C"], join(rel("S", ["B", "C"]), Expr::Const(-1.0)))),
            ),
        ));
    }

    /// The branches of a union fan out two rows, one row and no row per
    /// source row; the rows merge by source row, in branch order.
    #[test]
    fn union_branches_fan_out_different_row_counts() {
        let branches = union(
            union(
                rel("S", ["B", "C"]),
                join(assign_val("C", ValExpr::var("B")), Expr::Const(0.5)),
            ),
            join(cmp_lit("A", CmpOp::Gt, 2), assign_val("C", ValExpr::lit(7))),
        );
        check(join(delta_rel("R", ["A", "B"]), branches.clone()));
        check(sum(
            ["C"],
            join_all([delta_rel("U", ["A", "B"]), branches, val_var("A")]),
        ));
    }

    /// Union branches that bind different variables, none read later.
    #[test]
    fn union_branches_binding_different_variables() {
        check(sum_total(join(
            delta_rel("R", ["A", "B"]),
            union(
                assign_val("X", ValExpr::lit(1)),
                assign_val("Y", ValExpr::lit(2)),
            ),
        )));
    }

    /// A right-nested join multiplies its own subtree first.
    #[test]
    fn right_nested_join() {
        check(Expr::Join(
            Box::new(delta_rel("U", ["A", "B"])),
            Box::new(join(view("V", ["B"]), val_var("A"))),
        ));
        check(sum(
            ["A", "C"],
            Expr::Join(
                Box::new(delta_rel("R", ["A", "B"])),
                Box::new(join(rel("S", ["B", "C"]), view("T", ["C"]))),
            ),
        ));
    }

    /// `R(A, A)`: the second position filters, without an emission.
    #[test]
    fn repeated_column_filters() {
        check(rel("P", ["A", "A"]));
        check(sum(
            ["A"],
            join(delta_rel("R", ["A", "B"]), rel("P", ["B", "B"])),
        ));
        check(sum_total(join(
            delta_rel("R", ["A", "B"]),
            rel("P", ["C", "C"]),
        )));
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

    /// `X := K(X)` binds `X` as a group column, then keeps the groups whose
    /// total equals it.
    #[test]
    fn assign_over_its_own_group_column_is_a_check() {
        check(assign_query("X", view("K", ["X"])));
        check(sum(
            ["A", "X"],
            join(
                delta_rel("R", ["A", "B"]),
                assign_query("X", view("K", ["X"])),
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

    /// Keys that are equal across variants: `Long(1)` and `Double(1.0)`,
    /// `-0.0` and `+0.0`, and two NaNs each group together, keyed by the
    /// first row emitted — at the top and per source row of a nested term.
    #[test]
    fn groups_keep_the_first_key_of_equal_variants() {
        let mut cat = catalog();
        let rows = [
            (tuple![1, 10], 1.0),
            (tuple![1.0, 11], 2.0),
            (tuple![-0.0, 12], 1.0),
            (tuple![0.0, 13], 0.5),
            (tuple![f64::NAN, 14], 1.0),
            (tuple![f64::NAN, 15], 3.0),
            (tuple![2.0, 16], 1.0),
            (tuple![2, 17], -1.0),
            (tuple!["x", 18], 1.0),
        ];
        cat.insert(
            "M",
            RelKind::View,
            Relation::from_pairs(Schema::new(["A", "B"]), rows.clone()),
        );
        // The same rows in the other order, so the other variant comes
        // first wherever the iteration order allows.
        let mut reversed = Relation::new(Schema::new(["A", "B"]));
        for (t, m) in rows.into_iter().rev() {
            reversed.add(t, m);
        }
        cat.insert("N", RelKind::View, reversed);
        for name in ["M", "N"] {
            check_in(&cat, sum(["A"], view(name, ["A", "B"])));
            check_in(&cat, exists(sum(["A"], view(name, ["A", "B"]))));
            check_in(
                &cat,
                join(
                    delta_rel("R", ["C", "D"]),
                    sum(["A"], join(view(name, ["A", "B"]), val_var("C"))),
                ),
            );
            check_in(
                &cat,
                sum(
                    ["A", "D"],
                    join(delta_rel("R", ["C", "D"]), exists(view(name, ["A", "B"]))),
                ),
            );
        }
    }

    /// A group whose running total cancels below ε and then grows again
    /// survives; one that ends below ε does not.  Per source row, a group
    /// cancelled under one row and nonzero under the next.
    #[test]
    fn groups_that_cancel_and_reappear() {
        let mut cat = catalog();
        cat.insert(
            "Y",
            RelKind::View,
            Relation::from_pairs(
                Schema::new(["B", "A", "C"]),
                vec![
                    (tuple![10, 5, 1], 1.0),
                    (tuple![10, 5, 2], -1.0),
                    (tuple![10, 5, 3], 0.25),
                    (tuple![10, 6, 1], 0.1 + 0.2),
                    (tuple![10, 6, 2], -0.3),
                    (tuple![20, 5, 1], 1.0),
                    (tuple![20, 5, 2], -1.0),
                    (tuple![20, 6, 1], 2.0),
                    (tuple![30, 6, 1], 1.0),
                    (tuple![30, 6, 2], -1.0),
                    (tuple![30, 5, 1], 4.0),
                ],
            ),
        );
        check_in(&cat, sum(["A"], view("Y", ["B", "A", "C"])));
        check_in(&cat, sum(["B", "A"], view("Y", ["B", "A", "C"])));
        check_in(
            &cat,
            sum(
                ["A", "D"],
                join(
                    delta_rel("R", ["D", "B"]),
                    sum(["A"], view("Y", ["B", "A", "C"])),
                ),
            ),
        );
        check_in(
            &cat,
            join(
                delta_rel("R", ["D", "B"]),
                assign_query("X", sum_total(view("Y", ["B", "A", "C"]))),
            ),
        );
    }

    /// More than 1 000 groups in one fold, keyed by an integer and a
    /// string (the integer-led sort breaks ties on the string) and by the
    /// string alone; at the top and under two source rows.
    #[test]
    fn folds_with_more_than_a_thousand_groups() {
        let mut cat = catalog();
        let mut g = Relation::new(Schema::new(["K", "S", "V"]));
        for i in 0..3_000i64 {
            let key = (i * 7_919) % 1_500;
            let s = Value::str(format!("s{}", i % 3));
            g.add(
                Tuple::from(vec![Value::Long(key / 2), s, Value::Long(i)]),
                0.5 + (i % 5) as f64,
            );
        }
        cat.insert("G", RelKind::View, g);
        let g = || view("G", ["K", "S", "V"]);
        check_in(&cat, sum(["K", "S"], g()));
        check_in(&cat, sum(["S", "K"], join(g(), val_var("V"))));
        check_in(&cat, exists(sum(["K"], g())));
        check_in(
            &cat,
            join(
                delta_rel("R", ["A", "B"]),
                sum(["K", "S"], join(g(), cmp_vars("V", CmpOp::Gt, "B"))),
            ),
        );
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
        let chain = &plan.term.branches[0];
        assert!(chain.live[0][b] && !chain.live[0][a]);
        let plan = compile(&sum(["B"], delta_rel("R", ["A", "B"]))).unwrap();
        let scan = plan.term.branches[0].scan.as_ref().expect("a scan");
        assert_eq!(scan.cols, &[(1, b)]);
    }
}
