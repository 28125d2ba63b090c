//! # hotdog-algebra
//!
//! Generalized multiset relations and the AGCA-style query algebra used by
//! the SIGMOD'16 paper *"How to Win a Hot Dog Eating Contest: Distributed
//! Incremental View Maintenance with Batch Updates"*.
//!
//! The crate provides:
//!
//! * [`value::Value`] / [`tuple::Tuple`] — the scalar and row types of the
//!   data model;
//! * [`relation::Relation`] — reference hash-map representation of a
//!   generalized multiset relation;
//! * [`schema::Schema`] — ordered column-name sets;
//! * [`expr::Expr`] — the query algebra AST (relations, bag union, natural
//!   join, `Sum`, constants, value terms, comparisons, variable assignment
//!   including nested aggregates, and `Exists`);
//! * [`eval`] — a continuation-passing reference evaluator implementing the
//!   paper's left-to-right model of computation over a pluggable
//!   [`eval::Catalog`].
//!
//! Higher layers build on this crate: `hotdog-ivm` derives delta queries and
//! maintenance triggers, `hotdog-exec` runs them against specialized storage,
//! and `hotdog-distributed` re-compiles them for a simulated cluster.

#![forbid(unsafe_code)]

pub mod eval;
pub mod expr;
pub mod hash;
pub mod relation;
pub mod ring;
pub mod schema;
pub mod tuple;
pub mod value;

pub use eval::{evaluate, Catalog, Env, EvalCounters, Evaluator, MapCatalog};
pub use expr::{
    assign_query, assign_val, cmp, cmp_lit, cmp_vars, delta_rel, exists, join, join_all, neg, rel,
    sum, sum_total, union, val, val_var, view, CmpOp, Expr, RelKind, RelRef, ValExpr,
};
pub use hash::{DetMap, DetSet, DetState};
pub use relation::{Relation, ViewChecksum};
pub use ring::Mult;
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::Value;
