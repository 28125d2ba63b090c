//! # hotdog-exec
//!
//! The local execution engine for compiled view-maintenance plans:
//!
//! * [`database::Database`] — one multi-indexed record pool per materialized
//!   view, with automatic secondary-index creation driven by the plan's
//!   access-pattern analysis;
//! * [`engine::LocalEngine`] — the trigger interpreter, supporting
//!   single-tuple and batched execution (with optional batch
//!   pre-aggregation) and metering evaluator/storage operation counts;
//! * [`vectorized`] — the statement interpreter: statements compiled to
//!   slot-addressed [`vectorized::VectorPlan`]s executed one operator per
//!   batch over column slices, nested aggregates included, bit-identical
//!   to the reference [`Evaluator`](hotdog_algebra::eval::Evaluator);
//! * [`execute`] — the one statement executor of the local engine and of
//!   every distributed node: it runs a [`vectorized::VectorPlan`] compiled
//!   once, where its statement was installed — the one execution path —
//!   after binding each relation the plan reads (a `Delta` reference to
//!   the batch, any other to an exchange buffer or else a view pool) once
//!   per call.  It slices deltas and temps through hash indexes built
//!   once per call, and counts every tuple touched.

#![forbid(unsafe_code)]

pub mod database;
pub mod engine;
mod slice_index;
pub mod vectorized;

pub use database::{execute, Database, Executed};
pub use engine::{relabel, BatchStats, EngineTotals, ExecMode, LocalEngine};
pub use vectorized::{eval_vectorized, Unsupported, VectorPlan};
