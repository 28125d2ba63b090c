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
//! * [`vectorized`] — the columnar fast path: trigger statements compiled
//!   to slot-addressed [`vectorized::VectorPlan`]s executed one operator per
//!   batch over column slices, bit-identical to the reference interpreter
//!   (always on; no option selects an interpreter);
//! * [`execute`] — the one statement executor of the local engine and of
//!   every distributed node: it builds the statement's catalog (a `Delta`
//!   reference reads the batch, any other an exchange buffer or else a
//!   view pool), runs
//!   [`vectorized::eval_vectorized`] first and falls back to the
//!   row-at-a-time [`Evaluator`](hotdog_algebra::eval::Evaluator) for
//!   shapes the vectorizer does not cover, so the two interpreters can
//!   never diverge observably.  Its catalog slices deltas and temps
//!   through hash indexes built once per statement, and counts every
//!   tuple touched.

#![forbid(unsafe_code)]

pub mod database;
pub mod engine;
mod slice_index;
pub mod vectorized;

pub use database::{execute, Database, Executed};
pub use engine::{relabel, BatchStats, EngineTotals, ExecMode, LocalEngine};
#[doc(hidden)]
pub use vectorized::set_columnar;
pub use vectorized::{eval_vectorized, VectorPlan};
