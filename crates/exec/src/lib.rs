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
//! * [`slice_index::SliceIndex`] — the one scan and slice path of the
//!   execution catalogs: delta and temp slices are hash-indexed once per
//!   statement, and every tuple touched is counted.
//!
//! Both the local engine and the distributed `WorkerState` funnel every
//! trigger statement through [`vectorized::eval_vectorized`] first and fall
//! back to the row-at-a-time [`Evaluator`](hotdog_algebra::eval::Evaluator)
//! for shapes the vectorizer does not cover, so the two interpreters can
//! never diverge observably.

#![forbid(unsafe_code)]

pub mod database;
pub mod engine;
pub mod slice_index;
pub mod vectorized;

pub use database::{Database, ExecCatalog};
pub use engine::{relabel, BatchStats, EngineTotals, ExecMode, LocalEngine};
pub use slice_index::{SliceIndex, Stored};
#[doc(hidden)]
pub use vectorized::set_columnar;
pub use vectorized::{eval_vectorized, VectorPlan};
