//! # hotdog-serve
//!
//! Multi-tenant standing-query subscriptions with **shared-plan fan-out**:
//! many clients register parameterized standing queries over the shared
//! base relations and receive *pushed incremental view updates* — deltas,
//! not snapshots — after each committed batch.
//!
//! The scale lever is shared-plan maintenance (the DBToaster view-reuse
//! argument applied at the serving layer): all subscribers to one *query
//! shape* are backed by a **single trigger program** on one backend.  The
//! per-subscriber work is a cheap post-trigger delta-split — a parameter
//! filter over the captured view delta — so N subscribers cost one
//! maintenance pass plus O(delta × N) row filtering, not N maintenance
//! passes.
//!
//! ## Life of a delta
//!
//! 1. A batch is admitted to the shape's backend
//!    ([`SubscriptionHub::apply_batch`]) and executes under the normal
//!    trigger program.
//! 2. Every statement applied to a captured view partition is recorded in
//!    the node's **capture log**
//!    ([`hotdog_distributed::capture`]) in exact application order.
//! 3. [`SubscriptionHub::pump`] commits the watermark, drains the logs
//!    over the `TakeCaptured` protocol round, and splits the captured
//!    statement stream per subscriber through its [`ParamFilter`].
//! 4. Each subscriber replays its [`ViewDelta`]s into a
//!    [`SubscriberView`]; because the log preserves the statement stream
//!    (ops, order, and per-node part boundaries), the reconstruction is
//!    **bit-for-bit** identical to a fresh `view_contents` read of the
//!    parameterized view — the subscription differential oracle asserts
//!    exactly that across all three backends.
//!
//! Fault recovery breaks capture continuity (replay would duplicate
//! entries); the driver detects the recovery epoch change and emits a
//! `resync` batch — full snapshot parts as `SetTo` ops — so subscribers
//! reset instead of accumulating: no gaps, no duplicates.
//!
//! The TCP protocol extension (`Subscribe`/`Unsubscribe`/`ViewDelta`
//! frames over the bit-preserving codec) lives in [`net`].

#![forbid(unsafe_code)]

pub mod net;

pub use net::{serve_connection, serve_subscriptions, ClientMsg, ServerMsg, SubscribeClient};

use hotdog_algebra::expr::Expr;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::value::Value;
use hotdog_distributed::{
    compile_distributed, Backend, CaptureBatch, DeltaCapture, DistributedPlan, OptLevel,
    PartitioningSpec, ViewAccumulator,
};
use hotdog_ivm::{compile_recursive, StmtOp};
use std::collections::HashMap;

/// A registered query shape: the query all its subscribers share, plus
/// what the compiler needs to build the one trigger program backing them.
#[derive(Clone, Debug)]
pub struct QueryShape {
    /// Shape key: subscribers naming the same shape share one program.
    pub name: String,
    /// The standing query.
    pub query: Expr,
    /// Candidate partitioning columns, decreasing cardinality.
    pub partition_keys: Vec<String>,
    /// Distributed-compiler optimization level.
    pub opt: OptLevel,
}

impl QueryShape {
    pub fn new(
        name: impl Into<String>,
        query: Expr,
        partition_keys: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        QueryShape {
            name: name.into(),
            query,
            partition_keys: partition_keys.into_iter().map(Into::into).collect(),
            opt: OptLevel::O3,
        }
    }

    /// Compile this shape's single shared trigger program.
    pub fn compile(&self) -> DistributedPlan {
        let plan = compile_recursive(&self.name, &self.query);
        let keys: Vec<&str> = self.partition_keys.iter().map(String::as_str).collect();
        let spec = PartitioningSpec::heuristic(&plan, &keys);
        compile_distributed(&plan, &spec, self.opt)
    }
}

/// A subscriber's parameter binding over the shared view: either the whole
/// view, or the rows whose `column` equals a constant.  Filtering selects
/// whole rows (never rewrites multiplicities), so a filtered replay is
/// bit-identical to filtering the fully replayed view.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamFilter {
    binding: Option<(String, Value)>,
}

impl ParamFilter {
    /// Subscribe to the entire view.
    pub fn all() -> Self {
        ParamFilter { binding: None }
    }

    /// Subscribe to the rows where `column == value`.
    pub fn equals(column: impl Into<String>, value: Value) -> Self {
        ParamFilter {
            binding: Some((column.into(), value)),
        }
    }

    /// The binding, if any.
    pub fn binding(&self) -> Option<(&str, &Value)> {
        self.binding.as_ref().map(|(c, v)| (c.as_str(), v))
    }

    /// Restrict a relation to the matching rows.  Surviving rows keep
    /// their exact multiplicity bits.
    pub fn apply(&self, schema: &Schema, rel: &Relation) -> Relation {
        let Some((column, value)) = &self.binding else {
            return rel.clone();
        };
        let Some(pos) = schema.position(column) else {
            // A binding over a column the view doesn't expose matches
            // nothing (loudly empty beats silently unfiltered).
            return Relation::new(schema.clone());
        };
        let mut out = Relation::new(schema.clone());
        for (t, m) in rel.iter() {
            if t.get(pos) == value {
                out.add(t.clone(), m);
            }
        }
        out
    }

    /// Restrict one captured part's op stream.  `SetTo` snapshots filter
    /// to filtered snapshots; `AddTo` deltas to filtered deltas — empty
    /// `AddTo`s are dropped (a no-op for replay), empty `SetTo`s kept
    /// (they still clear the part).
    fn split_ops(&self, schema: &Schema, ops: &[(StmtOp, Relation)]) -> Vec<(StmtOp, Relation)> {
        ops.iter()
            .filter_map(|(op, rel)| {
                let filtered = self.apply(schema, rel);
                match op {
                    StmtOp::AddTo if filtered.is_empty() => None,
                    _ => Some((*op, filtered)),
                }
            })
            .collect()
    }
}

/// Unique handle of one subscription within a hub.
pub type SubscriptionId = u64;

/// One pushed incremental update for one subscriber: the parameter-filtered
/// captured statement stream of its view, split per node part, stamped
/// with the watermark it brings the subscriber up to.
#[derive(Clone, Debug)]
pub struct ViewDelta {
    pub subscription: SubscriptionId,
    pub view: String,
    /// Committed batches this delta brings the subscriber up to; a delta
    /// is only ever emitted after its batches' watermark commit.
    pub watermark: u64,
    /// When set, the subscriber must reset its accumulator and rebuild
    /// from the `SetTo` snapshot parts (initial subscription, or capture
    /// continuity broken by fault recovery).
    pub resync: bool,
    /// Per-part `(op, relation)` entries in application order.
    pub parts: Vec<Vec<(StmtOp, Relation)>>,
}

/// Client-side accumulator: replays [`ViewDelta`]s through a
/// [`ViewAccumulator`], whose ordered part merge reconstructs the
/// parameterized view bit-for-bit, and tracks the watermark reached.
#[derive(Clone, Debug)]
pub struct SubscriberView {
    acc: ViewAccumulator,
    watermark: u64,
    deltas_applied: u64,
}

impl SubscriberView {
    pub fn new(schema: Schema) -> Self {
        SubscriberView {
            acc: ViewAccumulator::new(schema),
            watermark: 0,
            deltas_applied: 0,
        }
    }

    /// Replay one pushed delta.
    pub fn apply(&mut self, delta: &ViewDelta) {
        self.acc.apply(&delta.parts, delta.resync);
        self.watermark = self.watermark.max(delta.watermark);
        self.deltas_applied += 1;
    }

    /// The reconstructed parameterized view (parts merged in node order).
    pub fn contents(&self) -> Relation {
        self.acc.contents()
    }

    /// Committed batches this view reflects.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Deltas replayed so far.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }
}

/// One shape's shared backend plus its subscriber table.
struct ShapeEntry<B> {
    backend: B,
    view: String,
    schema: Schema,
    subscribers: HashMap<SubscriptionId, ParamFilter>,
    /// Hub-side full-view accumulator, advanced at every pump: the cut a
    /// mid-stream subscriber's initial snapshot is taken from.
    acc: ViewAccumulator,
    /// Watermark as of the last pump (what `acc` reflects).
    watermark: u64,
}

/// The serving front-end: routes subscriptions onto shared per-shape
/// backends and fans captured deltas out to subscribers.
///
/// Generic over the backend so the same hub runs on the simulated cluster,
/// the threaded runtime, or TCP worker processes; `make_backend` builds
/// one backend per *shape* (not per subscriber) from the shape's compiled
/// plan.
pub struct SubscriptionHub<B, F>
where
    B: Backend + DeltaCapture,
    F: FnMut(&QueryShape, DistributedPlan) -> B,
{
    make_backend: F,
    shapes: HashMap<String, ShapeEntry<B>>,
    /// `subscription id -> shape name` (ids are hub-unique).
    routes: HashMap<SubscriptionId, String>,
    next_id: SubscriptionId,
}

impl<B, F> SubscriptionHub<B, F>
where
    B: Backend + DeltaCapture,
    F: FnMut(&QueryShape, DistributedPlan) -> B,
{
    pub fn new(make_backend: F) -> Self {
        SubscriptionHub {
            make_backend,
            shapes: HashMap::new(),
            routes: HashMap::new(),
            next_id: 1,
        }
    }

    /// Number of live trigger programs (== number of distinct subscribed
    /// shapes; the shared-plan invariant the unit tests pin).
    pub fn active_programs(&self) -> usize {
        self.shapes.len()
    }

    /// Number of live subscriptions across all shapes.
    pub fn subscriber_count(&self) -> usize {
        self.shapes.values().map(|e| e.subscribers.len()).sum()
    }

    /// Register a subscriber.  The first subscriber to a shape compiles
    /// the shape and spins up its backend (with capture armed); later
    /// subscribers reuse the same program.  Returns the subscription id
    /// and the initial `resync` delta cutting the subscriber in at the
    /// shape's current watermark.
    pub fn subscribe(
        &mut self,
        shape: &QueryShape,
        filter: ParamFilter,
    ) -> (SubscriptionId, ViewDelta) {
        if !self.shapes.contains_key(&shape.name) {
            let dplan = shape.compile();
            let view = dplan.plan.top_view.clone();
            let schema = dplan.schema_of(&view).unwrap_or_default();
            let mut backend = (self.make_backend)(shape, dplan);
            backend.enable_capture(std::slice::from_ref(&view));
            self.shapes.insert(
                shape.name.clone(),
                ShapeEntry {
                    backend,
                    view,
                    schema: schema.clone(),
                    subscribers: HashMap::new(),
                    acc: ViewAccumulator::new(schema),
                    watermark: 0,
                },
            );
        }
        let entry = self.shapes.get_mut(&shape.name).expect("just inserted");
        let id = self.next_id;
        self.next_id += 1;
        // Initial state: a resync delta with one filtered SetTo snapshot
        // per part, cut from the hub accumulator (== the view as of the
        // last pump, exactly what subsequent deltas continue from).
        let parts = entry
            .acc
            .parts()
            .iter()
            .map(|part| vec![(StmtOp::SetTo, filter.apply(&entry.schema, part))])
            .collect();
        let initial = ViewDelta {
            subscription: id,
            view: entry.view.clone(),
            watermark: entry.watermark,
            resync: true,
            parts,
        };
        entry.subscribers.insert(id, filter);
        self.routes.insert(id, shape.name.clone());
        entry
            .backend
            .telemetry()
            .gauge("serve.subscribers")
            .set(entry.subscribers.len() as u64);
        (id, initial)
    }

    /// Drop a subscription.  The last subscriber of a shape retires its
    /// trigger program (the backend is torn down).  Returns whether the id
    /// was live.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(shape) = self.routes.remove(&id) else {
            return false;
        };
        let Some(entry) = self.shapes.get_mut(&shape) else {
            return false;
        };
        entry.subscribers.remove(&id);
        entry
            .backend
            .telemetry()
            .gauge("serve.subscribers")
            .set(entry.subscribers.len() as u64);
        if entry.subscribers.is_empty() {
            self.shapes.remove(&shape);
        }
        true
    }

    /// The schema of a subscription's view.
    pub fn schema_of(&self, id: SubscriptionId) -> Option<&Schema> {
        let shape = self.routes.get(&id)?;
        self.shapes.get(shape).map(|e| &e.schema)
    }

    /// Admit one batch of updates to every shape's backend (shapes over
    /// the same base relations each maintain their own view of it).
    pub fn apply_batch(&mut self, relation: &str, batch: &Relation) {
        for entry in self.shapes.values_mut() {
            entry.backend.apply_batch(relation, batch);
        }
    }

    /// Commit and fan out: for every shape, flush the backend, drain the
    /// capture logs (watermark-consistent), advance the hub accumulator,
    /// and split the captured stream per subscriber.  Returns the deltas
    /// to push, in deterministic (shape name, subscription id) order.
    pub fn pump(&mut self) -> Vec<ViewDelta> {
        let mut out = Vec::new();
        let mut names: Vec<String> = self.shapes.keys().cloned().collect();
        names.sort();
        for name in names {
            let entry = self.shapes.get_mut(&name).expect("shape present");
            entry.backend.flush();
            let captured: CaptureBatch = entry.backend.take_captured();
            entry.watermark = captured.watermark;
            let telemetry = entry.backend.telemetry();
            telemetry.counter("serve.pump_rounds").inc();
            let Some(view) = captured.views.iter().find(|v| v.name == entry.view) else {
                continue;
            };
            entry.acc.apply(&view.parts, captured.resync);
            let mut ids: Vec<SubscriptionId> = entry.subscribers.keys().copied().collect();
            ids.sort_unstable();
            // The per-subscriber split is the serving layer's contribution
            // to the batch's span tree: a "fanout.split" child under the
            // most recent batch root (absent before the first batch).
            let span = telemetry.begin_span(entry.backend.trace_scope(), "fanout.split");
            let mut pushed = 0u64;
            for id in ids {
                let filter = &entry.subscribers[&id];
                let parts: Vec<Vec<(StmtOp, Relation)>> = view
                    .parts
                    .iter()
                    .map(|ops| filter.split_ops(&entry.schema, ops))
                    .collect();
                // Quiet windows push nothing (a resync must always land,
                // even when the snapshot is empty).
                if !captured.resync && parts.iter().all(Vec::is_empty) {
                    continue;
                }
                pushed += 1;
                out.push(ViewDelta {
                    subscription: id,
                    view: entry.view.clone(),
                    watermark: captured.watermark,
                    resync: captured.resync,
                    parts,
                });
            }
            telemetry.finish_span(span);
            telemetry.counter("serve.deltas_pushed").add(pushed);
        }
        out
    }

    /// Mutable access to a shape's shared backend (oracle assertions and
    /// fault injection reach through here).
    pub fn backend(&mut self, shape: &str) -> Option<&mut B> {
        self.shapes.get_mut(shape).map(|e| &mut e.backend)
    }

    /// Direct read of a shape's full view (the oracle's reference path).
    pub fn view_contents(&mut self, shape: &str) -> Option<Relation> {
        let entry = self.shapes.get_mut(shape)?;
        Some(entry.backend.view_contents(&entry.view.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::{join, rel, sum};
    use hotdog_algebra::tuple;
    use hotdog_ivm::StmtOp;
    use hotdog_runtime::{Cluster, ClusterConfig};

    fn shape(name: &str) -> QueryShape {
        QueryShape::new(
            name,
            sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"]))),
            ["A"],
        )
    }

    fn hub() -> SubscriptionHub<Cluster, impl FnMut(&QueryShape, DistributedPlan) -> Cluster> {
        SubscriptionHub::new(|_shape: &QueryShape, dplan: DistributedPlan| {
            Cluster::new(dplan, ClusterConfig::with_workers(3))
        })
    }

    fn feed(
        hub: &mut SubscriptionHub<Cluster, impl FnMut(&QueryShape, DistributedPlan) -> Cluster>,
    ) {
        hub.apply_batch(
            "R",
            &Relation::from_pairs(
                Schema::new(["A", "B"]),
                (0..20i64).map(|i| (tuple![i, i % 4], 1.0)),
            ),
        );
        hub.apply_batch(
            "S",
            &Relation::from_pairs(
                Schema::new(["B", "C"]),
                (0..8i64).map(|i| (tuple![i % 4, i], 1.0)),
            ),
        );
    }

    #[test]
    fn k_subscribers_same_shape_share_one_program() {
        let mut h = hub();
        let s = shape("Q");
        let mut ids = Vec::new();
        for k in 0..5i64 {
            let (id, initial) = h.subscribe(&s, ParamFilter::equals("B", Value::from(k)));
            assert!(initial.resync);
            ids.push(id);
        }
        assert_eq!(h.active_programs(), 1, "K subscribers, one trigger program");
        assert_eq!(h.subscriber_count(), 5);
        // A distinct shape gets its own program.
        let (other, _) = h.subscribe(&shape("Q2"), ParamFilter::all());
        assert_eq!(h.active_programs(), 2);

        // Unsubscribing all but one keeps the program; the last retires it.
        for id in &ids[..4] {
            assert!(h.unsubscribe(*id));
        }
        assert_eq!(h.active_programs(), 2);
        assert!(h.unsubscribe(ids[4]));
        assert_eq!(
            h.active_programs(),
            1,
            "last unsubscribe retires the program"
        );
        assert!(h.unsubscribe(other));
        assert_eq!(h.active_programs(), 0);
        assert!(!h.unsubscribe(ids[0]), "double unsubscribe is a no-op");
    }

    #[test]
    fn pushed_deltas_reconstruct_the_filtered_view_bit_for_bit() {
        let mut h = hub();
        let s = shape("Q");
        let (full_id, init_full) = h.subscribe(&s, ParamFilter::all());
        let (one_id, init_one) = h.subscribe(&s, ParamFilter::equals("B", Value::from(2i64)));
        let schema = h.schema_of(full_id).unwrap().clone();
        let mut full = SubscriberView::new(schema.clone());
        let mut one = SubscriberView::new(schema.clone());
        full.apply(&init_full);
        one.apply(&init_one);
        for _ in 0..3 {
            feed(&mut h);
            for delta in h.pump() {
                if delta.subscription == full_id {
                    full.apply(&delta);
                } else if delta.subscription == one_id {
                    one.apply(&delta);
                }
            }
        }
        let reference = h.view_contents("Q").unwrap();
        assert_eq!(
            full.contents().checksum(),
            reference.checksum(),
            "unfiltered subscriber must reconstruct the view bit-for-bit"
        );
        let filtered = ParamFilter::equals("B", Value::from(2i64)).apply(&schema, &reference);
        assert_eq!(
            one.contents().checksum(),
            filtered.checksum(),
            "filtered subscriber must reconstruct the filtered view bit-for-bit"
        );
    }

    #[test]
    fn no_delta_precedes_its_batch_watermark_commit() {
        let mut h = hub();
        let s = shape("Q");
        let (_id, initial) = h.subscribe(&s, ParamFilter::all());
        assert_eq!(initial.watermark, 0, "nothing committed yet");
        feed(&mut h); // two batches
        let deltas = h.pump();
        assert!(!deltas.is_empty());
        for d in &deltas {
            assert_eq!(
                d.watermark, 2,
                "a delta's watermark must cover every batch whose effects it carries"
            );
        }
        // A pump with nothing new pushes nothing (and commits nothing).
        assert!(h.pump().is_empty());
    }

    #[test]
    fn mid_stream_subscriber_joins_at_the_current_cut() {
        let mut h = hub();
        let s = shape("Q");
        let (early_id, init_early) = h.subscribe(&s, ParamFilter::all());
        let schema = h.schema_of(early_id).unwrap().clone();
        let mut early = SubscriberView::new(schema.clone());
        early.apply(&init_early);
        feed(&mut h);
        for d in h.pump() {
            early.apply(&d);
        }
        // Joins after two committed batches: the initial snapshot must be
        // the current cut, and later deltas continue from it.
        let (late_id, init_late) = h.subscribe(&s, ParamFilter::all());
        assert!(init_late.resync);
        assert_eq!(init_late.watermark, 2);
        let mut late = SubscriberView::new(schema);
        late.apply(&init_late);
        feed(&mut h);
        for d in h.pump() {
            if d.subscription == early_id {
                early.apply(&d);
            } else if d.subscription == late_id {
                late.apply(&d);
            }
        }
        let reference = h.view_contents("Q").unwrap();
        assert_eq!(early.contents().checksum(), reference.checksum());
        assert_eq!(late.contents().checksum(), reference.checksum());
    }

    #[test]
    fn param_filter_drops_empty_addto_but_keeps_setto() {
        let schema = Schema::new(["B"]);
        let f = ParamFilter::equals("B", Value::from(7i64));
        let miss = Relation::from_pairs(schema.clone(), vec![(tuple![1], 1.0)]);
        let ops = vec![(StmtOp::AddTo, miss.clone()), (StmtOp::SetTo, miss)];
        let split = f.split_ops(&schema, &ops);
        assert_eq!(split.len(), 1);
        assert!(matches!(split[0].0, StmtOp::SetTo));
        assert!(split[0].1.is_empty());
    }
}
