//! Delta capture: the backend-side hook of the subscription layer.
//!
//! `hotdog-serve` pushes *incremental view updates* to subscribers instead
//! of letting them poll snapshots.  The mechanism is a per-node **capture
//! log**: when capture is enabled for a view, every statement applied to a
//! node's partition of it ([`WorkerState::apply`]) is also recorded as a
//! `(view, op, relation)` entry, in exact application order.  After each
//! committed batch the driver (`hotdog-runtime`'s `Driver::take_captured`)
//! drains the logs (watermark-consistent by command FIFO) and assembles a [`CaptureBatch`] whose per-view parts are
//! ordered exactly like `view_contents` merges node partitions — so a
//! client replaying the log against its own accumulator
//! ([`ViewAccumulator`]) performs the *same float operations in the same
//! order* as the cluster's pools and lands on the bit-identical relation.
//!
//! Recording the statement stream rather than a merged delta is what makes
//! this exact: a pre-merged buffer would re-associate additions (and lose
//! `SetTo` overwrite boundaries), drifting by ulps under exact
//! cancellation.  See [`WorkerState::apply`] for the hook itself.
//!
//! [`WorkerState::apply`]: crate::worker::WorkerState::apply

use crate::partition::LocTag;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_ivm::StmtOp;

/// One view's captured statement stream for one batch window, split per
/// node part in `view_contents` merge order: `Local` views have a single
/// driver part, `Replicated` views a single part (worker 0's copy — every
/// worker applies the identical stream), distributed views one part per
/// worker in worker order.
#[derive(Clone, Debug, Default)]
pub struct CapturedView {
    pub name: String,
    /// Per-part `(op, relation)` entries in exact application order.
    pub parts: Vec<Vec<(StmtOp, Relation)>>,
}

/// Everything captured between two drains: the statement streams of every
/// captured view, stamped with the watermark (committed batch count) they
/// bring a subscriber up to.
#[derive(Clone, Debug, Default)]
pub struct CaptureBatch {
    /// Batches committed as of this capture cut; deltas never precede their
    /// batch's watermark commit.
    pub watermark: u64,
    /// When set, the capture continuity was broken (a fault-recovery cycle
    /// replayed the stream) and each part carries exactly one `SetTo` entry
    /// holding the part's full snapshot: subscribers reset rather than
    /// accumulate, which is how recovery avoids both gaps and duplicates.
    pub resync: bool,
    pub views: Vec<CapturedView>,
}

/// Client-side reconstruction of one captured view: one accumulator
/// relation per node part, replayed from the captured statement stream.
/// Merging the parts in order ([`ViewAccumulator::contents`]) reproduces
/// `view_contents`' float-association tree exactly.
#[derive(Clone, Debug)]
pub struct ViewAccumulator {
    schema: Schema,
    parts: Vec<Relation>,
}

impl ViewAccumulator {
    pub fn new(schema: Schema) -> Self {
        ViewAccumulator {
            schema,
            parts: Vec::new(),
        }
    }

    /// Replay one captured window of this view, given as its per-part
    /// entries ([`CapturedView::parts`]).  With `resync` the parts are
    /// reset first (the entries then rebuild them from snapshots).
    pub fn apply(&mut self, parts: &[Vec<(StmtOp, Relation)>], resync: bool) {
        if resync {
            self.parts.clear();
        }
        if self.parts.len() < parts.len() {
            self.parts
                .resize_with(parts.len(), || Relation::new(self.schema.clone()));
        }
        for (part, ops) in self.parts.iter_mut().zip(parts) {
            for (op, rel) in ops {
                match op {
                    StmtOp::AddTo => part.merge(rel),
                    StmtOp::SetTo => *part = rel.clone(),
                }
            }
        }
    }

    /// The per-node part accumulators, in node order (what a mid-stream
    /// subscriber's initial snapshot is cut from).
    pub fn parts(&self) -> &[Relation] {
        &self.parts
    }

    /// The reconstructed view: parts merged in node order, exactly as
    /// `view_contents` merges partitions.
    pub fn contents(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for part in &self.parts {
            out.merge(part);
        }
        out
    }
}

/// Group one node's drained log by view name, in application order.
fn split_log(
    log: Vec<(String, StmtOp, Relation)>,
    views: &[String],
) -> Vec<Vec<(StmtOp, Relation)>> {
    let mut per_view: Vec<Vec<(StmtOp, Relation)>> = views.iter().map(|_| Vec::new()).collect();
    for (name, op, rel) in log {
        if let Some(i) = views.iter().position(|v| *v == name) {
            per_view[i].push((op, rel));
        }
    }
    per_view
}

/// Assemble per-node drained logs into [`CapturedView`]s, routing parts by
/// each view's location tag.  `worker_logs` must be in worker order; every
/// backend funnels through this so part order cannot diverge.
pub fn assemble_views(
    views: &[String],
    locate: impl Fn(&str) -> LocTag,
    driver_log: Vec<(String, StmtOp, Relation)>,
    worker_logs: Vec<Vec<(String, StmtOp, Relation)>>,
) -> Vec<CapturedView> {
    let mut driver_split = split_log(driver_log, views);
    let mut worker_splits: Vec<_> = worker_logs
        .into_iter()
        .map(|log| split_log(log, views))
        .collect();
    views
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let parts = match locate(name) {
                LocTag::Local => vec![std::mem::take(&mut driver_split[i])],
                LocTag::Replicated => vec![worker_splits
                    .first_mut()
                    .map(|w| std::mem::take(&mut w[i]))
                    .unwrap_or_default()],
                _ => worker_splits
                    .iter_mut()
                    .map(|w| std::mem::take(&mut w[i]))
                    .collect(),
            };
            CapturedView {
                name: name.clone(),
                parts,
            }
        })
        .collect()
}
