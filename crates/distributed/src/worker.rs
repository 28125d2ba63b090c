//! Backend-agnostic per-node state and statement execution.
//!
//! Every execution backend is `hotdog-runtime`'s one driver over a
//! transport — the simulated `Cluster` (`Driver<SimTransport>`, workers run
//! inline on the driver's thread), the thread-per-worker runtime and the
//! TCP runtime — and each runs the same compiled [`DistributedPlan`]s over
//! the same node-local machinery: a [`Database`] holding this node's
//! partition of every materialized view, plus transient exchange buffers
//! (`temps`) refreshed by the location transformers.  [`WorkerState`]
//! bundles the two with the statement-application rules so the backends
//! cannot diverge in semantics, only in how messages move and in how time
//! is accounted.
//!
//! [`DistributedPlan`]: crate::program::DistributedPlan

use crate::program::{DistStatement, DistStmtKind, ProgramBlocks};
use hotdog_algebra::eval::EvalCounters;
use hotdog_algebra::expr::Expr;
use hotdog_algebra::relation::Relation;
use hotdog_exec::{Database, Unsupported, VectorPlan};
use hotdog_ivm::{MaintenancePlan, StmtOp};
use hotdog_telemetry::trace::WorkerTracer;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A `(program, block, statement)` position in [`ProgramBlocks`]: the
/// statement an `ApplyMany` shard is installed by.
pub type StmtRef = (u32, u32, u32);

/// A command named a block or statement this node's [`ProgramBlocks`] do
/// not hold.  Drivers only send positions they compiled, so this is a
/// corrupt or hostile frame; the TCP worker answers it with `InvalidData`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownStatement {
    pub program: u32,
    pub block: u32,
    /// `None` when a whole block was named (`RunBlock`).
    pub statement: Option<u32>,
}

impl fmt::Display for UnknownStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no block {}.{}", self.program, self.block)?;
        if let Some(s) = self.statement {
            write!(f, " statement {s}")?;
        }
        write!(f, " in this worker's programs")
    }
}

impl std::error::Error for UnknownStatement {}

/// One installed statement; a `Compute` carries its plan, compiled once.
type Installed = (DistStatement, Option<VectorPlan>);

/// The statements a node runs, indexed like [`ProgramBlocks`], with every
/// `Compute` statement compiled where the programs are installed — once
/// per cluster for in-process workers, which share them by `Arc`, and once
/// per TCP worker process, from the plan it compiles out of its `Init`.
#[derive(Debug, Default)]
pub struct Programs(Vec<Vec<Vec<Installed>>>);

impl Programs {
    /// Compile every `Compute` statement of `blocks`, or name the first
    /// that does not compile.
    pub fn install(blocks: ProgramBlocks) -> Result<Self, Unsupported> {
        let install = |stmt: DistStatement| {
            let plan = match &stmt.kind {
                DistStmtKind::Compute(expr) => Some(VectorPlan::new(expr)?),
                DistStmtKind::Transform { .. } => None,
            };
            Ok((stmt, plan))
        };
        let block = |b: Vec<DistStatement>| b.into_iter().map(install).collect();
        let program = |p: Vec<Vec<DistStatement>>| p.into_iter().map(block).collect();
        blocks
            .into_iter()
            .map(program)
            .collect::<Result<_, _>>()
            .map(Programs)
    }

    /// The expression of every installed `Compute` statement.
    pub(crate) fn compute_exprs(&self) -> impl Iterator<Item = &Expr> {
        let statements = self.0.iter().flatten().flatten();
        statements.filter_map(|(stmt, _)| match &stmt.kind {
            DistStmtKind::Compute(expr) => Some(expr),
            DistStmtKind::Transform { .. } => None,
        })
    }

    fn block(&self, program: u32, block: u32) -> Result<&[Installed], UnknownStatement> {
        let blocks = self.0.get(program as usize);
        (blocks
            .and_then(|b| b.get(block as usize))
            .map(Vec::as_slice))
        .ok_or(UnknownStatement {
            program,
            block,
            statement: None,
        })
    }

    fn statement(&self, at: StmtRef) -> Result<&Installed, UnknownStatement> {
        let (program, block, statement) = at;
        let installed = self
            .block(program, block)
            .ok()
            .and_then(|b| b.get(statement as usize));
        installed.ok_or(UnknownStatement {
            program,
            block,
            statement: Some(statement),
        })
    }
}

/// One node's transient exchange buffers (scattered batches, repartitioned
/// views, partial results), keyed by temp name.
pub type Temps = HashMap<String, Relation>;

/// Cumulative per-node work counters, maintained inline by [`WorkerState`]
/// as it executes statements.  Every field is a deterministic function of
/// the command sequence the node processed — no wall-clock, no transport —
/// so the same admission stream must produce identical counters on the
/// threaded and TCP backends (the telemetry differential oracle asserts
/// exactly that, via the `Stats` protocol message).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Distributed blocks executed (triggers fired on this node).
    pub blocks_run: u64,
    /// `Compute` statements interpreted.
    pub statements: u64,
    /// Weighted interpreter work (see `EvalCounters::instructions`).
    pub instructions: u64,
    /// Tuples across the scattered shards installed via `ApplyMany`.
    pub tuples_applied: u64,
    /// Tuples touched by statement scans and slices (see
    /// `EvalCounters::tuples_touched`).
    pub tuples_touched: u64,
}

/// One node's [`WorkerStats`] plus the cardinality of each of its view
/// partitions, as shipped back in a `Stats` protocol reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// The cumulative work counters.
    pub stats: WorkerStats,
    /// `(view name, tuple count)` of this node's partition of every
    /// persistent view, sorted by name.
    pub cardinalities: Vec<(String, u64)>,
}

/// A serializable image of one node's state: every view partition in
/// **canonical** (sorted-content) form, plus the work counters — the
/// payload of the fault-tolerance `Checkpoint`/`Restore` protocol round.
///
/// Views are sorted by name so the encoded bytes are a pure function of
/// the state, and every relation is [`Relation::canonical`] so a node
/// rebuilt from a snapshot lands in exactly the layout the checkpoint
/// epoch's canonicalization barrier left the original node in (see
/// [`WorkerState::canonicalize`]).  Exchange buffers are not carried: the
/// compiler makes every one a `SetTo` that its trigger writes before it
/// reads it in each batch (a scatter ships every worker a shard, empty or
/// not), so a buffer held at a checkpoint is never read again.
#[derive(Clone, Debug, Default)]
pub struct WorkerSnapshot {
    /// `(view name, canonical partition contents)`, sorted by name.
    pub views: Vec<(String, Relation)>,
    /// The node's cumulative work counters at the checkpoint cut.
    pub stats: WorkerStats,
}

/// The state of one node (driver or worker): its partition of the
/// materialized views and its exchange buffers.
#[derive(Debug)]
pub struct WorkerState {
    /// This node's partition of every materialized view.
    pub db: Database,
    /// Exchange buffers, refreshed per batch by transformer statements.
    pub temps: Temps,
    /// Cumulative work counters (see [`WorkerStats`]).
    pub stats: WorkerStats,
    /// Names of the plan's real (persistent) views; everything else written
    /// by a statement is an exchange buffer.
    views: HashSet<String>,
    /// Views whose applied statements should be recorded for subscription
    /// fan-out (empty = capture disabled, the default).
    capture: HashSet<String>,
    /// Application-order log of `(view, op, result)` for captured views.
    /// Recording the *statement stream* rather than a merged buffer is what
    /// keeps client-side reconstruction bit-for-bit: a client replaying the
    /// log performs the same per-key float additions in the same order the
    /// node's pool did, so exact cancellations and `SetTo` overwrites land
    /// identically (a pre-merged delta would re-associate the additions).
    captured: Vec<(String, StmtOp, Relation)>,
    /// This node's span buffer: spans opened under wire-propagated trace
    /// contexts, drained by the `Stats` protocol round.  Set the display
    /// track via [`WorkerState::set_trace_track`] (worker `w` → `w + 1`).
    pub tracer: WorkerTracer,
    /// The statements `RunBlock` and `ApplyMany` name by position, and the
    /// driver node's `Local` blocks run by position too.
    programs: Arc<Programs>,
}

impl WorkerState {
    /// Create empty node state for a maintenance plan and the installed
    /// programs its commands name statements in.  The views carry the
    /// secondary indexes the installed statements probe, not those of the
    /// plan's local triggers, which no node runs.
    pub fn with_programs(plan: &MaintenancePlan, programs: Arc<Programs>) -> Self {
        let indexes = plan.index_requirements_of(programs.compute_exprs());
        WorkerState {
            db: Database::with_indexes(plan, indexes),
            temps: Temps::new(),
            stats: WorkerStats::default(),
            views: plan.views.iter().map(|v| v.name.clone()).collect(),
            capture: HashSet::new(),
            captured: Vec::new(),
            tracer: WorkerTracer::default(),
            programs,
        }
    }

    /// Set this node's span display track (worker `w` uses `w + 1`; track
    /// 0 is the driver's).  Span ids are namespaced by the track, so this
    /// must be set before the node opens its first span.
    pub fn set_trace_track(&mut self, track: u32) {
        self.tracer.set_track(track);
    }

    /// Enable statement capture for `views` (replacing any previous capture
    /// set) and discard whatever the old set had logged.  The handler of a
    /// `SetCapture` protocol request; an empty list disables capture.
    pub fn set_capture(&mut self, views: impl IntoIterator<Item = String>) {
        self.capture = views.into_iter().collect();
        self.captured.clear();
    }

    /// Drain this node's capture log (the handler of a `TakeCaptured`
    /// protocol request).  Entries are in exact application order.
    pub fn take_captured(&mut self) -> Vec<(String, StmtOp, Relation)> {
        std::mem::take(&mut self.captured)
    }

    /// Freeze this node's counters and view-partition cardinalities (the
    /// payload of a `Stats` protocol reply).
    pub fn stats_snapshot(&self) -> WorkerStatsSnapshot {
        let mut cardinalities: Vec<(String, u64)> = self
            .views
            .iter()
            .map(|v| (v.clone(), self.db.pool(v).map_or(0, |p| p.len()) as u64))
            .collect();
        cardinalities.sort();
        WorkerStatsSnapshot {
            stats: self.stats,
            cardinalities,
        }
    }

    /// Rebuild this node's views in canonical layout — the **epoch
    /// barrier** of the fault-tolerant runtime.  Every view pool is rebuilt
    /// from scratch in sorted-content order, making all subsequent scan-
    /// order-dependent float arithmetic a pure function of *contents*
    /// rather than of the node's insertion history (exchange buffers are
    /// rewritten before their next read; see [`WorkerSnapshot`]).  A node restored from a
    /// [`WorkerSnapshot`] taken at this cut is bit-identical to a node that
    /// canonicalized and kept running — which is what lets the recovery
    /// oracle assert exact equality instead of epsilon closeness.
    pub fn canonicalize(&mut self) {
        self.db.canonicalize();
    }

    /// Freeze this node's full state as a canonical [`WorkerSnapshot`]
    /// (the payload of a `Checkpoint` protocol reply).
    pub fn snapshot_state(&self) -> WorkerSnapshot {
        let mut views: Vec<(String, Relation)> = self
            .views
            .iter()
            .map(|v| (v.clone(), self.db.snapshot(v).canonical()))
            .collect();
        views.sort_by(|a, b| a.0.cmp(&b.0));
        WorkerSnapshot {
            views,
            stats: self.stats,
        }
    }

    /// Reset this node to the state captured in `snapshot` (the handler of
    /// a `Restore` protocol request).  Views absent from the snapshot are
    /// emptied and exchange buffers dropped; every pool is rebuilt from
    /// scratch in canonical order, so the restored node's layout is
    /// bit-identical to the snapshotted node's
    /// post-[`canonicalize`](WorkerState::canonicalize) layout.
    pub fn restore_state(&mut self, snapshot: &WorkerSnapshot) {
        let names: Vec<String> = self.views.iter().cloned().collect();
        for v in names {
            match snapshot.views.iter().find(|(n, _)| *n == v) {
                Some((_, rel)) => self.db.rebuild(&v, rel.canonical()),
                None => {
                    let schema = self.db.schema(&v).cloned().unwrap_or_default();
                    self.db.rebuild(&v, Relation::new(schema));
                }
            }
        }
        self.temps.clear();
        self.stats = snapshot.stats;
        // A restored node's views no longer correspond to what the capture
        // log recorded; subscribers resynchronize from a snapshot instead.
        self.captured.clear();
        // Same for buffered spans: the batches that produced them are being
        // replayed and will open fresh spans (the id counter is *not*
        // reset, so replayed spans never collide with pre-fault ids).
        self.tracer.clear_buffer();
    }

    /// Execute one `Compute` statement, compiled as `plan`, against this
    /// node's state and apply the result.  Evaluator operation counts are
    /// accumulated into `counters`.
    fn run_compute(
        &mut self,
        stmt: &DistStatement,
        plan: &VectorPlan,
        batch: Option<(&str, &Relation)>,
        counters: &mut EvalCounters,
    ) {
        let executed = hotdog_exec::execute(plan, &self.db, &self.temps, batch);
        self.stats.statements += 1;
        self.stats.instructions += executed.counters.instructions();
        self.stats.tuples_touched += executed.counters.tuples_touched;
        counters.add(&executed.counters);
        self.apply(stmt, executed.result);
    }

    /// Execute the installed statement at `at` if it is a `Compute` and
    /// apply its result — the driver node's side of a `Local` block;
    /// transformer statements are scheduling constructs handled by the
    /// backend driver, not per-node work.  `batch` is the trigger's
    /// relation and update batch.
    pub fn run_statement(
        &mut self,
        at: StmtRef,
        batch: (&str, &Relation),
        counters: &mut EvalCounters,
    ) -> Result<(), UnknownStatement> {
        let programs = Arc::clone(&self.programs);
        if let (stmt, Some(plan)) = programs.statement(at)? {
            self.run_compute(stmt, plan, Some(batch), counters);
        }
        Ok(())
    }

    /// Apply a computed or received relation to a statement's target:
    /// persistent views live in the database, everything else is an
    /// exchange buffer.
    pub fn apply(&mut self, stmt: &DistStatement, result: Relation) {
        if self.views.contains(&stmt.target) {
            if self.capture.contains(&stmt.target) {
                self.captured
                    .push((stmt.target.clone(), stmt.op, result.clone()));
            }
            self.db.apply(&stmt.target, stmt.op, result);
        } else {
            let entry = self
                .temps
                .entry(stmt.target.clone())
                .or_insert_with(|| Relation::new(stmt.target_schema.clone()));
            match stmt.op {
                StmtOp::AddTo => entry.merge(&result),
                StmtOp::SetTo => *entry = result,
            }
        }
    }

    /// Run every statement of block `block` of program `program` — the
    /// worker side of a `RunBlock`.  Worker blocks never read the batch
    /// (the compiler lowers every delta reference into a scattered temp),
    /// so they run with none.
    pub fn run_block(
        &mut self,
        program: u32,
        block: u32,
        counters: &mut EvalCounters,
    ) -> Result<(), UnknownStatement> {
        let programs = Arc::clone(&self.programs);
        let statements = programs.block(program, block)?;
        for (stmt, plan) in statements {
            if let Some(plan) = plan {
                self.run_compute(stmt, plan, None, counters);
            }
        }
        Ok(())
    }

    /// Apply a batch of received shards in statement order — the worker
    /// side of a multi-statement `ApplyMany` scatter message.  Statement
    /// order must be preserved: a later `SetTo` may overwrite an earlier
    /// `AddTo` to the same exchange buffer, exactly as the per-statement
    /// message sequence would have.
    pub fn apply_all(&mut self, applies: Vec<(StmtRef, Relation)>) -> Result<(), UnknownStatement> {
        let programs = Arc::clone(&self.programs);
        for (at, shard) in applies {
            let (stmt, _) = programs.statement(at)?;
            self.stats.tuples_applied += shard.len() as u64;
            self.apply(stmt, shard);
        }
        Ok(())
    }

    /// Read a named relation for a transformer: an exchange buffer if one
    /// exists, otherwise this node's partition of the view.
    pub fn read(&self, name: &str) -> Relation {
        if let Some(r) = self.temps.get(name) {
            r.clone()
        } else {
            self.db.snapshot(name)
        }
    }

    /// Snapshot this node's partition of a view.
    pub fn snapshot(&self, view: &str) -> Relation {
        self.db.snapshot(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{StmtMode, Transform};
    use hotdog_algebra::eval::{Evaluator, MapCatalog};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_algebra::tuple::Tuple;
    use hotdog_ivm::compile_recursive;

    fn plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"]))),
        )
    }

    #[test]
    fn apply_routes_views_to_db_and_temps_to_buffers() {
        let plan = plan();
        let mut node = WorkerState::with_programs(&plan, Arc::default());
        let rel = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![1], 2.0)]);
        let view_stmt = DistStatement {
            target: "Q".into(),
            target_schema: Schema::new(["B"]),
            op: StmtOp::AddTo,
            kind: DistStmtKind::Compute(view("Q", ["B"])),
            mode: StmtMode::Local,
        };
        node.apply(&view_stmt, rel.clone());
        assert!(node.snapshot("Q").approx_eq(&rel));
        assert!(node.temps.is_empty());

        let temp_stmt = DistStatement {
            target: "scatter_1".into(),
            ..view_stmt
        };
        node.apply(&temp_stmt, rel.clone());
        assert!(node.temps["scatter_1"].approx_eq(&rel));
        // SetTo replaces the buffer wholesale.
        let temp_set = DistStatement {
            op: StmtOp::SetTo,
            target: "scatter_1".into(),
            target_schema: Schema::new(["B"]),
            kind: DistStmtKind::Compute(view("Q", ["B"])),
            mode: StmtMode::Local,
        };
        let other = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![9], 1.0)]);
        node.apply(&temp_set, other.clone());
        assert!(node.temps["scatter_1"].approx_eq(&other));
    }

    #[test]
    fn read_prefers_exchange_buffers_over_view_partitions() {
        let plan = plan();
        let mut node = WorkerState::with_programs(&plan, Arc::default());
        let in_db = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![1], 1.0)]);
        node.db.merge("Q", in_db.clone());
        assert!(node.read("Q").approx_eq(&in_db));
        let buffered = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![2], 5.0)]);
        node.temps.insert("Q".into(), buffered.clone());
        assert!(node.read("Q").approx_eq(&buffered));
    }

    #[test]
    fn stats_cardinalities_count_live_records() {
        let plan = plan();
        let mut node = WorkerState::with_programs(&plan, Arc::default());
        let schema = Schema::new(["B"]);
        node.db.merge(
            "Q",
            Relation::from_pairs(schema.clone(), vec![(tuple![1], 2.0), (tuple![2], 1.0)]),
        );
        // Key 2 cancels to zero, so the pool drops it.
        node.db.merge(
            "Q",
            Relation::from_pairs(schema, vec![(tuple![2], -1.0), (tuple![3], 0.5)]),
        );
        let snapshot = node.stats_snapshot();
        assert_eq!(snapshot.cardinalities.len(), plan.views.len());
        for (view, n) in &snapshot.cardinalities {
            assert_eq!(*n, node.snapshot(view).len() as u64, "{view}");
        }
        assert!(snapshot.cardinalities.contains(&("Q".to_string(), 2)));
    }

    /// Programs compiled once bind the temps anew on every `RunBlock`:
    /// two different shards through the same installed block equal a
    /// fresh `Evaluator`, counters included.  Multiplicities are integral,
    /// so the reference's catalog order cannot change result bits.
    #[test]
    fn installed_blocks_rebind_temps_on_every_run() {
        let plan = plan();
        let stmt = |target: &str, cols: &[&str], op, kind| DistStatement {
            target: target.into(),
            target_schema: Schema::new(cols.iter().copied()),
            op,
            kind,
            mode: StmtMode::Distributed,
        };
        let scatter = DistStmtKind::Transform {
            kind: Transform::Gather,
            source: "ΔR".into(),
        };
        let tmp = sum(["B"], join(view("buf", ["A", "B"]), val_var("A")));
        let top = sum(["B"], join(view("buf", ["A", "B"]), view("tmp", ["B"])));
        let programs = vec![vec![
            vec![stmt("buf", &["A", "B"], StmtOp::SetTo, scatter)],
            vec![
                stmt(
                    "tmp",
                    &["B"],
                    StmtOp::SetTo,
                    DistStmtKind::Compute(tmp.clone()),
                ),
                stmt(
                    "Q",
                    &["B"],
                    StmtOp::AddTo,
                    DistStmtKind::Compute(top.clone()),
                ),
            ],
        ]];
        let mut node =
            WorkerState::with_programs(&plan, Arc::new(Programs::install(programs).unwrap()));
        let schema = Schema::new(["A", "B"]);
        let shards = [
            vec![
                (tuple![1, 10], 1.0),
                (tuple![2, 10], 1.0),
                (tuple![3, 20], 2.0),
            ],
            vec![
                (tuple![4, 20], 1.0),
                (tuple![5, 30], -1.0),
                (tuple![2, 10], 3.0),
            ],
        ];
        let bits = |r: &Relation| -> Vec<(Tuple, u64)> {
            r.sorted()
                .into_iter()
                .map(|(t, m)| (t, m.to_bits()))
                .collect()
        };
        for shard in shards {
            let shard = Relation::from_pairs(schema.clone(), shard);
            let mut catalog = MapCatalog::new();
            catalog.insert("buf", RelKind::View, shard.clone());
            let mut ev = Evaluator::new(&catalog);
            let want_tmp = ev.eval(&tmp);
            let mut want = ev.counters;
            catalog.insert("tmp", RelKind::View, want_tmp.clone());
            let mut ev = Evaluator::new(&catalog);
            let mut want_q = node.snapshot("Q");
            want_q.merge(&ev.eval(&top));
            want.add(&ev.counters);
            // Each statement scans `buf` once; `tmp` is looked up.
            want.tuples_touched = 2 * shard.len() as u64;

            node.apply_all(vec![((0, 0, 0), shard)]).unwrap();
            let mut got = EvalCounters::default();
            node.run_block(0, 1, &mut got).unwrap();
            assert_eq!(got, want);
            assert_eq!(bits(&node.temps["tmp"]), bits(&want_tmp));
            assert_eq!(bits(&node.snapshot("Q")), bits(&want_q));
        }
    }

    #[test]
    fn run_compute_evaluates_against_node_state() {
        let plan = plan();
        let mut node = WorkerState::with_programs(&plan, Arc::default());
        node.db.merge(
            "Q",
            Relation::from_pairs(Schema::new(["B"]), vec![(tuple![3], 4.0)]),
        );
        let stmt = DistStatement {
            target: "copy_1".into(),
            target_schema: Schema::new(["B"]),
            op: StmtOp::SetTo,
            kind: DistStmtKind::Compute(view("Q", ["B"])),
            mode: StmtMode::Local,
        };
        let mut counters = EvalCounters::default();
        let DistStmtKind::Compute(expr) = &stmt.kind else {
            unreachable!("a compute statement")
        };
        let plan = VectorPlan::new(expr).unwrap();
        node.run_compute(&stmt, &plan, None, &mut counters);
        assert!(node.temps["copy_1"].approx_eq(&node.snapshot("Q")));
        assert!(counters.instructions() > 0);
        // One scan of a one-record pool.
        assert_eq!(counters.tuples_touched, 1);
        assert_eq!(node.stats.tuples_touched, 1);
    }
}
