//! Compilation of local maintenance programs into distributed programs
//! (Section 4): batch preprocessing (each trigger is lowered against the
//! batch filtered by its static conditions and projected onto the columns
//! it reads, Section 3.3), location
//! annotation, view placement (a view that would otherwise be shipped
//! whole to every worker on every batch becomes a maintained replica),
//! lowering each per-batch temp beside the statement that reads it,
//! insertion of location transformers (`Scatter`, `Repart`, `Gather`),
//! intra-statement optimization (choosing the execution partitioning that
//! minimizes communication rounds), single-transformer form, CSE/DCE of
//! transformer statements, and the block fusion algorithm of Appendix C.3.

use crate::partition::{LocTag, PartitionFn, PartitioningSpec};
use hotdog_algebra::expr::{Expr, RelKind, RelRef};
use hotdog_algebra::hash::Fnv1a;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_ivm::{BatchPrep, MaintenancePlan, StmtOp};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Optimization levels of the distributed compiler, matching the staged
/// evaluation of Figure 13.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum OptLevel {
    /// Naive well-formed program: no simplifications, one block per
    /// statement, no sharing of transformer outputs.
    O0,
    /// + transformer simplification rules (choose the execution partitioning
    ///   that avoids redundant Repart/Gather rounds).
    O1,
    /// + block fusion (merge commuting statements into compound blocks).
    O2,
    /// + common subexpression and dead code elimination across transformer
    ///   statements.
    O3,
}

impl OptLevel {
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::O0 => "O0 (naive)",
            OptLevel::O1 => "O1 (+simplifications)",
            OptLevel::O2 => "O2 (+block fusion)",
            OptLevel::O3 => "O3 (+CSE/DCE)",
        }
    }
}

/// Where a statement executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StmtMode {
    /// On the driver.
    Local,
    /// On every worker, over its partitions.
    Distributed,
}

/// A network transformer (the only mechanism for moving data).
#[derive(Clone, PartialEq, Debug)]
pub enum Transform {
    /// Partition driver-resident data over the workers.
    Scatter(PartitionFn),
    /// Re-partition worker-resident data.
    Repart(PartitionFn),
    /// Collect worker-resident data at the driver.
    Gather,
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::Scatter(p) => write!(f, "SCATTER<{p}>"),
            Transform::Repart(p) => write!(f, "REPARTITION<{p}>"),
            Transform::Gather => write!(f, "GATHER"),
        }
    }
}

/// The body of a distributed statement.
#[derive(Clone, Debug)]
pub enum DistStmtKind {
    /// Evaluate an algebra expression (locally or on every worker).
    Compute(Expr),
    /// Move the named relation across the network.
    Transform { kind: Transform, source: String },
}

/// One statement of a distributed maintenance program.
#[derive(Clone, Debug)]
pub struct DistStatement {
    pub target: String,
    pub target_schema: Schema,
    pub op: StmtOp,
    pub kind: DistStmtKind,
    pub mode: StmtMode,
}

impl DistStatement {
    /// Relation names this statement reads.
    pub fn reads(&self) -> Vec<String> {
        match &self.kind {
            DistStmtKind::Compute(e) => e.relations().into_iter().map(|r| r.name).collect(),
            DistStmtKind::Transform { source, .. } => vec![source.clone()],
        }
    }

    /// Whether this statement is a location transformer.
    pub fn is_transformer(&self) -> bool {
        matches!(self.kind, DistStmtKind::Transform { .. })
    }
}

impl fmt::Display for DistStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            StmtMode::Local => "LOCAL",
            StmtMode::Distributed => "DISTRIBUTED",
        };
        let op = match self.op {
            StmtOp::AddTo => "+=",
            StmtOp::SetTo => ":=",
        };
        match &self.kind {
            DistStmtKind::Compute(e) => write!(f, "{mode} {} {op} {e}", self.target),
            DistStmtKind::Transform { kind, source } => {
                write!(f, "{mode} {} {op} {kind}{{ {source} }}", self.target)
            }
        }
    }
}

/// A block of statements with a common execution mode (the unit the driver
/// ships to the workers — one Spark stage per distributed block).
#[derive(Clone, Debug)]
pub struct Block {
    pub mode: StmtMode,
    pub statements: Vec<DistStatement>,
}

/// The distributed program of one trigger.
#[derive(Clone, Debug)]
pub struct TriggerProgram {
    pub relation: String,
    /// Batch preprocessing (Section 3.3): the filter and the kept positions
    /// ([`hotdog_ivm::Trigger::preprocessing`]).  The statements read the
    /// preprocessed batch, whose schema is `prep.schema()`.
    pub prep: BatchPrep,
    /// Fused statement blocks, in execution order.
    pub blocks: Vec<Block>,
}

impl TriggerProgram {
    /// Batch preprocessing, the one step every backend runs before
    /// admitting or scattering a batch: filter it and project it onto the
    /// kept positions in one pass, in wire-canonical layout
    /// ([`BatchPrep::apply`]).
    pub fn preprocess(&self, batch: &Relation) -> Relation {
        self.prep.apply(batch)
    }

    /// Ring-sum `batch`, preprocessed, into an already preprocessed `delta`
    /// (pipelined admission's coalescing; [`BatchPrep::apply_into`]).
    pub fn preprocess_into(&self, batch: &Relation, delta: &mut Relation) {
        self.prep.apply_into(batch, delta)
    }

    pub fn statements(&self) -> impl Iterator<Item = &DistStatement> {
        self.blocks.iter().flat_map(|b| b.statements.iter())
    }

    /// Number of stages needed to process one batch: every distributed block
    /// is one parallel stage, and every worker-side shuffle (`Repart`) or
    /// collection (`Gather`) ends a stage as well — transformers are the
    /// pipeline breakers of Section 4.3.2.
    pub fn stages(&self) -> usize {
        let dist_blocks = self
            .blocks
            .iter()
            .filter(|b| b.mode == StmtMode::Distributed)
            .count();
        let shuffles = self
            .statements()
            .filter(|s| {
                matches!(
                    &s.kind,
                    DistStmtKind::Transform {
                        kind: Transform::Repart(_),
                        ..
                    } | DistStmtKind::Transform {
                        kind: Transform::Gather,
                        ..
                    }
                )
            })
            .count();
        dist_blocks + shuffles
    }

    /// Number of jobs = number of local→distributed transitions (the driver
    /// launches one job per maximal run of distributed work).
    pub fn jobs(&self) -> usize {
        let mut jobs = 0;
        let mut prev_local = true;
        for b in &self.blocks {
            match b.mode {
                StmtMode::Distributed => {
                    if prev_local {
                        jobs += 1;
                    }
                    prev_local = false;
                }
                StmtMode::Local => prev_local = true,
            }
        }
        jobs.max(1)
    }

    pub fn pretty(&self) -> String {
        let mut out = format!(
            "-- ON UPDATE {} ({} blocks), {}\n",
            self.relation,
            self.blocks.len(),
            self.prep.describe()
        );
        for (i, b) in self.blocks.iter().enumerate() {
            out.push_str(&format!(
                "block {} [{}]\n",
                i,
                if b.mode == StmtMode::Local {
                    "local"
                } else {
                    "distributed"
                }
            ));
            for s in &b.statements {
                out.push_str(&format!("  {s}\n"));
            }
        }
        out
    }
}

/// Every statement of every trigger program, indexed
/// `[program][block][statement]` in [`DistributedPlan::programs`] order and
/// covering `Local` blocks too (their scatters are what `ApplyMany` shards
/// install).  Workers receive it once, at start-up; commands then name a
/// block or statement by position instead of carrying it.
pub type ProgramBlocks = Vec<Vec<Vec<DistStatement>>>;

/// A fully compiled distributed plan: the local plan, the partitioning
/// specification, the per-trigger programs, and the schemas/locations of the
/// temporary exchange views the programs introduce.
#[derive(Clone, Debug)]
pub struct DistributedPlan {
    pub plan: MaintenancePlan,
    pub spec: PartitioningSpec,
    pub opt: OptLevel,
    pub programs: Vec<TriggerProgram>,
    /// Temporary views created by the compiler: name -> (schema, location).
    pub temps: HashMap<String, (Schema, LocTag)>,
}

impl DistributedPlan {
    pub fn program(&self, relation: &str) -> Option<&TriggerProgram> {
        self.programs.iter().find(|p| p.relation == relation)
    }

    /// Every program's statements by block: what workers receive once at
    /// start-up and commands name positions in.
    pub fn program_blocks(&self) -> ProgramBlocks {
        self.programs
            .iter()
            .map(|p| p.blocks.iter().map(|b| b.statements.clone()).collect())
            .collect()
    }

    /// Location of any view or temp.
    pub fn location(&self, name: &str) -> LocTag {
        if let Some((_, tag)) = self.temps.get(name) {
            tag.clone()
        } else {
            self.spec.tag(name)
        }
    }

    /// Schema of any view or temp.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        if let Some((s, _)) = self.temps.get(name) {
            Some(s.clone())
        } else {
            self.plan.view(name).map(|v| v.schema.clone())
        }
    }

    /// Total jobs and stages needed to process one batch touching every
    /// relation once (the per-query complexity of Table 3).
    pub fn complexity(&self) -> (usize, usize) {
        let jobs = self.programs.iter().map(|p| p.jobs()).max().unwrap_or(0);
        let stages = self.programs.iter().map(|p| p.stages()).max().unwrap_or(0);
        (jobs, stages)
    }

    /// Transformer statements that move a whole *persistent view* (rather
    /// than a batch or a statement's result delta) on every batch of their
    /// trigger — the communication that grows with the database, not with
    /// the update.
    pub fn whole_view_moves(&self) -> WholeViewMoves {
        let mut moves = WholeViewMoves::default();
        for s in self.programs.iter().flat_map(|p| p.statements()) {
            if let DistStmtKind::Transform { kind, source } = &s.kind {
                if self.plan.view(source).is_some() {
                    match kind {
                        Transform::Repart(PartitionFn::Replicate) => moves.replicated += 1,
                        Transform::Repart(PartitionFn::ByColumns(_)) => moves.repartitioned += 1,
                        Transform::Scatter(_) => moves.broadcast += 1,
                        // The lowering only ever gathers partial results.
                        Transform::Gather => {}
                    }
                }
            }
        }
        moves
    }

    pub fn pretty(&self) -> String {
        let mut out = format!(
            "-- distributed plan `{}` [{}], {} programs\n",
            self.plan.query_name,
            self.opt.label(),
            self.programs.len()
        );
        for v in &self.plan.views {
            out.push_str(&format!("-- view {}: {}\n", v.name, self.spec.tag(&v.name)));
        }
        for p in &self.programs {
            out.push_str(&p.pretty());
        }
        out
    }

    /// 64-bit FNV-1a of [`pretty`](Self::pretty): what a TCP worker checks
    /// its own compile of the query against, so a worker whose compiler
    /// lowers the query differently refuses to start.
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv1a::default();
        digest.write(self.pretty().as_bytes());
        digest.finish()
    }
}

/// Per-kind count of a plan's whole-view moves (see
/// [`DistributedPlan::whole_view_moves`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WholeViewMoves {
    /// `REPARTITION<[*]>{view}`: a partitioned view gathered and replicated
    /// to every worker.  The placement pass of [`compile_distributed`]
    /// leaves none.
    pub replicated: usize,
    /// `REPARTITION<[key]>{view}`: a partitioned view re-hashed by another
    /// of its columns.
    pub repartitioned: usize,
    /// `SCATTER<..>{view}`: a driver-resident view broadcast to the workers.
    pub broadcast: usize,
}

impl WholeViewMoves {
    pub fn total(&self) -> usize {
        self.replicated + self.repartitioned + self.broadcast
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Lowering<'a> {
    plan: &'a MaintenancePlan,
    spec: &'a PartitioningSpec,
    opt: OptLevel,
    temps: HashMap<String, (Schema, LocTag)>,
    temp_counter: usize,
    /// Views some statement reads under an execution key that is not part
    /// of their schema: the placement pass re-tags them
    /// [`LocTag::Replicated`] and lowers again.
    replicate: BTreeSet<String>,
}

/// Compile a local maintenance plan into a distributed program for the given
/// partitioning specification and optimization level.
///
/// `spec` is the caller's *input* placement; the returned
/// [`DistributedPlan::spec`] is the *final* one.  A partitioned view that
/// some statement must read in full on every worker (its partitioning key
/// is not the statement's execution key, and that key is not even a column
/// of the view) is placed [`LocTag::Replicated`]: a persistent, indexed
/// copy on every worker, maintained by the view's own `+=`/`:=`, so only
/// its delta ever crosses the network and readers probe it in place.  Each
/// round of the placement pass lowers every trigger, re-tags the views the
/// lowering asked for and starts over; a view is only ever re-tagged *to*
/// `Replicated`, so the view count bounds the rounds.
///
/// # Panics
///
/// When a statement that reads neither the batch nor a partitioned view
/// reads a replicated view but does not itself write one: it would run on
/// the driver, which holds no replica.
pub fn compile_distributed(
    plan: &MaintenancePlan,
    spec: &PartitioningSpec,
    opt: OptLevel,
) -> DistributedPlan {
    let mut spec = spec.clone();
    loop {
        let mut lowering = Lowering {
            plan,
            spec: &spec,
            opt,
            temps: HashMap::new(),
            temp_counter: 0,
            replicate: BTreeSet::new(),
        };
        let programs = plan
            .triggers
            .iter()
            .map(|trigger| lowering.lower_trigger(trigger))
            .collect();
        let Lowering {
            temps, replicate, ..
        } = lowering;
        if replicate.is_empty() {
            return DistributedPlan {
                plan: plan.clone(),
                spec,
                opt,
                programs,
                temps,
            };
        }
        for view in replicate {
            spec.set(view, LocTag::Replicated);
        }
    }
}

impl Lowering<'_> {
    fn fresh_temp(&mut self, prefix: &str, schema: Schema, tag: LocTag) -> String {
        self.temp_counter += 1;
        let name = format!("{prefix}_{}", self.temp_counter);
        self.temps.insert(name.clone(), (schema, tag));
        name
    }

    /// Lower one trigger against its preprocessed batch: every statement,
    /// scatter and routing decision sees only the kept columns.
    fn lower_trigger(&mut self, trigger: &hotdog_ivm::Trigger) -> TriggerProgram {
        let (prep, trigger) = trigger.preprocessing();
        let trigger = &trigger;
        let mut statements: Vec<DistStatement> = Vec::new();
        // Cache of scatter/broadcast/repart temps created for this trigger
        // (used for CSE at O3; at lower levels every use gets its own copy).
        let mut scatter_cache: HashMap<String, String> = HashMap::new();

        // A per-batch temp is lowered with the statement that reads it.
        for stmt in trigger
            .statements
            .iter()
            .filter(|s| self.plan.view(&s.target).is_some())
        {
            self.lower_statement(trigger, stmt, &mut statements, &mut scatter_cache);
        }

        if self.opt >= OptLevel::O3 {
            dead_code_elimination(&mut statements, self.plan);
        }

        // Promote every statement into its own block, then fuse.
        let mut blocks: Vec<Block> = statements
            .into_iter()
            .map(|s| Block {
                mode: s.mode,
                statements: vec![s],
            })
            .collect();
        if self.opt >= OptLevel::O2 {
            blocks = fuse_blocks(blocks);
        }
        TriggerProgram {
            relation: trigger.relation.clone(),
            prep,
            blocks,
        }
    }

    /// How to spread a batch over the workers for a statement no key
    /// anchors (every other input is replicated, broadcast or local): by
    /// the first target key of the trigger the batch can be routed by — the
    /// scatter that statement needs anyway, which CSE then shares — else
    /// (pseudo-)randomly, by all of the batch's columns.
    fn spread_fn(&self, trigger: &hotdog_ivm::Trigger) -> PartitionFn {
        trigger
            .statements
            .iter()
            .find_map(|s| match self.spec.tag(&s.target) {
                LocTag::Dist(p)
                    if p.columns()
                        .iter()
                        .all(|c| trigger.relation_schema.contains(c)) =>
                {
                    Some(p)
                }
                _ => None,
            })
            .unwrap_or_else(|| PartitionFn::by(trigger.relation_schema.columns().to_vec()))
    }

    /// The temp holding the batch scattered under `pf`, emitting its
    /// `SCATTER` (shared per trigger at O3).
    fn scatter_batch(
        &mut self,
        trigger: &hotdog_ivm::Trigger,
        pf: PartitionFn,
        out: &mut Vec<DistStatement>,
        scatter_cache: &mut HashMap<String, String>,
    ) -> String {
        let cache_key = format!("scatter:Δ{}:{pf}", trigger.relation);
        if self.opt >= OptLevel::O3 {
            if let Some(t) = scatter_cache.get(&cache_key) {
                return t.clone();
            }
        }
        let tag = match &pf {
            PartitionFn::Replicate => LocTag::Replicated,
            _ => LocTag::Dist(pf.clone()),
        };
        let schema = trigger.relation_schema.clone();
        let t = self.fresh_temp("scatter", schema.clone(), tag);
        out.push(DistStatement {
            target: t.clone(),
            target_schema: schema,
            op: StmtOp::SetTo,
            kind: DistStmtKind::Transform {
                kind: Transform::Scatter(pf),
                source: format!("Δ{}", trigger.relation),
            },
            mode: StmtMode::Local,
        });
        scatter_cache.insert(cache_key, t.clone());
        t
    }

    /// Per-batch temp `t` computed as `expr` in `mode`, its result placed
    /// at `tag`.
    fn temp_statement(
        &mut self,
        t: &hotdog_ivm::Statement,
        expr: Expr,
        mode: StmtMode,
        tag: LocTag,
    ) -> DistStatement {
        self.temps
            .insert(t.target.clone(), (t.target_schema.clone(), tag));
        DistStatement {
            target: t.target.clone(),
            target_schema: t.target_schema.clone(),
            op: StmtOp::SetTo,
            kind: DistStmtKind::Compute(expr),
            mode,
        }
    }

    /// Lower one maintenance statement into local/distributed statements and
    /// the transformer statements they need.
    fn lower_statement(
        &mut self,
        trigger: &hotdog_ivm::Trigger,
        stmt: &hotdog_ivm::Statement,
        out: &mut Vec<DistStatement>,
        scatter_cache: &mut HashMap<String, String>,
    ) {
        let target_tag = self.spec.tag(&stmt.target);
        // The trigger's per-batch temps this statement reads
        // (`hoist_batch_terms`): each is computed just before it, on the
        // same nodes and from the same scattered batch, so it sees exactly
        // the rows its occurrences saw.
        let temps: Vec<&hotdog_ivm::Statement> = trigger
            .statements
            .iter()
            .filter(|t| {
                self.plan.view(&t.target).is_none()
                    && stmt.expr.references(&t.target, RelKind::View)
            })
            .collect();
        let view_refs: Vec<RelRef> = stmt
            .expr
            .relations()
            .into_iter()
            .filter(|r| r.kind == RelKind::View && temps.iter().all(|t| t.target != r.name))
            .collect();
        let uses_delta = stmt.expr.has_delta_relations() || !temps.is_empty();
        let dist_refs: Vec<(&RelRef, Vec<String>)> = view_refs
            .iter()
            .filter_map(|r| match self.spec.tag(&r.name) {
                LocTag::Dist(p) => Some((r, p.columns().to_vec())),
                _ => None,
            })
            .collect();
        let reads_replica = view_refs
            .iter()
            .any(|r| self.spec.tag(&r.name) == LocTag::Replicated);
        // With no partitioned input, every worker sees the same inputs (its
        // replicas, broadcasts and the batch) and computes the *full*
        // result: the right schedule for a replicated target, which each
        // worker then merges into its own copy — at every `OptLevel`, since
        // routing W identical results through a shuffle would count them W
        // times.
        let replicated_exec = target_tag == LocTag::Replicated && dist_refs.is_empty();
        let runs_on_driver = !uses_delta && dist_refs.is_empty() && !replicated_exec;
        assert!(
            !(runs_on_driver && reads_replica),
            "cannot place `{}` of `{}`: the statement reads only replicated views, so it \
             would run on the driver, which holds no replica; place its target \
             `Replicated` too, or its inputs `Dist`",
            stmt.target,
            self.plan.query_name,
        );

        // Purely local statement: local target, no distributed inputs and no
        // batch involvement.  Statements that consume the update batch are
        // always distributed — in the paper's setting the batch partitions
        // live on the workers, so even single-aggregate queries like Q6 run
        // one parallel stage of partial aggregation followed by a gather.
        if !target_tag.is_distributed() && dist_refs.is_empty() && !uses_delta {
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Compute(stmt.expr.clone()),
                mode: StmtMode::Local,
            });
            return;
        }

        // Choose the execution partitioning.  The intra-statement
        // optimization (O1+) prefers the *target's* partitioning whenever
        // some input can be brought to it directly, avoiding a second
        // communication round on the result (Example 4.1); the naive O0
        // program always executes on the first input's partitioning and
        // re-partitions the result.
        let target_cols: Option<Vec<String>> = match &target_tag {
            LocTag::Dist(p) => Some(p.columns().to_vec()),
            _ => None,
        };
        // A partitioning key is usable if some distributed input already has
        // it, or the batch can be scattered by it.
        let delta_schema = &trigger.relation_schema;
        let key_usable = |cols: &Vec<String>| {
            dist_refs.iter().any(|(_, c)| c == cols)
                || (uses_delta && cols.iter().all(|c| delta_schema.contains(c)))
        };
        let exec_key: Vec<String> = match &target_cols {
            Some(tc) if self.opt >= OptLevel::O1 && key_usable(tc) => tc.clone(),
            // Without a partitioned input the fallback is the target's key
            // — unless nothing can be routed by it and a replica is read:
            // the driver (where an unanchored statement runs) holds no
            // replica, so the batch is spread instead and the result
            // re-partitioned.
            _ => dist_refs
                .first()
                .map(|(_, c)| c.clone())
                .or_else(|| {
                    target_cols
                        .clone()
                        .filter(|tc| !reads_replica || key_usable(tc))
                })
                .unwrap_or_default(),
        };

        // Prepare the inputs: re-partition or broadcast views that are not
        // aligned with the execution key, broadcast local views, scatter the
        // batch.
        let mut expr = stmt.expr.clone();
        let mut any_partitioned_input = false;
        for r in &view_refs {
            match self.spec.tag(&r.name) {
                LocTag::Dist(p) => {
                    if p.columns() == exec_key.as_slice() {
                        any_partitioned_input = true;
                        continue;
                    }
                    // Re-partition by the execution key when the view has it.
                    let schema = self
                        .plan
                        .view(&r.name)
                        .map(|v| v.schema.clone())
                        .unwrap_or_default();
                    if exec_key.is_empty() || !exec_key.iter().all(|c| schema.contains(c)) {
                        // Every worker needs the whole view: never move it,
                        // ask the placement pass for a maintained replica.
                        self.replicate.insert(r.name.clone());
                        continue;
                    }
                    any_partitioned_input = true;
                    let pf = PartitionFn::by(exec_key.clone());
                    let cache_key = format!("repart:{}:{pf}", r.name);
                    let temp = if self.opt >= OptLevel::O3 {
                        scatter_cache.get(&cache_key).cloned()
                    } else {
                        None
                    };
                    let temp = match temp {
                        Some(t) => t,
                        None => {
                            let t = self.fresh_temp(
                                "repartition",
                                schema.clone(),
                                LocTag::Dist(pf.clone()),
                            );
                            out.push(DistStatement {
                                target: t.clone(),
                                target_schema: schema,
                                op: StmtOp::SetTo,
                                kind: DistStmtKind::Transform {
                                    kind: Transform::Repart(pf),
                                    source: r.name.clone(),
                                },
                                mode: StmtMode::Local,
                            });
                            scatter_cache.insert(cache_key, t.clone());
                            t
                        }
                    };
                    expr = rename_view(&expr, &r.name, &temp);
                }
                LocTag::Local => {
                    // Broadcast a driver-resident view so workers can read it.
                    let schema = self
                        .plan
                        .view(&r.name)
                        .map(|v| v.schema.clone())
                        .unwrap_or_default();
                    let cache_key = format!("bcast:{}", r.name);
                    let temp = if self.opt >= OptLevel::O3 {
                        scatter_cache.get(&cache_key).cloned()
                    } else {
                        None
                    };
                    let temp = match temp {
                        Some(t) => t,
                        None => {
                            let t =
                                self.fresh_temp("broadcast", schema.clone(), LocTag::Replicated);
                            out.push(DistStatement {
                                target: t.clone(),
                                target_schema: schema,
                                op: StmtOp::SetTo,
                                kind: DistStmtKind::Transform {
                                    kind: Transform::Scatter(PartitionFn::Replicate),
                                    source: r.name.clone(),
                                },
                                mode: StmtMode::Local,
                            });
                            scatter_cache.insert(cache_key, t.clone());
                            t
                        }
                    };
                    expr = rename_view(&expr, &r.name, &temp);
                }
                _ => {}
            }
        }

        // Scatter the update batch to the workers.
        let mut temp_statements: Vec<DistStatement> = Vec::new();
        if uses_delta {
            let keyed = !replicated_exec
                && !exec_key.is_empty()
                && exec_key.iter().all(|c| delta_schema.contains(c));
            let pf = if replicated_exec {
                PartitionFn::Replicate
            } else if keyed {
                any_partitioned_input = true;
                PartitionFn::by(exec_key.clone())
            } else if exec_key.is_empty() {
                // No anchoring key: any disjoint spread of the batch will do.
                any_partitioned_input = true;
                self.spread_fn(trigger)
            } else {
                PartitionFn::Replicate
            };
            let part = self.scatter_batch(trigger, pf, out, scatter_cache);
            // Each worker computes the execution keys it owns, so a
            // reference that binds other variables at the key's batch
            // positions — a total over the batch, a subquery correlated on
            // another column — reads all of the batch.
            let binds_key = |r: &RelRef| {
                exec_key
                    .iter()
                    .all(|k| delta_schema.position(k).is_some_and(|i| r.cols[i] == *k))
            };
            let reads_unkeyed = keyed
                && std::iter::once(&stmt.expr)
                    .chain(temps.iter().map(|t| &t.expr))
                    .flat_map(|e| e.relations())
                    .any(|r| r.kind == RelKind::Delta && !binds_key(&r));
            let whole = reads_unkeyed
                .then(|| self.scatter_batch(trigger, PartitionFn::Replicate, out, scatter_cache));
            let source = |r: &RelRef| match &whole {
                Some(whole) if !binds_key(r) => whole.clone(),
                _ => part.clone(),
            };
            expr = delta_to_view(&expr, &trigger.relation, &source);
            for t in &temps {
                // Placed like the scatter its batch reads come from.
                let from = t
                    .expr
                    .relations()
                    .iter()
                    .find(|r| r.kind == RelKind::Delta)
                    .map_or_else(|| part.clone(), source);
                let tag = self.temps[&from].1.clone();
                let expr = delta_to_view(&t.expr, &trigger.relation, &source);
                temp_statements.push(self.temp_statement(t, expr, StmtMode::Distributed, tag));
            }
        }

        if !any_partitioned_input && !replicated_exec {
            // Degenerate case: nothing anchors the computation to a
            // partitioning — run on the driver and push the result out.
            for t in &temps {
                let local = self.temp_statement(t, t.expr.clone(), StmtMode::Local, LocTag::Local);
                out.push(local);
            }
            let result_temp =
                self.fresh_temp("local_result", stmt.target_schema.clone(), LocTag::Local);
            out.push(DistStatement {
                target: result_temp.clone(),
                target_schema: stmt.target_schema.clone(),
                op: StmtOp::SetTo,
                kind: DistStmtKind::Compute(stmt.expr.clone()),
                mode: StmtMode::Local,
            });
            let pf = match &target_tag {
                LocTag::Dist(p) => p.clone(),
                _ => PartitionFn::Replicate,
            };
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Transform {
                    kind: Transform::Scatter(pf),
                    source: result_temp,
                },
                mode: StmtMode::Local,
            });
            return;
        }

        // Decide how the per-worker result reaches the target view.
        let aligned_with_target = match &target_tag {
            LocTag::Dist(p) => p.columns() == exec_key.as_slice(),
            _ => false,
        };
        let simplification_on = self.opt >= OptLevel::O1;
        out.extend(temp_statements);
        if replicated_exec || (aligned_with_target && simplification_on) {
            // Workers merge straight into their partition (or replica) of
            // the target.
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Compute(expr),
                mode: StmtMode::Distributed,
            });
        } else {
            // Compute a distributed partial result, then move it to the
            // target's location (Gather for local targets, Repart for
            // differently-partitioned and replicated ones — the result
            // delta moves, never the view).
            let result_temp =
                self.fresh_temp("partial", stmt.target_schema.clone(), LocTag::Random);
            out.push(DistStatement {
                target: result_temp.clone(),
                target_schema: stmt.target_schema.clone(),
                op: StmtOp::SetTo,
                kind: DistStmtKind::Compute(expr),
                mode: StmtMode::Distributed,
            });
            let kind = match &target_tag {
                LocTag::Dist(p) => Transform::Repart(p.clone()),
                LocTag::Replicated => Transform::Repart(PartitionFn::Replicate),
                _ => Transform::Gather,
            };
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Transform {
                    kind,
                    source: result_temp,
                },
                mode: StmtMode::Local,
            });
        }
    }
}

/// Replace every view reference named `from` with a reference to `to`
/// (same columns).
fn rename_view(expr: &Expr, from: &str, to: &str) -> Expr {
    match expr {
        Expr::Rel(r) if r.kind == RelKind::View && r.name == from => Expr::Rel(RelRef {
            name: to.to_string(),
            kind: RelKind::View,
            cols: r.cols.clone(),
        }),
        other => other.map_children(&mut |c| rename_view(c, from, to)),
    }
}

/// Replace every delta reference to `relation` with a view reference to the
/// scattered batch `temp(reference)`.
fn delta_to_view(expr: &Expr, relation: &str, temp: &dyn Fn(&RelRef) -> String) -> Expr {
    match expr {
        Expr::Rel(r) if r.kind == RelKind::Delta && r.name == relation => Expr::Rel(RelRef {
            name: temp(r),
            kind: RelKind::View,
            cols: r.cols.clone(),
        }),
        other => other.map_children(&mut |c| delta_to_view(c, relation, temp)),
    }
}

/// Drop transformer statements whose output temp is never read (dead code
/// elimination over exchange buffers).
fn dead_code_elimination(statements: &mut Vec<DistStatement>, plan: &MaintenancePlan) {
    let real_views: Vec<&str> = plan.views.iter().map(|v| v.name.as_str()).collect();
    loop {
        let mut read: Vec<String> = Vec::new();
        for s in statements.iter() {
            read.extend(s.reads());
        }
        let before = statements.len();
        statements.retain(|s| real_views.contains(&s.target.as_str()) || read.contains(&s.target));
        if statements.len() == before {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Block fusion (Appendix C.3)
// ---------------------------------------------------------------------------

/// Whether two statements commute: neither reads the other's target.
fn stmts_commute(a: &DistStatement, b: &DistStatement) -> bool {
    !b.reads().contains(&a.target) && !a.reads().contains(&b.target) && a.target != b.target
}

fn blocks_commute(a: &Block, b: &Block) -> bool {
    a.statements
        .iter()
        .all(|x| b.statements.iter().all(|y| stmts_commute(x, y)))
}

/// Merge the head block with every later block of the same mode that
/// commutes with all blocks in between (the `mergeIntoHead` step).
fn merge_into_head(head: Block, tail: Vec<Block>) -> (Block, Vec<Block>) {
    let mut head = head;
    let mut rest: Vec<Block> = Vec::new();
    for b in tail {
        if head.mode == b.mode && rest.iter().all(|r| blocks_commute(r, &b)) {
            head.statements.extend(b.statements);
        } else {
            rest.push(b);
        }
    }
    (head, rest)
}

/// The recursive block fusion algorithm: repeatedly merge the first block
/// with every compatible later block, then recurse on the remainder.
pub fn fuse_blocks(blocks: Vec<Block>) -> Vec<Block> {
    let mut input = blocks;
    let mut out = Vec::new();
    loop {
        if input.is_empty() {
            return out;
        }
        let head = input.remove(0);
        let before = head.statements.len();
        let (merged, rest) = merge_into_head(head, input);
        if merged.statements.len() == before {
            out.push(merged);
            input = rest;
        } else {
            // Try to grow the head further (the `merge(hd2::tl2)` branch).
            input = std::iter::once(merged).chain(rest).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_ivm::compile_recursive;

    fn example_plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(
                ["B"],
                join_all([
                    rel("R", ["OK", "B"]),
                    rel("S", ["B", "CK"]),
                    rel("T", ["CK", "D"]),
                ]),
            ),
        )
    }

    fn spec_for(plan: &MaintenancePlan) -> PartitioningSpec {
        PartitioningSpec::heuristic(plan, &["OK", "CK"])
    }

    #[test]
    fn compile_produces_one_program_per_trigger() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        assert_eq!(dp.programs.len(), plan.triggers.len());
        for p in &dp.programs {
            assert!(!p.blocks.is_empty());
        }
    }

    #[test]
    fn optimization_reduces_statement_and_block_count() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let naive = compile_distributed(&plan, &spec, OptLevel::O0);
        let opt = compile_distributed(&plan, &spec, OptLevel::O3);
        let count = |dp: &DistributedPlan| {
            dp.programs
                .iter()
                .map(|p| p.statements().count())
                .sum::<usize>()
        };
        let blocks =
            |dp: &DistributedPlan| dp.programs.iter().map(|p| p.blocks.len()).sum::<usize>();
        assert!(
            count(&opt) <= count(&naive),
            "O3 {} vs O0 {}",
            count(&opt),
            count(&naive)
        );
        assert!(
            blocks(&opt) < blocks(&naive),
            "O3 {} vs O0 {}",
            blocks(&opt),
            blocks(&naive)
        );
    }

    #[test]
    fn block_fusion_merges_commuting_blocks() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let unfused = compile_distributed(&plan, &spec, OptLevel::O1);
        let fused = compile_distributed(&plan, &spec, OptLevel::O2);
        for (a, b) in unfused.programs.iter().zip(fused.programs.iter()) {
            assert!(b.blocks.len() <= a.blocks.len());
        }
    }

    #[test]
    fn batch_consuming_statements_are_distributed_even_for_local_views() {
        // Single-relation scalar aggregate with every view local (the Q6
        // shape): the batch is scattered, each worker computes a partial
        // aggregate of its fraction, and a gather merges them at the driver.
        let plan = compile_recursive(
            "Q",
            &sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3))),
        );
        let mut spec = PartitioningSpec::new();
        spec.set("Q", LocTag::Local);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let program = dp.program("R").unwrap();
        // one parallel stage of partial aggregation + one gather stage
        assert_eq!(program.stages(), 2, "{}", program.pretty());
        assert!(program.statements().any(|s| matches!(
            &s.kind,
            DistStmtKind::Transform {
                kind: Transform::Scatter(_),
                ..
            }
        )));
        assert!(program.statements().any(|s| matches!(
            &s.kind,
            DistStmtKind::Transform {
                kind: Transform::Gather,
                ..
            }
        )));
    }

    #[test]
    fn distributed_statements_only_reference_worker_resident_relations() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        for p in &dp.programs {
            for s in p.statements() {
                if s.mode == StmtMode::Distributed {
                    if let DistStmtKind::Compute(e) = &s.kind {
                        for r in e.relations() {
                            let tag = dp.location(&r.name);
                            assert!(
                                tag.is_distributed(),
                                "distributed statement reads driver-resident {} in\n{}",
                                r.name,
                                p.pretty()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Workers run their blocks without the batch: every delta reference
    /// is lowered into a scattered temp, at every optimization level, for
    /// every query of the catalog.  This is what lets a `RunBlock` name a
    /// block and carry no deltas.
    #[test]
    fn no_distributed_block_reads_the_batch() {
        let mut blocks = 0;
        for q in hotdog_workload::all_queries() {
            let plan = compile_recursive(q.id, &q.expr);
            let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
            for opt in ALL_LEVELS {
                let dp = compile_distributed(&plan, &spec, opt);
                for p in &dp.programs {
                    for b in p.blocks.iter().filter(|b| b.mode == StmtMode::Distributed) {
                        blocks += 1;
                        for s in &b.statements {
                            if let DistStmtKind::Compute(e) = &s.kind {
                                assert!(
                                    !e.has_delta_relations(),
                                    "{} at {opt:?}: distributed `{s}` reads the batch in\n{}",
                                    q.id,
                                    p.pretty()
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(blocks > 0);
    }

    /// The catalog query `id` compiled at `opt`.
    fn catalog_program(id: &str, opt: OptLevel) -> DistributedPlan {
        let q = hotdog_workload::query(id).unwrap();
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        compile_distributed(&plan, &spec, opt)
    }

    /// Q18's O3 program, byte for byte: no trigger filters its batch (it
    /// is read under `Exists` and `:=`), and `ON UPDATE LINEITEM` computes
    /// its two per-batch temps — the domain guard and the nested
    /// aggregate's delta, keyed by `OK` — in the block that reads them,
    /// from the same scattered batch, ahead of the `Q18` statement.
    #[test]
    fn q18_program_computes_its_batch_temps_beside_their_reader() {
        let dp = catalog_program("Q18", OptLevel::O3);
        assert!(dp.programs.iter().all(|p| p.prep.filter().is_empty()));
        assert_eq!(dp.pretty(), include_str!("testdata/q18_o3.plan"));
        let lineitem = dp.program("LINEITEM").unwrap();
        let block = &lineitem.blocks[1].statements;
        let targets: Vec<&str> = block.iter().map(|s| s.target.as_str()).collect();
        assert_eq!(targets[..3], ["batch_1", "batch_2", "Q18"]);
        for temp in &block[..2] {
            assert_eq!(temp.mode, StmtMode::Distributed);
            assert_eq!(temp.reads(), ["scatter_2"]);
            assert_eq!(dp.location(&temp.target), dp.location("scatter_2"));
            assert!(block[2].reads().contains(&temp.target));
        }
        // `TriggerProgram::pretty` lists each temp where it is computed.
        let pretty = lineitem.pretty();
        let at = |line: &str| pretty.find(line).unwrap_or_else(|| panic!("{pretty}"));
        assert!(at("DISTRIBUTED batch_1 := Exists(Sum_[OK]") < at("DISTRIBUTED Q18 += "));
        assert!(at("DISTRIBUTED batch_2 := Sum_[OK]") < at("DISTRIBUTED Q18 += "));
    }

    /// Q3 has no nested aggregate, so no temps: its programs at every
    /// level, byte for byte.  They were recorded before temps existed and
    /// re-recorded when the revenue term was folded into `M1`, `M3` and
    /// the LINEITEM batch's weight.
    #[test]
    fn q3_programs_are_unchanged_by_batch_temps() {
        let recorded = [
            include_str!("testdata/q3_o0.plan"),
            include_str!("testdata/q3_o1.plan"),
            include_str!("testdata/q3_o2.plan"),
            include_str!("testdata/q3_o3.plan"),
        ];
        for (opt, want) in ALL_LEVELS.into_iter().zip(recorded) {
            assert_eq!(catalog_program("Q3", opt).pretty(), want, "{opt:?}");
        }
    }

    /// Q3 filters every batch by its trigger's date or segment condition,
    /// weighs LINEITEM's by the revenue term, and ships only the columns
    /// its statements then read.
    #[test]
    fn q3_programs_print_their_batch_filters() {
        let q = hotdog_workload::query("Q3").unwrap();
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let pretty = dp.pretty();
        let heads: Vec<&str> = pretty
            .lines()
            .filter(|l| l.starts_with("-- ON UPDATE"))
            .map(|l| l.split_once("blocks), ").unwrap().1)
            .collect();
        assert_eq!(
            heads,
            [
                "Δ keeps 1/4: CK; Δ filter (c_mktsegment = 1)",
                "Δ keeps 1/10: OK; Δ weight [(l_extendedprice * (1 - l_discount))]; Δ filter (l_shipdate > 19950315)",
                "Δ keeps 4/7: OK, CK, o_orderdate, o_shippriority; Δ filter (o_orderdate < 19950315)",
            ]
        );
    }

    /// The Q3 shape: `ON UPDATE O` executes on `OK` and probes the
    /// customer view by `CK`; that view has no `OK` column to be
    /// re-partitioned by.
    fn q3_shape_plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(
                ["OK"],
                join_all([
                    rel("C", ["CK", "SEG"]),
                    rel("O", ["OK", "CK"]),
                    rel("L", ["OK", "P"]),
                ]),
            ),
        )
    }

    /// The view of `plan` that is placed `Replicated` (exactly one in the
    /// plans these tests use).
    fn replica_of(dp: &DistributedPlan) -> String {
        let replicas: Vec<&str> = dp
            .plan
            .views
            .iter()
            .map(|v| v.name.as_str())
            .filter(|v| dp.spec.tag(v) == LocTag::Replicated)
            .collect();
        assert_eq!(replicas.len(), 1, "{}", dp.pretty());
        replicas[0].to_string()
    }

    const ALL_LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    #[test]
    fn replica_fed_by_the_batch_merges_in_place_at_every_opt_level() {
        let plan = q3_shape_plan();
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        for opt in ALL_LEVELS {
            let dp = compile_distributed(&plan, &spec, opt);
            // Which view it is depends on the level's execution keys (the
            // customer view at O1+, the lineitem view at O0); the caller's
            // spec is the input, the plan's the final placement.
            let replica = replica_of(&dp);
            assert!(matches!(spec.tag(&replica), LocTag::Dist(_)));
            assert_eq!(dp.whole_view_moves().replicated, 0, "{}", dp.pretty());
            let (program, writer) = dp
                .programs
                .iter()
                .find_map(|p| Some((p, p.statements().find(|s| s.target == replica)?)))
                .unwrap_or_else(|| panic!("{}", dp.pretty()));
            // Every worker computes the full delta from the replicated batch
            // and merges it into its own copy: no partial, no shuffle.
            assert_eq!(writer.mode, StmtMode::Distributed, "{opt:?}");
            assert!(!writer.is_transformer(), "{opt:?}: {writer}");
            let batch = &writer.reads()[0];
            assert!(
                program.statements().any(|s| s.target == *batch
                    && matches!(
                        &s.kind,
                        DistStmtKind::Transform {
                            kind: Transform::Scatter(PartitionFn::Replicate),
                            ..
                        }
                    )),
                "{opt:?}: the replica's batch must reach every worker\n{}",
                program.pretty()
            );
        }
    }

    #[test]
    fn reading_a_replicated_view_inserts_no_transformer() {
        let plan = q3_shape_plan();
        let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
        for opt in ALL_LEVELS {
            let dp = compile_distributed(&plan, &spec, opt);
            let replica = replica_of(&dp);
            let mut readers = 0;
            for s in dp.programs.iter().flat_map(|p| p.statements()) {
                if s.reads().contains(&replica) {
                    readers += 1;
                    assert!(!s.is_transformer(), "{opt:?} moves the replica: {s}");
                    assert_eq!(s.mode, StmtMode::Distributed, "{opt:?}: {s}");
                }
            }
            assert!(readers > 0, "{}", dp.pretty());
        }
    }

    #[test]
    fn replica_fed_by_a_partitioned_input_receives_the_result_delta() {
        // `M4(B, CK) += Sum(ΔR(OK, B) * M5(B, CK))` with M5 partitioned and
        // M4 replicated by the caller: the owners of M5 compute a partial,
        // and that partial — carrying the statement's own op — is what gets
        // replicated.
        let plan = example_plan();
        let mut spec = spec_for(&plan);
        assert_eq!(spec.tag("M5"), LocTag::Dist(PartitionFn::by(["CK"])));
        spec.set("M4", LocTag::Replicated);
        for opt in ALL_LEVELS {
            let dp = compile_distributed(&plan, &spec, opt);
            let program = dp.program("R").unwrap();
            let writer = program
                .statements()
                .find(|s| s.target == "M4")
                .unwrap_or_else(|| panic!("{}", program.pretty()));
            let DistStmtKind::Transform { kind, source } = &writer.kind else {
                panic!("{opt:?}: expected a transformer, got {writer}");
            };
            assert_eq!(*kind, Transform::Repart(PartitionFn::Replicate), "{opt:?}");
            assert_eq!(writer.op, StmtOp::AddTo, "{opt:?}");
            assert_eq!(dp.location(source), LocTag::Random, "{opt:?}: {source}");
            assert_eq!(dp.whole_view_moves().replicated, 0, "{}", dp.pretty());
        }
    }

    #[test]
    #[should_panic(expected = "holds no replica")]
    fn driver_side_reader_of_a_replica_is_refused() {
        // A re-evaluation statement over one view only: with that view
        // replicated and the target on the driver there is nowhere to run it.
        let mut plan = example_plan();
        let trigger = &mut plan.triggers[0];
        let stmt = &mut trigger.statements[0];
        stmt.op = StmtOp::SetTo;
        stmt.expr = sum(["B"], view("M5", ["B", "CK"]));
        assert_eq!(stmt.target, "Q");
        let mut spec = spec_for(&plan);
        spec.set("M5", LocTag::Replicated);
        compile_distributed(&plan, &spec, OptLevel::O3);
    }

    #[test]
    fn whole_view_moves_count_moves_of_persistent_views_only() {
        let plan = example_plan();
        let dp = compile_distributed(&plan, &spec_for(&plan), OptLevel::O3);
        // M1 and M2 are driver-resident and broadcast to their readers; the
        // batch scatters and partial-result gathers are not whole-view moves.
        let moves = dp.whole_view_moves();
        assert_eq!(
            moves,
            WholeViewMoves {
                replicated: 0,
                repartitioned: 0,
                broadcast: 2
            },
            "{}",
            dp.pretty()
        );
        assert_eq!(moves.total(), 2);
        assert!(dp.pretty().contains("-- view M1: Local"));
        assert!(dp.pretty().contains("-- view M3: Dist[CK]"));
        // `OK` is read by no statement of `ON UPDATE R`.
        assert!(dp
            .pretty()
            .contains("-- ON UPDATE R (3 blocks), Δ keeps 1/2: B\n"));
    }

    #[test]
    fn jobs_and_stages_are_positive_and_bounded() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let (jobs, stages) = dp.complexity();
        assert!((1..=5).contains(&jobs), "jobs {jobs}");
        assert!((1..=10).contains(&stages), "stages {stages}");
    }

    #[test]
    fn fuse_blocks_respects_data_dependencies() {
        // b1 writes X, b2 (different mode) separates, b3 reads X: b3 must
        // not be merged before b2 past... construct directly.
        let s = |target: &str, reads: &str, mode: StmtMode| DistStatement {
            target: target.into(),
            target_schema: Schema::new(["a"]),
            op: StmtOp::AddTo,
            kind: DistStmtKind::Compute(view(reads, ["a"])),
            mode,
        };
        let blocks = vec![
            Block {
                mode: StmtMode::Local,
                statements: vec![s("X", "A", StmtMode::Local)],
            },
            Block {
                mode: StmtMode::Distributed,
                statements: vec![s("Y", "X", StmtMode::Distributed)],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Z", "Y", StmtMode::Local)],
            },
        ];
        let fused = fuse_blocks(blocks);
        // Z reads Y which is produced by the distributed block, so the two
        // local blocks must not be merged across it.
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn fuse_blocks_merges_independent_same_mode_blocks() {
        let s = |target: &str, reads: &str| DistStatement {
            target: target.into(),
            target_schema: Schema::new(["a"]),
            op: StmtOp::AddTo,
            kind: DistStmtKind::Compute(view(reads, ["a"])),
            mode: StmtMode::Local,
        };
        let blocks = vec![
            Block {
                mode: StmtMode::Local,
                statements: vec![s("X", "A")],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Y", "B")],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Z", "C")],
            },
        ];
        assert_eq!(fuse_blocks(blocks).len(), 1);
    }
}
