//! The configuration objects of a [`Driver`](crate::Driver): how the
//! pipelined ingestion path admits work ([`PipelineConfig`]),
//! how worker deaths are survived ([`FaultConfig`]) and what the simulated
//! cluster's messages cost ([`ClusterConfig`]).  Pure data — this module
//! owns no state and sends no messages.

/// Size and cost model of the simulated cluster
/// ([`Cluster`](crate::Cluster)): what each message a
/// [`SimTransport`](crate::SimTransport) delivers advances its virtual
/// clock by.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Aggregate network bandwidth per worker link, bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed overhead of launching one distributed stage (task serialization
    /// and shipping), in seconds.
    pub stage_overhead_secs: f64,
    /// Additional synchronization cost per worker per stage, in seconds
    /// (scheduling, task dispatch and completion handling on the driver).
    pub sync_per_worker_secs: f64,
    /// Modelled cost of one interpreter "instruction", in seconds.
    pub secs_per_instruction: f64,
    /// Maximum multiplicative straggler slowdown of a stage (a uniformly
    /// drawn factor in `[1, 1 + straggler]` is applied to each stage).
    pub straggler: f64,
    /// RNG seed for the straggler model.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            bandwidth_bytes_per_sec: 1.0e9,
            stage_overhead_secs: 0.020,
            sync_per_worker_secs: 0.000_35,
            secs_per_instruction: 2.0e-9,
            straggler: 0.5,
            seed: 0xD15C0,
        }
    }
}

impl ClusterConfig {
    pub fn with_workers(workers: usize) -> Self {
        ClusterConfig {
            workers,
            ..Default::default()
        }
    }
}

/// Configuration of the pipelined ingestion path
/// (`ThreadedCluster::pipelined`).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Ring-sum each admitted batch into the latest queued delta of the
    /// same relation until that delta — counted after batch preprocessing,
    /// as [`PipelineStats::tuples_executed`](crate::PipelineStats::tuples_executed)
    /// is — could exceed this many tuples.  `0`
    /// disables coalescing (making pipelined execution bit-identical to
    /// the synchronous schedule; with coalescing the state is identical in
    /// real arithmetic but float additions associate differently).
    pub coalesce_tuples: usize,
    /// Maximum admitted-but-unissued batches held in the admission queue;
    /// admitting beyond it drives execution of the queue front.
    pub admit_capacity: usize,
    /// Byte-bounded backpressure: maximum serialized footprint of the
    /// admission queue (queued deltas, via the O(1)
    /// `Relation::serialized_size` accounting).  Admitting beyond it
    /// drives execution of the queue front until the footprint fits.
    /// `0` disables the bound.
    pub admit_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            coalesce_tuples: 4096,
            admit_capacity: 16,
            admit_bytes: 0,
        }
    }
}

impl PipelineConfig {
    /// Config with a specific static coalescing threshold (in tuples).
    pub fn with_coalesce(coalesce_tuples: usize) -> Self {
        PipelineConfig {
            coalesce_tuples,
            ..Default::default()
        }
    }

    /// Builder-style byte bound on the admission queue (see
    /// [`PipelineConfig::admit_bytes`]).
    pub fn with_admit_bytes(mut self, admit_bytes: usize) -> Self {
        self.admit_bytes = admit_bytes;
        self
    }
}

/// Worker fault tolerance for a [`Driver`]: periodic consistent
/// checkpoints plus a bounded replay log, so a worker death rolls the
/// cluster back to the last checkpoint cut and replays the logged
/// batches — bit-identically (checkpoint epochs canonicalize every
/// node's storage layout, so a restored pool and a surviving pool agree
/// on all scan-order-dependent float arithmetic).
///
/// Configure it with [`Driver::set_fault_config`] **before the first
/// batch**.  Runs with the same `FaultConfig` are bit-identical to each
/// other whether faults fire or not; a run with fault tolerance
/// *disabled* may differ in float ulps from an enabled run, because the
/// checkpoint epochs themselves re-canonicalize storage.
///
/// [`Driver`]: crate::Driver
/// [`Driver::set_fault_config`]: crate::Driver::set_fault_config
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Take a checkpoint every this many issued batches.  `0` never
    /// checkpoints: recovery then restores every node to *empty* and
    /// replays the entire logged stream.
    pub checkpoint_every: u64,
    /// Give up — surface the `WorkerDead` — after this many recovery
    /// attempts over the driver's lifetime.
    pub max_recoveries: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            checkpoint_every: 8,
            max_recoveries: 8,
        }
    }
}

impl FaultConfig {
    /// Config checkpointing every `n` issued batches.
    pub fn every(n: u64) -> Self {
        FaultConfig {
            checkpoint_every: n,
            ..Default::default()
        }
    }
}
