//! # hotdog-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation section on the laptop-scale simulator.  Each binary under
//! `src/bin/` regenerates one artifact and prints it as a plain-text table;
//! this library holds the shared experiment drivers and table printing.
//! Performance regressions are judged by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not here.
//!
//! Absolute numbers differ from the paper (interpreter vs. generated C++,
//! simulated cluster vs. 100 Spark servers); the harness is built to
//! reproduce the *shapes*: which strategy wins, how throughput moves with
//! batch size, and how latency scales with workers.

#![forbid(unsafe_code)]

use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use hotdog::runtime::ClusterTotals;
use std::time::Instant;

/// Generate the stream matching a catalog query's workload family.
pub fn stream_for(q: &CatalogQuery, tuples: usize, seed: u64) -> UpdateStream {
    match q.workload {
        hotdog::workload::Workload::TpcH => generate_tpch(seed, tuples),
        hotdog::workload::Workload::TpcDs => generate_tpcds(seed, tuples),
    }
}

/// Result of one local maintenance run.
#[derive(Clone, Debug)]
pub struct LocalRun {
    pub query: String,
    pub strategy: Strategy,
    pub mode: &'static str,
    pub batch_size: usize,
    pub tuples: usize,
    pub elapsed_secs: f64,
    pub throughput: f64,
    pub result_size: usize,
    pub instructions: u64,
    pub probes: u64,
}

/// Run one query over a stream with the given strategy/mode/batch size and
/// measure wall-clock throughput plus engine counters.
pub fn run_local(
    q: &CatalogQuery,
    stream: &UpdateStream,
    strategy: Strategy,
    mode: ExecMode,
    batch_size: usize,
) -> LocalRun {
    let plan = compile(q.id, &q.expr, strategy);
    let mut engine = LocalEngine::new(plan, mode);
    let start = Instant::now();
    for batch in stream.batches(batch_size) {
        for (rel, delta) in batch {
            engine.apply_batch(rel, &delta);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    LocalRun {
        query: q.id.to_string(),
        strategy,
        mode: mode.label(),
        batch_size,
        tuples: stream.len(),
        elapsed_secs: elapsed,
        throughput: stream.len() as f64 / elapsed,
        result_size: engine.query_result().len(),
        instructions: engine.totals.eval.instructions(),
        probes: engine.database().counters().probes(),
    }
}

/// Throughput of specialized single-tuple processing, used as the
/// normalization baseline of Figures 7 and 12.
pub fn single_tuple_baseline(q: &CatalogQuery, stream: &UpdateStream) -> LocalRun {
    run_local(q, stream, Strategy::RecursiveIvm, ExecMode::SingleTuple, 1)
}

/// Which execution backend a distributed experiment runs on.  Each is a
/// [`Driver`] over its own [`Transport`], so the experiment driver
/// ([`run_distributed_on`]) is written once, generic over the transport.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BackendKind {
    /// Single-threaded simulator with the modelled cost model (the default).
    Simulated,
    /// `hotdog-runtime` synchronous thread-per-worker backend;
    /// latencies are measured wall-clock.
    Threaded,
    /// `hotdog-runtime` pipelined thread-per-worker backend with delta
    /// coalescing up to the given static tuple threshold; throughput is
    /// measured over the whole stream's wall-clock.
    Pipelined { coalesce_tuples: usize },
    /// `hotdog-net`'s multi-process TCP backend, synchronous:
    /// worker subprocesses on loopback speaking the binary codec — same
    /// driver and schedule as [`BackendKind::Threaded`], real sockets
    /// instead of channels.  The workers are this executable re-run in
    /// worker mode (see [`Args::parse`]).
    Tcp,
    /// The TCP backend on the pipelined ingestion path with delta
    /// coalescing — batching decisions paying their dividend where there
    /// is an actual network to amortize.
    TcpPipelined { coalesce_tuples: usize },
}

impl BackendKind {
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Simulated => "modelled",
            BackendKind::Threaded => "measured",
            BackendKind::Pipelined { .. } => "pipelined",
            BackendKind::Tcp => "tcp",
            BackendKind::TcpPipelined { .. } => "tcp-pipelined",
        }
    }

    /// Table column header for this backend's median latency.  The
    /// pipelined backends execute batches asynchronously, so their
    /// per-batch numbers are *driver-side issue times* (worker execution
    /// overlaps and is excluded) — not comparable across backends.
    /// Throughput is comparable everywhere (pipelined throughput is stream
    /// wall-clock).
    pub fn latency_column(&self) -> &'static str {
        match self {
            BackendKind::Pipelined { .. } | BackendKind::TcpPipelined { .. } => "median issue (ms)",
            _ => "median latency (ms)",
        }
    }

    /// The pipeline configuration this backend kind runs under (`None` for
    /// the synchronous backends).
    pub fn pipeline_config(&self) -> Option<PipelineConfig> {
        match self {
            BackendKind::Simulated | BackendKind::Threaded | BackendKind::Tcp => None,
            BackendKind::Pipelined { coalesce_tuples }
            | BackendKind::TcpPipelined { coalesce_tuples } => {
                Some(PipelineConfig::with_coalesce(*coalesce_tuples))
            }
        }
    }
}

/// A figure binary's command line: the backend (`--real`, `--tcp`,
/// `--pipeline`, `--coalesce=N`) and the experiment sizes.
/// A size flag that is absent or does not parse keeps its default.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--coalesce` implies `--pipeline`; `--tcp` moves a threaded or
    /// pipelined run onto the multi-process socket transport; with none of
    /// them the run is simulated.
    pub backend: BackendKind,
    /// `--tuples=N`: stream size of the local figures and tables
    /// (default 30 000).
    pub tuples: usize,
    /// `--per-worker=N`: fig9's tuples per worker per batch (default 2 000).
    pub per_worker: usize,
    /// `--stream-batch=N`: tuples per batch of fig9's `pipeline_stream`
    /// table (default 16).
    pub stream_batch: usize,
    /// `--stream-workers=N`: workers of fig9's `pipeline_stream` table
    /// (default: the cores, at most 4).
    pub stream_workers: usize,
    /// `--strong-batch=N`: the largest batch of fig10 and fig13 (each
    /// binary has its own default).
    pub strong_batch: Option<usize>,
}

impl Args {
    /// Parse this process's arguments.
    ///
    /// `--connect <addr> --index <n>` is how a `--tcp` run re-executes this
    /// binary as one of its own workers: the process serves that worker
    /// slot and exits, and this function never returns.
    pub fn parse() -> Args {
        let mut args = Args {
            backend: BackendKind::Simulated,
            tuples: 30_000,
            per_worker: 2_000,
            stream_batch: 16,
            stream_workers: num_cpus_capped(4),
            strong_batch: None,
        };
        let mut pipeline = false;
        let mut real = false;
        let mut tcp = false;
        let mut coalesce = PipelineConfig::default().coalesce_tuples;
        let mut connect = None;
        let mut index = None;
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--connect" => connect = argv.next(),
                "--index" => index = argv.next().and_then(|s| s.parse::<u32>().ok()),
                "--real" => real = true,
                "--tcp" => tcp = true,
                "--pipeline" => pipeline = true,
                a => {
                    let Some((flag, value)) = a.split_once('=') else {
                        continue;
                    };
                    let n = value.parse().ok();
                    match flag {
                        "--coalesce" => {
                            pipeline = true;
                            coalesce = n.unwrap_or(coalesce);
                        }
                        "--tuples" => args.tuples = n.unwrap_or(args.tuples),
                        "--per-worker" => args.per_worker = n.unwrap_or(args.per_worker),
                        "--stream-batch" => args.stream_batch = n.unwrap_or(args.stream_batch),
                        "--stream-workers" => {
                            args.stream_workers = n.unwrap_or(args.stream_workers)
                        }
                        "--strong-batch" => args.strong_batch = n.or(args.strong_batch),
                        _ => {}
                    }
                }
            }
        }
        if let Some(addr) = connect {
            let index = index.expect("--connect needs --index <n>");
            match hotdog::net::run_worker(&addr, index) {
                Ok(()) => std::process::exit(0),
                Err(e) => {
                    eprintln!("worker {index}: {e}");
                    std::process::exit(1)
                }
            }
        }
        args.backend = if tcp && pipeline {
            BackendKind::TcpPipelined {
                coalesce_tuples: coalesce,
            }
        } else if tcp {
            BackendKind::Tcp
        } else if pipeline {
            BackendKind::Pipelined {
                coalesce_tuples: coalesce,
            }
        } else if real {
            BackendKind::Threaded
        } else {
            BackendKind::Simulated
        };
        args
    }
}

/// Result of one distributed run.
#[derive(Clone, Debug)]
pub struct DistRun {
    pub median_latency_secs: f64,
    pub throughput: f64,
    pub mb_shuffled_per_worker: f64,
    pub jobs: usize,
    pub stages: usize,
    /// Pipelined-ingestion counters (`None` for synchronous backends).
    pub coalesce: Option<PipelineStats>,
}

/// Available hardware parallelism, capped (measured experiments only make
/// sense up to the physical core count).
pub fn num_cpus_capped(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, cap.max(1))
}

/// TCP cluster configuration for the `--tcp` arms: this executable is its
/// own worker (see [`Args::parse`]), so nothing has to be pre-built.
fn tcp_config(workers: usize) -> TcpConfig {
    let mut config = TcpConfig::with_workers(workers);
    config.worker_bin = Some(std::env::current_exe().expect("current_exe"));
    config
}

/// Stream `batches` through a driver and collect what a [`DistRun`]
/// reports about it.
fn measure<T: Transport>(
    cluster: &mut Driver<T>,
    batches: &[Vec<(&'static str, Relation)>],
) -> (ClusterTotals, Option<PipelineStats>) {
    cluster.apply_stream(batches);
    let executed = cluster.telemetry().counter("driver.batches.executed").get();
    assert_eq!(
        cluster.totals.latencies.len() as u64,
        executed,
        "one latency per executed batch"
    );
    (cluster.totals.clone(), cluster.pipeline_stats())
}

/// Run a query on the simulated cluster, chunking the stream into batches of
/// `batch_tuples`, and report modelled latency/throughput.
pub fn run_distributed(
    q: &CatalogQuery,
    stream: &UpdateStream,
    workers: usize,
    batch_tuples: usize,
    opt: OptLevel,
) -> DistRun {
    run_distributed_on(
        q,
        stream,
        workers,
        batch_tuples,
        opt,
        BackendKind::Simulated,
    )
}

/// Backend-generic distributed experiment driver: chunk the stream into
/// batches of `batch_tuples` and run them through `backend`.
pub fn run_distributed_on(
    q: &CatalogQuery,
    stream: &UpdateStream,
    workers: usize,
    batch_tuples: usize,
    opt: OptLevel,
    backend: BackendKind,
) -> DistRun {
    let batches = stream.batches(batch_tuples);
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    let dplan = compile_distributed(&plan, &spec, opt);
    let (jobs, stages) = dplan.complexity();
    let (totals, coalesce) = match (backend, backend.pipeline_config()) {
        (BackendKind::Simulated, _) => measure(
            &mut Cluster::new(dplan, ClusterConfig::with_workers(workers)),
            &batches,
        ),
        (BackendKind::Tcp | BackendKind::TcpPipelined { .. }, pipeline) => {
            let config = tcp_config(workers);
            let mut cluster = match pipeline {
                None => TcpCluster::new(dplan, &config),
                Some(pipeline) => TcpCluster::pipelined(dplan, &config, pipeline),
            }
            .expect("tcp cluster");
            measure(&mut cluster, &batches)
        }
        (_, None) => measure(&mut ThreadedCluster::new(dplan, workers), &batches),
        (_, Some(pipeline)) => measure(
            &mut ThreadedCluster::pipelined(dplan, workers, pipeline),
            &batches,
        ),
    };
    DistRun {
        median_latency_secs: totals.median_latency(),
        throughput: totals.throughput(),
        mb_shuffled_per_worker: totals.bytes_shuffled as f64
            / 1e6
            / workers as f64
            / totals.latencies.len().max(1) as f64,
        jobs,
        stages,
        coalesce,
    }
}

/// Head-to-head stream throughput: the same many-small-batch stream pushed
/// through the synchronous path and through the pipelined+coalescing
/// path on the same host (the runtime-layer version of the paper's batching
/// thesis: fewer, larger triggers amortize per-batch overhead).
#[derive(Clone, Debug)]
pub struct StreamComparison {
    pub sync: DistRun,
    pub pipelined: DistRun,
}

impl StreamComparison {
    pub fn speedup(&self) -> f64 {
        if self.sync.throughput == 0.0 {
            0.0
        } else {
            self.pipelined.throughput / self.sync.throughput
        }
    }
}

/// Push a `n_batches`×`tuples_per_batch` stream through both threaded
/// paths; the pipelined path may coalesce up to `coalesce_tuples` per
/// trigger.
pub fn compare_stream_throughput(
    q: &CatalogQuery,
    workers: usize,
    n_batches: usize,
    tuples_per_batch: usize,
    coalesce_tuples: usize,
) -> StreamComparison {
    let stream = stream_for(q, n_batches * tuples_per_batch, 64);
    let sync = run_distributed_on(
        q,
        &stream,
        workers,
        tuples_per_batch,
        OptLevel::O3,
        BackendKind::Threaded,
    );
    let pipelined = run_distributed_on(
        q,
        &stream,
        workers,
        tuples_per_batch,
        OptLevel::O3,
        BackendKind::Pipelined { coalesce_tuples },
    );
    StreamComparison { sync, pipelined }
}

/// Print a plain-text table: header row then rows, columns padded.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with limited precision for table output.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_run_produces_sane_metrics() {
        let q = query("Q6").unwrap();
        let stream = stream_for(&q, 2_000, 1);
        let run = run_local(
            &q,
            &stream,
            Strategy::RecursiveIvm,
            ExecMode::Batched { preaggregate: true },
            500,
        );
        assert!(run.throughput > 0.0);
        assert!(run.instructions > 0);
        assert_eq!(run.tuples, stream.len());
    }

    #[test]
    fn distributed_run_produces_sane_metrics() {
        let q = query("Q3").unwrap();
        let stream = stream_for(&q, 2_000, 1);
        let run = run_distributed(&q, &stream, 4, 1_000, OptLevel::O3);
        assert!(run.median_latency_secs > 0.0);
        assert!(run.jobs >= 1);
        assert!(run.stages >= 1);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.4), "123");
    }
}
