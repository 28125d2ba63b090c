//! Figures 10 & 11: strong scalability — fixed batch sizes, growing worker
//! counts, including the re-evaluation-on-cluster comparison point.
//!
//! By default the simulated cluster reports *modelled* latency over the
//! paper's worker axis.  With `--real` the experiment instead runs on the
//! `hotdog-runtime` thread-per-worker backend (measured wall-clock, worker
//! axis bounded by the machine's cores); `--pipeline` / `--coalesce=N`
//! select its pipelined ingestion path and `--tcp` the multi-process socket
//! backend (this binary re-runs itself as the workers).
//! `--strong-batch=N` sets the largest batch (default 10 000).

use hotdog::prelude::*;
use hotdog_bench::*;

fn main() {
    let args = Args::parse();
    let backend = args.backend;
    let base = args.strong_batch.unwrap_or(10_000);
    let batch_sizes = [base / 4, base / 2, base];
    let workers_axis: &[usize] = match backend {
        BackendKind::Simulated => &[2, 4, 8, 16, 32, 64],
        // Measured scaling only makes sense up to the physical parallelism.
        _ => &[1, 2, 4, 8],
    };
    let queries: &[&str] = match backend {
        BackendKind::Simulated => &["Q6", "Q17", "Q3", "Q7", "Q1", "Q12", "Q14", "Q22"],
        _ => &["Q6", "Q17", "Q3", "Q7"],
    };
    let mut rows = Vec::new();
    for id in queries {
        let q = query(id).unwrap();
        for &batch in &batch_sizes {
            let stream = stream_for(&q, batch * 2, 10);
            for &workers in workers_axis {
                let run = run_distributed_on(&q, &stream, workers, batch, OptLevel::O3, backend);
                rows.push(vec![
                    (*id).into(),
                    batch.to_string(),
                    workers.to_string(),
                    f(run.median_latency_secs * 1e3),
                    f(run.throughput / 1e3),
                ]);
            }
        }
    }
    print_table(
        &format!(
            "Figures 10/11 — strong scaling ({} latency, batches up to {base} tuples)",
            backend.label()
        ),
        &[
            "query",
            "batch",
            "workers",
            backend.latency_column(),
            "throughput (Ktup/s)",
        ],
        &rows,
    );
}
