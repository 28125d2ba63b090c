//! `hotdog-benchmark` — the repo benchmark (see `README.md`, `../BENCHMARK.json`).
//!
//! ```text
//! hotdog-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! hotdog-benchmark --smoke [--seed <u64>]
//! hotdog-benchmark --list
//! hotdog-benchmark --connect <addr> --index <n>      # TCP worker mode
//! ```
//!
//! One run = one workload: a discarded warm-up lap, then measured laps of
//! frozen size, an oracle check of every lap against the simulated cluster,
//! every metric printed by name with its unit, and the result object as the
//! last line of standard output.  `--trace 1` adds a traced lap and the
//! layer probes and prints the per-layer metrics instead; end-to-end
//! metrics only ever come from untraced runs.

#![forbid(unsafe_code)]

mod probes;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Input, Lap, Spec, LAP_NOMINAL_S, WORKLOADS};

/// `--smoke` divides every workload's tuple count by this.
const SMOKE_SHRINK: usize = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    list: bool,
    connect: Option<String>,
    index: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        list: false,
        connect: None,
        index: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--connect" => args.connect = Some(value("host:port")?),
            "--index" => {
                args.index = Some(
                    value("a worker index")?
                        .parse()
                        .map_err(|e| format!("--index: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hotdog-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>\n\
         \x20      hotdog-benchmark --smoke [--seed <u64>]\n\
         \x20      hotdog-benchmark --list\n\
         \x20      hotdog-benchmark --connect <addr> --index <n>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hotdog-benchmark: {e}");
            return usage();
        }
    };
    // Worker mode: this binary is the TCP cluster's worker process.
    if let (Some(addr), Some(index)) = (&args.connect, args.index) {
        return match hotdog::net::run_worker(addr, index) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hotdog-benchmark worker {index}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.list {
        for w in &WORKLOADS {
            println!("{}", w.name);
        }
        return ExitCode::SUCCESS;
    }
    // Tracing export would add file writes to every backend drop.
    if !args.traced && std::env::var_os("HOTDOG_TRACE").is_some_and(|p| !p.is_empty()) {
        eprintln!("hotdog-benchmark: HOTDOG_TRACE is set; refusing to take untraced measurements");
        return ExitCode::from(2);
    }
    let scrubbed = workloads::scrub_environment();
    if !scrubbed.is_empty() {
        eprintln!("removed from the environment: {}", scrubbed.join(" "));
    }
    if args.smoke {
        return smoke(args.seed);
    }
    let Some(spec) = args.workload.as_deref().and_then(workloads::spec) else {
        eprintln!("hotdog-benchmark: --workload must be one of --list");
        return usage();
    };
    let laps = ((args.seconds / LAP_NOMINAL_S).round() as usize).max(1);
    let outcome = run(spec, args.seed, laps, args.traced);
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    print!("{}", outcome.render_table(catalogue));
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.render_json(catalogue));
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rounds attempted and failed over `laps`; a lap whose outputs disagree
/// with the reference fails all of its rounds.
fn count_ops(
    spec: &Spec,
    input: &Input,
    laps: &[&Lap],
    reference: &hotdog::prelude::Relation,
) -> (usize, usize, bool) {
    let mut failed = 0;
    let mut correct = true;
    for lap in laps {
        if workloads::lap_is_correct(spec, lap, reference) {
            failed += lap.rounds_failed;
        } else {
            correct = false;
            failed += input.run.len();
        }
    }
    (laps.len() * input.run.len(), failed, correct)
}

fn describe_lap(label: &str, lap: &Lap, input: &Input) {
    println!(
        "  {label:<8} set-up {:>6.3} s  measured {:>6.3} s  {:>8.0} tuples/s  \
         round p50 {:>8.3} ms  rss {:>6.1} MB",
        lap.setup_s(),
        lap.measured_s(),
        lap.throughput_tps(input),
        stats::median(&lap.round_ms),
        lap.peak_rss_mb
    );
}

/// One run of one workload: warm-up lap, `laps` measured laps, optionally a
/// traced lap and the layer probes, then the oracle.
fn run(spec: &Spec, seed: u64, laps: usize, traced: bool) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}  seed {seed}  laps 1+{laps}  {} tuples ({} loaded in {}s, rest in {}s)  \
         {:?} x{} workers  closed loop, 1 client  host cores {cores}",
        spec.name,
        spec.tuples,
        spec.load,
        workloads::LOAD_ROUND,
        spec.round,
        spec.kind,
        spec.workers
    );
    let input = workloads::generate(spec, seed, 1);
    println!(
        "  input    generated in {:.3} s: {} load rounds, {} measured rounds, {} measured tuples; \
         peak rss so far {:.1} MB",
        input.generate_s,
        input.load.len(),
        input.run.len(),
        input.run_tuples,
        procfs::peak_rss_mb_with_children()
    );
    let warmup = workloads::run_lap(spec, &input, false);
    describe_lap("warm-up", &warmup, &input);
    let measured: Vec<Lap> = (0..laps)
        .map(|i| {
            let lap = workloads::run_lap(spec, &input, false);
            describe_lap(&format!("lap {}", i + 1), &lap, &input);
            lap
        })
        .collect();
    let traced_lap = traced.then(|| {
        let lap = workloads::run_lap(spec, &input, true);
        describe_lap("traced", &lap, &input);
        lap
    });
    // After every lap's memory reading, so the oracle's state is not in it.
    let (reference, sim_tps) = workloads::reference(spec, &input);

    let mut all: Vec<&Lap> = std::iter::once(&warmup).chain(&measured).collect();
    all.extend(&traced_lap);
    let (attempted, failed, correct) = count_ops(spec, &input, &all, &reference);

    let throughputs: Vec<f64> = measured.iter().map(|l| l.throughput_tps(&input)).collect();
    let latencies: Vec<f64> = measured
        .iter()
        .flat_map(|l| l.round_ms.iter().copied())
        .collect();
    let mut values = Values::default();
    if let Some(mut lap) = traced_lap {
        let untraced_s: Vec<f64> = measured.iter().map(Lap::measured_s).collect();
        values.extend(std::mem::take(&mut lap.layer));
        values.extend(probes::run(spec, &input));
        values.set("workload.generate_s", input.generate_s);
        values.set("harness.lap_spread", stats::relative_iqr(&throughputs));
        values.set(
            "harness.trace_overhead_frac",
            lap.measured_s() / stats::median(&untraced_s) - 1.0,
        );
        values.set("distributed.sim_single_thread_tps", sim_tps);
        for (name, want) in [
            ("runtime.round_p95_ms", 0.95),
            ("runtime.round_p99_ms", 0.99),
        ] {
            let tail = stats::tail(&latencies, want);
            values.set(name, tail.value);
            println!(
                "  {name}: p{} of {} samples (highest percentile with {} samples beyond it)",
                tail.quantile * 100.0,
                tail.samples,
                stats::MIN_BEYOND
            );
        }
        let rounds: Vec<f64> = lap
            .recorder
            .spans()
            .iter()
            .filter(|s| s.name == "round")
            .map(|s| lap.recorder.self_micros(s.id) as f64)
            .collect();
        println!(
            "  harness self time per round (round span minus its calls): median {:.1} us",
            stats::median(&rounds)
        );
        match write_spans(spec, seed, &lap.recorder) {
            Ok(path) => println!(
                "  spans    {} written to {path}",
                lap.recorder.spans().len()
            ),
            Err(e) => eprintln!("  spans    not written: {e}"),
        }
    } else {
        let setups: Vec<f64> = all.iter().map(|l| l.setup_s()).collect();
        let bytes: Vec<usize> = all.iter().map(|l| l.shuffled_bytes).collect();
        if bytes.iter().any(|b| *b != bytes[0]) {
            eprintln!("  warning: shuffled bytes differ between laps: {bytes:?}");
        }
        values.set("setup_s", input.generate_s + stats::median(&setups));
        values.set("throughput_tps", stats::median(&throughputs));
        values.set("latency_p50_ms", stats::median(&latencies));
        values.set(
            "peak_rss_mb",
            all.iter().map(|l| l.peak_rss_mb).fold(0.0, f64::max),
        );
        values.set(
            "shuffle_bytes_per_tuple",
            bytes[0] as f64 / input.run_tuples as f64,
        );
        println!(
            "  latency_p50_ms over {} round samples; lap spread (IQR/median of lap throughput) {:.4}",
            latencies.len(),
            stats::relative_iqr(&throughputs)
        );
    }
    if !correct {
        eprintln!("  ORACLE MISMATCH: a lap's final view disagrees with the simulated cluster");
    }
    Outcome {
        correct,
        attempted,
        failed,
        values,
    }
}

/// Spans go next to the executable: inside the build directory, which is
/// inside the checkout and ignored by git.
fn write_spans(spec: &Spec, seed: u64, recorder: &spans::Recorder) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("traces");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", spec.name));
    recorder.write_jsonl(&path)?;
    Ok(path.display().to_string())
}

/// All four workloads at a twentieth of their size, one lap each, with the
/// oracle: a fast end-to-end check for CI.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for spec in &WORKLOADS {
        let input = workloads::generate(spec, seed, SMOKE_SHRINK);
        let lap = workloads::run_lap(spec, &input, false);
        let (reference, _) = workloads::reference(spec, &input);
        let (attempted, failed, correct) = count_ops(spec, &input, &[&lap], &reference);
        println!(
            "smoke {:<22} {:>9.0} tuples/s  p50 {:>8.3} ms  ops {attempted} failed {failed}  {}",
            spec.name,
            lap.throughput_tps(&input),
            stats::median(&lap.round_ms),
            if correct {
                "correct"
            } else {
                "ORACLE MISMATCH"
            }
        );
        ok &= correct && failed == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
