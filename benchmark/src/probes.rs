//! Layer probes: the workload's own rounds replayed through each layer's
//! public functions in isolation, timed from outside.  Run only in traced
//! mode, after the laps, so nothing here can disturb an end-to-end number.

use crate::report::Values;
use crate::stats;
use crate::workloads::{
    compile_plan, filter_value, Input, Round, Spec, FILTER_COLUMN, SUBSCRIBERS,
};
use hotdog::distributed::{partition_shards, DistStmtKind, Transform};
use hotdog::exec::{relabel, vectorized};
use hotdog::net::{decode_from_slice, encode_to_vec, read_frame, write_frame};
use hotdog::prelude::*;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Tuples of the bulk codec probe's relations (the large-batch regime, on
/// record even for workloads whose rounds are small).
const BULK_CODEC_TUPLES: usize = 5_000;
/// Repetitions of the compile probes (median reported).
const COMPILE_REPS: usize = 5;
/// Round trips of the frame echo probe.
const FRAME_ECHOES: usize = 2_000;
/// Measured rounds the capture probe drains for the fan-out split probe.
const CAPTURED_ROUNDS: usize = 24;

/// Nanoseconds per item.
fn per(total: Duration, count: usize) -> f64 {
    total.as_secs_f64() * 1e9 / count.max(1) as f64
}

/// Every probe, on `input`'s measured rounds.
pub fn run(spec: &Spec, input: &Input) -> Values {
    let mut v = Values::default();
    let plan = compile_and_start(spec, &mut v);
    partition(spec, input, &plan, &mut v);
    algebra(input, &mut v);
    storage(input, &mut v);
    exec(input, &plan, &mut v);
    codec(input, &mut v);
    frame_rtt(&mut v);
    fanout_split(spec, input, &plan, &mut v);
    v
}

/// `ivm` and `distributed` compile time, and how long an (empty) threaded
/// cluster of the workload's worker count takes to start.
fn compile_and_start(spec: &Spec, v: &mut Values) -> DistributedPlan {
    let mut ivm_ms = Vec::new();
    let mut dist_ms = Vec::new();
    let mut start_ms = Vec::new();
    let mut plan = None;
    for _ in 0..COMPILE_REPS {
        let compiled = compile_plan(spec);
        ivm_ms.push(compiled.ivm_s * 1e3);
        dist_ms.push(compiled.distributed_s * 1e3);
        let t = Instant::now();
        let cluster = ThreadedCluster::new(compiled.dplan.clone(), spec.workers);
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(cluster);
        plan = Some(compiled.dplan);
    }
    let plan = plan.expect("COMPILE_REPS > 0");
    v.set("ivm.compile_ms", stats::median(&ivm_ms));
    v.set("ivm.statements", plan.plan.statement_count() as f64);
    v.set("distributed.compile_ms", stats::median(&dist_ms));
    v.set("distributed.stages", plan.complexity().1 as f64);
    v.set("runtime.cluster_start_ms", stats::median(&start_ms));
    plan
}

/// `partition_shards` over each round's deltas with the plan's own scatter
/// statements, at the workload's worker count.
fn partition(spec: &Spec, input: &Input, plan: &DistributedPlan, v: &mut Values) {
    let mut time = Duration::ZERO;
    let mut tuples = 0usize;
    let mut blocks = 0usize;
    let mut per_worker = vec![0usize; spec.workers];
    for round in &input.run {
        for (relation, batch) in round {
            let Some(program) = plan.program(relation) else {
                continue;
            };
            blocks += program.blocks.len();
            for stmt in program.statements() {
                let DistStmtKind::Transform {
                    kind: Transform::Scatter(pf),
                    ..
                } = &stmt.kind
                else {
                    continue;
                };
                if stmt.target_schema.len() != batch.schema().len() {
                    continue;
                }
                let source = relabel(batch, &stmt.target_schema);
                let t = Instant::now();
                let (shards, _) = black_box(partition_shards(pf, &source, stmt, spec.workers));
                time += t.elapsed();
                tuples += source.len();
                // Skew is about keyed routing; a broadcast gives every
                // worker everything.
                if !pf.columns().is_empty() {
                    for (w, shard) in shards.iter().enumerate() {
                        per_worker[w] += shard.len();
                    }
                }
            }
        }
    }
    v.set("distributed.partition_ns_per_tuple", per(time, tuples));
    v.set(
        "distributed.blocks_per_round",
        blocks as f64 / input.run.len() as f64,
    );
    let mean = per_worker.iter().sum::<usize>() as f64 / spec.workers as f64;
    let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
    v.set(
        "distributed.partition_skew",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
}

/// Ring-sum (`Relation::add`, the coalescing and merge primitive) and
/// `Relation::canonical` (run per shard and per gather).
fn algebra(input: &Input, v: &mut Values) {
    let mut add = Duration::ZERO;
    let mut canonical = Duration::ZERO;
    let mut tuples = 0usize;
    let mut sums: std::collections::HashMap<&str, Relation> = Default::default();
    for (relation, batch) in input.run.iter().flatten() {
        let pairs: Vec<(Tuple, Mult)> = batch.iter().map(|(t, m)| (t.clone(), m)).collect();
        tuples += pairs.len();
        let acc = sums
            .entry(relation)
            .or_insert_with(|| Relation::new(batch.schema().clone()));
        let t = Instant::now();
        for (tuple, mult) in pairs {
            acc.add(tuple, mult);
        }
        add += t.elapsed();
        let t = Instant::now();
        black_box(batch.canonical());
        canonical += t.elapsed();
    }
    black_box(&sums);
    v.set("algebra.relation_add_ns", per(add, tuples));
    v.set("algebra.canonical_ns_per_tuple", per(canonical, tuples));
}

/// The largest relation of the stream: what the storage probes run on.
const STORAGE_RELATION: &str = "LINEITEM";

fn batches_of<'a>(rounds: &'a [Round], relation: &'a str) -> impl Iterator<Item = &'a Relation> {
    rounds
        .iter()
        .flatten()
        .filter(move |(r, _)| *r == relation)
        .map(|(_, b)| b)
}

/// `RecordPool::update` / `slice` on the workload's tuples and
/// `ColumnarBatch::from_relation` on its batches.
fn storage(input: &Input, v: &mut Values) {
    let rows: Vec<(Tuple, Mult)> = batches_of(&input.run, STORAGE_RELATION)
        .flat_map(|b| b.iter().map(|(t, m)| (t.clone(), m)))
        .collect();
    let arity = rows.first().map_or(0, |(t, _)| t.0.len());
    let keys: Vec<Value> = rows.iter().map(|(t, _)| t.0[0].clone()).collect();
    // Indexed on the join key (l_orderkey), as the plan's access-pattern
    // analysis does for the views the triggers slice.
    let mut pool = RecordPool::with_secondary_indexes(arity, &[vec![0]]);
    let count = rows.len();
    let t = Instant::now();
    for (tuple, mult) in rows {
        pool.update(tuple, mult);
    }
    v.set("storage.pool_update_ns", per(t.elapsed(), count));
    let mut visited = 0usize;
    let t = Instant::now();
    for key in &keys {
        pool.slice(&[0], std::slice::from_ref(key), &mut |_, _| visited += 1);
    }
    v.set("storage.pool_slice_ns", per(t.elapsed(), keys.len()));
    black_box(visited);

    let mut build = Duration::ZERO;
    let mut built = 0usize;
    for batch in batches_of(&input.run, STORAGE_RELATION) {
        let t = Instant::now();
        black_box(ColumnarBatch::from_relation(batch));
        build += t.elapsed();
        built += batch.len();
    }
    v.set("storage.columnar_build_ns_per_row", per(build, built));
}

/// Trigger execution alone: `LocalEngine::apply_batch` (batched mode) over
/// the loaded state, at the workload's round size; and what compiling each
/// trigger statement to a `VectorPlan` costs (it is recompiled per call).
fn exec(input: &Input, plan: &DistributedPlan, v: &mut Values) {
    let local = plan.plan.clone();
    let exprs: Vec<&Expr> = local
        .triggers
        .iter()
        .flat_map(|t| t.statements.iter().map(|s| &s.expr))
        .collect();
    const REPS: usize = 200;
    let t = Instant::now();
    let mut compiled = 0usize;
    for _ in 0..REPS {
        for expr in &exprs {
            compiled += usize::from(black_box(vectorized::compile(expr)).is_some());
        }
    }
    let calls = REPS * exprs.len();
    v.set("exec.vector_compile_us", per(t.elapsed(), calls) / 1e3);
    v.set(
        "exec.vector_coverage",
        compiled as f64 / calls.max(1) as f64,
    );

    let mut engine = LocalEngine::new(local.clone(), ExecMode::Batched { preaggregate: true });
    for (relation, batch) in input.load.iter().flatten() {
        engine.apply_batch(relation, batch);
    }
    let mut instructions = 0u64;
    let t = Instant::now();
    for (relation, batch) in input.run.iter().flatten() {
        instructions += engine.apply_batch(relation, batch).eval.instructions();
    }
    let elapsed = t.elapsed();
    black_box(engine.query_result());
    v.set("exec.trigger_ns_per_tuple", per(elapsed, input.run_tuples));
    v.set(
        "exec.trigger_us_per_round",
        per(elapsed, input.run.len()) / 1e3,
    );
    v.set(
        "exec.instructions_per_tuple",
        instructions as f64 / input.run_tuples as f64,
    );
}

/// Encode + decode `relations`; returns (encode ns, decode ns, wire bytes)
/// per tuple.
fn codec_pass(relations: &[Relation]) -> (f64, f64, f64) {
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut tuples, mut bytes) = (0usize, 0usize);
    for rel in relations {
        let t = Instant::now();
        let wire = black_box(encode_to_vec(rel));
        encode += t.elapsed();
        let t = Instant::now();
        let back: Relation = decode_from_slice(&wire).expect("decode what was just encoded");
        decode += t.elapsed();
        black_box(back);
        tuples += rel.len();
        bytes += wire.len();
    }
    (
        per(encode, tuples),
        per(decode, tuples),
        bytes as f64 / tuples.max(1) as f64,
    )
}

/// Wire codec on each round's delta relations, at the workload's round size
/// and regrouped into `BULK_CODEC_TUPLES`-tuple relations.
fn codec(input: &Input, v: &mut Values) {
    let small: Vec<Relation> = input.run.iter().flatten().map(|(_, b)| b.clone()).collect();
    let (enc, dec, bytes) = codec_pass(&small);
    v.set("net.encode_ns_per_tuple", enc);
    v.set("net.decode_ns_per_tuple", dec);
    v.set("net.wire_bytes_per_tuple", bytes);

    let mut bulk: Vec<Relation> = Vec::new();
    for batch in
        batches_of(&input.load, STORAGE_RELATION).chain(batches_of(&input.run, STORAGE_RELATION))
    {
        for (tuple, mult) in batch.iter() {
            match bulk.last_mut() {
                Some(rel) if rel.len() < BULK_CODEC_TUPLES => rel.add(tuple.clone(), mult),
                _ => bulk.push(Relation::from_pairs(
                    batch.schema().clone(),
                    [(tuple.clone(), mult)],
                )),
            }
        }
    }
    // A trailing short relation would not be the bulk regime.
    bulk.retain(|rel| rel.len() == BULK_CODEC_TUPLES);
    let (enc, dec, bytes) = codec_pass(&bulk);
    v.set("net.bulk_encode_ns_per_tuple", enc);
    v.set("net.bulk_decode_ns_per_tuple", dec);
    v.set("net.bulk_wire_bytes_per_tuple", bytes);
}

/// `write_frame`/`read_frame` echo of a 64-byte payload over a loopback
/// pair: the fixed cost every protocol message pays.
fn frame_rtt(v: &mut Values) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        for _ in 0..FRAME_ECHOES {
            let payload = read_frame(&mut reader)?;
            write_frame(&mut writer, &payload)?;
            writer.flush()?;
        }
        Ok(())
    });
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let payload = [0x5Au8; 64];
    let mut rtt_us = Vec::with_capacity(FRAME_ECHOES);
    for _ in 0..FRAME_ECHOES {
        let t = Instant::now();
        write_frame(&mut writer, &payload).expect("write frame");
        writer.flush().expect("flush frame");
        black_box(read_frame(&mut reader).expect("read echo"));
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    echo.join().expect("echo thread").expect("echo loop");
    v.set("net.frame_rtt_us", stats::median(&rtt_us));
}

/// The fan-out split alone: `ParamFilter::apply` of every subscriber's
/// filter on parts captured from the workload's own rounds.
fn fanout_split(spec: &Spec, input: &Input, plan: &DistributedPlan, v: &mut Values) {
    let view = plan.plan.top_view.clone();
    let schema = plan.schema_of(&view).unwrap_or_default();
    let mut cluster = ThreadedCluster::new(plan.clone(), spec.workers);
    cluster.enable_capture(std::slice::from_ref(&view));
    for (relation, batch) in input.load.iter().flatten() {
        cluster.apply_batch(relation, batch);
    }
    cluster.take_captured();
    let mut parts: Vec<Relation> = Vec::new();
    for round in input.run.iter().take(CAPTURED_ROUNDS) {
        for (relation, batch) in round {
            cluster.apply_batch(relation, batch);
        }
        let captured = cluster.take_captured();
        parts.extend(
            captured
                .views
                .into_iter()
                .flat_map(|view| view.parts)
                .flatten()
                .map(|(_, rel)| rel),
        );
    }
    drop(cluster);
    // Q18's view has no o_orderdate: bind its first column instead, so the
    // probe still walks every row of every part per subscriber.
    let column = if schema.position(FILTER_COLUMN).is_some() {
        FILTER_COLUMN.to_string()
    } else {
        schema.columns().first().cloned().unwrap_or_default()
    };
    let filters: Vec<ParamFilter> = (0..SUBSCRIBERS)
        .map(|i| ParamFilter::equals(column.clone(), filter_value(i)))
        .collect();
    let t = Instant::now();
    for part in &parts {
        for filter in &filters {
            black_box(filter.apply(&schema, part));
        }
    }
    v.set(
        "serve.split_ns_per_subscriber",
        per(t.elapsed(), parts.len() * filters.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, spec, Spec};

    #[test]
    fn exact_layer_counts_repeat_and_every_probe_reports() {
        let s = Spec {
            tuples: 24_000,
            load: 12_000,
            ..*spec("smallbatch_q3_tcp").expect("workload")
        };
        let input = generate(&s, 21, 1);
        let a = run(&s, &input);
        let b = run(&s, &input);
        for exact in [
            "net.wire_bytes_per_tuple",
            "net.bulk_wire_bytes_per_tuple",
            "ivm.statements",
            "distributed.stages",
            "distributed.blocks_per_round",
            "distributed.partition_skew",
            "exec.vector_coverage",
            "exec.instructions_per_tuple",
        ] {
            assert!(a.get(exact).is_some_and(|x| x > 0.0), "{exact}");
            assert_eq!(a.get(exact), b.get(exact), "{exact}");
        }
        for timed in [
            "distributed.partition_ns_per_tuple",
            "algebra.relation_add_ns",
            "algebra.canonical_ns_per_tuple",
            "storage.pool_update_ns",
            "storage.pool_slice_ns",
            "storage.columnar_build_ns_per_row",
            "exec.trigger_ns_per_tuple",
            "exec.vector_compile_us",
            "net.encode_ns_per_tuple",
            "net.decode_ns_per_tuple",
            "net.frame_rtt_us",
            "serve.split_ns_per_subscriber",
            "runtime.cluster_start_ms",
        ] {
            assert!(a.get(timed).is_some_and(|x| x > 0.0), "{timed}");
        }
        // Q3 compiles to columnar plans throughout.
        assert_eq!(a.get("exec.vector_coverage"), Some(1.0));
    }
}
