//! Codec correctness: round-trip property tests over random values,
//! tuples, relations and protocol messages — including the adversarial
//! floats (NaN, negative zero, infinities, denormals), empty relations
//! and very long strings — plus the worker-side compile from a decoded
//! `Init`, which must reproduce the driver's plan, rejection tests for
//! truncated and corrupt frames, the fixed size of a `RunBlock` frame, and
//! the reconciliation of the O(1) `Relation::serialized_size` accounting
//! against real encoded bytes.

use hotdog_algebra::relation::Relation;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_distributed::protocol::{WorkerReply, WorkerRequest};
use hotdog_distributed::{compile_distributed, DistributedPlan, OptLevel, PartitioningSpec};
use hotdog_ivm::{compile, compile_recursive, Strategy};
use hotdog_net::codec::{Init, ToDriver, ToWorker};
use hotdog_net::DecodeError;
use hotdog_net::{compile_init, decode_from_slice, encode_to_vec, read_frame, write_frame};
use hotdog_serve::QueryShape;
use hotdog_telemetry::{SpanContext, SpanRecord, STAGES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Random-instance generators (seeded; the proptest shim drives the seed)
// ---------------------------------------------------------------------------

fn rand_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..8) {
        0 => Value::Long(rng.gen_range(-1_000_000i64..1_000_000)),
        1 => Value::Long(i64::MIN + rng.gen_range(0i64..3)),
        2 => Value::Double(rng.gen_range(-1e9..1e9)),
        // The adversarial floats: NaN, ±0, infinities, denormals — all
        // must survive the wire bit-for-bit.
        3 => Value::Double(match rng.gen_range(0usize..5) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => 5e-324, // smallest positive denormal
        }),
        4 => {
            let len = rng.gen_range(0usize..12);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + (rng.gen_range(0usize..26) as u8)))
                .collect();
            Value::str(s)
        }
        5 => Value::str("µ∂∫ — non-ascii"),
        6 => Value::Bool(rng.gen_range(0usize..2) == 1),
        _ => Value::Long(0),
    }
}

fn rand_tuple(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple((0..arity).map(|_| rand_value(rng)).collect())
}

fn rand_schema(rng: &mut StdRng) -> Schema {
    let arity = rng.gen_range(0usize..5);
    Schema::new((0..arity).map(|i| format!("c{i}")))
}

fn rand_relation(rng: &mut StdRng) -> Relation {
    let schema = rand_schema(rng);
    let arity = schema.len();
    let tuples = rng.gen_range(0usize..30);
    let mut rel = Relation::new(schema);
    for _ in 0..tuples {
        let mult = match rng.gen_range(0usize..6) {
            0 => -(rng.gen_range(0.0f64..100.0)),
            1 => rng.gen_range(0.0f64..1.0) * 1e-12,
            _ => rng.gen_range(0.0f64..1000.0),
        };
        rel.add(rand_tuple(rng, arity), mult);
    }
    rel
}

fn assert_bits_equal(a: &Relation, b: &Relation, what: &str) -> Result<(), String> {
    prop_assert_eq!(a.checksum(), b.checksum());
    prop_assert!(
        a.schema() == b.schema(),
        "{what}: schema changed: {:?} vs {:?}",
        a.schema(),
        b.schema()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Values round-trip with exact bits (NaN payloads, -0.0, ±inf,
    /// denormals, unicode strings).
    #[test]
    fn values_roundtrip_bit_exact(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for _ in 0..20 {
            let v = rand_value(&mut rng);
            let decoded: Value = decode_from_slice(&encode_to_vec(&v))
                .map_err(|e| format!("decode failed: {e}"))?;
            match (&v, &decoded) {
                (Value::Double(a), Value::Double(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => prop_assert_eq!(&v, &decoded),
            }
        }
    }

    /// Tuples and relations round-trip content-exactly, and the decoded
    /// relation's *layout* (iteration order) equals the canonical form —
    /// the property the bit-for-bit differential equality rests on.
    #[test]
    fn relations_roundtrip_canonically(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for _ in 0..10 {
            let rel = rand_relation(&mut rng);
            let decoded: Relation = decode_from_slice(&encode_to_vec(&rel))
                .map_err(|e| format!("decode failed: {e}"))?;
            assert_bits_equal(&rel, &decoded, "roundtrip")?;
            let canonical_order: Vec<Tuple> =
                rel.canonical().iter().map(|(t, _)| t.clone()).collect();
            let decoded_order: Vec<Tuple> = decoded.iter().map(|(t, _)| t.clone()).collect();
            prop_assert_eq!(canonical_order, decoded_order);
        }
    }

    /// The O(1) `serialized_size` accounting reconciles *exactly* against
    /// the real encoder under the documented bound: the codec spends one
    /// tag byte per value plus a per-relation header (encoded schema +
    /// u32 tuple count); multiplicities are 8 bytes on both sides.
    #[test]
    fn serialized_size_matches_encoded_bytes(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for _ in 0..10 {
            let rel = rand_relation(&mut rng);
            let encoded_len = encode_to_vec(&rel).len();
            let header = 4 // u32 column count
                + rel.schema().iter().map(|c| 4 + c.len()).sum::<usize>()
                + 4; // u32 tuple count
            let value_tags: usize = rel.iter().map(|(t, _)| t.arity()).sum();
            prop_assert_eq!(encoded_len, rel.serialized_size() + value_tags + header);
            // Direction of the drift is part of the contract: the O(1)
            // accounting never overcounts the wire.
            prop_assert!(encoded_len >= rel.serialized_size());
        }
    }

    /// Every strict prefix of an encoded message is rejected with an
    /// error — never a panic, never a silent partial decode.
    #[test]
    fn truncated_frames_are_rejected(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let rel = rand_relation(&mut rng);
        let msg = ToDriver::Reply(WorkerReply::Rel { id: seed as u64, rel });
        let encoded = encode_to_vec(&msg);
        for cut in 0..encoded.len() {
            prop_assert!(
                decode_from_slice::<ToDriver>(&encoded[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                encoded.len()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

#[test]
fn empty_relation_and_empty_tuple_roundtrip() {
    for rel in [
        Relation::new(Schema::empty()),
        Relation::new(Schema::new(["a", "b"])),
        Relation::scalar(42.5),
        Relation::scalar(f64::NAN),
    ] {
        let decoded: Relation = decode_from_slice(&encode_to_vec(&rel)).unwrap();
        assert_eq!(rel.checksum(), decoded.checksum());
        assert_eq!(rel.len(), decoded.len());
    }
}

#[test]
fn negative_zero_and_nan_multiplicities_survive() {
    let mut rel = Relation::new(Schema::new(["k"]));
    rel.add(Tuple::from(vec![Value::Long(1)]), -0.0_f64.min(-1e-300)); // tiny negative
    rel.add(Tuple::from(vec![Value::Long(2)]), f64::NAN);
    rel.add(Tuple::from(vec![Value::Double(-0.0)]), 3.0);
    let decoded: Relation = decode_from_slice(&encode_to_vec(&rel)).unwrap();
    assert_eq!(
        rel.checksum(),
        decoded.checksum(),
        "raw mult bits must survive"
    );
}

#[test]
fn long_strings_roundtrip() {
    // The u32 length prefix must carry strings far beyond any real
    // column value.
    let big = "x".repeat(1 << 20);
    let v = Value::str(&big);
    let decoded: Value = decode_from_slice(&encode_to_vec(&v)).unwrap();
    assert_eq!(v, decoded);

    let mut rel = Relation::new(Schema::new(["s"]));
    rel.add(Tuple::from(vec![Value::str(&big)]), 1.0);
    let decoded: Relation = decode_from_slice(&encode_to_vec(&rel)).unwrap();
    assert_eq!(rel.checksum(), decoded.checksum());
    // serialized_size reconciliation holds at this scale too.
    let header = 4 + (4 + 1) + 4;
    assert_eq!(
        encode_to_vec(&rel).len(),
        rel.serialized_size() + 1 + header
    );
}

#[test]
fn corrupt_tags_and_bytes_are_rejected() {
    // Unknown enum tag.
    let mut encoded = encode_to_vec(&Value::Long(7));
    encoded[0] = 0xEE;
    assert!(matches!(
        decode_from_slice::<Value>(&encoded),
        Err(DecodeError::BadTag { what: "Value", .. })
    ));

    // Boolean byte out of range.
    let mut encoded = encode_to_vec(&Value::Bool(true));
    encoded[1] = 7;
    assert_eq!(
        decode_from_slice::<Value>(&encoded),
        Err(DecodeError::BadBool(7))
    );

    // Invalid UTF-8 in a string value.
    let mut encoded = encode_to_vec(&Value::str("abcd"));
    encoded[5] = 0xFF; // first content byte
    assert_eq!(
        decode_from_slice::<Value>(&encoded),
        Err(DecodeError::BadUtf8)
    );

    // Trailing garbage after a complete message.
    let mut encoded = encode_to_vec(&Value::Long(7));
    encoded.push(0);
    assert_eq!(
        decode_from_slice::<Value>(&encoded),
        Err(DecodeError::TrailingBytes(1))
    );

    // A corrupt sequence length larger than the buffer must fail with
    // Eof, not allocate or panic.
    let mut encoded = encode_to_vec(&vec![1u64, 2, 3]);
    encoded[0] = 0xFF;
    encoded[1] = 0xFF;
    encoded[2] = 0xFF;
    encoded[3] = 0x7F;
    assert_eq!(
        decode_from_slice::<Vec<u64>>(&encoded),
        Err(DecodeError::UnexpectedEof)
    );
}

#[test]
fn oversized_and_truncated_frames_are_io_errors() {
    use std::io::Cursor;
    // Length prefix beyond MAX_FRAME.
    let mut buf = Vec::new();
    buf.extend_from_slice(&(u32::MAX).to_le_bytes());
    let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Frame cut off mid-payload.
    let mut buf = Vec::new();
    write_frame(&mut buf, &[1, 2, 3, 4, 5]).unwrap();
    buf.truncate(buf.len() - 2);
    let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn protocol_messages_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xD06F00D);
    let rel = rand_relation(&mut rng);

    // A block named by position.
    let req = ToWorker::Request(WorkerRequest::RunBlock {
        id: 99,
        ctx: SpanContext {
            trace: 3,
            parent: 0xABCD,
        },
        program: 2,
        block: 7,
    });
    match decode_from_slice::<ToWorker>(&encode_to_vec(&req)).unwrap() {
        ToWorker::Request(WorkerRequest::RunBlock {
            id,
            ctx,
            program,
            block,
        }) => {
            assert_eq!(id, 99);
            assert_eq!(ctx.trace, 3);
            assert_eq!(ctx.parent, 0xABCD);
            assert_eq!((program, block), (2, 7));
        }
        _ => panic!("wrong variant"),
    }

    // Reply with a relation.
    let rep = ToDriver::Reply(WorkerReply::Rel {
        id: 7,
        rel: rel.clone(),
    });
    match decode_from_slice::<ToDriver>(&encode_to_vec(&rep)).unwrap() {
        ToDriver::Reply(WorkerReply::Rel { id, rel: r }) => {
            assert_eq!(id, 7);
            assert_eq!(r.checksum(), rel.checksum());
        }
        _ => panic!("wrong variant"),
    }
}

/// A catalog query compiled at `opt`, as a cluster would run it.
fn compiled(id: &str, opt: OptLevel) -> DistributedPlan {
    let q = hotdog_workload::query(id).expect("catalog query");
    let plan = compile_recursive(q.id, &q.expr);
    let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
    compile_distributed(&plan, &spec, opt)
}

/// A statement position: small, at the edge of `u32`, or anything.
fn rand_position(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0usize..3) {
        0 => rng.gen_range(0usize..8) as u32,
        1 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

fn rand_ctx(rng: &mut StdRng) -> SpanContext {
    SpanContext {
        trace: rng.next_u64() % 3,
        parent: rng.next_u64(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ApplyMany` decodes to the same statement positions, in order, and
    /// to shards with the same checksums.
    #[test]
    fn apply_many_roundtrips_positions_and_shards(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let applies: Vec<((u32, u32, u32), Relation)> = (0..rng.gen_range(0usize..6))
            .map(|_| {
                let at = (rand_position(&mut rng), rand_position(&mut rng), rand_position(&mut rng));
                (at, rand_relation(&mut rng))
            })
            .collect();
        let id = rng.next_u64();
        let ctx = rand_ctx(&mut rng);
        let msg = ToWorker::Request(WorkerRequest::ApplyMany { id, ctx, applies: applies.clone() });
        match decode_from_slice::<ToWorker>(&encode_to_vec(&msg))
            .map_err(|e| format!("ApplyMany failed to decode: {e}"))? {
            ToWorker::Request(WorkerRequest::ApplyMany { id: rid, ctx: c, applies: got }) => {
                prop_assert_eq!(rid, id);
                prop_assert_eq!(c, ctx);
                prop_assert_eq!(got.len(), applies.len());
                for ((at, shard), (want_at, want)) in got.iter().zip(&applies) {
                    prop_assert_eq!(at, want_at);
                    prop_assert_eq!(shard.checksum(), want.checksum());
                }
            }
            _ => panic!("wrong variant"),
        }
    }
}

/// A decoded `Init` re-encodes to the same bytes, and what a worker
/// compiles from it (see `compile_init`) is exactly the coordinating
/// `Driver`'s plan:
/// the same digest, the same `pretty()` and the same statements.  Returns
/// the encoded `Init`'s size.
fn assert_worker_recompiles(dplan: &DistributedPlan, what: &str) -> usize {
    let bytes = encode_to_vec(&ToWorker::Init(Init::of(dplan)));
    let init = match decode_from_slice::<ToWorker>(&bytes) {
        Ok(ToWorker::Init(init)) => init,
        Ok(ToWorker::Request(_)) => panic!("{what}: wrong variant"),
        Err(e) => panic!("{what}: Init failed to decode: {e}"),
    };
    let worker = compile_init(&init).unwrap_or_else(|e| panic!("{what}: {e}"));
    let reencoded = encode_to_vec(&ToWorker::Init(init));
    assert_eq!(reencoded, bytes, "{what}: re-encoding the decoded Init");
    assert_eq!(worker.digest(), dplan.digest(), "{what}");
    assert_eq!(worker.pretty(), dplan.pretty(), "{what}");
    assert_eq!(worker.plan.pretty(), dplan.plan.pretty(), "{what}");
    // `DistStatement` has no `PartialEq`; its `Debug` covers every field.
    assert_eq!(
        format!("{:?}", worker.program_blocks()),
        format!("{:?}", dplan.program_blocks()),
        "{what}"
    );
    bytes.len()
}

/// Every catalog query at O0 and O3, the other two strategies on a few
/// queries, the `R ⋈ S ⋈ T` query of the TCP cluster suites and a
/// `hotdog-serve` query shape: a worker compiling from the decoded `Init`
/// reproduces the driver's plan.  `--nocapture` prints each catalog
/// query's `Init` size at O3.
#[test]
fn a_worker_recompiles_the_drivers_plan_from_init() {
    use hotdog_algebra::expr::{join, join_all, rel, sum};
    for q in hotdog_workload::all_queries() {
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        for opt in [OptLevel::O0, OptLevel::O3] {
            let bytes = assert_worker_recompiles(
                &compile_distributed(&plan, &spec, opt),
                &format!("{} at {opt:?}", q.id),
            );
            if opt == OptLevel::O3 {
                println!("{} O3: Init {bytes} B", q.id);
            }
        }
    }
    for id in ["Q3", "Q17", "DS7"] {
        let q = hotdog_workload::query(id).expect("catalog query");
        for strategy in [Strategy::Reevaluation, Strategy::ClassicalIvm] {
            let plan = compile(q.id, &q.expr, strategy);
            let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
            for opt in [OptLevel::O0, OptLevel::O3] {
                let dplan = compile_distributed(&plan, &spec, opt);
                assert_worker_recompiles(&dplan, &format!("{id} {strategy:?} at {opt:?}"));
            }
        }
    }
    let rst = sum(
        ["B"],
        join_all([
            rel("R", ["OK", "B"]),
            rel("S", ["B", "CK"]),
            rel("T", ["CK", "D"]),
        ]),
    );
    let plan = compile_recursive("Q", &rst);
    let spec = PartitioningSpec::heuristic(&plan, &["OK", "CK"]);
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        let dplan = compile_distributed(&plan, &spec, opt);
        assert_worker_recompiles(&dplan, &format!("R ⋈ S ⋈ T at {opt:?}"));
    }
    let shape = QueryShape::new(
        "by_b",
        sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"]))),
        ["A"],
    );
    assert_worker_recompiles(&shape.compile(), "query shape `by_b`");
}

/// A `RunBlock` names its block, so its frame is the same 34 bytes
/// (`[0x41][0x00][id: 8B][trace: 8B][parent: 8B][program: 4B][block: 4B]`)
/// whatever the block holds — checked on every block of Q18, whose blocks
/// hold from one statement to several.
#[test]
fn run_block_frame_size_does_not_depend_on_the_block() {
    let programs = compiled("Q18", OptLevel::O3).program_blocks();
    let mut rng = StdRng::seed_from_u64(18);
    let mut frame_sizes = BTreeSet::new();
    let mut block_sizes = BTreeSet::new();
    for (p, blocks) in programs.iter().enumerate() {
        for (b, statements) in blocks.iter().enumerate() {
            block_sizes.insert(statements.len());
            let frame = encode_to_vec(&ToWorker::Request(WorkerRequest::RunBlock {
                id: rng.next_u64(),
                ctx: rand_ctx(&mut rng),
                program: p as u32,
                block: b as u32,
            }));
            frame_sizes.insert(frame.len());
        }
    }
    assert_eq!(frame_sizes, BTreeSet::from([34]));
    assert!(block_sizes.len() > 1, "Q18 block sizes: {block_sizes:?}");
}

fn rand_snapshot(rng: &mut StdRng) -> hotdog_distributed::WorkerSnapshot {
    use hotdog_distributed::{WorkerSnapshot, WorkerStats};
    let names = ["Q", "part_R", "buf0", "Δbuf", "µ-view"];
    let pick = |rng: &mut StdRng, n: usize| {
        (0..n)
            .map(|i| (names[i % names.len()].to_string(), rand_relation(rng)))
            .collect::<Vec<_>>()
    };
    let views = rng.gen_range(0usize..4);
    WorkerSnapshot {
        views: pick(rng, views),
        stats: WorkerStats {
            blocks_run: rng.next_u64(),
            statements: rng.next_u64(),
            instructions: rng.next_u64(),
            tuples_applied: rng.next_u64(),
            tuples_touched: rng.next_u64(),
        },
    }
}

fn assert_snapshots_bit_equal(
    a: &hotdog_distributed::WorkerSnapshot,
    b: &hotdog_distributed::WorkerSnapshot,
) {
    assert_eq!(a.views.len(), b.views.len(), "view count changed");
    for ((xn, xr), (yn, yr)) in a.views.iter().zip(&b.views) {
        assert_eq!(xn, yn, "view name changed");
        assert_eq!(xr.checksum(), yr.checksum(), "view {xn} bits changed");
        assert!(xr.schema() == yr.schema(), "view {xn} schema changed");
    }
    assert_eq!(a.stats, b.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault-tolerance messages (`Ping`/`Pong`, `Checkpoint`,
    /// `Restore`) round-trip bit-exactly — including snapshots whose
    /// relations carry the adversarial floats — preserving request ids
    /// across the full u64 range (transport-private ping ids live at
    /// `1 << 63` and above).
    #[test]
    fn fault_tolerance_messages_roundtrip(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let id: u64 = match rng.gen_range(0usize..3) {
            0 => rng.next_u64(),
            1 => (1 << 63) | (rng.next_u64() % (1 << 20)),
            _ => u64::MAX,
        };

        match decode_from_slice::<ToWorker>(&encode_to_vec(
            &ToWorker::Request(WorkerRequest::Ping { id }),
        )).unwrap() {
            ToWorker::Request(WorkerRequest::Ping { id: rid }) => prop_assert_eq!(rid, id),
            _ => panic!("wrong variant for Ping"),
        }
        match decode_from_slice::<ToDriver>(&encode_to_vec(
            &ToDriver::Reply(WorkerReply::Pong { id }),
        )).unwrap() {
            ToDriver::Reply(WorkerReply::Pong { id: rid }) => prop_assert_eq!(rid, id),
            _ => panic!("wrong variant for Pong"),
        }

        match decode_from_slice::<ToWorker>(&encode_to_vec(
            &ToWorker::Request(WorkerRequest::Checkpoint { id }),
        )).unwrap() {
            ToWorker::Request(WorkerRequest::Checkpoint { id: rid }) => prop_assert_eq!(rid, id),
            _ => panic!("wrong variant for Checkpoint"),
        }

        let snapshot = rand_snapshot(&mut rng);
        match decode_from_slice::<ToWorker>(&encode_to_vec(
            &ToWorker::Request(WorkerRequest::Restore {
                id,
                snapshot: Box::new(snapshot.clone()),
            }),
        )).unwrap() {
            ToWorker::Request(WorkerRequest::Restore { id: rid, snapshot: s }) => {
                prop_assert_eq!(rid, id);
                assert_snapshots_bit_equal(&snapshot, &s);
            }
            _ => panic!("wrong variant for Restore"),
        }
        match decode_from_slice::<ToDriver>(&encode_to_vec(
            &ToDriver::Reply(WorkerReply::Checkpoint {
                id,
                snapshot: Box::new(snapshot.clone()),
            }),
        )).unwrap() {
            ToDriver::Reply(WorkerReply::Checkpoint { id: rid, snapshot: s }) => {
                prop_assert_eq!(rid, id);
                assert_snapshots_bit_equal(&snapshot, &s);
            }
            _ => panic!("wrong variant for Checkpoint reply"),
        }

        // The O(1) byte accounting stays an under-approximation inside
        // snapshots too: an encoded Restore can only be larger than the
        // summed relation footprints it carries.
        let encoded = encode_to_vec(&ToWorker::Request(WorkerRequest::Restore {
            id,
            snapshot: Box::new(snapshot.clone()),
        }));
        let footprint: usize = snapshot
            .views
            .iter()
            .map(|(_, r)| r.serialized_size())
            .sum();
        prop_assert!(encoded.len() >= footprint);
    }

    /// Every strict prefix of an encoded `Restore` (the largest
    /// fault-tolerance message) is rejected with an error — never a
    /// panic, never a silent partial snapshot.
    #[test]
    fn truncated_restore_frames_are_rejected(seed in 1usize..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let msg = ToWorker::Request(WorkerRequest::Restore {
            id: seed as u64,
            snapshot: Box::new(rand_snapshot(&mut rng)),
        });
        let encoded = encode_to_vec(&msg);
        // Bound the sweep: always the layout-sensitive head and tail,
        // plus a seeded sample of interior cuts.
        let cuts: Vec<usize> = (0..encoded.len().min(24))
            .chain((0..24).map(|_| rng.gen_range(0..encoded.len())))
            .chain(encoded.len().saturating_sub(8)..encoded.len())
            .collect();
        for cut in cuts {
            prop_assert!(
                decode_from_slice::<ToWorker>(&encoded[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                encoded.len()
            );
        }
    }
}

#[test]
fn corrupt_snapshot_frames_are_rejected() {
    // An unknown request tag in place of Restore's must fail cleanly.
    let mut encoded = encode_to_vec(&ToWorker::Request(WorkerRequest::Ping { id: 1 }));
    let tag_pos = 1; // ToWorker tag byte, then the WorkerRequest tag
    encoded[tag_pos] = 0xEE;
    assert!(matches!(
        decode_from_slice::<ToWorker>(&encoded),
        Err(DecodeError::BadTag { .. })
    ));
}

#[test]
fn stats_messages_roundtrip() {
    use hotdog_distributed::{WorkerStats, WorkerStatsSnapshot};

    let req = ToWorker::Request(WorkerRequest::Stats { id: 41 });
    match decode_from_slice::<ToWorker>(&encode_to_vec(&req)).unwrap() {
        ToWorker::Request(WorkerRequest::Stats { id }) => assert_eq!(id, 41),
        _ => panic!("wrong variant"),
    }

    let snapshot = WorkerStatsSnapshot {
        stats: WorkerStats {
            blocks_run: 3,
            statements: 17,
            instructions: u64::MAX, // counters must survive the full range
            tuples_applied: 1 << 40,
            tuples_touched: (1 << 50) + 3,
        },
        cardinalities: vec![("Q".to_string(), 12), ("part_R".to_string(), 0)],
    };
    // Piggybacked spans must survive the wire field-for-field, including
    // the structural ids the oracle compares and the raw micros it
    // ignores: one span per stage of the catalog.
    let spans: Vec<SpanRecord> = (STAGES.iter().zip(1u64..))
        .map(|(&(name, _), seq)| SpanRecord {
            trace: 1,
            id: (2u64 << 32) | seq,
            parent: 1,
            name,
            track: 2,
            start_micros: seq,
            end_micros: if seq == 1 { u64::MAX } else { 0 },
        })
        .collect();
    // A span's layout: trace, id, parent, track, start, end, then the
    // name as a `u32` length and its bytes.
    let first = spans[0];
    let mut layout = Vec::new();
    for word in [first.trace, first.id, first.parent] {
        layout.extend(word.to_le_bytes());
    }
    layout.extend(first.track.to_le_bytes());
    layout.extend(first.start_micros.to_le_bytes());
    layout.extend(first.end_micros.to_le_bytes());
    layout.extend((first.name.len() as u32).to_le_bytes());
    layout.extend(first.name.as_bytes());
    assert_eq!(encode_to_vec(&first), layout);
    let rep = ToDriver::Reply(WorkerReply::Stats {
        id: 42,
        snapshot: snapshot.clone(),
        spans: spans.clone(),
        spans_dropped: 1 << 33,
    });
    let bytes = encode_to_vec(&rep);
    let decoded = decode_from_slice::<ToDriver>(&bytes).unwrap();
    assert_eq!(encode_to_vec(&decoded), bytes, "byte-for-byte");
    match decoded {
        ToDriver::Reply(WorkerReply::Stats {
            id,
            snapshot: s,
            spans: sp,
            spans_dropped,
        }) => {
            assert_eq!(id, 42);
            assert_eq!(s, snapshot);
            assert_eq!(sp, spans);
            assert_eq!(spans_dropped, 1 << 33);
        }
        _ => panic!("wrong variant"),
    }
}
