//! A TCP worker compiles its programs from the query its `Init` names,
//! once, and commands name statements by position in them.  A `RunBlock`
//! or `ApplyMany` naming a position the programs do not hold, an `Init`
//! whose query lowers to a statement that does not compile, or one whose
//! digest differs from the worker's own compile must end `serve` with
//! `InvalidData` — never a panic on an index or in the interpreter — and
//! the driver must see the closed connection as a typed `WorkerDead`.

use hotdog_algebra::expr::{join, rel, sum, Expr};
use hotdog_distributed::protocol::{WorkerReply, WorkerRequest};
use hotdog_distributed::StmtMode;
use hotdog_distributed::{compile_distributed, DistributedPlan, OptLevel, PartitioningSpec};
use hotdog_ivm::compile_recursive;
use hotdog_net::codec::{decode_from_slice, DecodeError, Init, ToDriver, ToWorker};
use hotdog_net::{encode_to_vec, recv_msg, serve, write_frame};
use hotdog_net::{TcpConfig, TcpTransport, WorkerSpawn};
use hotdog_runtime::Transport;
use hotdog_telemetry::SpanContext;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::thread;

fn dplan() -> DistributedPlan {
    compiled(sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"]))))
}

fn compiled(query: Expr) -> DistributedPlan {
    let plan = compile_recursive("Q", &query);
    let spec = PartitioningSpec::heuristic(&plan, &["A"]);
    compile_distributed(&plan, &spec, OptLevel::O3)
}

/// `[0x41][0x00][id][trace][parent][program][block]`, by hand.
fn run_block_frame(id: u64, program: u32, block: u32) -> Vec<u8> {
    let mut f = vec![0x41, 0x00];
    f.extend_from_slice(&id.to_le_bytes());
    f.extend_from_slice(&[0; 16]); // no trace context
    f.extend_from_slice(&program.to_le_bytes());
    f.extend_from_slice(&block.to_le_bytes());
    f
}

/// `[0x41][0x01][id][trace][parent]`, one shard at `(program, block,
/// statement)`: an empty relation over no columns.
fn apply_many_frame(id: u64, at: (u32, u32, u32)) -> Vec<u8> {
    let mut f = vec![0x41, 0x01];
    f.extend_from_slice(&id.to_le_bytes());
    f.extend_from_slice(&[0; 16]);
    f.extend_from_slice(&1u32.to_le_bytes()); // one shard
    for i in [at.0, at.1, at.2] {
        f.extend_from_slice(&i.to_le_bytes());
    }
    f.extend_from_slice(&[0; 8]); // schema of 0 columns, 0 rows
    f
}

/// The first distributed block of the plan, which a valid `RunBlock` may
/// name.
fn distributed_block(dplan: &DistributedPlan) -> (u32, u32) {
    for (p, program) in dplan.programs.iter().enumerate() {
        if let Some(b) = program
            .blocks
            .iter()
            .position(|b| b.mode == StmtMode::Distributed)
        {
            return (p as u32, b as u32);
        }
    }
    panic!("plan has no distributed block");
}

/// Run `serve` against a hand-driven driver end: `Hello` in, `init` out,
/// then whatever `frames` exchanges.  Returns what `serve` returned.
fn serve_with(
    init: Init,
    frames: impl FnOnce(&mut TcpStream, &mut BufReader<TcpStream>) -> io::Result<()>,
) -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let worker = thread::spawn(move || serve(TcpStream::connect(addr)?, 0));
    let (mut stream, _) = listener.accept()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    assert!(matches!(
        recv_msg::<ToDriver>(&mut reader)?,
        ToDriver::Hello { index: 0 }
    ));
    write_frame(&mut stream, &encode_to_vec(&ToWorker::Init(init)))?;
    frames(&mut stream, &mut reader)?;
    worker.join().expect("serve must not panic")
}

/// Run `serve` with a valid `Init`, one valid `RunBlock` (answered with
/// `Ran`), then `bad`.  Returns what `serve` returned.
fn serve_then(bad: Vec<u8>) -> io::Result<()> {
    let dplan = dplan();
    let (p, b) = distributed_block(&dplan);
    serve_with(Init::of(&dplan), |stream, reader| {
        write_frame(stream, &run_block_frame(1, p, b))?;
        assert!(matches!(
            recv_msg::<ToDriver>(reader)?,
            ToDriver::Reply(WorkerReply::Ran { id: 1, .. })
        ));
        write_frame(stream, &bad)
    })
}

#[test]
fn hand_encoded_frames_match_the_codec() {
    let ctx = SpanContext::NONE;
    let run = WorkerRequest::RunBlock {
        id: 7,
        ctx,
        program: 2,
        block: 3,
    };
    assert_eq!(
        run_block_frame(7, 2, 3),
        encode_to_vec(&ToWorker::Request(run))
    );
    let apply = WorkerRequest::ApplyMany {
        id: 8,
        ctx,
        applies: vec![((4, 5, 6), Default::default())],
    };
    assert_eq!(
        apply_many_frame(8, (4, 5, 6)),
        encode_to_vec(&ToWorker::Request(apply))
    );
}

/// A hostile `Init`: a query grouping by a column its body never binds,
/// shipped with its true digest.  The compiler lowers it, and the worker
/// rejects the lowered statement at install, before any `RunBlock` could
/// reach it.
#[test]
fn serve_rejects_an_init_whose_statement_does_not_compile() {
    let init = Init::of(&compiled(sum(["Z"], rel("R", ["A", "B"]))));
    let err = serve_with(init, |_, _| Ok(())).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("Sum_[Z]"), "{err}");
}

/// An `Init` whose digest is not what the worker's own compile of the
/// query gives — a driver built from other sources — is refused, and the
/// error names both digests.
#[test]
fn serve_rejects_an_init_whose_digest_differs() {
    let mut init = Init::of(&dplan());
    let ours = init.digest;
    init.digest ^= 1;
    let theirs = init.digest;
    let err = serve_with(init, |_, _| Ok(())).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    for digest in [ours, theirs] {
        assert!(msg.contains(&format!("{digest:016x}")), "{msg}");
    }
}

/// An `Init` whose query is a million nested `Exists` is refused with a
/// typed error when its nesting passes the codec's bound, instead of
/// recursing until the decoding thread's stack overflows.
#[test]
fn an_init_nested_past_the_bound_is_a_decode_error() {
    let mut frame = vec![0x40];
    frame.extend(1u32.to_le_bytes());
    frame.push(b'Q');
    frame.extend(std::iter::repeat_n(0x09, 1_000_000));
    assert!(matches!(
        decode_from_slice::<ToWorker>(&frame),
        Err(DecodeError::TooDeep)
    ));
}

#[test]
fn serve_rejects_run_block_outside_its_programs() {
    let programs = dplan().program_blocks();
    let p = programs.len() as u32;
    let b = programs[0].len() as u32;
    for (program, block) in [(p, 0), (0, b), (u32::MAX, u32::MAX)] {
        let err = serve_then(run_block_frame(2, program, block)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}

#[test]
fn serve_rejects_apply_many_outside_its_programs() {
    let programs = dplan().program_blocks();
    let s = programs[0][0].len() as u32;
    for at in [
        (0, 0, s),
        (0, programs[0].len() as u32, 0),
        (u32::MAX, 0, 0),
    ] {
        let err = serve_then(apply_many_frame(2, at)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}

#[test]
fn driver_sees_worker_dead_after_an_unknown_position() {
    let dplan = dplan();
    let config = TcpConfig::with_workers(2).with_spawn(WorkerSpawn::Thread);
    let bad_run = WorkerRequest::RunBlock {
        id: 1,
        ctx: SpanContext::NONE,
        program: 99,
        block: 0,
    };
    let bad_apply = WorkerRequest::ApplyMany {
        id: 1,
        ctx: SpanContext::NONE,
        applies: vec![((0, 99, 0), Default::default())],
    };
    for bad in [bad_run, bad_apply] {
        let mut transport = TcpTransport::connect(&dplan, &config).unwrap();
        transport.send(1, bad).unwrap();
        // `ApplyMany` has no reply of its own: a barrier behind it waits
        // on the worker either way.
        let _ = transport.send(1, WorkerRequest::Barrier { id: 2 });
        match transport.recv(1) {
            Err(dead) => assert_eq!(dead.index, 1),
            Ok(_) => panic!("worker 1 must die, not reply"),
        }
        // The other worker is unaffected.
        transport.send(0, WorkerRequest::Barrier { id: 3 }).unwrap();
        assert!(matches!(transport.recv(0), Ok(WorkerReply::Ack { id: 3 })));
    }
}
