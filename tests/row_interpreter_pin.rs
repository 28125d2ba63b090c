//! Bit-for-bit pin of trigger execution against the row interpreter
//! (`hotdog_algebra::eval::Evaluator`).
//!
//! Every catalog query that had a trigger statement the vectorizer refused
//! (`hotdog_exec::vectorized::compile` returned `None`) when this table was
//! first recorded streams a fixed seeded workload with deletions through
//! the batched [`LocalEngine`].  The table was recorded with those
//! statements on the row interpreter; they now run on the columnar one,
//! which must reproduce the same recorded top-view checksum, a digest over
//! the checksums of every materialized view (most top views of these small
//! streams are empty; the auxiliary views are not) and the recorded summed
//! [`EvalCounters`] exactly.
//!
//! Maintenance multiplies integer multiplicities by at most one fractional
//! value term per path, where any association of the product rounds the
//! same.  A third arm therefore re-evaluates each query from scratch with
//! the row interpreter over the accumulated stream, every tuple's
//! multiplicity scaled by a non-dyadic weight: a join path then multiplies
//! several fractional factors, and re-associating any of them changes
//! result bits.
//!
//! The table was recorded from the interpreter as it stood before its
//! allocation-free rewrite; any change to emission order, float operation
//! order or counter accounting changes a digest or a counter and fails
//! here.  A deliberate change re-records the table from the failure
//! message, which prints it in full.  The counters of the queries whose
//! plans gained per-batch temps were re-recorded so; their checksums and
//! digests did not move.  `tuples_touched` is the one counter where the
//! interpreters differ (see [`EvalCounters`]): a columnar scan of an
//! unconstrained nested reference runs once per statement, not once per
//! row.  Q11's fell so (13 529 → 3 313), when its nested batch total
//! `Sum_[](ΔPARTSUPP(…) * …)` moved off the row interpreter.  Q11's
//! counters were re-recorded once more when that uncorrelated batch total
//! became a per-batch temp, computed once per batch rather than once per
//! row of the batch domain; its checksum and digest did not move.  The
//! emissions of Q11, Q15, Q17, Q18 and Q20 were re-recorded when domain
//! guards stopped carrying value terms (a guard is a 0/1 filter, so
//! `Exists(Sum_[OK](Exists(ΔLINEITEM(…)) * [qty]))` lost its `[qty]`);
//! every checksum, digest and other counter stayed.

use hotdog::algebra::EvalCounters;
use hotdog::prelude::*;
use hotdog::workload::Workload;
use std::fmt::Write as _;

/// Tuples generated per query before deletions are added (both arms).
const TUPLES: usize = 1_500;
/// Stream seed (generation and deletions).
const SEED: u64 = 0x9177;
/// Fraction of insertions later deleted.
const DELETIONS: f64 = 0.25;
/// Tuples per stream batch.
const BATCH: usize = 64;

/// The pinned queries: those that had a statement the vectorizer refused
/// when the table was first recorded.
const PINNED_QUERIES: &[&str] = &[
    "Q2", "Q4", "Q11", "Q13", "Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q21", "Q22", "DS34",
];

/// One recorded run: the top view's checksum (tuples, digest), the digest
/// over every view's checksum, and the summed counters
/// `[scans, lookups, slices, tuples_visited, emissions, tuples_touched]`.
type Pin = (usize, u64, u64, [u64; 6]);

/// One recorded re-evaluation: the result's checksum and the counters.
type Reeval = (usize, u64, [u64; 6]);

/// `(query, pin)`.
#[rustfmt::skip]
const PINS: &[(&str, Pin)] = &[
    ("Q2", (0, 0xcbf29ce484222325, 0xdf01c82eb64e1557, [802, 959, 734, 2231, 341, 2297])),
    ("Q4", (4, 0xbbdf9d0740a58627, 0xe5fb8905d5912d90, [150, 3145, 1888, 7021, 9613, 4501])),
    ("Q11", (34, 0x32334b5c1cdb8dd2, 0x529b25854a7149a7, [4980, 8074, 0, 15535, 20863, 3204])),
    ("Q13", (1, 0x1fbf116435bd8cfc, 0x0bf71d2973f175e7, [138, 1104, 0, 1820, 2243, 997])),
    ("Q15", (1, 0x35f65868a0c4237d, 0x81a0a7f545db1231, [96, 228, 0, 3990, 3655, 3807])),
    ("Q16", (22, 0xca0ddffc3e36e9de, 0x5e59adee2aa7b8dd, [183, 112, 418, 879, 601, 870])),
    ("Q17", (0, 0xcbf29ce484222325, 0xd0749964bc1448be, [534, 27188, 4480, 36617, 19244, 18774])),
    ("Q18", (0, 0xcbf29ce484222325, 0xa1295d49aad44384, [516, 10655, 9405, 28297, 16365, 19249])),
    ("Q19", (0, 0xcbf29ce484222325, 0xb6f7bb094c6e66e1, [348, 3801, 114, 8194, 4782, 8194])),
    ("Q20", (0, 0xcbf29ce484222325, 0xe62a7bf0005b4fed, [364, 1177, 457, 5296, 6024, 4928])),
    ("Q21", (0, 0xcbf29ce484222325, 0x8b4ff00c8911247d, [582, 13937, 11346, 31178, 20629, 29678])),
    ("Q22", (0, 0xcbf29ce484222325, 0x6c44a17eb0113d71, [138, 836, 538, 1894, 1706, 1119])),
    ("DS34", (0, 0xcbf29ce484222325, 0x50c737eb598ff41d, [239, 18000, 3100, 21209, 13905, 14385])),
];

/// `(query, weighted re-evaluation)`.
#[rustfmt::skip]
const REEVAL_PINS: &[(&str, Reeval)] = &[
    ("Q2", (0, 0xcbf29ce484222325, [1, 0, 0, 28, 0, 0])),
    ("Q4", (4, 0x775bfe9237a2b633, [1, 0, 12, 232, 214, 0])),
    ("Q11", (33, 0x6cb081cf512a1661, [35, 0, 34, 3708, 3840, 0])),
    ("Q13", (1, 0xb9a78954f4dfa054, [1, 0, 19, 159, 142, 0])),
    ("Q15", (1, 0x41bacc2886f88aa1, [1, 0, 1, 372, 180, 0])),
    ("Q16", (22, 0xc865645f84b276a7, [1, 0, 97, 143, 119, 0])),
    ("Q17", (0, 0xcbf29ce484222325, [1, 0, 783, 1430, 0, 0])),
    ("Q18", (10, 0xbee557f573af7e0d, [1, 0, 590, 2401, 2380, 0])),
    ("Q19", (0, 0xcbf29ce484222325, [3, 0, 2349, 4290, 126, 0])),
    ("Q20", (0, 0xcbf29ce484222325, [1, 0, 0, 1, 0, 0])),
    ("Q21", (0, 0xcbf29ce484222325, [1, 0, 0, 1, 0, 0])),
    ("Q22", (0, 0xcbf29ce484222325, [1, 0, 8, 70, 16, 0])),
    ("DS34", (0, 0xcbf29ce484222325, [1, 0, 953, 1290, 0, 0])),
];

fn counters(c: &EvalCounters) -> [u64; 6] {
    [
        c.scans,
        c.lookups,
        c.slices,
        c.tuples_visited,
        c.emissions,
        c.tuples_touched,
    ]
}

fn stream(q: &CatalogQuery) -> UpdateStream {
    match q.workload {
        Workload::TpcH => generate_tpch(SEED, TUPLES),
        Workload::TpcDs => generate_tpcds(SEED, TUPLES),
    }
    .with_deletions(SEED, DELETIONS)
}

fn run(q: &CatalogQuery) -> Pin {
    let stream = stream(q);
    let plan = compile(q.id, &q.expr, Strategy::RecursiveIvm);
    let mut engine = LocalEngine::new(
        plan,
        ExecMode::Batched {
            preaggregate: false,
        },
    );
    for batch in stream.batches(BATCH) {
        for (rel, delta) in batch {
            engine.apply_batch(rel, &delta);
        }
    }
    let views = engine.plan().views.iter().fold(0u64, |h, v| {
        let cs = engine.view_contents(&v.name).checksum();
        (h ^ cs.digest ^ cs.tuples as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let top = engine.query_result().checksum();
    (top.tuples, top.digest, views, counters(&engine.totals.eval))
}

fn reevaluate(q: &CatalogQuery) -> Reeval {
    let mut catalog = MapCatalog::new();
    for (name, rel) in stream(q).accumulate() {
        let weighted = rel
            .sorted()
            .into_iter()
            .enumerate()
            .map(|(i, (t, m))| (t, m * (1.0 + (i % 13) as f64 / 7.0)));
        let rel = Relation::from_pairs(rel.schema().clone(), weighted);
        catalog.insert(name, RelKind::Base, rel);
    }
    let mut ev = Evaluator::new(&catalog);
    let cs = ev.eval(&q.expr).checksum();
    (cs.tuples, cs.digest, counters(&ev.counters))
}

#[test]
fn row_interpreter_results_and_counters_are_pinned() {
    let queries: Vec<CatalogQuery> = PINNED_QUERIES.iter().map(|id| query(id).unwrap()).collect();
    let pins: Vec<Pin> = queries.iter().map(run).collect();
    let mut table = String::new();
    for (id, p) in PINNED_QUERIES.iter().zip(&pins) {
        writeln!(
            table,
            "    ({id:?}, ({}, 0x{:016x}, 0x{:016x}, {:?})),",
            p.0, p.1, p.2, p.3
        )
        .unwrap();
    }
    let got: Vec<(&str, Pin)> = PINNED_QUERIES.iter().copied().zip(pins).collect();
    assert_eq!(
        got.as_slice(),
        PINS,
        "trigger execution drifted from the pinned table; current table:\n{table}"
    );
    let reeval: Vec<Reeval> = queries.iter().map(reevaluate).collect();
    let mut table = String::new();
    for (id, e) in PINNED_QUERIES.iter().zip(&reeval) {
        writeln!(table, "    ({id:?}, ({}, 0x{:016x}, {:?})),", e.0, e.1, e.2).unwrap();
    }
    let got_reeval: Vec<(&str, Reeval)> = PINNED_QUERIES.iter().copied().zip(reeval).collect();
    assert_eq!(
        got_reeval.as_slice(),
        REEVAL_PINS,
        "re-evaluation drifted from the pinned table; current table:\n{table}"
    );
}
