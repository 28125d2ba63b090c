//! The tagged-reply ledger.  Every driver→worker instruction carries a
//! request id which the worker echoes in its reply; the [`ReplyLedger`]
//! keeps, per worker, the ids of unsettled `RunBlock`s and an inbox of
//! replies nobody has claimed yet.  Replies are matched by *identity*,
//! never by channel position, so a fetch waits only for its own ids while
//! block completions of the in-flight window settle whenever they arrive —
//! at the window bound, opportunistically, and at watermark commits.
//! Command channels stay FIFO, which keeps every worker's *statement*
//! sequence identical to the synchronous schedule.
//!
//! [`Driver::await_reply`] is the one function that waits for a tagged
//! reply and [`Driver::round`] the one send-all/await-all loop.

use crate::{Driver, Reply, Request, Transport, WorkerDead};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

/// Request ids, unsettled block completions and unclaimed replies.
pub(crate) struct ReplyLedger {
    /// Monotonic id source, shared across workers: ids are globally unique,
    /// so an id alone identifies a reply and a ledger mismatch is loud.
    next_request_id: u64,
    /// Per worker: ids of `RunBlock` requests whose `Ran` has not settled.
    pending_blocks: Vec<HashSet<u64>>,
    /// Per worker: replies received but not yet consumed (the stash that
    /// makes reply *consumption* independent of arrival order).
    inbox: Vec<Vec<Reply>>,
    /// Seeded inbox shuffler
    /// ([`PipelineConfig::shuffle_replies`](crate::PipelineConfig::shuffle_replies)).
    shuffle: Option<StdRng>,
}

fn reply_id(reply: &Reply) -> u64 {
    match reply {
        Reply::Ran { id, .. }
        | Reply::Rel { id, .. }
        | Reply::Ack { id }
        | Reply::Stats { id, .. }
        | Reply::Pong { id }
        | Reply::Checkpoint { id, .. }
        | Reply::Captured { id, .. } => *id,
    }
}

impl ReplyLedger {
    pub(crate) fn new(workers: usize, shuffle_seed: Option<u64>) -> Self {
        ReplyLedger {
            next_request_id: 0,
            pending_blocks: vec![HashSet::new(); workers],
            inbox: (0..workers).map(|_| Vec::new()).collect(),
            shuffle: shuffle_seed.map(StdRng::seed_from_u64),
        }
    }

    pub(crate) fn fresh_id(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    /// Record that worker `w` owes a `Ran` for the `RunBlock` tagged `id`.
    pub(crate) fn expect_completion(&mut self, w: usize, id: u64) {
        self.pending_blocks[w].insert(id);
    }

    /// Unsettled block completions of worker `w`.
    pub(crate) fn pending(&self, w: usize) -> usize {
        self.pending_blocks[w].len()
    }

    /// Unsettled block completions across all workers.
    pub(crate) fn pending_total(&self) -> usize {
        self.pending_blocks.iter().map(HashSet::len).sum()
    }

    /// Unsettled completions plus unclaimed replies.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending_total() + self.inbox.iter().map(Vec::len).sum::<usize>()
    }

    /// Stash one received reply.  Under the shuffle chaos knob the inbox is
    /// re-shuffled on every arrival, so consumers can never rely on
    /// position — only on request ids.
    fn stash(&mut self, w: usize, reply: Reply) {
        let inbox = &mut self.inbox[w];
        inbox.push(reply);
        if let Some(rng) = self.shuffle.as_mut() {
            for i in (1..inbox.len()).rev() {
                let j = rng.gen_range(0..=i);
                inbox.swap(i, j);
            }
        }
    }

    /// Remove the stashed reply tagged `id`, if it has arrived.
    fn take(&mut self, w: usize, id: u64) -> Option<Reply> {
        let pos = self.inbox[w].iter().position(|r| reply_id(r) == id)?;
        Some(self.inbox[w].swap_remove(pos))
    }

    /// Settle every block completion in worker `w`'s inbox against its
    /// pending ids, reporting each one's interpreter work.  Replies awaited
    /// by someone else stay stashed.
    fn settle(&mut self, w: usize, mut settled: impl FnMut(u64)) {
        let mut i = 0;
        while i < self.inbox[w].len() {
            if let Reply::Ran { id, instructions } = self.inbox[w][i] {
                self.inbox[w].swap_remove(i);
                assert!(
                    self.pending_blocks[w].remove(&id),
                    "completion for request id {id} not in worker {w}'s ledger"
                );
                settled(instructions);
            } else {
                i += 1;
            }
        }
    }

    /// Forget everything owed and everything stashed (recovery: the
    /// abandoned epoch's effects are wiped by the restore).
    pub(crate) fn reset(&mut self) {
        self.pending_blocks.iter_mut().for_each(HashSet::clear);
        self.inbox.iter_mut().for_each(Vec::clear);
    }
}

impl<T: Transport> Driver<T> {
    /// Size of the request-id ledger: block completions issued to workers
    /// but not yet settled, plus replies stashed unconsumed in the
    /// driver's inbox.  [`Driver::flush`] (and every read) drains this to
    /// zero — a flushed cluster owes its workers nothing.
    pub fn outstanding_replies(&self) -> usize {
        self.ledger.outstanding()
    }

    /// The single driver→worker send chokepoint: counts the message by
    /// kind, then hands it to the transport.
    pub(crate) fn send_to(&mut self, w: usize, request: Request) -> Result<(), WorkerDead> {
        self.metrics.count_request(&request);
        self.transport.send(w, request)
    }

    fn stash_reply(&mut self, w: usize, reply: Reply) {
        self.metrics.replies_total.inc();
        self.ledger.stash(w, reply);
    }

    /// Block for one more reply from worker `w` and stash it.
    fn recv_one(&mut self, w: usize) -> Result<(), WorkerDead> {
        let reply = self.transport.recv(w)?;
        self.stash_reply(w, reply);
        Ok(())
    }

    /// Settle the block completions stashed for worker `w`, folding the
    /// reported interpreter work into the stats.
    fn settle_completions(&mut self, w: usize) {
        self.ledger.settle(w, |instructions| {
            self.stats.max_worker_instructions =
                self.stats.max_worker_instructions.max(instructions);
            self.batch_max_instructions = self.batch_max_instructions.max(instructions);
        });
    }

    /// Opportunistically settle whatever completions have already arrived
    /// from worker `w` (non-blocking).
    pub(crate) fn settle_ready(&mut self, w: usize) -> Result<(), WorkerDead> {
        while let Some(reply) = self.transport.try_recv(w)? {
            self.stash_reply(w, reply);
        }
        self.settle_completions(w);
        Ok(())
    }

    /// Block until at least one of worker `w`'s pending block ids settles.
    pub(crate) fn await_one_completion(&mut self, w: usize) -> Result<(), WorkerDead> {
        let before = self.ledger.pending(w);
        debug_assert!(before > 0, "no pending block to await");
        self.settle_ready(w)?;
        while self.ledger.pending(w) >= before {
            self.recv_one(w)?;
            self.settle_completions(w);
        }
        Ok(())
    }

    /// Settle every pending block completion (all workers) — the full
    /// ledger drain used by watermark commits and epoch barriers.
    pub(crate) fn drain_pending_blocks(&mut self) -> Result<(), WorkerDead> {
        for w in 0..self.workers {
            while self.ledger.pending(w) > 0 {
                self.await_one_completion(w)?;
            }
        }
        Ok(())
    }

    /// Wait for the reply tagged `id` from worker `w`, settling any block
    /// completions that arrive (or were shuffled) ahead of it.  The id
    /// alone identifies the reply; `extract` destructures the variant the
    /// caller asked for, and a reply of any other variant is a protocol
    /// violation that fails loudly instead of being waited past forever.
    pub(crate) fn await_reply<R>(
        &mut self,
        w: usize,
        id: u64,
        extract: impl FnOnce(Reply) -> Option<R>,
    ) -> Result<R, WorkerDead> {
        loop {
            self.settle_completions(w);
            if let Some(reply) = self.ledger.take(w, id) {
                return Ok(extract(reply).unwrap_or_else(|| {
                    panic!("worker {w} answered request {id} with the wrong reply variant")
                }));
            }
            self.recv_one(w)?;
        }
    }

    /// One protocol round: send `make(id)` to *every* worker (behind its
    /// buffered scatter shards, so the worker installs them first), then
    /// await the tagged replies in worker order — the order every merge
    /// relies on for float accumulation identical on every transport.
    pub(crate) fn round<R>(
        &mut self,
        make: impl Fn(u64) -> Request,
        extract: impl Fn(Reply) -> Option<R>,
    ) -> Result<Vec<R>, WorkerDead> {
        let mut ids = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            self.ship_applies(w)?;
            let id = self.ledger.fresh_id();
            self.send_to(w, make(id))?;
            ids.push(id);
        }
        let mut replies = Vec::with_capacity(self.workers);
        for (w, id) in ids.into_iter().enumerate() {
            replies.push(self.await_reply(w, id, &extract)?);
        }
        Ok(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::example_dplan;
    use crate::{PipelineConfig, TransportNames};
    use hotdog_algebra::relation::Relation;
    use hotdog_distributed::{OptLevel, WorkerSnapshot, WorkerStatsSnapshot};
    use std::collections::VecDeque;

    /// A one-worker transport whose replies are scripted up front; reading
    /// past the script is a worker death, so an over-eager `recv` fails
    /// the test instead of hanging it.
    struct Scripted(VecDeque<Reply>);

    impl Transport for Scripted {
        fn workers(&self) -> usize {
            1
        }
        fn send(&mut self, _: usize, _: Request) -> Result<(), WorkerDead> {
            Ok(())
        }
        fn recv(&mut self, w: usize) -> Result<Reply, WorkerDead> {
            self.0.pop_front().ok_or(WorkerDead {
                index: w,
                reason: "script exhausted".to_string(),
            })
        }
        fn try_recv(&mut self, _: usize) -> Result<Option<Reply>, WorkerDead> {
            Ok(None)
        }
        fn shutdown(&mut self) {}
        fn names(&self) -> TransportNames {
            TransportNames {
                sync: "scripted",
                pipelined: "scripted",
            }
        }
    }

    fn scripted(seed: u64, script: Vec<Reply>) -> Driver<Scripted> {
        Driver::with_transport(
            example_dplan(OptLevel::O3),
            Scripted(script.into()),
            Some(PipelineConfig::default().with_shuffled_replies(seed)),
        )
    }

    #[test]
    fn await_reply_matches_by_id_whatever_the_arrival_order() {
        // One reply of each awaited kind, `Ran` completions interleaved.
        type Row = (u64, fn(u64) -> Reply, fn(&Reply) -> bool);
        let table: [Row; 5] = [
            (
                2,
                |id| Reply::Rel {
                    id,
                    rel: Relation::default(),
                },
                |r| matches!(r, Reply::Rel { .. }),
            ),
            (
                3,
                |id| Reply::Ack { id },
                |r| matches!(r, Reply::Ack { .. }),
            ),
            (
                5,
                |id| Reply::Checkpoint {
                    id,
                    snapshot: Box::new(WorkerSnapshot::default()),
                },
                |r| matches!(r, Reply::Checkpoint { .. }),
            ),
            (
                6,
                |id| Reply::Captured {
                    id,
                    ops: Vec::new(),
                },
                |r| matches!(r, Reply::Captured { .. }),
            ),
            (
                8,
                |id| Reply::Stats {
                    id,
                    snapshot: WorkerStatsSnapshot::default(),
                    spans: Vec::new(),
                },
                |r| matches!(r, Reply::Stats { .. }),
            ),
        ];
        let ran = |id, instructions| Reply::Ran { id, instructions };
        for seed in [1u64, 0xC0FFEE, 977] {
            let mut script = vec![ran(1, 10)];
            script.extend(table.iter().map(|(id, make, _)| make(*id)));
            script.insert(3, ran(4, 30));
            script.insert(6, ran(7, 20));
            script.push(ran(9, 5));
            let mut d = scripted(seed, script);
            for id in [1, 4, 7, 9] {
                d.ledger.expect_completion(0, id);
            }
            // Awaiting the last tagged reply first pulls everything ahead
            // of it into the (shuffled) inbox; the `Ran`s that overtook it
            // settle, the other replies wait there for their own callers.
            for (id, _, is_kind) in table.iter().rev() {
                let reply = d.await_reply(0, *id, Some).expect("scripted reply");
                assert_eq!(reply_id(&reply), *id, "seed {seed}");
                assert!(is_kind(&reply), "request {id} got another variant");
            }
            assert_eq!(d.ledger.pending(0), 1, "only the trailing Ran is owed");
            assert_eq!(d.outstanding_replies(), 1);
            d.drain_pending_blocks().expect("trailing completion");
            assert_eq!(d.outstanding_replies(), 0);
            assert_eq!(d.stats.max_worker_instructions, 30);
        }
    }

    #[test]
    #[should_panic(expected = "wrong reply variant")]
    fn a_reply_of_the_wrong_variant_fails_loudly() {
        let mut d = scripted(7, vec![Reply::Ack { id: 1 }]);
        let _ = d.await_reply(0, 1, |r| match r {
            Reply::Rel { rel, .. } => Some(rel),
            _ => None,
        });
    }
}
