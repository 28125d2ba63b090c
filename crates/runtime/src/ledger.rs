//! The tagged-reply ledger.  Every driver→worker instruction carries a
//! request id which the worker echoes in its reply.  Each worker runs its
//! commands one at a time and every [`Transport`] returns its replies in
//! the order the commands were sent, so the driver takes a worker's
//! replies in that order and *checks* each id against what it expects
//! instead of looking it up.  The [`ReplyLedger`] keeps, per worker, the
//! ids of the `RunBlock`s whose `Ran` is still owed, oldest first: waiting
//! for any reply settles the completions sent ahead of it, so block
//! completions of the in-flight window settle at the window bound, in
//! fetches and at watermark commits.  Command channels stay FIFO, which
//! keeps every worker's *statement* sequence identical to awaiting every
//! block before issuing the next.
//!
//! [`Driver::await_reply`] is the one function that waits for a tagged
//! reply and [`Driver::round`] the one send-all/await-all loop.

use crate::{Driver, Reply, Request, Transport, WorkerDead};
use std::collections::VecDeque;

/// Request ids and the block completions each worker owes.
pub(crate) struct ReplyLedger {
    /// Monotonic id source, shared across workers: ids are globally unique
    /// and grow in send order, so an id alone identifies a reply and tells
    /// whether it is older than what the driver waits for.
    next_request_id: u64,
    /// Per worker: ids of `RunBlock` requests whose `Ran` is owed, in send
    /// order.
    owed: Vec<VecDeque<u64>>,
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
    pub(crate) fn new(workers: usize) -> Self {
        ReplyLedger {
            next_request_id: 0,
            owed: vec![VecDeque::new(); workers],
        }
    }

    pub(crate) fn fresh_id(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    /// Record that worker `w` owes a `Ran` for the `RunBlock` tagged `id`.
    pub(crate) fn expect_completion(&mut self, w: usize, id: u64) {
        self.owed[w].push_back(id);
    }

    /// Unsettled block completions of worker `w`.
    pub(crate) fn pending(&self, w: usize) -> usize {
        self.owed[w].len()
    }

    /// The id of worker `w`'s oldest owed block completion.
    fn oldest(&self, w: usize) -> Option<u64> {
        self.owed[w].front().copied()
    }

    /// Unsettled block completions across all workers.
    pub(crate) fn pending_total(&self) -> usize {
        self.owed.iter().map(VecDeque::len).sum()
    }

    /// Forget everything owed (recovery: the abandoned epoch's effects are
    /// wiped by the restore, and its late replies are dropped on arrival).
    pub(crate) fn reset(&mut self) {
        self.owed.iter_mut().for_each(VecDeque::clear);
    }
}

impl<T: Transport> Driver<T> {
    /// Block completions issued to workers but not yet settled.
    /// [`Driver::flush`] (and every read) drains this to zero — a flushed
    /// cluster owes its workers nothing.
    pub fn outstanding_replies(&self) -> usize {
        self.ledger.pending_total()
    }

    /// The single driver→worker send chokepoint: counts the message by
    /// kind, then hands it to the transport.
    pub(crate) fn send_to(&mut self, w: usize, request: Request) -> Result<(), WorkerDead> {
        self.metrics.count_request(&request);
        self.transport.send(w, request)
    }

    /// Take worker `w`'s next reply while the one tagged `awaited` is due;
    /// the only consumer of [`Transport::recv`].  Replies arrive in send
    /// order, so each is checked against one rule:
    ///
    /// * a `Ran` for the oldest owed block settles it;
    /// * the awaited reply is returned;
    /// * a reply older than both belongs to a wait that recovery abandoned
    ///   and is dropped uncounted;
    /// * anything else is a protocol violation and panics.
    fn next_reply(&mut self, w: usize, awaited: u64) -> Result<Option<Reply>, WorkerDead> {
        let reply = self.transport.recv(w)?;
        let id = reply_id(&reply);
        let oldest = self.ledger.oldest(w);
        if id < awaited && oldest.is_none_or(|o| id < o) {
            return Ok(None);
        }
        self.metrics.replies_total.inc();
        if matches!(reply, Reply::Ran { .. }) {
            assert_eq!(
                Some(id),
                oldest,
                "worker {w} completed block {id} while {oldest:?} was the oldest it owed"
            );
            self.ledger.owed[w].pop_front();
        } else if id != awaited {
            panic!("worker {w} answered request {id} while request {awaited} was awaited");
        }
        Ok((id == awaited).then_some(reply))
    }

    /// Wait for the reply tagged `id` from worker `w`, settling the block
    /// completions that arrive ahead of it.  `extract` destructures the
    /// variant the caller asked for; a reply of any other variant is a
    /// protocol violation that fails loudly instead of being waited past
    /// forever.
    pub(crate) fn await_reply<R>(
        &mut self,
        w: usize,
        id: u64,
        extract: impl FnOnce(Reply) -> Option<R>,
    ) -> Result<R, WorkerDead> {
        loop {
            if let Some(reply) = self.next_reply(w, id)? {
                return Ok(extract(reply).unwrap_or_else(|| {
                    panic!("worker {w} answered request {id} with the wrong reply variant")
                }));
            }
        }
    }

    /// Block until worker `w`'s oldest owed block completion settles.
    pub(crate) fn await_one_completion(&mut self, w: usize) -> Result<(), WorkerDead> {
        let id = self.ledger.oldest(w).expect("no pending block to await");
        self.await_reply(w, id, |reply| {
            matches!(reply, Reply::Ran { .. }).then_some(())
        })
    }

    /// Settle every pending block completion (all workers) — the full
    /// ledger drain of a watermark commit.
    pub(crate) fn drain_pending_blocks(&mut self) -> Result<(), WorkerDead> {
        for w in 0..self.workers {
            while self.ledger.pending(w) > 0 {
                self.await_one_completion(w)?;
            }
        }
        Ok(())
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
        // Every worker answered behind its shipped applies.
        self.applies_in_flight = false;
        Ok(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::example_dplan;
    use hotdog_algebra::relation::Relation;
    use hotdog_distributed::{OptLevel, WorkerSnapshot, WorkerStatsSnapshot};

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
        fn shutdown(&mut self) {}
    }

    fn scripted(script: Vec<Reply>) -> Driver<Scripted> {
        Driver::with_transport(example_dplan(OptLevel::O3), Scripted(script.into()), None)
    }

    fn ran(id: u64, instructions: u64) -> Reply {
        Reply::Ran { id, instructions }
    }

    #[test]
    fn completions_ahead_of_the_awaited_reply_settle_in_order() {
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
                    spans_dropped: 0,
                },
                |r| matches!(r, Reply::Stats { .. }),
            ),
        ];
        let mut script = vec![ran(1, 10)];
        script.extend(table.iter().map(|(id, make, _)| make(*id)));
        script.insert(3, ran(4, 30));
        script.insert(6, ran(7, 20));
        script.push(ran(9, 5));
        let mut d = scripted(script);
        for id in [1, 4, 7, 9] {
            d.ledger.expect_completion(0, id);
        }
        // Each wait settles exactly the completions sent ahead of it.
        let owed_after = [3, 3, 2, 2, 1];
        for ((id, _, is_kind), owed) in table.iter().zip(owed_after) {
            let reply = d.await_reply(0, *id, Some).expect("scripted reply");
            assert_eq!(reply_id(&reply), *id);
            assert!(is_kind(&reply), "request {id} got another variant");
            assert_eq!(d.outstanding_replies(), owed, "after request {id}");
        }
        d.drain_pending_blocks().expect("trailing completion");
        assert_eq!(d.outstanding_replies(), 0);
        assert_eq!(d.metrics.replies_total.get(), 9);
    }

    #[test]
    #[should_panic(expected = "while request 2 was awaited")]
    fn a_reply_newer_than_the_awaited_one_fails_loudly() {
        let mut d = scripted(vec![Reply::Ack { id: 3 }]);
        let _ = d.await_reply(0, 2, Some);
    }

    #[test]
    #[should_panic(expected = "was the oldest it owed")]
    fn a_completion_that_skips_the_oldest_owed_block_fails_loudly() {
        let mut d = scripted(vec![ran(2, 1)]);
        d.ledger.expect_completion(0, 1);
        d.ledger.expect_completion(0, 2);
        let _ = d.await_one_completion(0);
    }

    #[test]
    fn replies_older_than_everything_owed_are_dropped_uncounted() {
        // Block 1 and fetch 3 belong to an epoch recovery abandoned; their
        // replies still arrive, ahead of the new epoch's block 5 and fetch 6.
        let stale_rel = Reply::Rel {
            id: 3,
            rel: Relation::default(),
        };
        let fresh_rel = Reply::Rel {
            id: 6,
            rel: Relation::default(),
        };
        let mut d = scripted(vec![ran(1, 40), stale_rel, ran(5, 7), fresh_rel]);
        d.ledger.expect_completion(0, 1);
        d.ledger.reset();
        d.ledger.expect_completion(0, 5);
        let reply = d.await_reply(0, 6, Some).expect("scripted reply");
        assert_eq!(reply_id(&reply), 6);
        assert_eq!(d.outstanding_replies(), 0);
        assert_eq!(d.metrics.replies_total.get(), 2, "stale replies counted");
    }

    #[test]
    #[should_panic(expected = "wrong reply variant")]
    fn a_reply_of_the_wrong_variant_fails_loudly() {
        let mut d = scripted(vec![Reply::Ack { id: 1 }]);
        let _ = d.await_reply(0, 1, |r| match r {
            Reply::Rel { rel, .. } => Some(rel),
            _ => None,
        });
    }
}
