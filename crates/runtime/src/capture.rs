//! Delta capture (the subscription layer's backend hook): enabling capture
//! arms every node's statement log; draining commits the watermark first,
//! so a capture batch never precedes its batches' watermark commit, then
//! collects the logs over one `TakeCaptured` round.  Part order mirrors
//! `view_contents` exactly, which makes client-side replay bit-identical
//! to a snapshot read.  `capture_epoch` is `recoveries` as of the last
//! drain: when they diverge a recovery replayed the stream, and the next
//! drain resynchronizes from snapshots — no gaps, no duplicates.

use crate::{Driver, Reply, Request, Transport, WorkerDead};
use hotdog_distributed::{assemble_views, CaptureBatch, CapturedView};
use hotdog_ivm::StmtOp;

impl<T: Transport> Driver<T> {
    /// Enable capture for `views` on every node, replacing any previous
    /// capture set and discarding its pending log.  An empty slice
    /// disables capture.
    pub fn enable_capture(&mut self, views: &[String]) {
        self.capture_views = views.to_vec();
        self.capture_epoch = self.recoveries;
        self.with_recovery(Self::broadcast_set_capture)
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"));
    }

    /// Synchronize to a committed batch boundary, then drain every node's
    /// capture log into one watermark-stamped batch.
    pub fn take_captured(&mut self) -> CaptureBatch {
        self.try_take_captured()
            .unwrap_or_else(|dead| panic!("{dead} (recovery unavailable)"))
    }

    /// Fallible [`Driver::take_captured`]: surfaces an unrecovered worker
    /// death instead of panicking.
    pub fn try_take_captured(&mut self) -> Result<CaptureBatch, WorkerDead> {
        self.with_recovery(Self::take_captured_inner)
    }

    /// Arm (or re-arm) capture on every node for the current capture set,
    /// discarding any pending logs.
    fn broadcast_set_capture(&mut self) -> Result<(), WorkerDead> {
        let views = self.capture_views.clone();
        self.driver.set_capture(views.iter().cloned());
        self.round(
            |id| Request::SetCapture {
                id,
                views: views.clone(),
            },
            |reply| matches!(reply, Reply::Ack { .. }).then_some(()),
        )?;
        Ok(())
    }

    fn take_captured_inner(&mut self) -> Result<CaptureBatch, WorkerDead> {
        // Watermark consistency: every queued delta executes and every
        // in-flight apply settles before the logs are drained, so the
        // batch covers exactly the committed prefix.
        self.drain_queue()?;
        self.commit_watermark()?;
        let views = self.capture_views.clone();
        if self.capture_epoch != self.recoveries {
            // A recovery cycle replayed the stream since the last drain:
            // the logs hold replayed (duplicate) entries and a respawned
            // worker's log may be missing entirely.  Discard the logs,
            // re-arm capture, and hand subscribers a full-snapshot resync
            // (one `SetTo` per part).
            self.capture_epoch = self.recoveries;
            self.broadcast_set_capture()?;
            let mut assembled = Vec::with_capacity(views.len());
            for name in views {
                let parts = self
                    .read_view_parts(&name)?
                    .into_iter()
                    .map(|part| vec![(StmtOp::SetTo, part)])
                    .collect();
                assembled.push(CapturedView { name, parts });
            }
            return Ok(CaptureBatch {
                watermark: self.watermark,
                resync: true,
                views: assembled,
            });
        }
        let driver_log = self.driver.take_captured();
        let worker_logs = self.round(
            |id| Request::TakeCaptured { id },
            |reply| match reply {
                Reply::Captured { ops, .. } => Some(ops),
                _ => None,
            },
        )?;
        let assembled = assemble_views(
            &views,
            |name| self.dplan.location(name),
            driver_log,
            worker_logs,
        );
        Ok(CaptureBatch {
            watermark: self.watermark,
            resync: false,
            views: assembled,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterConfig};
    use hotdog_algebra::expr::*;
    use hotdog_algebra::relation::Relation;
    use hotdog_algebra::schema::Schema;
    use hotdog_algebra::tuple;
    use hotdog_distributed::{compile_distributed, OptLevel, PartitioningSpec, ViewAccumulator};
    use hotdog_ivm::compile_recursive;

    fn make_cluster(workers: usize) -> Cluster {
        let q = sum(["B"], join(rel("R", ["A", "B"]), rel("S", ["B", "C"])));
        let plan = compile_recursive("Q", &q);
        let spec = PartitioningSpec::heuristic(&plan, &["A"]);
        let dplan = compile_distributed(&plan, &spec, OptLevel::O3);
        Cluster::new(dplan, ClusterConfig::with_workers(workers))
    }

    fn batches() -> Vec<Vec<(&'static str, Relation)>> {
        vec![
            vec![
                (
                    "R",
                    Relation::from_pairs(
                        Schema::new(["A", "B"]),
                        (0..12i64).map(|i| (tuple![i, i % 4], 1.0)),
                    ),
                ),
                (
                    "S",
                    Relation::from_pairs(
                        Schema::new(["B", "C"]),
                        (0..8i64).map(|i| (tuple![i % 4, i], 1.0)),
                    ),
                ),
            ],
            vec![(
                "R",
                Relation::from_pairs(
                    Schema::new(["A", "B"]),
                    vec![(tuple![1, 1], -1.0), (tuple![50, 2], 1.0)],
                ),
            )],
        ]
    }

    #[test]
    fn accumulated_captures_reconstruct_view_contents_bit_for_bit() {
        let mut cluster = make_cluster(3);
        let top = cluster.plan().plan.top_view.clone();
        let schema = cluster.plan().schema_of(&top).unwrap_or_default();
        cluster.enable_capture(std::slice::from_ref(&top));
        let mut acc = ViewAccumulator::new(schema);
        for batch in batches() {
            for (rel, delta) in &batch {
                cluster.apply_batch(rel, delta);
            }
            let captured = cluster.take_captured();
            assert_eq!(captured.views.len(), 1);
            acc.apply(&captured.views[0].parts, captured.resync);
        }
        let expected = cluster.view_contents(&top);
        assert_eq!(
            acc.contents().checksum(),
            expected.checksum(),
            "replayed capture log must be bit-identical to view_contents"
        );
    }

    #[test]
    fn capture_disabled_logs_nothing() {
        let mut cluster = make_cluster(2);
        for batch in batches() {
            for (rel, delta) in &batch {
                cluster.apply_batch(rel, delta);
            }
        }
        let captured = cluster.take_captured();
        assert!(captured.views.is_empty());
        assert_eq!(captured.watermark, 3);
    }
}
