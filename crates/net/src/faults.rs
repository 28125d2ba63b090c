//! Deterministic fault injection for the TCP transport.
//!
//! A [`FaultPlan`] is a list of [`KillSpec`]s: *kill worker `w` before
//! (or after) the `n`-th message of kind `k` is sent to it*.  The plan is
//! evaluated at the transport's send chokepoint, so the kill point is a
//! pure function of the driver's message schedule — the same plan against
//! the same input stream kills at the same protocol moment on every run,
//! which is what lets the recovery oracle demand bit-identical final
//! views between a faulted and an unfaulted run.
//!
//! A plan is installed with [`TcpConfig::with_faults`](crate::TcpConfig)
//! — nothing here reads the environment — and is built one of three ways:
//!
//! * from explicit specs, via [`FaultPlan::kill`];
//! * from text, via [`FaultPlan::parse`] — e.g. `kill:1:run_block:3:before`
//!   (kill worker 1 just before its 3rd `RunBlock`), multiple specs
//!   `;`-separated.  This is the syntax of the test harness's
//!   `HOTDOG_FAULT` variable (`tests/common`);
//! * from a seed, via [`FaultPlan::seeded`] or the text `seed:42` — a
//!   splitmix64 stream materializes one kill at a plausible early point
//!   in the schedule, which is how the CI chaos job derives a fresh but
//!   reproducible kill point per run.

use hotdog_distributed::protocol::WorkerRequest;
use std::collections::HashMap;
use std::fmt;

/// The message kinds a [`KillSpec`] can count (one per
/// [`WorkerRequest`] variant that crosses the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    RunBlock,
    ApplyMany,
    Fetch,
    Snapshot,
    Barrier,
    Stats,
    Ping,
    Checkpoint,
    Restore,
    SetCapture,
    TakeCaptured,
    Shutdown,
}

impl FaultKind {
    /// Classify a request for kill-point counting.
    pub fn of(request: &WorkerRequest) -> FaultKind {
        match request {
            WorkerRequest::RunBlock { .. } => FaultKind::RunBlock,
            WorkerRequest::ApplyMany { .. } => FaultKind::ApplyMany,
            WorkerRequest::Fetch { .. } => FaultKind::Fetch,
            WorkerRequest::Snapshot { .. } => FaultKind::Snapshot,
            WorkerRequest::Barrier { .. } => FaultKind::Barrier,
            WorkerRequest::Stats { .. } => FaultKind::Stats,
            WorkerRequest::Ping { .. } => FaultKind::Ping,
            WorkerRequest::Checkpoint { .. } => FaultKind::Checkpoint,
            WorkerRequest::Restore { .. } => FaultKind::Restore,
            WorkerRequest::SetCapture { .. } => FaultKind::SetCapture,
            WorkerRequest::TakeCaptured { .. } => FaultKind::TakeCaptured,
            WorkerRequest::Shutdown => FaultKind::Shutdown,
        }
    }

    /// The spelling used by [`FaultPlan::parse`] and telemetry events.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::RunBlock => "run_block",
            FaultKind::ApplyMany => "apply_many",
            FaultKind::Fetch => "fetch",
            FaultKind::Snapshot => "snapshot",
            FaultKind::Barrier => "barrier",
            FaultKind::Stats => "stats",
            FaultKind::Ping => "ping",
            FaultKind::Checkpoint => "checkpoint",
            FaultKind::Restore => "restore",
            FaultKind::SetCapture => "set_capture",
            FaultKind::TakeCaptured => "take_captured",
            FaultKind::Shutdown => "shutdown",
        }
    }

    fn from_str(s: &str) -> Option<FaultKind> {
        Some(match s {
            "run_block" => FaultKind::RunBlock,
            "apply_many" => FaultKind::ApplyMany,
            "fetch" => FaultKind::Fetch,
            "snapshot" => FaultKind::Snapshot,
            "barrier" => FaultKind::Barrier,
            "stats" => FaultKind::Stats,
            "ping" => FaultKind::Ping,
            "checkpoint" => FaultKind::Checkpoint,
            "restore" => FaultKind::Restore,
            "set_capture" => FaultKind::SetCapture,
            "take_captured" => FaultKind::TakeCaptured,
            "shutdown" => FaultKind::Shutdown,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the kill lands before the counted message is written to the
/// socket (the worker never sees it) or after (the worker may have
/// started executing it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Before,
    After,
}

/// One deterministic kill point: worker `worker` dies at the `nth`
/// (1-based) message of kind `kind` sent to it, at `phase`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillSpec {
    pub worker: usize,
    pub kind: FaultKind,
    pub nth: u64,
    pub phase: Phase,
}

impl fmt::Display for KillSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Before => "before",
            Phase::After => "after",
        };
        write!(f, "kill:{}:{}:{}:{phase}", self.worker, self.kind, self.nth)
    }
}

/// A full fault schedule (any number of kill points).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// A plan with a single kill point.
    pub fn kill(worker: usize, kind: FaultKind, nth: u64, phase: Phase) -> FaultPlan {
        FaultPlan {
            kills: vec![KillSpec {
                worker,
                kind,
                nth,
                phase,
            }],
        }
    }

    /// Parse a textual plan: `;`-separated specs, each either
    /// `kill:<worker>:<kind>:<n>[:before|after]` (default `before`) or
    /// `seed:<u64>` (expanded via [`FaultPlan::seeded`] with `workers`).
    pub fn parse(s: &str, workers: usize) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for spec in s.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = spec.split(':').collect();
            match parts.as_slice() {
                ["seed", seed] => {
                    let seed: u64 = seed
                        .parse()
                        .map_err(|e| format!("bad seed in {spec:?}: {e}"))?;
                    plan.kills.extend(FaultPlan::seeded(seed, workers).kills);
                }
                ["kill", worker, kind, nth] | ["kill", worker, kind, nth, _] => {
                    let phase = match parts.get(4) {
                        None | Some(&"before") => Phase::Before,
                        Some(&"after") => Phase::After,
                        Some(p) => return Err(format!("bad phase {p:?} in {spec:?}")),
                    };
                    plan.kills.push(KillSpec {
                        worker: worker
                            .parse()
                            .map_err(|e| format!("bad worker in {spec:?}: {e}"))?,
                        kind: FaultKind::from_str(kind)
                            .ok_or_else(|| format!("bad kind {kind:?} in {spec:?}"))?,
                        nth: nth.parse().map_err(|e| format!("bad n in {spec:?}: {e}"))?,
                        phase,
                    });
                }
                _ => return Err(format!("bad fault spec {spec:?}")),
            }
        }
        Ok(plan)
    }

    /// Materialize one seeded kill point for a `workers`-node cluster: a
    /// splitmix64 stream picks the victim, a message kind from the
    /// steady-state schedule, an early ordinal, and the phase.  Same seed
    /// and worker count → same plan, on every host.
    pub fn seeded(seed: u64, workers: usize) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the standard 64-bit mix, good enough to
            // decorrelate consecutive draws from small seeds.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        // Kinds every schedule sends repeatedly, so an early ordinal is
        // guaranteed to fire on any non-trivial stream.
        const KINDS: [FaultKind; 3] = [FaultKind::RunBlock, FaultKind::ApplyMany, FaultKind::Fetch];
        FaultPlan::kill(
            (next() % workers.max(1) as u64) as usize,
            KINDS[(next() % KINDS.len() as u64) as usize],
            1 + next() % 4,
            if next() % 2 == 0 {
                Phase::Before
            } else {
                Phase::After
            },
        )
    }
}

/// Runtime state of a plan: per-(worker, kind) send counters and the
/// fired flags.  Owned by the transport; counting happens at its send
/// chokepoint.
#[derive(Debug, Default)]
pub struct FaultState {
    plan: FaultPlan,
    counts: HashMap<(usize, FaultKind), u64>,
    fired: Vec<bool>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            fired: vec![false; plan.kills.len()],
            plan,
            counts: HashMap::new(),
        }
    }

    /// Count one message about to be sent to `worker`; if an unfired kill
    /// spec matches its ordinal, return the spec (marking it fired) so
    /// the transport can kill the worker at the requested phase.
    pub fn on_send(&mut self, worker: usize, request: &WorkerRequest) -> Option<KillSpec> {
        let kind = FaultKind::of(request);
        let n = self.counts.entry((worker, kind)).or_insert(0);
        *n += 1;
        let n = *n;
        for (i, spec) in self.plan.kills.iter().enumerate() {
            if !self.fired[i] && spec.worker == worker && spec.kind == kind && spec.nth == n {
                self.fired[i] = true;
                return Some(spec.clone());
            }
        }
        None
    }

    /// How many kill specs have fired so far.
    pub fn fired(&self) -> usize {
        self.fired.iter().filter(|f| **f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        let plan = FaultPlan::parse("kill:1:run_block:3:after; kill:0:fetch:2", 4).unwrap();
        assert_eq!(
            plan.kills,
            vec![
                KillSpec {
                    worker: 1,
                    kind: FaultKind::RunBlock,
                    nth: 3,
                    phase: Phase::After,
                },
                KillSpec {
                    worker: 0,
                    kind: FaultKind::Fetch,
                    nth: 2,
                    phase: Phase::Before,
                },
            ]
        );
        let rendered = plan
            .kills
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(";");
        assert_eq!(FaultPlan::parse(&rendered, 4).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("kill:x:run_block:1", 4).is_err());
        assert!(FaultPlan::parse("kill:0:no_such_kind:1", 4).is_err());
        assert!(FaultPlan::parse("kill:0:fetch:1:sideways", 4).is_err());
        assert!(FaultPlan::parse("explode", 4).is_err());
    }

    #[test]
    fn seeded_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 4);
            assert_eq!(a, FaultPlan::seeded(seed, 4));
            let spec = &a.kills[0];
            assert!(spec.worker < 4);
            assert!((1..=4).contains(&spec.nth));
        }
        // Different seeds must not all collapse to one kill point.
        let distinct: std::collections::HashSet<String> = (0..64)
            .map(|s| FaultPlan::seeded(s, 4).kills[0].to_string())
            .collect();
        assert!(distinct.len() > 8, "seeded plans barely vary: {distinct:?}");
    }

    #[test]
    fn state_fires_each_spec_once_at_its_ordinal() {
        let mut st = FaultState::new(FaultPlan::kill(1, FaultKind::Barrier, 2, Phase::Before));
        let barrier = |id| WorkerRequest::Barrier { id };
        assert!(st.on_send(1, &barrier(1)).is_none()); // 1st barrier
        assert!(st.on_send(0, &barrier(2)).is_none()); // other worker
        let fired = st.on_send(1, &barrier(3)); // 2nd barrier to worker 1
        assert_eq!(
            fired,
            Some(KillSpec {
                worker: 1,
                kind: FaultKind::Barrier,
                nth: 2,
                phase: Phase::Before,
            })
        );
        assert!(st.on_send(1, &barrier(4)).is_none()); // never re-fires
        assert_eq!(st.fired(), 1);
    }
}
