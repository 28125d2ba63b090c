//! Helpers shared by the integration suites, and the one place the
//! test-harness environment variables are read:
//!
//! * `HOTDOG_WORKERS=n` — worker count under test (the CI matrix axis);
//! * `HOTDOG_SEED=n` — replays a seeded scenario (the nightly sweep);
//! * `HOTDOG_FAULT=<spec>` — the chaos jobs' kill schedule, in
//!   [`FaultPlan::parse`] syntax.
//!
//! (`HOTDOG_SEED` also seeds the `proptest!` properties, inside the
//! vendored proptest shim.)

// Each suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use hotdog::prelude::{FaultPlan, TcpConfig};

/// `HOTDOG_WORKERS`, when set to a number (at least 1).
pub fn workers_from_env() -> Option<usize> {
    std::env::var("HOTDOG_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|w| w.max(1))
}

/// The worker count the single-count suites run at (default 2).
pub fn workers_under_test() -> usize {
    workers_from_env().unwrap_or(2)
}

/// `HOTDOG_SEED`, when set to a number.
pub fn seed_from_env() -> Option<u64> {
    std::env::var("HOTDOG_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
}

/// Fault-free TCP cluster configuration that spawns the worker bin cargo
/// built for this test target, so nothing has to be pre-built.
pub fn tcp_config(workers: usize) -> TcpConfig {
    let mut config = TcpConfig::with_workers(workers);
    config.worker_bin = Some(env!("CARGO_BIN_EXE_hotdog-repro-worker").into());
    config
}

/// The kill schedule named by `HOTDOG_FAULT`, if any — for the chaos entry
/// points only; every other run is unfaulted by construction.  Malformed
/// values are a hard error (a chaos run silently running fault-free would
/// defeat its purpose).
pub fn chaos_plan(workers: usize) -> Option<FaultPlan> {
    let raw = std::env::var("HOTDOG_FAULT").ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    Some(
        FaultPlan::parse(&raw, workers)
            .unwrap_or_else(|e| panic!("invalid HOTDOG_FAULT={raw:?}: {e}")),
    )
}
