//! Helpers shared by the TCP integration suites.

use hotdog::prelude::TcpConfig;

/// Environment-driven TCP cluster configuration (see
/// [`TcpConfig::from_env`]: `HOTDOG_TCP_SPAWN=thread` swaps worker
/// subprocesses for in-process socket threads) that spawns the worker bin
/// cargo built for this test target, so nothing has to be pre-built.
pub fn tcp_config(workers: usize) -> TcpConfig {
    let mut config = TcpConfig::from_env(workers);
    config.worker_bin = Some(env!("CARGO_BIN_EXE_hotdog-repro-worker").into());
    config
}
