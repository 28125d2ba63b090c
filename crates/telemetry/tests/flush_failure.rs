//! The drop-time trace export's failure contract: an unwritable
//! `HOTDOG_TRACE` target returns its `io::Error` from `flush_trace`, and
//! `flush_trace_on_drop` — which runs inside destructors — neither panics
//! nor leaves a file behind (it prints one line to stderr instead).  Own
//! integration binary: it mutates process environment variables, which
//! must not race the crate's other tests; `ENV` serializes the tests here.

use hotdog_telemetry::{Telemetry, TRACE_ENV};
use std::fs;
use std::sync::Mutex;

static ENV: Mutex<()> = Mutex::new(());

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hotdog-flush-fail-{}-{name}", std::process::id()))
}

fn traced() -> Telemetry {
    let t = Telemetry::new();
    let root = t.begin_batch_root();
    t.finish_span(Some(root));
    t
}

#[test]
fn unwritable_trace_target_returns_the_error() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    // Root (CI containers) bypasses permission bits via CAP_DAC_OVERRIDE,
    // so the path routes through a regular file: opening
    // `<file>/trace.json` fails with ENOTDIR for every uid.
    let blocker = scratch("not-a-dir");
    fs::write(&blocker, b"plain file standing where a directory should be").expect("write");
    let target = blocker.join("trace.json");
    let target_str = target.to_string_lossy().to_string();

    let t = traced();
    let err = t.flush_trace(&target_str).expect_err("unwritable path");
    assert_eq!(err.kind(), std::io::ErrorKind::NotADirectory, "{err}");

    std::env::set_var(TRACE_ENV, &target_str);
    assert!(Telemetry::trace_export_enabled());
    t.flush_trace_on_drop(); // must not panic
    std::env::remove_var(TRACE_ENV);
    assert!(!target.exists(), "a failed export leaves no file");

    let _ = fs::remove_file(&blocker);
}

#[test]
fn writable_flush_target_stays_quiet() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let ok_path = scratch("ok.json");
    let _ = fs::remove_file(&ok_path);
    let t = traced();

    std::env::set_var(TRACE_ENV, ok_path.to_string_lossy().to_string());
    t.flush_trace_on_drop();
    std::env::remove_var(TRACE_ENV);

    let text = fs::read_to_string(&ok_path).expect("writable path receives the trace");
    let _ = fs::remove_file(&ok_path);
    assert!(text.contains("\"name\":\"batch\""), "{text}");
}

#[test]
fn empty_trace_path_writes_nothing() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(TRACE_ENV, "");
    assert!(!Telemetry::trace_export_enabled());
    traced().flush_trace_on_drop(); // no path: no write, no error line
    std::env::remove_var(TRACE_ENV);
}
