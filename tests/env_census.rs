//! Censuses of crate source, so what they count cannot grow back
//! silently.
//!
//! * Environment-variable configuration.  Configuration lives in config
//!   structs (`TcpConfig`, `PipelineConfig`, …) and command-line flags;
//!   the environment names only the trace's *output path*, and only
//!   `hotdog-telemetry` reads it (`HOTDOG_TRACE`).  The test-harness
//!   variables are read in `tests/common/mod.rs`, which is not crate
//!   source.  The README's "Environment variables" table lists the same
//!   names.
//! * `unsafe`: every crate forbids it.
//! * Metric names: every name crate source registers has a row in the
//!   README's "Metric catalog".

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The code part of every line of every `.rs` file under `dir`, as
/// `(file, line number, code)` — comments stripped.
fn code_lines(dir: &Path, out: &mut Vec<(String, usize, String)>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            code_lines(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap();
            for (i, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                out.push((path.display().to_string(), i + 1, code.to_string()));
            }
        }
    }
}

/// Every `"HOTDOG_…"` string literal in `code`.
fn hotdog_literals(code: &str) -> Vec<String> {
    code.match_indices("\"HOTDOG_")
        .map(|(at, _)| {
            code[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                .collect()
        })
        .collect()
}

/// Every crate directory under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = fs::read_dir(&crates)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn only_telemetry_and_bench_read_hotdog_variables() {
    let mut names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in crate_dirs() {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let may_read_env = name == "telemetry";
        let mut lines = Vec::new();
        code_lines(&dir.join("src"), &mut lines);
        for (file, line, code) in lines {
            let literals = hotdog_literals(&code);
            let reads_env = code.contains("env::var(") || code.contains("env::var_os(");
            assert!(
                may_read_env || (literals.is_empty() && !reads_env),
                "{file}:{line}: crates/{name} reads the environment; make it a config \
                 field, or a test-harness variable in tests/common/mod.rs:\n{code}"
            );
            names.entry(name.clone()).or_default().extend(literals);
        }
    }
    let telemetry: Vec<&str> = names["telemetry"].iter().map(String::as_str).collect();
    assert_eq!(
        telemetry,
        ["HOTDOG_TRACE"],
        "hotdog-telemetry reads output paths only"
    );
}

#[test]
fn every_crate_forbids_unsafe_code() {
    let dirs = crate_dirs();
    assert!(dirs.len() >= 12, "found only {dirs:?}");
    for dir in dirs {
        let lib = dir.join("src").join("lib.rs");
        let text = fs::read_to_string(&lib).unwrap();
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

/// Every metric name literal registered in `code`: the first string
/// argument of each `.counter(`, `.gauge(` or `.histogram(` call.
fn registered_metrics(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for call in [".counter(\"", ".gauge(\"", ".histogram(\""] {
        for (at, _) in code.match_indices(call) {
            let rest = &code[at + call.len()..];
            names.push(rest[..rest.find('"').unwrap()].to_string());
        }
    }
    names
}

#[test]
fn metric_catalog_lists_every_registered_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).unwrap();
    let section = readme
        .split("### Metric catalog")
        .nth(1)
        .expect("README has a Metric catalog section");
    let catalog: BTreeSet<&str> = section
        .lines()
        .take_while(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with('|'))
        .flat_map(|l| l.split('`').skip(1).step_by(2))
        .collect();

    let mut registered: BTreeMap<String, String> = BTreeMap::new();
    for dir in crate_dirs() {
        let mut lines = Vec::new();
        code_lines(&dir.join("src"), &mut lines);
        // Test code registers throwaway names: `tests.rs` files are all
        // test code, and a `#[cfg(test)] mod … {` ends its file.
        let mut test_from: Option<&str> = None;
        for (k, (file, line, code)) in lines.iter().enumerate() {
            let opens_test_mod = code.trim() == "#[cfg(test)]"
                && lines.get(k + 1).is_some_and(|(next_file, _, next)| {
                    next_file == file
                        && next.trim_start().starts_with("mod ")
                        && next.trim_end().ends_with('{')
                });
            if opens_test_mod {
                test_from = Some(file.as_str());
            }
            if file.ends_with("/tests.rs") || test_from == Some(file.as_str()) {
                continue;
            }
            for name in registered_metrics(code) {
                registered.entry(name).or_insert(format!("{file}:{line}"));
            }
        }
    }
    assert!(
        registered.contains_key("driver.requests.total"),
        "census found no registrations: {registered:?}"
    );
    let missing: Vec<String> = registered
        .iter()
        .filter(|(name, _)| !catalog.contains(name.as_str()))
        .map(|(name, at)| format!("{name} ({at})"))
        .collect();
    assert!(
        missing.is_empty(),
        "README's Metric catalog lacks rows for: {missing:?}"
    );
}
