//! Census of environment-variable configuration in crate source, so it
//! cannot grow back silently.  Configuration lives in config structs
//! (`TcpConfig`, `PipelineConfig`, …) and command-line flags; the
//! environment names only *output paths*, and only `hotdog-telemetry`
//! reads it (`HOTDOG_*`).  The test-harness variables are read in
//! `tests/common/mod.rs`, which is not crate source.  The README's
//! "Environment variables" table lists the same names.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

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

#[test]
fn only_telemetry_and_bench_read_hotdog_variables() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
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
        ["HOTDOG_LOG", "HOTDOG_TELEMETRY", "HOTDOG_TRACE"],
        "hotdog-telemetry reads output paths only"
    );
}
