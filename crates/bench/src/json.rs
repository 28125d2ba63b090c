//! Minimal JSON emission for machine-readable benchmark artifacts.
//!
//! The container has no crates.io access (so no `serde`); this module
//! hand-rolls the small subset needed to maintain the `BENCH_JSON` file: a
//! flat top-level object whose sections are written independently by the
//! benchmark binaries (`fig9_weak_scaling` writes its section without
//! clobbering `fig10_strong_scaling`'s, and vice versa).  Section values
//! are stored as raw JSON strings; merging only needs a tokenizer that can
//! split the top-level object on key boundaries, skipping nested
//! braces/brackets and strings.

use std::fmt::Write as _;
use std::fs;

/// Escape a string into a JSON string literal (with quotes).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number (JSON has no NaN/Inf; those become
/// `null`).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        // Enough precision for latencies in seconds; trims trailing noise.
        let s = format!("{v:.6}");
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s
        }
    } else {
        "null".to_string()
    }
}

/// Incrementally built JSON object (keys in insertion order, raw values).
#[derive(Default, Clone, Debug)]
pub struct JsonObj {
    parts: Vec<(String, String)>,
}

impl JsonObj {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a raw JSON value (caller guarantees validity).
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.parts.push((key.to_string(), value.into()));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let v = jstr(value);
        self.raw(key, v)
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        let v = jnum(value);
        self.raw(key, v)
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn render(&self) -> String {
        let body = self
            .parts
            .iter()
            .map(|(k, v)| format!("{}: {v}", jstr(k)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }
}

/// Render a JSON array from raw element strings.
pub fn jarray(elems: impl IntoIterator<Item = String>) -> String {
    let body = elems.into_iter().collect::<Vec<_>>().join(",\n    ");
    if body.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n    {body}\n  ]")
    }
}

/// Inverse of [`jstr`]'s escaping for the escape sequences it emits.
/// Returns `None` on malformed escapes.
fn junescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Split the body of a flat JSON object into (key, raw value) pairs, keys
/// unescaped (so section lookup and re-rendering round-trip).  Only
/// structural correctness is required (we wrote the file ourselves);
/// returns `None` on anything that does not scan cleanly, in which case
/// the caller starts a fresh file.
fn split_top_level(text: &str) -> Option<Vec<(String, String)>> {
    let body = text.trim();
    let body = body.strip_prefix('{')?.strip_suffix('}')?;
    let bytes = body.as_bytes();
    let mut pairs = Vec::new();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    loop {
        skip_ws(&mut i);
        if i >= bytes.len() {
            break;
        }
        // Key.
        if bytes[i] != b'"' {
            return None;
        }
        let key_start = i + 1;
        let mut j = key_start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        if j >= bytes.len() {
            return None;
        }
        let key = junescape(body.get(key_start..j)?)?;
        i = j + 1;
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        // Value: scan to the next top-level comma.
        let val_start = i;
        let mut depth = 0i32;
        let mut in_str = false;
        while i < bytes.len() {
            let b = bytes[i];
            if in_str {
                if b == b'\\' {
                    i += 1;
                } else if b == b'"' {
                    in_str = false;
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if depth != 0 || in_str {
            return None;
        }
        pairs.push((key, body.get(val_start..i)?.trim().to_string()));
        if i < bytes.len() {
            i += 1; // consume the comma
        }
    }
    Some(pairs)
}

/// Write (or replace) one section of the benchmark JSON file, preserving
/// every other section.  `value` must be a complete raw JSON value.
pub fn update_bench_json(path: &str, section: &str, value: &str) -> std::io::Result<()> {
    let mut sections = fs::read_to_string(path)
        .ok()
        .and_then(|text| split_top_level(&text))
        .unwrap_or_default();
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = value.to_string(),
        None => sections.push((section.to_string(), value.to_string())),
    }
    let body = sections
        .iter()
        .map(|(k, v)| format!("  {}: {v}", jstr(k)))
        .collect::<Vec<_>>()
        .join(",\n");
    fs::write(path, format!("{{\n{body}\n}}\n"))
}

/// Where the figure binaries write their rows: the path in `BENCH_JSON`,
/// or nowhere when it is unset (no default path that would dirty the tree).
pub fn bench_json_path() -> Option<String> {
    std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_and_escapes_render() {
        let o = JsonObj::new()
            .str("name", "a\"b\\c")
            .num("x", 1.25)
            .int("n", 7)
            .num("bad", f64::NAN);
        assert_eq!(
            o.render(),
            r#"{"name": "a\"b\\c", "x": 1.25, "n": 7, "bad": null}"#
        );
        assert_eq!(jnum(0.000001), "0.000001");
        assert_eq!(jnum(1500.0), "1500");
    }

    #[test]
    fn sections_merge_without_clobbering() {
        let dir = std::env::temp_dir().join("hotdog_bench_json_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        update_bench_json(path, "fig9", r#"{"rows": [1, 2, {"a": "b,}"}]}"#).unwrap();
        update_bench_json(path, "fig10", r#"{"rows": []}"#).unwrap();
        update_bench_json(path, "fig9", r#"{"rows": [3]}"#).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        let pairs = split_top_level(&text).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "fig9");
        assert_eq!(pairs[0].1, r#"{"rows": [3]}"#);
        assert_eq!(pairs[1].0, "fig10");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn escaped_section_keys_round_trip() {
        let dir = std::env::temp_dir().join("hotdog_bench_json_test3");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let key = "quoted \"key\"\\with\nescapes";
        update_bench_json(path, key, "1").unwrap();
        update_bench_json(path, key, "2").unwrap();
        update_bench_json(path, "plain", "3").unwrap();
        let pairs = split_top_level(&std::fs::read_to_string(path).unwrap()).unwrap();
        // The tricky key updated in place (no duplicate, no re-escaping).
        assert_eq!(
            pairs,
            vec![
                (key.to_string(), "2".to_string()),
                ("plain".to_string(), "3".to_string())
            ]
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_files_start_fresh() {
        let dir = std::env::temp_dir().join("hotdog_bench_json_test2");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "not json at all").unwrap();
        update_bench_json(path, "s", "1").unwrap();
        let pairs = split_top_level(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(pairs, vec![("s".to_string(), "1".to_string())]);
        let _ = std::fs::remove_file(path);
    }
}
