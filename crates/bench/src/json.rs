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

/// A parsed JSON value — the reading side of this module, used by
/// `trace_check` to validate a `HOTDOG_TRACE` export.  Object keys keep
/// insertion order; duplicate keys keep the last value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// anything else after the value is an error).  Nesting deeper than
    /// [`MAX_PARSE_DEPTH`] is rejected rather than recursed into, so a
    /// corrupt artifact (e.g. a truncated file of `[` bytes) returns
    /// `None` instead of overflowing the stack.
    pub fn parse(text: &str) -> Option<JsonValue> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Parse the double-quoted string starting at `*pos` (which must point at
/// the opening quote); leaves `*pos` after the closing quote.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    let start = *pos + 1;
    let mut i = start;
    while i < bytes.len() && bytes[i] != b'"' {
        if bytes[i] == b'\\' {
            i += 1;
        }
        i += 1;
    }
    if i >= bytes.len() {
        return None;
    }
    let raw = std::str::from_utf8(&bytes[start..i]).ok()?;
    *pos = i + 1;
    junescape(raw)
}

/// Deepest container nesting [`JsonValue::parse`] will recurse into.  Far
/// above anything the artifact writers emit; bounds stack use on corrupt
/// input.
pub const MAX_PARSE_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<JsonValue> {
    if depth > MAX_PARSE_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match *bytes.get(*pos)? {
        b'"' => parse_string(bytes, pos).map(JsonValue::Str),
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(JsonValue::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(JsonValue::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b't' => {
            *pos = pos.checked_add(4)?;
            (bytes.get(*pos - 4..*pos)? == b"true").then_some(JsonValue::Bool(true))
        }
        b'f' => {
            *pos = pos.checked_add(5)?;
            (bytes.get(*pos - 5..*pos)? == b"false").then_some(JsonValue::Bool(false))
        }
        b'n' => {
            *pos = pos.checked_add(4)?;
            (bytes.get(*pos - 4..*pos)? == b"null").then_some(JsonValue::Null)
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()?
                .parse::<f64>()
                .ok()
                .map(JsonValue::Num)
        }
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
    fn parser_round_trips_what_this_module_writes() {
        let rendered = JsonObj::new()
            .str("name", "a\"b\\c\nnl")
            .num("x", -1.25e3)
            .int("n", 7)
            .num("nan", f64::NAN)
            .raw("arr", jarray(vec!["1".into(), "[2, 3]".into()]))
            .raw("obj", r#"{"t": true, "f": false}"#)
            .render();
        let v = JsonValue::parse(&rendered).expect("must parse");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nnl"));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        let arr = v.get("arr").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_array().unwrap().len(), 2);
        assert_eq!(v.get("obj").unwrap().get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"a": }"#,
            r#"{"a": 1} trailing"#,
            "tru",
            r#"{"a" 1}"#,
            "[1,]",
        ] {
            assert!(JsonValue::parse(bad).is_none(), "accepted {bad:?}");
        }
        // Structural whitespace and nested containers are fine.
        assert!(JsonValue::parse(" { \"a\" : [ { } , [ ] , null ] } ").is_some());
        // Pathological nesting is rejected, not recursed into (a corrupt
        // artifact must produce the "not valid JSON" diagnostic, not a
        // stack overflow).
        let deep = "[".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_none());
        let balanced_deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(JsonValue::parse(&balanced_deep).is_none());
        let within = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&within).is_some());
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
