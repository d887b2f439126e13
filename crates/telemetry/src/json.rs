//! A minimal JSON value type, renderer, and parser — no dependencies.
//!
//! Determinism drives two choices here. Integers get their own variants
//! ([`Json::U`] / [`Json::I`]) instead of being funneled through `f64`,
//! so virtual-nanosecond counters survive a serialize → parse → merge
//! round trip bit-exactly (the `BENCH_summary.json` merge re-parses the
//! previous file every run). And objects keep their members in a
//! `Vec<(String, Json)>` in insertion order — rendering never consults a
//! hash map, so identical inputs render to byte-identical text.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer (rendered without decimal point).
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point; non-finite values render as `null`.
    F(f64),
    /// String.
    S(String),
    /// Array.
    A(Vec<Json>),
    /// Object; members stay in insertion order.
    O(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::O(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::O(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as f64 (`U`/`I`/`F` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U(v) => Some(*v as f64),
            Json::I(v) => Some(*v as f64),
            Json::F(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U(v) => Some(*v),
            Json::I(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Signed integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U(v) => i64::try_from(*v).ok(),
            Json::I(v) => Some(*v),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::S(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::A(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with `indent`-space pretty printing and trailing newline.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip Display is deterministic;
                    // force a `.0` on integral floats so the value parses
                    // back as F, keeping render∘parse idempotent.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::S(s) => write_escaped(out, s),
            Json::A(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::O(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Where `self` and `other` first render differently, as a path
    /// plus the two values (`None` when they render to the same bytes).
    /// This is what a validator prints when a section does not
    /// re-render to itself.
    pub fn first_difference(&self, other: &Json) -> Option<String> {
        fn brief(v: &Json) -> String {
            match v {
                Json::O(m) => format!("{{{}}}", m.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>().join(", ")),
                Json::A(a) => format!("[{} items]", a.len()),
                v => v.render(),
            }
        }
        match (self, other) {
            (Json::O(a), Json::O(b)) if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0) => a
                .iter()
                .zip(b)
                .find_map(|((k, x), (_, y))| x.first_difference(y).map(|d| format!(".{k}{d}"))),
            (Json::A(a), Json::A(b)) if a.len() == b.len() => a
                .iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| x.first_difference(y).map(|d| format!("[{i}]{d}"))),
            // `I(0)` and `U(0)` differ as values but not as bytes.
            _ if self == other || self.render() == other.render() => None,
            _ => Some(format!(": {} != {}", brief(self), brief(other))),
        }
    }

    /// Parse a JSON document. Returns a descriptive error with the byte
    /// offset on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::S(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::O(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::O(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::A(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::A(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogates are not paired here; the renderer
                        // never emits them, so map them to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a whole UTF-8 scalar at once.
                let start = *pos;
                let mut end = start + 1;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                let chunk =
                    std::str::from_utf8(&bytes[start..end]).map_err(|_| "invalid UTF-8")?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number")?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_integers_exactly() {
        let doc = Json::obj(vec![
            ("big", Json::U(u64::MAX)),
            ("neg", Json::I(-42)),
            ("f", Json::F(0.125)),
            ("whole", Json::F(3.0)),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        // And rendering is idempotent through the parser.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn object_order_is_stable() {
        let doc = Json::obj(vec![("z", Json::U(1)), ("a", Json::U(2))]);
        assert_eq!(doc.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(Json::parse(&doc.render()).unwrap().render(), doc.render());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}é";
        let doc = Json::S(s.to_string());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn pretty_nests() {
        let doc = Json::obj(vec![("rows", Json::A(vec![Json::U(1), Json::U(2)]))]);
        let text = doc.render_pretty(2);
        assert!(text.contains("\n  \"rows\": [\n    1,\n    2\n  ]\n"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parses_nested_document() {
        let doc = Json::parse(
            r#"{"a": [1, -2, 3.5, true, null], "b": {"c": "x"}, "d": 1e3}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("d").unwrap().as_f64(), Some(1000.0));
    }
}
