//! A hand-rolled JSON value, emitter, and minimal parser.
//!
//! The build environment has no crates.io access, so there is no `serde`;
//! this module is the workspace's machine-readable output format. Two
//! properties matter more than generality:
//!
//! * **Determinism.** Objects preserve insertion order and the emitter
//!   has exactly one rendering per value (floats render through Rust's
//!   shortest-round-trip `{:?}`, integers through `{}`), so equal values
//!   always produce byte-identical text.
//! * **Escape correctness.** Strings escape `"`, `\`, and every control
//!   character below `0x20` (named escapes where JSON has them, `\u00XX`
//!   otherwise); everything else passes through as UTF-8.
//!
//! The parser ([`parse`]) is deliberately minimal — it exists so tests
//! and CI checks can round-trip and inspect emitted documents without an
//! external dependency, not as a general-purpose JSON reader. It accepts
//! exactly the constructs the emitter produces plus insignificant
//! whitespace.

use std::fmt::Write as _;

/// A JSON value with order-preserving objects.
///
/// Unsigned and floating-point numbers are distinct variants so that
/// `u64` counters survive a round-trip exactly: the emitter writes
/// floats with a fractional part or exponent (`1.0`, not `1`), and the
/// parser maps fraction-free integers back to [`Json::U64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, counts, cycle totals).
    U64(u64),
    /// A double (rates, means, speedups). Non-finite values emit `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is insertion order and is preserved verbatim
    /// by the emitter.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object(entries: Vec<(impl Into<String>, Json)>) -> Json {
        Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in insertion order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (floats only; integers keep their own type).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering: two-space indentation, one entry per line, and a
    /// trailing newline — the format of every committed `.json` artifact.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a fractional part or exponent ("1.0",
                    // "1e300"), so floats never collide with integers.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

/// Shared array/object layout: compact when `indent` is `None`, one
/// element per line otherwise.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal with full escaping.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`parse`] accepts. The emitter's
/// documents nest about 6 deep; the bound keeps a hostile file from
/// overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document produced by this module's emitter.
///
/// Minimal by design (see the module docs): strict on structure, accepts
/// spaces/tabs/newlines between tokens, rejects trailing garbage. Any
/// input — including nesting deeper than 128 levels and malformed
/// `\u` escapes — yields `Err`, never a panic, in time linear in its
/// length.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !fractional {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    text.parse::<f64>().map(Json::F64).map_err(|e| format!("bad number '{text}': {e}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
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
                        let hi = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: the emitter never produces
                        // them (it writes raw UTF-8), but accept them so
                        // foreign documents don't silently corrupt.
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!("bad low surrogate at byte {}", *pos));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so they never sit inside a multi-byte scalar and
                // the run is a valid `&str` slice.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

/// Parses the four hex digits after `\u`; `pos` is left on the last one.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let digits = &bytes[start..end];
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {start}"));
    }
    let text = std::str::from_utf8(digits).expect("ascii hex digits");
    let v = u32::from_str_radix(text, 16).expect("four hex digits");
    *pos = end - 1;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.0).render(), "1.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let j = Json::object(vec![("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(j.render(), "{\"z\":1,\"a\":2}");
        assert_eq!(j.keys(), vec!["z", "a"]);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let j = Json::object(vec![("a", Json::Array(vec![Json::U64(1), Json::U64(2)]))]);
        assert_eq!(j.render_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_rejects_hostile_input_without_panicking() {
        // A high surrogate followed by a non-low-surrogate escape.
        assert!(parse(r#""\uD800\u0041""#).is_err());
        assert_eq!(parse(r#""\uD83D\uDE00""#), Ok(Json::str("\u{1F600}")));
        assert!(parse(r#""\u+041""#).is_err());
        // Nesting is bounded instead of overflowing the stack.
        let deep = "[".repeat(200_000);
        assert_eq!(parse(&deep), Err(format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")));
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // A long multi-byte string parses in linear time.
        let long = "é".repeat(1 << 20);
        assert_eq!(parse(&format!("\"{long}\"")), Ok(Json::Str(long)));
    }
}
