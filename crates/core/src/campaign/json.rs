//! A minimal, dependency-free JSON value, parser, and writer.
//!
//! Campaign specs and results must be serializable, and the repository
//! builds in hermetic environments without crates.io access, so this module
//! supplies the small JSON subset the campaign layer needs instead of
//! `serde`. Objects preserve insertion order, which keeps every export
//! byte-deterministic — the property the parallel-vs-serial determinism
//! test asserts.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so the bound keeps a hostile document from overflowing the
/// stack; committed specs nest at most 4 deep.
const MAX_DEPTH: usize = 128;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, kept exact.
    Int(i64),
    /// A fractional number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Arrays and objects may nest at most 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The integer payload as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Append the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_i64(out, *i),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Number of decimal digits of `v`.
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |e| e as usize + 1)
}

/// Fill `slots` with the last `slots.len()` decimal digits of `v`.
fn put_digits(mut v: u64, slots: &mut [u8]) {
    for slot in slots.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Append the decimal digits of `v`, without going through `fmt`. The
/// digits are ASCII, so each becomes a `char` directly, with no UTF-8
/// check.
pub(crate) fn write_u64(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let digits = &mut digits[..digit_count(v)];
    put_digits(v, digits);
    out.extend(digits.iter().map(|&d| char::from(d)));
}

/// Append `v` as a JSON integer.
pub(crate) fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Append a `u64` the way [`json_u64`](super::json_u64) renders it: an
/// integer up to `i64::MAX`, a decimal string beyond.
pub(crate) fn write_json_u64(out: &mut String, v: u64) {
    if i64::try_from(v).is_ok() {
        write_u64(out, v);
    } else {
        out.push('"');
        write_u64(out, v);
        out.push('"');
    }
}

/// Bytes an [`AsciiChunks`] gathers before it appends them.
const CHUNK: usize = 1024;

/// The longest `u64` rendering of [`write_json_u64`]: 20 digits, quoted.
const JSON_U64_MAX_LEN: usize = 22;

/// ASCII gathered in a stack buffer and appended to a `String` a chunk at
/// a time: one UTF-8 check and one copy per chunk instead of a `char` push
/// per byte, with no `unsafe`. Long number series (a report's queue
/// series) render through it. Call [`AsciiChunks::finish`] to append the
/// last chunk.
pub(crate) struct AsciiChunks<'a> {
    out: &'a mut String,
    buf: [u8; CHUNK],
    len: usize,
}

impl<'a> AsciiChunks<'a> {
    pub(crate) fn new(out: &'a mut String) -> Self {
        Self { out, buf: [0; CHUNK], len: 0 }
    }

    /// Append the ASCII byte `byte`.
    #[inline]
    pub(crate) fn push(&mut self, byte: u8) {
        debug_assert!(byte.is_ascii());
        if self.len == CHUNK {
            self.flush();
        }
        self.buf[self.len] = byte;
        self.len += 1;
    }

    /// Append `v` as [`write_json_u64`] renders it: an integer up to
    /// `i64::MAX`, a decimal string beyond.
    #[inline]
    pub(crate) fn json_u64(&mut self, v: u64) {
        if CHUNK - self.len < JSON_U64_MAX_LEN {
            self.flush();
        }
        let quoted = i64::try_from(v).is_err();
        let start = self.len + usize::from(quoted);
        let end = start + digit_count(v);
        put_digits(v, &mut self.buf[start..end]);
        if quoted {
            self.buf[self.len] = b'"';
            self.buf[end] = b'"';
        }
        self.len = end + usize::from(quoted);
    }

    fn flush(&mut self) {
        let ascii = std::str::from_utf8(&self.buf[..self.len]).expect("only ASCII is gathered");
        self.out.push_str(ascii);
        self.len = 0;
    }

    /// Append what is still gathered.
    pub(crate) fn finish(mut self) {
        self.flush();
    }
}

pub(crate) fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // Rust's Display for f64 is shortest-round-trip decimal notation,
        // which is valid JSON; make sure a fraction marker survives so the
        // value parses back as Float.
        let s = format!("{f}");
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity
        out.push_str("null");
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
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

/// Parse one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
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
        Err(format!("invalid literal at byte {pos}"))
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
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !fractional {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
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
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // surrogate pairs are not needed for campaign specs
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash at once.
                // Both are ASCII, so the run is whole characters of the
                // input, which is a `&str`.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[start..*pos]).expect("a &str cut at ASCII bytes");
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc =
            r#"{"name": "k-cycle", "axes": [1, 2, 3], "grid": {"rho": ["1/5", 0.25], "ok": true}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("k-cycle"));
        assert_eq!(v.get("axes").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("grid")
                .and_then(|g| g.get("rho"))
                .and_then(Json::as_array)
                .and_then(|a| a[0].as_str()),
            Some("1/5")
        );
        assert_eq!(v.get("grid").and_then(|g| g.get("ok")).and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn round_trips_via_render() {
        let doc = r#"{"a":[1,2.5,"x","\"q\""],"b":{"c":null,"d":false},"e":-3}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(rendered, doc);
    }

    #[test]
    fn pretty_render_parses_back() {
        let v = Json::parse(r#"{"a": [1, {"b": []}], "c": {}}"#).unwrap();
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"open", "{a:1}", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// `levels` nested arrays (`[[…]]`) or objects (`{"k":{"k":…}}`).
    fn nested(levels: usize, objects: bool) -> String {
        let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
        let inner = if objects { "1" } else { "" };
        format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_at_the_limit() {
        for objects in [false, true] {
            let at_limit = Json::parse(&nested(MAX_DEPTH, objects)).unwrap();
            assert_eq!(Json::parse(&at_limit.render()).unwrap(), at_limit);
            for levels in [MAX_DEPTH + 1, 50_000] {
                let err = Json::parse(&nested(levels, objects)).unwrap_err();
                assert!(err.contains("nesting deeper than 128 levels"), "{levels}: {err}");
            }
        }
    }

    #[test]
    fn integers_render_as_fmt_does() {
        for v in [0, 1, -1, 9, 10, -10, 99, 100, 12_345, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(Json::Int(v).render(), v.to_string());
        }
        for v in [0, 7, 10, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let mut s = String::new();
            write_json_u64(&mut s, v);
            assert_eq!(s, super::super::json_u64(v).render(), "{v}");
        }
        // Every number up to five digits, then every digit count at and
        // around its power of ten.
        let mut s = String::new();
        let powers = (0..20).map(|e| 10u64.pow(e));
        let around = powers.flat_map(|p| [p - 1, p, p + 1, p.saturating_mul(10) - 1]);
        for v in (0..100_000).chain(around) {
            s.clear();
            write_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn chunked_numbers_render_as_write_json_u64_does() {
        // Enough numbers to fill many chunks, with every digit count, the
        // quoting edge at `i64::MAX` and separators between them.
        let edges = [0, 9, 10, i64::MAX as u64 - 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
        let values: Vec<u64> = (0..20)
            .map(|e| 10u64.pow(e))
            .flat_map(|p| [p - 1, p, p + 1])
            .chain(edges)
            .cycle()
            .take(3 * CHUNK)
            .collect();
        let (mut chunked, mut reference) = (String::from("prefix"), String::from("prefix"));
        let mut chunks = AsciiChunks::new(&mut chunked);
        for &v in &values {
            chunks.json_u64(v);
            chunks.push(b',');
            write_json_u64(&mut reference, v);
            reference.push(',');
        }
        chunks.finish();
        assert!(reference.len() > 20 * CHUNK, "the series spans many chunks");
        assert_eq!(chunked, reference);
    }

    #[test]
    fn floats_keep_fraction_marker() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::parse("\"ρ≤β — ütf8\"").unwrap();
        assert_eq!(v.as_str(), Some("ρ≤β — ütf8"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // Escapes between multi-byte characters split the copied runs.
        assert_eq!(Json::parse("\"ρ\\\"β\\\\—\"").unwrap().as_str(), Some("ρ\"β\\—"));
    }
}
