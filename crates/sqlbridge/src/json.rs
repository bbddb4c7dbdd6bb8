//! A minimal JSON document builder, serializer and parser.
//!
//! The workspace builds without network access, so instead of depending on
//! `serde_json` this module provides the small subset the `migrate` CLI and
//! the experiment harness need: building a tree of JSON values, rendering
//! it with correct string escaping (compact or indented), and parsing
//! documents the workspace itself wrote (e.g. `BENCH_results.json` for the
//! deterministic-stats CI check).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i128),
    /// A floating-point number. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds (or appends) a key to an object; panics on non-objects, which
    /// indicates a bug at the construction site.
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        match self {
            Json::Object(entries) => entries.push((key.into(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object; `None` on missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (`None` for non-integers; floats are not
    /// coerced).
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a float (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload (`None` for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// Supports the full value grammar this module serializes: objects,
    /// arrays, strings with escapes (including `\uXXXX`), integers, floats,
    /// booleans and `null`. Trailing content after the top-level value is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description with a byte offset on malformed
    /// input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!(
                "trailing content at byte {} after the top-level value",
                parser.pos
            ));
        }
        Ok(value)
    }

    /// Serializes the value compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes the value with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_sequence(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Object(entries) => {
                write_sequence(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (key, value) = &entries[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, and documents arrive from outside the
/// program (job-server request lines), so the bound keeps one line from
/// overflowing the stack of the thread that parses it. The documents the
/// program itself writes nest a few levels deep.
const MAX_DEPTH: usize = 128;

/// A recursive-descent parser over the raw bytes of a JSON document.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current byte.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected byte `{}` at offset {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object one level deeper, failing instead when
    /// that level would exceed [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            entries.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not produced by the
                            // serializer; reject rather than mis-decode.
                            let c = char::from_u32(code).ok_or_else(|| {
                                format!("unsupported code point in \\u escape at byte {}", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("invalid escape {other:?} at byte {}", self.pos))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` as one slice.
                    // Both delimiters are ASCII, so the run ends on a char
                    // boundary (and the input is a &str, so it is UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| "invalid UTF-8 inside string".to_string())?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits and punctuation are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        } else {
            // An integer too wide for `i128` is still a number: the writer
            // prints a large `Float` as one, with no exponent.
            text.parse::<i128>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        }
    }
}

fn write_sequence(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
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
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
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

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl From<u128> for Json {
    fn from(n: u128) -> Json {
        // Saturate rather than wrap: a saturated search-space count must not
        // come out negative in the serialized document.
        Json::Int(i128::try_from(n).unwrap_or(i128::MAX))
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_rendering() {
        let doc = Json::object()
            .with("name", Json::str("a\"b"))
            .with("n", Json::Int(3))
            .with("ok", Json::Bool(true))
            .with("items", Json::Array(vec![Json::Null, Json::Float(1.5)]));
        assert_eq!(
            doc.to_compact_string(),
            r#"{"name":"a\"b","n":3,"ok":true,"items":[null,1.5]}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let doc = Json::object().with("xs", Json::Array(vec![Json::Int(1)]));
        assert_eq!(doc.to_pretty_string(), "{\n  \"xs\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(
            Json::str("a\nb\u{1}").to_compact_string(),
            "\"a\\nb\\u0001\""
        );
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(Json::Array(vec![]).to_pretty_string(), "[]\n");
        assert_eq!(Json::object().to_compact_string(), "{}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
    }

    #[test]
    fn parse_round_trips_what_the_serializer_writes() {
        let doc = Json::object()
            .with("name", Json::str("Oracle-2 \"quoted\"\n"))
            .with("succeeded", Json::Bool(true))
            .with("iterations", Json::Int(64))
            .with("time", Json::Float(194.5))
            .with("budget", Json::Float(1e300))
            .with("nested", Json::object().with("nullish", Json::Null))
            .with(
                "rows",
                Json::Array(vec![Json::Int(-3), Json::Bool(false), Json::str("x")]),
            );
        for rendered in [doc.to_pretty_string(), doc.to_compact_string()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn parse_accessors_navigate_documents() {
        let doc = Json::parse(r#"{"a": [1, 2.5, "s"], "b": {"c": true}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[0].as_i128(),
            Some(1)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("s")
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_bool(),
            Some(true)
        );
        assert!(doc.get("missing").is_none());
        assert!(doc.get("a").unwrap().get("not-an-object").is_none());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "[1] 2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A long string parses in time linear in its length: each run of
    /// plain characters is copied as one slice, not re-validated from the
    /// current byte to the end of the input once per character.
    #[test]
    fn parse_round_trips_a_megabyte_string_quickly() {
        let unit = "plain ascii, é ü 漢字 🦀, \"quoted\" \\ back\tslash\n\u{1} ";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = Json::object().with("result", Json::str(&text));
        let rendered = doc.to_compact_string();
        assert!(rendered.len() > 1 << 20);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&rendered).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            rendered.len()
        );
    }

    #[test]
    fn parse_rejects_nesting_past_the_bound() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        assert_eq!(Json::parse("\"a\\u00e9b\"").unwrap(), Json::str("a\u{e9}b"));
    }

    #[test]
    fn huge_u128_saturates_instead_of_wrapping_negative() {
        let rendered = Json::from(u128::MAX).to_compact_string();
        assert!(!rendered.starts_with('-'), "{rendered}");
        assert_eq!(rendered, i128::MAX.to_string());
    }
}
