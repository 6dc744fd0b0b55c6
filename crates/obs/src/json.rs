//! A minimal JSON value with serializer and parser.
//!
//! The observability layer promises a structured JSON export format while
//! staying dependency-free, so it carries its own ~200-line JSON
//! implementation instead of pulling in `serde_json`. Numbers are `f64`,
//! exact for integers up to [`MAX_SAFE_INTEGER`]; [`JsonValue::as_u64`]
//! refuses anything larger rather than hand back a rounded value.
//! Non-finite numbers serialize as `null`, which `validate` rejects
//! upstream anyway.

use orv_types::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// The largest integer a JSON number carries exactly: 2^53 − 1. Above
/// it, neighbouring integers share one `f64`.
pub const MAX_SAFE_INTEGER: u64 = (1 << 53) - 1;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys sorted, so output is deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::Config(format!(
                "trailing JSON content at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integral number in
    /// `0..=MAX_SAFE_INTEGER` — the integers it stands for exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INTEGER as f64 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Required object member, as an error otherwise.
    pub fn req(&self, key: &str) -> Result<&JsonValue> {
        self.get(key)
            .ok_or_else(|| Error::Config(format!("missing JSON field `{key}`")))
    }

    /// Required numeric member.
    pub fn req_f64(&self, key: &str) -> Result<f64> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| Error::Config(format!("JSON field `{key}` is not a number")))
    }

    /// Required non-negative integer member.
    pub fn req_u64(&self, key: &str) -> Result<u64> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| Error::Config(format!("JSON field `{key}` is not a u64")))
    }

    /// Required string member.
    pub fn req_str(&self, key: &str) -> Result<&str> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| Error::Config(format!("JSON field `{key}` is not a string")))
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Number(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}
impl From<BTreeMap<String, JsonValue>> for JsonValue {
    fn from(v: BTreeMap<String, JsonValue>) -> Self {
        JsonValue::Object(v)
    }
}

/// Build a [`JsonValue::Object`] from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write_number(f, *n),
            JsonValue::String(s) => write_string(f, s),
            JsonValue::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `n` as [`JsonValue`] prints a number: non-finite as `null`,
/// integral values below 10^15 without a fraction, anything else in
/// Rust's shortest round-trip form. Writers that stream JSON without
/// building a [`JsonValue`] call this, so their bytes match.
pub fn write_number(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Write `s` quoted and escaped as [`JsonValue`] prints a string: `"`,
/// `\\`, `\n`, `\r` and `\t` by their short escapes, other control
/// characters as `\u00XX`, everything else verbatim.
pub fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    // Every escaped character is ASCII, so each cut lands on a char
    // boundary and the runs between escapes are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match short {
            Some(esc) => out.write_str(esc)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so hostile input (`[[[[…`) would otherwise
/// overflow the stack; our deepest document (a federated `QueryTrace`)
/// nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::Config(format!("JSON parse error at byte {}: {what}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Parse one value sitting inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b'[' | b'{' if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            b'[' => self.array(depth + 1),
            b'{' => self.object(depth + 1),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected `{}`", c as char))),
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 bytes in number"))?;
        // `f64::from_str` rounds an out-of-range literal to infinity; JSON
        // has no such value (the writer prints non-finite numbers as
        // `null`), so accepting it would not round-trip.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            Ok(_) => Err(self.err(&format!("number `{text}` out of range"))),
            Err(_) => Err(self.err(&format!("bad number `{text}`"))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(self.err(&format!("bad escape `\\{}`", c as char))),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape in
                    // one go, validating only the run, so parsing stays
                    // linear in the input. A run that reaches end-of-input
                    // is reported as unterminated by the next iteration.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Parse an array whose elements sit at nesting `depth`.
    fn array(&mut self, depth: usize) -> Result<JsonValue> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Parse an object whose member values sit at nesting `depth`.
    fn object(&mut self, depth: usize) -> Result<JsonValue> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Number(1000.0));
    }

    #[test]
    fn nested_round_trip() {
        let v = obj([
            ("name", "grace_hash".into()),
            ("phases", JsonValue::Array(vec![1.5.into(), 2u64.into()])),
            (
                "nested",
                obj([("quote\"", "line\nbreak\ttab \u{1}".into())]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_and_pretty_input_accepted() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] ,\n \"b\" : { } } ").unwrap();
        assert_eq!(v.req("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.req_u64("a").is_err());
        assert!(v.get("b").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn errors_reported() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
        for text in ["1e999", "-1e999", "[0,1e400]"] {
            let err = JsonValue::parse(text).unwrap_err().to_string();
            assert!(err.contains("out of range"), "{text}: {err}");
        }
    }

    #[test]
    fn accessors() {
        let v = obj([("n", 7u64.into()), ("s", "x".into())]);
        assert_eq!(v.req_u64("n").unwrap(), 7);
        assert_eq!(v.req_f64("n").unwrap(), 7.0);
        assert_eq!(v.req_str("s").unwrap(), "x");
        assert!(v.req("missing").is_err());
        assert!(v.req_str("n").is_err());
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        // Integers stop being exact above 2^53 − 1, and so does `as_u64`.
        let max = MAX_SAFE_INTEGER as f64;
        assert_eq!(JsonValue::Number(max).as_u64(), Some(MAX_SAFE_INTEGER));
        for big in [max + 1.0, 2f64.powi(60), 2f64.powi(64), f64::MAX] {
            assert_eq!(JsonValue::Number(big).as_u64(), None, "{big}");
        }
        let past = JsonValue::parse("{\"n\":9007199254740993}").unwrap();
        assert!(past.req_u64("n").is_err());
    }

    #[test]
    fn multi_byte_runs_copy_whole() {
        // 2-, 3- and 4-byte scalars, alone and in runs, as values and keys.
        let text = "{\"ключ\":\"é\",\"日本語\":\"a🦀b🦀🦀 — naïve\"}";
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.req_str("ключ").unwrap(), "é");
        assert_eq!(v.req_str("日本語").unwrap(), "a🦀b🦀🦀 — naïve");
        assert_eq!(v.to_string(), text, "writer and parser agree");
    }

    #[test]
    fn run_ending_at_end_of_input_is_unterminated() {
        for text in ["\"abc", "\"日本", "\"a\\nb", "{\"k\":\"v"] {
            let err = JsonValue::parse(text).unwrap_err().to_string();
            assert!(err.contains("unterminated string"), "{text}: {err}");
        }
        // A dangling escape is its own error.
        let err = JsonValue::parse("\"abc\\").unwrap_err().to_string();
        assert!(err.contains("bad escape"), "{err}");
    }

    #[test]
    fn escapes_adjacent_to_multi_byte_characters() {
        assert_eq!(
            JsonValue::parse("\"é\\n日\\\"本\\\\🦀\\u00e9ü\\t\"").unwrap(),
            JsonValue::String("é\n日\"本\\🦀éü\t".into())
        );
        // Round trip through the writer's own escaping.
        let v = JsonValue::String("¡\"quoted\"\n\\slash\\ ✓\u{1}✓".into());
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of string content: quadratic re-validation took seconds.
        let body = "x✓".repeat(256 * 1024);
        let text = format!("[\"{body}\",\"{body}\"]");
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.as_array().unwrap()[1], JsonValue::String(body));
    }

    #[test]
    fn nesting_is_bounded_not_stack_bounded() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            // The bound itself round-trips (innermost value: a scalar).
            let ok = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            let v = JsonValue::parse(&ok).unwrap();
            assert_eq!(v.to_string(), ok);
            // One level more, and far beyond any stack, is a typed error —
            // closed or (as hostile input would be) left open.
            for levels in [MAX_DEPTH + 1, 1_000_000] {
                let closed = format!("{}0{}", open.repeat(levels), close.repeat(levels));
                for text in [closed, open.repeat(levels)] {
                    let err = JsonValue::parse(&text).unwrap_err();
                    assert!(
                        matches!(&err, Error::Config(m) if m.contains("nesting")),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn string_writer_matches_a_per_char_escaper() {
        // The escaper `Display` used before runs were copied whole.
        fn per_char(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain",
            every_ascii.as_str(),
            "é\u{1}日\"本\\🦀\u{7f}\u{1f}",
            "\n\n",
        ] {
            let mut out = String::new();
            write_string(&mut out, s).unwrap();
            assert_eq!(out, per_char(s), "{s:?}");
            assert_eq!(JsonValue::String(s.into()).to_string(), out);
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            JsonValue::parse("\"a\\u0041\\u00e9\"").unwrap(),
            JsonValue::String("aAé".into())
        );
    }
}
