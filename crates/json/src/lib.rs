//! Self-contained JSON support for SSRESF interchange artifacts.
//!
//! The workspace builds in offline environments, so instead of an external
//! JSON dependency it carries this small value model with a strict
//! recursive-descent parser and a pretty-printer. Numbers are `f64` and are
//! printed with Rust's shortest round-trip formatting, so
//! `parse(&v.to_string_pretty())` reproduces every finite double exactly.
//! Objects preserve insertion order.
//!
//! Types that cross a process or disk boundary implement [`ToJson`] and
//! [`FromJson`] in the crate that defines them; decoders read object
//! members through [`field`].

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Key/value pairs in insertion order (duplicate keys are kept verbatim;
    /// [`Value::get`] returns the first match).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` for every other variant.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup on arrays; `None` for every other variant.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a usize, when it is one exactly (no fraction, in range).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The number as a u64, when it is one exactly (no fraction, in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing-newline-free body.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0, true);
        out
    }

    /// Serializes without any whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0, false);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value::Object`] from `(key, value)` pairs.
pub fn object(members: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A type with a JSON encoding.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Value;
}

/// A type that decodes from its JSON encoding.
pub trait FromJson: Sized {
    /// Decodes `value`.
    ///
    /// # Errors
    ///
    /// Returns a description when `value` is not a valid encoding.
    fn from_json(value: &Value) -> Result<Self, String>;
}

/// Decodes member `key` of an object.
///
/// # Errors
///
/// Returns a description naming `key` when the member is missing or
/// invalid.
pub fn field<T: FromJson>(value: &Value, key: &str) -> Result<T, String> {
    let member = value
        .get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?;
    T::from_json(member).map_err(|e| format!("key {key:?}: {e}"))
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "expected a bool".into())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, String> {
        value.as_f64().ok_or_else(|| "expected a number".into())
    }
}

/// Unsigned integers travel as exact numbers; decoding rejects fractions
/// and values outside the type's range instead of truncating them.
macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, String> {
                value
                    .as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected an exact {}", stringify!($t)))
            }
        }
    )*};
}

unsigned_json!(u16, u32, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| "expected a string".into())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, String> {
        value
            .as_array()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

fn write_value(out: &mut String, value: &Value, indent: usize, pretty: bool) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent + 1, pretty);
                write_value(out, item, indent + 1, pretty);
            }
            newline_indent(out, indent, pretty);
            out.push(']');
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent + 1, pretty);
                write_string(out, key);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, item, indent + 1, pretty);
            }
            newline_indent(out, indent, pretty);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's Display for f64 is the shortest string that parses back to
        // the same double, so serialization is lossless.
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/Inf; none of our producers emit them, but a
        // defined encoding beats a panic inside report generation.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at line {} column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: deeper documents are rejected rather than allowed to
/// exhaust the parser's stack (the conformance fuzzer feeds this parser).
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits must follow a decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits must follow an exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("number out of range"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = parse(r#"{"b": [1, {"x": null}], "a": 2}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("b").unwrap().at(0).unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("b").unwrap().at(1).unwrap().get("x"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{1F600} \u{07}";
        let encoded = Value::from(original).to_string_compact();
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate rejected");
    }

    #[test]
    fn doubles_round_trip_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0,
            std::f64::consts::PI,
            1e-300,
            1.7976931348623157e308,
            0.1 + 0.2,
        ] {
            let text = Value::Number(n).to_string_compact();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(n.to_bits(), back.to_bits(), "{n} -> {text} -> {back}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = object([
            ("name", Value::from("soc_1")),
            ("sizes", Value::from(vec![3usize, 1, 4])),
            ("empty_list", Value::Array(vec![])),
            ("empty_obj", Value::Object(vec![])),
            ("nested", object([("ok", Value::from(true))])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"sizes\": [\n    3,"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "\u{0007}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn reports_error_positions() {
        let err = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn integers_at_or_past_two_to_the_64_are_rejected_not_saturated() {
        let two_to_the_64 = parse("18446744073709551616").unwrap();
        assert_eq!(two_to_the_64.as_u64(), None);
        assert_eq!(two_to_the_64.as_usize(), None);
        assert!(u64::from_json(&two_to_the_64).is_err());
        // The largest double below 2^64 is still an exact u64.
        let below = parse("18446744073709549568").unwrap();
        assert_eq!(below.as_u64(), Some(18_446_744_073_709_549_568));
    }

    #[test]
    fn field_decodes_members_and_names_the_failing_key() {
        let v = parse(r#"{"n": 7, "xs": [1, 2.5], "s": "hi"}"#).unwrap();
        assert_eq!(field::<u16>(&v, "n"), Ok(7));
        assert_eq!(field::<String>(&v, "s"), Ok("hi".to_owned()));
        assert_eq!(
            field::<u32>(&v, "absent"),
            Err("missing key \"absent\"".into())
        );
        assert_eq!(field::<Vec<f64>>(&v, "xs"), Ok(vec![1.0, 2.5]));
        let err = field::<Vec<u64>>(&v, "xs").unwrap_err();
        assert!(
            err.starts_with("key \"xs\": [1]: expected an exact u64"),
            "{err}"
        );
        let wide = parse("65536").unwrap();
        assert!(u16::from_json(&wide).is_err());
        assert_eq!(u32::from_json(&wide), Ok(65536));
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }
}
