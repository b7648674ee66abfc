//! A small dependency-free JSON value type with a parser and writers.
//!
//! The benchmark harness and the table binaries write their result
//! documents as JSON and the benchmark reads its own back; this module is
//! what they build on, in place of `serde`/`serde_json`. Models, selectors
//! and tensors are not JSON: they persist in the checksummed binary artifact
//! (`crates/nn/src/artifact.rs`).
//!
//! # Examples
//!
//! ```
//! use ensembler_tensor::json::JsonValue;
//!
//! let value = JsonValue::parse(r#"{"workload": "inproc", "p50_ms": [4.9, 5.1]}"#)?;
//! let p50 = value.require("p50_ms")?.as_array()?;
//! assert_eq!(p50[1].as_f64()?, 5.1);
//! assert_eq!(JsonValue::parse(&value.render())?, value);
//! # Ok::<(), ensembler_tensor::json::JsonError>(())
//! ```

use std::fmt;

/// Error produced when parsing or interpreting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as indented JSON.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (open_sep, item_sep, close_sep) = match indent {
            Some(width) => {
                let pad = " ".repeat(width * (depth + 1));
                let close = " ".repeat(width * depth);
                (
                    format!("\n{pad}"),
                    format!(",\n{pad}"),
                    format!("\n{close}"),
                )
            }
            None => (String::new(), ",".to_string(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity literals; follow
                    // JavaScript's JSON.stringify and write null so the
                    // document stays parseable (readers then fail loudly
                    // with "expected number, found Null").
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                out.push_str(&open_sep);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    item.write(out, indent, depth + 1);
                }
                out.push_str(&close_sep);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                out.push_str(&open_sep);
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                out.push_str(&close_sep);
                out.push('}');
            }
        }
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks a key up in an object, erroring when absent.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the missing key.
    pub fn require(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing object key {key:?}")))
    }

    /// Interprets the value as a number.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected number, found {other:?}"))),
        }
    }

    /// Interprets the value as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not a non-negative whole number.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(JsonError::new(format!(
                "expected unsigned integer, found {n}"
            )));
        }
        Ok(n as usize)
    }

    /// Interprets the value as an array.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, found {other:?}"))),
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(JsonError::new(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "unterminated array at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "unterminated object at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
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
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(JsonError::new(format!("invalid escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::new(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-2.5").unwrap(), JsonValue::Number(-2.5));
        assert_eq!(
            JsonValue::parse(r#""a\nb""#).unwrap(),
            JsonValue::String("a\nb".to_string())
        );
        let parsed = JsonValue::parse(r#"{"xs": [1, 2, 3], "ok": false}"#).unwrap();
        let xs = parsed.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[2].as_usize().unwrap(), 3);
        assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(parsed.get("missing").is_none());
        assert!(parsed.require("missing").is_err());
    }

    #[test]
    fn render_round_trips() {
        let value = JsonValue::Object(vec![
            ("name".to_string(), JsonValue::String("x\"y".to_string())),
            (
                "data".to_string(),
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(-0.5)]),
            ),
            ("empty".to_string(), JsonValue::Array(vec![])),
            ("flag".to_string(), JsonValue::Null),
        ]);
        for text in [value.render(), value.render_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), value);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_render_integers_without_fraction() {
        assert_eq!(JsonValue::Number(4.0).render(), "4");
        assert_eq!(JsonValue::Number(0.25).render(), "0.25");
    }

    #[test]
    fn non_finite_numbers_stay_parseable() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = JsonValue::Array(vec![JsonValue::Number(bad)]).render();
            let parsed = JsonValue::parse(&doc).expect("document must stay valid JSON");
            // The value degrades to null, which typed readers reject loudly.
            assert_eq!(parsed, JsonValue::Array(vec![JsonValue::Null]));
            assert!(parsed.as_array().unwrap()[0].as_f64().is_err());
        }
    }

    #[test]
    fn typed_accessors_validate() {
        let v = JsonValue::parse("[1, 2.5]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_usize().unwrap(), 1);
        assert!(items[1].as_usize().is_err());
        assert_eq!(items[1].as_f64().unwrap(), 2.5);
        assert!(JsonValue::Bool(true).as_f64().is_err());
        assert!(JsonValue::Null.as_array().is_err());
    }
}
