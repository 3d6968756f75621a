//! Offline stand-in for `serde_json`.
//!
//! Renders and parses JSON text through the shim `serde::Content` tree:
//! [`to_string_pretty`] / [`to_value`] lower any `serde::Serialize`
//! value, [`from_str`] parses text and lifts it through
//! `serde::Deserialize`. The [`Value`] enum and [`json!`] macro cover
//! the dynamic-document usage in the workspace's report generators.

use serde::{Content, Deserialize, Serialize};

/// The map type used by [`Value::Object`] (order-preserving).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts `value` under `key`, replacing any previous entry.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A dynamically typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Serialize for Value {
    fn serialize_content(&self) -> Content {
        match self {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::U64(v) => Content::U64(*v),
            Value::I64(v) => Content::I64(*v),
            Value::F64(v) => Content::F64(*v),
            Value::String(s) => Content::Str(s.clone()),
            Value::Array(items) => {
                Content::Seq(items.iter().map(Serialize::serialize_content).collect())
            }
            Value::Object(map) => Content::Map(
                map.iter()
                    .map(|(k, v)| (k.clone(), v.serialize_content()))
                    .collect(),
            ),
        }
    }
}

impl Deserialize for Value {
    fn deserialize_content(content: &Content) -> Result<Self, String> {
        Ok(content_to_value(content))
    }
}

fn content_to_value(content: &Content) -> Value {
    match content {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(*b),
        Content::U64(v) => Value::U64(*v),
        Content::I64(v) => Value::I64(*v),
        Content::F64(v) => Value::F64(*v),
        Content::Str(s) => Value::String(s.clone()),
        Content::Seq(items) => Value::Array(items.iter().map(content_to_value).collect()),
        Content::Map(entries) => {
            let mut map = Map::new();
            for (k, v) in entries {
                map.insert(k.clone(), content_to_value(v));
            }
            Value::Object(map)
        }
    }
}

/// Errors from [`from_str`] / conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Converts any serializable value into a [`Value`] tree.
///
/// # Errors
///
/// Infallible for the shim's data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(content_to_value(&value.serialize_content()))
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        // JSON has no infinities; match serde_json by emitting null.
        "null".to_string()
    }
}

fn write_pretty(out: &mut String, content: &Content, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => out.push_str(&render_f64(*v)),
        Content::Str(s) => escape_into(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_pretty(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.serialize_content(), 0);
    Ok(out)
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    fn write_compact(out: &mut String, content: &Content) {
        match content {
            Content::Null => out.push_str("null"),
            Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Content::U64(v) => out.push_str(&v.to_string()),
            Content::I64(v) => out.push_str(&v.to_string()),
            Content::F64(v) => out.push_str(&render_f64(*v)),
            Content::Str(s) => escape_into(out, s),
            Content::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(out, item);
                }
                out.push(']');
            }
            Content::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    write_compact(out, v);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write_compact(&mut out, &value.serialize_content());
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Content::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Content::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Content::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(&format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Content) -> Result<Content, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Content::I64)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser::new(text);
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after JSON value"));
    }
    T::deserialize_content(&content).map_err(Error)
}

/// Builds a [`Value`] from JSON-ish literal syntax.
///
/// Supports the object/array/scalar shapes the workspace uses; arbitrary
/// serializable expressions are lowered through [`to_value`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $(
            map.insert(
                $key.to_string(),
                $crate::to_value(&$val).expect("json! value"),
            );
        )*
        $crate::Value::Object(map)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $($crate::to_value(&$val).expect("json! value")),*
        ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_roundtrip() {
        let text = r#"{"a": 1, "b": [true, null, "x\n"], "c": -2, "d": 1.5}"#;
        let v: Value = from_str(text).unwrap();
        match &v {
            Value::Object(m) => {
                assert_eq!(m.get("a"), Some(&Value::U64(1)));
                assert_eq!(m.get("c"), Some(&Value::I64(-2)));
                assert_eq!(m.get("d"), Some(&Value::F64(1.5)));
            }
            other => panic!("expected object, got {other:?}"),
        }
        let rendered = to_string(&v).unwrap();
        let again: Value = from_str(&rendered).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{nope").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
        assert!(from_str::<Value>(r#"{"a": }"#).is_err());
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({ "passed": true, "n": 3u64 });
        match v {
            Value::Object(m) => {
                assert_eq!(m.get("passed"), Some(&Value::Bool(true)));
                assert_eq!(m.get("n"), Some(&Value::U64(3)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn pretty_print_shape() {
        let v = json!({ "k": [1u64] });
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"k\": [\n    1\n  ]\n}");
    }
}
