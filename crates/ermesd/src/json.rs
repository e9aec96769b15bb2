//! A small, dependency-free JSON layer for the spec format.
//!
//! The build container has no registry access, so the CLI parses and
//! prints its spec files with this hand-rolled module instead of
//! `serde_json`. It implements the full JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null) with line/column error
//! reporting; numbers are stored as `f64`, which is exact for every
//! latency/area magnitude the spec format carries.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in declaration order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if exactly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// layout, `serde_json::to_string_pretty` style.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Appends `s` as a quoted JSON string.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
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

/// A parse or schema error, with 1-based position for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    line: usize,
    column: usize,
}

impl JsonError {
    /// A schema-level error (no source position).
    #[must_use]
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            line: 0,
            column: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(
                f,
                "{} at line {} column {}",
                self.message, self.line, self.column
            )
        }
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Specs nest five
/// levels deep; the parser recurses once per level, so the cap is what
/// keeps a hostile body (a megabyte of `[`) from exhausting the parsing
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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
            message: message.into(),
            line,
            column,
        }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
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
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the spec
                            // format; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(self.error(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // backslash in one step. Both stop bytes are ASCII,
                    // which never occurs inside a multi-byte UTF-8
                    // sequence, so the run boundaries are char
                    // boundaries; validating per character instead would
                    // make parsing quadratic in the document size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// [`JsonError`] with line/column on malformed input, trailing garbage,
/// or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON document"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null}"#).expect("valid");
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn pretty_print_roundtrips() {
        let v = parse(
            r#"{"name":"p","latency":5,"pareto":[{"latency":3,"area":2.0}],"empty":[],"none":{}}"#,
        )
        .expect("valid");
        let text = v.to_string_pretty();
        assert_eq!(parse(&text).expect("reparses"), v);
        assert!(text.contains("\"latency\": 5"));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("{\n  \"a\": }").expect_err("malformed");
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        let v = Value::Number(5280.0);
        assert_eq!(v.to_string_pretty(), "5280");
        assert_eq!(v.as_u64(), Some(5280));
        assert_eq!(Value::Number(0.25).to_string_pretty(), "0.25");
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn nesting_is_accepted_up_to_the_cap() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let mut value = parse(&nested(MAX_DEPTH)).expect("at the cap");
        for _ in 1..MAX_DEPTH {
            value = value.as_array().expect("array")[0].clone();
        }
        assert_eq!(value, Value::Array(Vec::new()));
        let mixed = format!(
            "{}1{}",
            r#"{"a":["#.repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&mixed).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let text = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&text).expect_err("one level past the cap");
        assert_eq!(
            err.to_string(),
            format!(
                "nesting deeper than {MAX_DEPTH} levels at line 1 column {}",
                MAX_DEPTH + 1
            )
        );
        // A megabyte of `[` fails at the same spot instead of recursing.
        assert_eq!(parse(&"[".repeat(1 << 20)), Err(err));
        let objects = format!("{}1", r#"{"a":"#.repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn unicode_and_escapes_roundtrip() {
        let original = Value::String("π \"q\" \\ tab\t".to_string());
        let text = original.to_string_pretty();
        assert_eq!(parse(&text).expect("valid"), original);
    }
}
