//! A miniature JSON reader/writer.
//!
//! The workspace builds offline (no serde). This crate writes its
//! debug dumps with it (write-only: no loader reads them back), and the
//! golden-corpus manifest is written and read with it, so the dialect
//! is deliberately
//! narrow: objects, arrays, strings (no escapes beyond `\"`, `\\`, `\n`,
//! `\t`, `\r`, `\/`, `\b`, `\f`, `\uXXXX` for ASCII), unsigned decimal
//! integers up to `u64::MAX`, `true`/`false`/`null`. Floats and negative
//! numbers are rejected — every numeric field in the debug formats is an
//! unsigned integer, and `u64` values must survive exactly (a detour
//! through `f64` would corrupt values above 2^53).

use crate::error::{PersistError, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the only number form the dialect admits).
    Num(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys sorted for deterministic output.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `u64`, or a corruption error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_err(what, "unsigned integer", other)),
        }
    }

    /// The value as `&str`, or a corruption error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err(what, "string", other)),
        }
    }

    /// The value as an array slice, or a corruption error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_err(what, "array", other)),
        }
    }

    /// Fetch a required object field.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Json> {
        match self {
            Json::Obj(map) => map
                .get(key)
                .ok_or_else(|| PersistError::Corrupt(format!("missing field \"{key}\""))),
            other => Err(type_err(key, "object", other)),
        }
    }
}

fn type_err(what: &str, expected: &str, got: &Json) -> PersistError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    PersistError::Corrupt(format!("\"{what}\": expected {expected}, found {kind}"))
}

// ---- writer ---------------------------------------------------------------

/// Serialize with two-space indentation (stable field order).
pub fn to_string_pretty(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Json, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Arrays of scalars/short arrays stay on one line; this keeps
            // record lists diffable without exploding line counts.
            let flat = items
                .iter()
                .all(|i| matches!(i, Json::Num(_) | Json::Str(_) | Json::Arr(_)));
            if flat {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(out, item, depth);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    write_value(out, item, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, item)) in map.iter().enumerate() {
                indent(out, depth + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item, depth + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(out, depth);
            out.push('}');
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ---------------------------------------------------------------

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

/// Nesting bound: recursive descent must not let a hand-crafted file of
/// `[[[[…` overflow the stack; past this depth the document is Corrupt.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> PersistError {
        PersistError::Corrupt(format!("json at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Json::Null)
            }
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are not part of this dialect")),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not part of this dialect"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|e| self.err(&format!("bad integer '{text}': {e}")))
    }

    fn string(&mut self) -> Result<String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| self.err("non-ascii \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?,
                        );
                    }
                    _ => return Err(self.err("unknown escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(b) => {
                    // Re-decode multi-byte UTF-8 starting at b.
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    if start + width > self.bytes.len() {
                        return Err(self.err("truncated utf-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + width])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json> {
        self.enter()?;
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.enter()?;
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Json)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn roundtrip_nested() {
        let v = obj(&[
            ("format", Json::Str("tlr-trace-v1".into())),
            ("fingerprint", Json::Num(u64::MAX)),
            (
                "records",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(0), Json::Num(1), Json::Num(5)]),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
        ]);
        let text = to_string_pretty(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_max_survives() {
        let text = format!("{{\"n\": {}}}", u64::MAX);
        let v = parse(&text).unwrap();
        assert_eq!(v.field("n").unwrap().as_u64("n").unwrap(), u64::MAX);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f λ".into());
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn dialect_rejects_floats_and_negatives() {
        assert!(parse("1.5").is_err());
        assert!(parse("-3").is_err());
        assert!(parse("1e9").is_err());
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "{} extra",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // At the boundary: 128 levels parse, 129 do not.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn accessors_report_helpful_errors() {
        let v = parse("{\"a\": [1]}").unwrap();
        assert!(v.field("missing").is_err());
        assert!(v.field("a").unwrap().as_u64("a").is_err());
        assert_eq!(v.field("a").unwrap().as_arr("a").unwrap().len(), 1);
    }
}
