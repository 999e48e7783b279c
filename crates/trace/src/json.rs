//! The workspace's one JSON codec: a string escaper shared by every
//! writer (the trace exporters, `eblow-eval`'s bench artifact) and a
//! parser for the full value grammar, enough to read those artifacts back
//! with no external crates.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object value, in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object field lookup (first match, insertion order).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }
}

/// Escapes `s` for embedding inside a JSON string literal (no
/// surrounding quotes). Handles `"`, `\`, and all control characters
/// (named escapes for `\n`/`\r`/`\t`, `\u00XX` otherwise).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Quotes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} must be a string")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            parse_string(bytes, pos).map(Value::Str)
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {start}"));
            }
            std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| e.to_string())?
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
    }
}

/// The body of a string literal whose opening quote is already consumed;
/// leaves `pos` after the closing quote.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through intact.
                let ch_len = match b {
                    0..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated utf-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| format!("bad utf-8: {e}"))?);
                *pos += ch_len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{0} \u{1f}"), "\\u0000 \\u001f");
        assert_eq!(escape("unicode é 中"), "unicode é 中");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn quoted_strings_parse_back_to_themselves() {
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "tab\tnl\ncr\r",
            "\u{1}\u{1f}",
            "é 中 🦀",
        ] {
            assert_eq!(parse(&quote(s)).unwrap(), Value::Str(s.to_string()));
        }
    }

    #[test]
    fn parses_the_full_value_grammar() {
        let v = parse(
            " {\"schema\": \"x/1\", \"n\": -1.5e2, \"ok\": true, \"no\": false, \
             \"none\": null, \"rows\": [1, {\"k\": \"v\"}, []], \"empty\": {}} ",
        )
        .unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("x/1"));
        assert_eq!(v.get("n").and_then(Value::as_num), Some(-150.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("no"), Some(&Value::Bool(false)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("k").and_then(Value::as_str), Some("v"));
        assert_eq!(
            v.get("empty").and_then(Value::as_obj).map(<[_]>::len),
            Some(0)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(
            parse("\"\\u00e9\\/\"").unwrap(),
            Value::Str("é/".to_string())
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{1: 2}",
            "\"open",
            "\"\\x\"",
            "tru",
            "1 2",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
