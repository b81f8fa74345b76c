//! The suite's one lossless JSON codec.
//!
//! Every JSON document the suite reads or writes goes through
//! [`JsonValue`]: [`report::Json`](crate::report::Json) reports, the
//! daemon's NDJSON frames, the fleet's memo entries and trajectories, and
//! [`trace::chrome_json`](crate::trace::chrome_json) traces. Raw counter
//! values are `u64` and must survive bit-exactly, so the value type
//! distinguishes [`JsonValue::UInt`] from [`JsonValue::Num`]. Reals are
//! encoded with Rust's shortest-round-trip `Display`, so every finite `f64`
//! parses back to the same bits; the non-finite values a metric formula
//! can produce are spelled as the strings `"NaN"`, `"inf"` and `"-inf"`
//! (JSON has no literal for them).

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so the bound keeps one hostile line from
/// overflowing the stack; every document this suite writes nests only a
/// few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal without fraction or exponent —
    /// counter values keep full 64-bit precision.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a real; integers widen, the string spellings of the
    /// non-finite values parse back.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            JsonValue::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode a real losslessly: shortest round-trip decimal for finite
    /// values, quoted spellings for the rest.
    pub fn real(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Num(v)
        } else if v.is_nan() {
            JsonValue::Str("NaN".to_string())
        } else if v > 0.0 {
            JsonValue::Str("inf".to_string())
        } else {
            JsonValue::Str("-inf".to_string())
        }
    }

    /// Serialize to compact JSON (no insignificant whitespace — one frame
    /// fits one NDJSON line).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    // Callers construct non-finite reals via `real()`; a raw
                    // Num(NaN) still must emit valid JSON.
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => encode_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document. Trailing garbage after the value is an
    /// error (a frame is exactly one value per line).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Convenience builder for objects with literal keys.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn encode_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parse an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // `pos` ends on the escape's last hex digit.
                            let at = self.pos - 1;
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: ASCII-only serializers
                                // write astral characters as a pair.
                                let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                                    Some(b"\\u") => self.hex4(self.pos + 3)?,
                                    _ => return Err(format!("lone high surrogate at byte {at}")),
                                };
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate at byte {at}"));
                                }
                                self.pos += 6;
                                char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                            } else {
                                // `None` only for 0xDC00..0xE000.
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| format!("lone low surrogate at byte {at}"))?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain bytes up to the next quote or escape:
                    // both are ASCII, so the run ends on a character
                    // boundary of valid UTF-8.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        match self.bytes.get(at..at + 4) {
            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => {
                Ok(hex.iter().fold(0, |code, &b| {
                    (code << 4) | (b as char).to_digit(16).expect("checked hex digit")
                }))
            }
            Some(_) => Err(format!("bad \\u escape at byte {at}")),
            None => Err("truncated \\u escape".to_string()),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_pairs_combine_and_lone_halves_are_rejected() {
        let pair = JsonValue::parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(pair, JsonValue::Str("a\u{1F600}b".to_string()));
        assert_eq!(JsonValue::parse(r#""\u00e9\u0041""#).unwrap(), JsonValue::Str("éA".into()));
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\u0041""#, r#""\ude00""#] {
            assert!(JsonValue::parse(bad).unwrap_err().contains("surrogate"), "{bad}");
        }
        for bad in [r#""\u12""#, r#""\u+123""#, r#""\uzzzz""#] {
            assert!(JsonValue::parse(bad).unwrap_err().contains("\\u escape"), "{bad}");
        }
    }

    #[test]
    fn u64_counts_round_trip_bit_exactly() {
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = JsonValue::UInt(v).encode();
            assert_eq!(JsonValue::parse(&text).unwrap(), JsonValue::UInt(v), "{v}");
        }
    }

    #[test]
    fn f64_reals_round_trip_bit_exactly() {
        for v in [0.1 + 0.2, 2.5e-3, 1.0 / 3.0, -1.5e-308, 6.02214076e23, f64::MIN_POSITIVE] {
            let text = JsonValue::real(v).encode();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = JsonValue::real(v).encode();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn structures_escape_and_round_trip() {
        let frame = obj(vec![
            ("frame", JsonValue::Str("interval".into())),
            ("note", JsonValue::Str("quote \" slash \\ tab \t".into())),
            (
                "counts",
                JsonValue::Arr(vec![JsonValue::Arr(vec![
                    JsonValue::UInt(42),
                    JsonValue::UInt(u64::MAX),
                ])]),
            ),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
        ]);
        let text = frame.encode();
        assert!(!text.contains('\n'), "one frame must fit one NDJSON line");
        assert_eq!(JsonValue::parse(&text).unwrap(), frame);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deep_objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&deep_objects).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "'{bad}' parsed");
        }
    }
}
