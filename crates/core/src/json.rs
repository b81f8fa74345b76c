//! The suite's one lossless JSON codec.
//!
//! Every JSON document the suite reads or writes goes through
//! [`JsonValue`]: [`report::Json`](crate::report::Json) reports, the
//! daemon's NDJSON frames, the fleet's memo entries and trajectories, and
//! Chrome traces ([`crate::trace`]). Raw counter
//! values are `u64` and must survive bit-exactly, so the value type
//! distinguishes [`JsonValue::UInt`] from [`JsonValue::Num`]. Reals are
//! encoded with Rust's shortest-round-trip `Display`, so every finite `f64`
//! parses back to the same bits; the non-finite values a metric formula
//! can produce are spelled as the strings `"NaN"`, `"inf"` and `"-inf"`
//! (JSON has no literal for them).
//!
//! Two streaming halves do the work: [`Writer`] appends a document to a
//! caller-owned buffer as its parts are pushed, and [`Reader`] pulls one
//! value at a time out of a text. [`JsonValue::encode`] and
//! [`JsonValue::parse`] are thin tree wrappers over them, so the suite has
//! one escaper, one real formatter, one lexer and one nesting bound, and a
//! hot path (the daemon's interval frames) can skip the tree entirely.
//! The reader accepts exactly RFC 8259 JSON: numbers such as `01`, `1.`
//! or `-.5` and raw control characters inside strings are errors.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting a [`Reader`] accepts. [`Reader::value`]
/// recurses once per level, so the bound keeps one hostile line from
/// overflowing the stack; every document this suite writes nests only a
/// few levels.
pub(crate) const MAX_DEPTH: usize = 128;

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
            JsonValue::Str(s) => non_finite(s),
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
        self.write(&mut Writer::new(&mut out));
        out
    }

    /// Write the value through a streaming [`Writer`].
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::UInt(v) => w.uint(*v),
            JsonValue::Num(v) if v.is_finite() => w.real(*v),
            // Callers construct non-finite reals via `real()`; a raw
            // Num(NaN) still must emit valid JSON.
            JsonValue::Num(_) => w.null(),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Arr(items) => w.arr(|w| items.iter().for_each(|item| item.write(w))),
            JsonValue::Obj(members) => w.obj(|w| {
                for (k, v) in members {
                    w.key(k);
                    v.write(w);
                }
            }),
        };
    }

    /// Parse one JSON document. Trailing garbage after the value is an
    /// error (a frame is exactly one value per line).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

/// Convenience builder for objects with literal keys.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The value of a quoted non-finite real spelling.
fn non_finite(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

/// A streaming JSON writer: appends one compact document to a
/// caller-owned `String` as its parts are pushed, so a hot path that
/// reuses the buffer encodes without building a [`JsonValue`] tree and
/// without allocating once the buffer has grown to a frame's size.
///
/// Values go in document order: [`Writer::key`] before each object
/// member's value, [`Writer::obj`]/[`Writer::arr`] around a container's
/// contents. The writer places the commas; it does not check that the
/// parts form a well-formed document.
pub struct Writer<'a> {
    out: &'a mut String,
    /// The next value follows a sibling and needs a comma.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, comma: false }
    }

    /// Separate the next value from its predecessor in the same container.
    fn next(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.next().push_str("null");
        self
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.next().push_str(if b { "true" } else { "false" });
        self
    }

    /// An unsigned integer, exact.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.next(), "{v}");
        self
    }

    /// A real, losslessly (see [`JsonValue::real`]): the shortest
    /// round-trip decimal if finite, else its quoted spelling.
    pub fn real(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.next(), "{v}");
            self
        } else if v.is_nan() {
            self.str("NaN")
        } else {
            self.str(if v > 0.0 { "inf" } else { "-inf" })
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.next();
        out.push('"');
        // Copy runs of plain characters; every byte that needs escaping
        // is ASCII, so the runs split on character boundaries.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1F => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
        self
    }

    /// An object member's key; the member's value comes next.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k).out.push(':');
        self.comma = false;
        self
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', body)
    }

    /// An array whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'[', b']', body)
    }

    fn container(&mut self, open: u8, close: u8, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.next().push(open as char);
        self.comma = false;
        body(self);
        self.out.push(close as char);
        self.comma = true;
        self
    }
}

/// A pull reader over one JSON document: the caller asks for the value it
/// expects next, so a decoder can fill its own types straight from the
/// text without a [`JsonValue`] tree. Strings without escapes are borrowed
/// from the input. [`JsonValue::parse`] is this reader's
/// [`Reader::value`] plus [`Reader::finish`].
///
/// Containers are walked with [`Reader::begin_obj`] / [`Reader::next_key`]
/// and [`Reader::begin_arr`] / [`Reader::next_item`]; after a key or a
/// `true` item the caller reads (or [`Reader::value`]-skips) exactly one
/// value. Nesting is bounded by `MAX_DEPTH` (128). Errors are messages naming
/// the byte offset.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// A container was just opened: its first member needs no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0, fresh: false }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.text.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, after any whitespace.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Require the end of the document: only whitespace may follow.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing characters at byte {}", self.pos)),
        }
    }

    /// Enter an object.
    pub fn begin_obj(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Enter an array.
    pub fn begin_arr(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    fn open(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) && self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.expect(b)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// The next member's key, or `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether another item follows; `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    /// Step over the separator before the next member or item, or out of
    /// the container at `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos)),
        }
    }

    /// Any value, as a tree.
    pub fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_obj()?;
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Ok(JsonValue::Obj(members))
            }
            Some(b'[') => {
                self.begin_arr()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(JsonValue::Arr(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.str()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A non-negative integer, or `None` (the value consumed) for any
    /// other value.
    pub fn uint(&mut self) -> Result<Option<u64>, String> {
        Ok(self.value()?.as_u64())
    }

    /// A real as [`JsonValue::as_f64`] reads it — a number or a quoted
    /// non-finite spelling — or `None` (the value consumed) for any other
    /// value.
    pub fn real(&mut self) -> Result<Option<f64>, String> {
        if self.peek() == Some(b'"') {
            Ok(non_finite(&self.str()?))
        } else {
            Ok(self.value()?.as_f64())
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// A string, borrowed from the input unless it contains escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    // Quotes and backslashes are ASCII, so every run ends
                    // on a character boundary.
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(0..=0x1F) => {
                    return Err(format!("control character in string at byte {}", self.pos));
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    self.escape(out)?;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decode the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.text.as_bytes().get(self.pos) {
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
                    // High surrogate: ASCII-only serializers write astral
                    // characters as a pair.
                    let low = match self.text.as_bytes().get(self.pos + 1..self.pos + 3) {
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
        Ok(())
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        match self.text.as_bytes().get(at..at + 4) {
            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => {
                Ok(hex.iter().fold(0, |code, &b| {
                    (code << 4) | (b as char).to_digit(16).expect("checked hex digit")
                }))
            }
            Some(_) => Err(format!("bad \\u escape at byte {at}")),
            None => Err("truncated \\u escape".to_string()),
        }
    }

    /// A number, checked against the RFC 8259 grammar
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`. The token is the
    /// whole run of number characters at the cursor, so `01` or `1.e5` is
    /// one bad number rather than a number and trailing characters.
    fn number(&mut self) -> Result<JsonValue, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start;
        let digit = |at: usize| bytes.get(at).filter(|b| b.is_ascii_digit()).map(|b| b - b'0');
        let negative = bytes.get(at) == Some(&b'-');
        at += usize::from(negative);
        // The integer part, accumulated while it fits a u64.
        let int_start = at;
        let mut uint = Some(0u64);
        while let Some(d) = digit(at) {
            uint = uint.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d)));
            at += 1;
        }
        let mut valid = at > int_start && (bytes[int_start] != b'0' || at == int_start + 1);
        let integral = !matches!(bytes.get(at), Some(b'.' | b'e' | b'E'));
        if bytes.get(at) == Some(&b'.') {
            let from = at + 1;
            at = from;
            while digit(at).is_some() {
                at += 1;
            }
            valid &= at > from;
        }
        if let Some(b'e' | b'E') = bytes.get(at) {
            at += 1;
            at += usize::from(matches!(bytes.get(at), Some(b'+' | b'-')));
            let from = at;
            while digit(at).is_some() {
                at += 1;
            }
            valid &= at > from;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(at) {
            valid = false;
            at += 1;
        }
        self.pos = at;
        let text = &self.text[start..at];
        let bad = || format!("bad number '{text}' at byte {start}");
        if !valid {
            return Err(bad());
        }
        match uint {
            Some(v) if integral && !negative => Ok(JsonValue::UInt(v)),
            // Past u64::MAX an integer falls back to a real.
            _ => text.parse::<f64>().map(JsonValue::Num).map_err(|_| bad()),
        }
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
        for bad in ["[1,]", "{\"a\":1,}", "[,1]", "{,}", "[1 2]", ".5"] {
            assert!(JsonValue::parse(bad).is_err(), "'{bad}' parsed");
        }
        // RFC 8259 numbers: no leading zeros, digits on both sides of the
        // point, digits in the exponent.
        for bad in ["01", "00", "-01", "1.", "1.e5", "-.5", "-", "1e", "1e+", "1-2", "[01]"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.starts_with("bad number '"), "'{bad}': {err}");
        }
        assert_eq!(JsonValue::parse("01").unwrap_err(), "bad number '01' at byte 0");
        assert_eq!(JsonValue::parse("[-.5]").unwrap_err(), "bad number '-.5' at byte 1");
        for good in ["0", "-0", "10", "0.5", "-0.5e-3", "1E+2", "18446744073709551616"] {
            assert!(JsonValue::parse(good).is_ok(), "'{good}' rejected");
        }
        // Raw control characters must be escaped inside strings.
        for (bad, at) in [("\"a\u{0}b\"", 2), ("\"\u{1f}\"", 1), ("{\"k\n\":1}", 3), ("\"\t\"", 1)]
        {
            let err = JsonValue::parse(bad).unwrap_err();
            assert_eq!(err, format!("control character in string at byte {at}"), "{bad:?}");
        }
        assert_eq!(JsonValue::parse("\"\u{7f}\"").unwrap(), JsonValue::Str("\u{7f}".into()));
    }

    #[test]
    fn control_characters_are_written_escaped() {
        let text: String = (0u8..0x20).map(char::from).chain("\"\\é".chars()).collect();
        let encoded = JsonValue::Str(text.clone()).encode();
        assert!(encoded.bytes().all(|b| b >= 0x20), "{encoded}");
        assert_eq!(JsonValue::parse(&encoded).unwrap(), JsonValue::Str(text));
    }

    #[test]
    fn the_reader_pulls_members_and_borrows_plain_strings() {
        let text = r#" { "b" : [ 1 , 2.5 , "NaN" ] , "a" : "x\ty" , "c" : [ ] } "#;
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Borrowed("b"))));
        r.begin_arr().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.uint().unwrap(), Some(1));
        assert!(r.next_item().unwrap());
        assert_eq!(r.uint().unwrap(), None, "a real is not a count");
        assert!(r.next_item().unwrap());
        assert!(r.real().unwrap().unwrap().is_nan());
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "x\ty"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.value().unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn the_writer_places_commas_and_matches_the_tree_encoding() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj(|w| {
            w.key("a").arr(|w| {
                w.uint(1).real(f64::NAN).arr(|_| {}).obj(|_| {}).null();
            });
            w.key("b").bool(false);
        });
        let tree = obj(vec![
            (
                "a",
                JsonValue::Arr(vec![
                    JsonValue::UInt(1),
                    JsonValue::real(f64::NAN),
                    JsonValue::Arr(vec![]),
                    JsonValue::Obj(vec![]),
                    JsonValue::Null,
                ]),
            ),
            ("b", JsonValue::Bool(false)),
        ]);
        assert_eq!(out, tree.encode());
        assert_eq!(out, r#"{"a":[1,"NaN",[],{},null],"b":false}"#);
    }
}
