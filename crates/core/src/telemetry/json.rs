//! A minimal JSON reader: `rat serve`'s request bodies, and the exporters'
//! output in tests.
//!
//! The workspace deliberately carries no `serde_json`; the exporters
//! ([`super::chrome`], `rat bench --json`) hand-roll their output. This
//! module is the other half of that bargain: a small recursive-descent
//! parser producing a [`Json`] value tree. `rat serve` parses every request
//! body with it, so it faces untrusted input, and it stays linear in the
//! input length; tests use it to open an emitted profile or bench report
//! and check its shape instead of greping strings. It accepts strict JSON
//! (no comments, no trailing commas) and keeps object keys in document
//! order.
//!
//! The tree borrows the text it was parsed from: a string or key with no
//! escape is a slice of the document, and one with escapes is decoded into
//! a copy allocated once, at the length of its escaped form. A caller that
//! keeps a tree past its text takes [`Json::into_owned`].
//!
//! The one string escaper, [`escape`], lives here too: the Chrome exporter
//! and `rat serve`'s bodies both write through it.

use std::borrow::Cow;

/// A parsed JSON value. Numbers are `f64` (the exporters emit nothing that
/// needs more); object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number literal.
    Num(f64),
    /// A string literal, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in document order (duplicate keys are kept as-is).
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Json<'a>>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(Cow<'a, str>, Json<'a>)>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The same tree with every borrowed string copied, so it outlives the
    /// text it was parsed from.
    pub fn into_owned(self) -> Json<'static> {
        let owned = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Num(n) => Json::Num(n),
            Json::Str(s) => Json::Str(owned(s)),
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::into_owned).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (owned(k), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on untrusted input (and
/// the recursive drop of the tree it builds). Request bodies nest three
/// levels at most.
pub const MAX_DEPTH: usize = 128;

/// Escape a string for embedding in a JSON string literal, allocating once,
/// at the escaped length. `"`, `\\`, `\n`, `\r` and `\t` escape by name,
/// every other byte below 0x20 as lowercase `\u00xx`; everything else,
/// multi-byte characters included, is copied as it is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(escaped_len(s));
    push_escaped(&mut out, s);
    out
}

/// The index of the first byte at or after `from` that a JSON string
/// literal must escape: a quote, a backslash or a control character. Bytes
/// of multi-byte characters never match, so a run before the index ends on
/// a character boundary.
fn next_escape(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // The high bit of each byte below `n` (`n` <= 0x80). A borrow only runs
    // upward from a flagged byte, so the lowest flag is always exact.
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGH;
    let mut i = from;
    // Eight bytes at a time.
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let flags = below(w, 0x20)
            | below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1);
        if flags != 0 {
            return Some(i + flags.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    let tail = bytes[i..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\');
    tail.map(|k| i + k)
}

/// How long `s` is once escaped.
pub fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let (mut len, mut from) = (bytes.len(), 0);
    while let Some(at) = next_escape(bytes, from) {
        len += match bytes[at] {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
            _ => 5,
        };
        from = at + 1;
    }
    len
}

/// Append `s` to `out`, escaped: runs without an escape are copied whole.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(at) = next_escape(bytes, run) {
        out.push_str(&s[run..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

/// Parse a complete JSON document. Errors carry the byte offset and a short
/// description.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parse an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json<'a>, String>,
    ) -> Result<Json<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{s}' at byte {start}: {e}"))
    }

    /// A string literal: a slice of the text when it holds no escape,
    /// else a copy decoded into one buffer.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // The run up to the next quote or backslash. Both are ASCII, so
            // the run ends on a character boundary and multi-byte sequences
            // pass through whole.
            let len = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let run = self
                .text
                .get(self.pos..self.pos + len)
                .ok_or("invalid UTF-8 in string")?;
            self.pos += len;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match out {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = out.get_or_insert_with(|| String::with_capacity(len + self.escaped_len()));
            out.push_str(run);
            self.pos += 1;
            self.escape(out)?;
        }
    }

    /// Bytes from the cursor to the end of the string literal it is in (or
    /// of the text): at least the length of the decoded rest, since no
    /// escape decodes longer than it is written.
    fn escaped_len(&self) -> usize {
        let mut end = self.pos;
        while let Some(&b) = self.bytes.get(end) {
            match b {
                b'"' => break,
                b'\\' => end += 2,
                _ => end += 1,
            }
        }
        end.min(self.bytes.len()) - self.pos
    }

    /// Decode the escape after a backslash onto `out`. A `\u` escape of a
    /// high surrogate followed by one of a low surrogate is one character
    /// (RFC 8259 §7); a surrogate without its other half is U+FFFD.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                let low = if (0xD800..0xDC00).contains(&code) {
                    self.low_surrogate()
                } else {
                    None
                };
                let code = match low {
                    Some(low) => {
                        self.pos += 6;
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    }
                    None => code,
                };
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits of a `\u` escape, starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
            16,
        )
        .map_err(|e| format!("bad \\u escape: {e}"))
    }

    /// The low surrogate of a `\uDC00`–`\uDFFF` escape right after the
    /// cursor's last hex digit, if one is there.
    fn low_surrogate(&self) -> Option<u32> {
        let at = self.pos + 1;
        if self.bytes.get(at..at + 2) != Some(b"\\u") {
            return None;
        }
        self.hex4(at + 2)
            .ok()
            .filter(|low| (0xDC00..0xE000).contains(low))
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
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
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_newlines_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\r\t\u{1f}\u{7f}é"), "\\r\\t\\u001f\u{7f}é");
        // Long enough for the eight-byte scan, with the escape in its tail.
        let long = format!("{}\u{8}", "x".repeat(17));
        assert_eq!(escape(&long), format!("{}\\u0008", "x".repeat(17)));
        assert_eq!(escaped_len(&long), escape(&long).len());
        assert_eq!(escape(&long).capacity(), escape(&long).len());
        // Round-trips through the strict reader.
        let s = "line1\nline2\t\"quoted\"";
        let body = format!("{{\"x\": \"{}\"}}", escape(s));
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_str), Some(s));
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("[1, 2]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
        let obj = parse("{\"a\": 1, \"b\": [false]}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(obj.get("b").and_then(Json::as_array).map(Vec::len), Some(1));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn round_trips_the_chrome_exporter() {
        use crate::telemetry::{ArgValue, Metric, Telemetry};
        let t = Telemetry::new();
        t.enable();
        {
            let _a = t.span("run");
            let _b = t.span_args("job", vec![("job", ArgValue::U64(7))]);
        }
        t.add(Metric::EngineJobs, 1);
        let json = t.drain().to_chrome_json();
        let doc = parse(&json).expect("exporter output parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            doc.get("metrics").and_then(|m| m.get("engine.jobs")),
            Some(&Json::Num(1.0))
        );
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
    }

    #[test]
    fn unescapes_unicode_and_utf8_passthrough() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // Python's `json.dumps` escapes every non-BMP character this way.
        let doc = parse(r#"{"x": "w\ud83d\ude00"}"#).unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_str), Some("w\u{1f600}"));
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap(), Json::Str("😀".into()));
        // A half without its other half is U+FFFD, and what follows it
        // decodes on its own.
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud800\udc00\udbff\udfff""#, "\u{10000}\u{10ffff}"),
            (r#""\udbff\ue000""#, "\u{fffd}\u{e000}"),
            (r#""\ud7ff\udc00""#, "\u{d7ff}\u{fffd}"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
        // A malformed escape after a high half fails as it would alone.
        assert_eq!(
            parse(r#""\ud83d\u12""#).unwrap_err(),
            parse(r#""\u12""#).unwrap_err()
        );
    }

    #[test]
    fn escape_free_strings_borrow_the_text() {
        let text = r#"{"plain": "abc", "escaped": "a\nb"}"#;
        let doc = parse(text).unwrap();
        let members = doc.as_object().unwrap();
        assert!(matches!(members[0].0, Cow::Borrowed("plain")));
        assert!(matches!(members[0].1, Json::Str(Cow::Borrowed("abc"))));
        match &members[1].1 {
            Json::Str(Cow::Owned(s)) => assert_eq!((s.as_str(), s.capacity()), ("a\nb", 4)),
            other => panic!("an escaped string is a copy: {other:?}"),
        }
        let owned: Json<'static> = parse(text).unwrap().into_owned();
        assert_eq!(owned, doc);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
        // Objects count too, mixed with arrays.
        assert!(parse(&nest("{\"a\":[", "]}", MAX_DEPTH / 2)).is_ok());
        assert!(parse(&nest("{\"a\":[", "]}", MAX_DEPTH / 2 + 1)).is_err());
        // Far past the cap fails fast instead of exhausting the stack.
        assert!(parse(&nest("[", "]", 200_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // ~1 MiB of text with an escape and a two-byte character every 10
        // bytes. A scan that re-validates the rest of the body per character
        // takes minutes on this; a linear one takes milliseconds.
        let unit = "abcdefé\n";
        let text = unit.repeat((1 << 20) / unit.len());
        let body = format!("\"{}\"", text.replace('\n', "\\n"));
        let start = std::time::Instant::now();
        assert_eq!(parse(&body).unwrap(), Json::Str(text.into()));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 5, "1 MiB string took {elapsed:?}");
    }
}
