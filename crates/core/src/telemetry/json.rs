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

/// A parsed JSON value. Numbers are `f64` (the exporters emit nothing that
/// needs more); object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number literal.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (duplicate keys are kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
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
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on untrusted input (and
/// the recursive drop of the tree it builds). Request bodies nest three
/// levels at most.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Errors carry the byte offset and a short
/// description.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
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

    fn value(&mut self) -> Result<Json, String> {
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
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
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

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs don't occur in our exporters'
                            // output; map lone surrogates to the replacement
                            // character instead of failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // slice. Both are ASCII, so the run ends on a character
                    // boundary and multi-byte sequences pass through whole.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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

    fn object(&mut self) -> Result<Json, String> {
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
        assert_eq!(parse(&body).unwrap(), Json::Str(text));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 5, "1 MiB string took {elapsed:?}");
    }
}
