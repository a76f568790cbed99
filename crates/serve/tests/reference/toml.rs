//! The character-at-a-time TOML reader `vendor/toml` used before it scanned
//! bytes in place: it copies the document into a `Vec<char>`, builds every
//! key and string as an owned `String`, and walks the whole header path
//! again for each key. Kept as the reference the byte scanner is fuzzed
//! against.

use std::borrow::Cow;

use toml::{Error, Value, MAX_DEPTH, MAX_ENTRIES};

/// Parse a TOML document into a root map value.
pub fn parse_document(text: &str) -> Result<Value<'static>, Error> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
        depth: 0,
    };
    let mut root = Value::Map(Vec::new());
    // Path of the table currently receiving key-value pairs; the final
    // component of an array-of-tables path addresses its last element.
    let mut current_path: Vec<String> = Vec::new();
    let mut entries = 0;

    loop {
        parser.skip_trivia();
        if parser.at_end() {
            break;
        }
        entries += 1;
        if entries > MAX_ENTRIES {
            return Err(Error::new(format!(
                "more than {MAX_ENTRIES} keys and table headers in one document"
            )));
        }
        if parser.peek() == Some('[') {
            parser.advance();
            let array_of_tables = parser.peek() == Some('[');
            if array_of_tables {
                parser.advance();
            }
            let path = parser.parse_dotted_key()?;
            parser.expect(']')?;
            if array_of_tables {
                parser.expect(']')?;
                push_array_table(&mut root, &path)?;
            } else {
                ensure_table(&mut root, &path)?;
            }
            current_path = path;
        } else {
            let key = parser.parse_key()?;
            parser.skip_inline_ws();
            parser.expect('=')?;
            parser.skip_inline_ws();
            let value = parser.parse_value()?;
            insert(&mut root, &current_path, key, value)?;
        }
    }
    Ok(root)
}

/// Walk `root` down `path`, creating intermediate tables, and return the
/// target table. For array-of-tables components, descend into the last
/// element.
fn navigate<'a>(
    root: &'a mut Value<'static>,
    path: &[String],
) -> Result<&'a mut Value<'static>, Error> {
    let mut node = root;
    for part in path {
        // Two-phase borrow dance: find position first, then re-borrow.
        let entries = match node {
            Value::Map(entries) => entries,
            _ => return Err(Error::new(format!("`{part}` is not a table"))),
        };
        let idx = match entries.iter().position(|(k, _)| **k == **part) {
            Some(i) => i,
            None => {
                entries.push((Cow::Owned(part.clone()), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        node = &mut entries[idx].1;
        if let Value::Seq(items) = node {
            node = items
                .last_mut()
                .ok_or_else(|| Error::new(format!("array of tables `{part}` is empty")))?;
        }
    }
    Ok(node)
}

fn ensure_table(root: &mut Value<'static>, path: &[String]) -> Result<(), Error> {
    navigate(root, path).map(|_| ())
}

fn push_array_table(root: &mut Value<'static>, path: &[String]) -> Result<(), Error> {
    let (parent_path, last) = path.split_at(path.len() - 1);
    let parent = navigate(root, parent_path)?;
    let entries = match parent {
        Value::Map(entries) => entries,
        _ => return Err(Error::new("array-of-tables parent is not a table")),
    };
    let key = &last[0];
    match entries.iter_mut().find(|(k, _)| **k == **key) {
        Some((_, Value::Seq(items))) => items.push(Value::Map(Vec::new())),
        Some(_) => return Err(Error::new(format!("`{key}` redefined as array of tables"))),
        None => entries.push((
            Cow::Owned(key.clone()),
            Value::Seq(vec![Value::Map(Vec::new())]),
        )),
    }
    Ok(())
}

fn insert(
    root: &mut Value<'static>,
    table: &[String],
    key: String,
    value: Value<'static>,
) -> Result<(), Error> {
    let node = navigate(root, table)?;
    let entries = match node {
        Value::Map(entries) => entries,
        _ => return Err(Error::new("key-value outside a table")),
    };
    if entries.iter().any(|(k, _)| **k == *key) {
        return Err(Error::new(format!("duplicate key `{key}`")));
    }
    entries.push((Cow::Owned(key), value));
    Ok(())
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and inline tables open around the current position.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn advance(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn expect(&mut self, want: char) -> Result<(), Error> {
        match self.advance() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(Error::new(format!("expected `{want}`, found `{c}`"))),
            None => Err(Error::new(format!("expected `{want}`, found end of input"))),
        }
    }

    /// Skip whitespace (including newlines) and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.pos += 1;
                }
                Some('#') => {
                    while let Some(c) = self.advance() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip spaces and tabs only.
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn parse_key(&mut self) -> Result<String, Error> {
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    self.pos += 1;
                }
                Ok(self.chars[start..self.pos].iter().collect())
            }
            Some(c) => Err(Error::new(format!("invalid key start `{c}`"))),
            None => Err(Error::new("expected key, found end of input")),
        }
    }

    fn parse_dotted_key(&mut self) -> Result<Vec<String>, Error> {
        let mut parts = Vec::new();
        loop {
            if parts.len() == MAX_DEPTH {
                return Err(Error::new(format!(
                    "more than {MAX_DEPTH} parts in a dotted key"
                )));
            }
            self.skip_inline_ws();
            parts.push(self.parse_key()?);
            self.skip_inline_ws();
            if self.peek() == Some('.') {
                self.advance();
            } else {
                return Ok(parts);
            }
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, Error> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.advance() {
                Some('"') => return Ok(out),
                Some('\\') => match self.advance() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('u') => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            code.push(
                                self.advance()
                                    .ok_or_else(|| Error::new("truncated \\u escape"))?,
                            );
                        }
                        let n = u32::from_str_radix(&code, 16)
                            .map_err(|_| Error::new(format!("bad \\u escape `{code}`")))?;
                        out.push(
                            char::from_u32(n)
                                .ok_or_else(|| Error::new("invalid unicode escape"))?,
                        );
                    }
                    Some(c) => return Err(Error::new(format!("unknown escape `\\{c}`"))),
                    None => return Err(Error::new("unterminated string")),
                },
                Some('\n') => return Err(Error::new("newline in basic string")),
                Some(c) => out.push(c),
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, Error> {
        self.expect('\'')?;
        let mut out = String::new();
        loop {
            match self.advance() {
                Some('\'') => return Ok(out),
                Some('\n') => return Err(Error::new("newline in literal string")),
                Some(c) => out.push(c),
                None => return Err(Error::new("unterminated literal string")),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value<'static>, Error> {
        match self.peek() {
            Some('"') => Ok(Value::Str(Cow::Owned(self.parse_basic_string()?))),
            Some('\'') => Ok(Value::Str(Cow::Owned(self.parse_literal_string()?))),
            Some('[') => self.nested(Self::parse_array),
            Some('{') => self.nested(Self::parse_inline_table),
            Some('t' | 'f' | 'i' | 'n') => self.parse_symbol(),
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!("unexpected value start `{c}`"))),
            None => Err(Error::new("expected value, found end of input")),
        }
    }

    /// Parse an array or inline table one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value<'static>, Error>,
    ) -> Result<Value<'static>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "arrays and inline tables nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value<'static>, Error> {
        self.advance();
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(']') {
                self.advance();
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.advance();
                }
                Some(']') => {}
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value<'static>, Error> {
        self.advance();
        let mut entries = Vec::new();
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('}') {
                self.advance();
                return Ok(Value::Map(entries));
            }
            let key = self.parse_key()?;
            self.skip_inline_ws();
            self.expect('=')?;
            self.skip_inline_ws();
            let value = self.parse_value()?;
            entries.push((Cow::Owned(key), value));
            self.skip_inline_ws();
            match self.peek() {
                Some(',') => {
                    self.advance();
                }
                Some('}') => {}
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in inline table, found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_symbol(&mut self) -> Result<Value<'static>, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        let word: String = self.chars[start..self.pos].iter().collect();
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "inf" => Ok(Value::Float(f64::INFINITY)),
            "nan" => Ok(Value::Float(f64::NAN)),
            other => Err(Error::new(format!("unknown symbol `{other}`"))),
        }
    }

    fn parse_number(&mut self) -> Result<Value<'static>, Error> {
        let start = self.pos;
        if matches!(self.peek(), Some('+' | '-')) {
            self.advance();
        }
        // `-inf` / `+inf` / `nan` with sign.
        if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            let sign = if self.chars[start] == '-' { -1.0 } else { 1.0 };
            return match self.parse_symbol()? {
                Value::Float(f) => Ok(Value::Float(sign * f)),
                other => Err(Error::new(format!("unexpected signed symbol {other:?}"))),
            };
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '_' => {
                    self.pos += 1;
                }
                '.' | 'e' | 'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some('+' | '-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos]
            .iter()
            .filter(|&&c| c != '_')
            .collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid float `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid integer `{text}`")))
        }
    }
}
