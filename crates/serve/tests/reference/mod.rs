//! The text paths a `rat serve` miss used to take, kept only as references
//! for the differential suite: the character-at-a-time TOML reader, the
//! owned-tree JSON reader, the `String`-per-cell table renderers and the
//! character-at-a-time JSON escaper.

pub mod json;
pub mod table;
pub mod toml;

/// Escape a string for a JSON string literal, a character at a time.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
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
    out
}
