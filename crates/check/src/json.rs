//! The workspace's one JSON writer.
//!
//! No serializer dependency resolves offline, and the two exporters —
//! `st-lint --report` and `st-bench`'s table export (`reproduce --json`) —
//! need only strings, numbers and flat nesting. They build their output with
//! these five functions; `st-check` has no dependencies and sits under
//! both, which is the only reason the writer lives here.

use std::fmt::{Display, Write as _};

/// Escape `text` for the inside of a JSON string literal.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
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

/// `text` as a JSON string literal, quotes included.
pub fn quoted(text: &str) -> String {
    format!("\"{}\"", escape(text))
}

/// A float as JSON (JSON has no NaN/Inf; they become `null`).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Already-rendered `items` as a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for item in items {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Append `"key":value` to the object under construction in `out`, with the
/// separating comma unless it is the object's first member. `value` is
/// already JSON: an integer as it prints, or the result of [`number`],
/// [`quoted`], [`array()`] or a finished nested object.
pub fn field(out: &mut String, key: &str, value: impl Display) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{}\":{value}", escape(key));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\rb\tc"), "a\\rb\\tc");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("back\\slash \"q\""), "back\\\\slash \\\"q\\\"");
    }

    #[test]
    fn members_and_items_are_comma_separated() {
        let mut out = String::from("{");
        field(&mut out, "n", 3);
        field(&mut out, "x", number(f64::NAN));
        field(&mut out, "s", quoted("a\"b"));
        field(&mut out, "list", array([number(1.5), number(2.0)]));
        field(&mut out, "none", array([]));
        out.push('}');
        assert_eq!(
            out,
            "{\"n\":3,\"x\":null,\"s\":\"a\\\"b\",\"list\":[1.5,2],\"none\":[]}"
        );
    }
}
