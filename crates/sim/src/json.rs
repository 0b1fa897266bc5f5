//! The flat JSONL line codec. Every artifact line the workspace writes —
//! trace events, telemetry, campaign journals — escapes its strings with
//! [`Escaped`], and every reader parses a line once with
//! [`FlatObject::parse`].
//!
//! `parse` accepts exactly one JSON object, with JSON whitespace, and
//! nothing else. It keeps each string value unescaped (borrowed when it
//! holds no escape) and the text of every other value, which the
//! accessors read as u64 tokens, `true`/`false`/`null` and u64 arrays.
//! Any other value — a nested object, a float, a mixed array — is
//! validated and then ignored, so a newer writer's line still parses and
//! readers can tell *unknown* from *malformed*. When a key repeats, its
//! first occurrence wins.
//!
//! [`lossy_lines`] splits a stream into lines without ever failing on
//! their bytes, so a line torn inside a multi-byte character reaches
//! `parse` (and fails it) instead of stopping the read.
//!
//! ```
//! use synran_sim::json::{Escaped, FlatObject};
//!
//! let line = format!("{{\"name\":\"{}\",\"xs\":[1,2]}}", Escaped("a\"b"));
//! assert_eq!(line, r#"{"name":"a\"b","xs":[1,2]}"#);
//! let obj = FlatObject::parse(&line).unwrap();
//! assert_eq!((obj.str("name"), obj.u64_array("xs")), (Some("a\"b"), Some(vec![1, 2])));
//! assert!(FlatObject::parse(&line[..line.len() - 1]).is_none());
//! ```

use std::borrow::Cow;
use std::fmt;
use std::io::BufRead;

/// Containers nested deeper than this fail the parse, not the stack.
const MAX_DEPTH: usize = 64;

/// Displays a string escaped for the inside of a JSON string literal:
/// `"` and `\` get a backslash, `\n`, `\r` and `\t` their short forms, and
/// every other control character below 0x20 becomes `\u00XX`.
#[derive(Debug)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plain = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&self.0[plain..i])?;
            plain = i + 1;
            match b {
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                b'"' | b'\\' => write!(f, "\\{}", char::from(b))?,
                _ => write!(f, "\\u{b:04x}")?,
            }
        }
        f.write_str(&self.0[plain..])
    }
}

/// A field value: an unescaped string, or the text of any other value.
#[derive(Debug, PartialEq, Eq)]
enum Value<'a> {
    Str(Cow<'a, str>),
    Raw(&'a str),
}

/// The fields of one parsed line, in line order.
#[derive(Debug, PartialEq, Eq)]
pub struct FlatObject<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> FlatObject<'a> {
    /// Parses a whole line as one JSON object; `None` for anything else,
    /// such as a truncated object or trailing bytes.
    #[must_use]
    pub fn parse(line: &'a str) -> Option<FlatObject<'a>> {
        let mut p = Parser { s: line, pos: 0 };
        let mut fields = Vec::new();
        p.seq(b'{', b'}', |p| p.member(1).map(|field| fields.push(field)))?;
        p.ws();
        (p.pos == line.len()).then_some(FlatObject { fields })
    }

    fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn raw(&self, key: &str) -> Option<&'a str> {
        match self.get(key)? {
            Value::Raw(raw) => Some(raw),
            Value::Str(_) => None,
        }
    }

    /// The value of `key`, when it is a string.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            Value::Raw(_) => None,
        }
    }

    /// The value of `key`, when it is an unsigned integer within u64.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.raw(key)?.parse().ok()
    }

    /// The value of `key`, when it is `true` or `false`.
    #[must_use]
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.raw(key)?.parse().ok()
    }

    /// The value of `key`, when it is a u64 (`Some(Some(_))`) or `null`
    /// (`Some(None)`).
    #[must_use]
    pub fn u64_or_null(&self, key: &str) -> Option<Option<u64>> {
        match self.raw(key)? {
            "null" => Some(None),
            raw => raw.parse().ok().map(Some),
        }
    }

    /// The value of `key`, when it is an array of u64s (possibly empty).
    #[must_use]
    pub fn u64_array(&self, key: &str) -> Option<Vec<u64>> {
        let items = self.raw(key)?.strip_prefix('[')?.strip_suffix(']')?.trim();
        if items.is_empty() {
            return Some(Vec::new());
        }
        items
            .split(',')
            .map(|item| item.trim().parse().ok())
            .collect()
    }
}

/// A cursor over one line; each step returns `None` on invalid JSON.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn byte(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.byte() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then eats `b` if it comes next.
    fn token(&mut self, b: u8) -> bool {
        self.ws();
        self.eat(b)
    }

    fn digits(&mut self) -> Option<()> {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        (self.pos > start).then_some(())
    }

    /// `open`, then zero or more comma-separated `item`s, then `close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<()> {
        if !self.token(open) {
            return None;
        }
        if self.token(close) {
            return Some(());
        }
        loop {
            item(self)?;
            if self.token(close) {
                return Some(());
            }
            self.token(b',').then_some(())?;
        }
    }

    /// One `"key": value` member of an object nested `depth` deep.
    fn member(&mut self, depth: usize) -> Option<(Cow<'a, str>, Value<'a>)> {
        let key = self.string()?;
        self.token(b':').then_some(())?;
        self.ws();
        if self.byte() == Some(b'"') {
            return Some((key, Value::Str(self.string()?)));
        }
        let start = self.pos;
        self.value(depth)?;
        Some((key, Value::Raw(&self.s[start..self.pos])))
    }

    /// Validates one value of any kind.
    fn value(&mut self, depth: usize) -> Option<()> {
        self.ws();
        match self.byte()? {
            _ if depth > MAX_DEPTH => None,
            b'"' => self.string().map(drop),
            b'{' => self.seq(b'{', b'}', |p| p.member(depth + 1).map(drop)),
            b'[' => self.seq(b'[', b']', |p| p.value(depth + 1)),
            b't' | b'f' | b'n' => {
                let rest = &self.s[self.pos..];
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w))?;
                self.pos += word.len();
                Some(())
            }
            _ => self.number(),
        }
    }

    /// `-`? (`0` | digits) (`.` digits)? ((`e`|`E`) (`+`|`-`)? digits)?
    fn number(&mut self) -> Option<()> {
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Some(())
    }

    /// A string literal, unescaped; borrowed when it holds no escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.token(b'"').then_some(())?;
        let (start, mut run, mut owned) = (self.pos, self.pos, String::new());
        loop {
            match self.byte()? {
                b'"' => break,
                b'\\' => {
                    owned.push_str(&self.s[run..self.pos]);
                    self.pos += 1;
                    owned.push(self.escape()?);
                    run = self.pos;
                }
                0..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
        let tail = &self.s[run..self.pos];
        self.pos += 1;
        if run == start {
            return Some(Cow::Borrowed(tail));
        }
        owned.push_str(tail);
        Some(Cow::Owned(owned))
    }

    /// The character of one escape sequence, after its backslash.
    fn escape(&mut self) -> Option<char> {
        let b = self.byte()?;
        self.pos += 1;
        Some(match b {
            b'"' | b'\\' | b'/' => char::from(b),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate pairs with the escaped low one after it.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return None;
                    }
                    let low = self
                        .hex4()?
                        .checked_sub(0xdc00)
                        .filter(|low| *low < 0x400)?;
                    code = 0x10000 + ((code - 0xd800) << 10) + low;
                }
                char::from_u32(code)? // None for a lone low surrogate
            }
            _ => return None,
        })
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.s.get(self.pos..self.pos + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).ok()
    }
}

/// The lines of `reader`, as [`BufRead::lines`] yields them (without the
/// `\n` or `\r\n` ending), except that invalid UTF-8 is decoded lossily
/// instead of being an error.
pub fn lossy_lines(mut reader: impl BufRead) -> impl Iterator<Item = std::io::Result<String>> {
    let mut buf = Vec::new();
    std::iter::from_fn(move || {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => None,
            Ok(_) => {
                let line = match buf.strip_suffix(b"\n") {
                    Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                    None => &buf,
                };
                Some(Ok(String::from_utf8_lossy(line).into_owned()))
            }
            Err(e) => Some(Err(e)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaper_output_is_pinned() {
        assert_eq!(
            Escaped("we\"ird\\ line\nbreak\r\ttab\u{1}\u{1f}\u{7f} ok é").to_string(),
            "we\\\"ird\\\\ line\\nbreak\\r\\ttab\\u0001\\u001f\u{7f} ok é"
        );
        assert_eq!(Escaped("").to_string(), "");
        assert_eq!(Escaped("plain").to_string(), "plain");
    }

    #[test]
    fn kept_values_and_accessors() {
        let obj = FlatObject::parse(
            " { \"s\" : \"x\" , \"n\":18446744073709551615, \"t\":true, \"f\":false,\r\n\
             \t\"z\":null, \"a\":[ 1 , 2 ], \"e\":[ ] } ",
        )
        .unwrap();
        assert_eq!(obj.str("s"), Some("x"));
        assert_eq!(obj.u64("n"), Some(u64::MAX));
        assert_eq!((obj.bool("t"), obj.bool("f")), (Some(true), Some(false)));
        assert_eq!(obj.u64_or_null("z"), Some(None));
        assert_eq!(obj.u64_or_null("n"), Some(Some(u64::MAX)));
        assert_eq!(obj.u64_array("a"), Some(vec![1, 2]));
        assert_eq!(obj.u64_array("e"), Some(vec![]));
        // A wrong type or an absent key is `None`, never a coerced value.
        assert_eq!(obj.u64("s"), None);
        assert_eq!(obj.str("n"), None);
        assert_eq!(obj.bool("z"), None);
        assert_eq!(obj.u64_or_null("t"), None);
        assert_eq!(obj.u64_array("n"), None);
        assert_eq!(obj.str("missing"), None);
        assert!(FlatObject::parse("{}").is_some());
    }

    #[test]
    fn strings_unescape_and_borrow_when_plain() {
        let line = r#"{"plain":"abc","esc":"q\"b\\s\/n\nr\rt\tb\bf\fu\u00e9\u0001","pair":"\ud83d\ude00","k\"ey":1}"#;
        let obj = FlatObject::parse(line).unwrap();
        assert_eq!(
            obj.str("esc"),
            Some("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}u\u{e9}\u{1}")
        );
        assert_eq!(obj.str("pair"), Some("\u{1f600}"));
        assert_eq!(obj.u64("k\"ey"), Some(1));
        assert!(matches!(obj.fields[0].1, Value::Str(Cow::Borrowed("abc"))));
        assert!(matches!(obj.fields[1].1, Value::Str(Cow::Owned(_))));
    }

    #[test]
    fn other_values_are_validated_and_ignored() {
        let obj = FlatObject::parse(
            r#"{"neg":-3,"zero":-0,"frac":1.5,"exp":2E+10,"big":18446744073709551616,
                "nested":{"y":[1,"}",{"z":null}]},"mixed":[1,"a"],"deep":[[1]],"n":7}"#,
        )
        .unwrap();
        for key in [
            "neg", "zero", "frac", "exp", "big", "nested", "mixed", "deep",
        ] {
            assert_eq!(obj.u64(key), None, "{key}");
            assert_eq!(obj.u64_array(key), None, "{key}");
            assert_eq!(obj.str(key), None, "{key}");
        }
        assert_eq!(obj.u64("n"), Some(7));
    }

    #[test]
    fn first_key_wins() {
        let obj = FlatObject::parse(r#"{"type":"cell","type":"campaign","n":1,"n":"x"}"#).unwrap();
        assert_eq!(obj.str("type"), Some("cell"));
        assert_eq!(obj.u64("n"), Some(1));
    }

    #[test]
    fn anything_but_one_object_is_rejected() {
        let nest = |k| format!("{{\"a\":{}{}}}", "[".repeat(k), "]".repeat(k));
        assert!(FlatObject::parse(&nest(MAX_DEPTH)).is_some());
        for bad in [
            "",
            "   ",
            "[1]",
            "\"s\"",
            "{",
            "{}}",
            "{} {}",
            "{}x",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{,}",
            "{\"a\" 1}",
            "{a:1}",
            "{'a':1}",
            "{\"a\":01}",
            "{\"a\":1.}",
            "{\"a\":.5}",
            "{\"a\":1e}",
            "{\"a\":-}",
            "{\"a\":+1}",
            "{\"a\":tru}",
            "{\"a\":True}",
            "{\"a\":[1,]}",
            "{\"a\":[1 2]}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":\"bad \\x escape\"}",
            "{\"a\":\"\\u00g1\"}",
            "{\"a\":\"\\u+0ff\"}",
            "{\"a\":\"\\ud83d\"}",
            "{\"a\":\"\\ude00\"}",
            "{\"a\":\"\\ud83d\\u0041\"}",
            "{\"a\":\"unterminated}",
            "\u{a0}{}",
            &nest(MAX_DEPTH + 1),
        ] {
            assert_eq!(FlatObject::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn lossy_lines_split_like_lines_and_never_fail_on_bytes() {
        let text = b"a\r\nb\n\nc\r";
        let lossy: Vec<String> = lossy_lines(&text[..]).map(Result::unwrap).collect();
        let strict: Vec<String> = text.lines().map(Result::unwrap).collect();
        assert_eq!(lossy, strict);
        // A `\u{20ac}` torn after its first byte, then a healthy line.
        let torn = b"{\"p\":\"\xe2\x82\n{\"p\":1}\n";
        assert!(torn.lines().any(|line| line.is_err()));
        let lossy: Vec<String> = lossy_lines(&torn[..]).map(Result::unwrap).collect();
        assert_eq!(lossy.len(), 2);
        assert!(FlatObject::parse(&lossy[0]).is_none());
        assert_eq!(FlatObject::parse(&lossy[1]).unwrap().u64("p"), Some(1));
    }
}
