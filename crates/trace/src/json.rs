//! The workspace's one JSON codec (hand-rolled: the build is offline).
//! Writers build a typed [`Json`] tree instead of concatenating strings;
//! rendering keeps object keys in insertion order and escapes each string
//! once. [`Json::parse`] reads any document nested at most [`MAX_DEPTH`]
//! deep and never panics, so it is safe on hostile input.

/// Deepest array/object nesting [`Json::parse`] accepts. Deeper input is
/// an error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Integers are split into unsigned/signed variants
/// because cycle counts are `u64` (which `i64` cannot hold) while deltas
/// can be negative.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (cycle counts, seeds, tallies).
    UInt(u64),
    /// A signed integer (deltas).
    Int(i64),
    /// A measured, non-integer value. Renders as the shortest decimal
    /// that reads back exactly, or as `null` if not finite.
    Num(f64),
    /// A string (escaped at render time).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object. No-op (debug-asserted) on
    /// non-objects.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value.into()));
        } else {
            debug_assert!(false, "Json::push on a non-object");
        }
        self
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline (the shape the campaign reports committed to).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the document on one line with no spaces and no trailing
    /// newline (`{"k":v,...}`), the Chrome trace exporter's event shape.
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Parses one JSON document. Integers read as [`Json::UInt`] or (if
    /// negative) [`Json::Int`]; fractions, exponents and integers too
    /// large for either read as [`Json::Num`].
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first syntax error, bad
    /// escape, raw control character, or nesting past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        match p.peek() {
            None => Ok(v),
            Some(_) => Err(p.error("trailing data")),
        }
    }

    /// The fields of an object, in source order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The first value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Writes the value; `depth` is the indentation level, or `None` for
    /// the one-line form.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            // `{:?}` is the shortest round-trip form and always keeps a
            // `.` or an exponent, so the value reads back as a `Num`.
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items, |out, item, d| {
                item.write(out, d)
            }),
            Json::Obj(fields) => write_seq(out, depth, ['{', '}'], fields, |out, (k, v), d| {
                write_str(out, k);
                out.push_str(if d.is_some() { ": " } else { ":" });
                v.write(out, d)
            }),
        }
    }
}

/// Writes `items` between `brackets`: one item per indented line when
/// `depth` is set, comma-joined on one line otherwise.
fn write_seq<T>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    mut each: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |d: usize| format!("\n{}", "  ".repeat(d));
    let (item_lead, close_lead) =
        depth.map_or_else(Default::default, |d| (newline(d + 1), newline(d)));
    out.push(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        out.push_str(&item_lead);
        each(out, item, depth.map(|d| d + 1));
    }
    if !items.is_empty() {
        out.push_str(&close_lead);
    }
    out.push(brackets[1]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// A recursive-descent reader over one document. Every step checks its
/// bounds, so malformed input is an `Err`, never a panic.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set`.
    fn skip_if(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| set.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.skip_if(b" \t\n\r") {}
    }

    /// Skips whitespace, then consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        self.skip_if(&[c])
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.seq(depth, b']', |p, d| p.value(d)).map(Json::Arr),
            Some(b'{') => self
                .seq(depth, b'}', |p, d| {
                    p.skip_ws();
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    Ok((key, p.value(d)?))
                })
                .map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let literals = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                let (lit, v) = literals
                    .into_iter()
                    .find(|(lit, _)| self.text[self.pos..].starts_with(lit))
                    .ok_or_else(|| self.error("unexpected input"))?;
                self.pos += lit.len();
                Ok(v)
            }
        }
    }

    /// Reads a bracketed, comma-separated sequence one level below
    /// `depth`, from the opening bracket through `close`.
    fn seq<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if depth >= MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self, depth + 1)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.skip_if(b"\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. Those are all ASCII, so the run ends on a character
            // boundary and multi-byte UTF-8 passes through intact.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.skip_if(b"\"") {
                return Ok(out);
            }
            if !self.skip_if(b"\\") {
                let what = match self.peek() {
                    Some(_) => "control character in string",
                    None => "unterminated string",
                };
                return Err(self.error(what));
            }
            out.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash, including `\uXXXX` and
    /// surrogate pairs.
    fn escape(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated string"))?;
        self.pos += 1;
        Ok(match c {
            b'"' | b'\\' | b'/' => char::from(c),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code =
                    if (0xd800..0xdc00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.skip_if(b"-");
        if !self.skip_if(b"0") {
            self.digits()?;
        }
        let frac = self.skip_if(b".");
        if frac {
            self.digits()?;
        }
        let exp = self.skip_if(b"eE");
        if exp {
            self.skip_if(b"+-");
            self.digits()?;
        }
        let s = &self.text[start..self.pos];
        Ok(match (s.parse(), s.parse()) {
            (Ok(n), _) if !frac && !exp => Json::UInt(n),
            (_, Ok(n)) if !frac && !exp => Json::Int(n),
            _ => Json::Num(s.parse().map_err(|_| self.error("bad number"))?),
        })
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self.skip_if(b"0123456789") {}
        (self.pos > start)
            .then_some(())
            .ok_or_else(|| self.error("expected a digit"))
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $body:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $body
            }
        }
    )*};
}

from! {
    bool => |v| Json::Bool(v),
    u32 => |v| Json::UInt(u64::from(v)),
    u64 => |v| Json::UInt(v),
    usize => |v| Json::UInt(v as u64),
    i64 => |v| Json::Int(v),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_with_stable_layout() {
        let mut doc = Json::obj();
        doc.push("count", 3u64);
        doc.push("passed", true);
        doc.push(
            "rows",
            Json::Arr(vec![Json::UInt(1), Json::Str("a\"b".into())]),
        );
        doc.push("empty", Json::Arr(vec![]));
        let s = doc.render();
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\"passed\": true"));
        assert!(s.contains("\\\"b\""));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
        assert_eq!(
            doc.render_line(),
            r#"{"count":3,"passed":true,"rows":[1,"a\"b"],"empty":[]}"#
        );
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn u64_cycle_counts_do_not_truncate() {
        let j = Json::UInt(u64::MAX);
        assert_eq!(j.render_line(), u64::MAX.to_string());
        assert_eq!(Json::parse(&u64::MAX.to_string()), Ok(j));
    }

    #[test]
    fn floats_render_shortest_and_read_back_as_floats() {
        assert_eq!(Json::Num(16.0).render_line(), "16.0");
        assert_eq!(Json::Num(1.945_672_36).render_line(), "1.94567236");
        assert_eq!(Json::Num(f64::NAN).render_line(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render_line(), "null");
        assert_eq!(Json::parse("16.0"), Ok(Json::Num(16.0)));
        assert_eq!(Json::parse("-2.5e-3"), Ok(Json::Num(-0.0025)));
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("7"), Ok(Json::UInt(7)));
    }

    #[test]
    fn parse_decodes_escapes_and_utf8() {
        let v = Json::parse(r#"["u\u0061rt", "ibéx", "\ud83d\ude00\n\/"]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("uart"));
        assert_eq!(items[1].as_str(), Some("ibéx"));
        assert_eq!(items[2].as_str(), Some("\u{1f600}\n/"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\x""#,
            "\"a\u{1}\"",
            r#""\u12""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            "[1] x",
            "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_answer_none_on_the_wrong_shape() {
        let v = Json::parse(r#"{"n": 5, "s": "x", "a": [], "m": -1}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("m").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(0)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("s").and_then(Json::as_object), None);
        assert_eq!(Json::UInt(1).get("n"), None);
    }
}
