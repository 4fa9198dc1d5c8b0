//! The workspace's one JSON grammar: the line builder that writes every
//! NDJSON line, and the strict parser that reads every JSON file back.
//!
//! Writing: [`Line`] builds one flat object, keys in insertion order, over
//! the shared escapers [`json_str`] and [`json_num`]. Run reports, event-bus
//! lines, failure manifests, on-disk cache entries and sweep journals all
//! go through it. The two multi-line documents (committed baselines and the
//! Chrome exporter in `mss-prof`) use the escapers directly.
//!
//! Reading: [`Value::parse`] is a strict RFC 8259 parser — no trailing
//! commas, no comments, no NaN/Infinity literals, no leading zeros, no
//! duplicate keys — so anything it accepts loads in Perfetto, `jq` and
//! every standards-compliant consumer. Numbers keep their source text, so
//! a `u64` counter reads back exactly. Nesting is bounded by `MAX_DEPTH`,
//! so hostile input is an error, never a stack overflow. Every error names
//! the byte offset where parsing stopped.

use std::collections::BTreeMap;

/// Escapes a string as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// The `meta` line that opens every NDJSON file (run report, event stream,
/// flight dump), newline included. `reason` is set only on flight dumps.
pub fn meta_line(mode: &str, dropped_events: u64, reason: Option<&str>) -> String {
    let mut line = Line::new()
        .str("type", "meta")
        .u64("schema", u64::from(crate::SCHEMA_VERSION))
        .str("mode", mode)
        .u64("dropped_events", dropped_events);
    if let Some(reason) = reason {
        line = line.str("reason", reason);
    }
    line.finish() + "\n"
}

/// Builds one flat JSON object line, keys in insertion order.
#[derive(Debug, Default)]
pub struct Line {
    body: String,
}

impl Line {
    /// An empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &str, rendered: &str) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&json_str(key));
        self.body.push(':');
        self.body.push_str(rendered);
        self
    }

    /// Adds a string field (JSON-escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, &json_str(value))
    }

    /// Adds an unsigned integer field, written as plain digits.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(key, &value.to_string())
    }

    /// Adds a number field ([`json_num`]: `null` when not finite).
    pub(crate) fn num(self, key: &str, value: f64) -> Self {
        self.field(key, &json_num(value))
    }

    /// Adds a `null` field.
    pub(crate) fn null(self, key: &str) -> Self {
        self.field(key, "null")
    }

    /// Adds an array field from already-rendered JSON elements.
    pub(crate) fn array(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.field(key, &format!("[{}]", items.join(",")))
    }

    /// Renders the `{...}` object (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Deepest array/object nesting [`Value::parse`] accepts. The deepest
/// writer nests 3 levels (report line → `buckets` → pair).
pub(crate) const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong, and the byte offset where it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (see [`Value::as_f64`] and
    /// [`Value::as_u64`]).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are unique; a duplicate key is a parse error (no
    /// writer repeats a key, so a repeat means a corrupt file).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the byte offset and what was expected there.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// The object map, when this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number (nearest `f64`; magnitudes beyond
    /// `f64::MAX` read as infinite).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64` (counters, counts): plain digits in
    /// range only, so negatives, fractions and exponents are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.get(key)
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err_at(&self, offset: usize, message: impl Into<String>) -> ParseError {
        let message = message.into();
        ParseError { offset, message }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs an array/object body one level deeper, bounded by [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// Parses `item (',' item)*` up to the `close` bracket (the opening one
    /// is already consumed); an empty body is allowed.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        let mut map = BTreeMap::new();
        self.items(b'}', |p| {
            p.skip_ws();
            let key_at = p.pos;
            let key = p.string()?;
            p.skip_ws();
            if p.peek() != Some(b':') {
                return Err(p.err("expected ':'"));
            }
            p.pos += 1;
            let value = p.value()?;
            if map.contains_key(&key) {
                return Err(p.err_at(key_at, format!("duplicate key {key:?}")));
            }
            map.insert(key, value);
            Ok(())
        })?;
        Ok(Value::Obj(map))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one go. Its end is an
            // ASCII byte, so the slice always falls on char boundaries.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.text.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Decodes one escape sequence; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.text[self.pos..].starts_with("\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("bad low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid code point"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // `from_str_radix` alone would also take a sign, so check the digits.
        let Some(v) = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
        else {
            return Err(self.err("bad \\u escape"));
        };
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos - s
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_at = self.pos;
        match digits(self) {
            0 => return Err(self.err_at(start, "bad number")),
            n if n > 1 && self.text.as_bytes()[int_at] == b'0' => {
                return Err(self.err_at(start, "leading zero in number"))
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.err_at(start, "bad fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.err_at(start, "bad exponent"));
            }
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: &Value) -> f64 {
        v.as_f64().expect("a number")
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(num(&Value::parse("42").unwrap()), 42.0);
        assert_eq!(num(&Value::parse("-1.5e-3").unwrap()), -1.5e-3);
        assert_eq!(num(&Value::parse("0.5E+2").unwrap()), 50.0);
        assert_eq!(
            Value::parse("\"hi\"").unwrap(),
            Value::Str("hi".to_string())
        );
    }

    #[test]
    fn numbers_keep_their_source_text() {
        assert_eq!(
            Value::parse(" 1.50e3 ").unwrap(),
            Value::Num("1.50e3".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a":[1,{"b":null},"x"],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Value::Bool(true)));
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let v = Value::parse(r#""a\n\t\"\\\/\u0041\ud83d\ude00é""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\t\"\\/A😀é");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"k\" 1}",
            "{\"unterminated",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "01x",
            "01",
            "-",
            "1.",
            "1e",
            "+1",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "{\"a\":1}extra",
            "{\"dup\":1,\"dup\":2}",
            "{\"k\":abc}",
            "{\"k\":1 2}",
            "\"lone\\ud800\"",
            "\"low first\\udc00\"",
            "\"\\u+123\"",
            "\"\\x\"",
            "nan",
        ] {
            let err = Value::parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
            assert!(err.to_string().contains(" at byte "), "{bad:?}: {err}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let err = Value::parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.offset, 7);
        assert_eq!(err.to_string(), "unexpected 'x' at byte 7");
        let err = Value::parse("{\"a\":1,\"a\":2}").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn nesting_is_bounded() {
        let bomb = "[".repeat(1_000_000);
        let err = Value::parse(&bomb).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"k\":".repeat(1_000_000);
        assert!(Value::parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deepest).is_ok());
    }

    #[test]
    fn u64_conversion_is_exact_only() {
        assert_eq!(Value::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Value::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1e300").unwrap().as_u64(), None);
        assert_eq!(
            Value::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Value::parse("9007199254740993").unwrap().as_u64(),
            Some((1 << 53) + 1)
        );
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_obs_emitter_output() {
        let line = Line::new()
            .str("name", "weird \"name\"\\with\nctrl\u{1}")
            .u64("n", u64::MAX)
            .num("v", 1.25e-9)
            .num("nan", f64::NAN)
            .null("none")
            .array("pairs", [0, 1].map(|i| format!("[{i},{}]", i * 2)))
            .finish();
        assert_eq!(
            line,
            "{\"name\":\"weird \\\"name\\\"\\\\with\\nctrl\\u0001\",\"n\":18446744073709551615,\
             \"v\":1.25e-9,\"nan\":null,\"none\":null,\"pairs\":[[0,0],[1,2]]}"
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(
            v.get("name").unwrap().as_str().unwrap(),
            "weird \"name\"\\with\nctrl\u{1}"
        );
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.25e-9));
        assert!(v.get("nan").unwrap().is_null() && v.get("none").unwrap().is_null());
        assert_eq!(v.get("pairs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(Line::new().finish(), "{}");
    }
}
