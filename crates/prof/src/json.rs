//! Minimal zero-dependency JSON parser.
//!
//! The consumption side of the observability pipeline: `mss-obs` emits
//! NDJSON with a hand-rolled writer, and this module reads it (and the
//! Chrome traces / baselines built from it) back into a [`Value`] tree. It
//! is a strict RFC 8259 subset parser — no trailing commas, no comments, no
//! NaN/Infinity literals — so anything it accepts loads in Perfetto,
//! `jq`, and every standards-compliant consumer.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; see [`Value::as_u64`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are unique; a duplicate key is a parse error (NDJSON
    /// report lines never repeat keys, so a repeat means a corrupt file).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset and what was expected.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
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

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer (counters, counts).
    ///
    /// Rejects negatives, fractions, and magnitudes beyond 2⁵³ where `f64`
    /// can no longer represent every integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
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
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {} at byte {}",
                other.map_or("end of input".to_string(), |c| format!("{:?}", *c as char)),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?} at byte {key_at}"));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(format!(
                                            "bad low surrogate at byte {}",
                                            self.pos
                                        ));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(format!(
                                        "lone high surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!("invalid code point at byte {}", self.pos))
                                }
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| *c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(format!("raw control byte at {}", self.pos)),
                Some(&lead) => {
                    // Advance one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8 by construction). Decode
                    // only that character's bytes: validating the whole
                    // remainder made long documents quadratic.
                    let width = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let step = std::str::from_utf8(&self.bytes[self.pos..end])
                        .ok()
                        .and_then(|s| s.chars().next())
                        .map_or(1, |c| {
                            out.push(c);
                            c.len_utf8()
                        });
                    self.pos += step;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {}", self.pos));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("non-ASCII \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("unparseable number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5e-3").unwrap(), Value::Num(-1.5e-3));
        assert_eq!(
            Value::parse("\"hi\"").unwrap(),
            Value::Str("hi".to_string())
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
        let v = Value::parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\t\"\\A😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1}extra",
            "{\"dup\":1,\"dup\":2}",
            "\"lone\\ud800\"",
            "nan",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn u64_conversion_is_exact_only() {
        assert_eq!(Value::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Value::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_obs_emitter_output() {
        use mss_obs::ndjson::{json_num, json_str};
        let line = format!(
            "{{\"name\":{},\"v\":{}}}",
            json_str("weird \"name\"\\with\nctrl\u{1}"),
            json_num(1.25e-9)
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(
            v.get("name").unwrap().as_str().unwrap(),
            "weird \"name\"\\with\nctrl\u{1}"
        );
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.25e-9));
    }
}
