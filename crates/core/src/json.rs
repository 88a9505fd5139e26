//! Dependency-free JSON reader/writer for configs and reports.
//!
//! The container this workspace builds in has no crates.io access, so
//! `serde`/`serde_json` are unavailable; operating points, stage reports,
//! calibration tables and the zoo cache key are small enough that a
//! hand-rolled value type suffices. Persisted weights and indices use the
//! binary container in [`crate::binary`] instead.
//!
//! Finite `f32` values round-trip **bit-exactly**: they are written with
//! Rust's shortest-round-trip `Display` and re-parsed with
//! `str::parse::<f32>`, both of which are correctly rounded. Non-finite
//! floats have no JSON number representation (`NaN` bare would be an
//! invalid token), so [`Json::from_f32`] writes them as the string
//! sentinels `"NaN"` / `"inf"` / `"-inf"` — still valid JSON — and
//! [`Json::as_f32`] maps exactly those three strings back, so a report
//! holding a non-finite measurement still re-loads; any other string where
//! a number is expected is a clear [`ErError::Parse`].

use crate::error::{ErError, Result};
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their raw text so integers above 2^53
/// and floats both survive untouched; object key order is preserved so a
/// load/save cycle is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Raw number text exactly as written/parsed.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    // ---- constructors ----------------------------------------------------

    /// Serialize an `f32`. Finite values become JSON numbers (bit-exact on
    /// re-parse); NaN and ±Inf become the string sentinels `"NaN"`,
    /// `"inf"`, `"-inf"` that [`Json::as_f32`] understands.
    pub fn from_f32(v: f32) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else if v.is_nan() {
            Json::Str("NaN".to_string())
        } else if v > 0.0 {
            Json::Str("inf".to_string())
        } else {
            Json::Str("-inf".to_string())
        }
    }

    pub fn from_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn from_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    pub fn from_str_value(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    // ---- accessors -------------------------------------------------------

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that fails loudly with the missing key name.
    pub fn expect(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| ErError::Parse(format!("missing field `{key}`")))
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(ErError::Parse(format!("expected string, got {other:?}"))),
        }
    }

    /// Read an `f32`: a JSON number, or one of the non-finite sentinels
    /// `"NaN"` / `"inf"` / `"-inf"` written by [`Json::from_f32`]. Any
    /// other string is an error — finite floats never hide in strings.
    pub fn as_f32(&self) -> Result<f32> {
        match self {
            Json::Num(raw) => raw
                .parse::<f32>()
                .map_err(|e| ErError::Parse(format!("bad f32 `{raw}`: {e}"))),
            Json::Str(s) => match s.as_str() {
                "NaN" => Ok(f32::NAN),
                "inf" => Ok(f32::INFINITY),
                "-inf" => Ok(f32::NEG_INFINITY),
                other => Err(ErError::Parse(format!(
                    "expected number or non-finite sentinel, got string `{other}`"
                ))),
            },
            other => Err(ErError::Parse(format!("expected number, got {other:?}"))),
        }
    }

    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|e| ErError::Parse(format!("bad u64 `{raw}`: {e}"))),
            other => Err(ErError::Parse(format!("expected number, got {other:?}"))),
        }
    }

    pub fn as_usize(&self) -> Result<usize> {
        Ok(self.as_u64()? as usize)
    }

    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(ErError::Parse(format!("expected array, got {other:?}"))),
        }
    }

    pub fn as_obj(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(ErError::Parse(format!("expected object, got {other:?}"))),
        }
    }

    // ---- writer ----------------------------------------------------------

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // ---- parser ----------------------------------------------------------

    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ErError::Parse(format!(
                "trailing data at byte {} of {}",
                p.pos,
                p.bytes.len()
            )));
        }
        Ok(value)
    }
}

/// Compact rendering; `Json::parse(&v.to_string())` round-trips exactly.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn fail(&self, what: &str) -> ErError {
        ErError::Parse(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek().ok_or_else(|| self.fail("unexpected end"))? {
            b'n' => {
                self.eat_literal("null")?;
                Ok(Json::Null)
            }
            b't' => {
                self.eat_literal("true")?;
                Ok(Json::Bool(true))
            }
            b'f' => {
                self.eat_literal("false")?;
                Ok(Json::Bool(false))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.fail(&format!("unexpected byte `{}`", other as char))),
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
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
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.fail("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.fail("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair.
                                self.eat_literal("\\u")?;
                                let second = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&second) {
                                    return Err(self.fail("bad low surrogate"));
                                }
                                0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("bad unicode escape"))?,
                            );
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 char (input is a &str, so this is safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.fail("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.fail("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.fail("short unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.fail("bad unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.fail("bad unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(self.fail("expected number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("bad number"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"nested":"yes"},"c":null,"d":true,"e":""}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.to_string(), text);
        assert_eq!(
            parsed
                .get("b")
                .unwrap()
                .get("nested")
                .unwrap()
                .as_str()
                .unwrap(),
            "yes"
        );
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            std::f32::consts::PI,
            1.1754944e-38,
            3.4028235e38,
            -4.2e-12,
            0.1 + 0.2,
        ];
        for v in values {
            let json = Json::from_f32(v);
            let back = Json::parse(&json.to_string()).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v} changed bits");
        }
    }

    #[test]
    fn non_finite_f32s_round_trip_via_sentinels() {
        // NaN / ±Inf cannot be JSON numbers; they must survive a full
        // write → parse → read cycle as the string sentinels, so a report
        // holding one still loads.
        let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5];
        let json = Json::Arr(values.iter().map(|&v| Json::from_f32(v)).collect());
        let text = json.to_string();
        assert_eq!(text, r#"["NaN","inf","-inf",1.5]"#);
        let parsed = Json::parse(&text).unwrap();
        let back: Vec<f32> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f32().unwrap())
            .collect();
        assert!(back[0].is_nan());
        assert_eq!(back[1], f32::INFINITY);
        assert_eq!(back[2], f32::NEG_INFINITY);
        assert_eq!(back[3].to_bits(), 1.5f32.to_bits());
    }

    #[test]
    fn arbitrary_strings_are_not_numbers() {
        assert!(Json::Str("1.5".to_string()).as_f32().is_err());
        assert!(Json::Str("Infinity".to_string()).as_f32().is_err());
        assert!(Json::Null.as_f32().is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nbreak \"quote\" back\\slash tab\t unicode é 中 \u{0007}";
        let json = Json::Str(s.to_string());
        let back = Json::parse(&json.to_string()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let escaped = Json::parse(r#""\ud83e\udd80""#).unwrap();
        assert_eq!(escaped.as_str().unwrap(), "🦀");
        let literal = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(literal.as_str().unwrap(), "🦀");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }
}
